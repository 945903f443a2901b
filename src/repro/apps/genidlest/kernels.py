"""GenIDLEST computational kernels: real NumPy implementations + cost models.

The §III.B profile names the procedures that fail to scale:
``bicgstab``, ``diff_coeff``, ``matxvec``, ``pc``, ``pc_jac_glb``, and
``exchange_var``.  Each kernel here has

* a **real implementation** operating on 3-D block arrays (tested for
  correctness at small sizes — e.g. ``matxvec`` against an assembled
  sparse matrix), and
* a **work-signature model** (``*_signature``) describing its per-call
  cost at full scale for the runtime simulator, as columns over the
  blocks' cell counts.

Signature op counts are derived by inspection of the implementations
(stencil width, arrays touched per cell) rather than free-hand, so the
simulated instruction mix tracks the real code.
"""

from __future__ import annotations

import numpy as np

from .mesh import FIELDS_PER_BLOCK, REAL_BYTES

# ---------------------------------------------------------------------------
# Real kernels (small-scale correctness)
# ---------------------------------------------------------------------------


def diff_coeff(u: np.ndarray, dx: float) -> np.ndarray:
    """Diffusion coefficients at cell faces: harmonic mean of neighbours.

    Returns an array shaped like ``u`` holding the i-face coefficient
    (other directions are symmetric; one suffices for testing).
    """
    if u.ndim != 3:
        raise ValueError("expected a 3-D block array")
    coef = np.zeros_like(u)
    a = u[:-1, :, :]
    b = u[1:, :, :]
    denom = a + b
    coef[:-1, :, :] = np.divide(
        2.0 * a * b, denom, out=np.zeros_like(a), where=denom != 0
    ) / (dx * dx)
    return coef


def matxvec(p: np.ndarray, coef: float = 1.0) -> np.ndarray:
    """7-point Laplacian stencil applied to ``p`` (Dirichlet boundaries).

    The operator GenIDLEST's pressure solve applies every BiCGSTAB
    iteration: ``(A p)_ijk = 6 p_ijk - Σ neighbours``.
    """
    if p.ndim != 3:
        raise ValueError("expected a 3-D block array")
    out = 6.0 * p.copy()
    out[:-1, :, :] -= p[1:, :, :]
    out[1:, :, :] -= p[:-1, :, :]
    out[:, :-1, :] -= p[:, 1:, :]
    out[:, 1:, :] -= p[:, :-1, :]
    out[:, :, :-1] -= p[:, :, 1:]
    out[:, :, 1:] -= p[:, :, :-1]
    return coef * out


def pc_jacobi(r: np.ndarray, diag: float = 6.0) -> np.ndarray:
    """Pointwise Jacobi preconditioner: ``z = r / diag(A)``."""
    return r / diag


def pc_schwarz(
    r: np.ndarray, *, sweeps: int = 2, subblocks: int = 4, diag: float = 6.0
) -> np.ndarray:
    """Two-level additive Schwarz over virtual cache blocks.

    Each k-contiguous subdomain runs ``sweeps`` local damped-Jacobi
    iterations of the 7-point operator independently (block-restricted —
    no halo coupling, which is what makes it *additive*); the coarse
    correction is a global mean adjustment.
    """
    if r.ndim != 3:
        raise ValueError("expected a 3-D block array")
    if sweeps < 1 or subblocks < 1:
        raise ValueError("sweeps and subblocks must be >= 1")
    z = np.zeros_like(r)
    bounds = np.linspace(0, r.shape[2], subblocks + 1).astype(int)
    omega = 0.8
    for s in range(subblocks):
        lo, hi = bounds[s], bounds[s + 1]
        if hi <= lo:
            continue
        rb = r[:, :, lo:hi]
        zb = rb / diag
        for _ in range(sweeps - 1):
            zb = zb + omega * (rb - matxvec(zb)) / diag
        z[:, :, lo:hi] = zb
    # coarse-level (global mean) correction
    z += (r.mean() - matxvec(z).mean()) / diag
    return z


def fill_ghost_faces(
    dest: np.ndarray, src_lo: np.ndarray, src_hi: np.ndarray
) -> None:
    """Copy neighbour face planes into the ghost layers (k-direction)."""
    if dest.ndim != 3:
        raise ValueError("expected a 3-D block array")
    dest[:, :, 0] = src_lo
    dest[:, :, -1] = src_hi


# ---------------------------------------------------------------------------
# Work-signature models (per call, per block), as column formulas
# ---------------------------------------------------------------------------
#
# Each model maps an array of block cell counts (or of copied bytes) to the
# work columns of one task per block: keyword arguments of a
# :class:`~repro.machine.TaskTable`.

#: Knobs shared by the field kernels: large footprints, moderate reuse when
#: virtual cache blocking is on.
_CACHE_BLOCKED_REUSE = 0.85
_UNBLOCKED_REUSE = 0.55


def _stencil(cells, flops, int_ops, loads, stores, branches, arrays,
             **knobs) -> dict:
    """Per-cell operation counts times ``cells``; ``arrays`` block-sized
    arrays of footprint."""
    cells = np.asarray(cells, float)
    return dict(
        flops=cells * flops, int_ops=cells * int_ops, loads=cells * loads,
        stores=cells * stores, branches=cells * branches,
        footprint_bytes=cells * REAL_BYTES * arrays, **knobs,
    )


def diff_coeff_signature(cells, *, cache_blocked: bool = True) -> dict:
    """Per-call cost: 3 face directions × (2 mul + 1 add + 1 div ≈ 6 flops),
    reads u + writes 3 coef arrays."""
    return _stencil(cells, 18.0, 3.0, 6.0, 3.0, 0.15, 4,
                    reuse=_CACHE_BLOCKED_REUSE if cache_blocked else _UNBLOCKED_REUSE,
                    fp_dependency=0.25, issue_inflation=1.15)


def matxvec_signature(cells, *, cache_blocked: bool = True) -> dict:
    """7-point stencil: 6 subs + 1 mul + 1 scale per cell; 7 reads 1 write."""
    return _stencil(cells, 8.0, 3.0, 7.0, 1.0, 0.1, 2,
                    reuse=_CACHE_BLOCKED_REUSE if cache_blocked else _UNBLOCKED_REUSE,
                    fp_dependency=0.2, issue_inflation=1.15)


def pc_signature(cells, *, cache_blocked: bool = True) -> dict:
    """Schwarz smoother: ~2 sweeps of stencil + divide per cell."""
    return _stencil(cells, 20.0, 4.0, 10.0, 2.0, 0.2, 3,
                    reuse=0.92 if cache_blocked else _UNBLOCKED_REUSE,
                    fp_dependency=0.3, issue_inflation=1.15)


def pc_jac_glb_signature(cells, *, cache_blocked: bool = True) -> dict:
    """Global Jacobi step: divide + axpy per cell (bandwidth bound)."""
    return _stencil(cells, 4.0, 2.0, 3.0, 1.0, 0.1, 2,
                    reuse=0.7 if cache_blocked else _UNBLOCKED_REUSE,
                    fp_dependency=0.15, issue_inflation=1.1)


def bicgstab_vector_signature(cells) -> dict:
    """The solver's own vector algebra per iteration (dots, axpys):
    ~10 vector ops over the block; dot-product reductions serialize."""
    return _stencil(cells, 10.0, 2.0, 10.0, 4.0, 0.05, 6, reuse=0.6,
                    fp_dependency=0.35, issue_inflation=1.1)


def init_signature(cells) -> dict:
    """Field initialization: write every cell of every array once (cold
    writes)."""
    return _stencil(cells, 2.0, 2.0, 1.0, FIELDS_PER_BLOCK, 0.05,
                    FIELDS_PER_BLOCK, reuse=0.0, fp_dependency=0.05,
                    issue_inflation=1.05)


def copy_signature(nbytes) -> dict:
    """A ghost-face memcpy of ``nbytes``: pure streaming, no reuse, no FP."""
    nbytes = np.asarray(nbytes, float)
    if (nbytes < 0).any():
        raise ValueError("nbytes must be non-negative")
    words = nbytes / REAL_BYTES
    return dict(int_ops=words * 0.5, loads=words, stores=words,
                branches=words * 0.05, footprint_bytes=2.0 * nbytes,
                reuse=0.0, fp_dependency=0.0, issue_inflation=1.05)
