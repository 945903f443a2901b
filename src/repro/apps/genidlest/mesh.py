"""Multi-block structured mesh with ghost cells and virtual cache blocks.

GenIDLEST uses "an overlapping multi-block body-fitted structured mesh
topology in each block combining it with an unstructured inter-block
topology" — blocks are the parallelization unit (MPI ranks, OpenMP
threads), and within each block "virtual cache blocks" feed the two-level
additive Schwarz preconditioner while keeping working sets cache-sized.

The paper's two cases:

* **45rib** — 128×80×64 grid, 8 blocks of 128×80×8 (Detached Eddy Sim.)
* **90rib** — 128×128×128 grid, 32 blocks of 128×128×4 (Large Eddy Sim.)

Blocks are a 1-D decomposition along k with ghost layers at inter-block
faces; the flow direction is periodic, so the first and last blocks also
exchange.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...core.result import AnalysisError

#: Bytes per scalar field value (double precision).
REAL_BYTES = 8

#: Number of persistent field arrays per block (velocities, pressure,
#: coefficients, residuals, temporaries) — sets the block memory footprint.
FIELDS_PER_BLOCK = 10


@dataclass(frozen=True)
class Block:
    """One structured block."""

    id: int
    ni: int
    nj: int
    nk: int

    @property
    def cells(self) -> int:
        return self.ni * self.nj * self.nk

    @property
    def face_cells(self) -> int:
        """Cells in one k-face ghost layer (the exchange unit)."""
        return self.ni * self.nj

    @property
    def face_bytes(self) -> int:
        return self.face_cells * REAL_BYTES

    @property
    def bytes(self) -> int:
        """Resident bytes of all field arrays of this block."""
        return self.cells * REAL_BYTES * FIELDS_PER_BLOCK


@dataclass(frozen=True)
class CaseConfig:
    """One of the paper's test cases."""

    name: str
    grid: tuple[int, int, int]
    n_blocks: int

    def __post_init__(self) -> None:
        ni, nj, nk = self.grid
        if nk % self.n_blocks != 0:
            raise ValueError(
                f"{self.name}: nk={nk} not divisible by {self.n_blocks} blocks"
            )


RIB45 = CaseConfig("45rib", (128, 80, 64), 8)
RIB90 = CaseConfig("90rib", (128, 128, 128), 32)
#: The paper's cases by name.
CASES = {case.name: case for case in (RIB45, RIB90)}


def case_config(name: str) -> CaseConfig:
    """The case called ``name``; an unknown name is an ``AnalysisError``."""
    try:
        return CASES[name]
    except KeyError:
        raise AnalysisError(
            f"unknown GenIDLEST case {name!r}; expected one of {list(CASES)}"
        ) from None


class MultiBlockMesh:
    """The decomposed mesh: blocks, neighbours, and exchange schedule."""

    def __init__(self, config: CaseConfig) -> None:
        self.config = config
        ni, nj, nk = config.grid
        per_block_k = nk // config.n_blocks
        self.blocks = [
            Block(b, ni, nj, per_block_k) for b in range(config.n_blocks)
        ]
        #: Per-block cell counts and k-face bytes, the kernel models' input.
        self.cells = np.array([block.cells for block in self.blocks], float)
        self.face_bytes = np.array([b.face_bytes for b in self.blocks], float)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def neighbors(self, block_id: int) -> tuple[int, int]:
        """(previous, next) neighbour block ids; periodic in k."""
        n = self.n_blocks
        if not 0 <= block_id < n:
            raise ValueError(f"block {block_id} out of range")
        return ((block_id - 1) % n, (block_id + 1) % n)

    def exchange_pairs(self) -> list[tuple[int, int]]:
        """Directed ghost-update pairs (src, dest) including periodic wrap."""
        pairs = []
        for b in range(self.n_blocks):
            _, nxt = self.neighbors(b)
            pairs.append((b, nxt))
            pairs.append((nxt, b))
        return pairs

    def on_processor_copies(self, *, buffered: bool) -> int:
        """Ghost-copy count per full update in shared memory.

        The legacy (MPI-oriented) path fills an intermediate send buffer
        and copies it into an intermediate receive buffer before the final
        placement — "two additional temporary buffers" — so each directed
        pair costs 2 copies; the optimized path copies send-buffer →
        destination directly (1 copy per pair).
        """
        pairs = len(self.exchange_pairs())
        return pairs * 2 - 2 if buffered else pairs
