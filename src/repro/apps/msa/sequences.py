"""Synthetic protein sequence generation.

The paper's MSAP experiments use 400- and 1000-sequence protein sets.  We
generate reproducible synthetic sets with the statistical property that
drives the case study: *heterogeneous lengths*.  Pairwise Smith–Waterman
cost is the product of sequence lengths, so length variance is exactly what
makes static loop schedules imbalanced.

Lengths follow a log-normal distribution (typical of real protein
databases) clipped to a sane range; residues are drawn from the 20-letter
amino-acid alphabet with empirical background frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: The 20 standard amino acids.
AMINO_ACIDS = "ARNDCQEGHILKMFPSTWYV"

#: Rough background frequencies (Robinson & Robinson order-of-magnitude).
_FREQUENCIES = np.array(
    [
        0.078, 0.051, 0.045, 0.054, 0.019, 0.043, 0.063, 0.074, 0.022, 0.051,
        0.091, 0.057, 0.022, 0.039, 0.052, 0.071, 0.058, 0.013, 0.032, 0.065,
    ]
)
_FREQUENCIES = _FREQUENCIES / _FREQUENCIES.sum()


@dataclass(frozen=True)
class SequenceSet:
    """A named set of synthetic protein sequences."""

    name: str
    sequences: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.sequences)

    @property
    def lengths(self) -> np.ndarray:
        return np.array([len(s) for s in self.sequences])

    def total_cells(self) -> int:
        """Total DP cells of the full pairwise comparison (i<j)."""
        lengths = self.lengths
        total = 0
        for i in range(len(lengths)):
            total += int(lengths[i] * lengths[i + 1 :].sum())
        return total


def generate_sequences(
    n: int,
    *,
    seed: int = 0,
    mean_length: float = 350.0,
    sigma: float = 0.45,
    min_length: int = 40,
    max_length: int = 2000,
    name: str | None = None,
) -> SequenceSet:
    """Generate ``n`` synthetic protein sequences.

    ``sigma`` is the log-normal shape parameter — larger values widen the
    length distribution and worsen static-schedule imbalance.
    """
    if n < 1:
        raise ValueError("need at least one sequence")
    if min_length < 1 or max_length < min_length:
        raise ValueError("bad length bounds")
    rng = np.random.default_rng(seed)
    mu = np.log(mean_length) - sigma**2 / 2.0
    lengths = np.clip(
        rng.lognormal(mu, sigma, size=n).astype(int), min_length, max_length
    )
    alphabet = np.frombuffer(AMINO_ACIDS.encode(), dtype=np.uint8)
    # One draw for every residue: ``choice`` consumes one uniform per
    # sample, so slicing the joint draw gives exactly the strings that one
    # draw per sequence would.
    idx = rng.choice(len(alphabet), size=int(lengths.sum()), p=_FREQUENCIES)
    residues = alphabet[idx].tobytes().decode()
    ends = np.cumsum(lengths).tolist()
    starts = [0] + ends[:-1]
    seqs = tuple(residues[a:b] for a, b in zip(starts, ends))
    return SequenceSet(name or f"synthetic-{n}", seqs)
