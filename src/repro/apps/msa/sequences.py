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

from typing import Sequence

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


class SequenceSet:
    """A named set of synthetic protein sequences.

    A set from :func:`generate_sequences` holds the lengths and the state
    of the generator its residues come from, and draws the strings when
    :attr:`sequences` is first read: the simulated runs need only lengths.
    """

    def __init__(self, name: str, sequences: Sequence[str]) -> None:
        self.name = name
        self._sequences: tuple[str, ...] | None = tuple(sequences)
        self.lengths = np.array([len(s) for s in self._sequences])
        self.lengths.flags.writeable = False

    @classmethod
    def _undrawn(cls, name: str, lengths: np.ndarray, residue_state: dict):
        seqs = cls(name, ())
        seqs.lengths, seqs._sequences = lengths, None
        seqs._residue_state = residue_state
        return seqs

    @property
    def sequences(self) -> tuple[str, ...]:
        if self._sequences is None:
            bits = np.random.PCG64()
            bits.state = self._residue_state
            alphabet = np.frombuffer(AMINO_ACIDS.encode(), dtype=np.uint8)
            # One draw for every residue: ``choice`` consumes one uniform
            # per sample, so slicing the joint draw gives exactly the
            # strings that one draw per sequence would.
            idx = np.random.Generator(bits).choice(
                len(alphabet), size=int(self.lengths.sum()), p=_FREQUENCIES
            )
            residues = alphabet[idx].tobytes().decode()
            ends = np.cumsum(self.lengths).tolist()
            self._sequences = tuple(
                residues[a:b] for a, b in zip([0] + ends[:-1], ends)
            )
        return self._sequences

    def __len__(self) -> int:
        return len(self.lengths)

#: Log-normal shape of the sequence lengths: larger values widen the length
#: distribution and worsen static-schedule imbalance.
LENGTH_SIGMA = 0.45


def generate_sequences(
    n: int,
    *,
    seed: int = 0,
    mean_length: float = 350.0,
    min_length: int = 40,
    max_length: int = 2000,
    name: str | None = None,
) -> SequenceSet:
    """Generate ``n`` synthetic protein sequences.

    Lengths are log-normal with shape :data:`LENGTH_SIGMA` around
    ``mean_length``.
    """
    if n < 1:
        raise ValueError("need at least one sequence")
    if min_length < 1 or max_length < min_length:
        raise ValueError("bad length bounds")
    rng = np.random.default_rng(seed)
    mu = np.log(mean_length) - LENGTH_SIGMA**2 / 2.0
    lengths = np.clip(
        rng.lognormal(mu, LENGTH_SIGMA, size=n).astype(int), min_length, max_length
    )
    lengths.flags.writeable = False
    return SequenceSet._undrawn(
        name or f"synthetic-{n}", lengths, rng.bit_generator.state
    )
