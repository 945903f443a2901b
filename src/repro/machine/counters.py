"""Hardware counter vocabulary and counter-vector arithmetic.

The paper's diagnosis formulas are written over the Itanium 2 (Madison)
performance-monitoring events, following Jarp's bottleneck methodology:

* ``CPU_CYCLES`` — total cycles,
* ``BACK_END_BUBBLE_ALL`` — total back-end stall ("bubble") cycles,
* the stall *decomposition* counters (L1D misses, branch mispredictions,
  instruction misses, stack-engine stalls, floating-point stalls, pipeline
  inter-register dependencies, front-end flushes),
* the memory-hierarchy counters (L2/L3 references and misses, TLB misses,
  local/remote memory access counts).

This module names those counters and provides :class:`CounterVector`, a
small additive record the simulated runtime accumulates per code region and
per thread.  Vectors support ``+``/scalar ``*`` so callers can aggregate
per-chunk costs without per-key loops.

A vector is dense: one float64 per *counter slot*.  The slots are
:data:`ALL_COUNTERS` in order, followed by any other counter name, which
joins the module registry the first time a vector is built with it
(:func:`counter_slot`).  Arrays built before a name was registered are
simply shorter; every operation reads missing trailing slots as 0.0.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator, Mapping

import numpy as np

# -- counter names (the subset of the Itanium 2 PMU the paper uses) -------

CPU_CYCLES = "CPU_CYCLES"
BACK_END_BUBBLE_ALL = "BACK_END_BUBBLE_ALL"

INSTRUCTIONS_COMPLETED = "INSTRUCTIONS_COMPLETED"
INSTRUCTIONS_ISSUED = "INSTRUCTIONS_ISSUED"
FP_OPS = "FP_OPS"

# Jarp stall decomposition (Total Stall Cycles = sum of these)
L1D_CACHE_MISS_STALLS = "L1D_CACHE_MISS_STALLS"
BRANCH_MISPREDICT_STALLS = "BRANCH_MISPREDICT_STALLS"
INSTRUCTION_MISS_STALLS = "INSTRUCTION_MISS_STALLS"
STACK_ENGINE_STALLS = "STACK_ENGINE_STALLS"
FP_STALLS = "FP_STALLS"
PIPELINE_REGISTER_DEP_STALLS = "PIPELINE_REGISTER_DEP_STALLS"
FRONTEND_FLUSH_STALLS = "FRONTEND_FLUSH_STALLS"

STALL_COMPONENTS = (
    L1D_CACHE_MISS_STALLS,
    BRANCH_MISPREDICT_STALLS,
    INSTRUCTION_MISS_STALLS,
    STACK_ENGINE_STALLS,
    FP_STALLS,
    PIPELINE_REGISTER_DEP_STALLS,
    FRONTEND_FLUSH_STALLS,
)

# Memory hierarchy counters (inputs to the paper's Memory Stalls formula)
L2_DATA_REFERENCES = "L2_DATA_REFERENCES"
L2_MISSES = "L2_MISSES"
L3_MISSES = "L3_MISSES"
L3_REFERENCES = "L3_REFERENCES"
TLB_MISSES = "TLB_MISSES"
LOCAL_MEMORY_ACCESSES = "LOCAL_MEMORY_ACCESSES"
REMOTE_MEMORY_ACCESSES = "REMOTE_MEMORY_ACCESSES"

MEMORY_COUNTERS = (
    L2_DATA_REFERENCES,
    L2_MISSES,
    L3_REFERENCES,
    L3_MISSES,
    TLB_MISSES,
    LOCAL_MEMORY_ACCESSES,
    REMOTE_MEMORY_ACCESSES,
)

#: Wall-clock time in microseconds (TAU's TIME metric).
TIME = "TIME"

ALL_COUNTERS = (
    TIME,
    CPU_CYCLES,
    BACK_END_BUBBLE_ALL,
    INSTRUCTIONS_COMPLETED,
    INSTRUCTIONS_ISSUED,
    FP_OPS,
    *STALL_COMPONENTS,
    *MEMORY_COUNTERS,
)


# -- slot registry -----------------------------------------------------------

_NAMES: list[str] = list(ALL_COUNTERS)
_SLOTS: dict[str, int] = {name: i for i, name in enumerate(_NAMES)}
_REGISTER = threading.Lock()
_STALL_SLOTS = [_SLOTS[c] for c in STALL_COMPONENTS]


def counter_slot(name: str) -> int:
    """The slot of counter ``name``, registering the name on first use."""
    slot = _SLOTS.get(name)
    if slot is None:
        if not isinstance(name, str):
            raise TypeError(f"counter names are strings, got {name!r}")
        with _REGISTER:
            slot = _SLOTS.get(name)
            if slot is None:
                slot = len(_NAMES)
                _NAMES.append(name)
                _SLOTS[name] = slot
    return slot


def counter_width() -> int:
    """Number of registered counter slots (the width of a new vector)."""
    return len(_NAMES)


def counter_name(slot: int) -> str:
    """The counter name held in ``slot``."""
    return _NAMES[slot]


def widen(array: np.ndarray, width: int) -> np.ndarray:
    """``array`` zero-padded to ``width`` slots along its last axis."""
    if array.shape[-1] >= width:
        return array
    out = np.zeros(array.shape[:-1] + (width,))
    out[..., : array.shape[-1]] = array
    return out


def _aligned(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if len(a) == len(b):
        return a, b
    width = max(len(a), len(b))
    return widen(a, width), widen(b, width)


class CounterVector:
    """An additive bundle of named counter values.

    Missing counters read as 0.0, so vectors of different shapes combine
    cleanly (e.g. a compute chunk has no remote accesses; a barrier has no
    FP ops).  A counter is *present* (``in``, ``keys()``, ``as_dict()``)
    exactly when its value is nonzero; a zero result is stored as +0.0,
    never -0.0, so ``0.0 + x`` is ``x`` bit for bit in every fold.
    """

    __slots__ = ("_a",)

    def __init__(self, values: Mapping[str, float] | None = None, /, **kw: float) -> None:
        a = np.zeros(len(_NAMES))
        for source in (values or {}), kw:
            for k, v in source.items():
                slot = counter_slot(k)
                if slot >= len(a):
                    a = widen(a, len(_NAMES))
                a[slot] += float(v)  # from +0.0: never -0.0
        self._a = a

    def as_array(self) -> np.ndarray:
        """The float64 slot array (shared with the vector: do not mutate)."""
        return self._a

    def __getitem__(self, name: str) -> float:
        slot = _SLOTS.get(name)
        if slot is None or slot >= len(self._a):
            return 0.0
        return float(self._a[slot])

    def get(self, name: str, default: float = 0.0) -> float:
        value = self[name]
        return value if value != 0.0 else default

    def __iter__(self) -> Iterator[str]:
        return iter(self.as_dict())

    def items(self):
        return self.as_dict().items()

    def keys(self):
        return self.as_dict().keys()

    def __contains__(self, name: str) -> bool:
        return self[name] != 0.0

    def __bool__(self) -> bool:
        return bool(self._a.any())

    def __reduce__(self):
        # slots past ALL_COUNTERS are process-local: pickle by name
        return CounterVector, (self.as_dict(),)

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "CounterVector") -> "CounterVector":
        if not isinstance(other, CounterVector):
            return NotImplemented
        a, b = _aligned(self._a, other._a)
        return _wrap(a + b)

    def __iadd__(self, other: "CounterVector") -> "CounterVector":
        if not isinstance(other, CounterVector):
            return NotImplemented
        if len(self._a) == len(other._a):
            self._a += other._a
        else:
            a, b = _aligned(self._a, other._a)
            self._a = a + b
        return self

    def __sub__(self, other: "CounterVector") -> "CounterVector":
        if not isinstance(other, CounterVector):
            return NotImplemented
        a, b = _aligned(self._a, other._a)
        return _wrap(a - b)

    def __mul__(self, factor: float) -> "CounterVector":
        return _wrap(self._a * float(factor) + 0.0)  # -0.0 → +0.0

    __rmul__ = __mul__

    def copy(self) -> "CounterVector":
        return _wrap(self._a.copy())

    # -- derived views ----------------------------------------------------
    def total_stalls(self) -> float:
        """Jarp's identity: the sum of the seven stall components."""
        return sum(self._a[_STALL_SLOTS].tolist())

    def as_dict(self) -> dict[str, float]:
        return {
            _NAMES[slot]: value
            for slot, value in enumerate(self._a.tolist()) if value
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(
            f"{k}={v:.4g}" for k, v in sorted(self.as_dict().items())
        )
        return f"CounterVector({inner})"

    @classmethod
    def sum(cls, vectors: Iterable["CounterVector"]) -> "CounterVector":
        total = cls()
        for v in vectors:
            total += v
        return total


def _wrap(array: np.ndarray) -> CounterVector:
    """A vector over ``array``, which must hold no -0.0 (sums and
    differences of such arrays never do)."""
    out = CounterVector.__new__(CounterVector)
    out._a = array
    return out
