"""Static processor cost model (the LNO's "explicit processor model").

Predicts cycles for a work signature from static assumptions — issue
resources, operation latencies, register pressure — *without* running
anything.  This is the model whose inaccuracy motivates the paper's
feedback loop: it must assume locality and stall behaviour that only
runtime data can supply, so it exposes exactly the assumption knobs that
:meth:`ProcessorCostModel.calibrate` replaces with measured counter ratios
(``assumed_miss_penalty_cycles``, ``assumed_stall_fraction``) — the
integration the paper's Fig. 3 marks as *future* for the real system.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..machine import WorkSignature
from ..machine import counters as C


@dataclass(frozen=True)
class StaticAssumptions:
    """What the compiler guesses about runtime behaviour."""

    #: Average memory penalty per load/store (cycles) — static guess that
    #: collapses the whole hierarchy + NUMA into one number.
    assumed_miss_penalty_cycles: float = 2.0
    #: Fraction of FP latency the schedule fails to cover.
    assumed_stall_fraction: float = 0.25
    #: Branch mispredict penalty (cycles).
    branch_penalty_cycles: float = 12.0
    #: Spill traffic multiplier when register pressure exceeds the file.
    register_pressure_factor: float = 1.0


@dataclass(frozen=True)
class CycleEstimate:
    """Predicted cycle breakdown for one signature."""

    issue_cycles: float
    memory_cycles: float
    fp_stall_cycles: float
    branch_cycles: float

    @property
    def total(self) -> float:
        return (
            self.issue_cycles
            + self.memory_cycles
            + self.fp_stall_cycles
            + self.branch_cycles
        )


class ProcessorCostModel:
    """Itanium-2-shaped static cycle estimator.

    Parameters
    ----------
    peak_ipc:
        Issue width (6 on Itanium 2).
    fp_latency:
        FP result latency in cycles.
    """

    def __init__(
        self,
        *,
        peak_ipc: float = 6.0,
        fp_latency: float = 4.0,
        assumptions: StaticAssumptions | None = None,
    ) -> None:
        if peak_ipc <= 0:
            raise ValueError("peak_ipc must be positive")
        self.peak_ipc = peak_ipc
        self.fp_latency = fp_latency
        self.assumptions = assumptions or StaticAssumptions()

    def predict(self, work: WorkSignature) -> CycleEstimate:
        a = self.assumptions
        issue = (
            work.instructions
            * work.issue_inflation
            * a.register_pressure_factor
            / self.peak_ipc
        )
        memory = work.memory_accesses * a.assumed_miss_penalty_cycles
        fp = work.flops * work.fp_dependency * self.fp_latency * (
            a.assumed_stall_fraction / 0.25
        )
        branch = work.branches * work.mispredict_rate * a.branch_penalty_cycles
        return CycleEstimate(issue, memory, fp, branch)

    def with_assumptions(self, **overrides) -> "ProcessorCostModel":
        """A copy with some static assumptions replaced (feedback hook)."""
        return ProcessorCostModel(
            peak_ipc=self.peak_ipc,
            fp_latency=self.fp_latency,
            assumptions=replace(self.assumptions, **overrides),
        )

    def calibrate(self, counters: dict[str, float]) -> "ProcessorCostModel":
        """Return a copy whose static assumptions match measured counters.

        ``counters`` is a plain metric→value mapping (typically the mean
        exclusive counters of the region being tuned).  Calibrations:

        * measured memory penalty per access replaces the static guess
          (L1D-miss stall cycles / memory accesses),
        * measured stall fraction replaces the assumed one
          (BACK_END_BUBBLE_ALL / CPU_CYCLES, clamped to [0, 1] and mapped
          onto the FP term).

        A calibration whose counters are missing or zero keeps the static
        assumption it would replace.
        """
        overrides: dict[str, float] = {}
        accesses = counters.get(C.L2_DATA_REFERENCES, 0.0)
        l1d_stalls = counters.get(C.L1D_CACHE_MISS_STALLS, 0.0)
        if accesses > 0 and l1d_stalls > 0:
            overrides["assumed_miss_penalty_cycles"] = l1d_stalls / accesses
        cycles = counters.get(C.CPU_CYCLES, 0.0)
        if cycles > 0:
            stalls = counters.get(C.BACK_END_BUBBLE_ALL, 0.0)
            overrides["assumed_stall_fraction"] = min(
                max(stalls / cycles, 0.0), 1.0
            )
        return self.with_assumptions(**overrides)
