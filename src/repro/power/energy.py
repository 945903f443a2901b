"""Energy/efficiency analysis across optimization levels (Table I machinery).

Table I reports, relative to O0: Time, Instructions Completed/Issued, IPC
(completed and issued), Watts, Joules, and FLOP/Joule.  This module runs a
compiled workload at each level on the simulated machine, applies the power
model, and renders those rows — both as data and as the formatted table the
benchmark prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..machine import Machine, WorkSignature
from ..machine import counters as C
from .model import PowerModel

#: Table I's row labels, in paper order.
TABLE1_METRICS = (
    "Time",
    "Instructions Completed",
    "Instructions Issued",
    "Instructions Completed Per Cycle",
    "Instructions Issued Per Cycle",
    "Watts",
    "Joules",
    "FLOP/Joule",
)


@dataclass(frozen=True)
class LevelMeasurement:
    """Absolute measurements of one optimization level's run."""

    level: str
    seconds: float
    instructions_completed: float
    instructions_issued: float
    cycles: float
    watts: float
    joules: float
    flops: float

    @property
    def ipc_completed(self) -> float:
        return self.instructions_completed / self.cycles if self.cycles else 0.0

    @property
    def ipc_issued(self) -> float:
        return self.instructions_issued / self.cycles if self.cycles else 0.0

    @property
    def flops_per_joule(self) -> float:
        return self.flops / self.joules if self.joules else 0.0

    def metric(self, name: str) -> float:
        return {
            "Time": self.seconds,
            "Instructions Completed": self.instructions_completed,
            "Instructions Issued": self.instructions_issued,
            "Instructions Completed Per Cycle": self.ipc_completed,
            "Instructions Issued Per Cycle": self.ipc_issued,
            "Watts": self.watts,
            "Joules": self.joules,
            "FLOP/Joule": self.flops_per_joule,
        }[name]


def measure_signature(
    level: str,
    work: WorkSignature,
    machine: Machine,
    *,
    n_processors: int = 1,
) -> LevelMeasurement:
    """Execute one per-processor work signature and estimate power/energy.

    ``n_processors`` replicates the signature across processors (the
    Table I runs use 16 MPI ranks doing equal work), summing power and
    energy, keeping wall time at the per-processor value.
    """
    if n_processors < 1:
        raise ValueError("need at least one processor")
    counters = machine.processor.execute(work)
    est = PowerModel().processor_power(counters.as_dict())
    seconds = counters[C.TIME] / 1e6
    return LevelMeasurement(
        level=level,
        seconds=seconds,
        instructions_completed=counters[C.INSTRUCTIONS_COMPLETED] * n_processors,
        instructions_issued=counters[C.INSTRUCTIONS_ISSUED] * n_processors,
        cycles=counters[C.CPU_CYCLES] * n_processors,
        watts=est.watts * n_processors,
        joules=est.joules * n_processors,
        flops=counters[C.FP_OPS] * n_processors,
    )


@dataclass
class RelativeTable:
    """Table I: metric rows × optimization-level columns, relative to the
    first (baseline) column."""

    levels: list[str]
    rows: dict[str, list[float]]

    def value(self, metric: str, level: str) -> float:
        return self.rows[metric][self.levels.index(level)]

    def render(self, *, title: str = "") -> str:
        width = max(len(m) for m in TABLE1_METRICS) + 2
        lines = []
        if title:
            lines.append(title)
        header = "Metric".ljust(width) + "".join(
            lvl.rjust(10) for lvl in self.levels
        )
        lines.append(header)
        lines.append("-" * len(header))
        for metric in TABLE1_METRICS:
            cells = "".join(f"{v:10.3f}" for v in self.rows[metric])
            lines.append(metric.ljust(width) + cells)
        return "\n".join(lines)


def relative_table(measurements: list[LevelMeasurement]) -> RelativeTable:
    """Build the Table I normalization (first measurement = 1.0 baseline)."""
    if not measurements:
        raise ValueError("no measurements")
    base = measurements[0]
    rows: dict[str, list[float]] = {}
    for metric in TABLE1_METRICS:
        base_value = base.metric(metric)
        if base_value == 0:
            rows[metric] = [0.0 for _ in measurements]
        else:
            rows[metric] = [m.metric(metric) / base_value for m in measurements]
    return RelativeTable([m.level for m in measurements], rows)


def energy_delay_product(m: LevelMeasurement) -> float:
    """EDP — the standard combined power/performance figure of merit."""
    return m.joules * m.seconds
