"""Simulated parallel runtimes + TAU-like measurement.

* :mod:`~repro.runtime.tau` — the profiler (region stacks, counter
  accumulation, virtual clocks, trial emission);
* :mod:`~repro.runtime.trace` — the event-trace recorder (TAU's tracing
  mode: timestamped enter/exit/charge, MPI messages, OpenMP constructs);
* :mod:`~repro.runtime.snapshot` — interval profile snapshots cut at
  application phase boundaries;
* :mod:`~repro.runtime.exec` — the execute-and-charge primitive;
* :mod:`~repro.runtime.openmp` — fork-join loops with
  static/dynamic/guided schedules and barrier accounting;
* :mod:`~repro.runtime.mpi` — ranks, Isend/Irecv/Waitall, collectives,
  PMPI-style event wrapping.
"""

from .exec import LoopTask, RegionAccess, execute_work, task_rows
from .mpi import CommModel, MPIError, MPIRuntime, Request
from .openmp import (
    OpenMPError,
    OpenMPRuntime,
    ParallelForResult,
    Schedule,
)
from .snapshot import SnapshotProfiler
from .tau import MeasurementError, Profiler
from .trace import EventTrace, TraceEvent

__all__ = [
    "CommModel",
    "EventTrace",
    "LoopTask",
    "MPIError",
    "MPIRuntime",
    "MeasurementError",
    "OpenMPError",
    "OpenMPRuntime",
    "ParallelForResult",
    "Profiler",
    "RegionAccess",
    "Request",
    "Schedule",
    "SnapshotProfiler",
    "TraceEvent",
    "execute_work",
    "task_rows",
]
