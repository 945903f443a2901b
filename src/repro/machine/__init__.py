"""Simulated hardware substrate: Itanium 2 + SGI Altix ccNUMA.

Replaces the paper's physical testbed (see DESIGN.md, "Substitutions").
Provides:

* :mod:`~repro.machine.counters` — the hardware-counter vocabulary and
  :class:`~repro.machine.counters.CounterVector`;
* :mod:`~repro.machine.cache` — analytical L1D/L2/L3 model;
* :mod:`~repro.machine.topology` — NUMAlink fabric hop/latency geometry;
* :mod:`~repro.machine.numa` — first-touch page placement and local/remote
  access accounting;
* :mod:`~repro.machine.processor` — work-signature → counter synthesis
  honouring Jarp's stall identity, one task table at a time;
* :mod:`~repro.machine.machines` — Altix 300 / Altix 3600 / UMA configs.
"""

from . import counters
from .cache import CacheHierarchy, CacheLevel, itanium2_hierarchy
from .counters import ALL_COUNTERS, STALL_COMPONENTS, CounterVector
from .machines import Machine, altix_300, altix_3600, uniform_machine
from .numa import PAGE_SIZE, MemoryRegion, PageTable, PlacementError
from .processor import MemoryPlacementCost, ProcessorModel, TaskTable, WorkSignature
from .topology import LatencyModel, NUMATopology

__all__ = [
    "ALL_COUNTERS",
    "CacheHierarchy",
    "CacheLevel",
    "CounterVector",
    "LatencyModel",
    "Machine",
    "MemoryPlacementCost",
    "MemoryRegion",
    "NUMATopology",
    "PAGE_SIZE",
    "PageTable",
    "PlacementError",
    "ProcessorModel",
    "STALL_COMPONENTS",
    "TaskTable",
    "WorkSignature",
    "altix_300",
    "altix_3600",
    "counters",
    "itanium2_hierarchy",
    "uniform_machine",
]
