"""GenIDLEST performance simulation: MPI vs OpenMP, unoptimized vs optimized.

Reproduces the §III.B experiment end to end.  One *iteration* of the
pressure solve executes, per block: the ghost-cell update
(``exchange_var`` → ``mpi_send_recv_ko``), the stencil/preconditioner
kernels (``diff_coeff``, ``matxvec`` ×2, ``pc`` ×2, ``pc_jac_glb``), and
the solver's vector algebra (``bicgstab``).

The four configurations differ exactly where the paper says they do:

* **MPI** — each rank owns blocks, initializes them (first touch → local
  pages), and exchanges ghost faces with nonblocking sends/receives that
  overlap the two on-rank buffer copies.
* **OpenMP unoptimized** — the master thread initializes *all* blocks
  (first touch → every page on node 0) and performs all ghost copies
  sequentially inside ``exchange_var`` (the legacy buffered path: 30
  copies for 45rib, 126 for 90rib).  All threads then hammer node 0's
  memory controller: remote latency plus controller contention.
* **OpenMP optimized** — initialization loops are parallelized (pages land
  on the owning thread's node) and the ghost copies become a parallel
  loop of direct copies (no intermediate buffers).
* **MPI optimized** — same kernels; the exchange uses direct copies too
  (the paper notes both baselines improved after optimization).

Memory-controller contention model: when a phase's concurrently-accessed
block regions concentrate on one NUMA node, every access to that node's
memory pays ``1 + CONTENTION_BETA × (pressure − cpus_per_node)`` extra
latency, where pressure = number of threads whose working block lives
there.  This is the saturation effect that makes first-touch pathology an
order-of-magnitude problem on real Altix systems rather than a mere
local/remote latency delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ...machine import Machine, PageTable, TaskTable, altix_300, altix_3600
from ...perfdmf import Trial
from ...runtime import MPIRuntime, OpenMPRuntime, Profiler, Schedule, task_rows
from .kernels import (
    bicgstab_vector_signature,
    copy_signature,
    diff_coeff_signature,
    init_signature,
    matxvec_signature,
    pc_jac_glb_signature,
    pc_signature,
)
from .mesh import CaseConfig, MultiBlockMesh, RIB45, RIB90

#: Controller-saturation latency slope per excess concurrent accessor.
CONTENTION_BETA = 0.22

#: Ghost updates per solver iteration (one before every stencil/
#: preconditioner application, as in the real code).
EXCHANGES_PER_ITERATION = 4

EVENT_MAIN = "main"
EVENT_INIT = "initialization"
EVENT_EXCHANGE = "exchange_var__"
EVENT_SENDRECV = "mpi_send_recv_ko"
EVENT_BICGSTAB = "bicgstab"
EVENT_DIFF = "diff_coeff"
EVENT_MATXVEC = "matxvec"
EVENT_PC = "pc"
EVENT_PCJAC = "pc_jac_glb"

KERNEL_EVENTS = (EVENT_BICGSTAB, EVENT_DIFF, EVENT_MATXVEC, EVENT_PC, EVENT_PCJAC)

#: (event, signature factory, calls per iteration)
_KERNEL_SCHEDULE = (
    (EVENT_DIFF, diff_coeff_signature, 1),
    (EVENT_MATXVEC, matxvec_signature, 2),
    (EVENT_PC, pc_signature, 2),
    (EVENT_PCJAC, pc_jac_glb_signature, 1),
)


class SimulationError(Exception):
    """Raised for invalid run configurations."""


@dataclass(frozen=True)
class RunConfig:
    """One GenIDLEST execution configuration.

    ``optimized`` applies both of the paper's fixes.  For ablations the two
    fixes toggle independently: ``parallel_init`` (first-touch placement)
    and ``parallel_exchange`` (direct parallel ghost copies); ``None``
    means "follow ``optimized``".
    """

    case: CaseConfig = RIB90
    version: str = "openmp"  # 'openmp' | 'mpi'
    optimized: bool = False
    n_procs: int = 16
    iterations: int = 5
    cache_blocked: bool = True
    parallel_init: bool | None = None
    parallel_exchange: bool | None = None

    def __post_init__(self) -> None:
        if self.version not in ("openmp", "mpi"):
            raise SimulationError(f"unknown version {self.version!r}")
        if self.n_procs < 1:
            raise SimulationError("need at least one processor")
        if self.n_procs > self.case.n_blocks:
            raise SimulationError(
                f"{self.case.name} has {self.case.n_blocks} blocks; "
                f"cannot use {self.n_procs} processors"
            )
        if self.iterations < 1:
            raise SimulationError("need at least one iteration")

    @property
    def use_parallel_init(self) -> bool:
        return self.optimized if self.parallel_init is None else self.parallel_init

    @property
    def use_parallel_exchange(self) -> bool:
        return (
            self.optimized
            if self.parallel_exchange is None
            else self.parallel_exchange
        )

    @property
    def label(self) -> str:
        if self.parallel_init is None and self.parallel_exchange is None:
            opt = "opt" if self.optimized else "unopt"
        else:
            opt = (
                f"init{'P' if self.use_parallel_init else 'S'}"
                f"_exch{'P' if self.use_parallel_exchange else 'S'}"
            )
        return f"{self.version}_{opt}_{self.n_procs}"


@dataclass
class GenidlestResult:
    """One simulated run's profile and bookkeeping."""

    trial: Trial
    config: RunConfig

    @property
    def wall_seconds(self) -> float:
        e = self.trial.event_index(EVENT_MAIN)
        return float(self.trial.inclusive_array("TIME")[e].mean() / 1e6)

    def event_mean_exclusive_seconds(self, event: str) -> float:
        e = self.trial.event_index(event)
        return float(self.trial.exclusive_array("TIME")[e].mean() / 1e6)


def default_machine(n_procs: int) -> Machine:
    """Altix 300 for characterization scale, Altix 3600 beyond 16 CPUs."""
    return altix_300() if n_procs <= 16 else altix_3600()


def _block_region(b: int) -> str:
    return f"block{b}"


def _blocks_of(owner: int, n_owners: int, n_blocks: int) -> list[int]:
    """Contiguous block partition (block ↔ owner mapping)."""
    per = n_blocks // n_owners
    extra = n_blocks % n_owners
    start = owner * per + min(owner, extra)
    count = per + (1 if owner < extra else 0)
    return list(range(start, start + count))


def _solver_loops(config: RunConfig) -> list[tuple]:
    """``(event, calls, block → signature)`` of one solver iteration's
    loops: the kernels, then bicgstab's vector algebra."""
    return [
        (event, calls, partial(factory, cache_blocked=config.cache_blocked))
        for event, factory, calls in _KERNEL_SCHEDULE
    ] + [(EVENT_BICGSTAB, 1, bicgstab_vector_signature)]


def _contention(page_table: PageTable, machine: Machine,
                owners: list[list[int]]) -> np.ndarray:
    """Each block's latency multiplier: ``1 + CONTENTION_BETA × excess ×
    concentration`` where at least 75% of the block's pages sit on one
    node, else 1.  The node's pressure counts the workers with a placed
    block there; ``excess`` is the pressure beyond the node's CPUs."""
    worker = np.repeat(np.arange(len(owners)), [len(o) for o in owners])
    hists = np.array([page_table.region(_block_region(b)).node_histogram(
        machine.n_nodes) for b in range(len(worker))])
    totals, home = hists.sum(axis=1), hists.argmax(axis=1)
    placed = totals > 0
    homed = np.zeros((machine.n_nodes, len(owners)), bool)  # node × worker
    homed[home[placed], worker[placed]] = True
    pressure = homed.sum(axis=1)
    excess = np.maximum(pressure[home] - machine.topology.cpus_per_node, 0)
    with np.errstate(invalid="ignore"):  # an unplaced block's 0 / 0
        concentration = hists[np.arange(len(home)), home] / totals
    return np.where(concentration >= 0.75,
                    1.0 + CONTENTION_BETA * excess * concentration, 1.0)


def run_genidlest(
    config: RunConfig,
    *,
    machine: Machine | None = None,
    profiler: Profiler | None = None,
) -> GenidlestResult:
    """Simulate one configuration; returns the trial-bearing result.

    Pass a pre-built ``profiler`` (e.g. a
    :class:`~repro.runtime.SnapshotProfiler` with an attached
    :class:`~repro.runtime.EventTrace`) to record the run's event timeline
    and cut one interval snapshot per solver iteration; the profiler's
    machine is used and must have at least ``n_procs`` CPUs.
    """
    if profiler is not None:
        machine = profiler.machine
    else:
        machine = machine or default_machine(config.n_procs)
    if machine.n_cpus < config.n_procs:
        raise SimulationError(
            f"machine has {machine.n_cpus} cpus; need {config.n_procs}"
        )
    mesh = MultiBlockMesh(config.case)
    page_table = machine.new_page_table()
    for block in mesh.blocks:
        page_table.allocate(_block_region(block.id), block.bytes)
    if profiler is None:
        profiler = Profiler(machine)

    if config.version == "mpi":
        _run_mpi(config, machine, mesh, page_table, profiler)
    else:
        _run_openmp(config, machine, mesh, page_table, profiler)

    trial = profiler.to_trial(
        config.label,
        {
            "application": "GenIDLEST",
            "case": config.case.name,
            "version": config.version,
            "optimized": config.optimized,
            "parallel_init": config.use_parallel_init,
            "parallel_exchange": config.use_parallel_exchange,
            "procs": config.n_procs,
            "iterations": config.iterations,
            "on_processor_copies": mesh.on_processor_copies(
                buffered=not config.use_parallel_exchange
            ),
        },
    )
    return GenidlestResult(trial, config)


# ---------------------------------------------------------------------------
# OpenMP
# ---------------------------------------------------------------------------


def _run_openmp(
    config: RunConfig,
    machine: Machine,
    mesh: MultiBlockMesh,
    page_table: PageTable,
    profiler: Profiler,
) -> None:
    n = config.n_procs
    cpus = list(range(n))
    omp = OpenMPRuntime(machine, profiler, page_table)
    owners = [_blocks_of(t, n, mesh.n_blocks) for t in range(n)]

    # entered on all threads at once, so each construct steps the team
    profiler.enter_set(cpus, EVENT_MAIN)

    # --- initialization: where first-touch placement happens -------------
    regions = [_block_region(b) for b in range(mesh.n_blocks)]
    blocks = np.arange(mesh.n_blocks)
    init = TaskTable(regions, region=blocks, **init_signature(mesh.cells))
    if config.use_parallel_init:
        omp.parallel_for(
            region_event=EVENT_INIT,
            loop_event="init_loop",
            tasks=init,
            n_threads=n,
            schedule=Schedule("static"),
            cpus=cpus,
        )
    else:
        # master-thread initialization: every page first-touched on node 0
        omp.single(
            region_event=EVENT_INIT,
            body_event="init_loop",
            work_items=init,
            n_threads=n,
            cpus=cpus,
        )

    # Placement, and with it node pressure and every contention factor, is
    # fixed from here on, so each loop's tasks are built once.
    contention = _contention(page_table, machine, owners)

    # --- ghost-cell update -----------------------------------------------
    # The sequential (single-thread) exchange sees no controller
    # contention — only the concurrent parallel-copy path does.
    copies_each = 2 if not config.use_parallel_exchange else 1
    src, dest = np.array(mesh.exchange_pairs()).T
    copy_items = TaskTable(
        regions, region=dest,
        latency_multiplier=contention[dest] if config.use_parallel_exchange else 1.0,
        **copy_signature(mesh.face_bytes[src] * copies_each),
    )
    loops = [(event, calls, TaskTable(regions, region=blocks,
                                      latency_multiplier=contention,
                                      **signature(mesh.cells)))
             for event, calls, signature in _solver_loops(config)]

    for iteration in range(config.iterations):
        for _exchange in range(EXCHANGES_PER_ITERATION):
            profiler.enter_set(cpus, EVENT_EXCHANGE)
            if config.use_parallel_exchange:
                omp.parallel_for(
                    region_event=EVENT_SENDRECV,
                    loop_event="ghost_copy",
                    tasks=copy_items,
                    n_threads=n,
                    schedule=Schedule("static"),
                    cpus=cpus,
                )
            else:
                # sequential master-thread copies (the §III.B bottleneck)
                omp.single(
                    region_event=EVENT_SENDRECV,
                    body_event="ghost_copy",
                    work_items=copy_items,
                    n_threads=n,
                    cpus=cpus,
                )
            profiler.exit_set(cpus, EVENT_EXCHANGE)

        # --- kernels, then the solver vector algebra ---------------------
        for event, calls, tasks in loops:
            for _ in range(calls):
                omp.parallel_for(
                    region_event=f"omp_region_{event}",
                    loop_event=event,
                    tasks=tasks,
                    n_threads=n,
                    schedule=Schedule("static"),
                    cpus=cpus,
                )
        # all threads are synchronized at bicgstab's implicit barrier
        profiler.phase(f"iteration_{iteration}")

    end = max(profiler.clocks(cpus))
    with profiler.lockstep(cpus):
        profiler.advance_set(cpus, [end] * n)
        profiler.exit_set(cpus, EVENT_MAIN)


# ---------------------------------------------------------------------------
# MPI
# ---------------------------------------------------------------------------


def _run_mpi(
    config: RunConfig,
    machine: Machine,
    mesh: MultiBlockMesh,
    page_table: PageTable,
    profiler: Profiler,
) -> None:
    n = config.n_procs
    mpi = MPIRuntime(machine, profiler, n)
    ranks = list(range(n))
    cpus = [mpi.cpu_of(r) for r in ranks]
    owners = [_blocks_of(r, n, mesh.n_blocks) for r in ranks]
    owner_of = {b: r for r, blocks in enumerate(owners) for b in blocks}

    profiler.enter_set(cpus, EVENT_MAIN)

    regions = [_block_region(b) for b in range(mesh.n_blocks)]

    def rank_rows(blocks: list[np.ndarray], work) -> list[np.ndarray]:
        """Every rank's counter rows for one phase: on rank ``r``, a task
        of ``work(block ids)`` on each block of ``blocks[r]``, placed in
        rank order."""
        counts = [len(b) for b in blocks]
        ids = np.concatenate(blocks)
        rows = task_rows(machine, TaskTable(regions, region=ids, **work(ids)),
                         np.repeat(cpus, counts), page_table)
        return np.split(rows, np.cumsum(counts)[:-1])

    def block_rows(signature) -> list[np.ndarray]:
        return rank_rows([np.array(o) for o in owners],
                         lambda ids: signature(mesh.cells[ids]))

    def run_phase(event: str, rows: list[np.ndarray]) -> None:
        """Each rank charges its own blocks' rows inside ``event``."""
        with profiler.lockstep(cpus):
            profiler.enter_set(cpus, event)
            profiler.charge_set(cpus, rows)
            profiler.exit_set(cpus, event)

    # initialization: each rank first-touches its own blocks → local pages
    run_phase(EVENT_INIT, block_rows(init_signature))

    # Every page is placed from here on, so each later phase charges the
    # same rows in every iteration: compute them once.
    copies = 2 if not config.use_parallel_exchange else 1
    # on-rank copies between interior blocks overlap the transfer
    copy_rows = rank_rows(
        [np.full(max(len(o) - 1, 0) * 2, o[0]) for o in owners],
        lambda ids: copy_signature(mesh.face_bytes[ids] * copies))
    phases = [(event, calls, block_rows(signature))
              for event, calls, signature in _solver_loops(config)]

    # the two inter-rank faces of each rank's block range; blocks lie on a
    # ring, so every rank has other-rank neighbours once there are two
    prev_rank = [owner_of[mesh.neighbors(owners[r][0])[0]] for r in ranks]
    next_rank = [owner_of[mesh.neighbors(owners[r][-1])[1]] for r in ranks]
    faces = [mesh.blocks[owners[r][0]].face_bytes for r in ranks]
    posts = [("send", prev_rank, 0), ("recv", prev_rank, 1),
             ("send", next_rank, 1), ("recv", next_rank, 0)] if n > 1 else []

    def ghost_exchange() -> None:
        """One ghost update: nonblocking faces + overlapped on-rank copies."""
        with profiler.lockstep(cpus):
            profiler.enter_set(cpus, EVENT_EXCHANGE)
            profiler.enter_set(cpus, EVENT_SENDRECV)
            requests = mpi.post(ranks, posts, faces)
            profiler.charge_set(cpus, copy_rows)
            profiler.exit_set(cpus, EVENT_SENDRECV)
        with profiler.lockstep(cpus):
            if posts:
                mpi.waitall_set(ranks, [[q for q in reqs if q.kind == "recv"]
                                        for reqs in requests])
            profiler.exit_set(cpus, EVENT_EXCHANGE)

    for iteration in range(config.iterations):
        for _exchange in range(EXCHANGES_PER_ITERATION):
            ghost_exchange()

        # --- kernels, then the solver vector algebra -------------------
        for event, calls, rows in phases:
            for _ in range(calls):
                run_phase(event, rows)
        # dot products synchronize the solver every iteration
        mpi.allreduce(8)
        profiler.phase(f"iteration_{iteration}")

    profiler.exit_set(cpus, EVENT_MAIN)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def run_genidlest_scaling(
    *,
    case: CaseConfig = RIB90,
    version: str = "openmp",
    optimized: bool = False,
    proc_counts: list[int] | None = None,
    iterations: int = 3,
) -> list[GenidlestResult]:
    """A scaling sweep of one configuration family (Fig. 5 inputs)."""
    proc_counts = proc_counts or [1, 2, 4, 8, 16]
    out = []
    for p in proc_counts:
        out.append(
            run_genidlest(
                RunConfig(
                    case=case,
                    version=version,
                    optimized=optimized,
                    n_procs=p,
                    iterations=iterations,
                )
            )
        )
    return out
