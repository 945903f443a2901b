"""The OpenMP-parallel MSA distance-matrix stage (the §III.A experiment).

"We parallelized the SW algorithm using OpenMP for the main computational
loops but did not get a solution that scaled for large numbers of threads."

The main loop iterates over sequences ``i``; iteration ``i`` aligns ``i``
against every ``j > i`` — so per-iteration cost is ``len_i × Σ_{j>i}
len_j``: triangular *and* length-skewed.  Static-even scheduling puts the
expensive early iterations on the first threads; the paper drills down to
``schedule(dynamic, 1)`` which reaches ~93% efficiency at 16 threads.

:func:`run_msa_trial` simulates one configuration and returns the TAU-style
trial (plus the raw loop result); :func:`run_msa_scaling` sweeps schedules
× thread counts for Fig. 4(b).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...machine import Machine, TaskTable, WorkSignature, uniform_machine
from ...perfdmf import Trial
from ...runtime import OpenMPRuntime, ParallelForResult, Profiler, Schedule
from .sequences import SequenceSet, generate_sequences
from .smith_waterman import sw_work

#: Event names in the profile (the paper's Fig. 4(a) inner/outer loops).
EVENT_MAIN = "main"
EVENT_OUTER = "pairwise_outer_loop"
EVENT_INNER = "sw_align_inner_loop"
EVENT_GUIDE_TREE = "guide_tree"
EVENT_PROGRESSIVE = "progressive_alignment"


def distance_tasks(seqs: SequenceSet) -> TaskTable:
    """One loop task per outer iteration ``i`` (align i against all j>i):
    Σ_{j>i} len_i*len_j cells, as one pair of ``len_i`` against the
    suffix sum of the later lengths."""
    lengths = seqs.lengths.astype(float)
    suffix = np.cumsum(lengths[::-1])[::-1]
    return TaskTable(**sw_work(lengths[:-1], suffix[1:]))


def _serial_stage_signatures(seqs: SequenceSet) -> tuple[WorkSignature, WorkSignature]:
    """Work of stages 2 (guide tree) and 3 (progressive alignment).

    Together they are ~10% of stage 1 in the paper's profile; the models
    below scale as O(n³) comparisons and O(n · L²) merges respectively,
    which lands in that regime for the problem sizes used.
    """
    n = float(len(seqs))
    mean_len = float(seqs.lengths.mean())
    # UPGMA with nearest-neighbour caching amortizes most pair scans; a
    # 2n³ op budget is already conservative for the n ≤ 1000 sets used.
    # The scan walks cached row minima, so the *hot* working set is a
    # handful of matrix rows, not the whole n² matrix.
    tree_ops = 2.0 * n**3
    merge_cells = (n - 1) * mean_len**2 * 0.35
    tree = WorkSignature(
        int_ops=tree_ops,
        loads=tree_ops * 0.3,
        branches=tree_ops * 0.1,
        footprint_bytes=32.0 * n * 8.0,
        reuse=0.95,
        fp_dependency=0.0,
    )
    merge = WorkSignature(
        int_ops=merge_cells * 5.0,
        loads=merge_cells * 2.0,
        stores=merge_cells,
        branches=merge_cells * 0.2,
        footprint_bytes=mean_len * 2 * 8.0,
        reuse=0.97,
        fp_dependency=0.0,
    )
    return tree, merge


@dataclass
class MSATrialResult:
    """One simulated MSAP run."""

    trial: Trial
    loop: ParallelForResult
    schedule: Schedule
    n_threads: int

    @property
    def wall_seconds(self) -> float:
        """Main event's mean inclusive time."""
        e = self.trial.event_index(EVENT_MAIN)
        return float(self.trial.inclusive_array("TIME")[e].mean() / 1e6)


def run_msa_trial(
    *,
    n_sequences: int = 400,
    n_threads: int = 16,
    schedule: Schedule | str = "static",
    seed: int = 0,
    machine: Machine | None = None,
    sequences: SequenceSet | None = None,
    profiler: Profiler | None = None,
) -> MSATrialResult:
    """Simulate one MSAP configuration and emit its TAU-style profile.

    Pass a pre-built ``profiler`` (e.g. a
    :class:`~repro.runtime.SnapshotProfiler` with an attached
    :class:`~repro.runtime.EventTrace`) to record the run's event timeline
    and cut interval snapshots at the three algorithm phases; the
    profiler's machine is used and must have at least ``n_threads`` CPUs.
    """
    if isinstance(schedule, str):
        schedule = Schedule.parse(schedule)
    if profiler is not None:
        machine = profiler.machine
    else:
        machine = machine or uniform_machine(max(n_threads, 1))
    if machine.n_cpus < n_threads:
        raise ValueError(
            f"machine has {machine.n_cpus} cpus; need {n_threads}"
        )
    seqs = sequences or generate_sequences(n_sequences, seed=seed)
    if profiler is None:
        profiler = Profiler(machine)
    omp = OpenMPRuntime(machine, profiler)
    cpus = list(range(n_threads))

    profiler.enter_set(cpus, EVENT_MAIN)
    loop = omp.parallel_for(
        region_event=EVENT_OUTER,
        loop_event=EVENT_INNER,
        tasks=distance_tasks(seqs),
        n_threads=n_threads,
        schedule=schedule,
        cpus=cpus,
    )
    profiler.phase("distance_matrix")
    # Stages 2 and 3 run on the master thread; others idle at the join.
    tree_sig, merge_sig = _serial_stage_signatures(seqs)
    profiler.enter(0, EVENT_GUIDE_TREE)
    profiler.charge(0, machine.processor.execute(tree_sig))
    profiler.exit(0, EVENT_GUIDE_TREE)
    profiler.phase("guide_tree")
    profiler.enter(0, EVENT_PROGRESSIVE)
    profiler.charge(0, machine.processor.execute(merge_sig))
    profiler.exit(0, EVENT_PROGRESSIVE)
    end = max(profiler.clocks(cpus))
    with profiler.lockstep(cpus):
        profiler.advance_set(cpus, [end] * n_threads)
        profiler.exit_set(cpus, EVENT_MAIN)
    profiler.phase("progressive_alignment")

    trial = profiler.to_trial(
        f"1_{n_threads}",
        {
            "application": "MSAP",
            "sequences": len(seqs),
            "schedule": str(schedule),
            "threads": n_threads,
            "seed": seed,
        },
    )
    return MSATrialResult(trial, loop, schedule, n_threads)


def run_msa_scaling(
    *,
    n_sequences: int = 400,
    schedules: list[str] | None = None,
    thread_counts: list[int] | None = None,
    seed: int = 0,
) -> dict[str, list[MSATrialResult]]:
    """The Fig. 4(b) sweep: schedule × thread count."""
    schedules = schedules or ["static", "dynamic,1", "dynamic,4", "dynamic,16"]
    thread_counts = thread_counts or [1, 2, 4, 8, 16]
    seqs = generate_sequences(n_sequences, seed=seed)
    out: dict[str, list[MSATrialResult]] = {}
    for sched in schedules:
        runs = []
        for p in thread_counts:
            runs.append(
                run_msa_trial(
                    n_sequences=n_sequences,
                    n_threads=p,
                    schedule=sched,
                    seed=seed,
                    sequences=seqs,
                )
            )
        out[sched] = runs
    return out


def relative_efficiency(runs: list[MSATrialResult]) -> list[tuple[int, float]]:
    """(threads, efficiency) series relative to the first run."""
    if not runs:
        raise ValueError("no runs")
    base = runs[0]
    base_work = base.wall_seconds * base.n_threads
    out = []
    for r in runs:
        eff = base_work / (r.wall_seconds * r.n_threads)
        out.append((r.n_threads, eff))
    return out
