"""Component throughput microbenchmarks (multi-round timing).

Unlike the figure/table benches (which run once and assert shape), these
measure the reproduction's own machinery — rule-engine matching, analysis
operations, profile round-trips, compilation — so performance regressions
in the framework itself are visible.
"""

import numpy as np
import pytest

from repro.core.script import (
    BasicStatisticsOperation,
    CorrelationOperation,
    DeriveMetricOperation,
    KMeansOperation,
    TrialResult,
)
from repro.perfdmf import PerfDMF, TrialBuilder, trial_from_dict, trial_to_dict
from repro.rules import Fact, RuleEngine, parse_rules
from tests.knowledge import test_diagnosis_golden as diagnosis_golden
from tests.runtime import test_simulation_golden as golden

RULEBASE = """
rule "hot" salience 5
when f : Event(sev > 0.5, n := name)
then insert Hot(event=$n)
end
rule "warm"
when f : Event(sev > 0.2, sev <= 0.5, n := name)
then insert Warm(event=$n)
end
rule "pair"
when
    a : Hot(x := event)
    b : Warm(event != $x)
then log "pair {x}"
end
"""


def big_trial(n_events=60, n_threads=64, seed=0):
    rng = np.random.default_rng(seed)
    exc = rng.random((n_events, n_threads)) * 100
    inc = exc * 1.5
    return (
        TrialBuilder("big")
        .with_events([f"e{i}" for i in range(n_events)])
        .with_threads(n_threads)
        .with_metric("TIME", exc, inc, units="usec")
        .with_metric("CPU_CYCLES", exc * 1500, inc * 1500)
        .with_calls(np.ones((n_events, n_threads)))
        .build()
    )


def test_rule_engine_throughput(benchmark):
    """Match + fire a 3-rule base over 300 facts."""

    def run():
        engine = RuleEngine()
        engine.add_rules(parse_rules(RULEBASE))
        rng = np.random.default_rng(1)
        for i in range(300):
            engine.insert("Event", name=f"e{i}", sev=float(rng.random()))
        return engine.run()

    fired = benchmark(run)
    assert fired > 100


def test_statistics_operation_throughput(benchmark):
    result = TrialResult(big_trial())
    outs = benchmark(lambda: BasicStatisticsOperation(result).process_data())
    assert len(outs) == 5


def test_derive_operation_throughput(benchmark):
    result = TrialResult(big_trial())

    def run():
        op = DeriveMetricOperation(result, "CPU_CYCLES", "TIME",
                                   DeriveMetricOperation.DIVIDE)
        return op.process_data()[0]

    derived = benchmark(run)
    assert derived.has_metric("(CPU_CYCLES / TIME)")


def test_correlation_matrix_throughput(benchmark):
    result = TrialResult(big_trial(n_events=40))
    matrix = benchmark(lambda: CorrelationOperation(result, "TIME").matrix())
    assert matrix.shape == (40, 40)


def test_kmeans_throughput(benchmark):
    result = TrialResult(big_trial(n_events=30, n_threads=128))
    labels = benchmark(
        lambda: KMeansOperation(result, "TIME", 4, seed=0).labels()
    )
    assert len(labels) == 128


def test_perfdmf_roundtrip_throughput(benchmark):
    trial = big_trial(n_events=40, n_threads=32)

    def run():
        with PerfDMF() as db:
            db.save_trial("A", "E", trial)
            return db.load_trial("A", "E", "big")

    loaded = benchmark(run)
    assert loaded.event_count == 40


def test_trial_replace_throughput(benchmark):
    """Delete + reinsert of a stored trial — the regression gate's hot path.

    The delete cascades from the trial row to its metric rows (which hold
    the value blobs) and its event and thread rows, each found through
    that table's ``UNIQUE (trial_id, ...)`` index; the insert writes one
    row per metric, event and thread.
    """
    trial = big_trial(n_events=40, n_threads=32)
    with PerfDMF() as db:
        db.save_trial("A", "E", trial)
        benchmark(lambda: db.save_trial("A", "E", trial, replace=True))
        assert db.trials("A", "E") == ["big"]


def test_regression_check_throughput(benchmark):
    """compare_trials + chained diagnosis over a 60-event, 64-thread pair."""
    from repro.regress import compare_trials, diagnose_regression, perturb_trial

    base = big_trial()
    cand = perturb_trial(base, events=["e7"], factor=2.0)

    def run():
        report = compare_trials(base, cand)
        return diagnose_regression(report, cand)

    harness = benchmark(run)
    assert harness.recommendations()


def test_json_serialization_throughput(benchmark):
    trial = big_trial(n_events=40, n_threads=32)
    loaded = benchmark(lambda: trial_from_dict(trial_to_dict(trial)))
    assert loaded.thread_count == 32


def test_compilation_throughput(benchmark):
    from repro.apps.genidlest.compiled import genidlest_compiled_program
    from repro.openuh import compile_program

    program = genidlest_compiled_program(ni=48, nj=48)
    compiled = benchmark(lambda: compile_program(program, "O3"))
    assert compiled.level == "O3"


def test_simulation_throughput(benchmark):
    from repro.apps.genidlest import RIB45, RunConfig, run_genidlest

    cfg = RunConfig(case=RIB45, version="openmp", optimized=True,
                    n_procs=8, iterations=1)
    result = benchmark(lambda: run_genidlest(cfg))
    assert result.wall_seconds > 0


# The paper cases as ``bench/run.py``'s paper_cases and trace_timeline
# workloads simulate them, each checked against its golden digest so a
# faster simulator is also shown to be the same simulator.
PAPER_CASES = {
    "msa/static": lambda: golden.msa_run("static"),
    "msa/dynamic,1": lambda: golden.msa_run("dynamic,1"),
    "genidlest/unopt": lambda: golden.genidlest_run(False),
    "genidlest/opt": lambda: golden.genidlest_run(True),
}


@pytest.mark.parametrize("case", sorted(PAPER_CASES))
def test_paper_case_simulation_throughput(benchmark, case):
    trial = benchmark(PAPER_CASES[case])
    assert golden.trial_digest(trial) == golden.GOLDEN[case]


def test_traced_genidlest_mpi_throughput(benchmark):
    from repro.apps.genidlest import default_machine

    result = benchmark(golden.traced_genidlest_mpi)
    assert golden.traced_digest(result, default_machine(16)) == \
        golden.GOLDEN["traced/genidlest-mpi"]


def _traced_run_throughput(benchmark, golden_case, **config):
    """One traced GenIDLEST 16-thread run alone (simulation, profile,
    snapshots and event trace), its event stream checked against the
    golden digest."""
    from repro.apps.genidlest import RIB90, RunConfig, default_machine, run_genidlest
    from repro.runtime import EventTrace, SnapshotProfiler

    def run():
        trace = EventTrace()
        run_genidlest(RunConfig(case=RIB90, n_procs=16, **config),
                      profiler=SnapshotProfiler(default_machine(16),
                                                trace=trace))
        return trace

    trace = benchmark(run)
    assert golden.trace_digest(trace) == golden.GOLDEN[golden_case]
    benchmark.extra_info["events"] = len(trace)
    benchmark.extra_info["events_per_s"] = len(trace) / benchmark.stats.stats.min


def test_traced_mpi_run_throughput(benchmark):
    """The MPI 16 x 8 run: ranks stepping in lockstep."""
    _traced_run_throughput(benchmark, "traced/genidlest-mpi-events",
                           version="mpi", iterations=8)


def test_traced_omp_run_throughput(benchmark):
    """The unoptimized OpenMP 16 x 3 run: teams stepping in lockstep
    through static loops and master-only ``single`` constructs."""
    _traced_run_throughput(benchmark, "traced/genidlest-omp-events",
                           version="openmp", iterations=3)


def test_batched_counter_rows_throughput(benchmark):
    """The MSA 400 x 16 distance loop as one column formula (399 rows of
    task table, then the batched counter rows) against the per-pair
    signature and the per-task scalar counter formula, row for row
    bit-identical."""
    import time

    from repro.apps.msa import distance_tasks, generate_sequences, sw_work_signature
    from repro.machine import ProcessorModel
    from tests.machine.scalar_reference import reference_counters

    seqs = generate_sequences(400, seed=0)
    lengths = seqs.lengths.tolist()
    model = ProcessorModel()

    def per_task():
        return np.stack([
            reference_counters(model, sw_work_signature(
                length, sum(lengths[i + 1:])), None)
            for i, length in enumerate(lengths[:-1])])

    scalar_seconds = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        scalar = per_task()
        scalar_seconds = min(scalar_seconds, time.perf_counter() - t0)
    rows = benchmark(lambda: model.execute_rows(distance_tasks(seqs)))
    assert len(rows) == 399
    assert rows.tobytes() == scalar.tobytes()
    speedup = scalar_seconds / benchmark.stats.stats.min
    benchmark.extra_info["per_task_seconds"] = scalar_seconds
    benchmark.extra_info["speedup"] = speedup
    assert speedup > 1.0


# One diagnosis (facts, rules, report inputs) per shape the benchmark
# workloads diagnose, each checked against its golden digests.
DIAGNOSIS_CASES = ["msa/static", "genidlest/unopt", "serve/3/2", "wide"]


@pytest.mark.parametrize("case", DIAGNOSIS_CASES)
def test_diagnosis_throughput(benchmark, case):
    trial = diagnosis_golden.case_trial(case)
    harness = benchmark(diagnosis_golden.diagnose_case, case, trial)
    assert diagnosis_golden.harness_digests(harness) == \
        diagnosis_golden.GOLDEN[case]
