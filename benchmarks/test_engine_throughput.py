"""Engine throughput benchmarks: the ROADMAP item 4 ≥10× targets.

Two scaling axes, each measured against the naive implementation that
shipped before the indexed/columnar kernels:

* **10k-rank synthetic diagnose** — ``diagnose_load_balance`` over a
  10,000-thread trial whose callgraph carries a large haystack of edges.
  The naive matcher scans every ``CallGraphEdge`` fact for every pair of
  qualifying ``ImbalanceFact``s (and re-scans everything once the firings
  assert their Recommendations); the alpha-memory indexes probe the edge
  hash buckets instead and the dirty-type refresh skips untouched rules.
* **million-event replay** — ``replay_trace`` over a ~1M-event trace
  charging one counter and an 864k-event trace charging three, columnar
  kernel vs the event-by-event reference replay.

A third case times the stored path at the same 10k-rank scale: save →
load → diagnose through a file-backed PerfDMF, whose blob layout must hand
back bitwise-equal arrays.

Both tests assert the ≥10× speedup AND that the fast path is
observationally identical to the slow one (same firing trace and output;
bitwise-equal profile arrays and clocks).  Speedups land in the
pytest-benchmark JSON via ``extra_info`` for the perf-trajectory artifact.
"""

import time

import numpy as np
import pytest

from repro.core.harness import RuleHarness
from repro.core.operations.tracing import _replay_eventwise, replay_trace
from repro.knowledge.rulebase import diagnose_load_balance, openuh_rules
from repro.machine import CounterVector, uniform_machine
from repro.machine import counters as C
from repro.perfdmf import PerfDMF, TrialBuilder
from repro.rules import RuleEngine
from repro.runtime.tau import Profiler
from repro.runtime.trace import EventTrace

from conftest import print_series

SPEEDUP_TARGET = 10.0


def _best_of(fn, rounds=3):
    """Best wall time over ``rounds`` runs (and the last return value)."""
    best, out = float("inf"), None
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


# -- 10k-rank synthetic diagnose ------------------------------------------

def synth_rank_trial(n_events=400, n_threads=10_000, n_hot=12, n_edges=30_000,
                     seed=0):
    """A 10k-rank trial shaped like the MSA case study at fleet scale.

    A chain of ``n_hot`` imbalanced, anti-correlated hot regions (the facts
    the load-imbalance rule joins on) buried in a callgraph with
    ``n_edges`` total edges — mostly calls into unprofiled externals, the
    haystack the naive join has to sift through.
    """
    rng = np.random.default_rng(seed)
    events = ["main"] + [f"region_{i}" for i in range(n_events - 1)]
    edges = [["main", "region_0"]]
    for i in range(n_hot):
        edges.append([f"region_{i}", f"region_{i+1}"])
    k = 0
    while len(edges) < n_edges:
        edges.append([f"region_{k % (n_events - 1)}", f"ext_{k}"])
        k += 1
    exc = rng.random((n_events, n_threads)) * 10.0
    base = rng.random(n_threads) * 4000.0
    for i in range(n_hot + 1):
        # alternate load shapes so parent/child times anti-correlate
        exc[1 + i] = 500.0 + (base if i % 2 else base.max() - base)
    exc[0] = 100.0
    inc = exc.copy()
    inc[0] = exc.sum(axis=0)
    return (
        TrialBuilder("synth10k", {"callgraph": edges})
        .with_events(events)
        .with_threads(n_threads)
        .with_metric("TIME", exc, inc, units="usec")
        .build()
    )


def test_indexed_diagnose_throughput(benchmark):
    trial = synth_rank_trial()

    def diagnose(indexing):
        h = RuleHarness()
        h.engine = RuleEngine(indexing=indexing)
        h.engine.add_rules(openuh_rules())
        diagnose_load_balance(trial, harness=h)
        return h

    naive_seconds, naive = _best_of(lambda: diagnose(False), rounds=2)
    indexed = benchmark(lambda: diagnose(True))

    # identical diagnoses, firing order included (fact seqs are globally
    # monotonic, so compare them relative to each harness's first fact)
    def rel_trace(h):
        base = min(min(r.fact_seqs) for r in h.engine.trace)
        return [(r.rule_name, tuple(s - base for s in r.fact_seqs),
                 r.bindings_summary) for r in h.engine.trace]

    assert indexed.output == naive.output
    assert rel_trace(indexed) == rel_trace(naive)
    assert len(indexed.recommendations()) > 0

    indexed_seconds = benchmark.stats.stats.min
    speedup = naive_seconds / indexed_seconds
    benchmark.extra_info["naive_seconds"] = naive_seconds
    benchmark.extra_info["speedup"] = speedup
    print_series(
        "10k-rank synthetic diagnose (load-balance script)",
        [("naive", naive_seconds, 1.0), ("indexed", indexed_seconds, speedup)],
        ["matcher", "seconds", "speedup"],
    )
    assert speedup >= SPEEDUP_TARGET, (
        f"indexed diagnose only {speedup:.1f}x over naive matching"
    )


# -- 10k-rank save -> load -> diagnose ---------------------------------------

def test_stored_10k_rank_diagnose(benchmark, tmp_path):
    """The end-to-end stored path at 10k ranks x 400 events.

    Each round replaces the trial in a file-backed repository, loads it
    back and diagnoses the loaded copy.  On the row-per-value store this
    took about 105 s per round; with blob matrices it is a few seconds.
    """
    trial = synth_rank_trial()
    with PerfDMF(tmp_path / "perf.db") as db:
        def run():
            db.save_trial("synth", "10k", trial, replace=True)
            loaded = db.load_trial("synth", "10k", trial.name)
            return loaded, diagnose_load_balance(loaded)

        loaded, harness = benchmark.pedantic(run, rounds=3, iterations=1)
    for metric in trial.metric_names():
        assert loaded.exclusive_array(metric).tobytes() == \
            trial.exclusive_array(metric).tobytes()
        assert loaded.inclusive_array(metric).tobytes() == \
            trial.inclusive_array(metric).tobytes()
    assert loaded.calls_array().tobytes() == trial.calls_array().tobytes()
    assert loaded.subroutines_array().tobytes() == \
        trial.subroutines_array().tobytes()
    assert len(harness.recommendations()) > 0
    print_series(
        "10k-rank x 400-event save -> load -> diagnose (file-backed)",
        [("blob store", benchmark.stats.stats.min)],
        ["store", "seconds"],
    )


# -- million-event replay --------------------------------------------------

def synth_trace(n_cpus=16, iterations=22_000, counters=(C.TIME,), seed=0):
    """``n_cpus * (3 * iterations + 2)`` region events (~1.06M by default):
    per CPU, a main region wrapping ``iterations`` of enter/charge/exit,
    each charge holding every one of ``counters``."""
    rng = np.random.default_rng(seed)
    machine = uniform_machine(n_cpus)
    trace = EventTrace()
    prof = Profiler(machine, trace=trace)
    cost = rng.integers(1, 1000, size=(len(counters), n_cpus, 8))
    cost = cost.astype(float)
    for cpu in range(n_cpus):
        prof.enter(cpu, "main")
        for i in range(iterations):
            name = f"iter_{i % 8}"
            prof.enter(cpu, name)
            prof.charge(cpu, CounterVector(
                {m: cost[j, cpu, i % 8] for j, m in enumerate(counters)}))
            prof.exit(cpu, name)
        prof.exit(cpu, "main")
    return trace, machine


@pytest.mark.parametrize("counters, iterations, n_expected", [
    ((C.TIME,), 22_000, 1_056_032),
    ((C.TIME, C.FP_OPS, C.CPU_CYCLES), 18_000, 864_032),
], ids=["1-counter", "3-counters"])
def test_columnar_replay_throughput(benchmark, counters, iterations,
                                    n_expected):
    trace, machine = synth_trace(iterations=iterations, counters=counters)
    n_events = len(trace)
    assert n_events == n_expected

    # Materialize the struct-of-arrays columns once before timing either
    # path: both kernels read the same cached columns, and a freshly
    # recorded trace pays that one-off conversion on first analysis.
    trace.columns()
    trace.charge_columns()

    eventwise_seconds, slow = _best_of(
        lambda: _replay_eventwise(trace, machine), rounds=2
    )
    fast = benchmark(lambda: replay_trace(trace, machine))

    # bitwise-identical accounting (the replay guarantee)
    slow_trial = slow.to_trial("eventwise")
    fast_trial = fast.to_trial("columnar")
    assert sorted(slow_trial.metric_names()) == sorted(counters)
    for metric in [m.name for m in slow_trial.metrics]:
        assert np.array_equal(slow_trial.exclusive_array(metric),
                              fast_trial.exclusive_array(metric))
        assert np.array_equal(slow_trial.inclusive_array(metric),
                              fast_trial.inclusive_array(metric))
    assert np.array_equal(slow_trial.calls_array(), fast_trial.calls_array())
    for cpu in trace.cpu_ids():
        assert fast.clock(cpu) == slow.clock(cpu)

    columnar_seconds = benchmark.stats.stats.min
    speedup = eventwise_seconds / columnar_seconds
    benchmark.extra_info["n_events"] = n_events
    benchmark.extra_info["eventwise_seconds"] = eventwise_seconds
    benchmark.extra_info["speedup"] = speedup
    print_series(
        f"replay_trace over {n_events:,} events, {len(counters)} counter(s)",
        [("eventwise", eventwise_seconds, 1.0),
         ("columnar", columnar_seconds, speedup)],
        ["kernel", "seconds", "speedup"],
    )
    assert speedup >= SPEEDUP_TARGET, (
        f"columnar replay only {speedup:.1f}x over eventwise"
    )
