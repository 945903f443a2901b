"""Analysis scripts that turn profiles into diagnosis facts.

These are the reproduction's equivalents of the paper's PerfExplorer Jython
scripts: each loads/receives trial data, runs the analysis operations, and
produces the fact vocabulary the rulebase matches:

================  ==========================================================
Fact type         Fields
================  ==========================================================
ImbalanceFact     trial, eventName, ratio (stddev/mean), severity
CorrelationFact   trial, eventA, eventB, correlation
CallGraphEdge     trial, parent, child
MeanEventFact     (see :mod:`repro.core.facts`) — metric comparisons
StallDecomposition trial, eventName, memoryFraction, fpFraction,
                  coveredFraction, severity
LocalityFact      trial, eventName, remoteRatio, appRemoteRatio, severity
SerializationFact trial, eventName, concentration, severity
PowerLevelFact    level, watts, joules, seconds
================  ==========================================================

Severity is always the event's share of mean total runtime, so every rule
can gate on significance the same way the paper's do.
"""

from __future__ import annotations

import numpy as np

from ..core.facts import MeanEventFact, callgraph_columns, event_severities
from ..core.operations.correlation import pearson
from ..core.operations.derive import DeriveMetricOperation
from ..core.operations.statistics import BasicStatisticsOperation
from ..core.result import AnalysisError, PerformanceResult
from ..machine import counters as C
from ..power.energy import LevelMeasurement
from ..rules import Fact, FactBatch, FactStream

#: The paper's derived inefficiency metric name (§III.B first script).
INEFFICIENCY_METRIC = "Inefficiency"
#: The Fig. 1/Fig. 2 stall-rate metric name.
STALL_RATE_METRIC = "(BACK_END_BUBBLE_ALL / CPU_CYCLES)"


def _mean(result: PerformanceResult) -> PerformanceResult:
    """The across-thread mean of ``result``, reduced once per result: a
    diagnosis wraps its trial in one result and runs several scripts
    over it."""
    if result.thread_count == 1:
        return result
    mean = result.__dict__.get("_thread_mean")
    if mean is None:
        mean = result.__dict__["_thread_mean"] = (
            BasicStatisticsOperation(result).mean())
    return mean


def imbalance_facts(
    result: PerformanceResult, *, metric: str = C.TIME
) -> FactStream:
    """§III.A script: per-event imbalance ratios + pairwise correlations +
    callgraph edges, over the *per-thread* result.

    The facts come as one batch per type: the ``ImbalanceFact`` rows first,
    then each ``CallGraphEdge`` row followed by its ``CorrelationFact``
    row where both ends are profiled events.  The edge and correlation
    name columns are categorical, coded against the trial's events."""
    if result.thread_count < 2:
        raise AnalysisError("imbalance analysis needs a multi-thread result")
    name = result.name
    events = result.events
    arr = result.exclusive(metric)
    means = arr.mean(axis=1)
    stds = arr.std(axis=1)
    ratios = np.divide(stds, means, out=np.zeros_like(stds), where=means != 0)
    severities = event_severities(_mean(result))
    n = len(events)
    imbalance = FactBatch("ImbalanceFact", {
        "trial": [name] * n, "eventName": list(events),
        "ratio": ratios.tolist(), "severity": severities.tolist()})
    parents, children = callgraph_columns(result)
    # correlation only where the rule will join (parent-child pairs); each
    # correlation row comes right after its edge
    joined = np.flatnonzero((parents.codes < n) & (children.codes < n))
    shift = np.zeros(len(parents), dtype=np.int64)
    shift[joined] = 1
    edge_positions = n + np.arange(len(parents)) + np.cumsum(shift) - shift
    corr_a, corr_b = parents.take(joined), children.take(joined)
    corr_values = [pearson(arr[a], arr[b]) for a, b in
                   zip(corr_a.codes.tolist(), corr_b.codes.tolist())]
    return FactStream([
        imbalance,
        FactBatch("CallGraphEdge", {
            "trial": [name] * len(parents), "parent": parents,
            "child": children}, edge_positions.tolist()),
        FactBatch("CorrelationFact", {
            "trial": [name] * len(joined), "eventA": corr_a,
            "eventB": corr_b, "correlation": corr_values},
            (edge_positions[joined] + 1).tolist()),
    ])


def stall_rate_facts(result: PerformanceResult) -> list[Fact]:
    """The Fig. 1 script: derive stalls/cycle, compare each event to main."""
    for needed in (C.BACK_END_BUBBLE_ALL, C.CPU_CYCLES):
        if not result.has_metric(needed):
            raise AnalysisError(f"stall-rate analysis needs {needed}")
    mean_result = _mean(result)
    op = DeriveMetricOperation(
        mean_result, C.BACK_END_BUBBLE_ALL, C.CPU_CYCLES,
        DeriveMetricOperation.DIVIDE,
    )
    derived = op.process_data()[0]
    main = derived.main_event()
    return [
        MeanEventFact.compare_event_to_main(derived, main, event, op.derived_name)
        for event in derived.events
        if event != main
    ]


def inefficiency_facts(result: PerformanceResult) -> list[Fact]:
    """§III.B first script: Inefficiency = FP_OPS × (stalls / cycles)."""
    for needed in (C.FP_OPS, C.BACK_END_BUBBLE_ALL, C.CPU_CYCLES):
        if not result.has_metric(needed):
            raise AnalysisError(f"inefficiency analysis needs {needed}")
    mean_result = _mean(result)
    rate_op = DeriveMetricOperation(
        mean_result, C.BACK_END_BUBBLE_ALL, C.CPU_CYCLES,
        DeriveMetricOperation.DIVIDE,
    )
    with_rate = rate_op.process_data()[0]
    ineff_op = DeriveMetricOperation(
        with_rate, C.FP_OPS, rate_op.derived_name,
        DeriveMetricOperation.MULTIPLY,
    )
    derived = ineff_op.process_data()[0]
    main = derived.main_event()
    facts = []
    for event in derived.events:
        if event == main:
            continue
        fact = MeanEventFact.compare_event_to_main(
            derived, main, event, ineff_op.derived_name
        )
        # rebadge under the paper's metric name so rules read naturally
        fields = fact.as_dict()
        fields["metric"] = INEFFICIENCY_METRIC
        facts.append(Fact("MeanEventFact", **fields))
    return facts


def stall_decomposition_facts(result: PerformanceResult) -> list[Fact]:
    """§III.B second script: what fraction of stalls are memory + FP?

    The paper: "If 90% of the stalls are due to these two causes, we ignore
    other sources of stalls in the formula. If that is not the case, we
    will have to perform additional runs."
    """
    needed = (C.BACK_END_BUBBLE_ALL, C.L1D_CACHE_MISS_STALLS, C.FP_STALLS)
    for metric in needed:
        if not result.has_metric(metric):
            raise AnalysisError(f"stall decomposition needs {metric}")
    mean_result = _mean(result)
    facts = []
    total = mean_result.exclusive(C.BACK_END_BUBBLE_ALL)[:, 0]
    memory = mean_result.exclusive(C.L1D_CACHE_MISS_STALLS)[:, 0]
    fp = mean_result.exclusive(C.FP_STALLS)[:, 0]
    severities = event_severities(mean_result).tolist()
    for i, event in enumerate(mean_result.events):
        t = total[i]
        mem_frac = memory[i] / t if t > 0 else 0.0
        fp_frac = fp[i] / t if t > 0 else 0.0
        facts.append(
            Fact(
                "StallDecomposition",
                trial=result.name,
                eventName=event,
                memoryFraction=float(mem_frac),
                fpFraction=float(fp_frac),
                coveredFraction=float(mem_frac + fp_frac),
                severity=severities[i],
            )
        )
    return facts


def locality_facts(result: PerformanceResult) -> list[Fact]:
    """§III.B third script: remote-access ratios vs the application mean.

    remoteRatio = remote accesses / total memory accesses per event; the
    application average provides the rule's comparison baseline (the paper
    flags events "having a lower ratio of local to remote memory references
    than the application on average").
    """
    if not result.has_metric(C.LOCAL_MEMORY_ACCESSES):
        raise AnalysisError(
            f"locality analysis needs {C.LOCAL_MEMORY_ACCESSES}"
        )
    mean_result = _mean(result)
    local = mean_result.exclusive(C.LOCAL_MEMORY_ACCESSES)[:, 0]
    if result.has_metric(C.REMOTE_MEMORY_ACCESSES):
        remote = mean_result.exclusive(C.REMOTE_MEMORY_ACCESSES)[:, 0]
    else:
        # an entirely-local run never charges the remote counter at all
        remote = np.zeros_like(local)
    totals = remote + local
    ratios = np.divide(remote, totals, out=np.zeros_like(remote), where=totals != 0)
    app_remote = float(remote.sum())
    app_total = float(totals.sum())
    app_ratio = app_remote / app_total if app_total > 0 else 0.0
    severities = event_severities(mean_result).tolist()
    facts = []
    for i, event in enumerate(mean_result.events):
        if totals[i] == 0:
            continue  # events with no memory traffic carry no signal
        facts.append(
            Fact(
                "LocalityFact",
                trial=result.name,
                eventName=event,
                remoteRatio=float(ratios[i]),
                appRemoteRatio=app_ratio,
                severity=severities[i],
            )
        )
    return facts


def serialization_facts(
    result: PerformanceResult, *, metric: str = C.TIME
) -> list[Fact]:
    """Detect work concentrated on one thread (the exchange_var pattern).

    concentration = max thread share of the event's total exclusive time
    (1/n_threads = perfectly spread, 1.0 = fully serial).  Severity here is
    the *wall-clock* share of the busiest thread's time in the event —
    serial work gates the critical path regardless of how small it looks
    when averaged across threads.
    """
    if result.thread_count < 2:
        raise AnalysisError("serialization analysis needs a multi-thread result")
    mean_result = _mean(result)
    arr = result.exclusive(metric)
    totals = arr.sum(axis=1)
    maxima = arr.max(axis=1)
    with np.errstate(invalid="ignore"):
        conc = np.divide(
            maxima, totals, out=np.zeros_like(totals), where=totals != 0
        )
    main = result.main_event()
    wall = float(
        mean_result.event_row(main, metric, inclusive=True)[0]
    )
    facts = []
    for i, event in enumerate(result.events):
        if totals[i] == 0:
            continue
        facts.append(
            Fact(
                "SerializationFact",
                trial=result.name,
                eventName=event,
                concentration=float(conc[i]),
                severity=float(maxima[i] / wall) if wall > 0 else 0.0,
            )
        )
    return facts


def thread_cluster_facts(
    result: PerformanceResult,
    *,
    metric: str = C.TIME,
    k: int = 2,
    seed: int = 0,
) -> list[Fact]:
    """Data-mining script: cluster threads by behaviour (PerfExplorer's
    original k-means use case) and report cluster separation.

    One ``ThreadClusterFact`` per run, carrying the cluster sizes and the
    ratio between the busiest and least-busy cluster's total time — a
    separation well above 1 means distinct thread populations (e.g. the
    overloaded/underloaded split a bad schedule produces).
    """
    from ..core.operations.clustering import KMeansOperation

    if result.thread_count < k:
        raise AnalysisError(
            f"cannot split {result.thread_count} threads into {k} clusters"
        )
    op = KMeansOperation(result, metric, k, seed=seed)
    labels = op.labels()
    arr = result.exclusive(metric)
    totals = arr.sum(axis=0)  # per-thread total
    cluster_means = [
        float(totals[labels == c].mean()) if (labels == c).any() else 0.0
        for c in range(k)
    ]
    lo = min(m for m in cluster_means if m > 0) if any(cluster_means) else 0.0
    hi = max(cluster_means)
    separation = hi / lo if lo > 0 else 1.0
    return [
        Fact(
            "ThreadClusterFact",
            trial=result.name,
            metric=metric,
            k=k,
            sizes=tuple(op.cluster_sizes()),
            separation=float(separation),
        )
    ]


def power_level_facts(measurements: list[LevelMeasurement]) -> list[Fact]:
    """§III.C: one fact per optimization level's power/energy outcome."""
    if not measurements:
        raise AnalysisError("no level measurements")
    min_watts = min(m.watts for m in measurements)
    return [
        Fact(
            "PowerLevelFact",
            level=m.level,
            watts=m.watts,
            joules=m.joules,
            seconds=m.seconds,
            # watts × joules: a combined objective some rules use
            product=m.watts * m.joules,
            # the paper's 'O2 for both' logic: a level qualifies for the
            # balanced recommendation only if its power stays essentially
            # at the floor (within 3% — O1/O3's overlap-driven draw sits
            # clearly above that band, O2's does not)
            near_baseline_power=bool(m.watts <= min_watts * 1.03),
        )
        for m in measurements
    ]


def wait_state_facts(
    states,
    *,
    trial: str = "trace",
    wall_seconds: float | None = None,
) -> list[Fact]:
    """Trace script: aggregate diagnosed wait states into rule facts.

    Instances are grouped by (kind, offending rank, construct, event) and
    their wait seconds summed, so one fact says "rank 3's late sends cost
    4.2 ms across 12 waits" instead of twelve separate whispers.  Severity
    is the group's share of the run's wall time (like the profile rules'
    severity), or the raw seconds when ``wall_seconds`` is unknown.
    """
    groups: dict[tuple, list] = {}
    for s in states:
        groups.setdefault((s.kind, s.rank, s.construct, s.event), []).append(s)
    facts = []
    for (kind, rank, construct, event), members in sorted(groups.items()):
        total = sum(m.wait_seconds for m in members)
        victims = {}
        for m in members:
            victims[m.victim] = victims.get(m.victim, 0.0) + m.wait_seconds
        worst_victim = max(victims, key=lambda v: victims[v])
        severity = total / wall_seconds if wall_seconds else total
        facts.append(
            Fact(
                "WaitStateFact",
                trial=trial,
                kind=kind,
                rank=rank,
                victimRank=worst_victim,
                construct=construct,
                eventName=event,
                occurrences=len(members),
                waitSeconds=total,
                severity=float(severity),
            )
        )
    return facts


def phase_imbalance_facts(
    snapshots,
    *,
    trial: str = "run",
    metric: str = C.TIME,
    min_share: float = 0.01,
) -> list[Fact]:
    """Timeline script: per-event imbalance trajectories over interval
    snapshots — the evidence behind "imbalance grows over iterations"."""
    from ..core.operations.tracing import interval_imbalance

    facts = []
    for tl in interval_imbalance(snapshots, metric=metric, min_share=min_share):
        worst = tl.worst_interval
        facts.append(
            Fact(
                "PhaseImbalanceFact",
                trial=trial,
                eventName=tl.event,
                intervals=len(tl.ratios),
                firstRatio=tl.first_ratio,
                lastRatio=tl.last_ratio,
                maxRatio=tl.max_ratio,
                worstInterval=worst,
                worstLabel=tl.labels[worst],
                growth=tl.growth,
                slope=tl.slope,
                trend=tl.trend,
                severity=tl.mean_share,
            )
        )
    return facts
