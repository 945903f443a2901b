"""The expert rulebase: the paper's diagnosis knowledge as rules.

Every rule asserts a ``Recommendation`` fact (category + event + severity +
message + category-specific fields) and logs an explanation.  The
categories are the vocabulary :class:`repro.openuh.feedback.FeedbackOptimizer`
understands, closing the Fig. 3 loop.

Thresholds are module constants so the ablation benchmark can sweep them;
the defaults are the paper's: imbalance ratio 0.25, severity 5%, stall
coverage 90%, stall/cycle severity 10%.
"""

from __future__ import annotations

from ..rules import Rule, RuleBuilder, RuleContext

# -- the paper's thresholds ---------------------------------------------------
IMBALANCE_RATIO_THRESHOLD = 0.25
IMBALANCE_SEVERITY_THRESHOLD = 0.05
IMBALANCE_CORRELATION_THRESHOLD = -0.5
STALL_RATE_SEVERITY_THRESHOLD = 0.10
STALL_COVERAGE_THRESHOLD = 0.90
LOCALITY_SEVERITY_THRESHOLD = 0.05
SERIALIZATION_CONCENTRATION_THRESHOLD = 0.80
SERIALIZATION_SEVERITY_THRESHOLD = 0.10


def load_imbalance_rule(
    *,
    ratio_threshold: float = IMBALANCE_RATIO_THRESHOLD,
    severity_threshold: float = IMBALANCE_SEVERITY_THRESHOLD,
    correlation_threshold: float = IMBALANCE_CORRELATION_THRESHOLD,
) -> Rule:
    """§III.A: the four-condition load-imbalance rule.

    1. both loops have stddev/mean ratio above threshold,
    2. both occupy more than ``severity_threshold`` of runtime,
    3. the events are nested (a callgraph edge joins them),
    4. their per-thread times are strongly negatively correlated.
    """

    def action(ctx: RuleContext) -> None:
        parent, child = ctx["pn"], ctx["cn"]
        ctx.log(
            f"Load imbalance: {child} (inside {parent}) is unbalanced "
            f"across threads (ratio {ctx['cratio']:.3f}); threads leaving "
            f"{child} early wait in {parent} (correlation "
            f"{ctx['corr']:.2f})."
        )
        ctx.log(
            "    Suggested scheduling change: schedule(dynamic,1) on the "
            "parallel loop."
        )
        ctx.insert(
            "Recommendation",
            category="load-imbalance",
            event=child,
            parent=parent,
            severity=ctx["csev"],
            imbalance_ratio=ctx["cratio"],
            suggested_schedule="dynamic,1",
            message=f"unbalanced work in {child}; use dynamic scheduling",
        )

    return (
        RuleBuilder(
            "Load imbalance with barrier waiting",
            salience=10,
            doc="MSA case study: imbalance + nesting + negative correlation",
        )
        .when(
            "p",
            "ImbalanceFact",
            "pn := eventName",
            ("ratio", ">", ratio_threshold),
            ("severity", ">", severity_threshold),
        )
        .when(
            "c",
            "ImbalanceFact",
            "cn := eventName",
            "cratio := ratio",
            "csev := severity",
            ("ratio", ">", ratio_threshold),
            ("severity", ">", severity_threshold),
        )
        .when(
            "edge",
            "CallGraphEdge",
            ("parent", "==", "$pn"),
            ("child", "==", "$cn"),
        )
        .when(
            "corr_fact",
            "CorrelationFact",
            ("eventA", "==", "$pn"),
            ("eventB", "==", "$cn"),
            "corr := correlation",
            ("correlation", "<", correlation_threshold),
        )
        .then(action)
        .build()
    )


def high_inefficiency_rule(
    *, severity_threshold: float = STALL_RATE_SEVERITY_THRESHOLD
) -> Rule:
    """§III.B script 1: events with higher-than-main Inefficiency."""

    def action(ctx: RuleContext) -> None:
        ctx.log(
            f"Event {ctx['e']} has higher than average inefficiency "
            f"(FP_OPS x stall rate): {ctx['v']:.4g} vs {ctx['a']:.4g}"
        )
        ctx.insert(
            "Recommendation",
            category="stall-per-cycle",
            event=ctx["e"],
            severity=ctx["f"]["severity"],
            message=f"{ctx['e']} wastes FP capacity on stalls; examine its "
            "memory behaviour",
        )

    return (
        RuleBuilder(
            "High inefficiency",
            salience=8,
            doc="Inefficiency = FP_OPS * (stalls/cycles), compared to main",
        )
        .when(
            "f",
            "MeanEventFact",
            ("metric", "==", "Inefficiency"),
            ("higherLower", "==", "higher"),
            ("severity", ">", severity_threshold),
            "e := eventName",
            "a := mainValue",
            "v := eventValue",
            ("factType", "==", "Compared to Main"),
        )
        .then(action)
        .build()
    )


def memory_bound_rule(
    *, coverage_threshold: float = STALL_COVERAGE_THRESHOLD,
    severity_threshold: float = IMBALANCE_SEVERITY_THRESHOLD,
) -> Rule:
    """§III.B script 2: ≥90% of stalls from memory + FP, memory dominant."""

    def action(ctx: RuleContext) -> None:
        ctx.log(
            f"Event {ctx['e']}: {ctx['cov']:.0%} of stalls are memory+FP "
            f"(memory {ctx['mem']:.0%}); memory-bound."
        )
        ctx.insert(
            "Recommendation",
            category="memory-bound",
            event=ctx["e"],
            severity=ctx["sev"],
            memory_fraction=ctx["mem"],
            message=f"{ctx['e']} is memory-bound; run the locality analysis",
        )

    def guard(bindings) -> bool:
        return bindings["mem"] >= bindings["fp"]

    return (
        RuleBuilder(
            "Memory-bound stalls",
            salience=7,
            doc="stall decomposition: memory + FP cover >=90%, memory wins",
        )
        .when(
            "d",
            "StallDecomposition",
            "e := eventName",
            "mem := memoryFraction",
            "fp := fpFraction",
            "cov := coveredFraction",
            "sev := severity",
            ("coveredFraction", ">=", coverage_threshold),
            ("severity", ">", severity_threshold),
        )
        .test(guard, "memoryFraction >= fpFraction")
        .then(action)
        .build()
    )


def fp_bound_rule(
    *, coverage_threshold: float = STALL_COVERAGE_THRESHOLD,
    severity_threshold: float = IMBALANCE_SEVERITY_THRESHOLD,
) -> Rule:
    """Symmetric: FP stalls dominate — a scheduling/pipelining target."""

    def action(ctx: RuleContext) -> None:
        ctx.log(
            f"Event {ctx['e']}: FP stalls dominate ({ctx['fp']:.0%}); "
            "dependency chains limit the pipeline."
        )
        ctx.insert(
            "Recommendation",
            category="fp-bound",
            event=ctx["e"],
            severity=ctx["sev"],
            message=f"{ctx['e']} is FP-latency-bound; favour software "
            "pipelining / vectorization",
        )

    def guard(bindings) -> bool:
        return bindings["fp"] > bindings["mem"]

    return (
        RuleBuilder("FP-bound stalls", salience=7)
        .when(
            "d",
            "StallDecomposition",
            "e := eventName",
            "mem := memoryFraction",
            "fp := fpFraction",
            "sev := severity",
            ("coveredFraction", ">=", coverage_threshold),
            ("severity", ">", severity_threshold),
        )
        .test(guard, "fpFraction > memoryFraction")
        .then(action)
        .build()
    )


def unexplained_stalls_rule(
    *, coverage_threshold: float = STALL_COVERAGE_THRESHOLD,
    severity_threshold: float = IMBALANCE_SEVERITY_THRESHOLD,
) -> Rule:
    """The paper's methodology escape hatch: below 90% coverage, collect
    the remaining decomposition counters in additional runs."""

    def action(ctx: RuleContext) -> None:
        ctx.log(
            f"Event {ctx['e']}: only {ctx['cov']:.0%} of stalls explained "
            "by memory+FP; additional counter runs required (branch, "
            "I-miss, stack engine, register dependencies, flushes)."
        )
        ctx.insert(
            "Recommendation",
            category="more-counters",
            event=ctx["e"],
            severity=ctx["sev"],
            message=f"re-run {ctx['e']} with the full stall counter set",
        )

    return (
        RuleBuilder("Stall sources unexplained", salience=3)
        .when(
            "d",
            "StallDecomposition",
            "e := eventName",
            "cov := coveredFraction",
            "sev := severity",
            ("coveredFraction", "<", coverage_threshold),
            ("severity", ">", severity_threshold),
        )
        .then(action)
        .build()
    )


def data_locality_rule(
    *, severity_threshold: float = LOCALITY_SEVERITY_THRESHOLD
) -> Rule:
    """§III.B script 3: events with worse-than-average remote ratios."""

    def action(ctx: RuleContext) -> None:
        ctx.log(
            f"Event {ctx['e']}: remote-access ratio {ctx['r']:.0%} vs "
            f"application average {ctx['avg']:.0%} — poor data locality "
            "(first-touch placed its pages elsewhere)."
        )
        ctx.log(
            "    Parallelize the initialization loops so first-touch "
            "places data with its consumers."
        )
        ctx.insert(
            "Recommendation",
            category="data-locality",
            event=ctx["e"],
            severity=ctx["sev"],
            remote_ratio=ctx["r"],
            message=f"{ctx['e']} reads mostly remote memory; fix first-touch "
            "initialization",
        )

    def worse_than_average(bindings) -> bool:
        # both relative (5% above the app average) and absolute (at least
        # 5% remote) — an all-local application has nothing to fix
        return bindings["r"] > max(bindings["avg"] * 1.05, 0.05)

    return (
        RuleBuilder(
            "Poor data locality",
            salience=9,
            doc="GenIDLEST: remote accesses above the application average",
        )
        .when(
            "l",
            "LocalityFact",
            "e := eventName",
            "r := remoteRatio",
            "avg := appRemoteRatio",
            "sev := severity",
            ("severity", ">", severity_threshold),
        )
        .test(worse_than_average, "remoteRatio > appRemoteRatio")
        .then(action)
        .build()
    )


def sequential_bottleneck_rule(
    *,
    concentration_threshold: float = SERIALIZATION_CONCENTRATION_THRESHOLD,
    severity_threshold: float = SERIALIZATION_SEVERITY_THRESHOLD,
) -> Rule:
    """The exchange_var diagnosis: significant work stuck on one thread."""

    def action(ctx: RuleContext) -> None:
        ctx.log(
            f"Event {ctx['e']} is effectively sequential "
            f"({ctx['c']:.0%} of its time on one thread) and costs "
            f"{ctx['sev']:.0%} of the runtime — it limits scalability."
        )
        ctx.log("    Parallelize its copies across threads (direct copies, "
                "no intermediate buffers).")
        ctx.insert(
            "Recommendation",
            category="sequential-bottleneck",
            event=ctx["e"],
            severity=ctx["sev"],
            concentration=ctx["c"],
            message=f"parallelize {ctx['e']}",
        )

    return (
        RuleBuilder("Sequential bottleneck", salience=9)
        .when(
            "s",
            "SerializationFact",
            "e := eventName",
            "c := concentration",
            "sev := severity",
            ("concentration", ">", concentration_threshold),
            ("severity", ">", severity_threshold),
        )
        .then(action)
        .build()
    )


#: How many times apart cluster totals must be for distinct populations.
THREAD_SEPARATION_THRESHOLD = 2.0


def thread_population_rule() -> Rule:
    """Data-mining corroboration: k-means finds distinct thread populations.

    When clustering splits the threads into groups whose total times differ
    by more than :data:`THREAD_SEPARATION_THRESHOLD`×, the run has structurally
    different thread roles — either intended (master/worker) or a symptom
    (bad schedule, NUMA victim threads).
    """

    def action(ctx: RuleContext) -> None:
        ctx.log(
            f"Thread clustering ({ctx['k']} clusters, sizes {ctx['sizes']}) "
            f"separates populations by {ctx['sep']:.1f}x on {ctx['m']} — "
            "threads are not doing equivalent work."
        )
        ctx.insert(
            "Recommendation",
            category="thread-populations",
            event="<threads>",
            severity=0.0,
            separation=ctx["sep"],
            message="inspect why thread groups diverge (schedule, NUMA, "
            "master-only work)",
        )

    return (
        RuleBuilder("Distinct thread populations", salience=2)
        .when(
            "c",
            "ThreadClusterFact",
            "sep := separation",
            "sizes := sizes",
            "k := k",
            "m := metric",
            ("separation", ">", THREAD_SEPARATION_THRESHOLD),
        )
        .then(action)
        .build()
    )


# -- power/energy rules (§III.C) ---------------------------------------------


def lowest_power_rule() -> Rule:
    """Recommend the optimization level with the lowest power draw."""

    def action(ctx: RuleContext) -> None:
        ctx.log(
            f"Lowest power: {ctx['lvl']} ({ctx['w']:.1f} W) — enable it when "
            "compiling for low power (cooling/reliability constraints)."
        )
        ctx.insert(
            "Recommendation",
            category="power",
            target="power",
            suggested_level=ctx["lvl"],
            severity=0.0,
            message=f"compile at {ctx['lvl']} for lowest power",
        )

    return (
        RuleBuilder("Lowest power level", salience=5)
        .when("f", "PowerLevelFact", "lvl := level", "w := watts")
        .when_not("PowerLevelFact", ("watts", "<", "$w"))
        .then(action)
        .build()
    )


def lowest_energy_rule() -> Rule:
    """Recommend the level with the lowest energy (joules)."""

    def action(ctx: RuleContext) -> None:
        ctx.log(
            f"Lowest energy: {ctx['lvl']} ({ctx['j']:.3g} J) — enable it "
            "when compiling for energy efficiency."
        )
        ctx.insert(
            "Recommendation",
            category="energy",
            target="energy",
            suggested_level=ctx["lvl"],
            severity=0.0,
            message=f"compile at {ctx['lvl']} for lowest energy",
        )

    return (
        RuleBuilder("Lowest energy level", salience=5)
        .when("f", "PowerLevelFact", "lvl := level", "j := joules")
        .when_not("PowerLevelFact", ("joules", "<", "$j"))
        .then(action)
        .build()
    )


def balanced_power_energy_rule() -> Rule:
    """The paper's 'O2 for both power and energy efficiency'.

    A level qualifies when its power draw stays at the floor (the
    ``near_baseline_power`` flag computed at fact generation); among the
    qualifiers, the one with the lowest energy wins.  On Table I this
    selects O2: O1/O3 burn measurably more watts, and O0 wastes energy.
    """

    def action(ctx: RuleContext) -> None:
        ctx.log(
            f"Best power x energy balance: {ctx['lvl']} "
            f"({ctx['w']:.1f} W at the power floor, {ctx['j']:.3g} J)."
        )
        ctx.insert(
            "Recommendation",
            category="power",
            target="both",
            suggested_level=ctx["lvl"],
            severity=0.0,
            message=f"compile at {ctx['lvl']} for power and energy balance",
        )

    return (
        RuleBuilder("Balanced power-energy level", salience=4)
        .when("f", "PowerLevelFact", "lvl := level", "w := watts",
              "j := joules", ("near_baseline_power", "==", True))
        .when_not(
            "PowerLevelFact",
            ("near_baseline_power", "==", True),
            ("joules", "<", "$j"),
        )
        .then(action)
        .build()
    )


# -- trace/timeline rules -----------------------------------------------------
WAIT_STATE_SEVERITY_THRESHOLD = 0.05


def late_sender_rule(
    *, severity_threshold: float = WAIT_STATE_SEVERITY_THRESHOLD
) -> Rule:
    """Trace diagnosis: a rank whose late sends make receivers block."""

    def action(ctx: RuleContext) -> None:
        ctx.log(
            f"Late sender: rank {ctx['r']} delivered messages late "
            f"{ctx['n']} time(s); receivers (worst: rank {ctx['v']}) spent "
            f"{ctx['ws']*1e3:.3f} ms blocked in {ctx['ev']}."
        )
        ctx.log(
            "    Post the matching sends earlier, or overlap the wait with "
            "independent computation on the receiving rank."
        )
        ctx.insert(
            "Recommendation",
            category="late-sender",
            event=ctx["ev"],
            rank=ctx["r"],
            victim=ctx["v"],
            severity=ctx["sev"],
            wait_seconds=ctx["ws"],
            message=f"rank {ctx['r']} sends late; receivers idle in {ctx['ev']}",
        )

    return (
        RuleBuilder(
            "Late sender",
            salience=9,
            doc="wait-state analysis: receiver blocked until a message landed",
        )
        .when(
            "w",
            "WaitStateFact",
            ("kind", "==", "late-sender"),
            "r := rank",
            "v := victimRank",
            "ws := waitSeconds",
            "n := occurrences",
            "ev := eventName",
            "sev := severity",
            ("severity", ">", severity_threshold),
        )
        .then(action)
        .build()
    )


def late_receiver_rule(
    *, severity_threshold: float = WAIT_STATE_SEVERITY_THRESHOLD
) -> Rule:
    """Trace diagnosis: messages sat fully transferred while the receiver
    was busy elsewhere (eager-protocol late receiver)."""

    def action(ctx: RuleContext) -> None:
        ctx.log(
            f"Late receiver: rank {ctx['r']} entered {ctx['ev']} after its "
            f"messages (from rank {ctx['v']}) had already arrived, "
            f"{ctx['n']} time(s), {ctx['ws']*1e3:.3f} ms of queueing."
        )
        ctx.insert(
            "Recommendation",
            category="late-receiver",
            event=ctx["ev"],
            rank=ctx["r"],
            victim=ctx["v"],
            severity=ctx["sev"],
            wait_seconds=ctx["ws"],
            message=f"rank {ctx['r']} consumes messages late in {ctx['ev']}",
        )

    return (
        RuleBuilder(
            "Late receiver",
            salience=9,
            doc="wait-state analysis: message queued before the receiver waited",
        )
        .when(
            "w",
            "WaitStateFact",
            ("kind", "==", "late-receiver"),
            "r := rank",
            "v := victimRank",
            "ws := waitSeconds",
            "n := occurrences",
            "ev := eventName",
            "sev := severity",
            ("severity", ">", severity_threshold),
        )
        .then(action)
        .build()
    )


def barrier_straggler_rule(
    *, severity_threshold: float = WAIT_STATE_SEVERITY_THRESHOLD
) -> Rule:
    """Trace diagnosis: one participant's late arrival stalls a barrier or
    collective for everyone (MPI ranks or OpenMP threads)."""

    def action(ctx: RuleContext) -> None:
        who = "thread" if ctx["con"] == "openmp" else "rank"
        ctx.log(
            f"Barrier straggler: {who} {ctx['r']} arrived last at "
            f"{ctx['ev']} {ctx['n']} time(s); the earliest {who} "
            f"({ctx['v']}) lost {ctx['ws']*1e3:.3f} ms waiting."
        )
        ctx.log(
            f"    Rebalance the work feeding {ctx['ev']} so {who} "
            f"{ctx['r']} stops arriving last."
        )
        ctx.insert(
            "Recommendation",
            category="barrier-straggler",
            event=ctx["ev"],
            rank=ctx["r"],
            victim=ctx["v"],
            construct=ctx["con"],
            severity=ctx["sev"],
            wait_seconds=ctx["ws"],
            message=f"{who} {ctx['r']} straggles into {ctx['ev']}",
        )

    return (
        RuleBuilder(
            "Barrier straggler",
            salience=9,
            doc="wait-state analysis: last arrival dominates barrier time",
        )
        .when(
            "w",
            "WaitStateFact",
            ("kind", "==", "barrier-straggler"),
            "r := rank",
            "v := victimRank",
            "ws := waitSeconds",
            "n := occurrences",
            "ev := eventName",
            "con := construct",
            "sev := severity",
            ("severity", ">", severity_threshold),
        )
        .then(action)
        .build()
    )


def phase_imbalance_rule(
    *,
    ratio_threshold: float = IMBALANCE_RATIO_THRESHOLD,
    severity_threshold: float = IMBALANCE_SEVERITY_THRESHOLD,
) -> Rule:
    """Timeline diagnosis: imbalance resolved over interval snapshots.

    Where the §III.A rule can only say "imbalance exists", the snapshot
    timeline lets this rule say *when*: growing across iterations (an
    evolving decomposition problem), or persistent with a worst interval.
    """

    def action(ctx: RuleContext) -> None:
        trend = ctx["trend"]
        worst = ctx["wi"]
        label = ctx["wl"] or f"interval {worst}"
        if trend == "growing":
            ctx.log(
                f"Phase imbalance: {ctx['e']} imbalance GROWS over "
                f"{ctx['k']} intervals (ratio {ctx['fr']:.3f} -> "
                f"{ctx['lr']:.3f}); worst at {label}."
            )
            ctx.log(
                "    The decomposition degrades as the run progresses — "
                "rebalance periodically, not just at startup."
            )
        else:
            ctx.log(
                f"Phase imbalance: {ctx['e']} is unbalanced in time "
                f"(max ratio {ctx['mr']:.3f} at {label}, trend {trend})."
            )
        ctx.insert(
            "Recommendation",
            category="phase-imbalance",
            event=ctx["e"],
            severity=ctx["sev"],
            trend=trend,
            worst_interval=worst,
            worst_label=ctx["wl"],
            first_ratio=ctx["fr"],
            last_ratio=ctx["lr"],
            message=f"imbalance in {ctx['e']} is {trend} over intervals "
                    f"(worst: {label})",
        )

    return (
        RuleBuilder(
            "Phase imbalance over intervals",
            salience=9,
            doc="snapshot timeline: imbalance trajectory across phases",
        )
        .when(
            "p",
            "PhaseImbalanceFact",
            "e := eventName",
            "k := intervals",
            "fr := firstRatio",
            "lr := lastRatio",
            "mr := maxRatio",
            "wi := worstInterval",
            "wl := worstLabel",
            "trend := trend",
            "sev := severity",
            ("maxRatio", ">", ratio_threshold),
            ("severity", ">", severity_threshold),
            ("intervals", ">=", 2),
        )
        .then(action)
        .build()
    )
