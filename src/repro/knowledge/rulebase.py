"""Assembly of the shipped rulebase and the high-level diagnosis scripts.

``openuh_rules()`` merges the Python-defined rules (rules_def) with the
``.prl``-defined ones (OpenUHRules.prl) and registers the result under the
name ``"openuh-rules"`` so scripts can write
``RuleHarness.useGlobalRules("openuh-rules")`` — the Fig. 1 call.  Like
the paper's harness, which loads its rulebase once per process, the rules
are compiled on first use and shared: rules hold no match state (that
lives in each harness's engine), so every diagnosis gets a fresh list of
the same rule objects.

The ``diagnose_*`` functions are the complete analysis scripts of §III:
each builds a harness, generates facts from the trial, fires the rules, and
returns the harness for inspection (output lines, Recommendation facts).
"""

from __future__ import annotations

import functools
from importlib import resources

from ..core.facts import trial_metadata_facts
from ..core.harness import RuleHarness, register_rulebase
from ..core.result import AnalysisError, PerformanceResult
from ..perfdmf import Trial
from ..power.energy import LevelMeasurement
from ..rules import Rule, parse_rules
from . import rules_def
from .facts_gen import (
    imbalance_facts,
    thread_cluster_facts,
    inefficiency_facts,
    locality_facts,
    phase_imbalance_facts,
    power_level_facts,
    serialization_facts,
    stall_decomposition_facts,
    stall_rate_facts,
    wait_state_facts,
)

RULEBASE_NAME = "openuh-rules"


def prl_rules() -> list[Rule]:
    """The rules shipped in OpenUHRules.prl."""
    text = (
        resources.files("repro.knowledge")
        .joinpath("OpenUHRules.prl")
        .read_text()
    )
    return parse_rules(text)


#: Distinct threshold-override sets whose compiled rulebase is kept.
RULEBASE_CACHE_SIZE = 16


def openuh_rules(**threshold_overrides) -> list[Rule]:
    """The full shipped rulebase (Python + .prl faces).

    ``threshold_overrides`` are forwarded to the Python rule factories
    (``ratio_threshold=...`` etc.) by matching parameter names — unknown
    names raise, so ablations cannot silently misconfigure a rule.

    The rules are compiled once per process for each distinct override set
    (names, values and value types) and shared; the returned list is new
    on every call, so callers may add or drop rules freely.
    """
    return list(_compiled_rules(**threshold_overrides))


@functools.lru_cache(maxsize=RULEBASE_CACHE_SIZE, typed=True)
def _compiled_rules(**threshold_overrides) -> tuple[Rule, ...]:
    def take(factory, *names):
        kw = {}
        for name in names:
            if name in threshold_overrides:
                kw[name] = threshold_overrides[name]
        return factory(**kw)

    known = {
        "ratio_threshold",
        "severity_threshold",
        "correlation_threshold",
        "coverage_threshold",
        "concentration_threshold",
    }
    unknown = set(threshold_overrides) - known
    if unknown:
        raise ValueError(f"unknown threshold overrides: {sorted(unknown)}")

    rules = [
        take(rules_def.load_imbalance_rule,
             "ratio_threshold", "severity_threshold", "correlation_threshold"),
        take(rules_def.high_inefficiency_rule, "severity_threshold"),
        take(rules_def.memory_bound_rule,
             "coverage_threshold", "severity_threshold"),
        take(rules_def.fp_bound_rule,
             "coverage_threshold", "severity_threshold"),
        take(rules_def.unexplained_stalls_rule,
             "coverage_threshold", "severity_threshold"),
        take(rules_def.data_locality_rule, "severity_threshold"),
        take(rules_def.sequential_bottleneck_rule,
             "concentration_threshold", "severity_threshold"),
        take(rules_def.late_sender_rule, "severity_threshold"),
        take(rules_def.late_receiver_rule, "severity_threshold"),
        take(rules_def.barrier_straggler_rule, "severity_threshold"),
        take(rules_def.phase_imbalance_rule,
             "ratio_threshold", "severity_threshold"),
        rules_def.thread_population_rule(),
        rules_def.lowest_power_rule(),
        rules_def.lowest_energy_rule(),
        rules_def.balanced_power_energy_rule(),
    ]
    rules.extend(prl_rules())
    return tuple(rules)


# register the default rulebase for RuleHarness.useGlobalRules("openuh-rules")
register_rulebase(RULEBASE_NAME, openuh_rules)


def _harness(**overrides) -> RuleHarness:
    return RuleHarness(openuh_rules(**overrides))


def diagnose_load_balance(
    trial: Trial, *, harness: RuleHarness | None = None, **overrides
) -> RuleHarness:
    """§III.A: the MSA load-balancing diagnosis script."""
    h = harness or _harness(**overrides)
    result = PerformanceResult(trial)
    h.assertObjects(imbalance_facts(result))
    h.assertObjects(trial_metadata_facts(result))
    if result.thread_count >= 4:
        h.assertObjects(thread_cluster_facts(result))
    h.processRules()
    return h


def diagnose_stalls(
    trial: Trial, *, harness: RuleHarness | None = None, **overrides
) -> RuleHarness:
    """§III.B scripts 1+2: inefficiency, stall rate, stall decomposition."""
    h = harness or _harness(**overrides)
    result = PerformanceResult(trial)
    h.assertObjects(stall_rate_facts(result))
    h.assertObjects(inefficiency_facts(result))
    h.assertObjects(stall_decomposition_facts(result))
    h.processRules()
    return h


def diagnose_locality(
    trial: Trial, *, harness: RuleHarness | None = None, **overrides
) -> RuleHarness:
    """§III.B script 3: remote-access ratios + serialization detection."""
    h = harness or _harness(**overrides)
    result = PerformanceResult(trial)
    h.assertObjects(locality_facts(result))
    h.assertObjects(serialization_facts(result))
    h.processRules()
    return h


def diagnose_genidlest(
    trial: Trial, *, harness: RuleHarness | None = None, **overrides
) -> RuleHarness:
    """The full §III.B pipeline: all three scripts over one trial."""
    h = harness or _harness(**overrides)
    result = PerformanceResult(trial)
    h.assertObjects(stall_rate_facts(result))
    h.assertObjects(inefficiency_facts(result))
    h.assertObjects(stall_decomposition_facts(result))
    h.assertObjects(locality_facts(result))
    h.assertObjects(serialization_facts(result))
    h.assertObjects(trial_metadata_facts(result))
    h.processRules()
    return h


#: Scripts a stored trial can be diagnosed with, by name.
DIAGNOSE_SCRIPTS = ("load-balance", "genidlest")


def diagnose_stored(db, app: str, exp: str, trial: str, *,
                    script: str = "genidlest",
                    rules: str | None = None) -> RuleHarness:
    """Load one stored trial and run the named script over it, with the
    extra ``.prl`` file ``rules`` when given (the ``diagnose`` and
    ``explain`` verbs and the ``diagnose`` job)."""
    if script not in DIAGNOSE_SCRIPTS:
        raise AnalysisError(f"unknown diagnosis script {script!r}; "
                            f"expected one of {list(DIAGNOSE_SCRIPTS)}")
    loaded = db.load_trial(app, exp, trial)
    # Looked up when called, so wrappers installed on this module see it.
    diagnose = (diagnose_load_balance if script == "load-balance"
                else diagnose_genidlest)
    return diagnose(loaded, harness=RuleHarness(rules) if rules else None)


def diagnose_timeline(
    *,
    trace=None,
    snapshots=None,
    trial: str = "run",
    harness: RuleHarness | None = None,
    min_wait_seconds: float = 1e-9,
    wait_states: list | None = None,
    **overrides,
) -> RuleHarness:
    """Trace/timeline diagnosis: wait states from an event trace plus
    phase-imbalance trajectories from interval snapshots.

    Either input may be omitted; whatever evidence is available becomes
    facts and the timeline rules fire over it.  A caller that has already
    run :func:`~repro.core.operations.tracing.detect_wait_states` on
    ``trace`` passes the result as ``wait_states`` so the trace is not
    scanned twice.
    """
    from ..core.operations.tracing import detect_wait_states

    h = harness or _harness(**overrides)
    if trace is not None and wait_states is None:
        wait_states = detect_wait_states(trace, min_wait_seconds=min_wait_seconds)
    if wait_states is not None:
        wall = trace.duration() if trace is not None else None
        h.assertObjects(wait_state_facts(
            wait_states, trial=trial, wall_seconds=wall or None
        ))
    if snapshots:
        h.assertObjects(phase_imbalance_facts(snapshots, trial=trial))
    h.processRules()
    return h


def recommend_power_levels(
    measurements: list[LevelMeasurement],
    *,
    harness: RuleHarness | None = None,
) -> RuleHarness:
    """§III.C: which optimization level for power / energy / both."""
    h = harness or _harness()
    h.assertObjects(power_level_facts(measurements))
    h.processRules()
    return h
