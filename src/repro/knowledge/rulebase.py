"""The shipped rulebases and the high-level diagnosis scripts.

Each registered rulebase is rule text: ``openuh-rules`` is
``OpenUHRules.prl`` (the Fig. 1 ``RuleHarness.useGlobalRules`` call
resolves it by name), and the service, lineage, experiment and
regression rulebases are one file each (``regression-rules`` adds its
file to ``OpenUHRules.prl``).  :func:`rulebase_loader` makes a
rulebase's loader and registers its name.  Like the paper's harness,
which loads its rulebase once per process, the rules are compiled once
(``openuh-rules`` on import, the others on first use) and shared: rules
hold no match state (that lives in each harness's engine), so every
diagnosis gets a fresh list of the same rule objects.

The ``diagnose_*`` functions are the complete analysis scripts of §III:
each builds a harness, generates facts from the trial, fires the rules, and
returns the harness for inspection (output lines, Recommendation facts).
"""

from __future__ import annotations

import functools
from importlib import resources
from typing import Callable

from ..core.facts import trial_metadata_facts
from ..core.harness import RuleHarness, register_rulebase
from ..core.result import AnalysisError, PerformanceResult
from ..perfdmf import Trial
from ..power.energy import LevelMeasurement
from ..rules import Rule, parse_rules, with_params
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
RULE_FILE = "OpenUHRules.prl"


def prl_rules(filename: str = RULE_FILE) -> list[Rule]:
    """The rules of one shipped rule file, parsed afresh."""
    text = resources.files(__package__).joinpath(filename).read_text(
        encoding="utf-8")
    return parse_rules(text)


#: Distinct (files, threshold-override) sets whose compiled rules are kept.
RULEBASE_CACHE_SIZE = 16


@functools.lru_cache(maxsize=RULEBASE_CACHE_SIZE, typed=True)
def _compiled_rules(files: tuple[str, ...],
                    **threshold_overrides) -> tuple[Rule, ...]:
    # each file is parsed once; override sets and multi-file rulebases
    # are built from the cached parses
    if threshold_overrides:
        return tuple(with_params(_compiled_rules(files), threshold_overrides))
    if len(files) > 1:
        return tuple(rule for name in files for rule in _compiled_rules((name,)))
    return tuple(prl_rules(files[0]))


def rulebase_loader(name: str, *files: str) -> Callable[..., list[Rule]]:
    """Register rulebase ``name`` as the rules of ``files``; return its
    loader, whose keywords override ``param`` values (:func:`with_params`:
    an undeclared name raises ``ValueError``).  Rules are compiled once
    per distinct override set (names, values, value types) and shared;
    each call returns a new list, so callers may add or drop rules."""
    def load(**threshold_overrides) -> list[Rule]:
        return list(_compiled_rules(files, **threshold_overrides))

    register_rulebase(name, load)
    return load


#: The full shipped rulebase: ``openuh_rules(ratio_threshold=0.5)`` etc.
openuh_rules = rulebase_loader(RULEBASE_NAME, RULE_FILE)
#: Advice on an experiment sweep's rigor and failures (``exp report``).
experiment_rules = rulebase_loader("experiment-rules", "ExperimentRules.prl")
#: The regression sentinel's rules, chained with the diagnosis rules.
regression_rulebase = rulebase_loader("regression-rules", RULE_FILE,
                                      "RegressionRules.prl")
# Like the Fig. 1 script, load the shipped rulebase before any analysis:
# parsing it takes milliseconds, which a process's first diagnosis would
# otherwise pay, and forked service workers inherit it compiled.
openuh_rules()


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
