"""The shipped rulebase is compiled once per process and shared.

Rules are immutable and hold no match state (working memory, agenda and
match bookkeeping live in each harness's engine), so every diagnosis may
reuse the same rule objects.  These tests pin what that sharing must not change: results
under concurrency, isolation between harnesses, per-override rulebases,
and a single parse of ``OpenUHRules.prl``.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import harness as harness_module
from repro.core.harness import RuleHarness
from repro.knowledge import diagnose_load_balance, recommendations_of, rulebase
from repro.knowledge.rulebase import RULEBASE_CACHE_SIZE, openuh_rules
from repro.rules import Pattern, RuleBuilder

from .test_diagnosis_golden import GOLDEN, case_digests, case_trial

IMBALANCE_RULE = "Load imbalance with barrier waiting"
CONCURRENT_CASES = ["msa/static", "msa/dynamic,1", "genidlest/unopt",
                    "genidlest/opt", "serve/3/2", "serve/5/4"]


@pytest.fixture(scope="module")
def trials():
    return {case: case_trial(case) for case in CONCURRENT_CASES}


def test_concurrent_diagnoses_match_serial(trials):
    work = CONCURRENT_CASES * 3
    serial = [case_digests(case, trials[case]) for case in work]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads finely
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            concurrent = list(pool.map(
                lambda case: case_digests(case, trials[case]), work,
                timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == serial
    assert serial == [GOLDEN[case] for case in work]


def test_rules_are_shared_and_lists_are_fresh():
    first, second = openuh_rules(), openuh_rules()
    assert first is not second
    assert all(a is b for a, b in zip(first, second, strict=True))
    assert RuleHarness("openuh-rules").engine.rules[0] is first[0]


def test_shared_rules_cannot_be_mutated():
    rule = openuh_rules()[0]
    salience = rule.salience
    with pytest.raises(dataclasses.FrozenInstanceError):
        rule.salience = salience + 10
    pattern = next(c for c in rule.conditions if isinstance(c, Pattern))
    with pytest.raises(dataclasses.FrozenInstanceError):
        pattern.negated = not pattern.negated
    assert openuh_rules()[0].salience == salience


def test_mutating_a_returned_list_does_not_leak():
    n = len(openuh_rules())
    rules = openuh_rules()
    rules.pop()
    rules.clear()
    assert len(openuh_rules()) == n


def test_mutating_a_harness_does_not_leak(trials):
    trial = trials["msa/static"]
    extra = (RuleBuilder("Extra")
             .when("f", "ImbalanceFact")
             .then(lambda ctx: ctx.log("extra"))
             .build())
    h = RuleHarness("openuh-rules")
    h.addRules([extra])
    h.engine.remove_rule(IMBALANCE_RULE)
    assert "Extra" in {r.name for r in h.engine.rules}
    assert "Extra" not in {r.name for r in RuleHarness("openuh-rules").engine.rules}

    mutated = diagnose_load_balance(trial)
    mutated.engine.add_rules([extra])
    mutated.engine.remove_rule(IMBALANCE_RULE)
    assert case_digests("msa/static", trial) == GOLDEN["msa/static"]


def test_overrides_get_their_own_rulebase(trials):
    default = openuh_rules()
    strict = openuh_rules(ratio_threshold=0.9)
    assert strict[0] is not default[0]
    assert openuh_rules(ratio_threshold=0.9)[0] is strict[0]
    # the value's type is part of the key, not only its equality
    assert openuh_rules(ratio_threshold=1)[0] \
        is not openuh_rules(ratio_threshold=1.0)[0]
    trial = trials["msa/static"]
    cats = {r.category for r in recommendations_of(
        diagnose_load_balance(trial, ratio_threshold=0.9))}
    assert "load-imbalance" not in cats
    assert case_digests("msa/static", trial) == GOLDEN["msa/static"]
    assert rulebase._compiled_rules.cache_info().maxsize == RULEBASE_CACHE_SIZE


def test_unknown_override_still_raises():
    for _ in range(2):
        with pytest.raises(ValueError, match="bogus"):
            openuh_rules(bogus=1.0)


def test_prl_parsed_once_across_diagnoses(monkeypatch, trials):
    parses = []
    real = rulebase.parse_rules

    def counting(text):
        parses.append(text)
        return real(text)

    monkeypatch.setattr(rulebase, "parse_rules", counting)
    # start cold: fresh caches for the overrides and the registered name,
    # restored afterwards so other tests keep the process-wide rulebase
    monkeypatch.setattr(rulebase, "_compiled_rules", functools.lru_cache(
        maxsize=RULEBASE_CACHE_SIZE, typed=True)(
            rulebase._compiled_rules.__wrapped__))
    monkeypatch.setattr(harness_module, "_REGISTERED_RULEBASES",
                        dict(harness_module._REGISTERED_RULEBASES))
    harness_module.register_rulebase(rulebase.RULEBASE_NAME,
                                     rulebase.openuh_rules)
    for i in range(10):
        diagnose_load_balance(trials[CONCURRENT_CASES[i % 2]])
        RuleHarness(rulebase.RULEBASE_NAME)
    assert len(parses) == 1


def test_rule_files_are_still_parsed_per_harness(monkeypatch, tmp_path):
    parses = []
    real = harness_module.parse_rules
    monkeypatch.setattr(harness_module, "parse_rules",
                        lambda text: parses.append(text) or real(text))
    path = tmp_path / "one.prl"
    path.write_text('rule "One"\nwhen\n    f : ImbalanceFact()\n'
                    'then\n    log "one"\nend\n')
    for _ in range(3):
        RuleHarness(str(path))
    assert len(parses) == 3


def test_registered_factory_runs_once_until_reregistered(monkeypatch):
    monkeypatch.setattr(harness_module, "_REGISTERED_RULEBASES",
                        dict(harness_module._REGISTERED_RULEBASES))
    calls = []

    def factory(name):
        def build():
            calls.append(name)
            return [RuleBuilder(name).when("f", "ImbalanceFact")
                    .then(lambda ctx: None).build()]
        return build

    harness_module.register_rulebase("toy-rules", factory("A"))
    for _ in range(3):
        assert [r.name for r in RuleHarness("toy-rules").engine.rules] == ["A"]
    harness_module.register_rulebase("toy-rules", factory("B"))
    assert [r.name for r in RuleHarness("toy-rules").engine.rules] == ["B"]
    assert calls == ["A", "B"]
