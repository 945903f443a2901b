#!/usr/bin/env python
"""Writing your own performance knowledge: a custom .prl rulebase.

The point of the paper is that tuning expertise should be *captured* and
reused.  This example encodes a new piece of knowledge — "MPI time above
20% of runtime on a small machine means the problem is communication-bound,
so scaling further out will not help" — in the .prl dialect, combines it
with a metadata-context rule, and runs it over a simulated trial.  The
20% is a ``param``: ``with_params(rules, {"mpi_share": 0.3})`` moves it
without editing the text.  The insert's message is a template and its
severity an expression over the bindings.

Run:  python examples/custom_rules.py
"""

from repro.apps.genidlest import RIB45, RunConfig, run_genidlest
from repro.core import PerformanceResult, RuleHarness
from repro.core.facts import severity_of, trial_metadata_facts
from repro.core.operations.statistics import BasicStatisticsOperation
from repro.rules import Fact

MY_RULES = """
# Knowledge: communication share gates scalability.
rule "Communication bound"
salience 5
doc "MPI events cost more than 20% of runtime"
param mpi_share = 0.20
when
    f : GroupShareFact(group == "MPI", share > mpi_share, s := share, t := trial)
then
    log "Trial {t} spends {s:.0%} of its time in MPI: communication-bound."
    log "    Increasing processor count will mostly grow this share."
    insert Recommendation(category="communication-bound", event="MPI",
                          severity=min(s, 1.0),
                          message=f"reduce message volume or overlap "
                                  f"({s:.0%} of {t} is MPI)")
end

rule "Communication fine"
salience 4
when
    f : GroupShareFact(group == "MPI", share <= 0.20, s := share, t := trial)
    not Recommendation(category == "communication-bound")
then
    log "Trial {t}: MPI share {s:.0%} is healthy."
end

# Context rule: justify conclusions with trial metadata.
rule "Small machine caveat"
salience 3
when
    r : Recommendation(category == "communication-bound")
    m : TrialMetadata(name == "procs", v := value)
then
    log "    (measured on only {v} processors - communication share will"
    log "     grow with scale, so fix it before scaling out)"
end
"""


def group_share_facts(result: PerformanceResult) -> list[Fact]:
    """A custom analysis: per event-group share of total runtime."""
    mean = BasicStatisticsOperation(result).mean()
    shares: dict[str, float] = {}
    for event in result.events:
        group = next(
            e.group for e in result.trial.events if e.name == event
        )
        shares[group] = shares.get(group, 0.0) + severity_of(mean, event)
    return [
        Fact("GroupShareFact", trial=result.name, group=g, share=s)
        for g, s in shares.items()
    ]


def main() -> None:
    print("running GenIDLEST 45rib with MPI on 8 ranks...")
    run = run_genidlest(
        RunConfig(case=RIB45, version="mpi", optimized=True, n_procs=8,
                  iterations=3)
    )
    result = PerformanceResult(run.trial)

    harness = RuleHarness(MY_RULES)
    harness.assertObjects(group_share_facts(result))
    harness.assertObjects(trial_metadata_facts(result))
    fired = harness.processRules()

    print(f"\n{fired} rule firings; findings:")
    for line in harness.output:
        print(f"  {line}")

    recs = harness.recommendations()
    if recs:
        print("\nStructured recommendations:")
        for rec in recs:
            print(f"  - [{rec['category']}] {rec['message']}")


if __name__ == "__main__":
    main()
