#!/usr/bin/env python
"""Writing your own performance knowledge: a custom .prl rulebase.

The point of the paper is that tuning expertise should be *captured* and
reused.  This example encodes a new piece of knowledge — "MPI time above
20% of runtime on a small machine means the problem is communication-bound,
so scaling further out will not help" — in the .prl dialect, combines it
with a metadata-context rule, and runs it over the profile of a
communication-bound halo-exchange code on 8 ranks.  The 20% is a
``param`` that both MPI-share rules declare: ``with_params(rules,
{"mpi_share": 0.5})`` moves it for both without editing the text.  The
insert's message is a template and its severity an expression over the
bindings.

Run:  python examples/custom_rules.py
"""

import numpy as np

from repro.core import PerformanceResult, RuleHarness
from repro.core.facts import severity_of, trial_metadata_facts
from repro.core.operations.statistics import BasicStatisticsOperation
from repro.perfdmf import Event, Trial, TrialBuilder
from repro.rules import Fact, parse_rules, with_params

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
param mpi_share = 0.20
when
    f : GroupShareFact(group == "MPI", share <= mpi_share, s := share, t := trial)
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


#: A halo-exchange code's mean exclusive seconds per rank: the solver
#: waits on its neighbours' faces and on a residual reduction each step.
HALO_PROFILE = {
    Event("main"): 0.4,
    Event("solve"): 5.2,
    Event("MPI_Isend", "MPI"): 0.3,
    Event("MPI_Waitall", "MPI"): 3.1,
    Event("MPI_Allreduce", "MPI"): 1.0,
}


def halo_exchange_trial(n_ranks: int = 8) -> Trial:
    """The TAU-style profile of a communication-bound run on ``n_ranks``:
    ranks further from the middle of the ring wait a little longer."""
    events = list(HALO_PROFILE)
    skew = 1.0 + 0.05 * np.abs(np.arange(n_ranks) - (n_ranks - 1) / 2)
    exclusive = np.outer(list(HALO_PROFILE.values()), skew) * 1e6
    inclusive = exclusive.copy()
    inclusive[0] = exclusive.sum(axis=0)  # main encloses everything
    return (
        TrialBuilder(f"halo_{n_ranks}", {"procs": n_ranks})
        .with_events(events)
        .with_threads(n_ranks)
        .with_metric("TIME", exclusive, inclusive, units="usec")
        .with_calls(np.ones_like(exclusive))
        .build()
    )


def diagnose(trial: Trial, params: dict | None = None) -> RuleHarness:
    """Run :data:`MY_RULES` (with ``params`` overriding their thresholds)
    over ``trial``'s group shares and metadata."""
    result = PerformanceResult(trial)
    harness = RuleHarness(with_params(parse_rules(MY_RULES), params or {}))
    harness.assertObjects(group_share_facts(result))
    harness.assertObjects(trial_metadata_facts(result))
    harness.processRules()
    return harness


def main() -> None:
    print("profiling a halo-exchange code on 8 ranks...")
    harness = diagnose(halo_exchange_trial(8))

    print(f"\n{len(harness.engine.trace)} rule firings; findings:")
    for line in harness.output:
        print(f"  {line}")

    recs = harness.recommendations()
    if recs:
        print("\nStructured recommendations:")
        for rec in recs:
            print(f"  - [{rec['category']}] {rec['message']}")


if __name__ == "__main__":
    main()
