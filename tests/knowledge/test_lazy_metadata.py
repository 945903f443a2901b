"""The ``TrialMetadata`` value of a non-scalar entry is computed only
when something reads it.

The load-balance diagnosis asserts one ``TrialMetadata`` fact per
metadata entry, and the callgraph entry's value is the ``repr`` of its
edge list: on the 10,000-edge ``wide`` golden trial that text is the
largest single cost of fact generation, and no rule reads it.
"""

from __future__ import annotations

from repro.knowledge import diagnose_load_balance
from tests.knowledge.test_diagnosis_golden import (
    GOLDEN,
    case_trial,
    harness_digests,
)


class CountedEdges(list):
    """A callgraph edge list that counts calls of its ``repr``."""

    reprs = 0

    def __repr__(self) -> str:
        self.reprs += 1
        return list.__repr__(self)


def test_wide_diagnosis_never_reprs_the_callgraph():
    trial = case_trial("wide")
    edges = trial.metadata["callgraph"] = CountedEdges(
        trial.metadata["callgraph"])
    harness = diagnose_load_balance(trial)
    assert edges.reprs == 0
    # the digests read every fact's value, so they compute it, once
    assert harness_digests(harness) == GOLDEN["wide"]
    assert edges.reprs == 1
