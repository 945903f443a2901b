"""A trial codes its callgraph once, when it is built, and presents it
unchanged: the built trial, its copy and the trial a repository loads back
give the same metadata JSON, the same ``TrialMetadata`` rows and the same
``CallGraphEdge`` rows, which equal the rows the per-edge name lists
give.  The JSON, TAU and CSV round trips keep the callgraph."""

import json

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import PerformanceResult, callgraph_facts, trial_metadata_facts
from repro.knowledge import imbalance_facts
from repro.perfdmf import (
    CallGraph,
    PerfDMF,
    TrialBuilder,
    read_csv_profile,
    read_tau_profile,
    trial_from_dict,
    trial_to_dict,
    write_csv_profile,
    write_tau_profile,
)
from repro.rules import Categorical

EVENTS = ["main", "solve", "main => solve", "io"]
#: names outside the events: empty, non-ASCII, a lone surrogate, a NUL
OUTSIDE = ["ext", "", "é", "\udcff", "a\0b", "ext_2"]
NAMES = st.sampled_from(EVENTS + OUTSIDE)


@st.composite
def callgraph_trials(draw):
    """A 4-event trial whose callgraph (possibly empty, possibly with
    repeated edges) sits between other metadata keys."""
    edges = draw(st.lists(st.lists(NAMES, min_size=2, max_size=2),
                          max_size=12))
    if edges and draw(st.booleans()):
        edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    metadata = {"schedule": "static", "callgraph": edges,
                "flags": ["-O3"], "ranks": 4}
    n_threads = draw(st.integers(1, 3))
    values = np.arange(len(EVENTS) * n_threads, dtype=float).reshape(
        len(EVENTS), n_threads)
    return (TrialBuilder("cg", metadata).with_events(EVENTS)
            .with_threads(n_threads).with_metric("TIME", values).build())


def presented(trial):
    """What a reader sees: the ``TrialMetadata`` rows, the
    ``CallGraphEdge`` rows with their codes and (read last, as reading it
    decodes the callgraph) the metadata JSON."""
    result = PerformanceResult(trial)
    edges = callgraph_facts(result)
    rows = ([f.as_dict() for f in trial_metadata_facts(result)],
            [f.as_dict() for f in edges],
            [edges.columns[side].codes.tolist() for side in ("parent", "child")])
    return (json.dumps(trial.metadata), *rows)


def expected(metadata, name="cg"):
    """The rows the per-edge lists give (the coding a categorical column
    does of its values)."""
    edges = metadata["callgraph"]
    columns = [Categorical([edge[side] for edge in edges], EVENTS)
               for side in (0, 1)]
    rows = [{"trial": name, "name": key,
             "value": value if isinstance(value, (str, int, float, bool))
             else repr(value)} for key, value in metadata.items()]
    return (json.dumps(metadata), rows,
            [{"parent": p, "child": c, "trial": name} for p, c in edges],
            [column.codes.tolist() for column in columns])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trial=callgraph_trials())
def test_built_copied_and_loaded_trials_present_the_same_rows(trial):
    metadata = json.loads(json.dumps(trial.coded_metadata(), default=lambda
                                     graph: graph.edges()))
    assert isinstance(trial.coded_metadata()["callgraph"], CallGraph)
    copy = trial.copy()
    with PerfDMF() as db:
        db.save_trial("A", "E", trial)
        loaded = db.load_trial("A", "E", "cg")
        stored = db.trial_metadata("A", "E", "cg")
    want = expected(metadata)
    # rows from the codes, then (metadata read) from the decoded list
    assert presented(copy) == presented(loaded) == presented(trial) == want
    assert presented(copy) == presented(loaded) == presented(trial) == want
    assert json.dumps(stored) == want[0] and list(stored) == list(metadata)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trial=callgraph_trials())
def test_json_tau_and_csv_round_trips_keep_the_callgraph(
        tmp_path_factory, trial):
    root = tmp_path_factory.mktemp("cg")
    write_tau_profile(trial, root / "tau")
    write_csv_profile(trial, root / "t.csv")
    metadata = trial.coded_metadata()
    for back in (trial_from_dict(json.loads(json.dumps(trial_to_dict(trial)))),
                 read_tau_profile(root / "tau", name="cg", metadata=metadata),
                 read_csv_profile(root / "t.csv", name="cg",
                                  metadata=metadata)):
        assert back.metadata == trial.metadata
        assert presented(back) == presented(trial)


def _trial(metadata):
    return (TrialBuilder("t", metadata).with_events(["main", "solve"])
            .with_threads(2).with_metric("TIME", np.ones((2, 2))).build())


def test_tuple_pairs_stay_as_given_until_stored():
    trial = _trial({"callgraph": [("main", "solve")]})
    assert trial.metadata["callgraph"] == [("main", "solve")]
    assert trial.callgraph is None
    with PerfDMF() as db:
        db.save_trial("A", "E", trial)
        loaded = db.load_trial("A", "E", "t")
    # JSON has no tuples: the stored list is well formed, and coded
    assert loaded.metadata["callgraph"] == [["main", "solve"]]
    assert loaded.callgraph.codes.tolist() == [[0, 1]]


def test_uncoded_pairs_give_the_facts_their_stored_form_gives():
    def facts(callgraph):
        values = np.array([[1.0, 2.0, 4.0], [3.0, 1.0, 2.0]])
        trial = (TrialBuilder("t", {"callgraph": callgraph})
                 .with_events(["main", "solve"]).with_threads(3)
                 .with_metric("TIME", values).build())
        with PerfDMF() as db:
            db.save_trial("A", "E", trial)
            loaded = db.load_trial("A", "E", "t")
        return [[(f.fact_type, f.as_dict())
                 for f in imbalance_facts(PerformanceResult(t))
                 if f.fact_type != "ImbalanceFact"] for t in (trial, loaded)]

    lists = [["main", "solve"], ["solve", "ext"], ["main", "solve"]]
    built, loaded = facts([tuple(edge) for edge in lists])
    assert built == loaded == facts(lists)[0]
    assert [kind for kind, _ in built] == [
        "CallGraphEdge", "CorrelationFact", "CallGraphEdge", "CallGraphEdge",
        "CorrelationFact"]
    # names that are not strings stay in the JSON; facts code them as before
    built, loaded = facts([["main", 3], ["main", "solve"]])
    assert built == loaded and len(built) == 3


def test_a_list_set_after_the_build_is_what_facts_and_saves_see():
    trial = _trial({"callgraph": [["main", "solve"]]})
    trial.metadata["callgraph"] = [["solve", "ext"]]
    assert [f.as_dict() for f in callgraph_facts(PerformanceResult(trial))] \
        == [{"parent": "solve", "child": "ext", "trial": "t"}]
    trial.metadata["callgraph"].append(["main", "solve"])
    with PerfDMF() as db:
        db.save_trial("A", "E", trial)
        assert db.trial_metadata("A", "E", "t")["callgraph"] == [
            ["solve", "ext"], ["main", "solve"]]


def test_derived_results_recode_against_their_own_events():
    trial = _trial({"callgraph": [["main", "solve"], ["solve", "ext"]]})
    builder = PerformanceResult.like(PerformanceResult(trial), name="top",
                                     events=["solve"])
    top = builder.with_metric("TIME", np.ones((1, 2))).build()
    assert top.callgraph.names == ["solve", "main", "ext"]
    assert top.callgraph.codes.tolist() == [[1, 0], [0, 2]]
    assert top.metadata == trial.metadata
