"""Acceptance tests for the traced-application workflow: Chrome timeline
lanes, interval sub-trials, and timeline rules naming the offender."""

import json

import pytest

from repro.perfdmf import PerfDMF, load_interval_trials
from repro.workflows import trace_application


@pytest.fixture(scope="module")
def msa_result(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("msa")
    out = tmp / "msa_trace.json"
    with PerfDMF(tmp / "perf.db") as repo:
        result = trace_application(
            "msa", repository=repo, out=str(out),
            n_sequences=80, n_threads=4, schedule="static",
        )
        intervals = load_interval_trials(repo, "MSAP", "traced",
                                         result.trial.name)
    return result, out, intervals


@pytest.fixture(scope="module")
def gen_result(tmp_path_factory):
    from repro.apps.genidlest import RIB45, RunConfig

    tmp = tmp_path_factory.mktemp("gen")
    out = tmp / "gen_trace.json"
    with PerfDMF(tmp / "perf.db") as repo:
        result = trace_application(
            "genidlest", repository=repo, out=str(out),
            config=RunConfig(case=RIB45, version="mpi", n_procs=4,
                             iterations=3),
        )
        intervals = load_interval_trials(repo, "GenIDLEST", "traced",
                                         result.trial.name)
    return result, out, intervals


def test_msa_chrome_trace_has_one_lane_per_thread(msa_result):
    result, out, _ = msa_result
    data = json.loads(out.read_text())
    lanes = {e["args"]["name"] for e in data["traceEvents"]
             if e.get("name") == "process_name" and e["pid"] > 0}
    assert lanes == {f"thread {t}" for t in range(4)}
    # region begin/end events balance per lane
    for pid in range(1, 5):
        b = sum(1 for e in data["traceEvents"]
                if e.get("pid") == pid and e.get("ph") == "B")
        e_ = sum(1 for e in data["traceEvents"]
                 if e.get("pid") == pid and e.get("ph") == "E")
        assert b == e_ > 0


def test_genidlest_chrome_trace_has_one_lane_per_rank(gen_result):
    _, out, _ = gen_result
    data = json.loads(out.read_text())
    lanes = {e["args"]["name"] for e in data["traceEvents"]
             if e.get("name") == "process_name" and e["pid"] > 0}
    assert lanes == {f"rank {r}" for r in range(4)}
    # message flow arrows present (send -> wait completion)
    phases = {e["ph"] for e in data["traceEvents"]}
    assert {"s", "f"} <= phases
    # phase marks exported as global instants
    assert any(e.get("ph") == "i" and e.get("s") == "g"
               for e in data["traceEvents"])


def test_snapshots_stored_as_sub_trials(msa_result, gen_result):
    for result, _, intervals in (msa_result, gen_result):
        assert len(result.snapshots) >= 3
        assert len(intervals) == len(result.snapshots)
        assert len(result.interval_ids) == len(result.snapshots)
        assert [t.name for t in intervals] == \
            [s.name for s in result.snapshots]


def test_timeline_rule_fires_naming_offender(gen_result):
    result, _, _ = gen_result
    cats = {r.category for r in result.recommendations}
    assert cats & {"late-sender", "late-receiver", "barrier-straggler",
                   "phase-imbalance"}
    text = "\n".join(result.harness.output)
    assert "rank" in text
    assert result.wait_states  # raw diagnoses exposed on the result
    assert result.report.startswith("Timeline diagnosis of GenIDLEST/")


def test_msa_serial_tail_diagnosed(msa_result):
    """The MSA serial stages show up as timeline evidence: imbalance
    present in the guide-tree/progressive intervals."""
    result, _, _ = msa_result
    facts = result.harness.facts("PhaseImbalanceFact")
    assert facts
    labels = {f["worstLabel"] for f in facts}
    assert labels & {"guide_tree", "progressive_alignment", "distance_matrix"}


def test_trace_application_unknown_app():
    from repro.core.result import AnalysisError

    with pytest.raises(AnalysisError):
        trace_application("nbody")


def test_cli_trace_app(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "t.json"
    rc = main(["trace-app", "msa", "--sequences", "60", "--threads", "4",
               "--out", str(out), "--db", str(tmp_path / "perf.db")])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "3 interval snapshots" in printed
    assert "Rule-firing audit trail:" in printed
    assert "stored trial + 3 interval sub-trials" in printed
    assert out.exists()


def test_wait_states_detected_once_per_traced_run(monkeypatch):
    from repro.apps.genidlest import RIB45, RunConfig
    from repro.core.operations import tracing
    from repro.knowledge import diagnose_timeline

    calls = []
    real = tracing.detect_wait_states

    def counting(trace, **kwargs):
        calls.append(trace)
        return real(trace, **kwargs)

    monkeypatch.setattr(tracing, "detect_wait_states", counting)
    result = trace_application(
        "genidlest", config=RunConfig(case=RIB45, version="mpi", n_procs=4,
                                      iterations=3))
    assert len(calls) == 1
    # a trace alone still gets its wait states detected, to the same facts
    alone = diagnose_timeline(trace=calls[0], trial=result.trial.name)
    assert len(calls) == 2
    facts = [f.as_dict() for f in alone.facts("WaitStateFact")]
    assert facts and facts == [
        f.as_dict() for f in result.harness.facts("WaitStateFact")]


def test_retraced_run_records_the_same_request_ids():
    def req_ids():
        trace = trace_application("genidlest", version="mpi", n_procs=4,
                                  iterations=1).trace
        return [a["req_id"] for a in trace.attrs_column()
                if a and "req_id" in a]

    first = req_ids()
    assert first[:4] == [1, 2, 3, 4]
    assert req_ids() == first
