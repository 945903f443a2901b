"""One op dispatch behind both clients, and job parameters that are checked."""

import json

import pytest

from repro.apps.genidlest import CASES, RIB45, case_config
from repro.core.result import AnalysisError
from repro.knowledge import diagnose_load_balance, recommendations_of
from repro.serve import Client, SocketClient
from repro.serve.protocol import dispatch

from .conftest import DIAG


class TestOneSurface:
    def test_both_clients_share_every_service_method(self):
        methods = [name for name in vars(SocketClient)
                   if not name.startswith("_")]
        assert sorted(methods) == ["close", "ping", "request", "shutdown"]
        for name in ("submit", "submit_many", "status", "wait", "run",
                     "stats", "metrics", "health", "explain_job",
                     "lineage_scan", "diagnose"):
            assert getattr(Client, name) is getattr(SocketClient, name)

    def test_in_process_replies_have_the_wire_shape(self, service):
        client = Client(service)
        listing = client.status()
        assert set(listing) == {"jobs", "pending"}
        assert "Service diagnosis" in client.diagnose()["report"]

    def test_unknown_op_is_an_analysis_error(self, service):
        with pytest.raises(AnalysisError, match="unknown op"):
            Client(service).request("frobnicate")
        # ping and shutdown belong to the socket server, not the service
        for op in ("ping", "shutdown"):
            with pytest.raises(AnalysisError, match="unknown op"):
                dispatch(service, op, {})

    def test_submit_and_submit_many_read_the_same_options(self, service):
        client = Client(service)
        one = client.submit("sleep", {"seconds": 0}, priority="3")
        [many] = client.submit_many([{"kind": "sleep",
                                      "params": {"seconds": 0}}],
                                    priority="3")
        assert one["priority"] == many["priority"] == 3

    def test_misspelt_submit_option_is_rejected(self, service):
        client = Client(service)
        with pytest.raises(ValueError, match="prority"):
            client.submit("sleep", {"seconds": 0}, prority=3)
        [row] = client.submit_many([{"kind": "sleep", "prority": 3}])
        assert "prority" in row["error"]
        assert service.jobs() == []


class TestJobParamsChecked:
    def test_diagnose_unknown_script_fails(self, service):
        job = Client(service).run("diagnose", {**DIAG, "script": "nope"})
        assert job["status"] == "failed"
        assert job["failure"]["type"] == "AnalysisError"
        assert "unknown diagnosis script 'nope'" in job["error"]

    def test_run_trial_unknown_case_fails(self, service):
        job = Client(service).run("run-trial", {
            "app": "genidlest", "application": "experiments",
            "experiment": "cases", "case_key": "0123456789abcdef",
            "factors": {"case": "60rib", "procs": 2, "iterations": 1},
        })
        assert job["status"] == "failed"
        assert "unknown GenIDLEST case '60rib'" in job["error"]

    def test_case_table(self):
        assert list(CASES) == ["45rib", "90rib"]
        assert case_config("45rib") is RIB45
        with pytest.raises(AnalysisError, match="60rib"):
            case_config("60rib")


def test_recommendation_wire_shape_is_unchanged(service):
    job = Client(service).run("diagnose", {**DIAG, "trial": "t2"})
    trial = service.db.load_trial("App", "Exp", "t2")
    expected = [{"category": r.category, "event": r.event,
                 "severity": r.severity, "message": r.message}
                for r in recommendations_of(diagnose_load_balance(trial))]
    assert expected
    assert json.dumps(job["result"]["recommendations"]) == \
        json.dumps(expected)
