"""Batched submission and structured failure reasons.

``submit_many`` exists because the experiment orchestrator admits each
case's rerun batch in one round trip; over the socket transport that is
one request/response for N jobs instead of N.  Structured failure
records exist so the orchestrator (and any client) can distinguish a
flaky transient from a real fault without parsing error strings.
"""

import uuid

import pytest

from .conftest import make_trial
from repro.serve import AnalysisService, ServeServer, SocketClient

N_BATCH = 100


@pytest.fixture
def served(tmp_path):
    svc = AnalysisService(workers=2, default_timeout=10.0).start()
    svc.db.save_trial("App", "Exp", make_trial("t1"))
    server = ServeServer(svc, f"unix:{tmp_path / 'serve.sock'}").start()
    client = SocketClient(server.endpoint, timeout=30.0)
    yield svc, client
    client.close()
    server.stop()
    svc.stop()


class TestBatchSubmit:
    def test_one_round_trip_beats_n_for_100_jobs(self, served, monkeypatch):
        svc, client = served
        frames = []
        handle_line = ServeServer._handle_line

        def counting(server, line):
            frames.append(line)
            return handle_line(server, line)

        monkeypatch.setattr(ServeServer, "_handle_line", counting)
        for n in range(N_BATCH):
            client.submit("sleep", {"seconds": 0.0, "tag": n}, block=True)
        individual = len(frames)

        frames.clear()
        jobs = client.submit_many(
            [{"kind": "sleep", "params": {"seconds": 0.0, "tag": n + N_BATCH}}
             for n in range(N_BATCH)], block=True)
        batched = len(frames)

        assert len(jobs) == N_BATCH
        assert all("id" in j for j in jobs)
        # One request frame for the whole batch against one per job.
        assert (individual, batched) == (N_BATCH, 1)
        for job in jobs:
            done = client.wait(job["id"], timeout=30.0)
            assert done["status"] == "done"

    def test_batch_preserves_order_and_isolates_bad_entries(self, served):
        svc, client = served
        jobs = client.submit_many([
            {"kind": "sleep", "params": {"seconds": 0.0}},
            {"kind": "no-such-kind", "params": {}},
            {"kind": "sleep", "params": {"seconds": 0.0, "tag": 2}},
        ])
        assert "id" in jobs[0]
        assert "error" in jobs[1] and "no-such-kind" in jobs[1]["error"]
        assert "id" in jobs[2]  # the bad entry voided nothing after it

    def test_per_entry_options_override_common(self, served):
        svc, client = served
        jobs = client.submit_many(
            [{"kind": "sleep", "params": {"seconds": 0.0},
              "priority": 7}],
            priority=1,
        )
        assert jobs[0]["priority"] == 7

    def test_in_process_client_has_the_same_surface(self):
        from repro.serve import Client

        with AnalysisService(workers=2) as svc:
            client = Client(svc)
            jobs = client.submit_many(
                [{"kind": "sleep", "params": {"seconds": 0.0, "tag": n}}
                 for n in range(5)])
            assert len(jobs) == 5
            for job in jobs:
                assert client.wait(job["id"], timeout=10.0)["status"] == \
                    "done"


class TestStructuredFailures:
    def test_sleep_rejects_negative_seconds_with_a_reason(self):
        with AnalysisService(workers=1) as svc:
            job = svc.submit("sleep", {"seconds": -1.0})
            assert job.wait(10.0)
            assert job.status == "failed"
            assert job.failure is not None
            assert job.failure["type"] == "AnalysisError"
            assert job.failure["transient"] is False
            assert job.failure["reason"]["kind"] == "sleep"
            assert job.failure["reason"]["param"] == "seconds"
            # The wire shape carries it too.
            assert job.to_dict()["failure"]["reason"]["kind"] == "sleep"

    def test_persistent_flake_reports_transient_with_reason(self):
        with AnalysisService(workers=1) as svc:
            job = svc.submit(
                "flaky", {"token": uuid.uuid4().hex, "fail_times": 10},
                max_retries=1)
            assert job.wait(10.0)
            assert job.status == "failed"
            assert job.failure["transient"] is True
            assert job.failure["attempts"] == 2
            assert job.failure["reason"]["kind"] == "flaky"
            assert job.failure["reason"]["attempt"] == 2

    def test_successful_job_has_no_failure_record(self):
        with AnalysisService(workers=1) as svc:
            job = svc.submit("sleep", {"seconds": 0.0})
            assert job.wait(10.0) and job.status == "done"
            assert job.failure is None

    def test_flaky_is_seeded_by_params_not_globals(self):
        # fail_times mode: attempts is per-job state (ctx.attempt), so
        # two jobs with the same token behave identically — no shared
        # module-global counter.
        with AnalysisService(workers=1) as svc:
            token = uuid.uuid4().hex
            first = svc.submit("flaky", {"token": token, "fail_times": 1})
            assert first.wait(10.0) and first.status == "done"
            assert first.result["attempts"] == 2
            second = svc.submit("flaky", {"token": token, "fail_times": 1,
                                          "seconds": 0.001})
            assert second.wait(10.0) and second.status == "done"
            assert second.result["attempts"] == 2

    def test_flaky_fail_rate_is_deterministic_in_the_token(self):
        # fail_rate mode draws from sha256(token:attempt): the same
        # token always flakes on the same attempts, across services.
        outcomes = []
        for _ in range(2):
            with AnalysisService(workers=1) as svc:
                job = svc.submit(
                    "flaky", {"token": "det-token", "fail_rate": 0.5},
                    max_retries=8)
                assert job.wait(10.0)
                outcomes.append((job.status, job.attempts))
        assert outcomes[0] == outcomes[1]
