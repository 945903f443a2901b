"""AnalysisService end to end: concurrency, cache, retries, degradation.

Includes the PR's acceptance scenario: 8 concurrent mixed jobs through a
4-worker pool with no database errors, a repeated job served from cache
an order of magnitude faster than cold, an injected transient fault that
retries to success, and queue/cache metrics visible in ``stats()``.
"""

import statistics
import time
import uuid

import pytest

from .conftest import DIAG, make_trial
from repro.core.result import AnalysisError
from repro.serve import (
    AnalysisService,
    Client,
    QueueFull,
    ServeConfig,
)
import repro.serve.service as service_mod


class TestLifecycle:
    def test_submit_before_start_raises(self):
        svc = AnalysisService(workers=1)
        with pytest.raises(AnalysisError, match="not started"):
            svc.submit("sleep")

    def test_config_and_overrides_are_exclusive(self):
        with pytest.raises(ValueError):
            AnalysisService(ServeConfig(), workers=2)

    def test_context_manager_starts_and_stops(self):
        with AnalysisService(workers=1) as svc:
            job = svc.submit("sleep", {"seconds": 0.0})
            assert job.wait(5.0)
        assert svc.pool is None


class TestAcceptanceScenario:
    def test_eight_concurrent_mixed_jobs_four_workers(self, service):
        """The ISSUE's demo: mixed kinds, one duplicate for the cache,
        all complete, no sqlite threading errors."""
        compare = {"app": "App", "exp": "Exp",
                   "trial_a": "t1", "trial_b": "t2"}
        jobs = [
            service.submit("diagnose", DIAG),
            service.submit("compare", compare),
            service.submit("diagnose", {**DIAG, "trial": "t2"}),
            service.submit("sleep", {"seconds": 0.05, "tag": "a"}),
            service.submit("compare", {**compare, "trial_a": "t2",
                                       "trial_b": "t1"}),
            service.submit("sleep", {"seconds": 0.05, "tag": "b"}),
            service.submit("diagnose", DIAG),  # duplicate → cache path
            service.submit("sleep", {"seconds": 0.05, "tag": "c"}),
        ]
        assert len(jobs) == 8
        for job in jobs:
            assert job.wait(30.0), f"job {job.id} never finished"
            assert job.status == "done", (job.id, job.error)
        stats = service.stats()
        assert stats["jobs"]["by_status"]["done"] == 8
        assert stats["workers"]["alive"] == 4
        # The skewed trial produces a real recommendation through the pool:
        # its divergent thread populations trip the clustering rule.
        skewed = jobs[2]
        assert any(r["category"] == "thread-populations"
                   for r in skewed.result["recommendations"])

    def test_cached_repeat_is_order_of_magnitude_faster(self, service):
        cold = service.submit("diagnose", DIAG)
        assert cold.wait(30.0) and cold.status == "done"
        cold_seconds = cold.queue_wait + cold.exec_seconds

        # a steady-state hit: the median of consecutive hits, so one slow
        # first hit (a cold code path) neither fails nor hides anything
        hits = []
        for _ in range(5):
            start = time.monotonic()
            warm = service.submit("diagnose", DIAG)
            assert warm.wait(5.0)
            hits.append(time.monotonic() - start)
            assert warm.cache_hit
            assert warm.result == cold.result
        warm_seconds = statistics.median(hits)
        assert warm_seconds < cold_seconds / 10, (
            f"cache hit took {warm_seconds:.4f}s (median of {len(hits)}) "
            f"vs cold {cold_seconds:.4f}s"
        )

    def test_injected_fault_retries_to_success(self, service):
        job = service.submit(
            "flaky", {"token": uuid.uuid4().hex, "fail_times": 2})
        assert job.wait(30.0)
        assert job.status == "done"
        assert job.attempts == 3
        assert service.queue.stats()["retried"] == 2

    def test_fault_past_retry_budget_fails(self, service):
        job = service.submit(
            "flaky", {"token": uuid.uuid4().hex, "fail_times": 10},
            max_retries=1)
        assert job.wait(30.0)
        assert job.status == "failed"
        assert "transient failure persisted" in job.error


class TestCacheCorrectness:
    def test_resubmission_hits_with_identical_result(self, service):
        first = service.submit("diagnose", DIAG)
        assert first.wait(30.0) and not first.cache_hit
        second = service.submit("diagnose", DIAG)
        assert second.wait(5.0)
        assert second.cache_hit
        assert second.result == first.result
        assert service.cache.snapshot()["hits"] >= 1

    def test_reuploaded_changed_trial_misses(self, service):
        first = service.submit("diagnose", DIAG)
        assert first.wait(30.0)
        service.db.save_trial("App", "Exp", make_trial("t1", skew=9.0),
                              replace=True)
        second = service.submit("diagnose", DIAG)
        assert second.wait(30.0)
        assert not second.cache_hit
        assert second.result != first.result

    def test_identical_reupload_recomputes_once_then_hits(self, service):
        """Delete evicts the entry (invalidation-as-eviction), so the next
        submission recomputes — but identical bytes map to the same key, so
        the recomputed entry serves every submission after that."""
        first = service.submit("diagnose", DIAG)
        assert first.wait(30.0)
        service.db.delete_trial("App", "Exp", "t1")
        service.db.save_trial("App", "Exp", make_trial("t1"))
        second = service.submit("diagnose", DIAG)
        assert second.wait(30.0)
        assert not second.cache_hit
        assert second.result == first.result  # same bytes, same answer
        third = service.submit("diagnose", DIAG)
        assert third.wait(5.0)
        assert third.cache_hit

    def test_rulebase_version_bump_misses(self, service, monkeypatch):
        first = service.submit("diagnose", DIAG)
        assert first.wait(30.0)
        from repro.serve import cache as cache_lib

        monkeypatch.setattr(
            service_mod, "cache_key",
            lambda kind, params, hashes: cache_lib.cache_key(
                kind, params, hashes, rulebase_version="bumped"))
        second = service.submit("diagnose", DIAG)
        assert second.wait(30.0)
        assert not second.cache_hit

    def test_different_params_miss(self, service):
        first = service.submit("diagnose", DIAG)
        assert first.wait(30.0)
        second = service.submit("diagnose", {**DIAG, "trial": "t2"})
        assert second.wait(30.0)
        assert not second.cache_hit

    def test_uncacheable_kind_never_hits(self, service):
        a = service.submit("sleep", {"seconds": 0.0})
        assert a.wait(5.0)
        b = service.submit("sleep", {"seconds": 0.0})
        assert b.wait(5.0)
        assert not a.cache_hit and not b.cache_hit


class TestQueueBehaviour:
    def test_priorities_order_execution(self):
        svc = AnalysisService(workers=1, queue_depth=16).start()
        try:
            order = []
            blocker = svc.submit("sleep", {"seconds": 0.3})
            low = svc.submit("sleep", {"seconds": 0.0, "tag": "low"},
                             priority=0)
            high = svc.submit("sleep", {"seconds": 0.0, "tag": "high"},
                              priority=10)
            for job in (blocker, low, high):
                assert job.wait(10.0)
            assert high.queue_wait < low.queue_wait
        finally:
            svc.stop()

    def test_backpressure_raises_queue_full(self):
        svc = AnalysisService(workers=1, queue_depth=2).start()
        try:
            svc.submit("sleep", {"seconds": 0.5})   # occupies the worker
            time.sleep(0.05)
            svc.submit("sleep", {"seconds": 0.0})
            svc.submit("sleep", {"seconds": 0.0})
            with pytest.raises(QueueFull):
                svc.submit("sleep", {"seconds": 0.0})
            # The rejected submission is not registered as a job.
            assert all(j.status != "queued" or j.spec.params.get("seconds")
                       is not None for j in svc.jobs())
            assert svc.stats()["queue"]["rejected"] == 1
        finally:
            svc.stop()

    def test_per_job_timeout_is_terminal(self):
        svc = AnalysisService(workers=1).start()
        try:
            job = svc.submit("sleep", {"seconds": 5.0}, timeout=0.1)
            assert job.wait(10.0)
            assert job.status == "timeout"
            follow = svc.submit("sleep", {"seconds": 0.0})
            assert follow.wait(10.0) and follow.status == "done"
        finally:
            svc.stop()

    def test_unknown_kind_rejected_at_submit(self, service):
        with pytest.raises(AnalysisError, match="unknown job kind"):
            service.submit("nope")

    def test_job_lookup(self, service):
        job = service.submit("sleep", {"seconds": 0.0})
        assert service.job(job.id) is job
        with pytest.raises(AnalysisError, match="no job"):
            service.job(99999)


class TestStatsAndFacts:
    def test_stats_shape(self, service):
        job = service.submit("diagnose", DIAG)
        assert job.wait(30.0)
        stats = service.stats()
        assert stats["queue"]["maxsize"] == 64
        assert stats["queue_wait"]["count"] >= 1
        assert "diagnose" in stats["exec"]
        assert stats["cache"]["entries"] == 1
        assert stats["versions"]["code"]
        import json
        json.dumps(stats)  # must be JSON-able for `serve stats`

    def test_healthy_service_has_single_stats_fact(self, service):
        job = service.submit("sleep", {"seconds": 0.0})
        assert job.wait(5.0)
        facts = service.service_facts()
        assert [f.fact_type for f in facts] == ["ServiceStatsFact"]

    def test_failure_rate_degradation_fact(self, service):
        for _ in range(6):
            job = service.submit(
                "flaky", {"token": uuid.uuid4().hex, "fail_times": 5},
                max_retries=0)
            assert job.wait(10.0)
        facts = service.service_facts()
        degraded = [f for f in facts
                    if f.fact_type == "ServiceDegradedFact"]
        assert any(f["reason"] == "failure-rate" for f in degraded)

    def test_queue_latency_degradation_fact(self, service):
        facts = service.service_facts(queue_wait_p95_threshold=-1.0)
        # No samples yet → no latency fact even with absurd threshold.
        assert not any(f.fact_type == "ServiceDegradedFact" for f in facts)
        job = service.submit("sleep", {"seconds": 0.0})
        assert job.wait(5.0)
        facts = service.service_facts(queue_wait_p95_threshold=-1.0)
        assert any(f.fact_type == "ServiceDegradedFact"
                   and f["reason"] == "queue-latency" for f in facts)

    def test_diagnose_service_produces_recommendations(self, service):
        for _ in range(6):
            job = service.submit(
                "flaky", {"token": uuid.uuid4().hex, "fail_times": 5},
                max_retries=0)
            assert job.wait(10.0)
        harness = service.diagnose_service()
        cats = {f["category"] for f in harness.facts("Recommendation")}
        assert "service-failure-rate" in cats


class TestInProcessClient:
    def test_client_mirrors_socket_surface(self, service):
        client = Client(service)
        assert client.ping()["pong"]
        record = client.run("diagnose", DIAG)
        assert record["status"] == "done"
        assert client.status(record["id"])["status"] == "done"
        assert len(client.status()["jobs"]) == 1
        assert client.stats()["jobs"]["submitted"] == 1
