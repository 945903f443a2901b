"""Continuous self-monitoring: stats snapshots as PerfDMF trials, and
trend rules firing on degradation *across* snapshots.

The acceptance-criterion test is ``test_trend_rules_fire_on_replayed_
degradation``: ≥3 degrading stats snapshots stored as real PerfDMF
trials must produce trend recommendations through the ``service-rules``
rulebase.
"""

import pytest

from repro import cli
from repro.knowledge import recommendations_of
from repro.perfdmf import PerfDMF, next_trial_name
from repro.serve import (
    AnalysisService,
    SELF_APP,
    SelfMonitor,
    diagnose_trends,
    load_snapshots,
    render_top,
    service_trend_facts,
    stats_to_trial,
)


def _stats(p95=0.01, hit_rate=0.8, respawns=0):
    """A minimal but shape-faithful service.stats() snapshot."""
    return {
        "uptime_s": 10.0,
        "queue_wait": {"count": 10, "p50": p95 / 2, "p95": p95,
                       "p99": p95 * 1.5},
        "cache": {"hit_rate": hit_rate, "hits": 8, "misses": 2,
                  "entries": 4},
        "queue": {"depth": 1, "maxsize": 64, "high_water": 3,
                  "rejected": 0, "retried": 0},
        "jobs": {"submitted": 10, "in_flight": 1,
                 "by_status": {"done": 9}},
        "workers": {"count": 2, "mode": "thread", "alive": 2,
                    "respawns": respawns},
    }


def _store_degrading(db, n=4):
    for i in range(n):
        stats = _stats(p95=0.02 * (1 + i), hit_rate=0.8 - 0.15 * i,
                       respawns=i)
        name = next_trial_name(db, SELF_APP, "self-monitor", "snap")
        db.save_trial(SELF_APP, "self-monitor",
                      stats_to_trial(stats, name=name), replace=True)


class TestSnapshotStorage:
    def test_round_trip_through_perfdmf(self):
        db = PerfDMF()
        trial = stats_to_trial(_stats(p95=0.5), name="snap_0001")
        db.save_trial(SELF_APP, "self-monitor", trial, replace=True)
        (snap,) = load_snapshots(db)
        assert snap["queue_wait"]["p95"] == 0.5
        assert snap["workers"]["mode"] == "thread"

    def test_numeric_leaves_become_events(self):
        trial = stats_to_trial(_stats(), name="snap_0001")
        events = {e.name for e in trial.events}
        assert "queue.depth" in events
        assert "cache.hit_rate" in events
        assert "queue_wait.p95" in events

    def test_empty_stats_rejected(self):
        with pytest.raises(ValueError):
            stats_to_trial({"note": "nothing numeric"}, name="x")

    def test_snapshot_names_are_sequential(self):
        db = PerfDMF()
        _store_degrading(db, n=3)
        assert db.trials(SELF_APP, "self-monitor") == \
            ["snap_0001", "snap_0002", "snap_0003"]


class TestSelfMonitor:
    def test_sample_once_stores_a_trial(self):
        svc = AnalysisService(workers=1).start()
        try:
            monitor = SelfMonitor(svc, svc.db, interval=60.0)
            name = monitor.sample_once()
            assert monitor.sample_once() != name
            snaps = load_snapshots(svc.db)
        finally:
            svc.stop()
        assert len(snaps) == 2
        assert snaps[0]["workers"]["count"] == 1
        assert "uptime_s" in snaps[0]

    def test_delete_never_makes_the_next_sample_overwrite(self):
        svc = AnalysisService(workers=1).start()
        try:
            monitor = SelfMonitor(svc, svc.db, interval=60.0)
            for _ in range(3):
                monitor.sample_once()
            newest = (svc.db.trial_id(SELF_APP, "self-monitor", "snap_0003"),
                      svc.db.content_hash(SELF_APP, "self-monitor",
                                          "snap_0003"))
            svc.db.delete_trial(SELF_APP, "self-monitor", "snap_0001")
            assert monitor.sample_once() == "snap_0004"
            assert (svc.db.trial_id(SELF_APP, "self-monitor", "snap_0003"),
                    svc.db.content_hash(SELF_APP, "self-monitor",
                                        "snap_0003")) == newest
            assert svc.db.trials(SELF_APP, "self-monitor") == [
                "snap_0002", "snap_0003", "snap_0004"]
        finally:
            svc.stop()

    def test_background_thread_samples_and_stops(self):
        svc = AnalysisService(workers=1).start()
        try:
            monitor = SelfMonitor(svc, svc.db, interval=0.01).start()
            assert monitor.running
            deadline = 200
            while monitor.samples < 3 and deadline:
                deadline -= 1
                import time
                time.sleep(0.01)
            monitor.stop()
            assert not monitor.running
            assert monitor.samples >= 3
            assert monitor.errors == 0
            assert svc.stats()["monitor"] == {"errors": 0}
        finally:
            svc.stop()

    def test_failed_samples_are_exposed(self):
        import time

        svc = AnalysisService(workers=1).start()
        try:
            # a read-only view makes every store fail; the loop survives
            monitor = SelfMonitor(svc, svc.db.read_view(),
                                  interval=0.01).start()
            deadline = time.monotonic() + 5.0
            while monitor.errors < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            monitor.stop()
            errors = monitor.errors
            assert errors >= 2
            assert monitor.samples == 0
            assert svc.stats()["monitor"]["errors"] == errors
            text = svc.metrics_text()
        finally:
            svc.stop()
        assert "# TYPE repro_serve_monitor_errors_total counter" in text
        assert f"repro_serve_monitor_errors_total {errors}" in text


class TestTrendFacts:
    def test_too_few_snapshots_is_silent(self):
        snaps = [_stats(p95=0.01), _stats(p95=0.5)]
        assert service_trend_facts(snaps) == []

    def test_monotone_growth_past_threshold_fires(self):
        snaps = [_stats(p95=0.01), _stats(p95=0.02), _stats(p95=0.04)]
        (fact,) = [f for f in service_trend_facts(snaps)
                   if f["metric"] == "queue-wait-p95"]
        assert fact["direction"] == "growing"
        assert fact["first"] == 0.01 and fact["last"] == 0.04

    def test_non_monotone_noise_does_not_fire(self):
        snaps = [_stats(p95=0.01), _stats(p95=0.10), _stats(p95=0.02)]
        assert [f for f in service_trend_facts(snaps)
                if f["metric"] == "queue-wait-p95"] == []

    def test_small_consistent_growth_below_threshold_is_ignored(self):
        snaps = [_stats(p95=0.100), _stats(p95=0.101), _stats(p95=0.102)]
        assert [f for f in service_trend_facts(snaps)
                if f["metric"] == "queue-wait-p95"] == []

    def test_cache_decay_and_respawn_churn(self):
        snaps = [_stats(hit_rate=0.8, respawns=0),
                 _stats(hit_rate=0.6, respawns=1),
                 _stats(hit_rate=0.4, respawns=3)]
        metrics = {f["metric"]: f for f in service_trend_facts(snaps)}
        assert metrics["cache-hit-rate"]["direction"] == "decaying"
        assert metrics["worker-respawns"]["change"] == 3


class TestTrendRules:
    def test_trend_rules_fire_on_replayed_degradation(self):
        """Acceptance: ≥3 degrading snapshots stored as PerfDMF trials
        produce trend recommendations through service-rules."""
        db = PerfDMF()
        _store_degrading(db, n=4)
        harness = diagnose_trends(db)
        categories = {r.category for r in recommendations_of(harness)}
        assert "service-latency-trend" in categories
        assert "service-cache-decay" in categories
        assert "service-worker-churn" in categories

    def test_healthy_snapshots_fire_nothing(self):
        db = PerfDMF()
        for _ in range(4):
            name = next_trial_name(db, SELF_APP, "self-monitor", "snap")
            db.save_trial(SELF_APP, "self-monitor",
                          stats_to_trial(_stats(), name=name),
                          replace=True)
        harness = diagnose_trends(db)
        assert recommendations_of(harness) == []

    def test_cli_serve_trends(self, tmp_path, capsys):
        path = str(tmp_path / "perf.db")
        with PerfDMF(path) as db:
            _store_degrading(db, n=4)
        rc = cli.main(["serve", "trends", "--db", path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Service trends" in out
        assert "service-latency-trend" in out

    def test_cli_serve_trends_needs_snapshots(self, tmp_path, capsys):
        path = str(tmp_path / "empty.db")
        with PerfDMF(path):
            pass
        rc = cli.main(["serve", "trends", "--db", path])
        assert rc == 2
        assert "need >= 3" in capsys.readouterr().err


class TestRenderTop:
    def test_frame_contains_the_vitals(self):
        frame = render_top(_stats(p95=0.25, hit_rate=0.5))
        assert "2 thread workers" in frame
        assert "p95 0.2500s" in frame
        assert "hit rate 50.0%" in frame
        assert "depth 1/64" in frame
