"""Service throughput: cold analyses vs the content-addressed cache.

The serve subsystem's claim is architectural: a 4-worker pool overlaps
independent analyses, and the result cache makes repeated submissions
effectively free.  This bench pushes one batch of distinct diagnose
jobs through the pool cold, replays the identical batch against the
warm cache, and reports jobs/s plus the queue-wait percentiles that
``serve stats`` exposes.
"""

import time

import numpy as np

from conftest import print_series
from repro.perfdmf import TrialBuilder
from repro.serve import AnalysisService

N_TRIALS = 12
WORKERS = 4


def _trial(name, skew, events=3, threads=8):
    rng = np.random.default_rng(5)
    names = (["main", "compute", "exchange"] if events == 3
             else ["main"] + [f"phase_{i}" for i in range(events - 1)])
    exc = rng.uniform(40, 90, size=(events, threads))
    exc[-1, 0] *= skew
    return (
        TrialBuilder(name, {"threads": threads})
        .with_events(names)
        .with_threads(threads)
        .with_metric("TIME", exc, exc * 1.4, units="usec")
        .with_calls(np.ones_like(exc), np.zeros_like(exc))
        .build()
    )


def _submit_batch(svc):
    jobs = [
        svc.submit("diagnose", {"app": "Bench", "exp": "E",
                                "trial": f"t{n}", "script": "load-balance"})
        for n in range(N_TRIALS)
    ]
    for job in jobs:
        assert job.wait(120.0), f"job {job.id} never finished"
        assert job.status == "done", (job.id, job.error)
    return jobs


class TestServeThroughput:
    def test_cold_vs_cached_throughput(self, run_once):
        svc = AnalysisService(workers=WORKERS, default_timeout=60.0).start()
        try:
            for n in range(N_TRIALS):
                svc.db.save_trial("Bench", "E",
                                  _trial(f"t{n}", skew=1.0 + n % 4))

            def experiment():
                t0 = time.perf_counter()
                cold_jobs = _submit_batch(svc)
                cold_s = time.perf_counter() - t0

                t0 = time.perf_counter()
                warm_jobs = _submit_batch(svc)
                warm_s = time.perf_counter() - t0
                return cold_jobs, cold_s, warm_jobs, warm_s

            cold_jobs, cold_s, warm_jobs, warm_s = run_once(experiment)
            stats = svc.stats()
        finally:
            svc.stop()

        assert all(not j.cache_hit for j in cold_jobs)
        assert all(j.cache_hit for j in warm_jobs)
        assert stats["cache"]["hits"] == N_TRIALS

        cold_rate = N_TRIALS / cold_s
        warm_rate = N_TRIALS / warm_s
        print_series(
            f"Serve throughput ({WORKERS} workers, {N_TRIALS} diagnose jobs)",
            [("cold", cold_s, cold_rate),
             ("cached", warm_s, warm_rate),
             ("speedup", cold_s / warm_s, warm_rate / cold_rate)],
            ["batch", "seconds", "jobs/s"],
        )
        qw = stats["queue_wait"]
        print_series(
            "Queue-wait percentiles (all jobs)",
            [(qw["count"], qw["p50"], qw["p90"], qw["p99"], qw["max"])],
            ["samples", "p50 (s)", "p90 (s)", "p99 (s)", "max (s)"],
        )
        # The cache should beat recomputation by an order of magnitude.
        assert warm_s < cold_s / 10, (
            f"cached batch {warm_s:.4f}s vs cold {cold_s:.4f}s"
        )

    def test_tracing_overhead_under_five_percent(self, run_once):
        """Distributed tracing is on by default, so it must be nearly
        free: on a realistic diagnose workload the traced service's
        cold-batch throughput stays within 5 % of an identical service
        with ``tracing=False``.

        A batch is 128 diagnose jobs over 24-event × 128-thread trials.
        On a 2-core x86-64 host one diagnosis takes ~1.6 ms and a job
        ~6 ms end to end, so a batch is ~0.7 s of service time and 5 %
        of it is ~35 ms.  Batches alternate order across reps and each
        config keeps its best of five, so machine drift cancels out."""
        reps, batch_size = 5, 128
        traced = AnalysisService(workers=WORKERS,
                                 default_timeout=60.0).start()
        bare = AnalysisService(workers=WORKERS, default_timeout=60.0,
                               tracing=False).start()
        try:
            # Distinct trial names per (config, rep) keep every batch
            # cold — this measures execution, not the cache.
            for svc, tag in ((traced, "tr"), (bare, "un")):
                for rep in range(reps):
                    for n in range(batch_size):
                        svc.db.save_trial(
                            "Bench", "E",
                            _trial(f"{tag}{rep}_t{n}", skew=1.0 + n % 4,
                                   events=24, threads=128))

            def batch(svc, tag, rep):
                t0 = time.perf_counter()
                jobs = [
                    # the batch is twice the queue bound: submits block
                    # until a worker frees a slot
                    svc.submit("diagnose",
                               {"app": "Bench", "exp": "E",
                                "trial": f"{tag}{rep}_t{n}",
                                "script": "load-balance"}, block=True)
                    for n in range(batch_size)
                ]
                for job in jobs:
                    assert job.wait(120.0) and job.status == "done", \
                        (job.id, job.error)
                return time.perf_counter() - t0, jobs

            def experiment():
                traced_s, bare_s = [], []
                for rep in range(reps):
                    order = [("tr", traced, traced_s),
                             ("un", bare, bare_s)]
                    if rep % 2:
                        order.reverse()
                    for tag, svc, times in order:
                        seconds, jobs = batch(svc, tag, rep)
                        times.append(seconds)
                        if tag == "tr":
                            assert all(j.trace_id for j in jobs)
                        else:
                            assert all(j.trace_id is None for j in jobs)
                return min(traced_s), min(bare_s)

            traced_best, bare_best = run_once(experiment)
        finally:
            traced.stop()
            bare.stop()

        overhead = traced_best / bare_best - 1.0
        print_series(
            f"Tracing overhead ({WORKERS} workers, {batch_size} diagnose "
            f"jobs, best of {reps})",
            [("traced", traced_best, batch_size / traced_best),
             ("untraced", bare_best, batch_size / bare_best),
             ("overhead", overhead, overhead * 100)],
            ["config", "seconds", "jobs/s | %"],
        )
        assert traced_best < bare_best * 1.05, (
            f"tracing overhead {overhead:.1%} exceeds 5% "
            f"({traced_best:.4f}s traced vs {bare_best:.4f}s untraced)"
        )

    def test_pool_overlaps_independent_jobs(self, run_once):
        """Four workers on embarrassingly parallel sleeps: the batch
        finishes in roughly batch/WORKERS wall time, not serial time."""
        svc = AnalysisService(workers=WORKERS, default_timeout=30.0).start()
        try:
            nap = 0.15

            def experiment():
                t0 = time.perf_counter()
                jobs = [svc.submit("sleep", {"seconds": nap, "tag": n})
                        for n in range(8)]
                for job in jobs:
                    assert job.wait(30.0) and job.status == "done"
                return time.perf_counter() - t0

            elapsed = run_once(experiment)
        finally:
            svc.stop()

        serial = 8 * nap
        print_series(
            "Worker-pool overlap (8 × 0.15s sleeps)",
            [(serial, elapsed, serial / elapsed)],
            ["serial (s)", "pool (s)", "speedup"],
        )
        # 8 naps over 4 workers is 2 waves; allow generous scheduling slack.
        assert elapsed < serial * 0.6
