"""Shared fixtures for the serve subsystem tests.

Importing this module registers the ``flaky`` fault-injection job kind.
That happens before any process-mode service forks its children, so
thread and process workers both know the kind.
"""

import hashlib
import time

import numpy as np
import pytest

from repro.perfdmf import PerfDMF, TrialBuilder
from repro.serve import AnalysisService
from repro.serve.handlers import job_kind
from repro.serve.jobs import TransientJobError


@job_kind("flaky")
def flaky_job(ctx, *, token, fail_times=1, fail_rate=None, seconds=0.0):
    """Fault injection, reproducible from the job's own parameters.

    Two modes, both deterministic functions of ``(token, attempt)`` —
    no process-global state, so thread and process vehicles behave
    identically and a replayed job fails exactly the same way:

    * ``fail_times`` (default) — attempts 1..N raise transiently, then
      the job succeeds; exercises retry-with-backoff end to end.
    * ``fail_rate`` — the attempt fails iff a uniform draw derived from
      ``sha256(token:attempt)`` lands under the rate; a seeded Bernoulli
      fault process for soak scenarios.
    """
    if seconds:
        time.sleep(float(seconds))
    attempt = ctx.attempt
    if fail_rate is not None:
        digest = hashlib.sha256(f"{token}:{attempt}".encode()).digest()
        draw = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        if draw < float(fail_rate):
            raise TransientJobError(
                f"injected fault (draw {draw:.3f} < rate {fail_rate}) "
                f"for {token!r} attempt {attempt}",
                reason={"kind": "flaky", "token": token, "attempt": attempt,
                        "draw": draw, "fail_rate": float(fail_rate)},
            )
    elif attempt <= int(fail_times):
        raise TransientJobError(
            f"injected fault {attempt}/{fail_times} for {token!r}",
            reason={"kind": "flaky", "token": token, "attempt": attempt,
                    "fail_times": int(fail_times)},
        )
    return {"token": token, "attempts": attempt, "worker": ctx.worker}


def make_trial(name, skew=1.0, events=("main", "hot_loop"), threads=4):
    rng = np.random.default_rng(7)
    exc = rng.uniform(50, 100, size=(len(events), threads))
    exc[-1, 0] *= skew  # skew concentrates work on thread 0
    return (
        TrialBuilder(name, {"threads": threads})
        .with_events(list(events))
        .with_threads(threads)
        .with_metric("TIME", exc, exc * 1.3, units="usec")
        .with_calls(np.ones_like(exc), np.zeros_like(exc))
        .build()
    )


@pytest.fixture
def service():
    """Thread-mode service over an in-memory repository with two trials."""
    svc = AnalysisService(workers=4, default_timeout=10.0).start()
    svc.db.save_trial("App", "Exp", make_trial("t1"))
    svc.db.save_trial("App", "Exp", make_trial("t2", skew=6.0))
    yield svc
    svc.stop()


DIAG = {"app": "App", "exp": "Exp", "trial": "t1", "script": "load-balance"}
