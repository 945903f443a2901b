"""Named analysis jobs the worker pool can execute.

Each job kind is a function ``handler(ctx, **params) -> dict`` registered
with :func:`job_kind`.  Handlers receive a :class:`JobContext` whose
``db`` is a read-only snapshot view of the repository unless the kind
declares ``writes=True`` — so the common analysis path physically cannot
corrupt the store — and must return a JSON-able payload (it travels over
the local-socket protocol and into the result cache).

Cache metadata lives on the registration: ``cacheable`` kinds declare
``trial_refs`` — which parameters name the stored trials the job reads —
and the service folds those trials' content hashes into the cache key.

Raise :class:`~repro.serve.jobs.TransientJobError` for failures worth a
retry-with-backoff (lock contention, flaky I/O); anything else fails the
job immediately.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from ..core.result import AnalysisError
from ..perfdmf import PerfDMF
from .jobs import TransientJobError

__all__ = [
    "HANDLERS",
    "JobContext",
    "JobKind",
    "job_kind",
    "resolve_kind",
]


@dataclass
class JobContext:
    """What a handler gets to work with."""

    #: Repository view: read-only snapshot unless the kind writes.
    db: PerfDMF
    #: The worker executing this job ("worker-2", "proc-1", ...).
    worker: str = "worker"
    #: Which execution attempt this is (1-based; >1 means a retry).
    attempt: int = 1


@dataclass(frozen=True)
class JobKind:
    """Registration record for one named analysis job."""

    name: str
    fn: Callable[..., dict[str, Any]]
    #: Whether results may be served from the content-addressed cache.
    cacheable: bool = False
    #: Whether the handler mutates the repository (gets the rw handle).
    writes: bool = False
    #: Parameter-name triples (app_key, exp_key, trial_key) identifying
    #: the stored trials the job reads — their content hashes join the
    #: cache key.
    trial_refs: tuple[tuple[str, str, str], ...] = ()
    #: Optional ``params -> (cacheable, writes)`` override for kinds whose
    #: footprint depends on their parameters (e.g. a storing trace run).
    flags: Callable[[dict[str, Any]], tuple[bool, bool]] | None = None

    def effective_flags(self, params: dict[str, Any]) -> tuple[bool, bool]:
        """(cacheable, writes) for this submission."""
        if self.flags is not None:
            return self.flags(params)
        return self.cacheable, self.writes

    def run(self, ctx: JobContext, params: dict[str, Any]) -> dict[str, Any]:
        return self.fn(ctx, **params)


HANDLERS: dict[str, JobKind] = {}


def job_kind(
    name: str,
    *,
    cacheable: bool = False,
    writes: bool = False,
    trial_refs: tuple[tuple[str, str, str], ...] = (),
    flags: Callable[[dict[str, Any]], tuple[bool, bool]] | None = None,
):
    """Decorator registering a handler under ``name``."""

    def register(fn):
        HANDLERS[name] = JobKind(
            name=name, fn=fn, cacheable=cacheable, writes=writes,
            trial_refs=trial_refs, flags=flags,
        )
        return fn

    return register


def resolve_kind(name: str) -> JobKind:
    try:
        return HANDLERS[name]
    except KeyError:
        raise AnalysisError(
            f"unknown job kind {name!r}; available: {sorted(HANDLERS)}"
        ) from None


def _recommendations_payload(harness) -> list[dict[str, Any]]:
    from ..knowledge import recommendations_of

    return [rec.to_dict() for rec in recommendations_of(harness)]


@job_kind("diagnose", cacheable=True,
          trial_refs=(("app", "exp", "trial"),))
def diagnose_job(
    ctx: JobContext,
    *,
    app: str,
    exp: str,
    trial: str,
    script: str = "genidlest",
) -> dict[str, Any]:
    """Knowledge-based diagnosis of one stored trial (the CLI's
    ``diagnose`` verb as a service job)."""
    from ..knowledge import diagnose_stored, render_report

    harness = diagnose_stored(ctx.db, app, exp, trial, script=script)
    return {
        "trial": trial,
        "script": script,
        "recommendations": _recommendations_payload(harness),
        "firings": len(harness.engine.trace),
        "report": render_report(
            harness, title=f"Diagnosis of {app}/{trial}"
        ),
    }


@job_kind("compare", cacheable=True,
          trial_refs=(("app", "exp", "trial_a"), ("app", "exp", "trial_b")))
def compare_job(
    ctx: JobContext,
    *,
    app: str,
    exp: str,
    trial_a: str,
    trial_b: str,
    metric: str = "TIME",
) -> dict[str, Any]:
    """§III.B comparison: per-event inclusive ratio of two stored trials."""
    from ..core.script import trial_ratios

    rows = trial_ratios(ctx.db, app, exp, trial_a, trial_b, metric)
    return {
        "trial_a": trial_a,
        "trial_b": trial_b,
        "metric": metric,
        "ratios": [{"event": event, "ratio": value} for value, event in rows],
    }


@job_kind("regress-check", writes=True,
          trial_refs=(("app", "exp", "trial"),))
def regress_check_job(
    ctx: JobContext,
    *,
    app: str,
    exp: str,
    trial: str | None = None,
    metric: str | None = None,
    threshold: float | None = None,
    alpha: float | None = None,
    promote: bool = False,
    diagnose: bool = True,
) -> dict[str, Any]:
    """Gate a stored trial against its baseline (the regression sentinel).

    Not cacheable: the sentinel reads — and with ``promote`` records —
    the pair's baseline versions, state outside the trial content hashes.
    """
    from ..regress import ThresholdPolicy, check

    outcome = check(
        ctx.db, app, exp, trial,
        policy=ThresholdPolicy.from_options(metric, threshold, alpha),
        diagnose=diagnose,
        auto_promote=promote,
    )
    return outcome.to_dict()


def _trace_app_flags(params: dict[str, Any]) -> tuple[bool, bool]:
    storing = bool(params.get("store"))
    return (not storing, storing)


@job_kind("trace-app", cacheable=True, flags=_trace_app_flags)
def trace_app_job(
    ctx: JobContext,
    *,
    app: str = "msa",
    store: bool = False,
    experiment: str = "traced",
    **run_kwargs,
) -> dict[str, Any]:
    """Traced application simulation + timeline diagnosis.

    Reads no stored trials (the simulation is deterministic in its
    parameters), so the cache key is parameters + versions alone.  With
    ``store=True`` the trial and its interval sub-trials are persisted —
    which flips the kind's effective footprint, so storing runs are
    executed uncached against the rw repository.
    """
    from ..workflows import trace_application

    if store:
        result = trace_application(
            app, repository=ctx.db, experiment=experiment, **run_kwargs
        )
    else:
        result = trace_application(app, **run_kwargs)
    return {
        "app": app,
        "trial": result.trial.name,
        "events": len(result.trace),
        "cpus": len(result.trace.cpu_ids()),
        "snapshots": len(result.snapshots),
        "wait_states": len(result.wait_states),
        "stored_trial_id": result.trial_id,
        "interval_trials": len(result.interval_ids),
        "recommendations": _recommendations_payload(result.harness),
    }


# -- experiment kinds (the repro.experiments orchestrator's jobs) ----------

@job_kind("run-trial", writes=True)
def run_trial_job(
    ctx: JobContext,
    *,
    app: str,
    application: str,
    experiment: str,
    case_key: str,
    rerun: int = 0,
    factors: dict[str, Any] | None = None,
    metric: str = "TIME",
    key_event: str = "main",
    noise: float = 0.0,
    spec: str | None = None,
    code_version: str | None = None,
    rulebase_version: str | None = None,
) -> dict[str, Any]:
    """Execute one case rerun and store its trial.

    The random stream is derived from the case's content address (and
    the rerun index), so the same ``case_key`` always produces the same
    trial bit for bit — the determinism contract the resume model and
    the determinism tests rely on.  Storage uses ``replace=True``: a
    retried rerun that half-completed before a crash is simply
    overwritten with identical content.
    """
    from ..experiments.spec import case_rng, case_seed
    from ..regress.detect import perturb_trial

    factors = dict(factors or {})
    rerun = int(rerun)
    noise = float(noise)
    rng = case_rng(case_key, rerun)
    name = f"{case_key[:12]}_r{rerun}"
    if app == "synthetic":
        from ..experiments.synthetic import run_synthetic_trial

        trial = run_synthetic_trial(
            scale=float(factors.get("scale", 1.0)),
            threads=int(factors.get("threads", 4)),
            imbalance=float(factors.get("imbalance", 0.0)),
            noise=noise,
            rng=rng if noise > 0.0 else None,
            name=name,
        )
    elif app == "msa":
        from ..apps.msa import run_msa_trial

        base = run_msa_trial(
            n_sequences=int(factors.get("sequences", 100)),
            n_threads=int(factors.get("threads", 4)),
            schedule=str(factors.get("schedule", "static")),
            seed=int(factors.get("seed", 0)),
        ).trial
        trial = (
            perturb_trial(base, noise=noise, rng=rng, name=name)
            if noise > 0.0 else base.copy(name)
        )
    elif app == "genidlest":
        from ..apps.genidlest import RunConfig, case_config, run_genidlest

        config = RunConfig(
            case=case_config(str(factors.get("case", "90rib"))),
            version=str(factors.get("version", "openmp")),
            optimized=bool(factors.get("optimized", False)),
            n_procs=int(factors.get("procs", 4)),
            iterations=int(factors.get("iterations", 2)),
        )
        base = run_genidlest(config).trial
        trial = (
            perturb_trial(base, noise=noise, rng=rng, name=name)
            if noise > 0.0 else base.copy(name)
        )
    else:
        raise AnalysisError(f"run-trial: unknown app {app!r}")
    trial.metadata.update({
        "case_key": case_key,
        "rerun": rerun,
        "spec": spec or "",
        "factors": dict(factors),
    })
    from ..version import version_key

    version_key(code_version, rulebase_version).stamp(trial.metadata)
    import sqlite3

    try:
        ctx.db.save_trial(application, experiment, trial, replace=True)
    except sqlite3.OperationalError as exc:
        if "locked" in str(exc) or "busy" in str(exc):
            # Write contention with the orchestrator's bookkeeping (or a
            # sibling worker) — transient by definition, retry-worthy.
            raise TransientJobError(
                f"repository busy storing {name!r}: {exc}",
                reason={"kind": "run-trial", "case_key": case_key,
                        "rerun": rerun, "trial": name},
            ) from None
        raise
    if not trial.has_metric(metric):
        raise AnalysisError(
            f"run-trial: trial has no metric {metric!r} "
            f"(have {trial.metrics})"
        )
    value = float(
        trial.inclusive_array(metric)[trial.event_index(key_event)].mean()
    )
    return {
        "trial": name,
        "case_key": case_key,
        "rerun": rerun,
        "value": value,
        "seed": case_seed(case_key, rerun),
        "content_hash": ctx.db.content_hash(application, experiment, name),
        "worker": ctx.worker,
    }


@job_kind("analyze-case")
def analyze_case_job(
    ctx: JobContext,
    *,
    application: str,
    experiment: str,
    trials: list[str],
    metric: str = "TIME",
    key_event: str = "main",
) -> dict[str, Any]:
    """Collect one converged case: per-run key-metric values plus a
    knowledge-based diagnosis of the first run (against the snapshot
    view — this kind never writes)."""
    from ..knowledge.rulebase import diagnose_load_balance

    if not trials:
        raise AnalysisError("analyze-case: no trials to analyze")
    values = []
    first = None
    for tname in trials:
        trial = ctx.db.load_trial(application, experiment, tname)
        if first is None:
            first = trial
        values.append(float(
            trial.inclusive_array(metric)[trial.event_index(key_event)]
            .mean()
        ))
    harness = diagnose_load_balance(first)
    return {
        "trials": list(trials),
        "metric": metric,
        "key_event": key_event,
        "values": values,
        "recommendations": _recommendations_payload(harness),
        "worker": ctx.worker,
    }


# -- lineage kinds (performance history over the same repository) ----------

@job_kind("lineage-scan", writes=True)
def lineage_scan_job(
    ctx: JobContext,
    *,
    start: str | None = None,
    end: str | None = None,
    application: str | None = None,
    experiment: str | None = None,
    diagnose: bool = True,
) -> dict[str, Any]:
    """Sweep the regression detectors along stored version history.

    Conceptually read-only, but declared ``writes=True``: the lineage
    side tables are ensured on open (created or migrated on first use;
    a read once they are current) and live outside the trial content hashes the cache keys on, so results
    must not be cached either.
    """
    from ..lineage import LineageStore, scan_range
    from ..lineage.facts import diagnose_lineage

    store = LineageStore(ctx.db)
    scan = scan_range(store, start, end,
                      application=application, experiment=experiment)
    payload: dict[str, Any] = {"scan": scan.to_dict(), "worker": ctx.worker}
    if diagnose:
        harness = diagnose_lineage(scan)
        payload["recommendations"] = _recommendations_payload(harness)
    return payload


# -- synthetic kinds (load generation) -------------------------------------

@job_kind("sleep")
def sleep_job(ctx: JobContext, *, seconds: float = 0.01,
              tag: str | None = None) -> dict[str, Any]:
    """Busy the pool for a bit — load generation for queue/benchmark
    scenarios without touching the repository."""
    seconds = float(seconds)
    if seconds < 0:
        raise AnalysisError(
            f"sleep: seconds must be non-negative, got {seconds}",
            reason={"kind": "sleep", "param": "seconds", "value": seconds},
        )
    time.sleep(seconds)
    return {"slept": seconds, "tag": tag, "worker": ctx.worker}
