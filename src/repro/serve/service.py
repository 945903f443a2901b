"""The analysis service: a long-lived PerfExplorer between clients and PerfDMF.

:class:`AnalysisService` owns the moving parts::

    submit() ──► ResultCache probe ──hit──► job completes (near-free)
        │ miss
        ▼
    JobQueue (priorities, bounded depth, backpressure)
        │ take()
        ▼
    WorkerPool (N supervisors; thread or process vehicles, per-job timeout)
        │                                     │
        ▼                                     ▼
    read-only PerfDMF snapshot views     rw repository (writing kinds)
        │
        ▼
    result → ResultCache.put + job completes (done_event wakes waiters)

Transient handler failures re-queue with exponential backoff up to the
job's retry budget; timeouts are terminal (the work was killed, not
flaky).  Queue-wait, execution time per kind, and cache traffic feed
both the service's own always-on instruments (``serve stats``) and —
when enabled — :mod:`repro.observe` spans/events, so a traced service
run lands in the same dogfood pipeline as everything else.

The service degrades loudly: :meth:`service_facts` turns queue latency,
failure rate, and backpressure past thresholds into
``ServiceDegradedFact`` rows, and :meth:`diagnose_service` runs the
``service-rules`` rulebase over them — operations advice from the same
inference engine that diagnoses application trials.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, replace
from typing import Any

from .. import observe
from ..core.result import AnalysisError
from ..observe.context import TraceContext, coverage, make_span, new_span_id
from ..observe.exposition import metric_row, registry_rows, render_prometheus
from ..observe.metrics import Histogram
from ..perfdmf import PerfDMF, ProfileError
from ..rules import Fact
from .cache import ResultCache, cache_key, rulebase_fingerprint
from .handlers import JobContext, JobKind, resolve_kind
from .jobs import (
    DONE,
    FAILED,
    Job,
    JobQueue,
    JobSpec,
    QUEUED,
    RUNNING,
    TIMEOUT,
    TransientJobError,
)
from .workers import ExecutionTimeout, WorkerPool

__all__ = [
    "AnalysisService",
    "BACKPRESSURE_THRESHOLD",
    "FAILURE_RATE_THRESHOLD",
    "QUEUE_WAIT_P95_THRESHOLD",
    "ServeConfig",
]

#: p95 queue wait (seconds) above which the service reports degradation.
QUEUE_WAIT_P95_THRESHOLD = 1.0
#: Share of finished jobs that failed/timed out before degradation.
FAILURE_RATE_THRESHOLD = 0.10
#: Share of admissions rejected by backpressure before degradation.
BACKPRESSURE_THRESHOLD = 0.05
#: How few finished jobs make rate-based thresholds meaningless.
_MIN_FINISHED_FOR_RATES = 5


def _failure_record(exc: BaseException, attempts: int, *,
                    transient: bool = False) -> dict[str, Any]:
    """Structured failure payload for ``Job.failure`` — the exception's
    type/message plus any machine-readable ``reason`` the handler
    attached (see :class:`~repro.serve.jobs.TransientJobError`)."""
    record: dict[str, Any] = {
        "type": type(exc).__name__,
        "message": str(exc),
        "transient": transient or isinstance(exc, TransientJobError),
        "attempts": attempts,
    }
    reason = getattr(exc, "reason", None)
    if reason:
        record["reason"] = reason
    return record


@dataclass(frozen=True)
class ServeConfig:
    """Service construction knobs (what ``serve start`` exposes)."""

    db_path: str = ":memory:"
    workers: int = 4
    mode: str = "thread"  # or "process"
    queue_depth: int = 64
    default_timeout: float | None = 30.0
    #: Distributed-trace stitching: every job carries a trace context and
    #: accumulates wall-clock timeline spans (client → queue → worker →
    #: handler → cache).  Off switches the whole subsystem to no-ops.
    tracing: bool = True


class AnalysisService:
    """Concurrent analysis over one PerfDMF repository.

    Use as a context manager, or call :meth:`start` / :meth:`stop`.
    """

    def __init__(self, config: ServeConfig | None = None, **overrides) -> None:
        if config is None:
            config = ServeConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a ServeConfig or keyword overrides")
        self.config = config
        self._db: PerfDMF | None = None
        self._db_ro: PerfDMF | None = None
        self.queue = JobQueue(maxsize=config.queue_depth)
        self.cache = ResultCache()
        self.pool: WorkerPool | None = None
        self._jobs: dict[int, Job] = {}
        self._job_ids = itertools.count(1)
        self._lock = threading.Lock()
        self._started_at: float | None = None
        # Always-on instruments (independent of observe.enabled()).
        self._queue_wait = Histogram("serve.queue_wait")
        self._exec: dict[str, Histogram] = {}
        self._status_counts: dict[str, int] = {}
        self._cache_hits = 0
        self._submitted = 0
        #: The :class:`~repro.serve.monitor.SelfMonitor` sampling this
        #: service, if any (it attaches itself).
        self.monitor = None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "AnalysisService":
        if self.pool is not None:
            return self
        cfg = self.config
        self._db = PerfDMF(cfg.db_path)
        self._db_ro = self._db.read_view()
        self.cache.attach(self._db)
        self.pool = WorkerPool(
            self.queue,
            self._dispatch,
            workers=cfg.workers,
            mode=cfg.mode,
            local_runner=self._run_local,
            db_path=self._db.path if cfg.mode == "process" else None,
        )
        self.pool.start()
        self._started_at = time.monotonic()
        observe.event("serve.start", db=cfg.db_path, workers=cfg.workers,
                      mode=cfg.mode)
        return self

    def stop(self) -> None:
        if self.pool is not None:
            self.pool.stop()
            self.pool = None
        observe.event("serve.stop")
        for db in (self._db_ro, self._db):
            if db is not None:
                db.close()
        self._db = self._db_ro = None

    def __enter__(self) -> "AnalysisService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def db(self) -> PerfDMF:
        """The service's read-write repository handle."""
        if self._db is None:
            raise AnalysisError("service is not started")
        return self._db

    # -- submission --------------------------------------------------------
    def submit(
        self,
        kind: str,
        params: dict[str, Any] | None = None,
        *,
        priority: int = 0,
        timeout: float | None = None,
        max_retries: int | None = None,
        block: bool = False,
        queue_timeout: float | None = None,
        trace: Any = None,
    ) -> Job:
        """Admit one job; returns immediately with its :class:`Job`.

        A cacheable job whose content address hits completes on the spot
        without ever touching the queue.  A full queue raises
        :class:`~repro.serve.jobs.QueueFull` unless ``block`` is set.

        ``trace`` is the caller's trace context — a
        :class:`~repro.observe.context.TraceContext`, its wire dict, or
        a ``traceparent`` string.  With tracing on (the default) a job
        without one gets a fresh root context, so every job is always
        explainable.
        """
        if self.pool is None:
            raise AnalysisError("service is not started")
        kind_obj = resolve_kind(kind)
        params = dict(params or {})
        cfg = self.config
        spec = JobSpec(
            kind=kind,
            params=params,
            priority=priority,
            timeout=cfg.default_timeout if timeout is None else timeout,
        )
        if max_retries is not None:
            spec = replace(spec, max_retries=max_retries)
        job = Job(id=next(self._job_ids), spec=spec)
        if cfg.tracing:
            ctx = TraceContext.from_wire(trace) if trace \
                else TraceContext.mint()
            job.trace_id = ctx.trace_id
            job.trace_parent = ctx.parent_span_id
            job.root_span_id = new_span_id()
        job.transition(QUEUED, job.root_span_id)
        with self._lock:
            self._jobs[job.id] = job
            self._submitted += 1
        with observe.span("serve.submit", kind=kind, job=job.id):
            key, _, _ = self._key_and_coords(kind_obj, params)
            if key is not None:
                hit, value = self.cache.get(key)
                if job.trace_id is not None:
                    # Phase spans tile: the probe starts at submission
                    # (absorbing content addressing) so the stitched
                    # timeline has no structural gaps.
                    probe_end = time.time()
                    job.add_spans([make_span(
                        job.trace_id, "serve.cache-probe",
                        job.submitted_wall, probe_end,
                        parent_id=job.root_span_id, process="service",
                        hit=hit, phase="submit",
                    )])
                    job._phase_cursor_wall = probe_end
                if hit:
                    job.queue_wait = 0.0
                    self._queue_wait.observe(0.0)
                    self._finish(job, DONE, result=value, cache_hit=True)
                    return job
            try:
                self.queue.put(job, block=block, timeout=queue_timeout)
            except BaseException:
                with self._lock:
                    del self._jobs[job.id]
                    self._submitted -= 1
                raise
        return job

    def job(self, job_id: int) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise AnalysisError(f"no job with id {job_id}") from None

    def jobs(self) -> list[Job]:
        with self._lock:
            return list(self._jobs.values())

    def wait(self, job_id: int, timeout: float | None = None) -> Job:
        """Block until the job finishes (or ``timeout`` elapses)."""
        job = self.job(job_id)
        job.wait(timeout)
        return job

    # -- execution (worker supervisor threads) -----------------------------
    def _run_local(self, kind: str, params: dict[str, Any], attempt: int,
                   worker: str) -> dict[str, Any]:
        """Thread-mode execution: handlers run in this process against
        the shared repository (read-only view unless the kind writes)."""
        kind_obj = resolve_kind(kind)
        _, writes = kind_obj.effective_flags(params)
        db = self._db if writes else self._db_ro
        return kind_obj.run(
            JobContext(db=db, worker=worker, attempt=attempt), params
        )

    def _dispatch(self, job: Job, run) -> None:
        """One execution attempt; runs on the worker's supervisor thread."""
        now = time.monotonic()
        wall_now = time.time()
        traced = job.trace_id is not None
        if job.queue_wait is None:
            job.queue_wait = now - job.submitted_at
            self._queue_wait.observe(job.queue_wait)
            if observe.enabled():
                observe.histogram("serve.queue_wait").observe(job.queue_wait)
            if traced:
                # Start where the submit-time cache probe (if any) left
                # off so the phases tile without double counting.
                job.add_spans([make_span(
                    job.trace_id, "serve.queue-wait",
                    getattr(job, "_phase_cursor_wall", None)
                    or job.submitted_wall, wall_now,
                    parent_id=job.root_span_id, process="service",
                )])
        elif traced:
            # A retry attempt: the wait since the backoff was scheduled.
            anchor = getattr(job, "_retry_anchor_wall", None)
            if anchor is not None:
                job.add_spans([make_span(
                    job.trace_id, "serve.retry-wait", anchor, wall_now,
                    parent_id=job.root_span_id, process="service",
                    attempt=job.attempts + 1,
                )])
        if traced:
            job._phase_cursor_wall = wall_now
        job.attempts += 1
        job.status = RUNNING
        job.started_at = now
        kind_obj = resolve_kind(job.spec.kind)
        key = coords = stamps = None
        cacheable, _ = kind_obj.effective_flags(job.spec.params)
        if cacheable:
            key, coords, stamps = self._key_and_coords(
                kind_obj, job.spec.params)
            if key is not None:
                # Second probe: an identical job may have populated the
                # cache while this one sat in the queue.
                hit, value = self.cache.get(key)
                if traced:
                    probe_end = time.time()
                    job.add_spans([make_span(
                        job.trace_id, "serve.cache-probe",
                        job._phase_cursor_wall, probe_end,
                        parent_id=job.root_span_id, process="service",
                        hit=hit, phase="dispatch",
                    )])
                    job._phase_cursor_wall = probe_end
                if hit:
                    self._finish(job, DONE, result=value, cache_hit=True)
                    return
        exec_span_id = new_span_id() if traced else None
        job.transition(RUNNING, exec_span_id)
        child_trace = {
            "trace_id": job.trace_id, "parent_span_id": exec_span_id,
        } if traced else None
        span_sink: list = []
        exec_start_wall = job._phase_cursor_wall if traced else time.time()

        def record_exec(status: str) -> None:
            if not traced:
                return
            exec_end = time.time()
            job.add_spans([make_span(
                job.trace_id, "serve.exec",
                exec_start_wall, exec_end,
                parent_id=job.root_span_id, span_id=exec_span_id,
                process="service", worker=job.worker,
                attempt=job.attempts, status=status,
            )])
            job.add_spans(span_sink)
            job._phase_cursor_wall = exec_end

        with observe.span("serve.execute", kind=job.spec.kind, job=job.id,
                          attempt=job.attempts, worker=job.worker):
            started = time.monotonic()
            try:
                result = run(job.spec.timeout, trace=child_trace,
                             span_sink=span_sink)
            except ExecutionTimeout as exc:
                job.exec_seconds = time.monotonic() - started
                record_exec("timeout")
                self._finish(job, TIMEOUT, error=str(exc),
                             failure=_failure_record(exc, job.attempts))
                return
            except TransientJobError as exc:
                job.exec_seconds = time.monotonic() - started
                record_exec("transient")
                if job.attempts <= job.spec.max_retries:
                    delay = job.spec.backoff * (2 ** (job.attempts - 1))
                    job.status = QUEUED
                    job.error = f"retrying after transient failure: {exc}"
                    job._retry_anchor_wall = time.time()
                    job.transition(QUEUED, job.root_span_id)
                    observe.event("serve.retry", job=job.id,
                                  kind=job.spec.kind, attempt=job.attempts,
                                  delay=delay, error=str(exc))
                    self.queue.put_retry(job, delay=delay)
                    return
                self._finish(
                    job, FAILED,
                    error=f"transient failure persisted after "
                          f"{job.attempts} attempts: {exc}",
                    failure=_failure_record(exc, job.attempts,
                                            transient=True),
                )
                return
            except BaseException as exc:  # noqa: BLE001 - job boundary
                job.exec_seconds = time.monotonic() - started
                record_exec("error")
                self._finish(job, FAILED,
                             error=f"{type(exc).__name__}: {exc}",
                             failure=_failure_record(exc, job.attempts))
                return
        job.exec_seconds = time.monotonic() - started
        record_exec("ok")
        self._exec_hist(job.spec.kind).observe(job.exec_seconds)
        if observe.enabled():
            observe.histogram(
                f"serve.exec.{job.spec.kind}").observe(job.exec_seconds)
        if key is not None and self._unchanged(coords, stamps):
            self.cache.put(key, result, coords=coords)
            if traced:
                store_end = time.time()
                job.add_spans([make_span(
                    job.trace_id, "serve.cache-store",
                    job._phase_cursor_wall, store_end,
                    parent_id=job.root_span_id, process="service",
                )])
                job._phase_cursor_wall = store_end
        self._finish(job, DONE, result=result)

    def _exec_hist(self, kind: str) -> Histogram:
        hist = self._exec.get(kind)
        if hist is None:
            with self._lock:
                hist = self._exec.setdefault(
                    kind, Histogram(f"serve.exec.{kind}"))
        return hist

    def _finish(self, job: Job, status: str, *, result=None, error=None,
                failure: dict | None = None,
                cache_hit: bool = False) -> None:
        job.status = status
        job.result = result
        job.error = error
        job.failure = failure
        job.cache_hit = cache_hit
        job.finished_at = time.monotonic()
        job.finished_wall = time.time()
        if job.trace_id is not None:
            # Close the tail of the phase tiling: result recording and
            # span shipping between the last phase and the finish stamp.
            cursor = getattr(job, "_phase_cursor_wall", None)
            if cursor is not None and job.finished_wall > cursor:
                job.add_spans([make_span(
                    job.trace_id, "serve.finalize",
                    cursor, job.finished_wall,
                    parent_id=job.root_span_id, process="service",
                )])
            # The root span closes the stitched timeline: everything the
            # service and its workers recorded hangs under this.
            job.add_spans([make_span(
                job.trace_id, "serve.job",
                job.submitted_wall, job.finished_wall,
                parent_id=job.trace_parent, span_id=job.root_span_id,
                process="service", kind=job.spec.kind, job=job.id,
                status=status, cache_hit=cache_hit, attempts=job.attempts,
            )])
        job.transition(status, job.root_span_id)
        with self._lock:
            self._status_counts[status] = \
                self._status_counts.get(status, 0) + 1
            if cache_hit:
                self._cache_hits += 1
        observe.event("serve.job", job=job.id, kind=job.spec.kind,
                      status=status, cache_hit=cache_hit,
                      attempts=job.attempts)
        job.done_event.set()

    # -- cache addressing --------------------------------------------------
    def _key_and_coords(self, kind_obj: JobKind, params: dict[str, Any]):
        """Content address, trial coordinates and their stamps (see
        :meth:`_stamp`), or ``(None, (), [])`` when the submission is
        uncacheable (by kind, by params, or because a named trial does not
        exist — the handler will report that properly)."""
        cacheable, _ = kind_obj.effective_flags(params)
        if not cacheable or self._db is None:
            return None, (), []
        coords: list[tuple[str, str, str]] = []
        stamps: list[tuple[int, str]] = []
        for app_key, exp_key, trial_key in kind_obj.trial_refs:
            app = params.get(app_key)
            exp = params.get(exp_key)
            trial = params.get(trial_key)
            if not (app and exp and trial):
                return None, (), []
            try:
                stamps.append(self._stamp(app, exp, trial))
            except ProfileError:
                return None, (), []
            coords.append((app, exp, trial))
        return (
            cache_key(kind_obj.name, params, [h for _, h in stamps]),
            tuple(coords),
            stamps,
        )

    def _stamp(self, app: str, exp: str, trial: str) -> tuple[int, str]:
        """``(trial id, content hash)``, read from one row.  Trial ids are
        never reused and a stored trial row never changes, so an id read
        unchanged after a handler ran pins the row it loaded, and the hash
        is that row's."""
        return self._db.trial_stamp(app, exp, trial)

    def _unchanged(self, coords, stamps) -> bool:
        """Whether every trial a job read still has its dispatch-time
        stamp.  A re-upload between dispatch and the handler's load (even
        one later reverted) fails this, so its result is not cached under
        the key of content the handler never read."""
        try:
            return [self._stamp(*coord) for coord in coords] == stamps
        except ProfileError:
            return False

    # -- statistics and degradation facts ----------------------------------
    def stats(self) -> dict[str, Any]:
        """One JSON-able snapshot (what ``serve stats`` prints)."""
        with self._lock:
            status_counts = dict(self._status_counts)
            submitted = self._submitted
            cache_hits = self._cache_hits
        in_flight = sum(
            1 for j in self.jobs() if j.status in (QUEUED, RUNNING)
        )
        uptime = (time.monotonic() - self._started_at) \
            if self._started_at else 0.0
        return {
            "uptime_s": uptime,
            "db": self.config.db_path,
            "tracing": self.config.tracing,
            "workers": {
                "count": self.config.workers,
                "mode": self.config.mode,
                "alive": self.pool.alive() if self.pool else 0,
                "respawns": self.pool.respawns() if self.pool else 0,
            },
            "versions": {
                "code": __import__("repro").__version__,
                "rulebase": rulebase_fingerprint(),
            },
            "queue": self.queue.stats(),
            "jobs": {
                "submitted": submitted,
                "in_flight": in_flight,
                "by_status": status_counts,
                "cache_hits": cache_hits,
            },
            "cache": self.cache.snapshot(),
            "queue_wait": self._queue_wait.summary(),
            "exec": {
                kind: hist.summary() for kind, hist in sorted(
                    self._exec.items())
            },
            "monitor": {
                "errors": self.monitor.errors if self.monitor else 0,
            },
        }

    def service_facts(
        self,
        *,
        queue_wait_p95_threshold: float = QUEUE_WAIT_P95_THRESHOLD,
    ) -> list[Fact]:
        """The service's health as rule-engine facts.

        Always includes one ``ServiceStatsFact``; each threshold crossing
        adds a ``ServiceDegradedFact`` with a machine-readable reason
        (``queue-latency`` / ``failure-rate`` / ``backpressure``)."""
        stats = self.stats()
        finished = sum(stats["jobs"]["by_status"].values())
        failures = (stats["jobs"]["by_status"].get(FAILED, 0)
                    + stats["jobs"]["by_status"].get(TIMEOUT, 0))
        failure_rate = failures / finished if finished else 0.0
        admissions = stats["queue"]["enqueued"] + stats["queue"]["rejected"]
        reject_rate = (stats["queue"]["rejected"] / admissions
                       if admissions else 0.0)
        p95 = self._queue_wait.percentile(95)
        facts = [
            Fact(
                "ServiceStatsFact",
                submitted=stats["jobs"]["submitted"],
                finished=finished,
                failureRate=failure_rate,
                queueDepth=stats["queue"]["depth"],
                queueWaitP95=p95,
                cacheHitRate=stats["cache"]["hit_rate"],
                workers=stats["workers"]["count"],
                mode=stats["workers"]["mode"],
            )
        ]
        degraded = []
        if self._queue_wait.count and p95 > queue_wait_p95_threshold:
            degraded.append(("queue-latency", p95, queue_wait_p95_threshold))
        if finished >= _MIN_FINISHED_FOR_RATES and \
                failure_rate > FAILURE_RATE_THRESHOLD:
            degraded.append(("failure-rate", failure_rate,
                             FAILURE_RATE_THRESHOLD))
        if admissions >= _MIN_FINISHED_FOR_RATES and \
                reject_rate > BACKPRESSURE_THRESHOLD:
            degraded.append(("backpressure", reject_rate,
                             BACKPRESSURE_THRESHOLD))
        for reason, value, threshold in degraded:
            facts.append(Fact(
                "ServiceDegradedFact",
                reason=reason,
                value=value,
                threshold=threshold,
                workers=stats["workers"]["count"],
                queueDepth=stats["queue"]["depth"],
                queueBound=stats["queue"]["maxsize"],
            ))
            observe.event("serve.degraded", reason=reason, value=value,
                          threshold=threshold)
        return facts

    def diagnose_service(self):
        """Run the ``service-rules`` rulebase over the current health
        facts; returns the fired harness (recommendations & explanations)."""
        from ..core.harness import RuleHarness

        harness = RuleHarness("service-rules")
        harness.assertObjects(self.service_facts())
        harness.processRules()
        return harness

    # -- explanation, health, exposition -----------------------------------
    def explain_job(self, job_id: int) -> dict[str, Any]:
        """Attribute one job's wall time to queue/retry/exec/cache phases
        from its stitched timeline spans.

        ``attribution`` sums the root span's direct children by phase
        (they are sequential by construction, so the sum never double
        counts); ``coverage`` is the fraction of the job's wall the
        phases explain — the ≥95 % stitching gate.
        """
        job = self.job(job_id)
        spans = list(job.spans)
        end_wall = job.finished_wall if job.finished_wall is not None \
            else time.time()
        wall = max(end_wall - job.submitted_wall, 0.0)
        base = {
            "id": job.id,
            "kind": job.spec.kind,
            "status": job.status,
            "attempts": job.attempts,
            "cache_hit": job.cache_hit,
            "worker": job.worker,
            "wall_seconds": wall,
            "transitions": list(job.transitions),
        }
        if job.trace_id is None:
            return {**base, "traced": False, "spans": [],
                    "attribution": {}, "coverage": 0.0}
        phases = {
            "queue": ("serve.queue-wait",),
            "retry": ("serve.retry-wait",),
            "exec": ("serve.exec",),
            "cache": ("serve.cache-probe", "serve.cache-store"),
        }
        root_children = [s for s in spans
                         if s.get("parent_id") == job.root_span_id]
        attribution = {
            phase: sum(s["end"] - s["start"] for s in root_children
                       if s["name"] in names)
            for phase, names in phases.items()
        }
        attribution["other"] = max(
            wall - sum(attribution.values()), 0.0)
        handler_seconds = sum(s["end"] - s["start"] for s in spans
                              if s["name"] == "serve.handler")
        return {
            **base,
            "traced": True,
            "trace_id": job.trace_id,
            "root_span_id": job.root_span_id,
            "handler_seconds": handler_seconds,
            "attribution": attribution,
            "coverage": coverage(root_children, job.submitted_wall,
                                 end_wall) if root_children else 0.0,
            "spans": spans,
            "spans_dropped": job.spans_dropped,
        }

    def health(self) -> dict[str, Any]:
        """Cheap liveness + degradation summary (the ``health`` verb)."""
        reasons = [fact["reason"] for fact in self.service_facts()
                   if fact.fact_type == "ServiceDegradedFact"]
        return {
            "status": "degraded" if reasons else "ok",
            "uptime_s": (time.monotonic() - self._started_at)
            if self._started_at else 0.0,
            "workers": self.config.workers,
            "workers_alive": self.pool.alive() if self.pool else 0,
            "queue_depth": self.queue.depth(),
            "reasons": reasons,
        }

    def metrics_rows(self) -> list[dict[str, Any]]:
        """The service's always-on instruments as exposition rows, plus
        the global :mod:`repro.observe` registry when collection is on."""
        stats = self.stats()
        rows = [
            metric_row("gauge", "repro_serve_uptime_seconds",
                       stats["uptime_s"],
                       help_="Seconds since the service started."),
            metric_row("gauge", "repro_serve_queue_depth",
                       stats["queue"]["depth"],
                       help_="Jobs currently queued (ready + delayed)."),
            metric_row("gauge", "repro_serve_queue_bound",
                       stats["queue"]["maxsize"]),
            metric_row("counter", "repro_serve_queue_enqueued_total",
                       stats["queue"]["enqueued"]),
            metric_row("counter", "repro_serve_queue_rejected_total",
                       stats["queue"]["rejected"],
                       help_="Admissions refused by backpressure."),
            metric_row("counter", "repro_serve_queue_retried_total",
                       stats["queue"]["retried"]),
            metric_row("gauge", "repro_serve_workers_alive",
                       stats["workers"]["alive"]),
            metric_row("gauge", "repro_serve_workers_configured",
                       stats["workers"]["count"]),
            metric_row("counter", "repro_serve_worker_respawns_total",
                       stats["workers"]["respawns"],
                       help_="Killed children and rebuilt executors."),
            metric_row("counter", "repro_serve_jobs_submitted_total",
                       stats["jobs"]["submitted"]),
            metric_row("gauge", "repro_serve_jobs_in_flight",
                       stats["jobs"]["in_flight"]),
            metric_row("counter", "repro_serve_cache_hits_total",
                       stats["cache"]["hits"]),
            metric_row("counter", "repro_serve_cache_misses_total",
                       stats["cache"]["misses"]),
            metric_row("counter", "repro_serve_cache_evictions_total",
                       stats["cache"]["evictions"]),
            metric_row("gauge", "repro_serve_cache_entries",
                       stats["cache"]["entries"]),
            metric_row("gauge", "repro_serve_cache_hit_rate",
                       stats["cache"]["hit_rate"]),
            metric_row("counter", "repro_serve_monitor_errors_total",
                       stats["monitor"]["errors"],
                       help_="Self-monitor samples that failed."),
        ]
        for status, n in sorted(stats["jobs"]["by_status"].items()):
            rows.append(metric_row(
                "counter", "repro_serve_jobs_finished_total", n,
                labels={"status": status},
            ))
        rows.append(metric_row(
            "summary", "repro_serve_queue_wait_seconds",
            summary=stats["queue_wait"],
            help_="Seconds jobs wait before their first execution.",
        ))
        for kind, summary in stats["exec"].items():
            rows.append(metric_row(
                "summary", "repro_serve_exec_seconds",
                summary=summary, labels={"kind": kind},
            ))
        if observe.enabled():
            rows.extend(registry_rows(observe.get_tracer().metrics,
                                      prefix="repro_observe_"))
        return rows

    def metrics_text(self) -> str:
        """Prometheus text exposition (the ``metrics`` verb's payload);
        relay with content type :data:`repro.observe.exposition.CONTENT_TYPE`.
        """
        return render_prometheus(self.metrics_rows())
