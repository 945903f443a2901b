"""The worker pool: N workers draining the job queue concurrently.

Each worker is a supervisor thread that owns one *execution vehicle* —
the thing that actually runs a handler under a wall-clock budget:

* ``mode="thread"`` — a private single-slot thread executor.  Cheap,
  shares the service's in-process repository (per-thread connections),
  and works for ``:memory:`` databases.  A timed-out handler is
  abandoned (its thread parks until it returns) and the slot is rebuilt,
  so the worker itself never wedges.
* ``mode="process"`` — a dedicated child process driven over a pipe.
  True isolation: a timed-out or crashed handler is killed and the
  child respawned.  Requires a file-backed repository (children open
  their own connections — read-only snapshots unless the kind writes).

The supervisor thread is where the service's dispatch callback runs
(cache probe, retry accounting, telemetry); vehicles only execute
handlers.  That split keeps all queue/cache state in one process no
matter which vehicle is in play.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import threading
import time
from typing import Any, Callable

from ..observe.context import TraceContext, make_span
from .jobs import JobQueue, TransientJobError

__all__ = ["ExecutionTimeout", "WorkerPool"]

#: How many handler-side spans one job may ship back over the pipe.
MAX_CHILD_SPANS = 512


class ExecutionTimeout(Exception):
    """A handler exceeded its wall-clock budget."""


class _ThreadVehicle:
    """Runs handlers on a private single-slot executor with a deadline."""

    def __init__(self, local_runner: Callable[..., dict[str, Any]],
                 name: str) -> None:
        self._runner = local_runner
        self._name = name
        #: Executor rebuilds after timeouts (the worker-churn signal).
        self.respawns = 0
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"{name}-exec"
        )

    def run(self, kind: str, params: dict[str, Any], attempt: int,
            timeout: float | None, *, trace: dict | None = None,
            span_sink: list | None = None) -> dict[str, Any]:
        future = self._pool.submit(self._invoke, kind, params, attempt,
                                   trace, span_sink)
        try:
            return future.result(timeout)
        except concurrent.futures.TimeoutError:
            # The runaway thread is abandoned (daemonic; parks until its
            # handler returns) and the slot rebuilt so this worker stays
            # responsive.
            self.respawns += 1
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=f"{self._name}-exec"
            )
            raise ExecutionTimeout(
                f"execution exceeded {timeout:.3f}s (thread mode)"
            ) from None

    def _invoke(self, kind: str, params: dict[str, Any], attempt: int,
                trace: dict | None, sink: list | None) -> dict[str, Any]:
        if trace is None:
            return self._runner(kind, params, attempt, self._name)
        start = time.time()
        status = "ok"
        try:
            return self._runner(kind, params, attempt, self._name)
        except BaseException:
            status = "error"
            raise
        finally:
            if sink is not None:
                sink.append(make_span(
                    trace["trace_id"], "serve.handler",
                    start, time.time(),
                    parent_id=trace.get("parent_span_id"),
                    process=self._name,
                    kind=kind, attempt=attempt, status=status,
                ))

    def close(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)


def _tracer_timeline(spans: list[dict]) -> list[dict]:
    """Cap a child tracer's spans at :data:`MAX_CHILD_SPANS` for the pipe.

    The longest spans win; a kept span whose parent was dropped
    re-parents to its nearest kept ancestor (or the exec span the tracer
    was rooted under), so the shipped set never contains an orphan.  The
    longest kept span records how many were dropped."""
    if len(spans) <= MAX_CHILD_SPANS:
        return spans
    keep = sorted(spans, key=lambda s: s["start"] - s["end"])[:MAX_CHILD_SPANS]
    by_id = {s["span_id"]: s for s in spans}
    kept_ids = {s["span_id"] for s in keep}
    for s in keep:
        parent = s["parent_id"]
        while parent in by_id and parent not in kept_ids:
            parent = by_id[parent]["parent_id"]
        s["parent_id"] = parent
    keep[0]["attrs"]["dropped_spans"] = len(spans) - len(keep)
    return keep


def _process_worker_main(conn, db_path: str, name: str) -> None:
    """Child-process loop: open own connections, run handlers, reply.

    A message carrying a trace context (4th element) makes the child run
    a real, fresh :class:`~repro.observe.tracer.Tracer` rooted in that
    context around the handler — its timeline spans ship back as the
    reply's 4th element, already parented under the service's exec span.  The pre-trace 3-tuple
    wire shapes stay accepted in both directions.
    """
    from .. import observe
    from ..perfdmf import PerfDMF
    from .handlers import JobContext, resolve_kind

    db_rw = None
    db_ro = None
    try:
        while True:
            msg = conn.recv()
            if msg is None:
                break
            kind_name, params, attempt = msg[0], msg[1], msg[2]
            trace = msg[3] if len(msg) > 3 else None
            tracer = None
            if trace:
                tracer = observe.enable(fresh=True)
                tracer.context = TraceContext.from_wire(trace)
                tracer.process = name
            status, payload, reason = "ok", None, None
            try:
                kind = resolve_kind(kind_name)
                _, writes = kind.effective_flags(params)
                if writes:
                    if db_rw is None:
                        db_rw = PerfDMF(db_path)
                    db = db_rw
                else:
                    if db_ro is None:
                        db_ro = PerfDMF(db_path, read_only=True)
                    db = db_ro
                ctx = JobContext(db=db, worker=name, attempt=attempt)
                if tracer is not None:
                    with tracer.span("serve.handler", kind=kind_name,
                                     attempt=attempt):
                        payload = kind.run(ctx, params)
                else:
                    payload = kind.run(ctx, params)
            except TransientJobError as exc:
                status, payload = "transient", str(exc)
                reason = getattr(exc, "reason", None)
            except BaseException as exc:  # noqa: BLE001 - reported upstream
                status, payload = "error", f"{type(exc).__name__}: {exc}"
                reason = getattr(exc, "reason", None)
            if tracer is not None:
                spans = _tracer_timeline(tracer.finished())
                observe.disable()
                conn.send((status, payload, reason, spans))
            else:
                conn.send((status, payload, reason))
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - teardown
        pass
    finally:
        for db in (db_rw, db_ro):
            if db is not None:
                db.close()


def _preload_handler_modules() -> None:
    """Import everything handlers lazily need before the first job.

    In thread mode that keeps the imports out of the first job's wall
    time.  In process mode, respawns fork children from supervisor
    threads, and a fork taken while another thread is mid-import leaves
    the module's import lock held by a thread that does not exist in the
    child — the child then deadlocks on its first lazy ``from ..knowledge
    import``.  Fully-initialized modules short-circuit in ``sys.modules``
    without touching the lock, so eager pre-fork imports make child-side
    lazy imports safe.
    """
    import importlib

    for mod in ("repro.knowledge", "repro.workflows", "repro.regress",
                "repro.core.script"):
        importlib.import_module(mod)


class _ProcessVehicle:
    """Drives one dedicated child process over a pipe; kills on timeout."""

    def __init__(self, db_path: str, name: str) -> None:
        if "mode=memory" in db_path:
            raise ValueError(
                "process workers need a file-backed repository "
                "(in-memory databases are per-process)"
            )
        self._db_path = db_path
        self._name = name
        # fork is the fast path on Linux; spawn keeps macOS/Windows working.
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._proc = None
        self._conn = None
        #: Child processes re-forked after a kill or crash.
        self.respawns = 0
        self._spawn()

    def _spawn(self) -> None:
        if self._proc is not None:
            self.respawns += 1
        self._conn, child_conn = self._ctx.Pipe()
        self._proc = self._ctx.Process(
            target=_process_worker_main,
            args=(child_conn, self._db_path, self._name),
            daemon=True,
            name=self._name,
        )
        self._proc.start()
        child_conn.close()

    def run(self, kind: str, params: dict[str, Any], attempt: int,
            timeout: float | None, *, trace: dict | None = None,
            span_sink: list | None = None) -> dict[str, Any]:
        if self._proc is None or not self._proc.is_alive():
            self._spawn()
        self._conn.send((kind, params, attempt, trace))
        if not self._conn.poll(timeout):
            self._kill()
            self._spawn()
            raise ExecutionTimeout(
                f"execution exceeded {timeout:.3f}s (worker process killed)"
            )
        try:
            msg = self._conn.recv()
        except EOFError:
            self._spawn()
            raise TransientJobError(
                f"worker process {self._name} died mid-job"
            ) from None
        # (status, payload) pre-reason wire shape still accepted.
        status, payload = msg[0], msg[1]
        reason = msg[2] if len(msg) > 2 else None
        if len(msg) > 3 and msg[3] and span_sink is not None:
            span_sink.extend(msg[3])
        if status == "ok":
            return payload
        if status == "transient":
            raise TransientJobError(payload, reason=reason)
        err = RuntimeError(payload)
        err.reason = reason
        raise err

    def _kill(self) -> None:
        if self._proc is not None and self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=1.0)
        if self._conn is not None:
            self._conn.close()

    def close(self) -> None:
        try:
            if self._proc is not None and self._proc.is_alive():
                self._conn.send(None)
                self._proc.join(timeout=1.0)
        except (BrokenPipeError, OSError):  # pragma: no cover - teardown
            pass
        self._kill()


class WorkerPool:
    """N supervisor threads, each draining the queue through a vehicle.

    Parameters
    ----------
    queue:
        The :class:`~repro.serve.jobs.JobQueue` to drain.
    dispatch:
        ``dispatch(job, run)`` — the service callback executed on the
        supervisor thread.  ``run(timeout)`` executes the job's handler
        in the vehicle and returns its payload (raising
        :class:`ExecutionTimeout` / :class:`TransientJobError` / the
        handler's own error).
    local_runner:
        ``(kind, params, attempt, worker) -> payload``; required for
        thread mode, where handlers run in this process.
    db_path:
        Repository file; required for process mode.
    """

    def __init__(
        self,
        queue: JobQueue,
        dispatch: Callable,
        *,
        workers: int = 4,
        mode: str = "thread",
        local_runner: Callable[..., dict[str, Any]] | None = None,
        db_path: str | None = None,
    ) -> None:
        if mode not in ("thread", "process"):
            raise ValueError(f"unknown worker mode {mode!r}")
        if mode == "thread" and local_runner is None:
            raise ValueError("thread mode needs a local_runner")
        if mode == "process" and not db_path:
            raise ValueError("process mode needs a db_path")
        self.queue = queue
        self.mode = mode
        self.workers = workers
        self._dispatch = dispatch
        self._local_runner = local_runner
        self._db_path = db_path
        self._threads: list[threading.Thread] = []
        self._vehicles: list = []
        self._started = False

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        _preload_handler_modules()
        # Process mode forks its initial children here, sequentially, on the
        # caller's thread — before any supervisor (or service) thread can be
        # mid-import or mid-lock.
        for i in range(self.workers):
            name = f"worker-{i}"
            vehicle = self._make_vehicle(name)
            self._vehicles.append(vehicle)
            t = threading.Thread(
                target=self._worker_loop, args=(name, vehicle),
                name=name, daemon=True,
            )
            t.start()
            self._threads.append(t)

    def _make_vehicle(self, name: str):
        if self.mode == "process":
            return _ProcessVehicle(self._db_path, name)
        return _ThreadVehicle(self._local_runner, name)

    def _worker_loop(self, name: str, vehicle) -> None:
        try:
            while True:
                job = self.queue.take()
                if job is None:
                    return

                def run(timeout, trace=None, span_sink=None, _job=job):
                    return vehicle.run(
                        _job.spec.kind, _job.spec.params,
                        _job.attempts, timeout,
                        trace=trace, span_sink=span_sink,
                    )

                job.worker = name
                self._dispatch(job, run)
        finally:
            vehicle.close()

    def stop(self, *, timeout: float = 5.0) -> None:
        """Close the queue and join every worker (drains ready jobs)."""
        self.queue.close()
        for t in self._threads:
            t.join(timeout=timeout)
        self._threads = [t for t in self._threads if t.is_alive()]
        self._started = False

    def alive(self) -> int:
        return sum(t.is_alive() for t in self._threads)

    def respawns(self) -> int:
        """Vehicle respawns across the pool (killed children, rebuilt
        executors) — the worker-churn trend input."""
        return sum(getattr(v, "respawns", 0) for v in self._vehicles)
