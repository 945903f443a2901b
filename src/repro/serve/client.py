"""Thin clients for the analysis service.

Two transports, one surface.  Every method is written once, in
:class:`_Surface`, over ``request(op, **fields)``; the transports differ
only in how a request reaches :func:`repro.serve.protocol.dispatch`:

* :class:`Client` — in-process: calls ``dispatch`` on a wrapped
  :class:`AnalysisService` directly, with no JSON encoding.  For
  embedding the service in a test harness, a notebook, or a long-lived
  tool.
* :class:`SocketClient` — over the JSON-lines protocol of
  :mod:`repro.serve.protocol`, for talking to ``repro-perf serve
  start`` in another process.

Both return the wire shapes, so code written against one works against
the other; ``submit`` returns the job record (including its ``id``), and
``run`` is submit-and-wait.  An error from the service raises what the
service raised in-process, and :class:`AnalysisError` over a socket.

Unless the caller supplies its own ``trace`` option, every submission
mints a fresh :class:`~repro.observe.context.TraceContext`, so each job
carries a distributed trace id end to end by default.
"""

from __future__ import annotations

import json
from typing import Any

from ..core.result import AnalysisError
from ..observe.context import TraceContext
from .protocol import connect_endpoint, dispatch
from .service import AnalysisService

__all__ = ["Client", "SocketClient"]


def _with_trace(options: dict[str, Any]) -> dict[str, Any]:
    """Mint a trace context unless the caller brought one.  (Tracing is
    disabled service-side, with ``AnalysisService(tracing=False)``.)"""
    if "trace" not in options:
        options = {**options, "trace": TraceContext.mint().to_wire()}
    return options


class _Surface:
    """The client methods, written once over :meth:`request`."""

    def request(self, op: str, **fields) -> dict[str, Any]:
        raise NotImplementedError

    def submit(self, kind: str, params: dict[str, Any] | None = None,
               **options) -> dict[str, Any]:
        return self.request("submit", kind=kind, params=params or {},
                            **_with_trace(options))["job"]

    def submit_many(self, jobs: list[dict[str, Any]],
                    **common_options) -> list[dict[str, Any]]:
        """Admit a batch; one entry per request, in order, in **one
        round trip** over a socket.

        Each entry is ``{"kind": ..., "params": ..., **options}``
        (entry options override ``common_options``).  A rejected entry
        becomes ``{"error": "..."}`` instead of a job record — one bad
        request does not void the rest of the batch.  Each entry gets
        its **own** minted trace context (one trace per job, not one per
        batch) unless the entry or ``common_options`` carries one."""
        if "trace" not in common_options:
            jobs = [entry if "trace" in entry
                    else {**entry, "trace": TraceContext.mint().to_wire()}
                    for entry in jobs]
        return self.request("submit_many", jobs=jobs,
                            options=common_options)["jobs"]

    def status(self, job_id: int | None = None) -> dict[str, Any]:
        if job_id is not None:
            return self.request("status", id=job_id)["job"]
        return self.request("status")

    def wait(self, job_id: int,
             timeout: float | None = None) -> dict[str, Any]:
        return self.request("wait", id=job_id, timeout=timeout)["job"]

    def run(self, kind: str, params: dict[str, Any] | None = None,
            *, wait_timeout: float | None = 60.0,
            **options) -> dict[str, Any]:
        """Submit and block for the result record."""
        job = self.submit(kind, params, **options)
        if job["status"] in ("done", "failed", "timeout", "cancelled"):
            return job  # cache hit or immediate failure
        return self.wait(job["id"], timeout=wait_timeout)

    def stats(self) -> dict[str, Any]:
        return self.request("stats")["stats"]

    def metrics(self) -> str:
        """Prometheus text exposition of the service's metrics."""
        return self.request("metrics")["text"]

    def health(self) -> dict[str, Any]:
        return self.request("health")["health"]

    def explain_job(self, job_id: int) -> dict[str, Any]:
        """Where did the job's wall time go?  (See
        :meth:`AnalysisService.explain_job`.)"""
        return self.request("explain_job", id=job_id)["explain"]

    def lineage_scan(self, start: str | None = None,
                     end: str | None = None, *,
                     application: str | None = None,
                     experiment: str | None = None,
                     diagnose: bool = True,
                     wait_timeout: float | None = 60.0) -> dict[str, Any]:
        """Run a ``lineage-scan`` job and return its payload."""
        record = self.run("lineage-scan", {
            "start": start, "end": end, "application": application,
            "experiment": experiment, "diagnose": diagnose,
        }, wait_timeout=wait_timeout)
        if record["status"] != "done":
            raise AnalysisError(
                f"lineage-scan {record['status']}: {record.get('error')}"
            )
        return record["result"]

    def diagnose(self) -> dict[str, Any]:
        """The service-rules diagnosis of the service's own health."""
        return self.request("diagnose")

    def close(self) -> None:
        """Release the transport."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Client(_Surface):
    """In-process client over a started :class:`AnalysisService` (not
    ours to stop: ``close`` releases nothing)."""

    def __init__(self, service: AnalysisService) -> None:
        self.service = service

    def request(self, op: str, **fields) -> dict[str, Any]:
        return dispatch(self.service, op, fields)

    def ping(self) -> dict[str, Any]:
        return {"pong": True, "endpoint": "in-process"}


class SocketClient(_Surface):
    """JSON-lines client for a served endpoint (``unix:...``/``tcp:...``).

    One socket, sequential request/response; open more clients for
    concurrent submission streams.
    """

    def __init__(self, endpoint: str, *,
                 timeout: float | None = 30.0) -> None:
        self.endpoint = endpoint
        self._sock = connect_endpoint(endpoint, timeout=timeout)
        self._rfile = self._sock.makefile("rb")

    def request(self, op: str, **fields) -> dict[str, Any]:
        """Send one op; raise :class:`AnalysisError` on a protocol error."""
        payload = {"op": op, **fields}
        self._sock.sendall(json.dumps(payload).encode() + b"\n")
        line = self._rfile.readline()
        if not line:
            raise AnalysisError(
                f"connection to {self.endpoint} closed mid-request"
            )
        response = json.loads(line)
        if not response.get("ok"):
            raise AnalysisError(
                response.get("error", "unknown service error")
            )
        response.pop("ok", None)
        return response

    def ping(self) -> dict[str, Any]:
        return self.request("ping")

    def shutdown(self) -> dict[str, Any]:
        return self.request("shutdown")

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()
