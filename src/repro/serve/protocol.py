"""JSON-lines socket protocol: the service behind a local endpoint.

One request per line, one response per line — trivially scriptable
(``nc``/``socat`` work) and language-neutral.  Requests are objects with
an ``op`` and op-specific fields; responses are ``{"ok": true, ...}`` or
``{"ok": false, "error": "..."}``.  The connection is sequential
(request/response in order); concurrency comes from opening more
connections — each gets its own handler thread — and from the service's
own queue and pool behind them.

Ops::

    {"op": "ping"}
    {"op": "submit", "kind": "diagnose", "params": {...},
     "priority": 0, "timeout": 30.0, "block": false}      → {"job": {...}}
    {"op": "submit_many", "jobs": [{"kind": ..., "params": ...}, ...],
     "options": {...}}                                    → {"jobs": [...]}
    {"op": "status", "id": 7}                             → {"job": {...}}
    {"op": "status"}                                      → {"jobs": [...]}
    {"op": "wait", "id": 7, "timeout": 60.0}              → {"job": {...}}
    {"op": "stats"}                                       → {"stats": {...}}
    {"op": "metrics"}              → {"text": "...", "content_type": ...}
    {"op": "health"}                                    → {"health": {...}}
    {"op": "explain_job", "id": 7}                     → {"explain": {...}}
    {"op": "diagnose"}                  → {"recommendations": [...], ...}
    {"op": "shutdown"}

``submit`` / ``submit_many`` accept an optional ``trace`` field — a
``{"trace_id", "parent_span_id"}`` object or a W3C ``traceparent``
string — propagating the caller's distributed-trace context onto the
job (see :mod:`repro.observe.context`).

Endpoints are strings: ``unix:/path/to.sock`` (AF_UNIX) or
``tcp:HOST:PORT`` (loopback TCP, for platforms without unix sockets).
"""

from __future__ import annotations

import json
import os
import socket
import threading
from typing import Any

from .. import observe
from ..core.result import AnalysisError
from ..observe.exposition import CONTENT_TYPE
from .jobs import QueueClosed, QueueFull, TERMINAL_STATES
from .service import AnalysisService

__all__ = ["OPS", "ServeServer", "connect_endpoint", "dispatch",
           "parse_endpoint"]

#: Protocol hard limit: one request line (submit params included).
MAX_LINE = 4 * 1024 * 1024


def parse_endpoint(endpoint: str) -> tuple[str, Any]:
    """``unix:/path`` / ``tcp:host:port`` → (family-tag, address)."""
    if endpoint.startswith("unix:"):
        path = endpoint[len("unix:"):]
        if not path:
            raise AnalysisError(f"empty unix endpoint in {endpoint!r}")
        return "unix", path
    if endpoint.startswith("tcp:"):
        host, _, port = endpoint[len("tcp:"):].rpartition(":")
        if not host or not port.isdigit():
            raise AnalysisError(
                f"tcp endpoint must be tcp:HOST:PORT, got {endpoint!r}"
            )
        return "tcp", (host, int(port))
    raise AnalysisError(
        f"endpoint must start with unix: or tcp:, got {endpoint!r}"
    )


def connect_endpoint(endpoint: str, timeout: float | None = 10.0):
    """Open a client socket to a served endpoint."""
    family, addr = parse_endpoint(endpoint)
    if family == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.settimeout(timeout)
        sock.connect(addr)
    except OSError:
        sock.close()
        raise
    return sock


class ServeServer:
    """Accept loop + per-connection handler threads over one service."""

    def __init__(self, service: AnalysisService, endpoint: str) -> None:
        self.service = service
        self.endpoint = endpoint
        self._family, self._addr = parse_endpoint(endpoint)
        self._sock: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._shutdown = threading.Event()

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "ServeServer":
        if self._sock is not None:
            return self
        if self._family == "unix":
            if os.path.exists(self._addr):
                os.unlink(self._addr)
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.bind(self._addr)
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(self._addr)
            # Port 0 means "pick one"; expose what the OS chose.
            host, port = sock.getsockname()[:2]
            self._addr = (host, port)
            self.endpoint = f"tcp:{host}:{port}"
        sock.listen(16)
        sock.settimeout(0.2)  # so the accept loop notices shutdown
        self._sock = sock
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True
        )
        self._accept_thread.start()
        observe.event("serve.listen", endpoint=self.endpoint)
        return self

    def stop(self) -> None:
        self._shutdown.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
            self._accept_thread = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        if self._family == "unix" and os.path.exists(self._addr):
            os.unlink(self._addr)

    def serve_forever(self) -> None:
        """Block until a client sends ``shutdown`` (or interrupt)."""
        if self._sock is None:
            self.start()
        try:
            self._shutdown.wait()
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
        finally:
            self.stop()

    @property
    def running(self) -> bool:
        return self._sock is not None and not self._shutdown.is_set()

    # -- connection handling ----------------------------------------------
    def _accept_loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:  # socket closed under us during stop()
                return
            threading.Thread(
                target=self._client_loop, args=(conn,),
                name="serve-conn", daemon=True,
            ).start()

    def _client_loop(self, conn: socket.socket) -> None:
        conn.settimeout(None)
        buf = b""
        with conn:
            while not self._shutdown.is_set():
                try:
                    chunk = conn.recv(65536)
                except OSError:
                    return
                if not chunk:
                    return
                buf += chunk
                if len(buf) > MAX_LINE:
                    self._send(conn, {
                        "ok": False,
                        "error": f"request exceeds {MAX_LINE} bytes",
                    })
                    return
                while b"\n" in buf:
                    line, buf = buf.split(b"\n", 1)
                    if not line.strip():
                        continue
                    response = self._handle_line(line)
                    if not self._send(conn, response):
                        return

    @staticmethod
    def _send(conn: socket.socket, payload: dict) -> bool:
        try:
            conn.sendall(json.dumps(payload, default=str).encode() + b"\n")
            return True
        except OSError:
            return False

    # -- request dispatch --------------------------------------------------
    def _handle_line(self, line: bytes) -> dict:
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as exc:
            return {"ok": False, "error": f"bad request: {exc}",
                    "kind": "ValueError"}
        op = request.get("op")
        try:
            if op == "ping":
                return {"ok": True, "pong": True, "endpoint": self.endpoint}
            if op == "shutdown":
                # Flip the flag; serve_forever's finally does the teardown.
                self._shutdown.set()
                return {"ok": True, "stopping": True}
            return {"ok": True, **dispatch(self.service, op, request)}
        except (AnalysisError, QueueFull, QueueClosed, ValueError) as exc:
            return {"ok": False, "error": str(exc),
                    "kind": type(exc).__name__}
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}",
                    "kind": "internal"}


# -- the service's ops ------------------------------------------------------

def _field(request: dict, name: str, kind: type, *,
           required: bool = False) -> Any:
    """``request[name]`` as a ``kind``, ``None`` when absent.  Numbers are
    coerced (``"3"`` is priority 3).  A missing required field, or a value
    that is no ``kind``, is a ``ValueError`` naming the field."""
    value = request.get(name)
    if value is None:
        if required:
            raise ValueError(f"bad request: missing field {name!r}")
        return None
    if kind in (int, float):
        try:
            return kind(value)
        except (TypeError, ValueError):
            pass
    elif isinstance(value, kind):
        return value
    raise ValueError(f"bad request: field {name!r} must be {kind.__name__}, "
                     f"not {type(value).__name__}")


def _submit_options(opts: dict) -> dict:
    """``AnalysisService.submit`` keywords from a ``submit`` request or
    a ``submit_many`` entry; a misspelt option is an error, not a
    default."""
    unknown = set(opts) - {"op", "kind", "params", "priority", "timeout",
                           "max_retries", "block", "queue_timeout", "trace"}
    if unknown:
        raise ValueError(f"unknown submit option(s) {sorted(unknown)}")
    return {"priority": _field(opts, "priority", int) or 0,
            "timeout": _field(opts, "timeout", float),
            "max_retries": _field(opts, "max_retries", int),
            "block": bool(opts.get("block", False)),
            "queue_timeout": _field(opts, "queue_timeout", float),
            "trace": opts.get("trace")}


def _op_submit(service: AnalysisService, request: dict) -> dict:
    job = service.submit(_field(request, "kind", str, required=True),
                         _field(request, "params", dict) or {},
                         **_submit_options(request))
    return {"job": job.to_dict()}


def _op_submit_many(service: AnalysisService, request: dict) -> dict:
    """Batched admission: N submissions, one round trip.  Per-entry
    failures come back as ``{"error": ...}`` rows; the batch itself
    only fails on a malformed request."""
    jobs = _field(request, "jobs", list, required=True)
    common = _field(request, "options", dict) or {}
    out = []
    for entry in jobs:
        if not isinstance(entry, dict) or "kind" not in entry:
            out.append({"error": "entry must be an object with 'kind'"})
            continue
        opts = {**common, **{k: v for k, v in entry.items()
                             if k not in ("kind", "params")}}
        try:
            job = service.submit(_field(entry, "kind", str),
                                 _field(entry, "params", dict) or {},
                                 **_submit_options(opts))
            out.append(job.to_dict())
        except Exception as exc:  # noqa: BLE001 - per-entry boundary
            out.append({"error": f"{type(exc).__name__}: {exc}"})
    return {"jobs": out}


def _op_status(service: AnalysisService, request: dict) -> dict:
    job_id = _field(request, "id", int)
    if job_id is not None:
        return {"job": service.job(job_id).to_dict()}
    jobs = service.jobs()
    return {
        "jobs": [j.to_dict() for j in jobs],
        "pending": sum(j.status not in TERMINAL_STATES for j in jobs),
    }


def _op_wait(service: AnalysisService, request: dict) -> dict:
    job = service.wait(_field(request, "id", int, required=True),
                       timeout=_field(request, "timeout", float))
    return {"job": job.to_dict(), "done": job.done}


def _op_diagnose(service: AnalysisService, request: dict) -> dict:
    from ..knowledge import recommendations_of, render_report

    harness = service.diagnose_service()
    return {
        "recommendations": [rec.to_dict()
                            for rec in recommendations_of(harness)],
        "report": render_report(harness, title="Service diagnosis"),
    }


#: The service's ops by name.  ``ping`` and ``shutdown`` are the socket
#: server's own and are answered by :class:`ServeServer`.
OPS = {
    "submit": _op_submit,
    "submit_many": _op_submit_many,
    "status": _op_status,
    "wait": _op_wait,
    "stats": lambda service, request: {"stats": service.stats()},
    "metrics": lambda service, request: {"text": service.metrics_text(),
                                         "content_type": CONTENT_TYPE},
    "health": lambda service, request: {"health": service.health()},
    "explain_job": lambda service, request: {"explain": service.explain_job(
        _field(request, "id", int, required=True))},
    "diagnose": _op_diagnose,
}


def dispatch(service: AnalysisService, op: Any, request: dict) -> dict:
    """Answer one op against ``service``: the reply's fields, without
    ``ok``.  The socket server and the in-process client both call it."""
    handler = OPS.get(op) if isinstance(op, str) else None
    if handler is None:
        raise AnalysisError(f"unknown op {op!r}")
    return handler(service, request)
