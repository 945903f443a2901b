"""SQLite-backed PerfDMF repository.

PerfDMF stores parallel profiles in a relational database so analyses can
span many experiments.  This module reproduces that design on
:mod:`sqlite3` (stdlib): application/experiment/trial/metric/event
tables, with each trial's measurements, thread ids and callgraph stored as
typed arrays.

The repository is the system's durable store: the runtime simulator saves
trials here and PerfExplorer scripts load them back by
(application, experiment, trial) coordinates, exactly like the paper's
``Utilities.getTrial("Fluid Dynamic", "rib 45", "1_8")``.

Schema version 3 (``PRAGMA user_version``): ``event`` rows, whose
``ORDER BY id`` is the event axis; ``metric`` rows (name, units, derived)
in metric order; and on the ``trial`` row the metadata JSON, two blobs and
``content_hash``.  ``axes`` is two little-endian int64 counts (threads
T; callgraph edges P, -1 for none), the ``(T, 3)`` int64 thread ids, the
``(P, 2)`` int32 (parent, child) codes, then a JSON list of the names
outside the events: a :class:`CallGraph` over the event names and those
names.  A coded callgraph leaves a null at its metadata key, so the key
keeps its place; one that is not a list of string pairs stays in the JSON.
``data`` codes the ``(2M + 2, E, T)`` stack of each metric's exclusive,
then each metric's inclusive, then calls, then subroutines.  Each (matrix,
event) row has a ``uint8`` kind: 0 stores all T values; 1, every thread
bit-for-bit equal, stores one; 2, an inclusive row bit-for-bit equal to its
exclusive row (a leaf event), stores none and wins over 1.  The blob is the
kinds, then the kind-1 values, then the kind-0 rows, little-endian float64;
rows compare as ``uint64``, so -0.0 and denormals stay exact.
``content_hash`` is a sha256 taken once at save over the metadata JSON,
the event and metric rows, the length of ``axes`` and both blobs; the
``AUTOINCREMENT`` trial id is never reused.  A read-write open migrates a
version-0 file (a ``value`` row per metric × event × thread, a
``callcount`` row per event × thread), a version-1 file (a float64 blob
per matrix) or a version-2 file (the value blob, ``thread`` rows, the
callgraph in the metadata JSON) in one transaction, recomputing the
hashes; a read-only open of one, or any open of a newer version, raises
:class:`ProfileError`.

Concurrency model (what :mod:`repro.serve` builds on):

* **Connections are per-thread.**  A :class:`PerfDMF` instance may be
  shared freely across threads; each thread lazily opens its own
  ``sqlite3`` connection (``connection`` property), so no connection is
  ever used from two threads at once and ``sqlite3.ProgrammingError``
  cannot arise from sharing.
* **Writers serialize through WAL + busy_timeout.**  File-backed
  repositories run in WAL mode so readers proceed while a writer commits;
  ``busy_timeout`` makes contending writers queue instead of failing.
  Trial saves and deletes (and the side tables' writes) go through
  :func:`transaction`, which also retries a whole transaction that met a
  lock ``busy_timeout`` does not cover: the table locks
  (``SQLITE_LOCKED``) of shared-cache in-memory repositories.
* **Read-only snapshot views.**  :meth:`read_view` returns a repository
  over the same database whose connections are opened read-only
  (``query_only``), which is what analysis workers get so a buggy job
  cannot mutate the store.
* **Change notification.**  :meth:`add_change_listener` observes trial
  saves/deletes — the serve layer's result cache invalidates on these.

In-memory repositories use a process-shared cache (``cache=shared`` URI)
with a unique name per instance, so per-thread connections still see one
database; real concurrent workloads should use a file-backed path.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, TypeVar

import numpy as np

from .. import observe
from .model import CallGraph, Event, Metric, ProfileError, Trial


def _stmt(kind: str, rows: int) -> None:
    """Count executed statements by class (insert/select/delete) and the
    rows they touched — the repository's query-mix telemetry."""
    if observe.enabled():
        observe.counter(f"perfdmf.stmt.{kind}").inc()
        observe.counter(f"perfdmf.rows.{kind}").inc(rows)

_SCHEMA_VERSION = 3

_SCHEMA = """
CREATE TABLE IF NOT EXISTS application (
    id      INTEGER PRIMARY KEY,
    name    TEXT NOT NULL UNIQUE,
    metadata TEXT NOT NULL DEFAULT '{}'
);
CREATE TABLE IF NOT EXISTS experiment (
    id      INTEGER PRIMARY KEY,
    app_id  INTEGER NOT NULL REFERENCES application(id) ON DELETE CASCADE,
    name    TEXT NOT NULL,
    metadata TEXT NOT NULL DEFAULT '{}',
    UNIQUE (app_id, name)
);
CREATE TABLE IF NOT EXISTS trial (
    id      INTEGER PRIMARY KEY AUTOINCREMENT,
    exp_id  INTEGER NOT NULL REFERENCES experiment(id) ON DELETE CASCADE,
    name    TEXT NOT NULL,
    metadata TEXT NOT NULL DEFAULT '{}',
    axes    BLOB NOT NULL,
    data    BLOB NOT NULL,
    content_hash TEXT NOT NULL,
    UNIQUE (exp_id, name)
);
CREATE TABLE IF NOT EXISTS metric (
    id       INTEGER PRIMARY KEY,
    trial_id INTEGER NOT NULL REFERENCES trial(id) ON DELETE CASCADE,
    name     TEXT NOT NULL,
    units    TEXT NOT NULL DEFAULT 'counts',
    derived  INTEGER NOT NULL DEFAULT 0,
    UNIQUE (trial_id, name)
);
CREATE TABLE IF NOT EXISTS event (
    id       INTEGER PRIMARY KEY,
    trial_id INTEGER NOT NULL REFERENCES trial(id) ON DELETE CASCADE,
    name     TEXT NOT NULL,
    grp      TEXT NOT NULL DEFAULT 'TAU_DEFAULT',
    UNIQUE (trial_id, name)
);
"""

#: Unique names for shared-cache in-memory databases (one per instance).
_MEMDB_IDS = itertools.count(1)


T = TypeVar("T")


def transaction(db: "PerfDMF", fn: Callable[[sqlite3.Connection], T],
                *, timeout: float = 5.0) -> T:
    """Run ``fn(connection)`` as one write transaction and return its
    result.  Any exception rolls the whole transaction back; a locked or
    busy database retries it from the start until ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            with db._transaction():
                return fn(db.connection)
        except sqlite3.OperationalError as exc:
            msg = str(exc)
            if ("locked" not in msg and "busy" not in msg) \
                    or time.monotonic() >= deadline:
                raise
            time.sleep(0.005)


def _stack(exclusive: list, inclusive: list, calls, subrs) -> np.ndarray:
    """A trial's matrices as the ``(2M + 2, E, T)`` stack the blob codes."""
    return np.stack([*exclusive, *inclusive, calls, subrs], dtype="<f8")


def _encode(stack: np.ndarray) -> bytes:
    """The value blob of a stack: kinds, kind-1 values, kind-0 rows."""
    m = (len(stack) - 2) // 2
    bits = stack.view(np.uint64)
    kinds = ((bits == bits[..., :1]).all(axis=2)
             & (stack.shape[2] > 0)).astype(np.uint8)
    kinds[m:2 * m][(bits[m:2 * m] == bits[:m]).all(axis=2)] = 2
    return b"".join((kinds.tobytes(), stack[kinds == 1, :1].tobytes(),
                     stack[kinds == 0].tobytes()))


def _decode(blob: bytes, shape: tuple[int, int, int], where: str) -> np.ndarray:
    """The ``(K, E, T)`` stack coded in ``blob``; a kind byte or a length
    that does not fit ``shape`` raises :class:`ProfileError`."""
    k, e, t = shape
    m = (k - 2) // 2
    limit = np.ones((k, e), np.uint8)
    limit[m:2 * m] = 2
    kinds = np.frombuffer(blob, np.uint8, min(len(blob), k * e))
    if (kinds > limit.ravel()[:kinds.size]).any():
        raise ProfileError(f"corrupt value blob for trial {where}: a kind "
                           "byte outside 0/1, or 2 off an inclusive row")
    one, full = kinds == 1, kinds == 0
    n1, n0 = int(one.sum()), int(full.sum())
    want = k * e + 8 * (n1 + n0 * t)
    if len(blob) != want:
        raise ProfileError(f"corrupt value blob for trial {where}: "
                           f"{len(blob)} bytes, want {want}")
    values = np.frombuffer(blob, "<f8", offset=k * e)
    out = np.empty(shape)
    out[one.reshape(k, e)] = values[:n1, None]
    out[full.reshape(k, e)] = values[n1:].reshape(n0, t)
    leaf = kinds.reshape(k, e)[m:2 * m] == 2
    out[m:2 * m][leaf] = out[:m][leaf]
    return out


def _axes(conn, trial_id: int) -> tuple[list, list]:
    """A trial's event ``(name, group)`` and metric ``(name, units,
    derived)`` rows, in axis order."""
    return tuple(conn.execute(
        f"SELECT {columns} FROM {table} WHERE trial_id = ? ORDER BY id",
        (trial_id,)).fetchall() for table, columns in (
            ("event", "name, grp"), ("metric", "name, units, derived")))


def _stored(metadata: dict, events: list, threads: np.ndarray,
            metrics: list, data: bytes) -> tuple:
    """A trial row's ``(metadata, axes, data, content_hash)``.  A callgraph
    that codes against the ``(name, group)`` events goes into ``axes`` and
    leaves a null at its metadata key.  The hash is a sha256 over the
    metadata JSON, the events, the ``(name, units, derived)`` metrics, the
    length of ``axes`` and both blobs."""
    metadata = dict(metadata)
    graph = CallGraph.code(metadata.get("callgraph"), [e for e, _ in events])
    head, parts = [len(threads), -1], [threads.astype("<i8").tobytes()]
    if graph is not None:
        metadata["callgraph"], head[1] = None, len(graph.codes)
        parts += [graph.codes.astype("<i4").tobytes(),
                  json.dumps(graph.names[graph.events:]).encode()]
    axes = np.array(head, "<i8").tobytes() + b"".join(parts)
    meta_json = json.dumps(metadata, default=str)
    h = hashlib.sha256(meta_json.encode())
    h.update(json.dumps([events, metrics, len(axes)]).encode())
    h.update(axes)
    h.update(data)
    return meta_json, axes, data, h.hexdigest()


def _unpack(meta_json: str, axes: bytes, events: list[str],
            where: str) -> tuple[dict, np.ndarray]:
    """The metadata (its callgraph a :class:`CallGraph`) and the ``(T, 3)``
    thread ids of a stored trial; an axes blob that does not fit raises
    :class:`ProfileError`."""
    metadata = json.loads(meta_json)
    try:
        t, p = np.frombuffer(axes, "<i8", 2).tolist()
        if min(t, p + 1) < 0:
            raise ValueError(f"{t} threads, {p} edges")
        threads = np.frombuffer(axes, "<i8", 3 * t, 16).reshape(t, 3)
        codes = np.frombuffer(axes, "<i4", 2 * max(p, 0), 16 + 24 * t)
        rest = axes[16 + 24 * t + codes.nbytes:]
        if p < 0 and rest:
            raise ValueError(f"{len(rest)} bytes past {t} thread ids")
        if p >= 0:
            others = json.loads(rest)
            if not (isinstance(others, list) and "callgraph" in metadata
                    and set(map(type, others)) <= {str}
                    and 0 <= codes.min(initial=0) <= codes.max(initial=0)
                    < len(events) + len(others)):
                raise ValueError(f"{len(rest)} bytes of names for codes up "
                                 f"to {codes.max(initial=-1)}")
            metadata["callgraph"] = CallGraph(events + others,
                                              codes.reshape(p, 2), len(events))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError included
        raise ProfileError(f"corrupt axes blob for trial {where}: {exc}") from None
    return metadata, threads


def _insert_trial(conn, trial_id, exp_id, name, stored: tuple,
                  metrics: list) -> int:
    """Insert a trial row (``trial_id`` None: a new id) holding the
    :func:`_stored` columns, and its metric rows."""
    trial_id = conn.execute(
        "INSERT INTO trial VALUES (?, ?, ?, ?, ?, ?, ?)",
        (trial_id, exp_id, name, *stored)).lastrowid
    conn.executemany(
        "INSERT INTO metric (trial_id, name, units, derived) "
        "VALUES (?, ?, ?, ?)", [(trial_id, *m) for m in metrics])
    return trial_id


def _migrate(conn, version: int) -> None:
    """Schema 0, 1 or 2 → 3 for every trial in ``old_trial``/``old_metric``.
    Version-0 value rows ordered by (event_id, thread_id) are the C-order
    matrix; version 1 holds one float64 blob per matrix, version 2 the
    value blob version 3 keeps.  Each trial's ``thread`` rows become its
    id array and a well-formed callgraph is coded out of its metadata."""
    for trial_id, exp_id, name, meta_json in conn.execute(
            "SELECT id, exp_id, name, metadata FROM old_trial").fetchall():
        events = _axes(conn, trial_id)[0]
        threads = np.array(conn.execute(
            "SELECT node, context, thread FROM thread WHERE trial_id = ? "
            "ORDER BY id", (trial_id,)).fetchall(), np.int64).reshape(-1, 3)
        shape = (len(events), len(threads))
        metrics = conn.execute(
            "SELECT id, name, units, derived FROM old_metric "
            "WHERE trial_id = ? ORDER BY id", (trial_id,)).fetchall()
        if version == 0:
            def pair(sql: str, key: int) -> np.ndarray:
                return np.array(conn.execute(
                    sql + " ORDER BY event_id, thread_id", (key,)).fetchall(),
                    dtype="<f8").reshape(*shape, 2).transpose(2, 0, 1)

            pairs = [pair("SELECT exclusive, inclusive FROM value "
                          "WHERE metric_id = ?", mid) for mid, *_ in metrics]
            counts = pair("SELECT calls, subroutines FROM callcount WHERE "
                          "event_id IN (SELECT id FROM event WHERE "
                          "trial_id = ?)", trial_id)
        elif version == 1:
            def pair(sql: str, key: int) -> list[np.ndarray]:
                return [np.frombuffer(blob, "<f8").reshape(shape)
                        for blob in conn.execute(sql, (key,)).fetchone()]

            pairs = [pair("SELECT exclusive, inclusive FROM old_metric "
                          "WHERE id = ?", mid) for mid, *_ in metrics]
            counts = pair("SELECT calls, subroutines FROM old_trial "
                          "WHERE id = ?", trial_id)
        if version == 2:
            data, = conn.execute("SELECT data FROM old_trial WHERE id = ?",
                                 (trial_id,)).fetchone()
        else:
            data = _encode(_stack([p[0] for p in pairs],
                                  [p[1] for p in pairs], *counts))
        metrics = [m[1:] for m in metrics]
        _insert_trial(conn, trial_id, exp_id, name, _stored(
            json.loads(meta_json), events, threads, metrics, data), metrics)
    # carry the old id sequence over, so a deleted trial's id stays unused
    seq = conn.execute("SELECT seq FROM sqlite_sequence "
                       "WHERE name = 'old_trial'").fetchone()
    if seq:
        conn.execute("DELETE FROM sqlite_sequence WHERE name = 'trial'")
        conn.execute("INSERT INTO sqlite_sequence VALUES ('trial', ?)", seq)
    for table in ("value", "callcount") if version == 0 else ():
        conn.execute(f"DROP TABLE {table}")
    for table in ("thread", "old_metric", "old_trial"):
        conn.execute(f"DROP TABLE {table}")


class PerfDMF:
    """A PerfDMF repository.

    Parameters
    ----------
    path:
        Database file, or ``":memory:"`` (the default) for an ephemeral
        repository — handy in tests and in the single-process pipelines the
        examples run.
    read_only:
        Open every connection in query-only mode.  Writes raise
        ``sqlite3.OperationalError``; the schema must already exist.
    busy_timeout_ms:
        How long a connection waits on a locked database before giving
        up — the knob that lets concurrent writers queue politely.
    """

    def __init__(
        self,
        path: str | Path = ":memory:",
        *,
        read_only: bool = False,
        busy_timeout_ms: int = 5_000,
    ) -> None:
        self._path = str(path)
        self._read_only = read_only
        self._busy_timeout_ms = busy_timeout_ms
        self._memory = self._path == ":memory:" or "mode=memory" in self._path
        if self._path == ":memory:":
            # A plain :memory: connection is invisible to other connections;
            # name it and share the cache so per-thread connections (and
            # read-only views) all see the same database.
            self._path = f"file:repro-memdb-{next(_MEMDB_IDS)}" \
                         "?mode=memory&cache=shared"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._all_conns: list[sqlite3.Connection] = []
        self._listeners: list[Callable[[str, str, str, str], None]] = []
        self._closed = False
        # The anchor connection: created eagerly so an in-memory database
        # outlives any individual thread, and so schema errors surface at
        # construction time.
        self._open_schema(self._connect())

    def _open_schema(self, conn: sqlite3.Connection) -> None:
        """Create the schema in a new database, or migrate a version-0
        (row-per-cell), version-1 (blob-per-matrix) or version-2 (value
        blob, thread rows) file to version 3."""
        version = conn.execute("PRAGMA user_version").fetchone()[0]
        if version == _SCHEMA_VERSION:
            return
        if version > _SCHEMA_VERSION:
            raise ProfileError(
                f"{self._path} uses PerfDMF schema version {version}; this "
                f"build reads version {_SCHEMA_VERSION}")
        tables = {row[0] for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'")}
        if version == 1 and any(row[1] == "data" for row in conn.execute(
                "PRAGMA table_info(trial)")):
            # a version-2 or -3 file an older build re-stamped 1
            version = 2 if "thread" in tables else _SCHEMA_VERSION
        old = version != _SCHEMA_VERSION and (version or "value" in tables)
        if self._read_only:
            if old:
                raise ProfileError(
                    f"{self._path} uses PerfDMF schema version {version}; "
                    "open it read-write once to migrate it")
            return
        # Renaming with these settings leaves the other tables' REFERENCES
        # trial(id) clauses naming the new trial table.
        conn.execute("PRAGMA foreign_keys = OFF")
        conn.execute("PRAGMA legacy_alter_table = ON")
        try:
            with self._transaction():
                if conn.execute("PRAGMA user_version").fetchone()[0] \
                        == _SCHEMA_VERSION:
                    # another opener migrated while this one waited
                    return
                if old:
                    for table in ("trial", "metric"):
                        conn.execute(f"ALTER TABLE {table} RENAME TO old_{table}")
                for statement in _SCHEMA.split(";"):
                    conn.execute(statement)
                if old:
                    _migrate(conn, version)
                conn.execute(f"PRAGMA user_version = {_SCHEMA_VERSION}")
        finally:
            conn.execute("PRAGMA legacy_alter_table = OFF")
            conn.execute("PRAGMA foreign_keys = ON")

    # -- connection management -------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        """Open, configure, and register this thread's connection."""
        uri = self._path.startswith("file:")
        target = self._path
        if self._read_only and not self._memory:
            target = f"file:{self._path}?mode=ro"
            uri = True
        # check_same_thread=False: affinity is enforced by construction
        # (each thread only ever sees its own thread-local connection) and
        # relaxing the check lets close() shut down every connection.
        conn = sqlite3.connect(
            target, isolation_level=None, uri=uri, check_same_thread=False
        )
        conn.execute("PRAGMA foreign_keys = ON")
        conn.execute(f"PRAGMA busy_timeout = {int(self._busy_timeout_ms)}")
        if self._memory:
            # Shared-cache databases use table-level locks that the busy
            # handler does not cover; uncommitted reads keep concurrent
            # in-memory use best-effort rather than error-prone.
            conn.execute("PRAGMA read_uncommitted = ON")
        else:
            if not self._read_only:
                # WAL lets concurrent readers proceed while a writer stores
                # a trial; NORMAL sync is durable enough for a profile cache
                # and much faster.
                conn.execute("PRAGMA journal_mode = WAL")
                conn.execute("PRAGMA synchronous = NORMAL")
        if self._read_only:
            conn.execute("PRAGMA query_only = ON")
        self._local.conn = conn
        with self._lock:
            if self._closed:
                conn.close()
                raise ProfileError("repository is closed")
            self._all_conns.append(conn)
        return conn

    @property
    def connection(self) -> sqlite3.Connection:
        """The *calling thread's* connection (created on first use).

        Companion subsystems such as :mod:`repro.regress` keep their own
        tables in the same file through this handle; because it is
        thread-local they inherit thread safety for free.
        """
        conn = getattr(self._local, "conn", None)
        if conn is None:
            if self._closed:
                raise ProfileError("repository is closed")
            conn = self._connect()
        return conn

    @property
    def path(self) -> str:
        """The database target (file path, or shared-cache URI for
        in-memory repositories)."""
        return self._path

    @property
    def read_only(self) -> bool:
        return self._read_only

    def read_view(self) -> "PerfDMF":
        """A read-only repository over the same database.

        This is what analysis workers get: snapshot connections that can
        load trials but cannot mutate the store.
        """
        return PerfDMF(
            self._path, read_only=True,
            busy_timeout_ms=self._busy_timeout_ms,
        )

    @contextmanager
    def _transaction(self, begin: str = "BEGIN IMMEDIATE"):
        """Explicit transaction scope; rolls back on any exception.  A
        plain ``BEGIN`` gives a multi-statement read one snapshot."""
        conn = self.connection
        conn.execute(begin)
        try:
            yield
            conn.execute("COMMIT")
        except BaseException:
            if conn.in_transaction:
                conn.execute("ROLLBACK")
            raise

    def close(self) -> None:
        with self._lock:
            self._closed = True
            conns, self._all_conns = self._all_conns, []
        for conn in conns:
            try:
                conn.close()
            except sqlite3.Error:  # pragma: no cover - already closed
                pass
        self._local = threading.local()

    def __enter__(self) -> "PerfDMF":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- change notification ---------------------------------------------
    def add_change_listener(
        self, listener: Callable[[str, str, str, str], None]
    ) -> None:
        """Register ``listener(action, application, experiment, trial)``,
        called after a trial is stored (``"save"``) or deleted
        (``"delete"``).  The serve layer's result cache hangs off this."""
        self._listeners.append(listener)

    def _notify(self, action: str, application: str, experiment: str,
                trial: str) -> None:
        for listener in list(self._listeners):
            listener(action, application, experiment, trial)

    # -- hierarchy -------------------------------------------------------
    def _get_or_create(self, table: str, where: dict, defaults: dict | None = None) -> int:
        cols = list(where)
        row = self.connection.execute(
            f"SELECT id FROM {table} WHERE "
            + " AND ".join(f"{c} = ?" for c in cols),
            [where[c] for c in cols],
        ).fetchone()
        if row:
            return row[0]
        data = {**where, **(defaults or {})}
        cur = self.connection.execute(
            f"INSERT INTO {table} ({', '.join(data)}) VALUES "
            f"({', '.join('?' for _ in data)})",
            list(data.values()),
        )
        return cur.lastrowid

    def save_trial(
        self, application: str, experiment: str, trial: Trial, *, replace: bool = False
    ) -> int:
        """Persist ``trial`` under application/experiment. Returns trial id.

        The whole store — cascade-deleting a replaced trial included — is
        one transaction: readers never observe a half-written trial and a
        failure rolls everything back.
        """
        trial.validate()
        with observe.span(
            "perfdmf.save_trial", application=application,
            experiment=experiment, trial=trial.name,
            events=trial.event_count, threads=trial.thread_count,
            metrics=len(trial.metrics), replace=replace,
        ) as sp:
            events = [(ev.name, ev.group) for ev in trial.events]
            metrics = [(m.name, m.units, int(m.derived)) for m in trial.metrics]
            names = trial.metric_names()
            stored = _stored(
                trial.coded_metadata(), events, trial.thread_array(), metrics,
                _encode(_stack([trial.exclusive_array(m) for m in names],
                               [trial.inclusive_array(m) for m in names],
                               trial.calls_array(), trial.subroutines_array())))

            def store(conn: sqlite3.Connection) -> int:
                app_id = self._get_or_create("application", {"name": application})
                exp_id = self._get_or_create("experiment", {"app_id": app_id, "name": experiment})
                existing = conn.execute(
                    "SELECT id FROM trial WHERE exp_id = ? AND name = ?", (exp_id, trial.name)
                ).fetchone()
                if existing:
                    if not replace:
                        raise ProfileError(
                            f"trial {trial.name!r} already exists under "
                            f"{application}/{experiment} (pass replace=True to overwrite)"
                        )
                    conn.execute("DELETE FROM trial WHERE id = ?", (existing[0],))
                trial_id = _insert_trial(conn, None, exp_id, trial.name,
                                         stored, metrics)
                conn.executemany(
                    "INSERT INTO event (trial_id, name, grp) VALUES (?, ?, ?)",
                    [(trial_id, *ev) for ev in events])
                return trial_id

            trial_id = transaction(self, store)
            _stmt("insert", 1 + len(events) + len(metrics))
            sp.set(trial_id=trial_id)
        self._notify("save", application, experiment, trial.name)
        return trial_id

    # -- loading -------------------------------------------------------------
    def _trial_row(self, application: str, experiment: str, trial: str,
                   columns: str = "t.id, t.metadata"):
        row = self.connection.execute(
            f"""SELECT {columns} FROM trial t
               JOIN experiment e ON t.exp_id = e.id
               JOIN application a ON e.app_id = a.id
               WHERE a.name = ? AND e.name = ? AND t.name = ?""",
            (application, experiment, trial),
        ).fetchone()
        if row is None:
            raise ProfileError(
                f"no trial {application!r}/{experiment!r}/{trial!r} in repository"
            )
        return row

    def load_trial(self, application: str, experiment: str, trial: str) -> Trial:
        """Reconstruct a :class:`Trial` from the repository."""
        with observe.span("perfdmf.load_trial", application=application,
                          experiment=experiment, trial=trial) as sp, \
                self._transaction("BEGIN"):
            out = self._load_trial(application, experiment, trial)
            sp.set(events=out.event_count, threads=out.thread_count,
                   metrics=len(out.metrics))
        return out

    def _load_trial(self, application: str, experiment: str, trial: str) -> Trial:
        trial_id, meta_json, axes, blob = self._trial_row(
            application, experiment, trial, "t.id, t.metadata, t.axes, t.data")
        events, metrics = _axes(self.connection, trial_id)
        where = f"{application}/{experiment}/{trial}"
        metadata, threads = _unpack(meta_json, axes,
                                    [name for name, _ in events], where)
        m = len(metrics)
        stack = _decode(blob, (2 * m + 2, len(events), len(threads)), where)
        _stmt("select", 1 + len(events) + len(metrics))
        return Trial.from_arrays(
            trial, metadata, [Event(name, grp) for name, grp in events],
            threads, [Metric(name, units=units, derived=bool(derived))
                      for name, units, derived in metrics],
            stack[:m], stack[m:2 * m], stack[2 * m], stack[2 * m + 1])

    # -- content addressing ---------------------------------------------------
    def content_hash(self, application: str, experiment: str, trial: str) -> str:
        """A digest of everything stored for one trial, computed at save.

        Independent of row ids: re-uploading identical data (new primary
        keys) hashes the same, while any change to metadata, callgraph
        edges, events, threads, metrics, values, call counts, or the order
        of edges, events, threads or metrics changes the digest.  This is the trial
        component of the serve layer's content-addressed cache keys.
        """
        (digest,) = self._trial_row(application, experiment, trial,
                                    "t.content_hash")
        _stmt("select", 1)
        return digest

    def trial_stamp(self, application: str, experiment: str,
                    trial: str) -> tuple[int, str]:
        """``(trial id, content hash)`` of a stored trial, read from its
        one row: what a result cache checks to tell whether the trial it
        analysed is still the one stored."""
        trial_id, digest = self._trial_row(application, experiment, trial,
                                           "t.id, t.content_hash")
        _stmt("select", 1)
        return trial_id, digest

    # -- listing --------------------------------------------------------------
    def applications(self) -> list[str]:
        return [r[0] for r in self.connection.execute(
            "SELECT name FROM application ORDER BY name")]

    def experiments(self, application: str) -> list[str]:
        return [r[0] for r in self.connection.execute(
            """SELECT e.name FROM experiment e JOIN application a
               ON e.app_id = a.id WHERE a.name = ? ORDER BY e.name""",
            (application,))]

    def trials(self, application: str, experiment: str) -> list[str]:
        return [r[0] for r in self.connection.execute(
            """SELECT t.name FROM trial t
               JOIN experiment e ON t.exp_id = e.id
               JOIN application a ON e.app_id = a.id
               WHERE a.name = ? AND e.name = ? ORDER BY t.id""",
            (application, experiment))]

    def delete_trial(self, application: str, experiment: str, trial: str) -> None:
        trial_id, _ = self._trial_row(application, experiment, trial)
        with observe.span("perfdmf.delete_trial", application=application,
                          experiment=experiment, trial=trial):
            transaction(self, lambda conn: conn.execute(
                "DELETE FROM trial WHERE id = ?", (trial_id,)))
            _stmt("delete", 1)
        self._notify("delete", application, experiment, trial)

    def trial_metadata(self, application: str, experiment: str, trial: str) -> dict[str, Any]:
        with self._transaction("BEGIN"):
            trial_id, meta_json, axes = self._trial_row(
                application, experiment, trial, "t.id, t.metadata, t.axes")
            events = [name for name, _ in _axes(self.connection, trial_id)[0]]
        metadata, _ = _unpack(meta_json, axes, events,
                              f"{application}/{experiment}/{trial}")
        if isinstance(metadata.get("callgraph"), CallGraph):
            metadata["callgraph"] = metadata["callgraph"].edges()
        return metadata

    def trial_id(self, application: str, experiment: str, trial: str) -> int:
        """The integer primary key of a stored trial (raises if absent)."""
        return self._trial_row(application, experiment, trial)[0]


def next_trial_name(db: PerfDMF, application: str, experiment: str,
                    prefix: str) -> str:
    """The next sequential trial name, ``<prefix>_NNNN``: one past the
    highest numeric suffix stored under ``application/experiment``, so a
    delete never makes the next name collide with a stored trial."""
    suffix = re.compile(rf"{re.escape(prefix)}_(\d+)")
    highest = max(
        (int(m.group(1)) for name in db.trials(application, experiment)
         if (m := suffix.fullmatch(name))),
        default=0,
    )
    return f"{prefix}_{highest + 1:04d}"
