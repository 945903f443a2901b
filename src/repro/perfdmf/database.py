"""SQLite-backed PerfDMF repository.

PerfDMF stores parallel profiles in a relational database so analyses can
span many experiments.  This module reproduces that design on
:mod:`sqlite3` (stdlib): application/experiment/trial/metric/event/thread
tables, with each trial's measurements stored as typed matrices.

The repository is the system's durable store: the runtime simulator saves
trials here and PerfExplorer scripts load them back by
(application, experiment, trial) coordinates, exactly like the paper's
``Utilities.getTrial("Fluid Dynamic", "rib 45", "1_8")``.

Schema version 1 (``PRAGMA user_version``): ``event`` and ``thread`` rows,
whose ``ORDER BY id`` is the axis order, and on each ``metric`` row the
``exclusive``/``inclusive`` ``(E, T)`` matrices as C-order little-endian
float64 blobs.  The ``trial`` row holds the ``calls``/``subroutines`` blobs
and ``content_hash``, a sha256 taken once at save over the metadata JSON,
the event/thread/metric rows and the blobs; its ``AUTOINCREMENT`` id is
never reused.  A read-write open migrates a version-0 file (a ``value`` row
per metric × event × thread, a ``callcount`` row per event × thread) in one
transaction; a read-only open of one raises :class:`ProfileError`.

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
from .model import Event, Metric, ProfileError, ThreadId, Trial


def _stmt(kind: str, rows: int) -> None:
    """Count executed statements by class (insert/select/delete) and the
    rows they touched — the repository's query-mix telemetry."""
    if observe.enabled():
        observe.counter(f"perfdmf.stmt.{kind}").inc()
        observe.counter(f"perfdmf.rows.{kind}").inc(rows)

_SCHEMA_VERSION = 1

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
    calls   BLOB NOT NULL, subroutines BLOB NOT NULL,
    content_hash TEXT NOT NULL,
    UNIQUE (exp_id, name)
);
CREATE TABLE IF NOT EXISTS metric (
    id       INTEGER PRIMARY KEY,
    trial_id INTEGER NOT NULL REFERENCES trial(id) ON DELETE CASCADE,
    name     TEXT NOT NULL,
    units    TEXT NOT NULL DEFAULT 'counts',
    derived  INTEGER NOT NULL DEFAULT 0,
    exclusive BLOB NOT NULL, inclusive BLOB NOT NULL,
    UNIQUE (trial_id, name)
);
CREATE TABLE IF NOT EXISTS event (
    id       INTEGER PRIMARY KEY,
    trial_id INTEGER NOT NULL REFERENCES trial(id) ON DELETE CASCADE,
    name     TEXT NOT NULL,
    grp      TEXT NOT NULL DEFAULT 'TAU_DEFAULT',
    UNIQUE (trial_id, name)
);
CREATE TABLE IF NOT EXISTS thread (
    id       INTEGER PRIMARY KEY,
    trial_id INTEGER NOT NULL REFERENCES trial(id) ON DELETE CASCADE,
    node     INTEGER NOT NULL,
    context  INTEGER NOT NULL,
    thread   INTEGER NOT NULL,
    UNIQUE (trial_id, node, context, thread)
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


def _blob(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array, dtype="<f8").tobytes()


def _matrix(blob: bytes, shape: tuple[int, int]) -> np.ndarray:
    # astype copies: the trial gets a writable array in native byte order
    return np.frombuffer(blob, dtype="<f8").reshape(shape).astype(float)


def _axes(conn, trial_id: int) -> tuple[list, list]:
    """A trial's event ``(name, group)`` and thread ``(node, context,
    thread)`` rows, in matrix axis order."""
    return tuple(conn.execute(
        f"SELECT {columns} FROM {table} WHERE trial_id = ? ORDER BY id",
        (trial_id,)).fetchall() for table, columns in (
            ("event", "name, grp"), ("thread", "node, context, thread")))


def _insert_trial(conn, trial_id, exp_id, name, meta_json, events, threads,
                  metrics, calls, subrs) -> int:
    """Insert a trial row (``trial_id`` None: a new id) and its ``(name,
    units, derived, exclusive, inclusive)`` metric rows, hashing the same
    bytes with the ``(name, group)`` events and ``(n, c, t)`` threads."""
    h = hashlib.sha256(json.dumps(
        [meta_json, events, threads, [m[:3] for m in metrics]]).encode())
    for blob in [b for m in metrics for b in m[3:]] + [calls, subrs]:
        h.update(blob)
    trial_id = conn.execute(
        "INSERT INTO trial VALUES (?, ?, ?, ?, ?, ?, ?)",
        (trial_id, exp_id, name, meta_json, calls, subrs, h.hexdigest()),
    ).lastrowid
    conn.executemany(
        "INSERT INTO metric (trial_id, name, units, derived, exclusive, "
        "inclusive) VALUES (?, ?, ?, ?, ?, ?)",
        [(trial_id, *m) for m in metrics])
    return trial_id


def _fold_rows_into_blobs(conn) -> None:
    """Schema 0 → 1 for every trial in ``v0_trial``/``v0_metric``: value
    rows ordered by (event_id, thread_id) are the C-order matrix."""
    for trial_id, exp_id, name, meta_json in conn.execute(
            "SELECT id, exp_id, name, metadata FROM v0_trial").fetchall():
        events, threads = _axes(conn, trial_id)

        def pair(sql: str, key: int) -> tuple[bytes, bytes]:
            grid = np.array(conn.execute(
                sql + " ORDER BY event_id, thread_id", (key,)).fetchall(),
                dtype="<f8").reshape(len(events), len(threads), 2)
            return _blob(grid[..., 0]), _blob(grid[..., 1])

        metrics = [(m, units, derived, *pair(
            "SELECT exclusive, inclusive FROM value WHERE metric_id = ?", mid))
            for mid, m, units, derived in conn.execute(
                "SELECT id, name, units, derived FROM v0_metric "
                "WHERE trial_id = ? ORDER BY id", (trial_id,)).fetchall()]
        calls, subrs = pair(
            "SELECT calls, subroutines FROM callcount WHERE event_id IN "
            "(SELECT id FROM event WHERE trial_id = ?)", trial_id)
        _insert_trial(conn, trial_id, exp_id, name, meta_json, events,
                      threads, metrics, calls, subrs)
    for table in ("value", "callcount", "v0_metric", "v0_trial"):
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
        (row-per-cell) file to blobs."""
        version = "PRAGMA user_version"
        if conn.execute(version).fetchone()[0] == _SCHEMA_VERSION:
            return
        v0 = conn.execute(
            "SELECT 1 FROM sqlite_master WHERE name = 'value'").fetchone()
        if self._read_only:
            if v0:
                raise ProfileError(
                    f"{self._path} uses the version-0 row schema; open it "
                    "read-write once to migrate it")
            return
        # Renaming with these settings leaves the other tables' REFERENCES
        # trial(id) clauses naming the new trial table.
        conn.execute("PRAGMA foreign_keys = OFF")
        conn.execute("PRAGMA legacy_alter_table = ON")
        try:
            with self._transaction():
                if conn.execute(version).fetchone()[0] == _SCHEMA_VERSION:
                    # another opener migrated while this one waited
                    return
                if v0:
                    for table in ("trial", "metric"):
                        conn.execute(f"ALTER TABLE {table} RENAME TO v0_{table}")
                for statement in _SCHEMA.split(";"):
                    conn.execute(statement)
                if v0:
                    _fold_rows_into_blobs(conn)
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

    def remove_change_listener(self, listener) -> None:
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

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
            threads = [(th.node, th.context, th.thread) for th in trial.threads]
            metrics = [(m.name, m.units, int(m.derived),
                        _blob(trial.exclusive_array(m.name)),
                        _blob(trial.inclusive_array(m.name)))
                       for m in trial.metrics]
            metadata = json.dumps(trial.metadata, default=str)
            calls = _blob(trial.calls_array())
            subrs = _blob(trial.subroutines_array())

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
                trial_id = _insert_trial(
                    conn, None, exp_id, trial.name, metadata, events, threads,
                    metrics, calls, subrs)
                conn.executemany(
                    "INSERT INTO event (trial_id, name, grp) VALUES (?, ?, ?)",
                    [(trial_id, *ev) for ev in events])
                conn.executemany(
                    "INSERT INTO thread (trial_id, node, context, thread) "
                    "VALUES (?, ?, ?, ?)", [(trial_id, *th) for th in threads])
                return trial_id

            trial_id = transaction(self, store)
            _stmt("insert", 1 + len(events) + len(threads) + len(metrics))
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
        conn = self.connection
        trial_id, meta_json, calls, subrs = self._trial_row(
            application, experiment, trial,
            "t.id, t.metadata, t.calls, t.subroutines")
        out = Trial(trial, json.loads(meta_json))
        events, threads = _axes(conn, trial_id)
        out.add_events(Event(name, grp) for name, grp in events)
        out.add_threads(ThreadId(*row) for row in threads)
        metrics = conn.execute(
            "SELECT name, units, derived, exclusive, inclusive FROM metric "
            "WHERE trial_id = ? ORDER BY id", (trial_id,),
        ).fetchall()
        shape = (len(events), len(threads))
        for name, units, derived, exc, inc in metrics:
            out.add_metric(Metric(name, units=units, derived=bool(derived)))
            out._exclusive[name] = _matrix(exc, shape)
            out._inclusive[name] = _matrix(inc, shape)
        out._calls = _matrix(calls, shape)
        out._subrs = _matrix(subrs, shape)
        _stmt("select", 1 + len(events) + len(threads) + len(metrics))
        return out

    # -- content addressing ---------------------------------------------------
    def content_hash(self, application: str, experiment: str, trial: str) -> str:
        """A digest of everything stored for one trial, computed at save.

        Independent of row ids: re-uploading identical data (new primary
        keys) hashes the same, while any change to metadata, events,
        threads, metrics, values, call counts, or the order of events,
        threads or metrics changes the digest.  This is the trial
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
        _, meta_json = self._trial_row(application, experiment, trial)
        return json.loads(meta_json)

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
