"""Concurrent access to one PerfDMF repository (the serve rework).

Regression tests for the failure modes the service exposed: sqlite
connections crossing threads (``sqlite3.ProgrammingError``) and writer
contention ("database is locked").  A file-backed repository must
survive many reader threads racing one writer with neither error.
"""

import sqlite3
import threading

import numpy as np
import pytest

from repro.perfdmf import PerfDMF, ProfileError, TrialBuilder


def make_trial(name, scale=1.0, threads=4):
    rng = np.random.default_rng(11)
    exc = rng.uniform(10, 20, size=(2, threads)) * scale
    return (
        TrialBuilder(name, {"threads": threads})
        .with_events(["main", "loop"])
        .with_threads(threads)
        .with_metric("TIME", exc, exc * 1.2, units="usec")
        .with_calls(np.ones_like(exc), np.zeros_like(exc))
        .build()
    )


@pytest.fixture
def file_db(tmp_path):
    with PerfDMF(str(tmp_path / "perf.db")) as db:
        db.save_trial("A", "E", make_trial("t0"))
        yield db


class TestPerThreadConnections:
    def test_connection_is_thread_local(self, file_db):
        seen = {}

        def grab(tag):
            seen[tag] = id(file_db.connection)

        threads = [threading.Thread(target=grab, args=(n,)) for n in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seen["main"] = id(file_db.connection)
        assert len(set(seen.values())) == 4  # one connection per thread

    def test_cross_thread_use_raises_no_programming_error(self, file_db):
        """The historical failure: a connection created on the main thread
        used from a worker.  Per-thread connections make it impossible."""
        errors = []

        def reader():
            try:
                for _ in range(20):
                    file_db.load_trial("A", "E", "t0")
            except sqlite3.ProgrammingError as exc:  # pragma: no cover
                errors.append(exc)

        workers = [threading.Thread(target=reader) for _ in range(4)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        assert errors == []


class TestReadersRacingAWriter:
    def test_no_database_is_locked(self, file_db):
        """8 reader threads + 1 writer thread over one file: every
        operation succeeds (WAL + busy_timeout absorb the contention)."""
        stop = threading.Event()
        errors = []

        def reader(view):
            while not stop.is_set():
                try:
                    view.load_trial("A", "E", "t0")
                    view.trials("A", "E")
                except (sqlite3.OperationalError,
                        sqlite3.ProgrammingError) as exc:
                    errors.append(exc)
                    return

        def writer():
            try:
                for n in range(12):
                    file_db.save_trial("A", "E", make_trial(f"w{n}"))
                for n in range(0, 12, 2):
                    file_db.delete_trial("A", "E", f"w{n}")
            except (sqlite3.OperationalError,
                    sqlite3.ProgrammingError) as exc:
                errors.append(exc)

        ro = file_db.read_view()
        readers = [threading.Thread(target=reader, args=(db,))
                   for db in (file_db, ro, ro, file_db, ro, file_db, ro, ro)]
        wr = threading.Thread(target=writer)
        for t in readers:
            t.start()
        wr.start()
        wr.join(timeout=60.0)
        stop.set()
        for t in readers:
            t.join(timeout=10.0)
        assert not wr.is_alive()
        assert errors == [], f"concurrent access failed: {errors[0]}"
        assert set(file_db.trials("A", "E")) == \
            {"t0"} | {f"w{n}" for n in range(1, 12, 2)}

    def test_concurrent_writers_serialize(self, file_db):
        errors = []

        def writer(tag):
            try:
                for n in range(5):
                    file_db.save_trial("A", "E", make_trial(f"{tag}-{n}"))
            except sqlite3.OperationalError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in ("x", "y", "z")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert errors == []
        assert len(file_db.trials("A", "E")) == 16  # t0 + 3×5


class TestReadView:
    def test_read_view_shares_the_file(self, file_db):
        ro = file_db.read_view()
        assert ro.read_only
        assert ro.path == file_db.path
        loaded = ro.load_trial("A", "E", "t0")
        assert loaded.name == "t0"

    def test_read_view_sees_later_writes(self, file_db):
        ro = file_db.read_view()
        file_db.save_trial("A", "E", make_trial("t1"))
        assert "t1" in ro.trials("A", "E")

    def test_read_view_cannot_write(self, file_db):
        ro = file_db.read_view()
        with pytest.raises((ProfileError, sqlite3.OperationalError)):
            ro.save_trial("A", "E", make_trial("nope"))
        with pytest.raises((ProfileError, sqlite3.OperationalError)):
            ro.delete_trial("A", "E", "t0")


class TestChangeListeners:
    def test_listener_fires_once_per_mutation_across_threads(self, file_db):
        events = []
        lock = threading.Lock()

        def listener(action, app, exp, trial):
            with lock:
                events.append((action, trial))

        file_db.add_change_listener(listener)

        def save(n):
            file_db.save_trial("A", "E", make_trial(f"c{n}"))

        threads = [threading.Thread(target=save, args=(n,))
                   for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        file_db.delete_trial("A", "E", "c0")
        saves = [e for e in events if e[0] == "save"]
        deletes = [e for e in events if e[0] == "delete"]
        assert sorted(t for _, t in saves) == ["c0", "c1", "c2", "c3"]
        assert deletes == [("delete", "c0")]


class TestSharedCacheMemoryWriters:
    """In-memory repositories share one cache across connections, whose
    table locks (SQLITE_LOCKED) fail at once instead of waiting out the
    busy timeout.  Trial writes must retry them like side-table writes."""

    def test_save_and_delete_wait_out_a_held_table_lock(self):
        with PerfDMF() as db:
            db.save_trial("A", "E", make_trial("old"))
            for write in (lambda: db.save_trial("A", "E", make_trial("new")),
                          lambda: db.delete_trial("A", "E", "old")):
                holding, release = threading.Event(), threading.Event()

                def hold():
                    conn = db.connection
                    conn.execute("BEGIN IMMEDIATE")
                    conn.execute("INSERT INTO application (name) VALUES ('x')")
                    holding.set()
                    release.wait(10.0)
                    conn.execute("ROLLBACK")

                holder = threading.Thread(target=hold)
                holder.start()
                assert holding.wait(10.0)
                # the lock is really held: a bare write fails at once
                with pytest.raises(sqlite3.OperationalError, match="locked"):
                    db.connection.execute("BEGIN IMMEDIATE")
                threading.Timer(0.05, release.set).start()
                write()
                holder.join(10.0)
                assert not holder.is_alive()
            assert db.trials("A", "E") == ["new"]

    def test_concurrent_savers_lose_no_writes(self):
        n_threads, per_thread = 8, 5
        errors = []
        start = threading.Barrier(n_threads)
        with PerfDMF() as db:
            def saver(k):
                start.wait()
                for n in range(per_thread):
                    try:
                        db.save_trial("A", f"E{k}", make_trial(f"t{n}"))
                    except sqlite3.OperationalError as exc:
                        errors.append(exc)

            threads = [threading.Thread(target=saver, args=(k,))
                       for k in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert [len(db.trials("A", f"E{k}")) for k in range(n_threads)] \
                == [per_thread] * n_threads
