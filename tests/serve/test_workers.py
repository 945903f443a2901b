"""WorkerPool: vehicles, timeouts, retry plumbing, clean shutdown."""

import ast
import os
import subprocess
import sys
import threading
import time

import pytest

from .conftest import make_trial
from repro.perfdmf import PerfDMF
from repro.serve import ExecutionTimeout, Job, JobQueue, JobSpec, WorkerPool
from repro.serve.handlers import JobContext, resolve_kind


def run_fresh(code):
    """Run ``code`` in a fresh interpreter on this checkout; its stdout."""
    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__)))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestConstruction:
    def test_thread_mode_requires_local_runner(self):
        with pytest.raises(ValueError, match="local_runner"):
            WorkerPool(JobQueue(), lambda j, r: None, mode="thread")

    def test_process_mode_requires_db_path(self):
        with pytest.raises(ValueError, match="db_path"):
            WorkerPool(JobQueue(), lambda j, r: None, mode="process",
                       local_runner=lambda *a: None)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown worker mode"):
            WorkerPool(JobQueue(), lambda j, r: None, mode="fiber",
                       local_runner=lambda *a: None)

    def test_process_mode_rejects_memory_db(self, tmp_path):
        from repro.serve.workers import _ProcessVehicle

        with pytest.raises(ValueError, match="file-backed"):
            _ProcessVehicle("file:x?mode=memory&cache=shared", "w")


class TestThreadVehicles:
    def _pool(self, dispatch, runner, workers=2):
        queue = JobQueue()
        pool = WorkerPool(queue, dispatch, workers=workers, mode="thread",
                          local_runner=runner)
        pool.start()
        return queue, pool

    def test_jobs_flow_through_dispatch(self):
        done = []
        event = threading.Event()

        def runner(kind, params, attempt, worker):
            return {"kind": kind, "worker": worker}

        def dispatch(job, run):
            done.append(run(5.0))
            if len(done) == 3:
                event.set()

        queue, pool = self._pool(dispatch, runner)
        for n in range(3):
            queue.put(Job(id=n, spec=JobSpec(kind="sleep")))
        assert event.wait(5.0)
        pool.stop()
        assert [d["kind"] for d in done] == ["sleep"] * 3

    def test_timeout_raises_and_worker_survives(self):
        outcomes = []
        event = threading.Event()

        def runner(kind, params, attempt, worker):
            if kind == "slow":
                time.sleep(10.0)
            return {"ok": True}

        def dispatch(job, run):
            try:
                outcomes.append(("ok", run(0.1 if job.spec.kind == "slow"
                                           else 5.0)))
            except ExecutionTimeout as exc:
                outcomes.append(("timeout", str(exc)))
            if len(outcomes) == 2:
                event.set()

        queue, pool = self._pool(dispatch, runner, workers=1)
        queue.put(Job(id=1, spec=JobSpec(kind="slow")))
        queue.put(Job(id=2, spec=JobSpec(kind="sleep")))
        assert event.wait(10.0)
        pool.stop(timeout=1.0)
        assert outcomes[0][0] == "timeout"
        # The same (sole) worker executed the next job after the timeout.
        assert outcomes[1] == ("ok", {"ok": True})

    def test_start_preloads_the_analysis_stack(self):
        # A fresh interpreter, so no other test has imported them: a
        # thread-mode service imports the handlers' modules when it
        # starts, not inside its first job.
        out = run_fresh(
            "import sys\n"
            "from repro.serve import AnalysisService\n"
            "mods = ('repro.knowledge', 'repro.workflows')\n"
            "print([m for m in mods if m in sys.modules])\n"
            "with AnalysisService(workers=1, mode='thread') as svc:\n"
            "    print([m for m in mods if m in sys.modules])\n"
            "    print(svc.stats()['jobs']['submitted'])\n")
        before, after, submitted = map(ast.literal_eval, out.splitlines())
        assert before == []
        assert after == ["repro.knowledge", "repro.workflows"]
        assert submitted == 0

    def test_stop_drains_ready_jobs(self):
        executed = []

        def dispatch(job, run):
            executed.append(job.id)

        queue, pool = self._pool(dispatch, lambda *a: {}, workers=1)
        for n in range(5):
            queue.put(Job(id=n, spec=JobSpec(kind="sleep")))
        pool.stop()
        assert sorted(executed) == [0, 1, 2, 3, 4]
        assert pool.alive() == 0


class TestProcessVehicles:
    """One end-to-end process-mode exercise (children are slow to spawn)."""

    def test_executes_kills_on_timeout_and_recovers(self, tmp_path):
        from repro.serve.workers import _ProcessVehicle, _preload_handler_modules

        _preload_handler_modules()
        db_path = str(tmp_path / "perf.db")
        with PerfDMF(db_path) as db:
            db.save_trial("A", "E", make_trial("t1"))
        vehicle = _ProcessVehicle(db_path, "proc-test")
        try:
            out = vehicle.run("sleep", {"seconds": 0.0, "tag": "x"}, 1, 10.0)
            assert out["tag"] == "x"
            with pytest.raises(ExecutionTimeout):
                vehicle.run("sleep", {"seconds": 30.0}, 1, 0.2)
            # Killed and respawned: the vehicle still executes real work
            # against its own connections.
            out = vehicle.run(
                "diagnose",
                {"app": "A", "exp": "E", "trial": "t1",
                 "script": "load-balance"},
                1, 30.0,
            )
            assert out["trial"] == "t1"
        finally:
            vehicle.close()

    def test_handler_error_crosses_the_pipe(self, tmp_path):
        from repro.serve.workers import _ProcessVehicle, _preload_handler_modules

        _preload_handler_modules()
        db_path = str(tmp_path / "perf.db")
        with PerfDMF(db_path):
            pass
        vehicle = _ProcessVehicle(db_path, "proc-test")
        try:
            with pytest.raises(RuntimeError, match="ProfileError"):
                vehicle.run(
                    "diagnose",
                    {"app": "A", "exp": "E", "trial": "missing"},
                    1, 30.0,
                )
        finally:
            vehicle.close()


class TestHandlerRegistry:
    def test_resolve_unknown_kind_lists_available(self):
        from repro.core.result import AnalysisError

        with pytest.raises(AnalysisError, match="diagnose"):
            resolve_kind("nope")

    def test_effective_flags_static_and_dynamic(self):
        diagnose = resolve_kind("diagnose")
        assert diagnose.effective_flags({}) == (True, False)
        regress = resolve_kind("regress-check")
        assert regress.effective_flags({}) == (False, True)
        trace = resolve_kind("trace-app")
        assert trace.effective_flags({"store": False}) == (True, False)
        assert trace.effective_flags({"store": True}) == (False, True)

    def test_product_job_kinds(self):
        # A fresh interpreter: none of the kinds tests register (flaky,
        # span-burst) are visible, only what the package itself serves.
        out = run_fresh(
            "from repro.serve import HANDLERS; print(sorted(HANDLERS))")
        assert ast.literal_eval(out) == [
            "analyze-case", "compare", "diagnose", "lineage-scan",
            "regress-check", "run-trial", "sleep", "trace-app",
        ]

    def test_sleep_handler_reports_worker(self):
        out = resolve_kind("sleep").run(
            JobContext(db=None, worker="w9"), {"seconds": 0.0})
        assert out["worker"] == "w9"
