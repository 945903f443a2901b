"""The benchmark's four workloads over the Fig. 3 path.

Each workload turns ``--seed`` into a fixed op sequence and inputs, runs
one *block* of that sequence (ops ``[start, stop)``) as a single-process
closed loop, and checks every op's output.  The program is reached only
through public functions, looked up at call time so that the traced run's
wrappers (:mod:`spans`) see every call.

:func:`run_block` is the unit ``run.py`` runs in a fresh process; tests
call it in-process with tiny op ranges.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro import knowledge
from repro.apps.genidlest import KERNEL_EVENTS, RIB90, RunConfig
from repro.apps.genidlest import simulate as genidlest
from repro.apps.msa import parallel as msa
from repro.core.result import AnalysisError
from repro.knowledge import recommendations_of, rulebase
from repro.perfdmf import PerfDMF, TrialBuilder
from repro.serve import SocketClient
from repro.workflows import pipeline

from host import HostProbe
from spans import Recorder, trial_values

HERE = Path(__file__).resolve().parent


def derive(seed: int, *parts: Any) -> int:
    """A 31-bit integer that depends only on ``seed`` and ``parts``."""
    return random.Random("/".join(map(str, (seed, *parts)))).getrandbits(31)


def synth_trial(name: str, *, seed: int, n_events: int, n_threads: int,
                n_hot: int, n_edges: int):
    """A load-imbalanced TIME trial with a large callgraph.

    A chain of ``n_hot`` imbalanced, anti-correlated regions (what the
    load-imbalance rule joins on) inside a callgraph padded to
    ``n_edges`` edges with calls into unprofiled externals.
    """
    rng = np.random.default_rng(seed)
    events = ["main"] + [f"region_{i}" for i in range(n_events - 1)]
    edges = [["main", "region_0"]]
    edges += [[f"region_{i}", f"region_{i + 1}"] for i in range(n_hot)]
    edges += [[f"region_{k % (n_events - 1)}", f"ext_{k}"]
              for k in range(n_edges - len(edges))]
    exc = rng.random((n_events, n_threads)) * 10.0
    base = rng.random(n_threads) * 4000.0
    for i in range(n_hot + 1):
        exc[1 + i] = 500.0 + (base if i % 2 else base.max() - base)
    exc[0] = 100.0
    inc = exc.copy()
    inc[0] = exc.sum(axis=0)
    return (TrialBuilder(name, {"callgraph": edges})
            .with_events(events).with_threads(n_threads)
            .with_metric("TIME", exc, inc, units="usec").build())


def rec_payload(recs) -> list[dict[str, Any]]:
    """Recommendations in the service's wire shape."""
    return [{"category": r.category, "event": r.event,
             "severity": r.severity, "message": r.message} for r in recs]


def _categories(recs) -> dict[str, set]:
    out: dict[str, set] = {}
    for rec in recs:
        out.setdefault(rec.category, set()).add(rec.event)
    return out


class Workload:
    """One block of a workload: plan, inputs, set-up, ops and checks.

    ``make_plan`` is a pure function of the seed and the op range, so a
    sequence split into blocks is the same sequence whatever the split.
    """

    name = ""
    why = ""
    #: Ops per block (one fresh process each).
    block_ops = 0

    def __init__(self, *, seed: int, start: int, stop: int, workdir: Path,
                 refs: dict[str, Any], traced: bool = False) -> None:
        self.seed = seed
        self.traced = traced
        self.plan = self.make_plan(seed, start, stop)
        self.workdir = Path(workdir)
        self.db_path = self.workdir / f"{self.name}-{start}.db"
        self.refs = refs
        self.stored: dict[tuple, int] = {}
        self.db: PerfDMF | None = None

    @classmethod
    def make_plan(cls, seed: int, start: int, stop: int) -> list[dict]:
        raise NotImplementedError

    def make_inputs(self) -> None:
        """Generate the block's inputs (excluded from set-up time)."""

    def input_bytes(self) -> bytes:
        return b""

    def digest(self) -> str:
        """sha256 over the op sequence and the generated inputs."""
        h = hashlib.sha256(json.dumps(self.plan, sort_keys=True).encode())
        h.update(self.input_bytes())
        return h.hexdigest()

    def make_refs(self) -> None:
        """Compute reference results untimed (excluded from set-up)."""

    def setup(self) -> None:
        if self.db_path.exists():
            self.db_path.unlink()
        self.db = PerfDMF(self.db_path)

    def run_op(self, op: dict) -> dict:
        raise NotImplementedError

    def check(self, op: dict, out: dict) -> str | None:
        """An error message, or ``None`` when the output is correct."""
        raise NotImplementedError

    def loop(self, recorder: Recorder | None,
             probe: HostProbe) -> tuple[list[dict], float]:
        """Closed loop over the plan; returns op records and loop wall.

        The host probe runs between ops; an op's ``host`` is the mean of
        the probes on either side of it.
        """
        records = []
        before = probe.measure()
        for op in self.plan:
            if recorder is not None:
                recorder.set_op(op["id"])
            t0 = time.perf_counter()
            try:
                out, error = self.run_op(op), None
            except Exception as exc:  # noqa: BLE001 - counted as failed
                out, error = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            if recorder is not None:
                recorder.set_op(None)
            if error is None:
                self.stored.update(out.get("stored", {}))
                try:
                    error = self.check(op, out)
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    error = f"check raised {type(exc).__name__}: {exc}"
            after = probe.measure()
            records.append({"id": op["id"], "kind": op["kind"], "wall": wall,
                            "host": (before + after) / 2, "error": error})
            before = after
        return records, sum(r["wall"] for r in records)

    def finish(self, records: list[dict]) -> None:
        """Runs after the loop, before storage and memory are measured."""

    def trace_extras(self) -> dict[str, Any]:
        """Extra traced-run fields for the block record."""
        return {}

    def db_bytes(self) -> int:
        """Database file size once the WAL is folded back in."""
        self.db.connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        return os.path.getsize(self.db_path)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
        for suffix in ("", "-wal", "-shm"):
            path = Path(f"{self.db_path}{suffix}")
            if path.exists():
                path.unlink()


class PaperCases(Workload):
    name = "paper_cases"
    why = ("the paper's four case studies through the CLI path: "
           "simulation-heavy small trials")
    block_ops = 24
    KINDS = ("msa_static", "msa_dynamic", "genidlest_unopt", "genidlest_opt")

    @classmethod
    def make_plan(cls, seed, start, stop):
        return [{"id": i, "kind": cls.KINDS[i % 4],
                 "seed": derive(seed, cls.name, i)} for i in range(start, stop)]

    def run_op(self, op):
        kind = op["kind"]
        if kind.startswith("msa"):
            schedule = "static" if kind == "msa_static" else "dynamic,1"
            trial = msa.run_msa_trial(n_sequences=400, n_threads=16,
                                      schedule=schedule, seed=op["seed"]).trial
            app, exp = "MSAP", schedule
            diagnose = rulebase.diagnose_load_balance
        else:
            config = RunConfig(case=RIB90, version="openmp",
                               optimized=kind == "genidlest_opt",
                               n_procs=16, iterations=3)
            trial = genidlest.run_genidlest(config).trial
            app, exp = "GenIDLEST", RIB90.name
            diagnose = rulebase.diagnose_genidlest
        trial.name = f"{trial.name}_op{op['id']}"
        self.db.save_trial(app, exp, trial)
        harness = diagnose(self.db.load_trial(app, exp, trial.name))
        report = knowledge.render_report(
            harness, title=f"Diagnosis of {app}/{trial.name}")
        return {"harness": harness, "report": report,
                "stored": {(app, exp, trial.name): trial_values(trial)}}

    def check(self, op, out):
        harness = out["harness"]
        recs = recommendations_of(harness)
        cats = _categories(recs)
        kind = op["kind"]
        if not out["report"].startswith("Diagnosis of "):
            return "report has no title"
        if kind == "msa_static":
            imb = [r for r in recs if r.category == "load-imbalance"]
            if not imb:
                return "static MSA: load-imbalance rule did not fire"
            rec = imb[0]
            if (rec.event != msa.EVENT_INNER
                    or rec.details.get("parent") != msa.EVENT_OUTER
                    or rec.details.get("suggested_schedule") != "dynamic,1"
                    or not rec.details.get("imbalance_ratio", 0) > 0.25):
                return f"static MSA: unexpected recommendation {rec}"
            if not any("static" in line for line in harness.output):
                return "static MSA: no schedule=static corroboration"
        elif kind == "msa_dynamic":
            if "load-imbalance" in cats:
                return "dynamic,1 MSA: load-imbalance fired"
        elif kind == "genidlest_unopt":
            for category in ("memory-bound", "data-locality"):
                events = cats.get(category, set())
                if len(events) < 3 or not events <= set(KERNEL_EVENTS):
                    return f"unoptimized GenIDLEST: {category} = {events}"
            if not cats.get("sequential-bottleneck", set()) & {
                    "ghost_copy", "mpi_send_recv_ko"}:
                return "unoptimized GenIDLEST: no sequential-bottleneck"
        else:
            if "sequential-bottleneck" in cats:
                return "optimized GenIDLEST: sequential-bottleneck fired"
            if len(cats.get("data-locality", ())) > 1:
                return "optimized GenIDLEST: data-locality still flagged"
        return None


class TraceTimeline(Workload):
    name = "trace_timeline"
    why = ("traced runs: wait states, timeline rules and replacing "
           "interval sub-trials")
    block_ops = 8

    @classmethod
    def make_plan(cls, seed, start, stop):
        msa_seeds = [derive(seed, cls.name, k) for k in range(4)]
        return [{"id": i, "kind": "msa", "seed": msa_seeds[(i // 2) % 4]}
                if i % 2 == 0 else {"id": i, "kind": "genidlest_mpi"}
                for i in range(start, stop)]

    @staticmethod
    def ref_key(op) -> str:
        if op["kind"] == "msa":
            return f"trace_timeline/msa400x16/{op['seed']}"
        return "trace_timeline/genidlest_mpi16x8"

    @staticmethod
    def trace(op, repository):
        if op["kind"] == "msa":
            return pipeline.trace_application(
                "msa", repository=repository, n_sequences=400, n_threads=16,
                seed=op["seed"])
        return pipeline.trace_application(
            "genidlest", repository=repository, case=RIB90, version="mpi",
            n_procs=16, iterations=8)

    def make_refs(self):
        for op in self.plan:
            key = self.ref_key(op)
            if key not in self.refs:
                res = self.trace(op, None)
                self.refs[key] = [len(res.wait_states), len(res.recommendations)]

    def run_op(self, op):
        res = self.trace(op, self.db)
        app = "MSAP" if op["kind"] == "msa" else "GenIDLEST"
        values = trial_values(res.trial) + sum(map(trial_values, res.snapshots))
        return {"result": res, "stored": {(app, "traced", res.trial.name): values}}

    def check(self, op, out):
        res = out["result"]
        got = [len(res.wait_states), len(res.recommendations)]
        want = self.refs[self.ref_key(op)]
        if got != want:
            return f"{op['kind']}: wait states/recommendations {got} != {want}"
        if res.trial_id is None or not res.interval_ids:
            return f"{op['kind']}: trial or interval sub-trials not stored"
        return None


class WideProfile(Workload):
    name = "wide_profile"
    why = ("a 1024-rank x 200-event profile: storage-bound, "
           "no simulation")
    block_ops = 2
    N_INPUTS = 3
    EXPECTED_RECS = 12

    @classmethod
    def make_plan(cls, seed, start, stop):
        return [{"id": i, "kind": "wide", "input": i % cls.N_INPUTS}
                for i in range(start, stop)]

    def make_inputs(self):
        self.inputs = [
            synth_trial("wide", seed=derive(self.seed, self.name, k),
                        n_events=200, n_threads=1024, n_hot=12, n_edges=10_000)
            for k in range(self.N_INPUTS)]

    def input_bytes(self):
        return b"".join(t.exclusive_array("TIME").tobytes() for t in self.inputs)

    def run_op(self, op):
        trial = self.inputs[op["input"]]
        trial.name = f"wide_{op['id']}"
        self.db.save_trial("SYNTH", "ranks1024", trial)
        loaded = self.db.load_trial("SYNTH", "ranks1024", trial.name)
        harness = rulebase.diagnose_load_balance(loaded)
        report = knowledge.render_report(harness, title=f"Diagnosis of {trial.name}")
        return {"saved": trial, "loaded": loaded, "harness": harness,
                "report": report,
                "stored": {("SYNTH", "ranks1024", trial.name): trial_values(trial)}}

    def check(self, op, out):
        saved, loaded = out["saved"], out["loaded"]
        for metric in saved.metrics:
            for get in ("exclusive_array", "inclusive_array"):
                if not np.array_equal(getattr(saved, get)(metric.name),
                                      getattr(loaded, get)(metric.name)):
                    return f"loaded {metric.name} {get} differs from saved"
        if not (np.array_equal(saved.calls_array(), loaded.calls_array())
                and np.array_equal(saved.subroutines_array(),
                                   loaded.subroutines_array())):
            return "loaded call counts differ from saved"
        n = sum(r.category == "load-imbalance"
                for r in recommendations_of(out["harness"]))
        if n != self.EXPECTED_RECS:
            return f"{n} load-imbalance recommendations, want {self.EXPECTED_RECS}"
        return None


def zipf_counts(total: int, n: int, s: float) -> list[int]:
    """``total`` picks over ranks 1..n in Zipf(s) proportion, apportioned
    by largest remainder, so every block sees the same popularity mix."""
    weights = [1.0 / (r + 1) ** s for r in range(n)]
    quotas = [total * w / sum(weights) for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(n), key=lambda r: counts[r] - quotas[r])
    for r in by_remainder[:total - sum(counts)]:
        counts[r] += 1
    return counts


class ServeMix(Workload):
    name = "serve_mix"
    why = ("served diagnose jobs from 2 clients, Zipf-skewed over 64 "
           "trials, with re-uploads: cold and warm cache")
    block_ops = 160
    POOL = 64
    CLIENTS = 2
    #: Steps between host probes (the clients pause together for each).
    SEGMENT = 8
    ZIPF_S = 1.1
    #: Re-upload steps per block (10%).
    UPLOADS = round(block_ops * 0.1)
    #: A re-upload always stores a version the block has not stored yet:
    #: the service can cache a result under the content hash it took
    #: before a concurrent re-upload landed, and content that came back
    #: would then be served that stale result (see README).
    VERSIONS = 1 + max(zipf_counts(UPLOADS, POOL, ZIPF_S))
    APP, EXP = "SERVE", "pool"
    TERMINAL = ("done", "failed", "timeout", "cancelled")

    @classmethod
    def make_plan(cls, seed, start, stop):
        plan = []
        for block in range(start // cls.block_ops,
                           (stop - 1) // cls.block_ops + 1 if stop > start else 0):
            plan += [s for s in cls._block_plan(seed, block)
                     if start <= s["id"] < stop]
        return plan

    @classmethod
    def _block_plan(cls, seed, block):
        # The step pattern (which popularity rank each step reads or
        # re-uploads, in which order) depends on the block position only,
        # so every seed gets the same cold/warm cache mix; the seed picks
        # which trial holds each rank, and what every trial contains.
        steps = []
        for kind, total in (("diagnose", cls.block_ops - cls.UPLOADS),
                            ("upload", cls.UPLOADS)):
            for rank, count in enumerate(zipf_counts(total, cls.POOL, cls.ZIPF_S)):
                steps += [(kind, rank)] * count
        random.Random(f"{cls.name}/{block}").shuffle(steps)
        rank_to_trial = list(range(cls.POOL))
        random.Random(f"{seed}/{cls.name}/{block}").shuffle(rank_to_trial)
        version = [0] * cls.POOL
        plan = []
        for j, (kind, rank) in enumerate(steps):
            trial = rank_to_trial[rank]
            step = {"id": block * cls.block_ops + j, "kind": kind, "trial": trial}
            if kind == "upload":
                version[trial] += 1
                step["version"] = version[trial]
            plan.append(step)
        return plan

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # unix socket paths are limited to about 100 bytes
        sock = self.workdir / "serve.sock"
        self.endpoint = "unix:" + min(os.path.relpath(sock), str(sock), key=len)
        self.service: subprocess.Popen | None = None
        self.clients: list[SocketClient] = []
        self.spans_path: Path | None = None
        self.service_rss_mb = 0.0
        self.explained: dict[int, dict] = {}

    @staticmethod
    def trial_name(t: int) -> str:
        return f"pool_{t:02d}"

    def make_inputs(self):
        self.pool = [[synth_trial(self.trial_name(t),
                                  seed=derive(self.seed, self.name, t, v),
                                  n_events=24, n_threads=128, n_hot=2 + 2 * v,
                                  n_edges=200)
                      for v in range(self.VERSIONS)] for t in range(self.POOL)]

    def input_bytes(self):
        return b"".join(trial.exclusive_array("TIME").tobytes()
                        for versions in self.pool for trial in versions)

    def ref_key(self, t: int, v: int) -> str:
        return f"serve_mix/{self.seed}/{t}/{v}"

    def make_refs(self):
        needed = {(s["trial"], 0) for s in self.plan}
        needed |= {(s["trial"], s["version"]) for s in self.plan
                   if s["kind"] == "upload"}
        for t, v in sorted(needed):
            key = self.ref_key(t, v)
            if key not in self.refs:
                harness = rulebase.diagnose_load_balance(self.pool[t][v])
                self.refs[key] = rec_payload(recommendations_of(harness))

    def setup(self):
        super().setup()
        for versions in self.pool:
            self.db.save_trial(self.APP, self.EXP, versions[0])
        cmd = [sys.executable, str(HERE / "serve_launcher.py")]
        if self.traced:
            self.spans_path = self.workdir / f"service-{self.plan[0]['id']}.spans"
            cmd += ["--spans", str(self.spans_path)]
        cmd += ["serve", "start", "--db", str(self.db_path),
                "--endpoint", self.endpoint, "--workers", "2"]
        log = open(self.workdir / "service.log", "ab")
        try:
            self.service = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT)
        finally:
            log.close()
        deadline = time.monotonic() + 60
        while True:
            try:
                SocketClient(self.endpoint, timeout=5).close()
                break
            except OSError:
                if self.service.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("analysis service did not start")
                time.sleep(0.02)
        self.clients = [SocketClient(self.endpoint, timeout=120)
                        for _ in range(self.CLIENTS)]

    def run_step(self, client: SocketClient, step: dict, history: dict,
                 lock: threading.Lock) -> dict:
        t = step["trial"]
        t0 = time.perf_counter()
        if step["kind"] == "upload":
            self.db.save_trial(self.APP, self.EXP,
                               self.pool[t][step["version"]], replace=True)
            t1 = time.perf_counter()
            with lock:
                history[t].append((t0, t1, step["version"]))
            return {"wall": t1 - t0}
        job = client.submit("diagnose", {"app": self.APP, "exp": self.EXP,
                                         "trial": self.trial_name(t),
                                         "script": "load-balance"})
        if job["status"] not in self.TERMINAL:
            job = client.wait(job["id"], timeout=120)
        t1 = time.perf_counter()
        return {"wall": t1 - t0, "t0": t0, "t1": t1, "job": job["id"],
                "status": job["status"], "cache_hit": job["cache_hit"],
                "attempts": job["attempts"],
                "recs": (job["result"] or {}).get("recommendations")}

    def loop(self, recorder, probe):
        # Jobs run in the service process, so the probe cannot sit between
        # steps: every SEGMENT steps both clients meet at a barrier and the
        # probe runs while the service is idle.  A step's host slowdown is
        # the mean of the probes around its segment; probe time is not
        # loop time.
        records: list[dict | None] = [None] * len(self.plan)
        history = {t: [(float("-inf"), float("-inf"), 0)] for t in range(self.POOL)}
        lock = threading.Lock()
        hosts = [probe.measure()]
        probing = [0.0]

        def measure() -> None:
            t0 = time.perf_counter()
            hosts.append(probe.measure())
            probing[0] += time.perf_counter() - t0

        barrier = threading.Barrier(self.CLIENTS, action=measure)
        per_client = self.SEGMENT // self.CLIENTS

        def client_loop(c: int) -> None:
            for n, j in enumerate(range(c, len(self.plan), self.CLIENTS), 1):
                step = self.plan[j]
                if recorder is not None:
                    recorder.set_op(step["id"])
                t0 = time.perf_counter()
                try:
                    rec = self.run_step(self.clients[c], step, history, lock)
                    rec["error"] = None
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    rec = {"wall": time.perf_counter() - t0,
                           "error": f"{type(exc).__name__}: {exc}"}
                kind = step["kind"]
                if rec.get("cache_hit") is not None:
                    kind = "hit" if rec["cache_hit"] else "miss"
                records[j] = {"id": step["id"], "kind": kind,
                              "segment": (n - 1) // per_client, **rec}
                if n % per_client == 0:
                    barrier.wait()

        threads = [threading.Thread(target=client_loop, args=(c,))
                   for c in range(self.CLIENTS)]
        t0 = time.perf_counter()
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        loop_wall = time.perf_counter() - t0 - probing[0]
        if recorder is not None:
            recorder.set_op(None)
        if len(self.plan) % self.SEGMENT:
            hosts.append(probe.measure())
        for step, rec in zip(self.plan, records):
            if rec["error"] is None and rec["kind"] != "upload":
                rec["error"] = self.check_job(step, rec, history[step["trial"]])
            segment = rec.pop("segment")
            rec["host"] = (hosts[segment] + hosts[segment + 1]) / 2
            rec.pop("recs", None)
            rec.pop("t0", None)
            rec.pop("t1", None)
        self.stored = {(self.APP, self.EXP, self.trial_name(t)):
                       trial_values(self.pool[t][0]) for t in range(self.POOL)}
        return records, loop_wall

    def check_job(self, step, rec, history) -> str | None:
        """The job's recommendations must equal a direct diagnosis of a
        version of its trial that was stored while the job was in flight."""
        if rec["status"] != "done":
            return f"job {rec['job']} ended {rec['status']}"
        allowed = []
        for k, (before, _, version) in enumerate(history):
            next_after = history[k + 1][1] if k + 1 < len(history) else float("inf")
            if before <= rec["t1"] and next_after >= rec["t0"]:
                allowed.append(version)
        if any(rec["recs"] == self.refs[self.ref_key(step["trial"], v)]
               for v in allowed):
            return None
        return f"job {rec['job']}: recommendations match no version in {allowed}"

    def finish(self, records):
        if self.traced:
            for rec in records:
                if rec.get("job") is not None:
                    self.explained[rec["id"]] = self.clients[0].explain_job(rec["job"])
        self.stop_service()

    def trace_extras(self):
        service = Recorder.load(self.spans_path)
        return {
            "service_layers": service.by_op().get(None, {}),
            "service_spans": service.spans,
            "explain": {str(k): {key: v[key] for key in (
                "wall_seconds", "attribution", "cache_hit", "attempts")}
                for k, v in self.explained.items()},
        }

    def stop_service(self) -> None:
        if self.service is None:
            return
        try:
            with open(f"/proc/{self.service.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        self.service_rss_mb = int(line.split()[1]) / 1024.0
        except OSError:
            pass
        try:
            self.clients[0].shutdown()
        except (OSError, IndexError, AnalysisError):
            self.service.terminate()
        for client in self.clients:
            client.close()
        self.clients = []
        try:
            self.service.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.service.kill()
            self.service.wait()
        self.service = None

    def peak_rss_mb(self) -> float:
        return self.service_rss_mb

    def close(self):
        self.stop_service()
        super().close()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PaperCases, TraceTimeline, WideProfile, ServeMix)}


def run_block(workload: str, *, seed: int, start: int, stop: int,
              workdir: Path, traced: bool = False,
              refs: dict[str, Any] | None = None) -> dict[str, Any]:
    """Run ops ``[start, stop)`` of ``workload`` in this process.

    Returns the raw block record: op records, set-up timing anchors,
    memory and storage figures, and (traced) per-op layer attribution.
    Failures are recorded per op and never raised.
    """
    t_begin = time.monotonic()
    w = WORKLOADS[workload](seed=seed, start=start, stop=stop, workdir=workdir,
                            refs={} if refs is None else refs, traced=traced)
    w.make_inputs()
    w.make_refs()
    excluded = time.monotonic() - t_begin
    probe = HostProbe()
    recorder = Recorder().install() if traced else None
    try:
        w.setup()
        t_ready = time.monotonic()
        records, loop_wall = w.loop(recorder, probe)
        if recorder is not None:
            recorder.restore()
        w.finish(records)
        block = {
            "workload": workload, "seed": seed, "start": start, "stop": stop,
            "traced": traced, "t_begin": t_begin, "t_ready": t_ready,
            "excluded_s": excluded, "ops": records, "loop_wall": loop_wall,
            "peak_rss_mb": w.peak_rss_mb(), "db_bytes": w.db_bytes(),
            "values_stored": sum(w.stored.values()),
        }
        if recorder is not None:
            block["layers"] = {str(op): v for op, v in recorder.by_op().items()
                               if op is not None}
            block["spans"] = recorder.spans
            block.update(w.trace_extras())
        return block
    finally:
        if recorder is not None:
            recorder.restore()
        probe.close()
        w.close()
