"""Benchmark runner: seeded, interleaved blocks over the Fig. 3 path.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace [0|1]] [--trace-out FILE]

Each workload's seed-derived op sequence runs in fixed-size blocks, each
block in a fresh ``python`` process (``block.py``), one process at a time.
Blocks of the selected workloads run round-robin (A B C D A B C D ...)
until every workload has had ``--seconds`` of the run and at least
``MIN_ROUNDS`` blocks, so host drift lands on all workloads alike.  Each
block pins itself to one vCPU and times a host probe between its ops;
reported times are divided by the probe's slowdown (``host.py``).

Without ``--trace`` the run gives the end-to-end metrics.  With
``--trace 1`` every other round runs with span wrappers installed; the
traced blocks give the per-layer metrics and the untraced ones the
baseline for ``bench.trace_overhead``.  Traced numbers never feed the
end-to-end metrics.

Every metric is printed as ``<workload> <metric> <value> <unit>``; the
full result is written as JSON under ``.bench_run/`` and the last line of
standard output is the one-line JSON summary.  The exit code is 0 only
when every op's output checked correct (and, traced, every workload
reached the span-coverage gate).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import COUNTERS, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

#: Set-up is reported as a median, so every run sets up at least this often.
MIN_ROUNDS = 3
#: A block that has not finished by then is killed and its ops fail.
BLOCK_TIMEOUT_S = 120
#: The traced run's span-coverage gate.
COVERAGE_GATE = 0.95

#: Gated end-to-end metrics: (name, unit).
END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("db_bytes_per_value", "B"),
]
SERVE_PHASES = ("queue", "exec", "cache", "other")


def per_layer_metrics() -> list[tuple[str, str]]:
    """Per-layer metrics: (name, unit)."""
    return ([(f"{layer}_share", "ratio") for layer in LAYERS]
            + [(name, "count") for name in COUNTERS]
            + [(f"serve.{p}_share", "ratio") for p in SERVE_PHASES]
            + [("serve.protocol_share", "ratio"), ("serve.upload_share", "ratio"),
               ("serve.cache_hit_share", "ratio"), ("serve.retries", "count"),
               ("bench.coverage", "ratio"), ("bench.trace_overhead", "ratio")])


# -- running blocks ------------------------------------------------------------

def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the block's process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def spawn_block(workload: str, *, seed: int, start: int, stop: int,
                traced: bool, run_dir: Path) -> dict:
    """Run one block in a fresh process; returns its block record."""
    tag = f"{workload}-{start}"
    spec_path = run_dir / f"{tag}.spec.json"
    result_path = run_dir / f"{tag}.result.json"
    spec_path.write_text(json.dumps({
        "workload": workload, "seed": seed, "start": start, "stop": stop,
        "traced": traced, "workdir": str(run_dir),
        "refs": str(run_dir / f"refs-{workload}.json"),
        "result": str(result_path),
    }))
    env = {**os.environ, "PYTHONPATH": str(SRC), "TMPDIR": str(run_dir),
           "SQLITE_TMPDIR": str(run_dir), "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1"}
    log_path = run_dir / f"{tag}.log"
    with open(log_path, "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "block.py"), str(spec_path)],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True)
        try:
            rc = proc.wait(timeout=BLOCK_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            rc = None
        finally:
            _stop_group(proc)
    spec_path.unlink()
    if rc == 0:
        block = json.loads(result_path.read_text())
        result_path.unlink()
        block["setup_s"] = block["t_ready"] - t_spawn - block["excluded_s"]
        return block
    reason = "timed out" if rc is None else f"exited {rc}"
    tail = log_path.read_text(errors="replace").strip().splitlines()[-1:]
    error = f"block process {reason}: {' '.join(tail)}"
    return {"workload": workload, "seed": seed, "start": start, "stop": stop,
            "traced": traced, "crashed": error,
            "ops": [{"id": i, "kind": "?", "wall": 0.0, "error": error}
                    for i in range(start, stop)]}


def run_set(workloads: list[str], *, seed: int, seconds: float, trace: bool,
            run_dir: Path, block_ops: dict[str, int]) -> dict[str, list[dict]]:
    """Round-robin blocks of ``workloads``; returns block records per workload."""
    blocks: dict[str, list[dict]] = {w: [] for w in workloads}
    budget = seconds * len(workloads)
    t0 = time.monotonic()
    rnd = 0
    while rnd < MIN_ROUNDS or time.monotonic() - t0 < budget:
        for w in workloads:
            start = rnd * block_ops[w]
            blocks[w].append(spawn_block(
                w, seed=seed, start=start, stop=start + block_ops[w],
                traced=trace and rnd % 2 == 0, run_dir=run_dir))
        rnd += 1
    return blocks


# -- metrics -------------------------------------------------------------------

def _latencies(blocks: list[dict], raw: bool = False) -> dict[str, list[float]]:
    """Latencies of the completed (non-upload) ops by op kind, divided by
    the host slowdown the probe measured next to them unless ``raw``."""
    by_kind: dict[str, list[float]] = {}
    for b in blocks:
        for op in b["ops"]:
            if op["error"] is None and op["kind"] != "upload":
                by_kind.setdefault(op["kind"], []).append(
                    op["wall"] / (1.0 if raw else op["host"]))
    return by_kind


def _op_p50(blocks: list[dict], raw: bool = False) -> float:
    """Median op latency; on workloads that rotate op kinds, the mean of
    the per-kind medians, so the value never sits on a kind boundary."""
    return statistics.fmean(statistics.median(v)
                            for v in _latencies(blocks, raw).values())


def _tail(blocks: list[dict]) -> tuple[str, float]:
    """The highest of p75/p90/p95/p99 with at least ten ops beyond it
    (the maximum when there are too few ops)."""
    walls = sorted(w for v in _latencies(blocks).values() for w in v)
    for pct in (99, 95, 90, 75):
        if len(walls) * (100 - pct) / 100 >= 10:
            return f"op_p{pct}_s", statistics.quantiles(walls, n=100)[pct - 1]
    return "op_max_s", walls[-1]


def _loop_seconds(block: dict) -> float:
    """The block's loop wall divided by the host slowdown during it."""
    ops = block["ops"]
    return block["loop_wall"] * (sum(op["wall"] / op["host"] for op in ops)
                                 / sum(op["wall"] for op in ops))


def _completed(blocks: list[dict], traced: bool) -> list[dict]:
    return [b for b in blocks if "crashed" not in b and b["traced"] == traced]


def end_to_end(blocks: list[dict]) -> dict[str, float]:
    """Gated metrics of the untraced blocks (times host-normalised)."""
    ok = _completed(blocks, traced=False)
    jobs = sum(len(v) for v in _latencies(ok).values())
    return {
        "setup_s": statistics.median(b["setup_s"] / b["ops"][0]["host"] for b in ok),
        "op_p50_s": _op_p50(ok),
        "ops_per_s": jobs / sum(map(_loop_seconds, ok)),
        "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in ok),
        "db_bytes_per_value": statistics.median(
            b["db_bytes"] / b["values_stored"] for b in ok),
    }


def diagnostics(blocks: list[dict]) -> dict[str, tuple[float, str]]:
    """Printed, never gated: the tail, raw (unnormalised) times and the
    host slowdown the probe saw."""
    ok = _completed(blocks, traced=False)
    tail_name, tail = _tail(ok)
    return {
        tail_name: (tail, "s"),
        "setup_raw_s": (statistics.median(b["setup_s"] for b in ok), "s"),
        "op_p50_raw_s": (_op_p50(ok, raw=True), "s"),
        "host_slowdown": (statistics.median(
            op["host"] for b in ok for op in b["ops"]), "ratio"),
    }


def per_layer(blocks: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of the traced blocks, plus each layer's self
    seconds per op (for the self-time table)."""
    traced = _completed(blocks, traced=True)
    plain = _completed(blocks, traced=False)
    ops = [op for b in traced for op in b["ops"] if op["error"] is None]
    n_ops = sum(op["kind"] != "upload" for op in ops)
    wall = sum(op["wall"] for op in ops)
    self_s = dict.fromkeys(LAYERS, 0.0)
    counts = dict.fromkeys(COUNTERS, 0.0)
    phases = dict.fromkeys(SERVE_PHASES + ("protocol", "upload"), 0.0)
    covered = hits = retries = 0.0
    for b in traced:
        entries = list(b["layers"].values())
        if "service_layers" in b:
            entries.append(b["service_layers"])
        for entry in entries:
            for layer, seconds in entry["layers"].items():
                self_s[layer] += seconds
            for name, n in entry["counts"].items():
                counts[name] += n
        for op in b["ops"]:
            if op["error"] is not None:
                continue
            if op["kind"] == "upload":
                phases["upload"] += op["wall"]
                covered += b["layers"].get(str(op["id"]), {}).get("covered", 0.0)
            elif "explain" in b:
                ex = b["explain"][str(op["id"])]
                for p in SERVE_PHASES:
                    phases[p] += ex["attribution"].get(p, 0.0)
                protocol = max(op["wall"] - ex["wall_seconds"], 0.0)
                phases["protocol"] += protocol
                covered += op["wall"] - ex["attribution"].get("other", 0.0)
                hits += ex["cache_hit"]
                retries += max(ex["attempts"] - 1, 0)
            else:
                covered += b["layers"].get(str(op["id"]), {}).get("covered", 0.0)
    serve = any("explain" in b for b in traced)
    metrics = {f"{layer}_share": s / wall for layer, s in self_s.items()}
    metrics.update({name: n / n_ops for name, n in counts.items()})
    metrics.update({f"serve.{p}_share": phases[p] / wall
                    for p in SERVE_PHASES + ("protocol", "upload")})
    metrics["serve.cache_hit_share"] = hits / n_ops if serve else 0.0
    metrics["serve.retries"] = retries / n_ops if serve else 0.0
    metrics["bench.coverage"] = covered / wall
    metrics["bench.trace_overhead"] = _op_p50(traced) / _op_p50(plain) - 1
    seconds_per_op = {layer: s / n_ops for layer, s in self_s.items()}
    if serve:
        seconds_per_op.update({f"serve.{p}": s / n_ops for p, s in phases.items()})
    return metrics, seconds_per_op


# -- command line -------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="run time per workload (whole blocks)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--trace-out", help="span file (JSON lines)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}")
    stamp = time.strftime("%Y%m%d-%H%M%S")
    run_dir = WORK / f"{'+'.join(names)}-seed{args.seed}-{stamp}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    blocks = run_set(names, seed=args.seed, seconds=args.seconds,
                     trace=bool(args.trace), run_dir=run_dir,
                     block_ops={w: WORKLOADS[w].block_ops for w in names})

    report: dict = {"seed": args.seed, "trace": bool(args.trace),
                    "nproc": os.cpu_count(), "workloads": {}}
    attempted = failed = 0
    summary: dict[str, dict] = {}
    gate_ok = True
    units = dict(END_TO_END + per_layer_metrics())
    for w in names:
        wb = blocks[w]
        ops = [op for b in wb for op in b["ops"]]
        errors = [op["error"] for op in ops if op["error"]]
        attempted += len(ops)
        failed += len(errors)
        print(f"\n== {w}: {WORKLOADS[w].why}")
        entry = {"blocks": len(wb), "block_ops": WORKLOADS[w].block_ops,
                 "ops": len(ops), "failed": len(errors), "errors": errors[:5],
                 "setup_s": [b.get("setup_s") for b in wb]}
        if args.trace:
            metrics, seconds_per_op = per_layer(wb)
            gate_ok &= metrics["bench.coverage"] >= COVERAGE_GATE
            print(f"{'layer':<24}{'self s/op':>12}{'share':>8}")
            for layer, s in sorted(seconds_per_op.items(), key=lambda kv: -kv[1]):
                print(f"{layer:<24}{s:>12.6f}{metrics[layer + '_share']:>8.1%}")
            top = max((k for k in seconds_per_op if not k.startswith("serve.")),
                      key=seconds_per_op.get)
            print(f"largest self time: {top}")
            entry["self_s_per_op"] = seconds_per_op
        else:
            metrics = end_to_end(wb)
            entry["diagnostics"] = diagnostics(wb)
            for name, (value, unit) in entry["diagnostics"].items():
                print(f"{w} {name} {value!r} {unit}")
        for name, value in metrics.items():
            print(f"{w} {name} {value!r} {units[name]}")
        print(f"{w} failed_share {len(errors) / len(ops)!r} ratio")
        for error in errors[:5]:
            print(f"  failed: {error}", file=sys.stderr)
        entry["metrics"] = metrics
        report["workloads"][w] = entry
        summary[w] = {name: {"value": value, "unit": units[name]}
                      for name, value in metrics.items()}

    if args.trace:
        trace_out = Path(args.trace_out) if args.trace_out else run_dir / "spans.jsonl"
        with open(trace_out, "w") as fh:
            for w in names:
                for b in blocks[w]:
                    for process, key in (("client", "spans"),
                                         ("service", "service_spans")):
                        for s in b.get(key, ()):
                            fh.write(json.dumps({
                                "workload": w, "block": b["start"],
                                "process": process, "name": s[0],
                                "start": s[1], "end": s[2], "parent": s[3],
                                "op": s[4], "thread": s[5]}) + "\n")
        print(f"\nspans: {trace_out}")
    report.update(attempted=attempted, failed=failed)
    (run_dir / "result.json").write_text(json.dumps(report, indent=1))
    print(f"result: {run_dir / 'result.json'}")
    if not gate_ok:
        print(f"span coverage below {COVERAGE_GATE}", file=sys.stderr)
    if len(names) == 1:
        metrics_out = summary[names[0]]
    else:
        metrics_out = {f"{w}/{k}": v for w, m in summary.items() for k, v in m.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics_out}))
    return 0 if failed == 0 and gate_ok else 1


if __name__ == "__main__":
    sys.exit(main())
