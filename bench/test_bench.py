"""Smoke tests for the benchmark itself.

    PYTHONPATH=src python -m pytest bench -q

Workloads run in-process with tiny op ranges; nothing here is timed.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
from repro.perfdmf import PerfDMF
from workloads import WORKLOADS, run_block

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
TINY_OPS = {"paper_cases": 4, "trace_timeline": 2, "wide_profile": 1,
            "serve_mix": 10}


def _block(name: str, workdir: Path, *, traced: bool, refs=None) -> dict:
    block = run_block(name, seed=0, start=0, stop=TINY_OPS[name],
                      workdir=workdir, traced=traced, refs=refs)
    block["setup_s"] = block["t_ready"] - block["t_begin"] - block["excluded_s"]
    return block


@pytest.fixture(scope="module")
def blocks(tmp_path_factory) -> dict[str, list[dict]]:
    """An untraced and a traced tiny block of every workload."""
    return {name: [_block(name, tmp_path_factory.mktemp(name), traced=traced)
                   for traced in (False, True)] for name in TINY_OPS}


def test_benchmark_json_matches_runner():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == \
        {name: cls.why for name, cls in WORKLOADS.items()}
    assert BENCHMARK["command"] == ["python3", "bench/run.py"]
    assert {(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]} == \
        set(run.END_TO_END)
    assert {(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]} == \
        set(run.per_layer_metrics())


def test_every_metric_is_emitted(blocks):
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
    layer = {m["name"] for m in BENCHMARK["per_layer"]}
    for name, pair in blocks.items():
        assert all(op["error"] is None for b in pair for op in b["ops"]), name
        metrics = run.end_to_end(pair)
        assert set(metrics) == e2e, name
        assert all(v > 0 for v in metrics.values()), (name, metrics)
        assert set(run.per_layer(pair)[0]) == layer, name


def test_traced_run_covers_op_time(blocks):
    for name, pair in blocks.items():
        metrics, _ = run.per_layer(pair)
        assert metrics["bench.coverage"] >= run.COVERAGE_GATE, (name, metrics)


def test_wrappers_are_restored(blocks):
    assert not hasattr(PerfDMF.save_trial, "__wrapped__")
    from repro.knowledge import rulebase

    assert not hasattr(rulebase.diagnose_load_balance, "__wrapped__")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_inputs_and_ops(name, tmp_path):
    cls = WORKLOADS[name]
    n = cls.block_ops

    def digest(seed):
        w = cls(seed=seed, start=0, stop=2 * n, workdir=tmp_path, refs={})
        w.make_inputs()
        return w.digest()

    assert digest(7) == digest(7)
    assert digest(7) != digest(8)
    whole = cls.make_plan(7, 0, 2 * n)
    assert whole == cls.make_plan(7, 0, n) + cls.make_plan(7, n, 2 * n)
    assert whole == cls.make_plan(7, 0, 3) + cls.make_plan(7, 3, 2 * n)


def test_wrong_expectation_lands_in_failed_share(tmp_path):
    cls = WORKLOADS["trace_timeline"]
    wrong = {cls.ref_key(op): [-1, -1]
             for op in cls.make_plan(0, 0, TINY_OPS["trace_timeline"])}
    block = _block("trace_timeline", tmp_path, traced=False, refs=wrong)
    errors = [op["error"] for op in block["ops"]]
    assert len(errors) == TINY_OPS["trace_timeline"]
    assert all(e and "!=" in e for e in errors)
