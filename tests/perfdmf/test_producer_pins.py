"""Pinned outputs of the trial producers that parse or roll up foreign data.

Each case pins a sha256 over everything a producer puts in a trial except
its metadata: event names and groups, thread ids, metric names, units and
derived flags, and the bytes of every exclusive, inclusive, calls and
subroutines array.  The inputs exercise the ordering and overwrite rules
each producer documents: TAU thread files in name-sort order, events and
metrics in order of first appearance, repeated lines whose last values
win while the first group stays, call counts from a later metric
directory; gprof's repeated names and rows without call counts; recursive
and two-process span trees; nested stats dicts.

The digests were computed when these producers still grew their trials
cell by cell; they must not be edited to make a change pass.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.observe.bridge import spans_to_trial
from repro.perfdmf import parse_gprof_text, read_gprof_profile, read_tau_profile
from repro.serve import stats_to_trial


def producer_digest(trial) -> str:
    h = hashlib.sha256()
    h.update(repr([(e.name, e.group) for e in trial.events]).encode())
    h.update(repr([str(t) for t in trial.threads]).encode())
    h.update(repr([(m.name, m.units, m.derived)
                   for m in trial.metrics]).encode())
    for metric in trial.metric_names():
        h.update(np.ascontiguousarray(trial.exclusive_array(metric)).tobytes())
        h.update(np.ascontiguousarray(trial.inclusive_array(metric)).tobytes())
    h.update(np.ascontiguousarray(trial.calls_array()).tobytes())
    h.update(np.ascontiguousarray(trial.subroutines_array()).tobytes())
    return h.hexdigest()


def tau_file(metric: str | None, rows: list[str]) -> str:
    header = (f"{len(rows)} templated_functions"
              + (f"_MULTI_{metric}" if metric else ""))
    return "\n".join([header, "# Name Calls Subrs Excl Incl ProfileCalls",
                      *rows, "0 aggregates"]) + "\n"


#: directory → file name → (header metric, rows)
TAU_MULTI = {
    "MULTI__TIME": {
        "profile.0.0.0": ("TIME", [
            '"main" 1 2 100 500 0 GROUP="TAU_DEFAULT"',
            '"loop" 10 0 400 400 0 GROUP="LOOP"',
            '"main => loop" 10 0 400 400 0 GROUP="TAU_CALLPATH"',
        ]),
        "profile.0.0.2": ("TIME", [
            '"main" 1 3 120 600 0',
            '"loop" 8 0 380 380 0 GROUP="LOOP"',
            '"late" 4 0 90 95 0 GROUP="IO"',
            '"loop" 9 1 300 350 0 GROUP="OTHER"',
        ]),
        "profile.0.0.10": ("TIME", [
            '"late" 2 0 50 60 0 GROUP="IO"',
            '"main" 1 1 80 400 0 GROUP="TAU_DEFAULT"',
        ]),
    },
    "MULTI__PAPI_L3_MISSES": {
        "profile.0.0.2": ("PAPI_L3_MISSES", [
            '"main" 2 5 7 70 0 GROUP="TAU_DEFAULT"',
            '"l3_only" 3 0 11 13 0 GROUP="CACHE"',
        ]),
        "profile.0.0.10": ("PAPI_L3_MISSES", [
            '"main" 6 4 9 90 0',
            '"loop" 7 0 12 12 0 GROUP="LOOP"',
        ]),
        "profile.0.0.1": ("PAPI_L3_MISSES", [
            '"dup" 1 0 1 2 0 GROUP="FIRST"',
            '"main" 1 0 1 1 0',
            '"dup" 2 1 3 4 0 GROUP="SECOND"',
        ]),
    },
}

TAU_SINGLE = {
    ".": {
        "profile.1.0.0": (None, [
            '"main" 1 1 10 40 0',
            '"main => work" 5 0 30 30 0 GROUP="TAU_CALLPATH"',
        ]),
        "profile.0.0.0": (None, [
            '"work" 5 0 25 25 0 GROUP="COMPUTE"',
            '"main" 1 1 15 40 0',
        ]),
    },
}


def write_tau(root, layout):
    for subdir, files in layout.items():
        mdir = root / subdir
        mdir.mkdir(parents=True, exist_ok=True)
        for fname, (metric, rows) in files.items():
            (mdir / fname).write_text(tau_file(metric, rows))
    return root


GPROF_TEXT = """\
Flat profile:

Each sample counts as 0.01 seconds.
  %   cumulative   self              self     total
 time   seconds   seconds    calls  ms/call  ms/call  name
 40.00      0.80      0.80      100     8.00     9.50  matxvec
 25.00      1.30      0.50     1000     0.50     0.50  pc_jacobi
 15.00      1.60      0.30                             main
 10.00      1.80      0.20      100     2.00     3.00  matxvec
 10.00      2.00      0.20       50     4.00     2.00  exchange_var

 granularity: each sample hit covers 2 byte(s)
"""


def span(span_id, parent_id, name, start, end, *, process=1, thread=0,
         cpu_ms=None):
    attrs = {"thread": thread}
    if cpu_ms is not None:
        attrs["cpu_ms"] = cpu_ms
    return {"span_id": span_id, "parent_id": parent_id, "name": name,
            "start": start, "end": end, "process": process, "attrs": attrs}


SPANS = [
    span("a", None, "cli.run", 0.0, 1.0, cpu_ms=900.0),
    span("b", "a", "recurse", 0.125, 0.75, cpu_ms=500.0),
    span("c", "b", "recurse", 0.25, 0.5, cpu_ms=200.0),
    span("d", "c", "leaf", 0.3125, 0.375),
    span("e", "a", "leaf", 0.8125, 0.875, cpu_ms=50.0),
    span("f", None, "worker.job", 2.0, 2.5, process=7, cpu_ms=400.0),
    span("g", "f", "leaf", 2.0625, 2.25, process=7, cpu_ms=150.0),
    span("h", None, "worker.job", 3.0, 3.25, process=7, thread=2),
    span("i", "gone", "orphan", 4.0, 4.5, process=7, thread=2,
         cpu_ms=100.0),
]

STATS = {
    "uptime_s": 12.5,
    "queue": {"depth": 3, "high_water": 9, "rejected": 0},
    "cache": {"hit_rate": 0.75, "entries": 40, "enabled": True},
    "workers": {"count": 2, "mode": "thread", "respawns": 1,
                "pool": {"alive": 2, "busy": False}},
    "latency": {"queue_wait": {"p50": 0.002, "p95": 0.0125}},
}

GOLDEN = {
    "bridge/spans":
        "a187621bd05e1e0ab71de227d243239e46880b89732a3859414aea8726353ea6",
    "gprof/repeated":
        "47d5b03b86c7cdcc8819febbafd2c0ece62939175af01da38c7e55aece4d87bb",
    "monitor/stats":
        "1701160ff2f5c6ff5283016be98146a3d7f166f0aefbc846cb94b7979720e803",
    "tau/multi":
        "08363c6880f1103491fa65e42048daee0960096805dbaa2840a2b584a5025ed7",
    "tau/single":
        "74060b3dcf41725d30c9ae9ac8871de9a5686fbe2e55b7525fe694c0f7cad753",
}


def produce(case, tmp_path):
    if case == "tau/multi":
        return read_tau_profile(write_tau(tmp_path / "multi", TAU_MULTI))
    if case == "tau/single":
        return read_tau_profile(write_tau(tmp_path / "single", TAU_SINGLE))
    if case == "gprof/repeated":
        path = tmp_path / "gmon.txt"
        path.write_text(GPROF_TEXT)
        trial = read_gprof_profile(path)
        assert producer_digest(trial) == producer_digest(
            parse_gprof_text(GPROF_TEXT.splitlines()))
        return trial
    if case == "bridge/spans":
        return spans_to_trial(SPANS, name="self_1")
    return stats_to_trial(STATS, name="snap_0001")


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_producer_output_pinned(case, tmp_path):
    assert producer_digest(produce(case, tmp_path)) == GOLDEN[case]
