"""Span recording around the program's public entry points.

The traced run wraps one fixed list of functions (``ENTRY_POINTS``) and
records a span per call: layer name, start, end, parent span and the op
that was running.  Nothing inside ``src/`` changes: each function is
replaced at every attribute its callers look up at call time (the class
for methods; every loaded ``repro`` module that binds the function for
plain functions) and put back by :meth:`Recorder.restore`.

Layer names follow the module names; a layer's self time is its spans'
duration minus the part covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable


def trial_values(trial) -> int:
    """Numbers a trial holds: exclusive+inclusive per (metric, event,
    thread), plus calls+subroutines per (event, thread)."""
    return trial.event_count * trial.thread_count * (2 * len(trial.metrics) + 2)


def _count_save(args, kwargs, out) -> dict[str, float]:
    trial = kwargs.get("trial", args[3] if len(args) > 3 else None)
    return {"perfdmf.save_calls": 1, "perfdmf.values_written": trial_values(trial)}


def _count_facts(args, kwargs, out) -> dict[str, float]:
    return {"knowledge.facts_asserted": len(args[1])}


def _count_firings(args, kwargs, out) -> dict[str, float]:
    return {"rules.firings": out}


def _count_trace(args, kwargs, out) -> dict[str, float]:
    return {"runtime.trace_events": len(out.trace)}


def _count_calls(name: str) -> Callable:
    return lambda args, kwargs, out: {name: 1}


#: (module, attribute, layer, per-call counter).  The whole traced surface.
ENTRY_POINTS: list[tuple[str, str, str, Callable | None]] = [
    ("repro.perfdmf.database", "PerfDMF.save_trial", "perfdmf.save", _count_save),
    ("repro.perfdmf.database", "PerfDMF.load_trial", "perfdmf.load", None),
    ("repro.perfdmf.database", "PerfDMF.content_hash", "perfdmf.content_hash",
     _count_calls("perfdmf.content_hash_calls")),
    ("repro.core.harness", "RuleHarness.assertObjects", "rules.assert", _count_facts),
    ("repro.core.harness", "RuleHarness.processRules", "rules.run", _count_firings),
    ("repro.knowledge.rulebase", "diagnose_load_balance", "knowledge.facts", None),
    ("repro.knowledge.rulebase", "diagnose_genidlest", "knowledge.facts", None),
    ("repro.knowledge.rulebase", "diagnose_timeline", "knowledge.facts", None),
    ("repro.core.operations.tracing", "detect_wait_states", "tracing.wait_states",
     _count_calls("tracing.wait_states_calls")),
    ("repro.apps.msa.parallel", "run_msa_trial", "apps.simulate", None),
    ("repro.apps.genidlest.simulate", "run_genidlest", "apps.simulate", None),
    ("repro.knowledge.recommendations", "render_report", "knowledge.report", None),
    ("repro.workflows.pipeline", "trace_application", "workflows.self", _count_trace),
]

#: Every layer the wrappers can attribute time to.
LAYERS = sorted({layer for _, _, layer, _ in ENTRY_POINTS})
#: Every counter the wrappers can produce.
COUNTERS = ("runtime.trace_events", "perfdmf.save_calls", "perfdmf.values_written",
            "perfdmf.content_hash_calls", "knowledge.facts_asserted",
            "rules.firings", "tracing.wait_states_calls")


class Recorder:
    """In-memory span store plus the install/restore of the wrappers.

    A span is ``[name, start, end, parent, op, thread]``; ``parent`` is
    the index of the enclosing span on the same thread (or ``None``) and
    ``op`` is the op id the calling thread set with :meth:`set_op`.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[Any, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[Any, str, Any]] = []

    # -- op context --------------------------------------------------------
    def set_op(self, op: Any) -> None:
        """Tag the spans this thread records from now on with ``op``."""
        self._local.op = op

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrapping ----------------------------------------------------------
    def wrap(self, layer: str, fn: Callable, counter: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            op = getattr(self._local, "op", None)
            span = [layer, time.perf_counter(), None,
                    stack[-1] if stack else None, op, threading.get_ident()]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counts = counter(args, kwargs, out)
                with self._lock:
                    for name, n in counts.items():
                        self.counts[op][name] += n
            return out

        return wrapper

    def install(self) -> "Recorder":
        """Wrap every entry point wherever ``repro`` modules bind it."""
        for module_name, attr, layer, counter in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner_name, _, name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[name]
                self._patch(owner, name, self.wrap(layer, original, counter))
                continue
            original = getattr(module, name)
            wrapper = self.wrap(layer, original, counter)
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("repro")
                        and mod.__dict__.get(name) is original):
                    self._patch(mod, name, wrapper)
        return self

    def _patch(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        """Put every original back (in reverse patch order)."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- analysis ----------------------------------------------------------
    def by_op(self) -> dict[Any, dict[str, Any]]:
        """Per op: self seconds per layer, seconds inside at least one
        layer span (``covered``) and the counters."""
        own = [s[2] - s[1] for s in self.spans]
        for span in self.spans:
            if span[3] is not None:
                own[span[3]] -= span[2] - span[1]
        out: dict[Any, dict[str, Any]] = {}
        for span, seconds in zip(self.spans, own):
            entry = out.setdefault(span[4], {"layers": {}, "covered": 0.0, "counts": {}})
            entry["layers"][span[0]] = entry["layers"].get(span[0], 0.0) + seconds
            if span[3] is None:
                entry["covered"] += span[2] - span[1]
        for op, counts in self.counts.items():
            out.setdefault(op, {"layers": {}, "covered": 0.0, "counts": {}})
            out[op]["counts"] = dict(counts)
        return out

    def dump(self, path) -> None:
        """Write spans and counters as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "counts": [[op, dict(c)] for op, c in self.counts.items()]}, fh)

    @classmethod
    def load(cls, path) -> "Recorder":
        """A recorder holding what :meth:`dump` wrote (not installed)."""
        with open(path) as fh:
            data = json.load(fh)
        rec = cls()
        rec.spans = data["spans"]
        for op, counts in data["counts"]:
            rec.counts[op].update(counts)
        return rec
