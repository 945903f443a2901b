"""Tests for TAU-style callpath profiling."""

import pytest

from repro.machine import CounterVector, uniform_machine
from repro.machine import counters as C
from repro.runtime import Profiler


def vec(us):
    return CounterVector({C.TIME: us, C.CPU_CYCLES: us * 1500})


def run_two_parents(callpaths):
    """helper called from two different parents."""
    p = Profiler(uniform_machine(1), callpaths=callpaths)
    p.enter(0, "main")
    for parent, cost in (("alpha", 10.0), ("beta", 30.0)):
        p.enter(0, parent)
        p.enter(0, "helper")
        p.charge(0, vec(cost))
        p.exit(0, "helper")
        p.exit(0, parent)
    p.exit(0, "main")
    return p.to_trial("t")


class TestCallpathMode:
    def test_callpath_events_emitted(self):
        t = run_two_parents(True)
        names = t.event_names()
        assert "main => alpha => helper" in names
        assert "main => beta => helper" in names
        assert "helper" in names  # flat events still present

    def test_callpath_distinguishes_parents(self):
        """The whole point: the same leaf splits by calling context."""
        t = run_two_parents(True)
        assert t.get_exclusive("main => alpha => helper", C.TIME, 0) == 10.0
        assert t.get_exclusive("main => beta => helper", C.TIME, 0) == 30.0
        # the flat event aggregates both
        assert t.get_exclusive("helper", C.TIME, 0) == 40.0

    def test_callpath_calls_and_groups(self):
        t = run_two_parents(True)
        assert t.get_calls("main => alpha => helper", 0) == 1
        assert t.get_calls("helper", 0) == 2
        groups = {e.name: e.group for e in t.events}
        assert groups["main => alpha => helper"] == "TAU_CALLPATH"
        assert groups["helper"] == "TAU_DEFAULT"

    def test_callpath_inclusive_hierarchy(self):
        t = run_two_parents(True)
        assert t.get_inclusive("main => alpha", C.TIME, 0) == 10.0
        assert t.get_inclusive("main", C.TIME, 0) == 40.0
        t.validate()  # exclusive <= inclusive holds for callpath events too

    def test_event_model_parses_paths(self):
        t = run_two_parents(True)
        ev = next(e for e in t.events if e.name == "main => alpha => helper")
        assert ev.is_callpath
        assert ev.leaf == "helper"

    def test_flat_mode_unchanged(self):
        t = run_two_parents(False)
        assert all(" => " not in n for n in t.event_names())
        assert t.get_exclusive("helper", C.TIME, 0) == 40.0

    def test_recursion_grows_path(self):
        p = Profiler(uniform_machine(1), callpaths=True)
        p.enter(0, "f")
        p.enter(0, "f")
        p.charge(0, vec(5.0))
        p.exit(0, "f")
        p.exit(0, "f")
        t = p.to_trial("t")
        assert "f => f" in t.event_names()
        assert t.get_exclusive("f => f", C.TIME, 0) == 5.0

    def test_repeated_path_accumulates(self):
        p = Profiler(uniform_machine(1), callpaths=True)
        p.enter(0, "main")
        for _ in range(3):
            p.enter(0, "k")
            p.charge(0, vec(2.0))
            p.exit(0, "k")
        p.exit(0, "main")
        t = p.to_trial("t")
        assert t.get_exclusive("main => k", C.TIME, 0) == pytest.approx(6.0)
        assert t.get_calls("main => k", 0) == 3
