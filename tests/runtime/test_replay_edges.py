"""Edge cases of the flat trace replay.

``replay_trace`` runs a well-formed flat trace through a columnar kernel
and hands every other trace to ``_replay_eventwise``, the event-by-event
reference.  Each case here asserts the two agree: bitwise-equal profile
arrays and clocks (by ``.hex()``), or the same exception type and message.
The last test guards the one numeric assumption the kernel makes about
numpy.
"""

import math

import numpy as np

from repro.core.operations.tracing import _replay_eventwise, replay_trace
from repro.core.result import AnalysisError
from repro.machine import CounterVector, uniform_machine
from repro.machine import counters as C
from repro.runtime import EventTrace, Profiler
from repro.runtime import trace as T
from repro.runtime.tau import MeasurementError


def _outcome(replay, trace, machine):
    """What a replay gives: the trial's arrays, axes and clocks, or the
    type and message of the exception it (or ``to_trial``) raised."""
    try:
        prof = replay(trace, machine)
        trial = prof.to_trial("replayed")
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)
    arrays = [trial.calls_array(), trial.subroutines_array()]
    for metric in trial.metric_names():
        arrays += [trial.exclusive_array(metric), trial.inclusive_array(metric)]
    return (
        [(e.name, e.group) for e in trial.events],
        trial.metric_names(),
        trial.threads,
        trial.metadata["callgraph"],
        [(a.shape, a.tobytes()) for a in arrays],
        [prof.clock(t.thread).hex() for t in trial.threads],
    )


def _assert_same(trace, machine, error=None):
    fast = _outcome(replay_trace, trace, machine)
    assert fast == _outcome(_replay_eventwise, trace, machine)
    if error is not None:
        assert fast[0] is error, fast


def _traced(n_cpus=2, **kwargs):
    trace = EventTrace(**kwargs)
    return trace, Profiler(uniform_machine(n_cpus), trace=trace)


def test_trace_without_charge_vectors():
    trace, prof = _traced(record_charges=False)
    prof.enter(0, "main")
    prof.charge(0, CounterVector({C.TIME: 5.0}))
    prof.exit(0, "main")
    _assert_same(trace, uniform_machine(2), AnalysisError)


def test_exit_on_empty_stack():
    trace, prof = _traced()
    prof.enter(0, "main")
    prof.exit(0, "main")
    trace.emit(T.EXIT, 0, 0.0, "main")
    _assert_same(trace, uniform_machine(2), MeasurementError)


def test_mismatched_exit_name():
    trace, prof = _traced()
    prof.enter(0, "main")
    prof.enter(0, "inner")
    prof.charge(0, CounterVector({C.TIME: 3.0}))
    trace.emit(T.EXIT, 0, 0.0, "main")
    trace.emit(T.EXIT, 0, 0.0, "inner")
    _assert_same(trace, uniform_machine(2), MeasurementError)


def test_regions_left_open():
    trace, prof = _traced()
    prof.enter(0, "main")
    prof.enter(1, "main")
    prof.charge(1, CounterVector({C.TIME: 2.0}))
    prof.exit(1, "main")
    _assert_same(trace, uniform_machine(2), MeasurementError)


def test_calls_before_first_enter():
    trace, prof = _traced()
    trace.emit(T.CALLS, 1, 0.0, "work", {"count": 2.0})
    prof.enter(0, "work")
    prof.exit(0, "work")
    _assert_same(trace, uniform_machine(2), MeasurementError)


def test_negative_calls_count():
    trace, prof = _traced()
    prof.enter(0, "work")
    trace.emit(T.CALLS, 0, 0.0, "work", {"count": -1.0})
    prof.exit(0, "work")
    _assert_same(trace, uniform_machine(2), MeasurementError)


def test_cpu_out_of_range():
    trace, prof = _traced(n_cpus=4)
    prof.enter(3, "main")
    prof.charge(3, CounterVector({C.TIME: 1.0}))
    prof.exit(3, "main")
    _assert_same(trace, uniform_machine(2), MeasurementError)


def test_well_formed_order_sensitive_trace():
    """Fractional call counts, a CPU seen only through ``CALLS``, charges
    whose sum depends on the order of addition, and a ragged
    ``charge_set`` block recorded inside ``lockstep``."""
    trace, prof = _traced(n_cpus=4)
    big = CounterVector({C.TIME: 1e16, C.FP_OPS: 1e16, C.CPU_CYCLES: 3.0})
    one = CounterVector({C.TIME: 1.0, C.FP_OPS: 1.0})
    prof.enter(0, "main", group="APP")
    prof.add_calls(0, "main", 0.1)
    work_calls = 0.0  # the left fold of work's call counts on CPU 0
    for count in (2.0 ** 53, 0.7, 0.7):
        prof.enter(0, "work", group="LOOP")
        prof.charge(0, big)
        prof.charge(0, one)
        prof.charge(0, one)
        prof.exit(0, "work")
        prof.add_calls(0, "work", count)
        work_calls = work_calls + 1.0 + count
    prof.charge(0, one)
    prof.exit(0, "main")
    prof.add_calls(0, "main", 1e16)
    prof.add_calls(0, "main", 1.0)
    trace.emit(T.CALLS, 3, 0.0, "work", {"count": 2.5})
    rows = [np.array([big.as_array(), one.as_array(), one.as_array()]),
            np.array([one.as_array()])]
    with prof.lockstep([1, 2]):
        prof.enter_set([1, 2], "main")
        prof.enter_set([1, 2], "work")
        prof.charge_set([1, 2], rows)
        prof.exit_set([1, 2], "work")
        prof.charge_set([1, 2], rows[::-1])
        prof.exit_set([1, 2], "main")
    machine = uniform_machine(4)
    _assert_same(trace, machine)
    # the case exercises the columnar kernel, not its fallback
    fast = replay_trace(trace, machine).to_trial("fast")
    assert fast.thread_count == 3
    work = fast.event_index("work")
    assert fast.calls_array()[work, 0] == work_calls


def test_add_at_is_a_left_fold():
    """``np.add.at`` applies repeated indices unbuffered and in order, so
    each cell is the left fold a chain of ``+=`` builds; the columnar
    replay kernel relies on this to reproduce the profiler bitwise."""
    values = np.array([1e16, 1.0, 1.0, -1e16, 0.1, 1e16, 0.2, 1.0, 0.3,
                       -1e16, 1.0, 2.0 ** -60])
    index = np.array([0, 0, 0, 1, 0, 1, 2, 1, 2, 2, 0, 1])
    expected = [0.0, 0.0, 0.0]
    for i, v in zip(index.tolist(), values.tolist()):
        expected[i] += v
    got = np.zeros(3)
    np.add.at(got, index, values)
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in expected]
    # the values are order-sensitive: their exact sum differs
    assert expected[0] != math.fsum(values[index == 0])
    # two-dimensional cells, indexed by a tuple, fold the same way
    cells = np.zeros((2, 3))
    np.add.at(cells, (index % 2, index), values)
    folded = np.zeros((2, 3))
    for i, v in zip(index.tolist(), values.tolist()):
        folded[i % 2, i] += v
    assert cells.tobytes() == folded.tobytes()


def test_trace_without_region_events():
    trace = EventTrace()
    trace.phase("start", 0.0)
    _assert_same(trace, uniform_machine(2), MeasurementError)
