"""Every producer of a trial stores C-contiguous float64 value arrays, and a
result built from another owns its arrays.

Summaries over threads (``sum``/``mean`` along an axis) depend on the
memory layout for their last bits, so a strided array would change fact
values and cache keys without changing the numbers shown; a shared one
would let a write to a result reach its source.
"""

import numpy as np
import pytest

from repro.core import PerformanceResult, trial_result
from repro.core.script import ExtractRankOperation
from repro.machine import CounterVector, uniform_machine
from repro.machine import counters as C
from repro.perfdmf import PerfDMF, TrialBuilder, trial_from_dict, trial_to_dict
from repro.runtime import Profiler


def value_arrays(trial):
    for metric in trial.metric_names():
        yield trial.exclusive_array(metric)
        yield trial.inclusive_array(metric)
    yield trial.calls_array()
    yield trial.subroutines_array()


def built_trial():
    exc = np.arange(12.0).reshape(3, 4)
    # a transposed (Fortran-ordered) and a strided input
    return (TrialBuilder("built")
            .with_events(["main", "loop", "main => loop"])
            .with_threads(4)
            .with_metric("TIME", exc, exc * 2, units="usec")
            .with_metric("L3_MISSES", np.ones((4, 3)).T, np.ones((3, 8))[:, ::2])
            .with_calls(np.ones((3, 4), dtype=np.int64), np.zeros((3, 4)))
            .build())


def profiled_trial():
    p = Profiler(uniform_machine(3))
    for cpu in range(3):
        p.enter(cpu, "main")
        p.enter(cpu, "loop")
        p.charge(cpu, CounterVector({C.TIME: 5.0 + cpu, "CPU_CYCLES": 100.0}))
        p.exit(cpu, "loop")
        p.exit(cpu, "main")
    return p.to_trial("profiled")


def loaded_trial():
    with PerfDMF() as db:
        db.save_trial("A", "E", built_trial())
        return db.load_trial("A", "E", "built")


def liked_trial():
    src = trial_result(built_trial())
    builder = PerformanceResult.like(src, name="liked", n_threads=2)
    builder.with_metric("TIME", src.exclusive("TIME")[:, 1:3], derived=True)
    return builder.build(validate=False)


PRODUCERS = {
    "TrialBuilder.build": built_trial,
    "Profiler.to_trial": profiled_trial,
    "PerfDMF.load_trial": loaded_trial,
    "trial_from_dict": lambda: trial_from_dict(trial_to_dict(built_trial())),
    "PerformanceResult.like": liked_trial,
    "Trial.copy": lambda: built_trial().copy("copied"),
}


@pytest.mark.parametrize("producer", sorted(PRODUCERS))
def test_value_arrays_are_c_contiguous_float64(producer):
    trial = PRODUCERS[producer]()
    arrays = list(value_arrays(trial))
    assert len(arrays) == 2 * len(trial.metrics) + 2
    for arr in arrays:
        assert arr.dtype == np.float64
        assert arr.flags.c_contiguous
        assert arr.shape == (trial.event_count, trial.thread_count)


def test_extract_rank_result_shares_no_memory_with_its_source():
    src = trial_result(built_trial())
    out = ExtractRankOperation(src, 1, 2).process_data()[0]
    np.testing.assert_array_equal(out.exclusive("TIME"),
                                  src.exclusive("TIME")[:, 1:3])
    pairs = [(out.calls(), src.calls()),
             (out.trial.subroutines_array(), src.trial.subroutines_array())]
    for metric in src.metrics:
        pairs += [(out.exclusive(metric), src.exclusive(metric)),
                  (out.inclusive(metric), src.inclusive(metric))]
    for mine, theirs in pairs:
        assert not np.shares_memory(mine, theirs)


def test_builder_copies_what_it_is_given():
    exc = np.ones((1, 2))
    trial = (TrialBuilder("b").with_events(["main"]).with_threads(2)
             .with_metric("TIME", exc).build())
    exc[0, 0] = 99.0
    assert trial.get_exclusive("main", "TIME", 0) == 1.0
    assert not np.shares_memory(trial.exclusive_array("TIME"),
                                trial.inclusive_array("TIME"))
