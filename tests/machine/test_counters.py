"""Tests for CounterVector arithmetic and the stall identity helpers."""

import math
import pickle
import uuid

import pytest
from hypothesis import given, strategies as st

from repro.machine import CounterVector, STALL_COMPONENTS
from repro.machine import counters as C


class TestCounterVector:
    def test_missing_counters_read_zero(self):
        v = CounterVector({C.CPU_CYCLES: 100.0})
        assert v[C.FP_OPS] == 0.0
        assert v[C.CPU_CYCLES] == 100.0
        assert C.FP_OPS not in v and C.CPU_CYCLES in v

    def test_addition(self):
        a = CounterVector({C.CPU_CYCLES: 10, C.FP_OPS: 5})
        b = CounterVector({C.CPU_CYCLES: 20, C.L3_MISSES: 3})
        c = a + b
        assert c[C.CPU_CYCLES] == 30 and c[C.FP_OPS] == 5 and c[C.L3_MISSES] == 3
        # operands unchanged
        assert a[C.CPU_CYCLES] == 10 and b[C.L3_MISSES] == 3

    def test_iadd(self):
        a = CounterVector({C.CPU_CYCLES: 10})
        a += CounterVector({C.CPU_CYCLES: 5, C.FP_OPS: 1})
        assert a[C.CPU_CYCLES] == 15 and a[C.FP_OPS] == 1

    def test_scalar_multiply(self):
        v = 2 * CounterVector({C.CPU_CYCLES: 10})
        assert v[C.CPU_CYCLES] == 20

    def test_zero_values_dropped(self):
        v = CounterVector({C.CPU_CYCLES: 0.0, C.FP_OPS: 1.0})
        assert C.CPU_CYCLES not in v and bool(v)
        assert not bool(CounterVector())

    def test_kwargs_constructor_merges(self):
        v = CounterVector({C.FP_OPS: 1.0}, **{C.FP_OPS: 2.0})
        assert v[C.FP_OPS] == 3.0

    def test_total_stalls_sums_components(self):
        v = CounterVector({c: 1.0 for c in STALL_COMPONENTS})
        assert v.total_stalls() == pytest.approx(len(STALL_COMPONENTS))

    def test_sum_classmethod(self):
        vs = [CounterVector({C.TIME: float(i)}) for i in range(4)]
        assert CounterVector.sum(vs)[C.TIME] == 6.0

    def test_copy_independent(self):
        a = CounterVector({C.TIME: 1.0})
        b = a.copy()
        b += CounterVector({C.TIME: 1.0})
        assert a[C.TIME] == 1.0 and b[C.TIME] == 2.0


class TestPresentIffNonzero:
    """A counter is present exactly when its value is nonzero, however the
    vector was built; zero results are stored as +0.0."""

    def test_cancelling_sources_leave_no_key(self):
        v = CounterVector({C.FP_OPS: 1.0}, FP_OPS=-1.0)
        assert not v and C.FP_OPS not in v and list(v) == []
        assert v.as_dict() == (
            CounterVector({C.FP_OPS: 1.0}) + CounterVector({C.FP_OPS: -1.0})
        ).as_dict() == {}

    def test_negative_zero_inputs_are_absent_and_positive(self):
        v = CounterVector({C.TIME: -0.0, C.FP_OPS: 2.0})
        assert C.TIME not in v and list(v.keys()) == [C.FP_OPS]
        assert math.copysign(1.0, v[C.TIME]) == 1.0
        assert math.copysign(1.0, (v + v)[C.TIME]) == 1.0

    def test_times_zero_is_empty(self):
        v = CounterVector({C.TIME: 3.0, C.FP_OPS: -2.0})
        for zero in (0.0, -0.0):
            scaled = v * zero
            assert not scaled and scaled.as_dict() == {}
            assert all(
                math.copysign(1.0, x) == 1.0 for x in scaled.as_array()
            )

    def test_iadd_to_zero_drops_key(self):
        v = CounterVector({C.TIME: 2.0, C.FP_OPS: 1.0})
        v += CounterVector({C.FP_OPS: -1.0})
        assert C.FP_OPS not in v and v.as_dict() == {C.TIME: 2.0}

    def test_registry_extended_name_mixes_with_canonical(self):
        name = f"TEST_ONLY_EXTRA_{uuid.uuid4().hex}"  # new to the registry
        older = CounterVector({C.TIME: 1.0})  # built before the name exists
        extra = CounterVector({name: 5.0, C.FP_OPS: 2.0})
        assert len(older.as_array()) < len(extra.as_array())
        total = older + extra
        assert total.as_dict() == {C.TIME: 1.0, C.FP_OPS: 2.0, name: 5.0}
        assert list(total) == [C.TIME, C.FP_OPS, name]  # slot order
        older += extra
        assert older[name] == 5.0 and (extra - extra).as_dict() == {}
        assert name not in CounterVector({C.TIME: 1.0}) - extra * 0.0

    def test_pickle_round_trips_by_name(self):
        v = CounterVector({C.TIME: 1.5, "TEST_ONLY_PICKLED": 2.0})
        assert pickle.loads(pickle.dumps(v)).as_dict() == v.as_dict()


@given(
    st.dictionaries(
        st.sampled_from(C.ALL_COUNTERS),
        st.floats(min_value=0.1, max_value=1e12),
        max_size=8,
    ),
    st.dictionaries(
        st.sampled_from(C.ALL_COUNTERS),
        st.floats(min_value=0.1, max_value=1e12),
        max_size=8,
    ),
)
def test_addition_commutative_property(d1, d2):
    a, b = CounterVector(d1), CounterVector(d2)
    left, right = a + b, b + a
    for key in set(left.keys()) | set(right.keys()):
        assert left[key] == pytest.approx(right[key])


@given(
    st.dictionaries(
        st.sampled_from(C.ALL_COUNTERS),
        st.floats(min_value=0.1, max_value=1e9),
        max_size=6,
    ),
    st.floats(min_value=0.0, max_value=100.0),
)
def test_scalar_distributes_over_addition(d, k):
    v = CounterVector(d)
    doubled = v + v
    scaled = v * 2.0
    for key in doubled.keys():
        assert doubled[key] == pytest.approx(scaled[key])
    kv = v * k
    for key in v.keys():
        assert kv[key] == pytest.approx(v[key] * k)
