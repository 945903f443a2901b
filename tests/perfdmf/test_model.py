"""Unit and property tests for the PerfDMF data model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.perfdmf import (
    Event,
    Metric,
    ProfileError,
    ThreadId,
    Trial,
    TrialBuilder,
)


class TestThreadId:
    def test_str_parse_roundtrip(self):
        t = ThreadId(2, 0, 5)
        assert str(t) == "2.0.5"
        assert ThreadId.parse("2.0.5") == t

    @pytest.mark.parametrize("bad", ["1.2", "a.b.c", "1.2.3.4", ""])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ProfileError):
            ThreadId.parse(bad)

    def test_ordering(self):
        assert ThreadId(0, 0, 1) < ThreadId(0, 0, 2) < ThreadId(1, 0, 0)


class TestEvent:
    def test_flat_event(self):
        e = Event("main")
        assert not e.is_callpath
        assert e.leaf == "main"

    def test_callpath_event(self):
        e = Event("main => outer => inner")
        assert e.is_callpath
        assert e.leaf == "inner"

    def test_equality_by_name(self):
        assert Event("x", "A") == Event("x", "B")
        assert len({Event("x"), Event("x"), Event("y")}) == 2

    def test_empty_name_rejected(self):
        with pytest.raises(ProfileError):
            Event("")


def time_trial(events, exclusive, inclusive, *, metric="TIME",
               metadata=None, derived=False):
    """A one-metric trial whose thread count is the arrays' width."""
    exclusive = np.array(exclusive, dtype=float)
    return (TrialBuilder("t", metadata).with_events(events)
            .with_threads(exclusive.shape[1])
            .with_metric(metric, exclusive, inclusive, derived=derived)
            .build(validate=False))


class TestTrial:
    def test_unknown_lookups_raise(self):
        t = time_trial(["e"], [[1.0]], [[1.0]], metric="M")
        with pytest.raises(ProfileError, match="unknown event"):
            t.get_exclusive("zzz", "M", 0)
        with pytest.raises(ProfileError, match="unknown metric"):
            t.get_exclusive("e", "ZZZ", 0)
        with pytest.raises(ProfileError, match="out of range"):
            t.get_exclusive("e", "M", 7)
        with pytest.raises(ProfileError, match="unknown thread"):
            t.get_exclusive("e", "M", (0, 0, 7))

    def test_main_event_prefers_main(self):
        t = time_trial(["big", "main"], [[100.0], [1.0]], [[100.0], [1.0]])
        assert t.main_event() == "main"

    def test_main_event_falls_back_to_largest_inclusive(self):
        t = time_trial(["a", "driver"], [[5.0], [1.0]], [[5.0], [50.0]])
        assert t.main_event() == "driver"

    def test_main_event_empty_trial_raises(self):
        with pytest.raises(ProfileError):
            Trial("t").main_event()

    def test_validate_rejects_exclusive_over_inclusive(self):
        t = time_trial(["e"], [[10.0]], [[5.0]])
        with pytest.raises(ProfileError, match="exclusive > inclusive"):
            t.validate()

    def test_validate_rejects_negative(self):
        t = time_trial(["e"], [[-1.0]], [[5.0]])
        with pytest.raises(ProfileError, match="negative"):
            t.validate()

    @pytest.mark.parametrize("attr", ["_calls", "_subrs"])
    def test_validate_rejects_call_count_shape_mismatch(self, attr):
        t = time_trial(["e"], [[1.0, 1.0]], [[1.0, 1.0]])
        setattr(t, attr, getattr(t, attr)[:, :1])
        with pytest.raises(ProfileError, match=r"array shape \(1, 1\) != \(1,2\)"):
            t.validate()

    @pytest.mark.parametrize("derived", [False, True])
    def test_validate_names_metric_event_and_thread_of_a_nan(self, derived):
        inclusive = np.ones((2, 3))
        inclusive[1, 2] = float("nan")
        t = time_trial(["main", "loop"], np.ones((2, 3)), inclusive,
                       metric="RATIO", derived=derived)
        with pytest.raises(ProfileError) as err:
            t.validate()
        assert str(err.value) == (
            "NaN in metric 'RATIO' inclusive at event 'loop', thread 0.0.2")

    def test_validate_rejects_nan_call_counts(self):
        t = (TrialBuilder("t").with_events(["main"]).with_threads(1)
             .with_calls([[float("nan")]]).build(validate=False))
        with pytest.raises(ProfileError, match="NaN in calls at event 'main'"):
            t.validate()

    def test_copy_is_deep(self):
        t = time_trial(["e"], [[1.0]], [[2.0]], metric="M",
                       metadata={"k": "v"})
        c = t.copy("c")
        c.exclusive_array("M")[0, 0] = 9.0
        c.inclusive_array("M")[0, 0] = 9.0
        assert t.get_exclusive("e", "M", 0) == 1
        assert c.name == "c" and c.metadata == {"k": "v"}

    def test_metadata_is_copied_at_construction(self):
        meta = {"threads": 8}
        t = Trial("t", meta)
        meta["threads"] = 99
        assert t.metadata["threads"] == 8


class TestTrialBuilder:
    def test_bulk_build(self):
        exc = np.array([[1.0, 2.0], [3.0, 4.0]])
        inc = exc * 2
        trial = (
            TrialBuilder("b", {"case": "unit"})
            .with_events(["main", "loop"])
            .with_threads(2)
            .with_metric("TIME", exc, inc, units="usec")
            .with_calls(np.ones((2, 2)))
            .build()
        )
        assert trial.get_exclusive("loop", "TIME", 1) == 4.0
        assert trial.get_inclusive("main", "TIME", 0) == 2.0
        assert trial.get_calls("main", 1) == 1.0

    def test_shape_mismatch_rejected(self):
        b = TrialBuilder("b").with_events(["e"]).with_threads(2)
        with pytest.raises(ProfileError, match="shape"):
            b.with_metric("TIME", np.zeros((2, 2)))

    def test_node_mapping(self):
        trial = (
            TrialBuilder("b")
            .with_events(["e"])
            .with_threads(4, node_of=lambda i: i // 2)
            .with_metric("TIME", np.zeros((1, 4)))
            .build()
        )
        assert [t.node for t in trial.threads] == [0, 0, 1, 1]

    def test_subroutines_shape_checked(self):
        # a (2, 1) column once broadcast across all three threads
        b = TrialBuilder("b").with_events(["main", "loop"]).with_threads(3)
        with pytest.raises(ProfileError, match=r"subroutines array shape \(2, 1\)"):
            b.with_calls(np.ones((2, 3)), np.array([[1.0], [2.0]]))

    def test_repeated_metric_rejected_at_build(self):
        b = (TrialBuilder("b").with_events(["e"]).with_threads(1)
             .with_metric("TIME", np.ones((1, 1)))
             .with_metric("TIME", np.zeros((1, 1))))
        with pytest.raises(ProfileError, match="duplicate metric 'TIME'"):
            b.build()

    def test_build_validates(self):
        b = TrialBuilder("b").with_events(["e"]).with_threads(1)
        b.with_metric("TIME", np.array([[5.0]]), np.array([[1.0]]))
        with pytest.raises(ProfileError):
            b.build()
        assert b.build(validate=False) is not None


def arrays_trial(events=("main", "loop"), threads=(0, 1), metrics=("TIME",),
                 **arrays):
    shape = (len(events), len(threads))
    return Trial.from_arrays(
        "t", {"k": "v"}, [Event(e) for e in events],
        [ThreadId(0, 0, t) for t in threads], [Metric(m) for m in metrics],
        arrays.get("exclusive", [np.ones(shape)] * len(metrics)),
        arrays.get("inclusive", [np.full(shape, 2.0)] * len(metrics)),
        arrays.get("calls", np.ones(shape)),
        arrays.get("subroutines", np.zeros(shape)))


class TestFromArrays:
    def test_keeps_contiguous_float64_arrays(self):
        exc, calls = np.ones((2, 2)), np.ones((2, 2))
        t = arrays_trial(exclusive=[exc], calls=calls)
        assert t.exclusive_array("TIME") is exc
        assert t.calls_array() is calls
        assert t.metadata == {"k": "v"}
        assert t.get_inclusive("loop", "TIME", 1) == 2.0

    def test_converts_strided_and_integer_arrays(self):
        block = np.arange(12.0).reshape(2, 2, 3)
        t = arrays_trial(exclusive=[block[:, :, 1]],
                         calls=np.ones((2, 2), dtype=np.int64))
        exc = t.exclusive_array("TIME")
        assert exc.flags.c_contiguous and exc.dtype == np.float64
        np.testing.assert_array_equal(exc, block[:, :, 1])
        assert t.calls_array().dtype == np.float64

    @pytest.mark.parametrize("axis, message", [
        ("events", "duplicate event 'main'"),
        ("threads", "duplicate thread 0.0.1"),
        ("metrics", "duplicate metric 'TIME'"),
    ])
    def test_repeated_name_rejected(self, axis, message):
        repeated = {"events": ("main", "loop", "main"), "threads": (0, 1, 1),
                    "metrics": ("TIME", "TIME")}
        with pytest.raises(ProfileError, match=message):
            arrays_trial(**{axis: repeated[axis]})

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ProfileError,
                           match=r"subroutines array shape \(2, 1\) != \(2, 2\)"):
            arrays_trial(subroutines=np.zeros((2, 1)))

    def test_one_array_pair_per_metric(self):
        with pytest.raises(ProfileError, match="2 metrics but 1 exclusive"):
            arrays_trial(metrics=("TIME", "L3"), exclusive=[np.ones((2, 2))])


@settings(max_examples=30, deadline=None)
@given(
    n_events=st.integers(min_value=1, max_value=6),
    n_threads=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_builder_roundtrip_property(n_events, n_threads, data):
    """Values written through the builder read back exactly."""
    exc = np.array(
        data.draw(
            st.lists(
                st.lists(
                    st.floats(min_value=0, max_value=1e9, allow_nan=False),
                    min_size=n_threads,
                    max_size=n_threads,
                ),
                min_size=n_events,
                max_size=n_events,
            )
        )
    )
    events = [f"e{i}" for i in range(n_events)]
    trial = (
        TrialBuilder("prop")
        .with_events(events)
        .with_threads(n_threads)
        .with_metric("M", exc)
        .build()
    )
    for e in range(n_events):
        for t in range(n_threads):
            assert trial.get_exclusive(events[e], "M", t) == exc[e, t]
            assert trial.get_inclusive(events[e], "M", t) == exc[e, t]
