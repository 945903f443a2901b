"""Disabled telemetry must be an observable no-op, not a cheap op."""

import pytest

from repro import observe
from repro.observe import NOOP_INSTRUMENT
from repro.observe.tracer import NOOP_SPAN


@pytest.fixture(autouse=True)
def _clean_disabled_tracer():
    """These tests assert on emptiness of the process-global tracer, so
    start each from a blank, disabled slate regardless of test order."""
    observe.disable()
    observe.get_tracer().reset()
    yield
    observe.disable()


class TestDisabledMode:
    def test_disabled_by_default(self):
        assert not observe.enabled()

    def test_span_is_shared_noop(self):
        assert observe.span("anything", key="value") is NOOP_SPAN
        assert observe.span("other") is NOOP_SPAN  # same singleton, no alloc

    def test_noop_span_contextmanager_and_set(self):
        with observe.span("x") as sp:
            assert sp.set(a=1) is sp
        # nothing recorded
        assert observe.get_tracer().finished() == []

    def test_instruments_are_shared_noop(self):
        assert observe.counter("c") is NOOP_INSTRUMENT
        assert observe.gauge("g") is NOOP_INSTRUMENT
        assert observe.histogram("h") is NOOP_INSTRUMENT
        observe.counter("c").inc(5)
        observe.gauge("g").set(1)
        observe.histogram("h").observe(2.0)
        assert observe.get_tracer().metrics.snapshot() == []

    def test_event_dropped(self):
        observe.event("rule.output", rule="r", message="m")
        assert observe.get_tracer().events.records() == []

    def test_current_span_id_none(self):
        assert observe.current_span_id() is None

    def test_instrumented_paths_record_nothing(self):
        """End to end: a store + diagnosis with telemetry off leaves the
        global tracer empty."""
        from repro.apps.msa import run_msa_trial
        from repro.perfdmf import PerfDMF

        result = run_msa_trial(n_sequences=30, n_threads=4,
                               schedule="static", seed=0)
        with PerfDMF() as db:
            db.save_trial("MSAP", "static", result.trial)
            db.load_trial("MSAP", "static", result.trial.name)
        assert observe.get_tracer().finished() == []
        assert observe.get_tracer().metrics.snapshot() == []

    def test_enable_disable_cycle(self):
        tracer = observe.enable(fresh=True)
        try:
            with observe.span("visible"):
                pass
        finally:
            observe.disable()
        with observe.span("invisible"):
            pass
        names = [r["name"] for r in tracer.finished()]
        assert names == ["visible"]
        # collected data stays readable after disable
        assert observe.get_tracer() is tracer
