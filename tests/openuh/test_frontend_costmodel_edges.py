"""Edge-case tests: frontend builder, feedback, instrumentation."""

import pytest

from repro.openuh import (
    FeedbackOptimizer,
    IRError,
    InstrumentationSpec,
    TuningPlan,
    compile_program,
    plan_instrumentation,
)
from repro.openuh.frontend import (
    ProgramBuilder,
    add,
    const,
    intrinsic,
    var,
)
from repro.rules import Fact


class TestFrontendEdges:
    def test_if_else_builder(self):
        pb = ProgramBuilder("p")
        f = pb.function("f")
        with f.if_(add(var("a"), const(1.0)), taken_probability=0.7):
            f.assign("x", const(1.0))
        with f.else_():
            f.assign("x", const(2.0))
        program = pb.build()
        node = program.function("f").body.stmts[0]
        assert node.taken_probability == 0.7
        assert node.else_body is not None
        assert len(node.then_body.stmts) == 1

    def test_else_without_if_rejected(self):
        pb = ProgramBuilder("p")
        f = pb.function("f")
        f.assign("x", const(1.0))
        with pytest.raises(IRError, match="must directly follow"):
            with f.else_():
                pass

    def test_double_else_rejected(self):
        pb = ProgramBuilder("p")
        f = pb.function("f")
        with f.if_(var("c")):
            f.assign("x", const(1.0))
        with f.else_():
            f.assign("x", const(2.0))
        with pytest.raises(IRError, match="already has an else"):
            with f.else_():
                pass

    def test_intrinsic_in_program(self):
        pb = ProgramBuilder("p")
        f = pb.function("f")
        f.assign("s", intrinsic("sqrt", var("x"), cost_flops=12))
        program = pb.build(entry="f")
        sig = compile_program(program, "O0").signature()
        assert sig.flops >= 12

    def test_empty_program_rejected(self):
        with pytest.raises(IRError, match="no functions"):
            ProgramBuilder("p").build()

    def test_entry_selection(self):
        pb = ProgramBuilder("p")
        pb.function("a").assign("x", const(1.0))
        pb.function("b").assign("y", const(2.0))
        program = pb.build(entry="b")
        assert program.entry == "b"
        pb2 = ProgramBuilder("q")
        pb2.function("f").assign("x", const(1.0))
        with pytest.raises(IRError, match="no function"):
            pb2.build(entry="ghost")


class TestFeedbackEdges:
    def test_fp_bound_handler(self):
        plan = FeedbackOptimizer().plan(
            [Fact("Recommendation", category="fp-bound", event="solver")]
        )
        assert plan.optimization_level == "O3"

    def test_more_counters_handler_keeps_plan(self):
        plan = FeedbackOptimizer().plan(
            [Fact("Recommendation", category="more-counters", event="x")]
        )
        assert plan.schedule is None and not plan.parallelize_regions
        assert "additional counter run" in plan.decisions[0]

    def test_memory_bound_sets_cache_goal(self):
        plan = FeedbackOptimizer().plan(
            [Fact("Recommendation", category="memory-bound", event="pc")]
        )
        assert plan.goal == "cache"

    def test_plan_accumulates_over_base(self):
        base = TuningPlan(schedule="dynamic,4")
        plan = FeedbackOptimizer().plan(
            [Fact("Recommendation", category="sequential-bottleneck",
                  event="copy")],
            base=base,
        )
        assert plan.schedule == "dynamic,4"
        assert "copy" in plan.parallelize_regions


class TestInstrumentationEdges:
    def _program(self):
        pb = ProgramBuilder("p")
        helper = pb.function("helper")
        helper.assign("h", const(1.0))
        f = pb.function("main")
        with f.loop("i", 16):
            f.store("u", "i", const(0.0))
        f.call("helper")
        return pb.build(entry="main")

    def test_callsite_instrumentation(self):
        plan = plan_instrumentation(
            self._program(), InstrumentationSpec(callsites=True)
        )
        names = plan.selected_events()
        assert "callsite: main->helper" in names

    def test_loop_event_names(self):
        plan = plan_instrumentation(
            self._program(), InstrumentationSpec(loops=True)
        )
        assert "loop: main/i" in plan.selected_events()

    def test_unknown_point_lookup(self):
        plan = plan_instrumentation(self._program(), InstrumentationSpec())
        with pytest.raises(KeyError):
            plan.point("ghost")
