"""Tests for optimization levels, lowering, instrumentation, cost models."""

import pytest

from repro.machine import uniform_machine
from repro.machine import counters as C
from repro.openuh import (
    IRError,
    InstrumentationSpec,
    OPT_LEVELS,
    compile_program,
    pipeline_for,
    plan_instrumentation,
    run_instrumented,
    score_region,
)
from repro.openuh.costmodel import ProcessorCostModel, StaticAssumptions
from repro.openuh.frontend import ProgramBuilder, add, aref, const, mul, var
from repro.runtime import Profiler


def stencil_program(n=64, *, redundancy=True):
    """A GenIDLEST-flavoured kernel with optimization headroom."""
    pb = ProgramBuilder("stencil")
    f = pb.function("diff_coeff", reuse=0.85)
    f.array("u", n * n)
    f.array("c", n * n)
    with f.loop("i", n):
        with f.loop("j", n):
            expr = add(
                mul(aref("u", "i", "j"), mul(var("alpha"), var("beta"))),
                mul(aref("c", "i", "j"), const(0.5)),
            )
            if redundancy:
                # same invariant product again (CSE/LICM fodder)
                expr = add(expr, mul(var("alpha"), var("beta")))
            f.assign("t", expr)
            f.store("u", ("i", "j"), add(var("t"), const(0.0)))
    return pb.build(entry="diff_coeff")


class TestLevels:
    def test_pipelines_grow_with_level(self):
        sizes = [len(pipeline_for(l)) for l in OPT_LEVELS]
        assert sizes[0] == 0
        assert sizes == sorted(sizes)

    def test_unknown_level(self):
        with pytest.raises(IRError):
            pipeline_for("O9")
        with pytest.raises(IRError):
            compile_program(stencil_program(), "Ofast")

    def test_source_program_untouched(self):
        program = stencil_program()
        before = len(program.function("diff_coeff").body.stmts)
        compile_program(program, "O3")
        assert len(program.function("diff_coeff").body.stmts) == before

    def test_instructions_decrease_with_level(self):
        """Table I's headline shape: instruction count drops O0 -> O2."""
        program = stencil_program()
        sigs = {l: compile_program(program, l).signature() for l in OPT_LEVELS}
        inst = [sigs[l].instructions for l in OPT_LEVELS]
        assert inst[1] < inst[0] * 0.7  # regalloc removes stack traffic
        assert inst[2] < inst[1]  # CSE/LICM/DSE remove redundant work
        assert inst[3] <= inst[2]  # LNO trims loop control

    def test_time_decreases_with_level(self):
        program = stencil_program()
        m = uniform_machine(1)
        times = []
        for level in OPT_LEVELS:
            sig = compile_program(program, level).signature()
            times.append(m.processor.execute(sig)[C.TIME])
        assert times == sorted(times, reverse=True)

    def test_o3_increases_overlap_vs_o2(self):
        """Vectorize+SWP raise issued-IPC (the power-relevant knob)."""
        program = stencil_program()
        m = uniform_machine(1)
        ipc = {}
        for level in ("O2", "O3"):
            sig = compile_program(program, level).signature()
            v = m.processor.execute(sig)
            ipc[level] = v[C.INSTRUCTIONS_ISSUED] / v[C.CPU_CYCLES]
        assert ipc["O3"] > ipc["O2"]

    def test_reports_capture_pass_activity(self):
        compiled = compile_program(stencil_program(), "O2")
        reports = {r.pass_name: r for r in compiled.reports}
        licm = reports.get("LoopInvariantCodeMotion")
        assert licm is not None and licm.total_changes > 0
        assert "NotAPass" not in reports


class TestInstrumentation:
    def test_plan_selects_procedures(self):
        plan = plan_instrumentation(stencil_program(), InstrumentationSpec())
        assert plan.selected_events() == ["diff_coeff"]

    def test_selective_scoring_skips_tiny_hot_regions(self):
        pb = ProgramBuilder("p")
        tiny = pb.function("tiny")
        tiny.assign("x", const(1.0))
        big = pb.function("big")
        with big.loop("i", 10000):
            big.store("u", "i", mul(aref("u", "i"), const(2.0)))
        program = pb.build()
        plan = plan_instrumentation(
            program,
            InstrumentationSpec(min_score=1.0),
            call_counts={"tiny": 1e6, "big": 1.0},
        )
        assert plan.is_selected("big")
        assert not plan.is_selected("tiny")
        assert "below threshold" in plan.point("tiny").reason

    def test_score_region_monotonic(self):
        assert score_region(100, 1) > score_region(100, 1000)
        assert score_region(1000, 10) > score_region(10, 10)

    def test_run_instrumented_produces_profile(self):
        program = stencil_program()
        compiled = compile_program(program, "O2")
        plan = plan_instrumentation(program, InstrumentationSpec(loops=True))
        m = uniform_machine(1)
        prof = Profiler(m)
        run_instrumented(compiled, plan, m, prof, 0, calls=3)
        trial = prof.to_trial("t")
        assert trial.get_calls("diff_coeff", 0) == 3
        assert trial.has_event("loop: diff_coeff/i")
        assert trial.get_inclusive("diff_coeff", C.TIME, 0) > 0

    def test_instrumentation_overhead_measurable(self):
        program = stencil_program()
        compiled = compile_program(program, "O2")
        m = uniform_machine(1)
        lean = plan_instrumentation(program, InstrumentationSpec())
        heavy = plan_instrumentation(
            program,
            InstrumentationSpec(loops=True, probe_overhead_us=200.0),
        )
        p1, p2 = Profiler(m), Profiler(m)
        run_instrumented(compiled, lean, m, p1, 0)
        run_instrumented(compiled, heavy, m, p2, 0)
        t1 = p1.to_trial("lean").get_inclusive("diff_coeff", C.TIME, 0)
        t2 = p2.to_trial("heavy").get_inclusive("diff_coeff", C.TIME, 0)
        assert t2 > t1


class TestCostModels:
    def test_processor_model_prediction_positive(self):
        sig = compile_program(stencil_program(), "O2").signature()
        est = ProcessorCostModel().predict(sig)
        assert est.total > 0
        assert est.issue_cycles > 0 and est.memory_cycles > 0

    def test_calibration_changes_prediction(self):
        sig = compile_program(stencil_program(), "O2").signature()
        base = ProcessorCostModel()
        calibrated = base.with_assumptions(assumed_miss_penalty_cycles=50.0)
        assert calibrated.predict(sig).memory_cycles > base.predict(sig).memory_cycles

    def test_combined_model_calibration_from_counters(self):
        calibrated = ProcessorCostModel().calibrate(
            {
                C.CPU_CYCLES: 1e9,
                C.BACK_END_BUBBLE_ALL: 6e8,
                C.L2_DATA_REFERENCES: 1e7,
                C.L1D_CACHE_MISS_STALLS: 3e8,
            }
        )
        assert calibrated.assumptions.assumed_stall_fraction == pytest.approx(0.6)
        assert calibrated.assumptions.assumed_miss_penalty_cycles == pytest.approx(30.0)

    def test_calibration_without_counters_keeps_assumptions(self):
        assert ProcessorCostModel().calibrate({}).assumptions == StaticAssumptions()

    def test_calibration_clamps_stall_fraction(self):
        calibrated = ProcessorCostModel().calibrate(
            {C.CPU_CYCLES: 1e6, C.BACK_END_BUBBLE_ALL: 3e6}
        )
        assert calibrated.assumptions.assumed_stall_fraction == 1.0

    def test_calibration_without_references_keeps_miss_penalty(self):
        calibrated = ProcessorCostModel().calibrate(
            {C.L2_DATA_REFERENCES: 0.0, C.L1D_CACHE_MISS_STALLS: 3e8}
        )
        assert calibrated.assumptions == StaticAssumptions()
