"""Tests for the pipeline and the closed tuning loops."""

import pytest

from repro.apps.genidlest import RIB45
from repro.apps.genidlest.compiled import genidlest_compiled_program
from repro.openuh import FeedbackOptimizer, InstrumentationSpec, TuningPlan
from repro.perfdmf import PerfDMF
from repro.rules import Fact
from repro.workflows import (
    automated_analysis,
    compile_and_profile,
    genidlest_tuning_loop,
    iterative_profiling,
    msa_tuning_loop,
)


class TestFeedbackOptimizer:
    def test_imbalance_maps_to_schedule(self):
        plan = FeedbackOptimizer().plan(
            [Fact("Recommendation", category="load-imbalance", event="loop",
                  imbalance_ratio=0.7, suggested_schedule="dynamic,4")]
        )
        assert plan.schedule == "dynamic,4"
        assert "loop" in plan.decisions[0]

    def test_locality_maps_to_parallel_init_and_cache_goal(self):
        plan = FeedbackOptimizer().plan(
            [Fact("Recommendation", category="data-locality", event="matxvec",
                  remote_ratio=0.9)]
        )
        assert plan.parallelize_initialization
        assert plan.goal == "cache"

    def test_sequential_bottleneck_maps_to_region(self):
        plan = FeedbackOptimizer().plan(
            [Fact("Recommendation", category="sequential-bottleneck",
                  event="exchange_var__")]
        )
        assert "exchange_var__" in plan.parallelize_regions

    def test_power_maps_to_level(self):
        plan = FeedbackOptimizer().plan(
            [Fact("Recommendation", category="power", target="power",
                  suggested_level="O0")]
        )
        assert plan.optimization_level == "O0"
        assert plan.goal == "low-power"

    def test_unknown_category_preserved_in_trail(self):
        plan = FeedbackOptimizer().plan(
            [Fact("Recommendation", category="quantum-tunneling")]
        )
        assert plan.schedule is None
        assert "quantum-tunneling" in plan.decisions[0]

    def test_plan_describe(self):
        plan = TuningPlan(schedule="dynamic,1",
                          parallelize_initialization=True)
        text = plan.describe()
        assert "dynamic,1" in text and "first-touch" in text


class TestPipeline:
    def test_automated_analysis_stores_and_diagnoses(self):
        from repro.apps.msa import run_msa_trial
        from repro.knowledge import diagnose_load_balance

        trial = run_msa_trial(n_sequences=80, n_threads=8,
                              schedule="static").trial
        with PerfDMF() as repo:
            result = automated_analysis(
                trial, repository=repo, application="MSAP",
                experiment="schedules", diagnose=diagnose_load_balance,
            )
            assert result.trial_id is not None
            assert repo.trials("MSAP", "schedules") == [trial.name]
        assert any(r.category == "load-imbalance" for r in result.recommendations)
        assert "Diagnosis" in result.report

    def test_compile_and_profile(self):
        program = genidlest_compiled_program(ni=16, nj=16)
        compiled, trial = compile_and_profile(program, level="O2", calls=2)
        assert compiled.level == "O2"
        assert trial.has_event("diff_coeff")
        assert trial.get_calls("diff_coeff", 0) == 2
        assert trial.metadata["optimization_level"] == "O2"

    def test_iterative_profiling_reduces_events(self):
        program = genidlest_compiled_program(ni=16, nj=16)
        broad, selective = iterative_profiling(
            program, min_score=1e12, calls=1
        )
        # absurd threshold: second run keeps no probes (only the implicit
        # application timer remains)
        assert broad.event_count > selective.event_count


class TestTuningLoops:
    def test_msa_loop_improves(self):
        out = msa_tuning_loop(n_sequences=100, n_threads=8)
        assert out.plan.schedule == "dynamic,1"
        assert out.speedup > 1.3
        assert "load imbalance" in out.plan.decisions[0]

    def test_genidlest_loop_improves(self):
        out = genidlest_tuning_loop(case=RIB45, n_procs=8, iterations=2)
        assert out.plan.parallelize_initialization
        assert out.speedup > 2.0
        assert "x" in out.describe()


def _inlining(compiled):
    """The inlining pass's report of a compiled program."""
    return next(r for r in compiled.reports if r.pass_name == "Inlining")


class TestFeedbackDirectedInlining:
    def _program(self):
        """A hot callee too big for the static inliner threshold."""
        from repro.openuh.frontend import ProgramBuilder, aref, const, mul

        pb = ProgramBuilder("fdo")
        hot = pb.function("hot_kernel")
        hot.array("u", 512)
        with hot.loop("i", 64):
            hot.store("u", "i", mul(aref("u", "i"), const(2.0)))
        main = pb.function("main")
        with main.loop("step", 200):
            main.call("hot_kernel")
        return pb.build(entry="main")

    def test_hot_callsite_inlined_after_feedback(self):
        from repro.workflows import feedback_directed_inlining

        program = self._program()
        baseline, feedback, counts = feedback_directed_inlining(
            program, level="O2", hot_call_threshold=100.0
        )
        assert counts["hot_kernel"] >= 200
        base_inline = _inlining(baseline)
        fdo_inline = _inlining(feedback)
        # the static threshold skips the large callee; feedback inlines it
        assert base_inline.changes.get("inlined", 0) == 0
        assert fdo_inline.changes.get("inlined", 0) >= 1
        # the inlined build loses the call/return overhead
        assert feedback.signature().instructions < baseline.signature().instructions

    def test_cold_callee_not_forced(self):
        from repro.workflows import feedback_directed_inlining

        program = self._program()
        _, feedback, _ = feedback_directed_inlining(
            program, level="O2", hot_call_threshold=1e9
        )
        assert _inlining(feedback).changes.get("inlined", 0) == 0
