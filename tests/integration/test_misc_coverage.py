"""Targeted tests for less-travelled paths across packages."""

import numpy as np
import pytest

from repro.machine import WorkSignature, altix_300, uniform_machine
from repro.machine import counters as C
from repro.perfdmf import TrialBuilder


class TestMPIEdges:
    def test_single_wait(self):
        from repro.runtime import MPIRuntime, Profiler

        m = altix_300()
        p = Profiler(m)
        mpi = MPIRuntime(m, p, 2)
        for r in range(2):
            p.enter(mpi.cpu_of(r), "main")
        mpi.isend(0, 1, 512)
        req = mpi.irecv(1, 0, 512)
        mpi.wait(1, req)  # singular form
        for r in range(2):
            p.exit(mpi.cpu_of(r), "main")
        assert p.to_trial("t").has_event("MPI_Waitall()")

    def test_unknown_request_rejected(self):
        from repro.runtime import MPIError, MPIRuntime, Profiler
        from repro.runtime.mpi import Request

        m = uniform_machine(2)
        mpi = MPIRuntime(m, Profiler(m), 2)
        for r in range(2):
            mpi.profiler.enter(mpi.cpu_of(r), "main")
        ghost = Request("recv", 1)
        with pytest.raises(MPIError, match="unknown request"):
            mpi.waitall(1, [ghost])

    def test_barrier_custom_event_name(self):
        from repro.runtime import MPIRuntime, Profiler

        m = uniform_machine(4)
        p = Profiler(m)
        mpi = MPIRuntime(m, p, 4)
        for r in range(4):
            p.enter(r, "main")
        mpi.barrier(event="MPI_Barrier(solver)")
        for r in range(4):
            p.exit(r, "main")
        assert p.to_trial("t").has_event("MPI_Barrier(solver)")


class TestPowerEdges:
    def test_trial_flops_missing_metric(self):
        """A counter set without FP_OPS draws no FPU power."""
        from repro.power import PowerModel

        est = PowerModel().processor_power({C.CPU_CYCLES: 1e9, C.TIME: 1e6})
        assert est.component_watts["fpu"] == 0.0

    def test_flops_per_joule_zero_energy(self):
        from repro.power.model import PowerEstimate

        est = PowerEstimate(watts=10.0, seconds=0.0)
        assert est.flops_per_joule(1e9) == 0.0


class TestComparisonEdges:
    def test_no_shared_metrics_rejected(self):
        from repro.core import AnalysisError, PerformanceResult
        from repro.core.script import DifferenceOperation

        a = PerformanceResult(
            TrialBuilder("a").with_events(["e"]).with_threads(1)
            .with_metric("M1", np.ones((1, 1))).with_calls(np.ones((1, 1)))
            .build()
        )
        b = PerformanceResult(
            TrialBuilder("b").with_events(["e"]).with_threads(1)
            .with_metric("M2", np.ones((1, 1))).with_calls(np.ones((1, 1)))
            .build()
        )
        with pytest.raises(AnalysisError, match="share no metrics"):
            DifferenceOperation(a, b).process_data()


class TestSolverEdges:
    def test_nonconvergence_reported(self):
        from repro.apps.genidlest import bicgstab, matxvec

        rng = np.random.default_rng(2)
        b = rng.random((6, 6, 6))
        result = bicgstab(matxvec, b, tol=1e-14, max_iterations=1)
        assert not result.converged
        assert result.iterations == 1
        assert result.residual_norm > 1e-14

    def test_breakdown_detected(self):
        from repro.apps.genidlest import bicgstab
        from repro.apps.genidlest.solver import SolverError

        # operator annihilates everything: r_hat . v == 0 on iteration 1
        zero_op = lambda v: np.zeros_like(v)
        with pytest.raises(SolverError, match="breakdown"):
            bicgstab(zero_op, np.ones((2, 2, 2)))


class TestWorkflowEdges:
    def test_automated_analysis_without_repository(self):
        from repro.apps.msa import run_msa_trial
        from repro.knowledge import diagnose_load_balance
        from repro.workflows import automated_analysis

        trial = run_msa_trial(n_sequences=60, n_threads=4,
                              schedule="static").trial
        result = automated_analysis(trial, diagnose=diagnose_load_balance,
                                    title="T")
        assert result.trial_id is None
        assert result.report.startswith("T")


class TestCompiledProgramEdges:
    def test_signature_without_call_expansion(self):
        from repro.openuh import compile_program
        from repro.openuh.frontend import ProgramBuilder, const

        pb = ProgramBuilder("p")
        callee = pb.function("fat")
        with callee.loop("i", 1000):
            callee.store("u", "i", const(1.0))
        main = pb.function("main")
        main.call("fat")
        program = pb.build(entry="main")
        compiled = compile_program(program, "O0")
        expanded = compiled.signature(expand_calls=True)
        shallow = compiled.signature(expand_calls=False)
        assert expanded.instructions > 10 * shallow.instructions

    def test_no_entry_error(self):
        from repro.openuh import IRError, Program
        from repro.openuh.levels import CompiledProgram, codegen_options_for

        empty = CompiledProgram(Program("p"), "O0",
                                codegen_options_for("O0"))
        with pytest.raises(IRError, match="no entry"):
            empty.signature()


class TestCLIReproduceTargets:
    def test_table1(self, capsys):
        from repro.cli import main

        assert main(["reproduce", "table1"]) == 0
        out = capsys.readouterr().out
        assert "FLOP/Joule" in out and "Lowest energy" in out

    def test_fig4b_small(self, capsys):
        from repro.cli import main

        assert main(["reproduce", "fig4b", "--sequences", "60"]) == 0
        assert "dynamic,1" in capsys.readouterr().out


class TestRecommendationFromFact:
    def test_defaults(self):
        from repro.knowledge import Recommendation
        from repro.rules import Fact

        rec = Recommendation.from_fact(Fact("Recommendation"))
        assert rec.category == "unknown"
        assert rec.event == "<program>"
        assert rec.severity == 0.0
        rec2 = Recommendation.from_fact(
            Fact("Recommendation", category="x", severity=None)
        )
        assert rec2.severity == 0.0
