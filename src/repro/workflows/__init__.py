"""End-to-end workflows: the Fig. 3 pipeline and the closed tuning loops."""

from .pipeline import (
    GateResult,
    PipelineResult,
    TracedRunResult,
    automated_analysis,
    compile_and_profile,
    feedback_directed_inlining,
    iterative_profiling,
    regression_gate,
    trace_application,
)
from .experiment import run_experiment
from .tuning import TuningOutcome, genidlest_tuning_loop, msa_tuning_loop

__all__ = [
    "run_experiment",
    "GateResult",
    "PipelineResult",
    "TracedRunResult",
    "TuningOutcome",
    "automated_analysis",
    "compile_and_profile",
    "feedback_directed_inlining",
    "genidlest_tuning_loop",
    "iterative_profiling",
    "msa_tuning_loop",
    "regression_gate",
    "trace_application",
]
