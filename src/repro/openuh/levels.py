"""Optimization levels O0–O3 and the compile driver.

The Table I experiment compiles GenIDLEST at each standard level:

* **O0** — all optimizations disabled; no register allocation (every scalar
  access is stack traffic).
* **O1** — "minimal optimizations such as instruction scheduling and
  peephole optimizations applied to straight-line code": constant folding,
  copy propagation, scheduling, plus register allocation.
* **O2** — "more aggressive optimizations [that] significantly decrease the
  total instruction count (e.g. dead store elimination and partial
  redundancy elimination)": adds CSE, DSE, LICM/PRE, and inlining.
* **O3** — "loop nest optimizations (such as vectorization and loop
  fusion/fission) ... leading to increases in instruction execution
  overlap": adds fusion, vectorization, and software pipelining.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..machine import WorkSignature
from .codegen import CodegenOptions, lower_function
from .ir import IRError, Program, clone_program
from .passes.base import Pass, PassReport
from .passes.inline import Inlining
from .passes.loopnest import (
    InstructionScheduling,
    LoopFusion,
    SoftwarePipelining,
    Vectorization,
)
from .passes.scalar import (
    CommonSubexpressionElimination,
    ConstantFolding,
    CopyPropagation,
    DeadStoreElimination,
    LoopInvariantCodeMotion,
)

OPT_LEVELS = ("O0", "O1", "O2", "O3")


def pipeline_for(level: str) -> list[Pass]:
    """The pass pipeline of one optimization level (fresh pass objects)."""
    if level == "O0":
        return []
    if level == "O1":
        return [ConstantFolding(), CopyPropagation(), InstructionScheduling()]
    if level == "O2":
        return [
            Inlining(),
            ConstantFolding(),
            CopyPropagation(),
            CommonSubexpressionElimination(),
            LoopInvariantCodeMotion(),
            DeadStoreElimination(),
            InstructionScheduling(),
        ]
    if level == "O3":
        return [
            Inlining(),
            ConstantFolding(),
            CopyPropagation(),
            CommonSubexpressionElimination(),
            LoopInvariantCodeMotion(),
            DeadStoreElimination(),
            LoopFusion(),
            Vectorization(),
            InstructionScheduling(),
            SoftwarePipelining(),
        ]
    raise IRError(f"unknown optimization level {level!r}; expected {OPT_LEVELS}")


def codegen_options_for(level: str) -> CodegenOptions:
    if level not in OPT_LEVELS:
        raise IRError(f"unknown optimization level {level!r}")
    return CodegenOptions(
        register_allocation=(level != "O0"),
        # naive O0 code branches badly; optimized layout helps prediction
        mispredict_rate=0.05 if level == "O0" else 0.03,
    )


@dataclass
class CompiledProgram:
    """The output of :func:`compile_program`."""

    program: Program
    level: str
    options: CodegenOptions
    reports: list[PassReport] = field(default_factory=list)

    def signature(self, function: str | None = None, *, expand_calls: bool = True) -> WorkSignature:
        """Work signature of one invocation of ``function`` (default entry)."""
        name = function or self.program.entry
        if name is None:
            raise IRError("program has no entry function")
        fn = self.program.function(name)
        return lower_function(self.program, fn, self.options,
                              expand_calls=expand_calls)


def compile_program(program: Program, level: str = "O2") -> CompiledProgram:
    """Clone, optimize, and prepare ``program`` at the given level."""
    optimized = clone_program(program)
    reports = []
    for p in pipeline_for(level):
        reports.append(p.run(optimized))
    return CompiledProgram(
        program=optimized,
        level=level,
        options=codegen_options_for(level),
        reports=reports,
    )
