"""Compile-time instrumentation with selective-instrumentation scoring.

OpenUH's instrumentation module inserts TAU-compatible probes at different
program constructs (procedures, loops, branches, callsites), controlled by
compiler flags.  Instrumenting everything distorts measurement — "we want
to avoid instrumenting regions of code that have small weights ... and are
invoked many times" — so the selective scorer estimates, per region,

    score = static work per invocation / (1 + invocation count)

and skips regions below a threshold.  Invocation counts default to static
estimates and can be replaced by counts from a previous profiling run (the
paper's iterative tuning cycle).

:func:`run_instrumented` executes a compiled program over the simulated
runtime, emitting profiler events only at instrumented points and charging
each probe's overhead, so instrumentation dilation is measurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..machine import CounterVector, Machine
from ..machine import counters as C
from ..runtime import Profiler
from .codegen import lower_function
from .ir import Block, CallStmt, Function, If, IRError, Loop, Program, Stmt
from .levels import CompiledProgram
from .passes.inline import static_cost


@dataclass(frozen=True)
class InstrumentationSpec:
    """Which constructs to instrument (the compiler flags)."""

    procedures: bool = True
    loops: bool = False
    callsites: bool = False
    #: Selective-instrumentation score threshold; 0 disables selection.
    min_score: float = 0.0

    #: Probe cost per region entry+exit pair.
    probe_overhead_us: float = 0.35


@dataclass
class InstrumentationPoint:
    """One decided instrumentation site."""

    kind: str  # 'procedure' | 'loop' | 'callsite'
    name: str  # event name, e.g. "diff_coeff" or "loop: diff_coeff/i"
    score: float
    selected: bool
    reason: str


@dataclass
class InstrumentationPlan:
    """All decisions for one program."""

    spec: InstrumentationSpec
    points: list[InstrumentationPoint] = field(default_factory=list)

    def selected_events(self) -> list[str]:
        return [p.name for p in self.points if p.selected]

    def point(self, name: str) -> InstrumentationPoint:
        for p in self.points:
            if p.name == name:
                return p
        raise KeyError(f"no instrumentation point {name!r}")

    def is_selected(self, name: str) -> bool:
        return any(p.name == name and p.selected for p in self.points)


def loop_event_name(fn: Function, loop: Loop) -> str:
    return f"loop: {fn.name}/{loop.var}"


def score_region(work_per_call: float, calls: float) -> float:
    """The selective-instrumentation score (bigger = more worth probing)."""
    return work_per_call / (1.0 + calls)


def plan_instrumentation(
    program: Program,
    spec: InstrumentationSpec,
    *,
    call_counts: Mapping[str, float] | None = None,
) -> InstrumentationPlan:
    """Decide instrumentation points for ``program``.

    ``call_counts`` maps event names (function names / loop event names) to
    observed or estimated invocation counts; regions absent default to 1.
    """
    counts = dict(call_counts or {})
    plan = InstrumentationPlan(spec)

    def decide(kind: str, name: str, work: float) -> None:
        calls = counts.get(name, 1.0)
        score = score_region(work, calls)
        if spec.min_score > 0 and score < spec.min_score:
            plan.points.append(
                InstrumentationPoint(
                    kind, name, score, False,
                    f"score {score:.3g} below threshold {spec.min_score:g}",
                )
            )
        else:
            plan.points.append(
                InstrumentationPoint(kind, name, score, True, "selected")
            )

    for fn in program.functions.values():
        if spec.procedures:
            decide("procedure", fn.name, float(static_cost(fn)))
        if spec.loops:
            for loop, depth in _loops_with_depth(fn.body):
                work = float(static_cost(Function("_", loop.body)) * loop.trip_count)
                name = loop_event_name(fn, loop)
                # a loop event is entered once per enclosing execution;
                # nested loops are entered trip-product times
                counts.setdefault(name, max(counts.get(fn.name, 1.0), 1.0))
                decide("loop", name, work)
        if spec.callsites:
            for stmt in _flat(fn.body):
                if isinstance(stmt, CallStmt):
                    name = f"callsite: {fn.name}->{stmt.callee}"
                    callee = program.functions.get(stmt.callee)
                    work = float(static_cost(callee)) if callee else 10.0
                    decide("callsite", name, work)
    return plan


def _loops_with_depth(block: Block, depth: int = 0):
    for stmt in block.stmts:
        if isinstance(stmt, Loop):
            yield stmt, depth
            yield from _loops_with_depth(stmt.body, depth + 1)
        elif isinstance(stmt, If):
            yield from _loops_with_depth(stmt.then_body, depth)
            if stmt.else_body is not None:
                yield from _loops_with_depth(stmt.else_body, depth)
        elif isinstance(stmt, Block):
            yield from _loops_with_depth(stmt, depth)


def _flat(block: Block):
    for stmt in block.stmts:
        yield stmt
        if isinstance(stmt, Loop):
            yield from _flat(stmt.body)
        elif isinstance(stmt, If):
            yield from _flat(stmt.then_body)
            if stmt.else_body is not None:
                yield from _flat(stmt.else_body)
        elif isinstance(stmt, Block):
            yield from _flat(stmt)


def run_instrumented(
    compiled: CompiledProgram,
    plan: InstrumentationPlan,
    machine: Machine,
    profiler: Profiler,
    cpu: int,
    *,
    calls: int = 1,
) -> None:
    """Execute the entry function ``calls`` times on one simulated CPU.

    Instrumented procedures/loops become profiler regions; each probed
    entry/exit pair charges the probe overhead inside the probed region
    (how TAU's dilation actually lands).
    """
    if calls < 1:
        raise IRError("calls must be >= 1")
    name = compiled.program.entry
    if name is None:
        raise IRError("program has no entry function")
    fn = compiled.program.function(name)
    # TAU always has a top-level timer; if the entry procedure is not
    # itself probed, charge into an implicit application event.
    implicit = not (plan.spec.procedures and plan.is_selected(fn.name))
    if implicit:
        profiler.enter(cpu, ".TAU application")
    for _ in range(calls):
        _run_function(compiled, plan, machine, profiler, cpu, fn, depth=0)
    if implicit:
        profiler.exit(cpu, ".TAU application")


def _call_weights(block: Block, weight: float = 1.0) -> dict[str, float]:
    """Dynamic invocation count per callee, weighted by loop trips and
    branch probabilities."""
    counts: dict[str, float] = {}

    def visit(b: Block, w: float) -> None:
        for stmt in b.stmts:
            if isinstance(stmt, CallStmt):
                counts[stmt.callee] = counts.get(stmt.callee, 0.0) + w
            elif isinstance(stmt, Loop):
                visit(stmt.body, w * stmt.trip_count)
            elif isinstance(stmt, If):
                visit(stmt.then_body, w * stmt.taken_probability)
                if stmt.else_body is not None:
                    visit(stmt.else_body, w * (1.0 - stmt.taken_probability))
            elif isinstance(stmt, Block):
                visit(stmt, w)

    visit(block, weight)
    return counts


def _run_function(compiled, plan, machine, profiler, cpu, fn: Function, *,
                  depth: int, weight: float = 1.0):
    """Execute ``fn`` (analytically) with dynamic multiplicity ``weight``:
    work is charged scaled by the weight, and call counts reflect the
    dynamic invocation count rather than the static call-site count."""
    if depth > 16:
        raise IRError(f"call cycle while executing {fn.name!r}")
    spec = plan.spec
    probed = spec.procedures and plan.is_selected(fn.name)
    if probed:
        profiler.enter(cpu, fn.name)
        if weight > 1.0:
            profiler.add_calls(cpu, fn.name, weight - 1.0)
        profiler.charge_idle(cpu, spec.probe_overhead_us * weight / 1e6)
    # Charge the function's own (non-call, non-probed-loop) work, then
    # recurse into calls so callee events nest correctly.
    own = lower_function(
        compiled.program, fn, compiled.options, expand_calls=False
    ).scaled(weight)
    # Only top-level loops split into their own events at run time; probing
    # a nested loop inside an already-probed outer loop would double-count
    # the subtracted work.
    loop_points = [
        (loop, loop_event_name(fn, loop))
        for loop, depth_ in _loops_with_depth(fn.body)
        if depth_ == 0
        and spec.loops
        and plan.is_selected(loop_event_name(fn, loop))
    ]
    if loop_points:
        # split the work: charge each probed top-level loop inside its own
        # event; remainder goes to the function body
        remainder = own
        for loop, event in loop_points:
            loop_fn = Function("_loopbody", loop.body, arrays=fn.arrays,
                               reuse=fn.reuse)
            per_iter = lower_function(
                compiled.program, loop_fn, compiled.options, expand_calls=False
            )
            loop_sig = per_iter.scaled(loop.trip_count * weight)
            profiler.enter(cpu, event)
            if weight > 1.0:
                profiler.add_calls(cpu, event, weight - 1.0)
            profiler.charge_idle(cpu, spec.probe_overhead_us * weight / 1e6)
            vector = machine.processor.execute(loop_sig)
            profiler.charge(cpu, vector)
            profiler.exit(cpu, event)
            remainder = _subtract_ops(remainder, loop_sig)
        vector = machine.processor.execute(remainder)
        profiler.charge(cpu, vector)
    else:
        profiler.charge(cpu, machine.processor.execute(own))
    for callee_name, call_weight in _call_weights(fn.body).items():
        callee = compiled.program.functions.get(callee_name)
        if callee is not None:
            _run_function(compiled, plan, machine, profiler, cpu, callee,
                          depth=depth + 1, weight=weight * call_weight)
    if probed:
        profiler.exit(cpu, fn.name)


def _subtract_ops(a, b):
    """a - b on op counts, clamped at zero (keep a's locality knobs)."""
    from dataclasses import replace

    return replace(
        a,
        flops=max(a.flops - b.flops, 0.0),
        int_ops=max(a.int_ops - b.int_ops, 0.0),
        loads=max(a.loads - b.loads, 0.0),
        stores=max(a.stores - b.stores, 0.0),
        branches=max(a.branches - b.branches, 0.0),
    )
