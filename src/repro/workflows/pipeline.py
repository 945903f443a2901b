"""The Fig. 3 pipeline: compile → instrument → run → store → analyze.

``automated_analysis`` is the solid-arrow path of Fig. 3: an application
run produces a TAU-style trial, PerfDMF stores it, PerfExplorer scripts +
rules diagnose it, and the user gets recommendations.

``compile_and_profile`` is the front half for IR programs: OpenUH compiles
and instruments, the simulated machine runs it, and the profile lands in
the repository.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .. import observe
from ..core.harness import RuleHarness
from ..core.result import AnalysisError
from ..knowledge import render_report, recommendations_of
from ..knowledge.rulebase import diagnose_genidlest
from ..machine import Machine, uniform_machine
from ..openuh import (
    CompiledProgram,
    InstrumentationSpec,
    Program,
    compile_program,
    plan_instrumentation,
    run_instrumented,
)
from ..perfdmf import PerfDMF, Trial, store_interval_trials
from ..runtime import EventTrace, Profiler, SnapshotProfiler
from ..version import version_key


@dataclass
class PipelineResult:
    """Everything one pass through the pipeline produced."""

    trial: Trial
    harness: RuleHarness
    report: str
    trial_id: int | None = None

    @property
    def recommendations(self):
        return recommendations_of(self.harness)


def automated_analysis(
    trial: Trial,
    *,
    repository: PerfDMF | None = None,
    application: str = "app",
    experiment: str = "exp",
    diagnose: Callable[[Trial], RuleHarness] = diagnose_genidlest,
    title: str | None = None,
) -> PipelineResult:
    """Store a trial and run the knowledge-based diagnosis over it."""
    with observe.span("pipeline.automated_analysis",
                      application=application, experiment=experiment,
                      trial=trial.name) as sp:
        trial_id = None
        if repository is not None:
            with observe.span("pipeline.store"):
                version_key().stamp(trial.metadata)
                trial_id = repository.save_trial(application, experiment,
                                                 trial, replace=True)
        with observe.span("pipeline.diagnose"):
            harness = diagnose(trial)
        with observe.span("pipeline.report"):
            report = render_report(
                harness,
                title=title or f"Diagnosis of {application}/{trial.name}",
            )
        sp.set(recommendations=len(harness.facts("Recommendation")))
    return PipelineResult(trial, harness, report, trial_id)


@dataclass
class GateResult:
    """Outcome of :func:`regression_gate`."""

    trial: Trial
    verdict: str  # "ok" / "improved" / "regressed" / "baseline-created"
    exit_code: int
    report: "object | None" = None  # RegressionReport when a baseline existed
    harness: RuleHarness | None = None
    promoted: bool = False

    @property
    def recommendations(self):
        return recommendations_of(self.harness) if self.harness else []


def regression_gate(
    trial: Trial,
    *,
    repository: PerfDMF,
    application: str = "app",
    experiment: str = "exp",
    policy=None,
    auto_promote: bool = True,
    diagnose: bool = True,
) -> GateResult:
    """The perf-CI stage: store ``trial``, judge it against the baseline.

    First trial through the gate becomes the baseline; later trials
    return the sentinel's verdict, with accepted improvements optionally
    promoted so the expected performance ratchets forward.
    """
    from ..lineage import LineageStore
    from ..regress import check

    with observe.span("pipeline.regression_gate", application=application,
                      experiment=experiment, trial=trial.name) as sp:
        version_key().stamp(trial.metadata)
        repository.save_trial(application, experiment, trial, replace=True)
        store = LineageStore(repository)
        if store.baseline_name(application, experiment) is None:
            store.promote(
                application, experiment, trial.name,
                reason="regression_gate: first trial through the gate",
            )
            sp.set(verdict="baseline-created")
            observe.event("regress.gate", application=application,
                          experiment=experiment, trial=trial.name,
                          verdict="baseline-created", exit_code=0)
            return GateResult(trial, "baseline-created", 0)
        outcome = check(
            repository, application, experiment, trial.name,
            policy=policy, diagnose=diagnose,
            auto_promote=auto_promote,
        )
        sp.set(verdict=outcome.verdict.value, exit_code=outcome.exit_code)
    return GateResult(
        trial,
        outcome.verdict.value,
        outcome.exit_code,
        report=outcome.report,
        harness=outcome.harness,
        promoted=outcome.promoted,
    )


@dataclass
class TracedRunResult:
    """Everything one traced application run produced."""

    trial: Trial
    trace: EventTrace
    snapshots: list[Trial]
    wait_states: list
    harness: RuleHarness
    report: str
    chrome_path: str | None = None
    trial_id: int | None = None
    interval_ids: list[int] = field(default_factory=list)

    @property
    def recommendations(self):
        return recommendations_of(self.harness)


def trace_application(
    app: str = "msa",
    *,
    repository: PerfDMF | None = None,
    application: str | None = None,
    experiment: str = "traced",
    out: str | None = None,
    machine: Machine | None = None,
    record_charges: bool = True,
    min_wait_seconds: float = 1e-9,
    **run_kwargs,
) -> TracedRunResult:
    """Run a simulated application with tracing on and diagnose its timeline.

    The back half of Fig. 3 for *traces*: the app runs under a
    :class:`~repro.runtime.SnapshotProfiler` with an attached
    :class:`~repro.runtime.EventTrace`, producing (a) the usual TAU-style
    trial, (b) one interval snapshot per phase — stored as PerfDMF
    sub-trials when a ``repository`` is given, (c) diagnosed wait states,
    and (d) optionally a Chrome ``trace_event`` file at ``out`` with one
    lane per rank/thread.

    ``app`` is ``"msa"`` or ``"genidlest"``; ``run_kwargs`` go to the app
    runner (:func:`~repro.apps.msa.parallel.run_msa_trial` keyword
    arguments, or :class:`~repro.apps.genidlest.simulate.RunConfig` fields
    — alternatively pass ``config=RunConfig(...)``).
    """
    from ..core.operations.tracing import detect_wait_states
    from ..knowledge.rulebase import diagnose_timeline

    with observe.span("pipeline.trace_application", app=app) as sp:
        trace = EventTrace(record_charges=record_charges)
        if app == "msa":
            from ..apps.msa.parallel import run_msa_trial

            n_threads = int(run_kwargs.get("n_threads", 16))
            machine = machine or uniform_machine(max(n_threads, 1))
            profiler = SnapshotProfiler(machine, trace=trace)
            trial = run_msa_trial(profiler=profiler, **run_kwargs).trial
            application = application or "MSAP"
        elif app == "genidlest":
            from ..apps.genidlest.simulate import (
                RunConfig,
                default_machine,
                run_genidlest,
            )

            config = run_kwargs.pop("config", None) or RunConfig(**run_kwargs)
            machine = machine or default_machine(config.n_procs)
            profiler = SnapshotProfiler(machine, trace=trace)
            trial = run_genidlest(config, profiler=profiler).trial
            application = application or "GenIDLEST"
        else:
            raise AnalysisError(
                f"trace_application: unknown app {app!r}; "
                "expected 'msa' or 'genidlest'"
            )

        snapshots = list(profiler.snapshots)
        with observe.span("pipeline.trace_diagnose"):
            wait_states = detect_wait_states(
                trace, min_wait_seconds=min_wait_seconds
            )
            harness = diagnose_timeline(
                trace=trace,
                snapshots=snapshots,
                trial=trial.name,
                wait_states=wait_states,
            )
        report = render_report(
            harness,
            title=f"Timeline diagnosis of {application}/{trial.name}",
        )

        trial_id = None
        interval_ids: list[int] = []
        if repository is not None:
            with observe.span("pipeline.trace_store"):
                version_key().stamp(trial.metadata)
                trial_id = repository.save_trial(
                    application, experiment, trial, replace=True
                )
                interval_ids = store_interval_trials(
                    repository, application, experiment, trial.name, snapshots
                )

        chrome_path = None
        if out is not None:
            from ..observe.export import write_app_chrome_trace

            write_app_chrome_trace(
                trace, out, label=f"{application}/{trial.name}"
            )
            chrome_path = str(out)

        sp.set(
            events=len(trace),
            snapshots=len(snapshots),
            wait_states=len(wait_states),
            recommendations=len(harness.facts("Recommendation")),
        )
    return TracedRunResult(
        trial=trial,
        trace=trace,
        snapshots=snapshots,
        wait_states=wait_states,
        harness=harness,
        report=report,
        chrome_path=chrome_path,
        trial_id=trial_id,
        interval_ids=interval_ids,
    )


def compile_and_profile(
    program: Program,
    *,
    level: str = "O2",
    machine: Machine | None = None,
    instrumentation: InstrumentationSpec | None = None,
    call_counts: dict[str, float] | None = None,
    calls: int = 1,
    trial_name: str | None = None,
) -> tuple[CompiledProgram, Trial]:
    """OpenUH front half: compile, instrument, execute, emit a trial."""
    machine = machine or uniform_machine(1)
    with observe.span("pipeline.compile_and_profile",
                      program=program.name, level=level):
        with observe.span("pipeline.compile"):
            compiled = compile_program(program, level)
        spec = instrumentation or InstrumentationSpec(procedures=True)
        with observe.span("pipeline.instrument"):
            plan = plan_instrumentation(program, spec, call_counts=call_counts)
        profiler = Profiler(machine)
        with observe.span("pipeline.execute", calls=calls):
            run_instrumented(compiled, plan, machine, profiler, 0, calls=calls)
        trial = profiler.to_trial(
            trial_name or f"{program.name}_{level}",
            {
                "application": program.name,
                "optimization_level": level,
                "instrumented_events": plan.selected_events(),
            },
        )
    return compiled, trial


def feedback_directed_inlining(
    program: Program,
    *,
    level: str = "O2",
    machine: Machine | None = None,
    hot_call_threshold: float = 100.0,
    calls: int = 1,
) -> tuple[CompiledProgram, CompiledProgram, dict[str, float]]:
    """The paper's callsite-count feedback: profile → inliner hot list.

    "The compiler currently supports feedback for branch, loop, and
    control flow optimizations, and callsite counts to improve inlining."

    A first instrumented run counts procedure invocations; callees invoked
    more than ``hot_call_threshold`` times are handed to the inliner as
    hot callsites on the rebuild, overriding its static size limit.

    Returns (baseline build, feedback build, measured call counts).
    """
    from ..openuh.levels import codegen_options_for, pipeline_for
    from ..openuh.passes.inline import Inlining
    from ..openuh import clone_program

    machine = machine or uniform_machine(1)
    baseline = compile_program(program, level)
    _, profile = compile_and_profile(
        program, level=level, machine=machine,
        instrumentation=InstrumentationSpec(procedures=True, callsites=True),
        calls=calls, trial_name=f"{program.name}_fdo_profile",
    )
    counts = {
        event: float(profile.calls_array()[profile.event_index(event)].sum())
        for event in profile.event_names()
        if event in program.functions
    }
    hot = {
        name for name, count in counts.items()
        if count >= hot_call_threshold and name != program.entry
    }
    # rebuild with the hot list driving the inliner
    optimized = clone_program(program)
    reports = []
    for p in pipeline_for(level):
        if isinstance(p, Inlining):
            p = Inlining(threshold=p.threshold, hot_callsites=hot)
        reports.append(p.run(optimized))
    feedback_build = CompiledProgram(
        program=optimized, level=level,
        options=codegen_options_for(level), reports=reports,
    )
    return baseline, feedback_build, counts


def iterative_profiling(
    program: Program,
    *,
    level: str = "O2",
    machine: Machine | None = None,
    min_score: float = 1.0,
    calls: int = 3,
) -> tuple[Trial, Trial]:
    """The paper's two-run methodology: a broad first run gathers call
    counts; the second run instruments selectively using them.

    Returns (broad trial, selective trial).
    """
    machine = machine or uniform_machine(1)
    _, broad = compile_and_profile(
        program, level=level, machine=machine,
        instrumentation=InstrumentationSpec(procedures=True, loops=True),
        calls=calls, trial_name=f"{program.name}_broad",
    )
    counts = {
        event: float(broad.calls_array()[broad.event_index(event)].sum())
        for event in broad.event_names()
    }
    machine2 = machine  # same machine model; fresh profiler inside
    _, selective = compile_and_profile(
        program, level=level, machine=machine2,
        instrumentation=InstrumentationSpec(
            procedures=True, loops=True, min_score=min_score
        ),
        call_counts=counts, calls=calls,
        trial_name=f"{program.name}_selective",
    )
    return broad, selective
