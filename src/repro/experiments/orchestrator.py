"""The experiment orchestrator: plan → jobs over ``repro.serve``.

Each case becomes a small DAG — a batch of ``run-trial`` jobs (one per
rerun), an assessment against the spec's rigor policy, possibly more
reruns, and a final ``analyze-case`` job once the case converges::

    case ──► run-trial × min_runs ──► assess ──┬─ converged ─► analyze-case
                 ▲                             │
                 └──── one more rerun ◄── not converged, runs < max_runs
                                               │
                                               └─ runs == max_runs ─► flagged
                                                  non-converged

The orchestrator is a single-threaded event loop over a serve client
(in-process :class:`~repro.serve.Client` or a
:class:`~repro.serve.SocketClient` — one socket is sequential, so no
client locking is needed): it keeps at most ``max_in_flight`` cases
active, submits each case's rerun batch in **one** round trip via
``submit_many``, polls job status, and banks every completed sample in
:class:`~repro.experiments.state.ExperimentState` *before* deciding the
next step — so a kill at any instant loses at most in-flight jobs, never
banked reruns, and a resume skips terminal cases entirely.

Failures retry per rerun (``case_retries``); a rerun that exhausts its
budget fails the whole case, which a later resume retries from its
banked samples.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from .. import observe
from ..observe.context import TraceContext, make_span, new_span_id
from ..rules import Fact
from ..version import version_key
from .rigor import Assessment, assess
from .spec import Case, Plan
from .state import ExperimentState, TERMINAL_CASE_STATUSES

__all__ = ["CaseOutcome", "ExperimentResult", "Orchestrator"]

_TERMINAL_JOB = ("done", "failed", "timeout", "cancelled")


@dataclass
class CaseOutcome:
    """How one case ended this orchestrator run."""

    case_key: str
    factors: dict[str, Any]
    status: str
    runs: int
    samples: list[float]
    assessment: dict[str, Any] | None = None
    analysis: dict[str, Any] | None = None
    error: str | None = None
    #: run-trial jobs this session actually executed (0 on pure resume).
    executed: int = 0
    #: The case's distributed trace (None when tracing is off).
    trace_id: str | None = None

    @property
    def short(self) -> str:
        return self.case_key[:12]

    def to_dict(self) -> dict[str, Any]:
        return {
            "case_key": self.case_key, "short": self.short,
            "factors": self.factors, "status": self.status,
            "runs": self.runs, "samples": self.samples,
            "assessment": self.assessment, "analysis": self.analysis,
            "error": self.error, "executed": self.executed,
            "trace_id": self.trace_id,
        }


@dataclass
class ExperimentResult:
    """The orchestrator's account of one (possibly resumed) sweep."""

    run_id: int
    spec_name: str
    spec_hash: str
    outcomes: list[CaseOutcome] = field(default_factory=list)
    #: Cases already terminal when this session started.
    skipped: int = 0
    wall_seconds: float = 0.0
    min_runs: int = 1
    #: Stitched timeline spans across the whole run (tracing mode):
    #: one ``exp.run`` root, one ``exp.case`` root per executed case,
    #: and underneath those every service/worker span of every job.
    spans: list[dict[str, Any]] = field(default_factory=list, repr=False)

    def count(self, status: str) -> int:
        return sum(o.status == status for o in self.outcomes)

    @property
    def executed_runs(self) -> int:
        return sum(o.executed for o in self.outcomes)

    def summary(self) -> dict[str, Any]:
        total_runs = sum(o.runs for o in self.outcomes)
        reruns = sum(max(0, o.runs - self.min_runs) for o in self.outcomes)
        return {
            "run_id": self.run_id,
            "spec": self.spec_name,
            "spec_hash": self.spec_hash,
            "cases": len(self.outcomes),
            "skipped": self.skipped,
            "converged": self.count("converged"),
            "non_converged": self.count("non-converged"),
            "failed": self.count("failed"),
            "total_runs": total_runs,
            "reruns": reruns,
            "executed_runs": self.executed_runs,
            "outliers": sum(len((o.assessment or {}).get("outliers", []))
                            for o in self.outcomes),
            "wall_seconds": self.wall_seconds,
        }

    def fact(self) -> Fact:
        """The knowledge layer's view: one ``ExperimentSummaryFact``."""
        s = self.summary()
        cases = s["cases"] or 1
        return Fact(
            "ExperimentSummaryFact",
            spec=s["spec"],
            cases=s["cases"],
            skipped=s["skipped"],
            converged=s["converged"],
            nonConverged=s["non_converged"],
            failed=s["failed"],
            totalRuns=s["total_runs"],
            reruns=s["reruns"],
            rerunRate=s["reruns"] / cases,
            outliers=s["outliers"],
        )

    def diagnose(self):
        """Run the ``experiment-rules`` rulebase over this result."""
        from ..core.harness import RuleHarness

        harness = RuleHarness("experiment-rules")
        harness.assertObjects([self.fact()])
        harness.processRules()
        return harness

    def export_trace(self, path) -> int:
        """Write the run's stitched spans as one Chrome ``trace_event``
        file (load in ``chrome://tracing`` / Perfetto).  Returns the
        span count; raises if the run was not traced."""
        from ..observe.export import write_chrome

        if not self.spans:
            raise ValueError(
                "no spans collected — run the Orchestrator with trace=True"
            )
        write_chrome(
            self.spans, path,
            label=f"experiment {self.spec_name} run {self.run_id}",
        )
        return len(self.spans)


class _Tracker:
    """One active case's in-flight bookkeeping."""

    def __init__(self, case: Case, samples: list[float],
                 trials: list[str], case_retries: int,
                 trace_ctx: TraceContext | None = None) -> None:
        self.case = case
        self.samples = list(samples)
        self.trials = list(trials)
        #: job_id -> rerun index, for outstanding run-trial jobs.
        self.jobs: dict[int, int] = {}
        #: rerun index -> resubmissions remaining.
        self.retries_left: dict[int, int] = {}
        self.executed = 0
        self.analyze_job: int | None = None
        self.analysis: dict[str, Any] | None = None
        self.failed_error: str | None = None
        self.final_assessment: Assessment | None = None
        self._default_retries = case_retries
        #: This case's trace: every job it submits hangs under one
        #: ``exp.case`` root span (tracing mode only).
        self.trace_ctx = trace_ctx
        self.span_id = new_span_id() if trace_ctx else None
        self.started_wall = time.time()
        #: Every job id this case ever submitted (for span collection).
        self.all_jobs: list[int] = []

    def job_trace(self) -> dict[str, str] | None:
        """The wire trace context this case's jobs submit under."""
        if self.trace_ctx is None:
            return None
        return {"trace_id": self.trace_ctx.trace_id,
                "parent_span_id": self.span_id}

    def retries(self, rerun: int) -> int:
        return self.retries_left.setdefault(rerun, self._default_retries)


class Orchestrator:
    """Drive one plan to completion over a serve client.

    Parameters
    ----------
    client:
        ``Client`` or ``SocketClient`` — anything with ``submit_many``
        and ``status``.
    state:
        :class:`ExperimentState` over the same repository the service
        writes trials to.
    plan:
        The expanded spec.
    max_in_flight:
        Cases being worked on concurrently (each holds at most a few
        outstanding jobs, so queue pressure ≈ this × min_runs).
    case_retries:
        Resubmissions per rerun before the case fails.
    analyze:
        Submit an ``analyze-case`` job for each converged case.
    trace:
        Thread one distributed trace per case: every job a case submits
        carries that case's trace context, and after each case finishes
        its stitched spans (client → queue → worker → handler) are
        pulled back via ``client.explain_job`` and parented under an
        ``exp.case`` root span.  The whole run — reruns, assessments,
        analyses — then exports as a single Chrome trace via
        :meth:`ExperimentResult.export_trace`.
    """

    #: Sleep between status polls that found no progress.
    POLL_INTERVAL_S = 0.01

    def __init__(
        self,
        client,
        state: ExperimentState,
        plan: Plan,
        *,
        max_in_flight: int = 8,
        case_retries: int = 1,
        analyze: bool = True,
        trace: bool = False,
        progress: Callable[[str], None] | None = None,
    ) -> None:
        self.client = client
        self.state = state
        self.plan = plan
        self.max_in_flight = max(1, int(max_in_flight))
        self.case_retries = max(0, int(case_retries))
        self.analyze = analyze
        self.trace = trace and hasattr(client, "explain_job")
        self._progress = progress or (lambda msg: None)

    # -- the loop ----------------------------------------------------------
    def run(self) -> ExperimentResult:
        started = time.monotonic()
        spec = self.plan.spec
        run_id = self.state.begin_run(self.plan)
        records = {r.case_key: r for r in self.state.cases(run_id)}
        result = ExperimentResult(
            run_id=run_id, spec_name=spec.name,
            spec_hash=self.plan.spec_hash,
            min_runs=spec.rigor.min_runs,
        )
        pending: list[Case] = []
        for case in self.plan.cases:
            rec = records[case.key]
            if rec.status in TERMINAL_CASE_STATUSES:
                result.skipped += 1
                result.outcomes.append(CaseOutcome(
                    case_key=case.key, factors=dict(case.factors),
                    status=rec.status, runs=rec.runs,
                    samples=list(rec.samples),
                    assessment=None if rec.mean is None else {
                        "n": rec.runs, "mean": rec.mean,
                        "halfwidth": rec.halfwidth,
                        "rel_halfwidth": rec.rel_halfwidth,
                        "converged": rec.status == "converged",
                        "outliers": [],
                    },
                ))
            else:
                pending.append(case)
        observe.event("exp.run", spec=spec.name, run_id=run_id,
                      cases=len(self.plan.cases), skipped=result.skipped)
        self._progress(
            f"run {run_id}: {len(pending)} case(s) to execute, "
            f"{result.skipped} already terminal (skipped)"
        )
        active: dict[str, _Tracker] = {}
        run_ctx = TraceContext.mint() if self.trace else None
        run_span_id = new_span_id() if self.trace else None
        run_start_wall = time.time()
        with observe.span("exp.orchestrate", spec=spec.name,
                          run_id=run_id, cases=len(pending)):
            while pending or active:
                while pending and len(active) < self.max_in_flight:
                    self._activate(run_id, pending.pop(0), records, active,
                                   result)
                if not active:
                    continue
                progressed = self._poll(run_id, active, result)
                if not progressed:
                    time.sleep(self.POLL_INTERVAL_S)
        result.wall_seconds = time.monotonic() - started
        if self.trace:
            result.spans.append(make_span(
                run_ctx.trace_id, "exp.run",
                run_start_wall, time.time(),
                span_id=run_span_id, process="orchestrator",
                spec=spec.name, run=run_id,
                cases=len(result.outcomes), skipped=result.skipped,
            ))
        observe.event("exp.run.done", spec=spec.name,
                      **{k: v for k, v in result.summary().items()
                         if k != "spec" and isinstance(v, (int, float))})
        return result

    # -- case activation ---------------------------------------------------
    def _activate(self, run_id: int, case: Case, records, active,
                  result: ExperimentResult) -> None:
        rec = records[case.key]
        tracker = _Tracker(case, rec.samples, rec.trials, self.case_retries,
                           TraceContext.mint() if self.trace else None)
        policy = self.plan.spec.rigor
        if len(tracker.samples) >= policy.min_runs:
            # Banked samples from an interrupted session may already
            # satisfy the policy — never re-execute what converged.
            assessment = assess(tracker.samples, policy)
            if assessment.converged or len(tracker.samples) >= \
                    policy.max_runs:
                self.state.mark_running(run_id, case.key)
                active[case.key] = tracker
                self._conclude(run_id, tracker, assessment, active, result)
                return
        self.state.mark_running(run_id, case.key)
        active[case.key] = tracker
        need = max(policy.min_runs - len(tracker.samples), 1)
        self._submit_reruns(tracker, range(len(tracker.trials),
                                           len(tracker.trials) + need))

    def _submit_reruns(self, tracker: _Tracker, reruns) -> None:
        spec = self.plan.spec
        versions = version_key()
        requests = [{
            "kind": "run-trial",
            "params": {
                "app": spec.app,
                "application": spec.application,
                "experiment": spec.experiment_name,
                "case_key": tracker.case.key,
                "rerun": int(rerun),
                "factors": dict(tracker.case.factors),
                "metric": spec.metric,
                "key_event": spec.key_event,
                "noise": spec.rigor.noise,
                "spec": spec.name,
                "code_version": versions.code,
                "rulebase_version": versions.rulebase,
            },
        } for rerun in reruns]
        if not requests:
            return
        trace = tracker.job_trace()
        if trace is not None:
            for req in requests:
                req["trace"] = trace
        submitted = self.client.submit_many(requests, block=True)
        for req, job in zip(requests, submitted):
            rerun = req["params"]["rerun"]
            if "error" in job and "id" not in job:
                tracker.failed_error = f"submit failed: {job['error']}"
                continue
            tracker.jobs[job["id"]] = rerun
            tracker.all_jobs.append(job["id"])

    # -- polling -----------------------------------------------------------
    def _poll(self, run_id: int, active: dict[str, _Tracker],
              result: ExperimentResult) -> bool:
        progressed = False
        for key in list(active):
            tracker = active[key]
            for job_id in list(tracker.jobs):
                job = self.client.status(job_id)
                if job["status"] not in _TERMINAL_JOB:
                    continue
                progressed = True
                rerun = tracker.jobs.pop(job_id)
                if job["status"] == "done":
                    payload = job["result"]
                    tracker.executed += 1
                    if payload["trial"] not in tracker.trials:
                        tracker.trials.append(payload["trial"])
                        tracker.samples.append(float(payload["value"]))
                        self.state.record_sample(
                            run_id, key, payload["trial"],
                            float(payload["value"]),
                        )
                elif tracker.retries(rerun) > 0:
                    tracker.retries_left[rerun] -= 1
                    self._submit_reruns(tracker, [rerun])
                else:
                    tracker.failed_error = (
                        f"rerun {rerun} {job['status']}: {job['error']}"
                    )
            if tracker.analyze_job is not None:
                job = self.client.status(tracker.analyze_job)
                if job["status"] in _TERMINAL_JOB:
                    progressed = True
                    tracker.analyze_job = None
                    if job["status"] == "done":
                        tracker.analysis = job["result"]
                    self._finish_case(run_id, tracker, active, result)
                continue
            if tracker.jobs:
                continue
            # No outstanding work: decide the case's next step.
            if tracker.failed_error is not None:
                progressed = True
                self.state.finalize_case(run_id, key, "failed",
                                         error=tracker.failed_error)
                self._emit(run_id, tracker, "failed", None, active, result)
                continue
            policy = self.plan.spec.rigor
            assessment = assess(tracker.samples, policy)
            if assessment.converged or \
                    len(tracker.samples) >= policy.max_runs:
                progressed = True
                self._conclude(run_id, tracker, assessment, active, result)
            else:
                progressed = True
                self._submit_reruns(tracker, [len(tracker.trials)])
        return progressed

    # -- conclusions -------------------------------------------------------
    def _conclude(self, run_id: int, tracker: _Tracker,
                  assessment: Assessment, active, result) -> None:
        status = "converged" if assessment.converged else "non-converged"
        self.state.finalize_case(run_id, tracker.case.key, status,
                                 assessment)
        if status == "converged" and self.analyze and tracker.trials:
            spec = self.plan.spec
            request = {
                "kind": "analyze-case",
                "params": {
                    "application": spec.application,
                    "experiment": spec.experiment_name,
                    "trials": list(tracker.trials),
                    "metric": spec.metric,
                    "key_event": spec.key_event,
                },
            }
            trace = tracker.job_trace()
            if trace is not None:
                request["trace"] = trace
            submitted = self.client.submit_many([request], block=True)
            job = submitted[0]
            if "id" in job:
                # Defer the outcome until the analysis lands.
                tracker.analyze_job = job["id"]
                tracker.all_jobs.append(job["id"])
                tracker.final_assessment = assessment
                return
        self._emit(run_id, tracker, status, assessment, active, result)

    def _finish_case(self, run_id: int, tracker: _Tracker, active,
                     result) -> None:
        assessment = tracker.final_assessment
        status = "converged" if assessment and assessment.converged \
            else "non-converged"
        self._emit(run_id, tracker, status, assessment, active, result)

    def _emit(self, run_id: int, tracker: _Tracker, status: str,
              assessment: Assessment | None, active, result) -> None:
        active.pop(tracker.case.key, None)
        if tracker.trace_ctx is not None:
            self._collect_case_spans(tracker, status, result)
        result.outcomes.append(CaseOutcome(
            case_key=tracker.case.key,
            factors=dict(tracker.case.factors),
            status=status,
            runs=len(tracker.samples),
            samples=list(tracker.samples),
            assessment=assessment.to_dict() if assessment else None,
            analysis=tracker.analysis,
            error=tracker.failed_error,
            executed=tracker.executed,
            trace_id=tracker.trace_ctx.trace_id
            if tracker.trace_ctx else None,
        ))
        observe.event("exp.case", case=tracker.case.short, status=status,
                      runs=len(tracker.samples), executed=tracker.executed)
        self._progress(
            f"  case {tracker.case.short} {status} "
            f"({len(tracker.samples)} run(s), {tracker.executed} executed)"
        )

    def _collect_case_spans(self, tracker: _Tracker, status: str,
                            result: ExperimentResult) -> None:
        """Pull each finished job's stitched timeline back from the
        service and hang the lot under one ``exp.case`` root span."""
        for job_id in tracker.all_jobs:
            try:
                explain = self.client.explain_job(job_id)
            except Exception:  # noqa: BLE001 - tracing must not fail the run
                continue
            result.spans.extend(explain.get("spans") or [])
        result.spans.append(make_span(
            tracker.trace_ctx.trace_id, "exp.case",
            tracker.started_wall, time.time(),
            span_id=tracker.span_id,
            process=f"case {tracker.case.short}",
            case=tracker.case.short, status=status,
            runs=len(tracker.samples), jobs=len(tracker.all_jobs),
        ))
