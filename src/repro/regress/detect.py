"""Statistical change detection between a candidate trial and its baseline.

The detector answers "is trial N slower than the baseline, and where?"
with two gates per (event, metric) cell, in the spirit of the SPMD
performance-debugging literature (statistical comparison against expected
behaviour) rather than a bare threshold:

1. **Relative threshold** — the across-thread mean must move by more than
   ``ThresholdPolicy.min_relative_change`` (run-to-run noise floor).
2. **t-test** — the per-thread samples of baseline and candidate must
   differ significantly (``alpha``).  Thread spread within a trial is
   largely *structural* (load imbalance), so when both trials share a
   thread count the test pairs threads (:func:`paired_t`); otherwise it
   falls back to Welch's unequal-variance test.  When neither applies
   (single-thread trials) the threshold gate decides alone.

Events below ``min_severity`` (share of mean total runtime) are ignored:
a 3× regression in a region worth 0.1% of runtime is not actionable.
Severity ranking and the top-X offender extraction mirror
:class:`repro.core.operations.extract.TopXEvents`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.operations.statistics import (
    BasicStatisticsOperation,
    WelchResult,
    paired_t,
    welch_t,
)
from ..core.result import AnalysisError, PerformanceResult
from ..perfdmf import Trial

#: Verdict strings (also the sentinel's CI vocabulary).
OK = "ok"
IMPROVED = "improved"
REGRESSED = "regressed"


@dataclass(frozen=True)
class ThresholdPolicy:
    """Configurable decision policy for regression detection.

    Attributes
    ----------
    metrics:
        Metric names to compare; None means every metric shared by both
        trials.  The first entry (or the trials' first shared metric) is
        the *primary* metric used for severity and the total verdict.
    min_relative_change:
        Relative slowdown of an event mean that counts as a regression
        (0.10 = 10% slower).  Improvements use the same magnitude on the
        other side.
    alpha:
        Significance level for the across-thread t-test.  Ignored when
        the test is inapplicable.
    paired:
        Pair threads between baseline and candidate when both trials
        have the same thread count (removes structural imbalance spread
        from the test).  Set False to always use Welch's unpaired test.
    min_severity:
        Events whose baseline share of total runtime is below this are
        never flagged.
    top_x:
        How many offending events a report keeps, severity-ranked.
    total_threshold:
        Relative change of the whole-program total that flags the trial
        even when no single event trips its gate.
    """

    metrics: tuple[str, ...] | None = None
    min_relative_change: float = 0.10
    alpha: float = 0.05
    min_severity: float = 0.01
    top_x: int = 5
    total_threshold: float = 0.05
    paired: bool = True

    def __post_init__(self) -> None:
        if self.min_relative_change <= 0:
            raise AnalysisError("min_relative_change must be positive")
        if not 0 < self.alpha < 1:
            raise AnalysisError("alpha must be in (0, 1)")
        if self.top_x < 1:
            raise AnalysisError("top_x must be >= 1")

    @classmethod
    def from_options(cls, metric: str | None = None,
                     threshold: float | None = None,
                     alpha: float | None = None) -> "ThresholdPolicy":
        """The policy a CLI verb or service job asks for with its
        metric/threshold/alpha options; None keeps the default."""
        kw: dict = {}
        if metric:
            kw["metrics"] = (metric,)
        if threshold is not None:
            kw["min_relative_change"] = threshold
        if alpha is not None:
            kw["alpha"] = alpha
        return cls(**kw)


@dataclass(frozen=True)
class EventDelta:
    """Comparison outcome for one (event, metric) cell."""

    event: str
    metric: str
    baseline_mean: float
    candidate_mean: float
    relative_change: float  # (candidate - baseline) / baseline; +0.5 = 50% slower
    severity: float  # event share of baseline mean total runtime (primary metric)
    welch: WelchResult
    regressed: bool
    improved: bool

    @property
    def significant(self) -> bool:
        """True when the t-test confirmed the change (or was inapplicable
        and the threshold gate decided)."""
        return self.regressed or self.improved

    def describe(self) -> str:
        direction = "+" if self.relative_change >= 0 else ""
        p = (
            f"p={self.welch.p_value:.4f}"
            if self.welch.applicable
            else "t-test n/a"
        )
        return (
            f"{self.event} [{self.metric}]: {direction}"
            f"{self.relative_change:.1%} "
            f"({self.baseline_mean:.4g} → {self.candidate_mean:.4g}, "
            f"severity {self.severity:.1%}, {p})"
        )

    def to_dict(self) -> dict:
        """JSON-able form (what the analysis service returns to clients)."""
        return {
            "event": self.event,
            "metric": self.metric,
            "baseline_mean": self.baseline_mean,
            "candidate_mean": self.candidate_mean,
            "relative_change": self.relative_change,
            "severity": self.severity,
            "p_value": self.welch.p_value if self.welch.applicable else None,
            "regressed": self.regressed,
            "improved": self.improved,
        }


def one_per_event(deltas: list[EventDelta]) -> list[EventDelta]:
    """The first delta of each event, in order: over worst-first deltas,
    each event once with its worst metric.  Facts are built per event,
    since per-metric duplicates would fire the same rule once per
    metric."""
    first: dict[str, EventDelta] = {}
    for delta in deltas:
        first.setdefault(delta.event, delta)
    return list(first.values())


@dataclass
class RegressionReport:
    """Severity-ranked outcome of one baseline/candidate comparison."""

    application: str
    experiment: str
    baseline_trial: str
    candidate_trial: str
    policy: ThresholdPolicy
    primary_metric: str
    deltas: list[EventDelta] = field(default_factory=list)
    total_baseline: float = 0.0
    total_candidate: float = 0.0
    added_events: list[str] = field(default_factory=list)
    removed_events: list[str] = field(default_factory=list)

    @property
    def total_relative_change(self) -> float:
        if self.total_baseline == 0:
            return 0.0 if self.total_candidate == 0 else float("inf")
        return (self.total_candidate - self.total_baseline) / self.total_baseline

    @property
    def regressions(self) -> list[EventDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def improvements(self) -> list[EventDelta]:
        return [d for d in self.deltas if d.improved]

    def top_offenders(self, x: int | None = None) -> list[EventDelta]:
        """The worst regressions, ranked by severity-weighted slowdown —
        the TopXEvents idiom applied to deltas."""
        ranked = sorted(
            self.regressions,
            key=lambda d: -(d.severity * max(d.relative_change, 0.0)),
        )
        return ranked[: (x or self.policy.top_x)]

    @property
    def verdict(self) -> str:
        if self.regressions or (
            self.total_relative_change > self.policy.total_threshold
        ):
            return REGRESSED
        if self.improvements and (
            self.total_relative_change < -self.policy.total_threshold
        ):
            return IMPROVED
        return OK

    def to_dict(self) -> dict:
        """JSON-able form (what the analysis service returns to clients)."""
        return {
            "application": self.application,
            "experiment": self.experiment,
            "baseline_trial": self.baseline_trial,
            "candidate_trial": self.candidate_trial,
            "primary_metric": self.primary_metric,
            "verdict": self.verdict,
            "total_relative_change": self.total_relative_change,
            "regressions": [d.to_dict() for d in self.regressions],
            "improvements": [d.to_dict() for d in self.improvements],
            "added_events": list(self.added_events),
            "removed_events": list(self.removed_events),
        }


def _resolve_metrics(
    baseline: Trial, candidate: Trial, policy: ThresholdPolicy
) -> list[str]:
    shared = [m for m in baseline.metric_names() if candidate.has_metric(m)]
    if policy.metrics is None:
        if not shared:
            raise AnalysisError(
                f"trials {baseline.name!r} and {candidate.name!r} share no metric"
            )
        return shared
    missing = [m for m in policy.metrics if m not in shared]
    if missing:
        raise AnalysisError(
            f"policy metrics {missing} not shared by both trials "
            f"(shared: {shared})"
        )
    return list(policy.metrics)


def compare_trials(
    baseline: Trial,
    candidate: Trial,
    *,
    policy: ThresholdPolicy | None = None,
    application: str = "app",
    experiment: str = "exp",
) -> RegressionReport:
    """Compare ``candidate`` against ``baseline`` under ``policy``."""
    policy = policy or ThresholdPolicy()
    metrics = _resolve_metrics(baseline, candidate, policy)
    primary = metrics[0]

    base_result = PerformanceResult(baseline)
    cand_result = PerformanceResult(candidate)
    # across-thread means via the shared statistics operation
    base_mean = BasicStatisticsOperation(base_result).mean()
    cand_mean = BasicStatisticsOperation(cand_result).mean()

    base_events = set(baseline.event_names())
    cand_events = set(candidate.event_names())
    shared_events = [e for e in baseline.event_names() if e in cand_events]

    base_primary_means = base_mean.exclusive(primary)[:, 0]
    total_base_primary = float(base_primary_means.sum())

    report = RegressionReport(
        application=application,
        experiment=experiment,
        baseline_trial=baseline.name,
        candidate_trial=candidate.name,
        policy=policy,
        primary_metric=primary,
        total_baseline=float(baseline.exclusive_array(primary).mean(axis=1).sum()),
        total_candidate=float(candidate.exclusive_array(primary).mean(axis=1).sum()),
        added_events=sorted(cand_events - base_events),
        removed_events=sorted(base_events - cand_events),
    )

    for metric in metrics:
        base_arr = baseline.exclusive_array(metric)
        cand_arr = candidate.exclusive_array(metric)
        for event in shared_events:
            bi = baseline.event_index(event)
            ci = candidate.event_index(event)
            b_mean = float(base_mean.exclusive(metric)[bi, 0])
            c_mean = float(cand_mean.exclusive(metric)[ci, 0])
            if b_mean == 0.0:
                rel = 0.0 if c_mean == 0.0 else float("inf")
            else:
                rel = (c_mean - b_mean) / b_mean
            severity = (
                float(base_primary_means[bi]) / total_base_primary
                if total_base_primary > 0
                else 0.0
            )
            if policy.paired and base_arr.shape[1] == cand_arr.shape[1]:
                welch = paired_t(base_arr[bi], cand_arr[ci])
            else:
                welch = welch_t(base_arr[bi], cand_arr[ci])
            crossed = abs(rel) >= policy.min_relative_change
            significant = (not welch.applicable) or welch.p_value <= policy.alpha
            flagged = crossed and significant and severity >= policy.min_severity
            report.deltas.append(
                EventDelta(
                    event=event,
                    metric=metric,
                    baseline_mean=b_mean,
                    candidate_mean=c_mean,
                    relative_change=rel,
                    severity=severity,
                    welch=welch,
                    regressed=flagged and rel > 0,
                    improved=flagged and rel < 0,
                )
            )
    return report


def perturb_trial(
    trial: Trial,
    *,
    events: list[str] | None = None,
    factor: float = 1.0,
    noise: float = 0.0,
    rng: np.random.Generator | None = None,
    name: str | None = None,
) -> Trial:
    """A copy of ``trial`` with selected events slowed by ``factor`` and
    optional multiplicative measurement noise — the standard way to build
    candidates in sentinel tests and demos.

    Any randomness flows through the *explicit* ``rng`` generator (there is
    no global-state fallback), so seeded baseline/candidate comparisons are
    exactly reproducible.
    """
    if noise > 0.0 and rng is None:
        raise AnalysisError("perturb_trial: noise requires an explicit rng")
    idx = (
        [trial.event_index(e) for e in events]
        if events is not None
        else list(range(trial.event_count))
    )
    exclusive, inclusive = [], []
    for metric in trial.metric_names():
        # one noise field per metric, shared by exclusive and inclusive so
        # the exclusive <= inclusive profile invariant survives
        jitter = (
            rng.lognormal(0.0, noise, size=(trial.event_count, trial.thread_count))
            if noise > 0.0
            else None
        )
        for store, arr in ((exclusive, trial.exclusive_array(metric).copy()),
                           (inclusive, trial.inclusive_array(metric).copy())):
            if factor != 1.0:
                arr[idx, :] *= factor
            if jitter is not None:
                arr *= jitter
            store.append(arr)
    return Trial.from_arrays(
        name or f"{trial.name}_perturbed", trial.coded_metadata(),
        trial.events, trial.thread_array(), trial.metrics, exclusive, inclusive,
        trial.calls_array().copy(), trial.subroutines_array().copy())
