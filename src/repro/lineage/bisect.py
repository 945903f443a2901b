"""``repro-perf bisect``: binary search over performance history.

Given a known-good and a known-bad version, :class:`PerfBisector` finds
the regression-introducing version in ``<= ceil(log2 n) + 1`` probe
evaluations: one to confirm the bad endpoint really regresses against
the good one, then a midpoint binary search over the chain between
them.  Each probe is the sentinel's full paired/Welch comparison
(:func:`repro.regress.detect.compare_trials`), not a point estimate.

Samples come from two sources, by priority:

* **banked** — trials already attached to the version in the
  :class:`~repro.lineage.store.LineageStore` (recorded by CI as the
  history was built);
* **synthesized** — when a version has no banked trials but carries a
  ``factors`` annotation, the bisector submits ``run-trial`` jobs to a
  :mod:`repro.serve` service and reruns to CI convergence under the
  experiments layer's :class:`~repro.experiments.rigor.RigorPolicy`,
  exactly like the orchestrator's rigor loop.

Synthesis is deterministic — ``run-trial`` derives its random stream
from the case key, and the probe case key here derives from the version
id and its factors — and every synthesized trial is banked back into
the store, so a re-bisect over the same range returns the identical
result whether its samples were banked or freshly synthesized.

The final report names the offending metric and region (worst event of
the culprit step) and the ``lineage-rules`` facts and recommendations
the culprit pair triggers.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any

from .. import observe
from ..experiments.rigor import RigorPolicy, assess
from ..perfdmf import ProfileError, Trial
from ..regress.detect import RegressionReport, ThresholdPolicy, compare_trials
from ..version import canonical_json
from .facts import diagnose_lineage
from .scanner import PairComparison, ScanResult, _representative
from .store import LineageStore, TrialRef

__all__ = ["BisectResult", "PerfBisector", "ProbeRecord", "probe_budget",
           "probe_case_key"]


def probe_budget(n_versions: int) -> int:
    """The probe ceiling for a chain of ``n_versions``:
    ``ceil(log2 n) + 1`` (endpoint confirmation + midpoint search)."""
    if n_versions < 2:
        return 1
    return math.ceil(math.log2(n_versions)) + 1


def probe_case_key(version_id: str, factors: dict[str, Any]) -> str:
    """Deterministic case key for synthesizing one version's samples.

    Derived from the version id and its factors only, so a probe run
    today and a probe run next week submit byte-identical ``run-trial``
    cases — and ``case_rng`` then makes the trials themselves identical.
    """
    return hashlib.sha256(
        f"lineage:{version_id}:{canonical_json(factors)}".encode()
    ).hexdigest()


@dataclass(frozen=True)
class ProbeRecord:
    """One probe evaluation during the search."""

    version: str
    index: int
    verdict: str
    source: str  # 'banked' | 'synthesized'
    runs: int
    trial: str

    def to_dict(self) -> dict[str, Any]:
        return {"version": self.version, "index": self.index,
                "verdict": self.verdict, "source": self.source,
                "runs": self.runs, "trial": self.trial}


@dataclass
class BisectResult:
    """The bisect verdict plus everything needed to act on it."""

    status: str  # 'found' | 'no-regression'
    good: str
    bad: str
    versions: int
    probes: list[ProbeRecord]
    budget: int
    first_bad: str | None = None
    last_good: str | None = None
    offending: dict[str, Any] | None = None
    report: RegressionReport | None = None
    facts: list[dict[str, Any]] = field(default_factory=list)
    recommendations: list[dict[str, Any]] = field(default_factory=list)

    @property
    def probe_count(self) -> int:
        return len(self.probes)

    @property
    def within_budget(self) -> bool:
        return self.probe_count <= self.budget

    def to_dict(self) -> dict[str, Any]:
        return {
            "status": self.status,
            "good": self.good,
            "bad": self.bad,
            "versions": self.versions,
            "first_bad": self.first_bad,
            "last_good": self.last_good,
            "probes": [p.to_dict() for p in self.probes],
            "probe_count": self.probe_count,
            "budget": self.budget,
            "within_budget": self.within_budget,
            "offending": self.offending,
            "report": self.report.to_dict() if self.report else None,
            "facts": self.facts,
            "recommendations": self.recommendations,
        }


class PerfBisector:
    """Binary search for the regression-introducing version.

    Parameters
    ----------
    store:
        The lineage store holding the history (and the trials).
    client:
        Optional :class:`repro.serve.Client` / ``SocketClient``; without
        one, every probed version must have banked trials.
    application, experiment:
        PerfDMF coordinates for banked-trial lookup and for storing
        synthesized trials (defaults: per-version annotations, then
        ``lineage``/``bisect``).
    policy:
        Detection policy for every probe comparison.
    rigor:
        Convergence contract for synthesized samples.
    """

    def __init__(
        self,
        store: LineageStore,
        *,
        client=None,
        application: str | None = None,
        experiment: str | None = None,
        policy: ThresholdPolicy | None = None,
        rigor: RigorPolicy | None = None,
        wait_timeout: float = 120.0,
    ) -> None:
        self.store = store
        self.client = client
        self.application = application
        self.experiment = experiment
        self.policy = policy or ThresholdPolicy()
        self.rigor = rigor or RigorPolicy()
        self.wait_timeout = wait_timeout
        #: version -> (Trial, source, runs); probes reuse acquired samples.
        self._acquired: dict[str, tuple[Trial, str, int]] = {}

    # -- sample acquisition ------------------------------------------------
    def _coords(self, version_id: str) -> tuple[str, str]:
        ann = self.store.get(version_id).annotations
        application = self.application or ann.get("application", "lineage")
        experiment = self.experiment or ann.get("experiment", "bisect")
        return application, experiment

    def _ensure_samples(self, version_id: str) -> tuple[Trial, str, int]:
        """The version's representative trial, banking first, synthesis
        second.  Memoized: one acquisition per version per bisect."""
        cached = self._acquired.get(version_id)
        if cached is not None:
            return cached
        ref = _representative(
            self.store, version_id, self.application, self.experiment
        )
        if ref is not None:
            banked = self.store.trials_for(
                version_id, application=self.application,
                experiment=self.experiment,
            )
            trial = self.store.db.load_trial(
                ref.application, ref.experiment, ref.trial
            )
            acquired = (trial, "banked", len(banked))
        else:
            acquired = self._synthesize(version_id)
        self._acquired[version_id] = acquired
        return acquired

    def _synthesize(self, version_id: str) -> tuple[Trial, str, int]:
        """Rerun the version to CI convergence via ``run-trial`` jobs,
        banking every produced trial back into the store."""
        if self.client is None:
            raise ProfileError(
                f"lineage: version {version_id!r} has no banked trials and "
                "no service client was given to synthesize them"
            )
        ann = self.store.get(version_id).annotations
        factors = ann.get("factors")
        if not isinstance(factors, dict):
            raise ProfileError(
                f"lineage: version {version_id!r} has no banked trials and "
                "no 'factors' annotation to synthesize from"
            )
        application, experiment = self._coords(version_id)
        case_key = probe_case_key(version_id, factors)
        base_params = {
            "app": ann.get("app", "synthetic"),
            "application": application,
            "experiment": experiment,
            "case_key": case_key,
            "factors": factors,
            "metric": ann.get("metric", "TIME"),
            "key_event": ann.get("key_event", "main"),
            "noise": float(ann.get("noise", 0.0)),
        }
        samples: list[float] = []
        trials: list[str] = []
        with observe.span("lineage.synthesize", version=version_id,
                          case_key=case_key[:12]):
            # the orchestrator's rigor loop: a min_runs batch up front,
            # then one rerun at a time until converged or max_runs
            while True:
                want = max(self.rigor.min_runs - len(samples), 1)
                if len(samples) + want > self.rigor.max_runs:
                    want = self.rigor.max_runs - len(samples)
                jobs = self.client.submit_many([
                    {"kind": "run-trial",
                     "params": {**base_params, "rerun": len(samples) + i}}
                    for i in range(want)
                ])
                for job in jobs:
                    if "error" in job and "id" not in job:
                        raise ProfileError(
                            f"lineage: run-trial rejected: {job['error']}"
                        )
                    record = self.client.wait(
                        job["id"], timeout=self.wait_timeout
                    )
                    if record["status"] != "done":
                        raise ProfileError(
                            f"lineage: run-trial for {version_id!r} "
                            f"{record['status']}: {record.get('error')}"
                        )
                    result = record["result"]
                    samples.append(float(result["value"]))
                    trials.append(result["trial"])
                verdict = assess(samples, self.rigor)
                if verdict.converged or len(samples) >= self.rigor.max_runs:
                    break
        # one transaction: a crash banks every sample or none, so a rerun
        # never mistakes a partial bank for the converged set
        self.store.attach_trials(version_id, [
            TrialRef(application, experiment, name) for name in trials])
        # rerun 0 is the representative: deterministic, so banked
        # re-reads and fresh synthesis agree bit for bit
        trial = self.store.db.load_trial(application, experiment, trials[0])
        return trial, "synthesized", len(samples)

    # -- the search --------------------------------------------------------
    def bisect(self, good: str, bad: str | None = None) -> BisectResult:
        """Find the first bad version in ``good..bad`` (default: the
        newest tip)."""
        if bad is None:
            tips = self.store.tips()
            if not tips:
                raise ProfileError("lineage: no versions recorded")
            bad = tips[-1]
        chain = self.store.path(good, bad)
        if len(chain) < 2:
            raise ProfileError(
                f"lineage: nothing to bisect between {good!r} and {bad!r}"
            )
        budget = probe_budget(len(chain))
        probes: list[ProbeRecord] = []
        verdicts: dict[str, str] = {}

        good_trial, _, _ = self._ensure_samples(good)

        def evaluate(index: int) -> str:
            version_id = chain[index]
            if version_id in verdicts:
                return verdicts[version_id]
            trial, source, runs = self._ensure_samples(version_id)
            report = compare_trials(
                good_trial, trial, policy=self.policy,
                application=self._coords(version_id)[0],
                experiment=self._coords(version_id)[1],
            )
            verdicts[version_id] = report.verdict
            probes.append(ProbeRecord(
                version=version_id, index=index, verdict=report.verdict,
                source=source, runs=runs, trial=trial.name,
            ))
            observe.event(
                "lineage.bisect.probe", version=version_id, index=index,
                verdict=report.verdict, source=source,
            )
            return report.verdict

        with observe.span("lineage.bisect", good=good, bad=bad,
                          versions=len(chain)):
            if evaluate(len(chain) - 1) != "regressed":
                return BisectResult(
                    status="no-regression", good=good, bad=bad,
                    versions=len(chain), probes=probes, budget=budget,
                )
            lo, hi = 0, len(chain) - 1
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if evaluate(mid) == "regressed":
                    hi = mid
                else:
                    lo = mid
            result = self._diagnose(chain, lo, hi, probes, budget,
                                    good, bad)
            observe.event(
                "lineage.bisect.done", first_bad=result.first_bad,
                probes=result.probe_count, budget=budget,
            )
            return result

    def _diagnose(self, chain: list[str], lo: int, hi: int,
                  probes: list[ProbeRecord], budget: int,
                  good: str, bad: str) -> BisectResult:
        """Name the culprit step's metric, region, and rule firings by
        comparing first-bad against its immediate predecessor."""
        last_good, first_bad = chain[lo], chain[hi]
        parent_trial, _, _ = self._ensure_samples(last_good)
        culprit_trial, _, _ = self._ensure_samples(first_bad)
        application, experiment = self._coords(first_bad)
        report = compare_trials(
            parent_trial, culprit_trial, policy=self.policy,
            application=application, experiment=experiment,
        )
        rulebase_changed = (
            self.store.get(first_bad).rulebase_version
            != self.store.get(last_good).rulebase_version
        )
        scan = ScanResult(
            start=last_good, end=first_bad, versions=[last_good, first_bad],
            application=application, experiment=experiment,
            comparisons=[PairComparison(
                version=first_bad, parent=last_good, index=hi,
                application=application, experiment=experiment,
                baseline_trial=parent_trial.name,
                candidate_trial=culprit_trial.name,
                rulebase_changed=rulebase_changed,
                bridged_gaps=tuple(chain[lo + 1:hi]),
                report=report,
            )],
        )
        harness = diagnose_lineage(scan)
        offending = None
        offenders = report.top_offenders()
        if offenders:
            worst = offenders[0]
            offending = {
                "event": worst.event,
                "metric": worst.metric,
                "relative_change": worst.relative_change,
                "severity": worst.severity,
            }
        return BisectResult(
            status="found", good=good, bad=bad, versions=len(chain),
            probes=probes, budget=budget,
            first_bad=first_bad, last_good=last_good,
            offending=offending, report=report,
            facts=[{"type": f.fact_type, **f.as_dict()}
                   for f in harness.facts("VersionComparisonFact")
                   + harness.facts("DegradationFact")],
            recommendations=[{"type": r.fact_type, **r.as_dict()}
                             for r in harness.recommendations()],
        )
