"""Cross-trial operations: difference, ratio-of-trials, merge.

The CUBE "performance algebra" the related-work section cites (difference /
merge / aggregation over profiles) exists inside PerfExplorer as cross-trial
operations; the GenIDLEST study uses them to compare the OpenMP
implementation against MPI ("higher number of L3 cache misses and latencies
in the OpenMP version, as opposed to the MPI version").
"""

from __future__ import annotations

import numpy as np

from ..result import AnalysisError, PerformanceResult
from .base import PerformanceAnalysisOperation


def _aligned_events(a: PerformanceResult, b: PerformanceResult) -> list[str]:
    """Events present in both results, in ``a``'s order."""
    bset = set(b.events)
    shared = [e for e in a.events if e in bset]
    if not shared:
        raise AnalysisError(
            f"results {a.name!r} and {b.name!r} share no events"
        )
    return shared


def _aligned_metrics(a: PerformanceResult, b: PerformanceResult) -> list[str]:
    bset = set(b.metrics)
    shared = [m for m in a.metrics if m in bset]
    if not shared:
        raise AnalysisError(
            f"results {a.name!r} and {b.name!r} share no metrics"
        )
    return shared


class DifferenceOperation(PerformanceAnalysisOperation):
    """``inputs[0] - inputs[1]`` over shared events/metrics.

    Thread axes must match; use BasicStatisticsOperation first to compare
    trials of different widths (mean vs mean).
    """

    def __init__(self, minuend: PerformanceResult, subtrahend: PerformanceResult) -> None:
        super().__init__([minuend, subtrahend])
        if minuend.thread_count != subtrahend.thread_count:
            raise AnalysisError(
                "DifferenceOperation: thread counts differ "
                f"({minuend.thread_count} vs {subtrahend.thread_count}); "
                "reduce to means first"
            )

    def process_data(self) -> list[PerformanceResult]:
        a, b = self.inputs
        events = _aligned_events(a, b)
        metrics = _aligned_metrics(a, b)
        ia = [a.trial.event_index(e) for e in events]
        ib = [b.trial.event_index(e) for e in events]
        builder = PerformanceResult.like(
            a, name=f"({a.name} - {b.name})", events=events
        )
        for m in metrics:
            builder.with_metric(
                a.trial.metric(m),
                a.exclusive(m)[ia] - b.exclusive(m)[ib],
                a.inclusive(m)[ia] - b.inclusive(m)[ib],
                derived=True,
            )
        builder.with_calls(a.calls()[ia] - b.calls()[ib])
        self.outputs = [PerformanceResult(builder.build(validate=False))]
        return self.outputs


class TrialRatioOperation(PerformanceAnalysisOperation):
    """``inputs[0] / inputs[1]`` over shared events/metrics (0/0 := 0).

    The OpenMP-vs-MPI comparison: a ratio of 11.16 on the main event's time
    is the paper's "lagged by a factor of 11.16" statement.
    """

    def __init__(self, numerator: PerformanceResult, denominator: PerformanceResult) -> None:
        super().__init__([numerator, denominator])
        if numerator.thread_count != denominator.thread_count:
            raise AnalysisError(
                "TrialRatioOperation: thread counts differ; reduce to means first"
            )

    def process_data(self) -> list[PerformanceResult]:
        a, b = self.inputs
        events = _aligned_events(a, b)
        metrics = _aligned_metrics(a, b)
        ia = [a.trial.event_index(e) for e in events]
        ib = [b.trial.event_index(e) for e in events]
        builder = PerformanceResult.like(
            a, name=f"({a.name} / {b.name})", events=events
        )
        for m in metrics:
            bx, bi = b.exclusive(m)[ib], b.inclusive(m)[ib]
            builder.with_metric(
                m,
                np.divide(a.exclusive(m)[ia], bx,
                          out=np.zeros((len(events), a.thread_count)), where=bx != 0),
                np.divide(a.inclusive(m)[ia], bi,
                          out=np.zeros((len(events), a.thread_count)), where=bi != 0),
                derived=True,
            )
        self.outputs = [PerformanceResult(builder.build(validate=False))]
        return self.outputs


class MergeTrialsOperation(PerformanceAnalysisOperation):
    """Concatenate the thread axes of shape-compatible trials.

    Used to pool repeated runs before statistics (PerfExplorer merges
    trials of an experiment the same way).  All inputs must share event and
    metric sets.
    """

    def __init__(self, inputs) -> None:
        super().__init__(inputs)
        if len(self.inputs) < 2:
            raise AnalysisError("MergeTrialsOperation: need at least two inputs")
        first = self.inputs[0]
        for other in self.inputs[1:]:
            if set(other.events) != set(first.events):
                raise AnalysisError("MergeTrialsOperation: event sets differ")
            if set(other.metrics) != set(first.metrics):
                raise AnalysisError("MergeTrialsOperation: metric sets differ")

    def process_data(self) -> list[PerformanceResult]:
        first = self.inputs[0]
        events = first.events
        total_threads = sum(r.thread_count for r in self.inputs)
        builder = PerformanceResult.like(
            first, name=f"merge({len(self.inputs)})", n_threads=total_threads
        )
        for m in first.trial.metrics:
            exc_parts, inc_parts = [], []
            for r in self.inputs:
                idx = [r.trial.event_index(e) for e in events]
                exc_parts.append(r.exclusive(m.name)[idx])
                inc_parts.append(r.inclusive(m.name)[idx])
            builder.with_metric(m, np.hstack(exc_parts), np.hstack(inc_parts))
        calls_parts = []
        for r in self.inputs:
            idx = [r.trial.event_index(e) for e in events]
            calls_parts.append(r.calls()[idx])
        builder.with_calls(np.hstack(calls_parts))
        self.outputs = [PerformanceResult(builder.build(validate=False))]
        return self.outputs
