"""Subsetting operations: events, metrics, thread ranges, top-X.

PerfExplorer's drill-down workflow repeatedly narrows results — to the
significant events, to one metric, to one rank's threads — before running
heavier analyses.  These operations implement that narrowing.
"""

from __future__ import annotations

import numpy as np

from ..result import AnalysisError, PerformanceResult
from .base import PerformanceAnalysisOperation


class ExtractEventOperation(PerformanceAnalysisOperation):
    """Keep only the named events (order preserved as given)."""

    def __init__(self, input_result: PerformanceResult, events: list[str]) -> None:
        super().__init__(input_result)
        if not events:
            raise AnalysisError("ExtractEventOperation: empty event list")
        missing = [e for e in events if not input_result.has_event(e)]
        if missing:
            raise AnalysisError(f"ExtractEventOperation: unknown events {missing}")
        self.events = list(events)

    def process_data(self) -> list[PerformanceResult]:
        src = self.inputs[0]
        idx = [src.trial.event_index(e) for e in self.events]
        builder = PerformanceResult.like(
            src, name=f"{src.name}:events", events=self.events
        )
        for metric in src.trial.metrics:
            builder.with_metric(metric, src.exclusive(metric.name)[idx],
                                src.inclusive(metric.name)[idx])
        builder.with_calls(src.calls()[idx])
        self.outputs = [PerformanceResult(builder.build(validate=False))]
        return self.outputs


class ExtractMetricOperation(PerformanceAnalysisOperation):
    """Keep only the named metrics."""

    def __init__(self, input_result: PerformanceResult, metrics: list[str]) -> None:
        super().__init__(input_result)
        if not metrics:
            raise AnalysisError("ExtractMetricOperation: empty metric list")
        for m in metrics:
            self._require_metric(input_result, m)
        self.metrics = list(metrics)

    def process_data(self) -> list[PerformanceResult]:
        src = self.inputs[0]
        builder = PerformanceResult.like(src, name=f"{src.name}:metrics")
        for metric in self.metrics:
            builder.with_metric(src.trial.metric(metric), src.exclusive(metric),
                                src.inclusive(metric))
        builder.with_calls(src.calls())
        self.outputs = [PerformanceResult(builder.build(validate=False))]
        return self.outputs


class ExtractRankOperation(PerformanceAnalysisOperation):
    """Keep a contiguous range of threads [first, last]."""

    def __init__(self, input_result: PerformanceResult, first: int, last: int) -> None:
        super().__init__(input_result)
        n = input_result.thread_count
        if not (0 <= first <= last < n):
            raise AnalysisError(
                f"ExtractRankOperation: bad range [{first},{last}] for {n} threads"
            )
        self.first, self.last = first, last

    def process_data(self) -> list[PerformanceResult]:
        src = self.inputs[0]
        sl = slice(self.first, self.last + 1)
        builder = PerformanceResult.like(
            src,
            name=f"{src.name}:ranks[{self.first}:{self.last}]",
            n_threads=self.last - self.first + 1,
        )
        for metric in src.trial.metrics:
            builder.with_metric(metric, src.exclusive(metric.name)[:, sl],
                                src.inclusive(metric.name)[:, sl])
        builder.with_calls(src.calls()[:, sl])
        self.outputs = [PerformanceResult(builder.build(validate=False))]
        return self.outputs


class TopXEvents(PerformanceAnalysisOperation):
    """The X events with the largest mean value of one metric.

    Sorting uses mean exclusive values across threads, descending — the
    "where does the time go" question every drill-down starts with.
    """

    def __init__(self, input_result: PerformanceResult, metric: str, x: int) -> None:
        super().__init__(input_result)
        self._require_metric(input_result, metric)
        if x < 1:
            raise AnalysisError("TopXEvents: x must be >= 1")
        self.metric = metric
        self.x = x

    def ranked_events(self) -> list[str]:
        src = self.inputs[0]
        means = src.exclusive(self.metric).mean(axis=1)
        order = np.argsort(-means, kind="stable")
        return [src.events[i] for i in order[: self.x]]

    def process_data(self) -> list[PerformanceResult]:
        keep = self.ranked_events()
        self.outputs = ExtractEventOperation(self.inputs[0], keep).process_data()
        return self.outputs


class TopXPercentEvents(PerformanceAnalysisOperation):
    """Smallest set of events covering ``percent`` of a metric's total."""

    def __init__(
        self, input_result: PerformanceResult, metric: str, percent: float
    ) -> None:
        super().__init__(input_result)
        self._require_metric(input_result, metric)
        if not 0 < percent <= 100:
            raise AnalysisError("TopXPercentEvents: percent must be in (0, 100]")
        self.metric = metric
        self.percent = percent

    def ranked_events(self) -> list[str]:
        src = self.inputs[0]
        means = src.exclusive(self.metric).mean(axis=1)
        total = means.sum()
        if total <= 0:
            return [src.events[0]]
        order = np.argsort(-means, kind="stable")
        keep = []
        covered = 0.0
        for i in order:
            keep.append(src.events[i])
            covered += means[i]
            if covered / total * 100.0 >= self.percent:
                break
        return keep

    def process_data(self) -> list[PerformanceResult]:
        keep = self.ranked_events()
        self.outputs = ExtractEventOperation(self.inputs[0], keep).process_data()
        return self.outputs
