"""Across-thread correlation between events (``CorrelationOperation``).

The MSA load-imbalance diagnosis needs the per-thread correlation between
the time spent in an inner loop and the time spent in its enclosing region:
a strong *negative* correlation means threads that finish the inner loop
early sit in the outer region's barrier — the signature of imbalance rather
than uniformly-slow code.

``process_data`` produces an events × events Pearson correlation matrix for
one metric (stored as a result whose "threads" axis is the second event
axis); :func:`event_correlation` answers the single-pair question directly.
"""

from __future__ import annotations

import numpy as np

from ..result import AnalysisError, PerformanceResult
from .base import PerformanceAnalysisOperation


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson r with the degenerate-variance case defined as 0."""
    if x.shape != y.shape:
        raise AnalysisError("correlation inputs must have equal length")
    if x.size < 2:
        return 0.0
    sx, sy = x.std(), y.std()
    if sx == 0 or sy == 0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


def event_correlation(
    result: PerformanceResult,
    event_a: str,
    event_b: str,
    metric: str,
    *,
    inclusive: bool = False,
) -> float:
    """Pearson correlation of two events' per-thread values."""
    if not result.has_event(event_a) or not result.has_event(event_b):
        raise AnalysisError(
            f"correlation: unknown event ({event_a!r} or {event_b!r})"
        )
    if not result.has_metric(metric):
        raise AnalysisError(f"correlation: no metric {metric!r}")
    a = result.event_row(event_a, metric, inclusive=inclusive)
    b = result.event_row(event_b, metric, inclusive=inclusive)
    return pearson(a, b)


class CorrelationOperation(PerformanceAnalysisOperation):
    """Full events × events correlation matrix over threads, one metric."""

    def __init__(
        self,
        input_result: PerformanceResult,
        metric: str,
        *,
        inclusive: bool = False,
    ) -> None:
        super().__init__(input_result)
        self._require_metric(input_result, metric)
        if input_result.thread_count < 2:
            raise AnalysisError(
                "correlation needs at least 2 threads of data "
                f"(got {input_result.thread_count})"
            )
        self.metric = metric
        self.inclusive = inclusive

    def process_data(self) -> list[PerformanceResult]:
        src = self.inputs[0]
        arr = (
            src.inclusive(self.metric) if self.inclusive else src.exclusive(self.metric)
        )
        n = len(src.events)
        matrix = np.zeros((n, n))
        stds = arr.std(axis=1)
        for i in range(n):
            matrix[i, i] = 1.0 if stds[i] > 0 else 0.0
            for j in range(i + 1, n):
                r = pearson(arr[i], arr[j])
                matrix[i, j] = matrix[j, i] = r
        out = (
            PerformanceResult.like(
                src, name=f"{src.name}:corr({self.metric})", n_threads=n
            )
            .set_metric(f"correlation:{self.metric}", matrix, derived=True)
            .build()
        )
        self.outputs = [out]
        return self.outputs

    def matrix(self) -> np.ndarray:
        if not self.outputs:
            self.process_data()
        return self.outputs[0].exclusive(f"correlation:{self.metric}")

    def correlation(self, event_a: str, event_b: str) -> float:
        m = self.matrix()
        src = self.inputs[0]
        return float(
            m[src.trial.event_index(event_a), src.trial.event_index(event_b)]
        )
