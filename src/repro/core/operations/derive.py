"""Metric derivation (the paper's ``DeriveMetricOperation``).

Creates a new metric by combining two existing ones pointwise — e.g. the
stalls-per-cycle inefficiency metric of Fig. 1::

    operator = DeriveMetricOperation(trial, "BACK_END_BUBBLE_ALL",
                                     "CPU_CYCLES", DeriveMetricOperation.DIVIDE)
    derived = operator.processData().get(0)

The derived metric is named ``"(A <op> B)"`` exactly as PerfExplorer names
it, so rules can pattern-match the metric string.  Division guards against
zero denominators (0/0 := 0), since idle threads legitimately record zero
cycles in some events.
"""

from __future__ import annotations

import numpy as np

from ..result import AnalysisError, PerformanceResult
from .base import PerformanceAnalysisOperation


def _with_derived(
    src: PerformanceResult, name: str, exc: np.ndarray, inc: np.ndarray
) -> PerformanceResult:
    """``src`` with every input metric carried through and the derived
    metric ``name`` last (it replaces an input metric of that name)."""
    builder = PerformanceResult.like(src, name=f"{src.name}:{name}")
    for m in src.trial.metrics:
        if m.name != name:
            builder.with_metric(m, src.exclusive(m.name), src.inclusive(m.name))
    builder.with_metric(name, exc, inc, derived=True)
    builder.with_calls(src.calls())
    return PerformanceResult(builder.build(validate=False))


class DeriveMetricOperation(PerformanceAnalysisOperation):
    """Derive ``metric1 <op> metric2`` as a new metric."""

    ADD = "+"
    SUBTRACT = "-"
    MULTIPLY = "*"
    DIVIDE = "/"
    _OPS = (ADD, SUBTRACT, MULTIPLY, DIVIDE)

    def __init__(
        self,
        input_result: PerformanceResult,
        metric1: str,
        metric2: str,
        operation: str,
    ) -> None:
        super().__init__(input_result)
        if operation not in self._OPS:
            raise AnalysisError(
                f"unknown derive operation {operation!r}; expected one of {self._OPS}"
            )
        self._require_metric(input_result, metric1)
        self._require_metric(input_result, metric2)
        self.metric1 = metric1
        self.metric2 = metric2
        self.operation = operation

    @property
    def derived_name(self) -> str:
        return f"({self.metric1} {self.operation} {self.metric2})"

    def _apply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.operation == self.ADD:
            return a + b
        if self.operation == self.SUBTRACT:
            return a - b
        if self.operation == self.MULTIPLY:
            return a * b
        return np.divide(a, b, out=np.zeros_like(a), where=b != 0)

    def process_data(self) -> list[PerformanceResult]:
        src = self.inputs[0]
        exc = self._apply(src.exclusive(self.metric1), src.exclusive(self.metric2))
        inc = self._apply(src.inclusive(self.metric1), src.inclusive(self.metric2))
        self.outputs = [_with_derived(src, self.derived_name, exc, inc)]
        return self.outputs


class ScaleMetricOperation(PerformanceAnalysisOperation):
    """Multiply one metric by a scalar, producing ``"(M * k)"``.

    Used for unit conversions (e.g. latency-weighting miss counts when
    assembling the paper's Memory Stalls formula).
    """

    def __init__(self, input_result: PerformanceResult, metric: str, factor: float) -> None:
        super().__init__(input_result)
        self._require_metric(input_result, metric)
        self.metric = metric
        self.factor = float(factor)

    @property
    def derived_name(self) -> str:
        return f"({self.metric} * {self.factor:g})"

    def process_data(self) -> list[PerformanceResult]:
        src = self.inputs[0]
        self.outputs = [_with_derived(
            src, self.derived_name,
            src.exclusive(self.metric) * self.factor,
            src.inclusive(self.metric) * self.factor,
        )]
        return self.outputs


def derive_chain(
    result: PerformanceResult, terms: list[tuple[str, float]], *, name: str
) -> PerformanceResult:
    """Weighted sum of metrics as a single derived metric.

    Implements formula-style derivations like the paper's::

        Memory Stalls = (L2_refs - L2_miss)*L2_lat + (L2_miss - L3_miss)*L3_lat
                        + ... + TLB_misses*TLB_penalty

    ``terms`` is ``[(metric, coefficient), ...]``; the output metric is
    named ``name`` and flagged derived.
    """
    if not terms:
        raise AnalysisError("derive_chain needs at least one term")
    exc = None
    inc = None
    for metric, coeff in terms:
        if not result.has_metric(metric):
            raise AnalysisError(
                f"derive_chain: no metric {metric!r} in {result.name!r}"
            )
        e = result.exclusive(metric) * coeff
        i = result.inclusive(metric) * coeff
        exc = e if exc is None else exc + e
        inc = i if inc is None else inc + i
    return _with_derived(result, name, exc, inc)
