"""Operation base class (PerfExplorer's ``PerformanceAnalysisOperation``).

Operations are small, composable transformations over
:class:`~repro.core.result.PerformanceResult` lists.  The contract mirrors
PerfExplorer 2.0's scripting interface: construct with inputs, call
``process_data()`` (alias ``processData()``), receive a list of results.
Each concrete operation documents what it appends to that list.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from typing import Iterable, Sequence

from ... import observe
from ..result import AnalysisError, PerformanceResult


def _observed(fn):
    """Wrap a ``process_data`` implementation in a telemetry span.

    Disabled telemetry short-circuits to the raw call after one flag
    check, so the per-operation cost is negligible.  The span carries the
    operation class plus input/output shapes (result counts and the first
    input's events × threads) as attributes.
    """

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        if not observe.enabled():
            return fn(self, *args, **kwargs)
        first = self.inputs[0]
        with observe.span(
            f"operation.{type(self).__name__}",
            inputs=len(self.inputs),
            events=len(first.events),
            threads=first.thread_count,
        ) as sp:
            out = fn(self, *args, **kwargs)
            try:
                sp.set(outputs=len(out))
            except TypeError:
                pass
            return out

    wrapper._observed = True
    return wrapper


class PerformanceAnalysisOperation(ABC):
    """Base class for all analysis operations.

    Every concrete subclass's ``process_data`` is automatically wrapped in
    a :mod:`repro.observe` span (one span per operation run), so a traced
    analysis shows exactly which operations ran, on what shapes, for how
    long.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        impl = cls.__dict__.get("process_data")
        if impl is not None and not getattr(impl, "_observed", False):
            cls.process_data = _observed(impl)

    def __init__(self, inputs: PerformanceResult | Sequence[PerformanceResult]) -> None:
        if isinstance(inputs, PerformanceResult):
            inputs = [inputs]
        inputs = list(inputs)
        if not inputs:
            raise AnalysisError(f"{type(self).__name__}: no input results")
        for r in inputs:
            if not isinstance(r, PerformanceResult):
                raise AnalysisError(
                    f"{type(self).__name__}: inputs must be PerformanceResult, "
                    f"got {type(r).__name__}"
                )
        self.inputs: list[PerformanceResult] = inputs
        self.outputs: list[PerformanceResult] = []

    @abstractmethod
    def process_data(self) -> list[PerformanceResult]:
        """Run the operation; returns (and stores in ``outputs``) results."""

    # camelCase alias used by ported PerfExplorer scripts
    def processData(self) -> "_ResultList":
        return _ResultList(self.process_data())

    def _require_metric(self, result: PerformanceResult, metric: str) -> None:
        if not result.has_metric(metric):
            raise AnalysisError(
                f"{type(self).__name__}: result {result.name!r} has no metric "
                f"{metric!r}; available: {result.metrics}"
            )


class _ResultList(list):
    """List with Java-style ``.get(i)`` so Fig. 1's
    ``operator.processData().get(0)`` works unchanged."""

    def get(self, index: int) -> PerformanceResult:
        return self[index]
