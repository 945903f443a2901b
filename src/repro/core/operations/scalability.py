"""Scaling analysis across a family of trials (``ScalabilityOperation``).

Given trials of the same application at increasing parallelism, computes
per-event and whole-program speedup and parallel efficiency relative to the
smallest configuration — the analysis behind Figs. 4(b), 5(a), and 5(b).

Speedup convention (the paper plots "relative speedup/efficiency"):

* whole-program: ``S(p) = T_base_total / T_p_total`` where T is the main
  event's mean inclusive time, scaled by the baseline thread count so a
  1-thread baseline gives classic speedup.
* per-event: same formula on each event's *mean exclusive* time — an event
  that does not get faster with threads (like the sequential
  ``exchange_var``) shows a flat per-event speedup curve.
* efficiency: ``E(p) = S(p) * base_threads / p``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...machine import counters as C
from ..result import AnalysisError, PerformanceResult
from .base import PerformanceAnalysisOperation
from .statistics import BasicStatisticsOperation


@dataclass
class ScalingSeries:
    """Speedup/efficiency series for one event (or the whole program)."""

    name: str
    threads: list[int]
    times: list[float]
    speedup: list[float]
    efficiency: list[float]


class ScalabilityOperation(PerformanceAnalysisOperation):
    """Compute scaling series from trials ordered by parallelism.

    Parameters
    ----------
    inputs:
        PerformanceResults at increasing thread counts (thread counts are
        read from the results themselves).
    metric:
        Time-like metric to scale (defaults to TIME).
    """

    def __init__(self, inputs, metric: str = C.TIME) -> None:
        super().__init__(inputs)
        if len(self.inputs) < 2:
            raise AnalysisError("scalability needs at least two trials")
        for r in self.inputs:
            self._require_metric(r, metric)
        counts = [r.thread_count for r in self.inputs]
        if sorted(counts) != counts or len(set(counts)) != len(counts):
            raise AnalysisError(
                f"trials must be ordered by strictly increasing thread count, got {counts}"
            )
        self.metric = metric

    # -- helpers ----------------------------------------------------------
    def _mean_results(self) -> list[PerformanceResult]:
        return [BasicStatisticsOperation(r).mean() for r in self.inputs]

    def program_series(self) -> ScalingSeries:
        """Whole-program speedup/efficiency from the main event."""
        means = self._mean_results()
        threads = [r.thread_count for r in self.inputs]
        times = []
        for m, src in zip(means, self.inputs):
            main = src.main_event()
            times.append(float(m.event_row(main, self.metric, inclusive=True)[0]))
        return self._series("program", threads, times)

    def event_series(self, event: str, *, inclusive: bool = False) -> ScalingSeries:
        """Per-event speedup/efficiency (mean exclusive time by default)."""
        means = self._mean_results()
        threads = [r.thread_count for r in self.inputs]
        times = []
        for m in means:
            if not m.has_event(event):
                raise AnalysisError(f"event {event!r} missing from {m.name!r}")
            times.append(float(m.event_row(event, self.metric, inclusive=inclusive)[0]))
        return self._series(event, threads, times)

    def _series(self, name: str, threads: list[int], times: list[float]) -> ScalingSeries:
        base_t, base_time = threads[0], times[0]
        if base_time <= 0:
            raise AnalysisError(f"non-positive baseline time for {name!r}")
        speedup = [base_time / t if t > 0 else float("inf") for t in times]
        efficiency = [s * base_t / p for s, p in zip(speedup, threads)]
        return ScalingSeries(name, threads, times, speedup, efficiency)

    def weak_efficiency_series(self) -> ScalingSeries:
        """Weak-scaling view: per-processor work is constant across the
        trials (the caller grew the problem with the machine), so ideal
        time is flat and efficiency is ``T_base / T_p``.

        The returned series reports that efficiency in both the
        ``speedup`` slot (scaled ideal: ``p × T_base / T_p``) and the
        ``efficiency`` slot (``T_base / T_p``).
        """
        means = self._mean_results()
        threads = [r.thread_count for r in self.inputs]
        times = []
        for m, src in zip(means, self.inputs):
            main = src.main_event()
            times.append(float(m.event_row(main, self.metric, inclusive=True)[0]))
        base_time = times[0]
        if base_time <= 0:
            raise AnalysisError("non-positive baseline time")
        efficiency = [base_time / t if t > 0 else float("inf") for t in times]
        speedup = [e * p / threads[0] for e, p in zip(efficiency, threads)]
        return ScalingSeries("program (weak)", threads, times, speedup, efficiency)

    def all_event_series(self, *, min_fraction: float = 0.0) -> dict[str, ScalingSeries]:
        """Series for every event holding at least ``min_fraction`` of the
        largest trial's total time."""
        means = self._mean_results()
        last_mean = means[-1]
        main = self.inputs[-1].main_event()
        total = float(last_mean.event_row(main, self.metric, inclusive=True)[0])
        out: dict[str, ScalingSeries] = {}
        shared = set(self.inputs[0].events)
        for r in self.inputs[1:]:
            shared &= set(r.events)
        for event in self.inputs[-1].events:
            if event not in shared:
                continue
            frac = (
                float(last_mean.event_row(event, self.metric)[0]) / total
                if total > 0
                else 0.0
            )
            if frac >= min_fraction:
                out[event] = self.event_series(event)
        return out

    def process_data(self) -> list[PerformanceResult]:
        """Emit one single-thread result per input trial holding the
        program speedup/efficiency as derived metrics (shape-compatible
        with downstream fact generation)."""
        series = self.program_series()
        outputs = []
        for i, src in enumerate(self.inputs):
            builder = PerformanceResult.like(
                src,
                name=f"{src.name}:scaling",
                events=[src.main_event()],
                n_threads=1,
            )
            builder.with_metric(
                "speedup", np.array([[series.speedup[i]]]), derived=True
            )
            builder.with_metric(
                "efficiency", np.array([[series.efficiency[i]]]), derived=True
            )
            outputs.append(PerformanceResult(builder.build(validate=False)))
        self.outputs = outputs
        return outputs
