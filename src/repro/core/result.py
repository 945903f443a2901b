"""PerformanceResult: the datatype PerfExplorer operations exchange.

Every analysis operation consumes and produces ``PerformanceResult`` objects
— views over trial-shaped data (events × metrics × threads).  The class
wraps a :class:`~repro.perfdmf.Trial` and exposes both a Pythonic API and
the camelCase accessors the paper's Jython scripts use (``getEvents()``,
``getExclusive(thread, event, metric)``, ``getMainEvent()``), so the Fig. 1
script ports almost verbatim.

Aggregate results (e.g. the mean over threads produced by
``TrialMeanResult``) are ordinary results whose thread axis has collapsed
to one synthetic thread.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..perfdmf import MAIN_EVENT, Event, Metric, ProfileError, Trial


class AnalysisError(Exception):
    """Raised for invalid operation inputs or incompatible results.

    ``reason`` optionally carries a structured (JSON-able) account of the
    failure; the serve layer surfaces it as ``Job.failure["reason"]`` so
    programmatic consumers need not parse the message string.
    """

    def __init__(self, message: str = "", *, reason: dict | None = None):
        super().__init__(message)
        self.reason = dict(reason) if reason else None


class PerformanceResult:
    """A trial-shaped dataset flowing through analysis operations."""

    def __init__(self, trial: Trial, *, name: str | None = None) -> None:
        if trial.event_count == 0 or not trial.metric_names():
            raise AnalysisError("cannot analyze an empty trial")
        self.trial = trial
        self.name = name or trial.name

    # -- Pythonic accessors -------------------------------------------------
    @property
    def events(self) -> list[str]:
        return self.trial.event_names()

    @property
    def metrics(self) -> list[str]:
        return self.trial.metric_names()

    @property
    def thread_count(self) -> int:
        return self.trial.thread_count

    @property
    def metadata(self) -> dict:
        return self.trial.metadata

    def exclusive(self, metric: str) -> np.ndarray:
        """(events, threads) exclusive array for ``metric``."""
        return self.trial.exclusive_array(metric)

    def inclusive(self, metric: str) -> np.ndarray:
        return self.trial.inclusive_array(metric)

    def calls(self) -> np.ndarray:
        return self.trial.calls_array()

    def event_row(self, event: str, metric: str, *, inclusive: bool = False) -> np.ndarray:
        """One event's per-thread values."""
        e = self.trial.event_index(event)
        arr = self.inclusive(metric) if inclusive else self.exclusive(metric)
        return arr[e]

    def main_event(self) -> str:
        return self.trial.main_event()

    def has_metric(self, metric: str) -> bool:
        return self.trial.has_metric(metric)

    def has_event(self, event: str) -> bool:
        return self.trial.has_event(event)

    # -- camelCase mirror of the PerfExplorer script API --------------------
    def getEvents(self) -> list[str]:
        return self.events

    def getMetrics(self) -> list[str]:
        return self.metrics

    def getThreads(self) -> list[int]:
        return list(range(self.thread_count))

    def getExclusive(self, thread: int, event: str, metric: str) -> float:
        return self.trial.get_exclusive(event, metric, thread)

    def getInclusive(self, thread: int, event: str, metric: str) -> float:
        return self.trial.get_inclusive(event, metric, thread)

    def getCalls(self, thread: int, event: str) -> float:
        return self.trial.get_calls(event, thread)

    def getMainEvent(self) -> str:
        return self.main_event()

    def getName(self) -> str:
        return self.name

    # -- construction helpers used by operations ----------------------------
    @classmethod
    def like(
        cls,
        source: "PerformanceResult",
        *,
        name: str,
        events: list[str] | None = None,
        metrics: list[str] | None = None,
        n_threads: int | None = None,
    ) -> "_ResultBuilder":
        """Start building a result shaped like ``source`` (optionally with a
        different event/metric/thread set)."""
        return _ResultBuilder(
            name=name,
            events=list(events if events is not None else source.events),
            metrics=list(metrics if metrics is not None else source.metrics),
            n_threads=n_threads if n_threads is not None else source.thread_count,
            metadata=dict(source.metadata),
            source=source,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PerformanceResult({self.name!r}: {len(self.events)} events x "
            f"{len(self.metrics)} metrics x {self.thread_count} threads)"
        )


class _ResultBuilder:
    """Assembles a new PerformanceResult from dense arrays."""

    def __init__(self, *, name, events, metrics, n_threads, metadata, source):
        if not events:
            raise AnalysisError("result must have at least one event")
        if n_threads < 1:
            raise AnalysisError("result must have at least one thread")
        self._trial = Trial(name, metadata)
        self._source = source
        group_of = {}
        if source is not None:
            group_of = {e.name: e.group for e in source.trial.events}
        # one registration call per axis: the value tables are allocated
        # once instead of regrown per event and per thread
        self._trial.add_events(
            Event(ev, group_of.get(ev, "TAU_DEFAULT")) for ev in events
        )
        self._trial.add_threads(range(n_threads))
        self._metrics = list(metrics)
        self._n_threads = n_threads

    def set_metric(
        self,
        metric: str,
        exclusive: np.ndarray,
        inclusive: np.ndarray | None = None,
        *,
        derived: bool = False,
        units: str = "counts",
    ) -> "_ResultBuilder":
        exclusive = np.asarray(exclusive, dtype=float)
        expected = (self._trial.event_count, self._n_threads)
        if exclusive.shape != expected:
            raise AnalysisError(
                f"metric {metric!r}: shape {exclusive.shape} != {expected}"
            )
        self._trial.add_metric(Metric(metric, units=units, derived=derived))
        self._trial._exclusive[metric][:, :] = exclusive
        inc = exclusive if inclusive is None else np.asarray(inclusive, dtype=float)
        if inc.shape != expected:
            raise AnalysisError(f"metric {metric!r}: inclusive shape mismatch")
        self._trial._inclusive[metric][:, :] = inc
        return self

    def set_calls(self, calls: np.ndarray) -> "_ResultBuilder":
        calls = np.asarray(calls, dtype=float)
        expected = (self._trial.event_count, self._n_threads)
        if calls.shape != expected:
            raise AnalysisError(f"calls shape {calls.shape} != {expected}")
        self._trial._calls[:, :] = calls
        return self

    def build(self) -> PerformanceResult:
        if not self._trial.metric_names():
            raise AnalysisError("result has no metrics; call set_metric")
        return PerformanceResult(self._trial)


def trial_result(trial: Trial) -> PerformanceResult:
    """Wrap a trial without aggregation (the script API's ``TrialResult``)."""
    return PerformanceResult(trial)
