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

import numpy as np

from ..perfdmf import Event, Trial, TrialBuilder


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
        n_threads: int | None = None,
    ) -> TrialBuilder:
        """A builder for a result shaped like ``source``: its metadata, its
        events (or ``events``, keeping the source's groups) and as many
        threads (or ``n_threads``).  Operations add the metrics and wrap
        ``build(validate=False)`` in a :class:`PerformanceResult`: derived
        values such as differences may be negative."""
        groups = {e.name: e.group for e in source.trial.events}
        return (
            TrialBuilder(name, source.trial.coded_metadata())
            .with_events(
                Event(ev, groups.get(ev, "TAU_DEFAULT"))
                for ev in (source.events if events is None else events)
            )
            .with_threads(source.thread_count if n_threads is None else n_threads)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PerformanceResult({self.name!r}: {len(self.events)} events x "
            f"{len(self.metrics)} metrics x {self.thread_count} threads)"
        )


def trial_result(trial: Trial) -> PerformanceResult:
    """Wrap a trial without aggregation (the script API's ``TrialResult``)."""
    return PerformanceResult(trial)
