"""Interval profile snapshots — TAU's profile-snapshot mode for the
simulated runtime.

A :class:`SnapshotProfiler` is a :class:`~repro.runtime.tau.Profiler` that
can *cut* the accumulated measurements at application phase boundaries
(iteration ends, algorithm stages).  Each cut produces a standard
:class:`~repro.perfdmf.Trial` holding only the counters charged **since the
previous cut** — an interval profile — so every existing analysis operation
(statistics, correlation, the regression sentinel) works per-interval with
no changes.  Store the intervals as PerfDMF sub-trials with
:func:`repro.perfdmf.store_interval_trials`.

Cuts are taken via :meth:`Profiler.phase`, which applications call at
globally synchronized points; on the base profiler that is a trace mark
only, on this subclass it also materializes the interval trial.  Open
regions are handled by including each open frame's partial inclusive time
in the cumulative capture, so a region spanning several intervals
attributes each interval its share.
"""

from __future__ import annotations

import numpy as np

from ..machine import Machine
from ..perfdmf import Trial
from .tau import MeasurementError, Profiler, _resized
from .trace import EventTrace

__all__ = ["SnapshotProfiler"]


def _delta(cur: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """``cur - prev`` where ``prev`` was captured at smaller extents
    (events, CPU columns and counter slots only ever append)."""
    return cur - _resized(prev, cur.shape)


class _Capture:
    """Cumulative accounting at one instant (closed + open-frame partials)."""

    __slots__ = ("exclusive", "inclusive", "calls", "subrs", "t")

    def __init__(self, exclusive, inclusive, calls, subrs, t) -> None:
        self.exclusive = exclusive
        self.inclusive = inclusive
        self.calls = calls
        self.subrs = subrs
        self.t = t


_EMPTY = _Capture(np.zeros((0, 0, 0)), np.zeros((0, 0, 0)),
                  np.zeros((0, 0)), np.zeros((0, 0)), 0.0)


class SnapshotProfiler(Profiler):
    """Profiler that cuts interval profile snapshots at phase boundaries.

    Sub-trial names are ``interval_{index:04d}`` so interval sequences sort
    lexicographically.
    """

    def __init__(
        self,
        machine: Machine,
        *,
        callpaths: bool = False,
        trace: EventTrace | None = None,
    ) -> None:
        super().__init__(machine, callpaths=callpaths, trace=trace)
        self.snapshots: list[Trial] = []
        self._prev: _Capture = _EMPTY

    def phase(self, label: str) -> None:
        super().phase(label)
        self.snapshot(label)

    def _capture(self) -> _Capture:
        extent = (slice(0, len(self._event_order)), slice(0, len(self._columns)))
        inclusive = self._inclusive[extent].copy()
        # Regions still open at the cut contribute their inclusive-so-far;
        # when they eventually close, exit() folds the full amount into
        # the inclusive accumulator, and the next capture's delta stays
        # non-negative because the partial only ever grows.
        for state in self._cpus.values():
            for depth, frame in enumerate(state.stack):
                inclusive[frame.event, state.column] += (
                    self._open[state.column, depth])
                if frame.path_event >= 0:
                    inclusive[frame.path_event, state.column] += (
                        self._path_open[state.column, depth]
                    )
        t = max((s.clock_seconds for s in self._cpus.values()), default=0.0)
        return _Capture(self._exclusive[extent].copy(), inclusive,
                        self._calls[extent].copy(), self._subrs[extent].copy(), t)

    def snapshot(self, label: str | None = None, *, validate: bool = True) -> Trial:
        """Cut an interval: emit a trial of everything charged since the
        previous cut (or since the start of the run)."""
        cpus = sorted(self._cpus)
        if not cpus:
            raise MeasurementError("snapshot before any profiled activity")
        cur = self._capture()
        prev = self._prev
        index = len(self.snapshots)
        meta = {
            "interval": {
                "index": index,
                "label": label,
                "t_start": prev.t,
                "t_end": cur.t,
            },
        }
        trial = self._materialize(
            f"interval_{index:04d}", meta,
            exclusive=_delta(cur.exclusive, prev.exclusive),
            inclusive=_delta(cur.inclusive, prev.inclusive),
            calls=_delta(cur.calls, prev.calls),
            subrs=_delta(cur.subrs, prev.subrs),
            cpus=cpus, validate=validate,
        )
        self._prev = cur
        self.snapshots.append(trial)
        return trial
