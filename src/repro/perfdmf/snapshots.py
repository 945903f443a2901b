"""Storing interval profile snapshots as PerfDMF sub-trials.

A :class:`~repro.runtime.snapshot.SnapshotProfiler` cuts one
:class:`~repro.perfdmf.Trial` per application phase.  PerfDMF's hierarchy
has no sub-trial concept, so intervals are stored as ordinary trials under
a *derived experiment* named after the parent run
(``"<experiment>/<trial>@intervals"``).  That keeps every consumer working
unchanged — statistics and correlation operations load interval trials like
any other, and the regression sentinel can baseline/check an individual
interval (e.g. "iteration 7 regressed" instead of "the run regressed").
"""

from __future__ import annotations

from .database import PerfDMF
from .model import Trial

__all__ = [
    "interval_experiment",
    "store_interval_trials",
    "load_interval_trials",
]

#: Suffix marking a derived experiment that holds interval sub-trials.
INTERVAL_SUFFIX = "@intervals"


def interval_experiment(experiment: str, trial: str) -> str:
    """Name of the derived experiment holding ``experiment/trial``'s
    interval snapshots."""
    return f"{experiment}/{trial}{INTERVAL_SUFFIX}"


def store_interval_trials(
    db: PerfDMF,
    application: str,
    experiment: str,
    parent_trial: str,
    snapshots: list[Trial],
    *,
    replace: bool = True,
) -> list[int]:
    """Persist snapshot sub-trials; returns their trial ids in order.
    With ``replace``, an earlier run's intervals that this run lacks are
    deleted after the new ones are saved, so none go missing midway."""
    derived = interval_experiment(experiment, parent_trial)
    ids = []
    for snap in snapshots:
        stamped = snap.copy()
        stamped.metadata.setdefault("parent_trial", parent_trial)
        stamped.metadata.setdefault("parent_experiment", experiment)
        ids.append(db.save_trial(application, derived, stamped, replace=replace))
    if replace:
        names = {snap.name for snap in snapshots}
        for stale in db.trials(application, derived):
            if stale not in names:
                db.delete_trial(application, derived, stale)
    return ids


def load_interval_trials(
    db: PerfDMF, application: str, experiment: str, parent_trial: str
) -> list[Trial]:
    """Load a run's interval sub-trials in snapshot order."""
    derived = interval_experiment(experiment, parent_trial)
    names = sorted(db.trials(application, derived))
    return [db.load_trial(application, derived, n) for n in names]
