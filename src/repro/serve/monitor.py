"""Continuous self-monitoring: the service watches its own vitals.

A one-off ``serve diagnose`` sees a *snapshot* — a saturated queue, a
cold cache — but cannot tell whether things are getting worse.  This
module closes that gap the paper's way: **performance knowledge lives as
data in the repository**.  A :class:`SelfMonitor` thread samples
``AnalysisService.stats()`` on an interval and stores each snapshot as
an ordinary PerfDMF trial under the :data:`SELF_APP` application, so the
service's own history sits next to the application profiles it analyzes.
:func:`service_trend_facts` then reads a window of snapshots back and
asserts *trend* facts — queue latency growing, cache hit rate decaying,
workers respawn-churning — which the ``service-rules`` rulebase turns
into recommendations just like any other degradation.

The module also hosts :func:`render_top`, the text dashboard behind
``repro-perf serve top``.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Iterable, Mapping

import numpy as np

from ..perfdmf import PerfDMF, Trial, TrialBuilder, next_trial_name
from ..rules import Fact

__all__ = [
    "SELF_APP",
    "SelfMonitor",
    "diagnose_trends",
    "load_snapshots",
    "render_top",
    "service_trend_facts",
    "stats_to_trial",
]

#: Application name service self-monitoring snapshots are stored under
#: (the observe dogfood bridge uses ``repro.observe``; this is the
#: service's own lane).
SELF_APP = "repro.serve"

#: Default experiment name for monitor snapshots.
DEFAULT_EXPERIMENT = "self-monitor"

#: The metric snapshot values are stored under (they are point-in-time
#: readings, not durations, so TAU's TIME would be a lie).
VALUE_METRIC = "VALUE"

#: Event group for snapshot readings.
STATS_GROUP = "SERVE_STATS"


def _numeric_leaves(obj: Any, prefix: str = "") -> dict[str, float]:
    """Flatten nested stats to dotted numeric leaves.

    ``{"queue": {"depth": 3}}`` → ``{"queue.depth": 3.0}``; booleans
    become 0/1, non-numeric leaves are skipped.
    """
    out: dict[str, float] = {}
    if isinstance(obj, Mapping):
        for key, value in obj.items():
            dotted = f"{prefix}.{key}" if prefix else str(key)
            out.update(_numeric_leaves(value, dotted))
    elif isinstance(obj, bool):
        out[prefix] = 1.0 if obj else 0.0
    elif isinstance(obj, (int, float)):
        out[prefix] = float(obj)
    return out


def stats_to_trial(stats: Mapping[str, Any], *, name: str,
                   metadata: Mapping | None = None) -> Trial:
    """One ``service.stats()`` snapshot as a PerfDMF trial.

    Every numeric leaf becomes an event (``queue.depth``,
    ``cache.hit_rate``, ``latency.queue_wait.p95``...) with the reading
    stored as both exclusive and inclusive :data:`VALUE_METRIC` on
    thread 0.  The full stats dict rides in ``metadata["stats"]`` so
    :func:`load_snapshots` recovers it losslessly.
    """
    leaves = _numeric_leaves(stats)
    if not leaves:
        raise ValueError("stats snapshot has no numeric leaves")
    meta = {
        "source": "repro.serve.monitor",
        "sampled_at": time.time(),
        "stats": dict(stats),
        **dict(metadata or {}),
    }
    events = sorted(leaves)
    values = np.array([[leaves[event]] for event in events])
    return (TrialBuilder(name, meta)
            .with_events(events, STATS_GROUP)
            .with_threads(1)
            .with_metric(VALUE_METRIC, values, units="reading")
            .with_calls(np.ones_like(values))
            .build(validate=False))


def load_snapshots(db: PerfDMF, *, experiment: str = DEFAULT_EXPERIMENT,
                   application: str = SELF_APP,
                   last: int | None = None) -> list[dict[str, Any]]:
    """The stored stats dicts, oldest first (``last`` trims to the most
    recent N)."""
    names = db.trials(application, experiment)
    if last is not None:
        names = names[-last:]
    out = []
    for name in names:
        meta = db.trial_metadata(application, experiment, name)
        stats = meta.get("stats")
        if isinstance(stats, dict):
            out.append(stats)
    return out


class SelfMonitor:
    """Background sampler: ``service.stats()`` → PerfDMF trial, repeat.

    The PerfDMF handle may be the service's own database (in-memory
    handles use shared-cache URIs, so cross-thread writes land in the
    same store) or a dedicated one.  ``sample_once()`` works without
    ``start()`` for tests and synchronous use.
    """

    def __init__(self, service, db: PerfDMF, *,
                 interval: float = 5.0,
                 experiment: str = DEFAULT_EXPERIMENT) -> None:
        self.service = service
        self.db = db
        self.interval = interval
        self.experiment = experiment
        self.samples = 0
        #: Failed samples (the loop survives them); exposed through the
        #: service's ``stats()`` and metrics.
        self.errors = 0
        service.monitor = self
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def sample_once(self) -> str:
        """Take one snapshot now; returns the stored trial name."""
        stats = self.service.stats()
        name = next_trial_name(self.db, SELF_APP, self.experiment, "snap")
        trial = stats_to_trial(stats, name=name,
                               metadata={"interval_s": self.interval})
        self.db.save_trial(SELF_APP, self.experiment, trial)
        self.samples += 1
        return name

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.sample_once()
            except Exception:  # noqa: BLE001 - monitoring must not kill serve
                self.errors += 1

    def start(self) -> "SelfMonitor":
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="serve-monitor", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()


# -- trend analysis ---------------------------------------------------------

def _series(snapshots: list[dict], *path: str) -> list[float]:
    out = []
    for snap in snapshots:
        node: Any = snap
        for key in path:
            if not isinstance(node, Mapping) or key not in node:
                node = None
                break
            node = node[key]
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            out.append(float(node))
    return out


def _monotone(values: Iterable[float], cmp) -> bool:
    values = list(values)
    return all(cmp(a, b) for a, b in zip(values, values[1:]))


#: Trend thresholds: relative queue-wait p95 growth, absolute cache hit
#: rate drop, worker respawns, and the fewest snapshots a trend needs.
LATENCY_GROWTH = 0.5
HIT_RATE_DROP = 0.10
RESPAWN_CHURN = 2
MIN_SNAPSHOTS = 3


def service_trend_facts(
    snapshots: list[dict[str, Any]],
    *,
    window: int = 5,
) -> list[Fact]:
    """Trend facts over a window of stats snapshots (oldest first).

    A trend must be *consistent* (monotone across the window) **and**
    *material* (past the threshold) to fire — a single noisy reading
    does not:

    * ``queue-wait-p95`` growing ≥ :data:`LATENCY_GROWTH` relative (0.5 =
      +50 %) and never shrinking → latency trend;
    * ``cache.hit_rate`` dropping ≥ :data:`HIT_RATE_DROP` absolute and
      never rising → cache decay;
    * ``workers.respawns`` climbing by ≥ :data:`RESPAWN_CHURN` → churn
      (respawn counts are cumulative, so any rise is monotone already).

    Each needs at least :data:`MIN_SNAPSHOTS` readings.
    """
    snapshots = snapshots[-window:]
    if len(snapshots) < MIN_SNAPSHOTS:
        return []
    facts: list[Fact] = []

    def trend(metric: str, direction: str, series: list[float]) -> None:
        facts.append(Fact(
            "ServiceTrendFact",
            metric=metric,
            direction=direction,
            first=series[0],
            last=series[-1],
            change=series[-1] - series[0],
            snapshots=len(series),
        ))

    p95 = _series(snapshots, "queue_wait", "p95")
    if (len(p95) >= MIN_SNAPSHOTS and p95[0] > 0
            and _monotone(p95, lambda a, b: a <= b)
            and p95[-1] >= p95[0] * (1.0 + LATENCY_GROWTH)):
        trend("queue-wait-p95", "growing", p95)

    hit_rate = _series(snapshots, "cache", "hit_rate")
    if (len(hit_rate) >= MIN_SNAPSHOTS
            and _monotone(hit_rate, lambda a, b: a >= b)
            and hit_rate[0] - hit_rate[-1] >= HIT_RATE_DROP):
        trend("cache-hit-rate", "decaying", hit_rate)

    respawns = _series(snapshots, "workers", "respawns")
    if (len(respawns) >= MIN_SNAPSHOTS
            and respawns[-1] - respawns[0] >= RESPAWN_CHURN):
        trend("worker-respawns", "growing", respawns)

    return facts


def diagnose_trends(db: PerfDMF, *,
                    experiment: str = DEFAULT_EXPERIMENT,
                    window: int = 5):
    """Replay stored snapshots through ``service-rules``; returns the
    fired harness (same shape as ``AnalysisService.diagnose_service``)."""
    from ..core.harness import RuleHarness

    snapshots = load_snapshots(db, experiment=experiment, last=window)
    harness = RuleHarness("service-rules")
    harness.assertObjects(
        service_trend_facts(snapshots, window=window)
    )
    harness.processRules()
    return harness


# -- the dashboard ----------------------------------------------------------

def render_top(stats: Mapping[str, Any]) -> str:
    """One ``serve top`` frame: fleet vitals as aligned text."""
    jobs = stats.get("jobs", {})
    queue = stats.get("queue", {})
    cache = stats.get("cache", {})
    workers = stats.get("workers", {})
    by_status = jobs.get("by_status", {})
    qw = stats.get("queue_wait") or {}
    lines = [
        f"repro-perf serve — up {stats.get('uptime_s', 0.0):.1f}s, "
        f"{workers.get('count', 0)} {workers.get('mode', '?')} workers "
        f"({workers.get('alive', 0)} alive, "
        f"{workers.get('respawns', 0)} respawns)",
        "",
        f"  jobs      submitted {jobs.get('submitted', 0):<6} "
        f"in-flight {jobs.get('in_flight', 0):<4} "
        + " ".join(f"{status} {count}"
                   for status, count in sorted(by_status.items())),
        f"  queue     depth {queue.get('depth', 0)}/"
        f"{queue.get('maxsize', 0) or '∞'}   "
        f"high-water {queue.get('high_water', 0)}   "
        f"rejected {queue.get('rejected', 0)}   "
        f"retried {queue.get('retried', 0)}",
        f"  wait      p50 {qw.get('p50', 0.0):.4f}s  "
        f"p95 {qw.get('p95', 0.0):.4f}s  "
        f"p99 {qw.get('p99', 0.0):.4f}s",
        f"  cache     hit rate {cache.get('hit_rate', 0.0):.1%}  "
        f"({cache.get('hits', 0)} hits / {cache.get('misses', 0)} misses, "
        f"{cache.get('entries', 0)} entries)",
    ]
    exec_kinds = stats.get("exec") or {}
    if exec_kinds:
        lines.append("  exec p95  " + "  ".join(
            f"{kind} {pct.get('p95', 0.0):.4f}s"
            for kind, pct in sorted(exec_kinds.items())
        ))
    return "\n".join(lines)
