"""JSON profile interchange format.

PerfDMF supports ~a dozen profile formats; alongside the TAU text format we
provide a self-describing JSON format (one document per trial) that is easy
to generate from other tools and convenient for fixtures::

    {
      "name": "1_8",
      "metadata": {"schedule": "dynamic,1"},
      "threads": ["0.0.0", "0.0.1"],
      "events": [{"name": "main", "group": "TAU_DEFAULT"}, ...],
      "metrics": [{"name": "TIME", "units": "usec"}, ...],
      "data": {
        "TIME": {"exclusive": [[...], ...], "inclusive": [[...], ...]}
      },
      "calls": [[...], ...],
      "subroutines": [[...], ...]
    }

Arrays are row-major ``events × threads``, mirroring the in-memory layout.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from ..model import Event, Metric, ProfileError, ThreadId, Trial
from . import profile_text

FORMAT_VERSION = 1


def trial_to_dict(trial: Trial) -> dict[str, Any]:
    """Serialize a trial to a JSON-compatible dict."""
    return {
        "format_version": FORMAT_VERSION,
        "name": trial.name,
        "metadata": trial.metadata,
        "threads": [str(t) for t in trial.threads],
        "events": [{"name": e.name, "group": e.group} for e in trial.events],
        "metrics": [
            {"name": m.name, "units": m.units, "derived": m.derived}
            for m in trial.metrics
        ],
        "data": {
            m.name: {
                "exclusive": trial.exclusive_array(m.name).tolist(),
                "inclusive": trial.inclusive_array(m.name).tolist(),
            }
            for m in trial.metrics
        },
        "calls": trial.calls_array().tolist(),
        "subroutines": trial.subroutines_array().tolist(),
    }


_KINDS = {dict: "a JSON object", list: "a JSON array", str: "a string"}


def _typed(value: Any, kind: type, what: str) -> Any:
    if not isinstance(value, kind):
        raise ProfileError(
            f"{what} must be {_KINDS[kind]}, not {type(value).__name__}")
    return value


def _entry(obj: dict[str, Any], key: str, what: str) -> Any:
    if key not in _typed(obj, dict, what):
        raise ProfileError(f"{what} has no {key!r}")
    return obj[key]


def _matrix(value: Any, what: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProfileError(f"{what}: not a numeric matrix ({exc})") from None


def trial_from_dict(doc: dict[str, Any]) -> Trial:
    """Deserialize :func:`trial_to_dict` output back into a trial.

    Raises :class:`ProfileError` for any document that is not one."""
    _typed(doc, dict, "profile document")
    version = doc.get("format_version", FORMAT_VERSION)
    if not isinstance(version, int) or isinstance(version, bool):
        raise ProfileError(f"format_version must be an integer, got {version!r}")
    if version > FORMAT_VERSION:
        raise ProfileError(f"unsupported profile format version {version}")
    for key in ("name", "threads", "events", "metrics", "data"):
        if key not in doc:
            raise ProfileError(f"profile document missing key {key!r}")
    name = _typed(doc["name"], str, "trial name")
    metadata = doc.get("metadata")
    if metadata is not None:
        _typed(metadata, dict, "metadata")
    events = [
        Event(_typed(_entry(ev, "name", "event"), str, "event name"),
              _typed(ev.get("group", "TAU_DEFAULT"), str, "event group"))
        for ev in _typed(doc["events"], list, "events")]
    threads = [ThreadId.parse(_typed(t, str, "thread id"))
               for t in _typed(doc["threads"], list, "threads")]
    data = _typed(doc["data"], dict, "data")
    metrics, exclusive, inclusive = [], [], []
    for m in _typed(doc["metrics"], list, "metrics"):
        metric = Metric(
            _typed(_entry(m, "name", "metric"), str, "metric name"),
            units=_typed(m.get("units", "counts"), str, "metric units"),
            derived=bool(m.get("derived", False)),
        )
        if metric.name not in data:
            raise ProfileError(f"no data block for metric {metric.name!r}")
        block = f"data block {metric.name!r}"
        metrics.append(metric)
        exclusive.append(_matrix(_entry(data[metric.name], "exclusive", block),
                                 f"metric {metric.name!r} exclusive"))
        inclusive.append(_matrix(_entry(data[metric.name], "inclusive", block),
                                 f"metric {metric.name!r} inclusive"))
    counts = [_matrix(doc[key], f"{key} array") if key in doc
              else np.zeros((len(events), len(threads)))
              for key in ("calls", "subroutines")]
    trial = Trial.from_arrays(name, metadata, events, threads, metrics,
                              exclusive, inclusive, *counts)
    trial.validate()
    return trial


def write_json_profile(trial: Trial, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trial_to_dict(trial)))
    return path


def read_json_profile(path: str | Path) -> Trial:
    path = Path(path)
    if not path.is_file():
        raise ProfileError(f"no such profile file: {path}")
    try:
        doc = json.loads(profile_text(path))
    except json.JSONDecodeError as exc:
        raise ProfileError(f"{path}: invalid JSON: {exc}") from None
    try:
        return trial_from_dict(doc)
    except ProfileError as exc:
        raise ProfileError(f"{path}: {exc}") from None
