"""Reader/writer for the TAU text profile format.

TAU writes one file per thread per metric.  With multiple metrics the files
live under ``MULTI__<METRIC>/profile.<node>.<context>.<thread>``; the
single-metric layout puts ``profile.n.c.t`` in the trial directory.  Each
file looks like::

    3 templated_functions_MULTI_CPU_CYCLES
    # Name Calls Subrs Excl Incl ProfileCalls
    "main" 1 2 1000 5000 0
    "loop1" 10 0 2500 2500 0
    "main => loop1" 10 0 2500 2500 0
    0 aggregates

Exclusive/inclusive are microseconds for TIME and raw counts for hardware
counters.  This module parses and emits that format so profiles round-trip
between the simulated TAU runtime, the filesystem, and PerfDMF.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable

from ..model import ProfileError, Trial
from . import profile_text
from .cells import CellTable

_HEADER_RE = re.compile(r"^(\d+)\s+templated_functions(?:_MULTI_(.+))?\s*$")
_PROFILE_FILE_RE = re.compile(r"^profile\.(\d+)\.(\d+)\.(\d+)$")
_MULTI_DIR_RE = re.compile(r"^MULTI__(.+)$")
# "name" calls subrs excl incl profcalls [GROUP="..."]
_LINE_RE = re.compile(
    r'^"(?P<name>(?:[^"\\]|\\.)*)"\s+'
    r"(?P<calls>[\d.eE+-]+)\s+(?P<subrs>[\d.eE+-]+)\s+"
    r"(?P<excl>[\d.eE+-]+)\s+(?P<incl>[\d.eE+-]+)\s+(?P<prof>[\d.eE+-]+)"
    r'(?:\s+GROUP="(?P<group>[^"]*)")?\s*$'
)


def write_tau_profile(trial: Trial, directory: str | Path) -> list[Path]:
    """Write ``trial`` in TAU layout under ``directory``; returns file paths.

    Multiple metrics always use the ``MULTI__`` layout (TAU does the same as
    soon as more than one counter is active).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    metrics = trial.metric_names()
    if not metrics:
        raise ProfileError("cannot write a trial with no metrics")
    multi = len(metrics) > 1
    written: list[Path] = []
    for metric in metrics:
        if multi:
            mdir = directory / f"MULTI__{_sanitize(metric)}"
            mdir.mkdir(exist_ok=True)
        else:
            mdir = directory
        exc = trial.exclusive_array(metric)
        inc = trial.inclusive_array(metric)
        calls = trial.calls_array()
        subrs = trial.subroutines_array()
        events = trial.events
        for t, thread in enumerate(trial.threads):
            path = mdir / f"profile.{thread.node}.{thread.context}.{thread.thread}"
            lines = [f"{len(events)} templated_functions_MULTI_{_sanitize(metric)}"]
            lines.append("# Name Calls Subrs Excl Incl ProfileCalls")
            for e, event in enumerate(events):
                name = event.name.replace("\\", "\\\\").replace('"', '\\"')
                lines.append(
                    f'"{name}" {calls[e, t]:g} {subrs[e, t]:g} '
                    f"{exc[e, t]:.10g} {inc[e, t]:.10g} 0 "
                    f'GROUP="{event.group}"'
                )
            lines.append("0 aggregates")
            path.write_text("\n".join(lines) + "\n")
            written.append(path)
    return written


def read_tau_profile(
    directory: str | Path, *, name: str | None = None, metadata: dict | None = None
) -> Trial:
    """Load a TAU-format profile directory into a :class:`Trial`."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ProfileError(f"no such profile directory: {directory}")
    metric_dirs: list[tuple[str | None, Path]] = []
    for child in sorted(directory.iterdir()):
        m = _MULTI_DIR_RE.match(child.name)
        if child.is_dir() and m:
            metric_dirs.append((m.group(1), child))
    if not metric_dirs:
        metric_dirs = [(None, directory)]

    table = CellTable()
    for metric_hint, mdir in metric_dirs:
        files = sorted(
            p for p in mdir.iterdir() if _PROFILE_FILE_RE.match(p.name)
        )
        if not files:
            raise ProfileError(f"no profile.n.c.t files in {mdir}")
        for path in files:
            _read_one_file(table, path, metric_hint)
    return table.trial(name or directory.name, metadata, str(directory))


def _read_one_file(table: CellTable, path: Path, metric_hint: str | None) -> None:
    m = _PROFILE_FILE_RE.match(path.name)
    assert m is not None
    lines = profile_text(path).splitlines()
    if not lines:
        raise ProfileError(f"{path}: empty profile file")
    header = _HEADER_RE.match(lines[0])
    if header is None:
        raise ProfileError(f"{path}: bad header line {lines[0]!r}")
    declared = int(header.group(1))
    metric = table.metric(header.group(2) or metric_hint or "TIME")
    thread = table.thread(*(int(part) for part in m.groups()))

    seen = 0
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if re.match(r"^\d+\s+aggregates", line) or re.match(r"^\d+\s+userevents", line):
            break
        lm = _LINE_RE.match(line)
        if lm is None:
            raise ProfileError(f"{path}:{lineno}: unparseable profile line {line!r}")
        try:
            calls, subrs, excl, incl = (
                float(lm.group(g)) for g in ("calls", "subrs", "excl", "incl"))
        except ValueError:
            raise ProfileError(
                f"{path}:{lineno}: malformed number in {line!r}") from None
        name = lm.group("name").replace('\\"', '"').replace("\\\\", "\\")
        try:
            event = table.event(name, lm.group("group") or "TAU_DEFAULT")
        except ProfileError as exc:
            raise ProfileError(f"{path}:{lineno}: {exc}") from None
        table.add(metric, event, thread, excl, incl, calls, subrs)
        seen += 1
    if seen != declared:
        raise ProfileError(
            f"{path}: header declared {declared} functions, found {seen}"
        )


def _sanitize(metric: str) -> str:
    """TAU replaces characters unsafe in directory names."""
    return re.sub(r"[^A-Za-z0-9_.+-]", "_", metric)
