"""Importer for gprof flat-profile text output.

PerfDMF's breadth came from accepting whatever profilers users already had;
gprof's flat profile is the lowest common denominator of sequential
profiling.  This loader parses the classic ``gprof`` flat-profile table::

    Flat profile:

    Each sample counts as 0.01 seconds.
      %   cumulative   self              self     total
     time   seconds   seconds    calls  ms/call  ms/call  name
     52.10      1.05     1.05      200     5.25     7.85  matxvec
     21.00      1.47     0.42     1000     0.42     0.42  pc_jacobi
      ...

into a single-thread trial with the TIME metric: ``self seconds`` become
exclusive time, ``total ms/call × calls`` the inclusive time (gprof's
callees-included estimate), and ``calls`` the call counts.  Rows without
call counts (e.g. the time spent in main) get inclusive = cumulative total.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from ..model import Event, Metric, ProfileError, ThreadId, Trial
from . import profile_text

_HEADER_RE = re.compile(r"^\s*%\s+cumulative\s+self\b")
# % time | cumulative s | self s | [calls | self ms/call | total ms/call] | name
_ROW_RE = re.compile(
    r"^\s*(?P<pct>\d+\.\d+)\s+(?P<cum>\d+\.\d+)\s+(?P<self>\d+\.\d+)"
    r"(?:\s+(?P<calls>\d+)\s+(?P<self_ms>[\d.]+)\s+(?P<total_ms>[\d.]+))?"
    r"\s+(?P<name>\S.*?)\s*$"
)
#: A "name" of a count then a number: call-count columns that did not parse.
_COUNT_COLUMN = re.compile(r"\d\S*\s+[\d.]")


def read_gprof_profile(
    path: str | Path, *, name: str | None = None, metadata: dict | None = None
) -> Trial:
    """Parse a gprof flat profile into a single-thread trial; errors name
    ``path:line``."""
    path = Path(path)
    if not path.is_file():
        raise ProfileError(f"no such gprof file: {path}")
    return _parse(profile_text(path).splitlines(), name or path.stem,
                  metadata, str(path))


def parse_gprof_text(
    lines: list[str], *, name: str = "gprof", metadata: dict | None = None
) -> Trial:
    """Parse gprof flat-profile lines (see :func:`read_gprof_profile`);
    errors name ``<gprof>:line``."""
    return _parse(lines, name, metadata, "<gprof>")


def _parse(lines: list[str], name: str, metadata: dict | None,
           source: str) -> Trial:
    """A repeated function name keeps its last row, at its first position.
    The table ends at its first blank line; a row that does not parse
    before it raises :class:`ProfileError`."""
    in_table = False
    #: function → (self seconds, calls, total ms/call); no calls → None
    rows: dict[str, tuple[float, float | None, float]] = {}
    total_seconds = 0.0
    for lineno, line in enumerate(lines, start=1):
        if _HEADER_RE.match(line):
            in_table = True
            continue
        if not in_table:
            continue
        stripped = line.strip()
        if not stripped:
            if rows:
                break  # blank line ends the flat table
            continue
        if stripped.startswith(("time", "name")):
            continue  # the second header line
        m = _ROW_RE.match(line)
        if m is None:
            raise ProfileError(f"{source}:{lineno}: unparseable gprof row "
                               f"{line!r}")
        if m["calls"] is None and _COUNT_COLUMN.match(m["name"]):
            raise ProfileError(f"{source}:{lineno}: malformed call counts "
                               f"in {line!r}")
        try:
            total_seconds = max(total_seconds, float(m["cum"]))
            if m["calls"] is None:
                rows[m["name"]] = (float(m["self"]), None, 0.0)
            else:
                _, calls, total_ms = (float(m[group]) for group in
                                      ("self_ms", "calls", "total_ms"))
                rows[m["name"]] = (float(m["self"]), calls, total_ms)
        except ValueError:
            raise ProfileError(
                f"{source}:{lineno}: malformed number in {line!r}") from None
    if not rows:
        raise ProfileError(f"{source}: no flat-profile table found in gprof "
                           "output")

    # exclusive, inclusive (usec) and calls, one (functions, 1) array each
    values = np.zeros((3, len(rows), 1))
    for i, (self_s, calls, total_ms) in enumerate(rows.values()):
        self_us = self_s * 1e6
        if calls is None:
            values[:, i, 0] = self_us, max(total_seconds * 1e6, self_us), 1.0
        else:
            values[:, i, 0] = (self_us, max(total_ms * 1e3 * calls, self_us),
                               calls)
    trial = Trial.from_arrays(
        name, metadata, [Event(fn, "GPROF") for fn in rows],
        [ThreadId(0, 0, 0)], [Metric("TIME", units="usec")],
        [values[0]], [values[1]], values[2], np.zeros((len(rows), 1)))
    try:
        trial.validate()
    except ProfileError as exc:
        raise ProfileError(f"{source}: {exc}") from None
    return trial
