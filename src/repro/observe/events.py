"""Structured event log: timestamped, typed records instead of prints.

Rule diagnoses, gate verdicts, and truncation markers land here as dicts;
exporters serialize them as JSONL lines or Chrome instant events.  The log
also owns the *console sink* — the one sanctioned path to a user-visible
line (``RuleEngine(echo=True)`` routes through it), so tests and the CLI
can capture or silence chatty rulebases without monkeypatching ``print``.
"""

from __future__ import annotations

import threading
import time
from typing import Callable


class EventLog:
    """Append-only list of structured events with a pluggable console."""

    #: Events past this many are counted in ``dropped``, not kept.
    MAX_EVENTS = 100_000

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: list[dict] = []
        self.dropped = 0
        #: Where echo'd lines go; swap for a list-appender in tests.
        self.console_sink: Callable[[str], None] = print

    def emit(self, name: str, **fields) -> dict:
        """Record one event; returns the stored record."""
        record = {"name": name, "ts": time.time(), **fields}
        with self._lock:
            if len(self._events) >= self.MAX_EVENTS:
                self.dropped += 1
            else:
                self._events.append(record)
        return record

    def console(self, line: str) -> None:
        """Write a user-facing line through the configured sink."""
        self.console_sink(line)

    def records(self) -> list[dict]:
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self.dropped = 0

    def __len__(self) -> int:
        return len(self._events)
