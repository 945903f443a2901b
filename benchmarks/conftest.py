"""Shared benchmark helpers.

Each benchmark regenerates one of the paper's tables/figures: it runs the
simulation once under pytest-benchmark (single round — the 'timing' of
interest is the simulated system's, not this harness's), prints the same
rows/series the paper reports, and asserts the *shape* (who wins, by
roughly what factor, where crossovers fall).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# the golden simulation digests live in tests/runtime
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))


@pytest.fixture
def run_once(benchmark):
    """Run the experiment exactly once under the benchmark timer."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return runner


def print_series(title: str, rows: list[tuple], headers: list[str]) -> None:
    """Render a small aligned table to stdout (shown with pytest -s)."""
    print(f"\n{title}")
    widths = [max(len(h), 12) for h in headers]
    print("  " + "".join(h.rjust(w) for h, w in zip(headers, widths)))
    for row in rows:
        cells = []
        for value, w in zip(row, widths):
            if isinstance(value, float):
                cells.append(f"{value:>{w}.3f}")
            else:
                cells.append(str(value).rjust(w))
        print("  " + "".join(cells))
