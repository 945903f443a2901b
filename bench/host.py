"""Host-speed probe and vCPU pinning for benchmark blocks.

The shared host this benchmark was built on (2 vCPUs, Xeon at 2.1 GHz)
runs each vCPU 1.3-1.9x slower for spells of seconds to minutes, and the
two vCPUs' spells are nearly independent (correlation 0.11 over two
minutes).  A block therefore pins itself, and the service it starts, to
one vCPU, and times a fixed probe on that vCPU between its ops; op and
set-up times are divided by the slowdown the probe saw.
"""

from __future__ import annotations

import gc
import os
import sqlite3
import statistics
import time

import numpy as np


class HostProbe:
    """Three small kernels whose time tracks the current vCPU's speed:
    an interpreter loop, an sqlite insert plus ordered select, and a
    numpy matmul plus sort (about 12 ms together)."""

    #: Each kernel's seconds on the reference host in its fast state
    #: (10th percentile over 90 s on a 2-vCPU Xeon at 2.1 GHz).
    REFERENCE = {"python": 4.05e-3, "sqlite": 5.06e-3, "numpy": 2.85e-3}

    def __init__(self) -> None:
        # Used by one thread at a time, not always the one that made it.
        self._db = sqlite3.connect(":memory:", check_same_thread=False)
        self._db.execute(
            "CREATE TABLE t (a INTEGER, b INTEGER, x REAL, PRIMARY KEY (a, b))")
        self._rows = [(i // 64, i % 64, i * 0.5) for i in range(2500)]
        self._matrix = np.random.default_rng(0).random((160, 160))

    def _python(self) -> None:
        total, table = 0, {}
        for i in range(30_000):
            total += i * i
            table[i & 511] = total & 1023

    def _sqlite(self) -> None:
        self._db.execute("DELETE FROM t")
        self._db.executemany("INSERT INTO t VALUES (?, ?, ?)", self._rows)
        for _ in self._db.execute("SELECT a, b, x FROM t ORDER BY b, a"):
            pass

    def _numpy(self) -> None:
        for _ in range(8):
            np.sort((self._matrix @ self._matrix).ravel())

    def measure(self) -> float:
        """The host's slowdown against the reference (1.0 = reference)."""
        # A collection triggered by the program's garbage must not be
        # charged to the probe.
        enabled = gc.isenabled()
        gc.disable()
        try:
            ratios = []
            for name in self.REFERENCE:
                t0 = time.perf_counter()
                getattr(self, f"_{name}")()
                ratios.append((time.perf_counter() - t0) / self.REFERENCE[name])
        finally:
            if enabled:
                gc.enable()
        return statistics.fmean(ratios)

    def close(self) -> None:
        self._db.close()


def pin_to_fastest_cpu(probe: HostProbe) -> int | None:
    """Pin this process (and its future children) to the vCPU on which
    the probe runs fastest right now; returns it (``None`` when the
    process may run on one vCPU only)."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    speed = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(probe.measure() for _ in range(2))
    best = min(speed, key=speed.get)
    os.sched_setaffinity(0, {best})
    return best
