"""Run one benchmark block in this (fresh) process.

    python3 bench/block.py SPEC.json

SPEC names the workload, seed, op range, trace flag, work directory, the
reference file shared by the run's blocks and the result file to write.
``run.py`` writes SPEC, starts this script and reads the result; set-up
time is measured from that spawn.  The block first pins itself to the
faster vCPU (see ``host.py``); that choice is excluded from set-up.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from host import HostProbe, pin_to_fastest_cpu


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    t0 = time.monotonic()
    probe = HostProbe()
    cpu = pin_to_fastest_cpu(probe)
    probe.close()
    pinning = time.monotonic() - t0
    from workloads import run_block

    refs_path = Path(spec["refs"])
    refs = json.loads(refs_path.read_text()) if refs_path.exists() else {}
    block = run_block(spec["workload"], seed=spec["seed"], start=spec["start"],
                      stop=spec["stop"], workdir=Path(spec["workdir"]),
                      traced=spec["traced"], refs=refs)
    block["excluded_s"] += pinning
    block["cpu"] = cpu
    refs_path.write_text(json.dumps(refs))
    Path(spec["result"]).write_text(json.dumps(block))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
