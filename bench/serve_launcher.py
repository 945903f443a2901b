"""Start the analysis service the way a user does, optionally traced.

    python3 bench/serve_launcher.py [--spans FILE] serve start ...

Everything after the optional ``--spans FILE`` goes to
``repro.cli.main`` unchanged.  With ``--spans`` the same wrappers as the
in-process traced run are installed first, and the recorded spans are
written to FILE when the service stops.
"""

from __future__ import annotations

import sys

from spans import Recorder


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    from repro import cli

    if spans_path is None:
        return cli.main(argv)
    recorder = Recorder().install()
    try:
        return cli.main(argv)
    finally:
        recorder.restore()
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
