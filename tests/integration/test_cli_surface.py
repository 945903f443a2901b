"""Pin the ``repro-perf`` option surface.

Every verb's options are compared with ``cli_surface.json``, one row
``[verb, dest, flags, default, choices, required, nargs]`` per option.
Refactoring how the parser is built must leave this surface as it is; a
deliberate change to it updates the snapshot in the same commit.  Regenerate with::

    PYTHONPATH=src python -m tests.integration.test_cli_surface > \\
        tests/integration/cli_surface.json
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path

SNAPSHOT = Path(__file__).with_name("cli_surface.json")


def _walk(parser: argparse.ArgumentParser, verb: str, out: list) -> None:
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                _walk(sub, f"{verb} {name}".strip(), out)
            continue
        out.append([verb, action.dest, list(action.option_strings),
                    action.default,
                    None if action.choices is None else list(action.choices),
                    action.required, action.nargs])


def cli_surface() -> list[list]:
    """The option rows of every verb, sorted, ``$REPRO_PERFDMF_DB`` unset."""
    from repro import cli

    saved = os.environ.pop(cli.DB_ENV_VAR, None)
    try:
        parser = cli.build_parser()
    finally:
        if saved is not None:
            os.environ[cli.DB_ENV_VAR] = saved
    out: list = []
    _walk(parser, "", out)
    return sorted(out, key=lambda row: row[:2])


def test_cli_surface_matches_snapshot():
    expected = json.loads(SNAPSHOT.read_text())
    actual = json.loads(json.dumps(cli_surface()))
    assert [row[:2] for row in actual] == [row[:2] for row in expected]
    for got, want in zip(actual, expected):
        assert got == want


if __name__ == "__main__":  # pragma: no cover
    print("[\n" + ",\n".join(json.dumps(row) for row in cli_surface())
          + "\n]")
