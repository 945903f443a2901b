"""``examples/custom_rules.py`` fires the knowledge it was written to show.

The example's headline rule ("Communication bound") must fire on the
example's own trial and be followed by the metadata caveat; moving the
shared ``mpi_share`` threshold above the trial's MPI share must switch
both MPI-share rules at once.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "custom_rules.py"


@pytest.fixture(scope="module")
def example():
    spec = importlib.util.spec_from_file_location("custom_rules_example", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fired(harness):
    return [record.rule_name for record in harness.engine.trace]


def test_communication_bound_fires_then_the_caveat(example):
    harness = example.diagnose(example.halo_exchange_trial(8))
    assert fired(harness) == ["Communication bound", "Small machine caveat"]
    [rec] = harness.recommendations()
    assert rec["category"] == "communication-bound"
    assert 0.2 < rec["severity"] < 1.0


def test_one_threshold_moves_both_share_rules(example):
    harness = example.diagnose(example.halo_exchange_trial(8),
                               {"mpi_share": 0.9})
    assert fired(harness) == ["Communication fine"]
    assert not harness.recommendations()
