"""Golden outputs of the simulated measurement path.

Each case pins a sha256 over everything the simulator and the TAU-style
profiler produce for one paper configuration: event, thread and metric
names, every exclusive and inclusive matrix, and the calls and
subroutines arrays.  Traced runs also pin every interval snapshot, the
diagnosed wait states and recommendations, and the trial the trace
replays to.  Any change to the accounting that moves a single bit of a
single value changes a digest, so speed work on the simulator can prove
it changed nothing else.

The digests were computed with the counter-vector accounting before it
was made dense; they must not be edited to make a change pass.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.apps.genidlest import RIB90, RunConfig, default_machine, run_genidlest
from repro.apps.msa import generate_sequences, run_msa_trial
from repro.core.operations.tracing import replay_trace
from repro.knowledge import recommendations_of
from repro.machine import uniform_machine
from repro.workflows import trace_application


def trial_digest(trial, h=None):
    """sha256 over a trial's names and value arrays (not its metadata)."""
    h = h or hashlib.sha256()
    h.update(repr([(e.name, e.group) for e in trial.events]).encode())
    h.update(repr([str(t) for t in trial.threads]).encode())
    h.update(repr(trial.metric_names()).encode())
    for metric in trial.metric_names():
        h.update(np.ascontiguousarray(trial.exclusive_array(metric)).tobytes())
        h.update(np.ascontiguousarray(trial.inclusive_array(metric)).tobytes())
    h.update(np.ascontiguousarray(trial.calls_array()).tobytes())
    h.update(np.ascontiguousarray(trial.subroutines_array()).tobytes())
    return h.hexdigest()


def traced_digest(res, machine):
    """Digest of a traced run: trial, snapshots, diagnosis and replay."""
    h = hashlib.sha256()
    trial_digest(res.trial, h)
    for snap in res.snapshots:
        trial_digest(snap, h)
    h.update(repr(res.wait_states).encode())
    h.update(repr([(r.category, r.event, r.severity, r.message)
                   for r in recommendations_of(res.harness)]).encode())
    replayed = replay_trace(res.trace, machine).to_trial("replay")
    trial_digest(replayed, h)
    return h.hexdigest()


def msa_run(schedule):
    return run_msa_trial(n_sequences=400, n_threads=16, schedule=schedule,
                         seed=0).trial


def genidlest_run(optimized):
    return run_genidlest(RunConfig(case=RIB90, version="openmp",
                                   optimized=optimized, n_procs=16,
                                   iterations=3)).trial


def traced_msa():
    return trace_application("msa", n_sequences=400, n_threads=16, seed=0)


def traced_genidlest_mpi():
    return trace_application("genidlest", case=RIB90, version="mpi",
                             n_procs=16, iterations=8)


def case_digest(case: str) -> str:
    """The digest of one named golden case."""
    if case.startswith("msa/"):
        return trial_digest(msa_run(case.split("/", 1)[1]))
    if case.startswith("genidlest/"):
        return trial_digest(genidlest_run(case.endswith("/opt")))
    if case == "traced/msa":
        return traced_digest(traced_msa(), uniform_machine(16))
    if case == "traced/genidlest-mpi":
        return traced_digest(traced_genidlest_mpi(), default_machine(16))
    if case.startswith("sequences/"):
        seqs = generate_sequences(400, seed=int(case.split("/", 1)[1]))
        return hashlib.sha256("\n".join(seqs.sequences).encode()).hexdigest()
    raise KeyError(case)


GOLDEN = {
    "msa/static":
        "afc761ad03a25252c92f29801cd8d0b05fd43b6202535c91f63ef3b06eeaf460",
    "msa/dynamic,1":
        "010aa31b4d29faabf52830672e2270d0807848ccace2b7266812b7588f2669c5",
    "msa/guided,2":
        "27a755a60db8ea2a5f9b4f7a65eb8b0775d3cd8832adb795e81fba715d88afa7",
    "genidlest/unopt":
        "e54352a6c206a6876f79edb4f7ef6441ba0cac2474aaa70967b17f2743b9d217",
    "genidlest/opt":
        "9b1ba13863ec46f41c9761da90c5a58bce4fc7f766db079b65da0e45402eca08",
    "traced/msa":
        "c48529efb0ac80e4b19fb5dabffcf8df21ca2c26eaeabfa9a7932937353f2c63",
    "traced/genidlest-mpi":
        "fbbd517dbe28dcb92b3852305864f012b0e982f0aa431d54c84528e4692578c4",
    "sequences/0":
        "2af03f68a5fc9cb7a2bd8b6c3a7984d2dd0bd81ea2a143344d4cf6312fa2ec34",
    "sequences/1":
        "44ee875853801b84e9811fc2054cc62a75f4c29ddce6f88e6a3d5e2f04d9a90f",
    "sequences/7919":
        "8343b3bcf1baf4c2cc0ced6c8512779b5aea661fb7e601199ccf5ad3ab0fba90",
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_simulation_matches_golden(case):
    assert case_digest(case) == GOLDEN[case]
