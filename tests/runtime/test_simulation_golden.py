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
was made dense, and the ``omp-regions``, ``genidlest-mpi/untraced``,
``callpaths/msa`` and ``traced/msa-charges`` ones with the per-task
machine before it was batched over loops, and the
``traced/genidlest-mpi-events``, ``traced/genidlest-mpi/2`` and
``traced/genidlest-mpi/5`` ones with the per-rank MPI loop before the
ranks ran in lockstep, and the ``traced/genidlest-omp-events``,
``traced/genidlest-omp/opt`` and ``omp-regions-events/*`` ones with the
per-thread OpenMP constructs before the teams ran in lockstep, and the
``omp-regions-events/dynamic,3``, ``omp-regions-events/guided,2`` and
``traced/msa-dynamic`` ones with the per-chunk dynamic and guided
dispatch before those loops ran from a dispatch plan, and the
``traced/msa-dynamic-events`` one (the event order of that traced run)
with the dispatch plan; they must not be edited to make a change pass.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.apps.genidlest import RIB90, RunConfig, default_machine, run_genidlest
from repro.apps.msa import generate_sequences, run_msa_trial
from repro.core.operations.tracing import replay_trace
from repro.knowledge import recommendations_of
from repro.machine import WorkSignature, altix_300, uniform_machine
from repro.runtime import (
    EventTrace,
    LoopTask,
    OpenMPRuntime,
    Profiler,
    RegionAccess,
    Schedule,
)
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


def trace_digest(trace, h=None):
    """sha256 over every trace event: kind, cpu, clock, name and attrs,
    with recorded charge vectors hashed by their nonzero counters (so the
    digest does not depend on how many counter slots the process has
    registered)."""
    h = h or hashlib.sha256()
    cols = trace.columns()
    for key in ("kind", "cpu", "ts", "name_id"):
        h.update(cols[key].tobytes())
    h.update(repr(trace.name_table()).encode())
    for attrs in trace.attrs_column():
        if attrs is None:
            h.update(b"-")
            continue
        for key, value in sorted(attrs.items()):
            if key == "vector":
                value = sorted((k, v.hex()) for k, v in value.as_dict().items())
            h.update(repr((key, value)).encode())
    return h.hexdigest()


def _region_task(k):
    """Task ``k`` of the region-access loop: footprints spanning L1 to
    beyond TLB reach, every fifth task without a region access."""
    work = WorkSignature(
        flops=1000.0 * ((7 * k) % 13 + 1),
        int_ops=500.0 * (k % 5),
        loads=800.0 * ((3 * k) % 11 + 1),
        stores=300.0 * (k % 7),
        branches=100.0 * (k % 4 + 1),
        footprint_bytes=[8e3, 2e5, 1e6, 5e6, 3e7][k % 5] * (1 + k % 3),
        reuse=[0.0, 0.5, 0.9, 1.0][k % 4],
        instruction_footprint_bytes=4096.0 * (k % 9),
    )
    if k % 5 == 4:
        return LoopTask(work)
    access = RegionAccess(
        f"r{k % 6}",
        start_byte=(k * 3000) % 20000,
        length=16384 + (k % 4) * 5000,
        latency_multiplier=1.0 + (k % 3) * 0.25,
    )
    return LoopTask(work, access)


def omp_region_run(schedule, **profiler_kwargs):
    """A master-only first touch (thread 5), then the same region-access
    loop twice under ``schedule`` on the 8-node Altix 300; ``main`` is
    entered on all 16 CPUs at once, so the team can step in lockstep."""
    machine = altix_300()
    pages = machine.new_page_table()
    for r in range(6):
        pages.allocate(f"r{r}", (r + 2) * 40_000)
    prof = Profiler(machine, **profiler_kwargs)
    omp = OpenMPRuntime(machine, prof, pages)
    cpus = list(range(16))
    tasks = [_region_task(k) for k in range(37)]
    prof.enter_set(cpus, "main")
    omp.single(region_event="init", body_event="init_body",
               work_items=tasks[:9], n_threads=16, cpus=cpus,
               master_thread=5)
    for _ in range(2):
        omp.parallel_for(region_event="region", loop_event="loop",
                         tasks=tasks, n_threads=16,
                         schedule=Schedule.parse(schedule), cpus=cpus)
    prof.exit_set(cpus, "main")
    return prof.to_trial("omp")


def msa_run(schedule):
    return run_msa_trial(n_sequences=400, n_threads=16, schedule=schedule,
                         seed=0).trial


def genidlest_run(optimized):
    return run_genidlest(RunConfig(case=RIB90, version="openmp",
                                   optimized=optimized, n_procs=16,
                                   iterations=3)).trial


def traced_msa():
    return trace_application("msa", n_sequences=400, n_threads=16, seed=0)


def traced_genidlest_omp(optimized):
    return trace_application("genidlest", case=RIB90, version="openmp",
                             optimized=optimized, n_procs=16, iterations=3)


def traced_genidlest_mpi(n_procs=16, iterations=8):
    return trace_application("genidlest", case=RIB90, version="mpi",
                             n_procs=n_procs, iterations=iterations)


def case_digest(case: str) -> str:
    """The digest of one named golden case."""
    if case.startswith("msa/"):
        return trial_digest(msa_run(case.split("/", 1)[1]))
    if case.startswith("genidlest/"):
        return trial_digest(genidlest_run(case.endswith("/opt")))
    if case == "traced/msa":
        return traced_digest(traced_msa(), uniform_machine(16))
    if case == "traced/msa-dynamic":
        return traced_digest(trace_application(
            "msa", n_sequences=400, n_threads=16, seed=0,
            schedule="dynamic,1"), uniform_machine(16))
    if case == "traced/msa-dynamic-events":
        return trace_digest(trace_application(
            "msa", n_sequences=400, n_threads=16, seed=0,
            schedule="dynamic,1").trace)
    if case == "traced/genidlest-mpi":
        return traced_digest(traced_genidlest_mpi(), default_machine(16))
    if case == "traced/genidlest-mpi-events":
        return trace_digest(traced_genidlest_mpi().trace)
    if case.startswith("traced/genidlest-mpi/"):
        # 2 ranks: both neighbours are one partner; 5: uneven blocks
        n_procs = int(case.rsplit("/", 1)[1])
        return traced_digest(traced_genidlest_mpi(n_procs, 3),
                             default_machine(n_procs))
    if case == "traced/genidlest-omp-events":
        return trace_digest(traced_genidlest_omp(False).trace)
    if case == "traced/genidlest-omp/opt":
        return traced_digest(traced_genidlest_omp(True), default_machine(16))
    if case.startswith("omp-regions-events/"):
        trace = EventTrace(record_charges=True)
        trial = omp_region_run(case.split("/", 1)[1], callpaths=True,
                               trace=trace)
        return trace_digest(trace, hashlib.sha256(
            trial_digest(trial).encode()))
    if case.startswith("omp-regions/"):
        return trial_digest(omp_region_run(case.split("/", 1)[1]))
    if case == "genidlest-mpi/untraced":
        return trial_digest(run_genidlest(RunConfig(
            case=RIB90, version="mpi", n_procs=16, iterations=3)).trial)
    if case == "callpaths/msa":
        prof = Profiler(uniform_machine(16), callpaths=True)
        return trial_digest(run_msa_trial(
            n_sequences=400, n_threads=16, schedule="static", seed=0,
            profiler=prof).trial)
    if case == "traced/msa-charges":
        res = trace_application("msa", n_sequences=400, n_threads=16,
                                seed=0, record_charges=True)
        return trace_digest(res.trace)
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
    "traced/genidlest-mpi-events":
        "23617071e82297c9ed9813bf33a4c3d6e3ec340f2adeeccddc64d48ab79e8cc9",
    "traced/genidlest-mpi/2":
        "03669f53d79fb0bf72aed6eab3e54ce5873798da88d722dbf7428104a34cdb93",
    "traced/genidlest-mpi/5":
        "eddc87c2be7dde3939ec178b18fb23c6043d0e5b13513b65445b5c47fc37a292",
    "sequences/0":
        "2af03f68a5fc9cb7a2bd8b6c3a7984d2dd0bd81ea2a143344d4cf6312fa2ec34",
    "sequences/1":
        "44ee875853801b84e9811fc2054cc62a75f4c29ddce6f88e6a3d5e2f04d9a90f",
    "sequences/7919":
        "8343b3bcf1baf4c2cc0ced6c8512779b5aea661fb7e601199ccf5ad3ab0fba90",
    "omp-regions/static,2":
        "2197dd0def2e542b6cc4a38a96b7cd00f0bb2a56f4bd71bebc1765afe26e06a9",
    "omp-regions/dynamic,3":
        "81e905282e9278734e1ace7f4533079b5abac2b1099d1e05afd041fad0f448d9",
    "omp-regions/guided,2":
        "442b7c1288aeb9923b0d5aafef3515df38967f4e9b1fc0c30c375084b36877f8",
    "genidlest-mpi/untraced":
        "92ec10eb849da7dc29705ee33870d44a435d1863c02b3a46a4bddf8cc9cd53b8",
    "callpaths/msa":
        "70af12249cb8d95119041c2844f5541bc8370d766c4093aaa400acb69b75b56c",
    "traced/msa-charges":
        "10863ad45d61e58a77110b9474cd52a035f0161578469b1ac2b00888eb5372fd",
    "traced/genidlest-omp-events":
        "5e6d561344373a9cf4e951b20534fee259e3f065bf35985a1a4b6ddb1d398c79",
    "traced/genidlest-omp/opt":
        "36dbe7dc6b73b6191f8ca47e8cc301d3bb6a8cc5d47542aab89a1f57b0d4e944",
    "omp-regions-events/static,2":
        "b0b370c75708fce6a9b926ce86f870381ddb01fdcfce2bdef6405871af867c01",
    "omp-regions-events/static":
        "c83ae4e291462422043472badf7d3731eedd6f11332f105a787257121d335ea7",
    "omp-regions-events/dynamic,3":
        "f6be2a2048e9508c85e1d28eee8ef5ab45a4e0db64e840ef6a83bc2658944cc8",
    "omp-regions-events/guided,2":
        "7de13abd7c5590fea32619f7c6037ee45cf425145b515ca41ee0c1bafe48a8ad",
    "traced/msa-dynamic":
        "eabcecfb9062b5b9d8fb34bb89d57142846964879c86facb320d5d6cf02014dc",
    "traced/msa-dynamic-events":
        "0b484c8159ba2b4e1528411bac602ec11e664d3c9ff67263cfa8d03eebcf9ee9",
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_simulation_matches_golden(case):
    assert case_digest(case) == GOLDEN[case]
