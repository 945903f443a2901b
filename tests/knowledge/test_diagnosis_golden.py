"""Golden outputs of the diagnosis scripts.

Each case runs one ``diagnose_*`` script and pins four sha256 digests:

* ``facts`` — every fact in working memory after the run (input facts
  and rule-asserted ones), in assertion order, as type plus sorted
  fields;
* ``trace`` — the firing trace (cycle, rule, matched fact sequence
  numbers, bindings);
* ``output`` — the rule output lines;
* ``report`` — :func:`~repro.knowledge.render_report`.

Fact values are hashed through ``repr``, so a float that moves by one
ulp, or a ``float`` that becomes a ``numpy.float64``, changes a digest.
Speed work on fact generation or the rulebase can therefore prove that
it changed nothing else.

The digests were computed before the rulebase was compiled once per
process; they must not be edited to make a change pass.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.apps.genidlest import RIB90, RunConfig, run_genidlest
from repro.apps.msa import run_msa_trial
from repro.knowledge import (
    diagnose_genidlest,
    diagnose_load_balance,
    render_report,
)
from repro.perfdmf import TrialBuilder
from repro.workflows import trace_application


def synth_trial(name, *, seed, n_events, n_threads, n_hot, n_edges):
    """A load-imbalanced TIME trial with a large callgraph: a chain of
    ``n_hot`` anti-correlated imbalanced regions inside a callgraph padded
    to ``n_edges`` edges with calls into unprofiled externals."""
    rng = np.random.default_rng(seed)
    events = ["main"] + [f"region_{i}" for i in range(n_events - 1)]
    edges = [["main", "region_0"]]
    edges += [[f"region_{i}", f"region_{i + 1}"] for i in range(n_hot)]
    edges += [[f"region_{k % (n_events - 1)}", f"ext_{k}"]
              for k in range(n_edges - len(edges))]
    exc = rng.random((n_events, n_threads)) * 10.0
    base = rng.random(n_threads) * 4000.0
    for i in range(n_hot + 1):
        exc[1 + i] = 500.0 + (base if i % 2 else base.max() - base)
    exc[0] = 100.0
    inc = exc.copy()
    inc[0] = exc.sum(axis=0)
    return (TrialBuilder(name, {"callgraph": edges})
            .with_events(events).with_threads(n_threads)
            .with_metric("TIME", exc, inc, units="usec").build())


def serve_trial(seed, n_hot):
    """A trial shaped like the served diagnose jobs' pool."""
    return synth_trial(f"pool_{seed}", seed=seed, n_events=24, n_threads=128,
                       n_hot=n_hot, n_edges=200)


def harness_digests(harness, title="Diagnosis") -> dict[str, str]:
    """sha256 of a diagnosed harness's facts, firing trace, output lines
    and rendered report."""
    engine = harness.engine

    def sha(items) -> str:
        h = hashlib.sha256()
        for item in items:
            h.update(repr(item).encode())
            h.update(b"\n")
        return h.hexdigest()

    # fact sequence numbers come from a process-wide counter, so they are
    # hashed as ranks within this harness
    handles = sorted(engine.memory, key=lambda handle: handle.seq)
    seqs = {handle.seq for handle in handles}
    for rec in engine.trace:
        seqs.update(rec.fact_seqs, rec.asserted_seqs)
    rank = {seq: i for i, seq in enumerate(sorted(seqs))}
    return {
        "facts": sha((rank[handle.seq], handle.fact.fact_type,
                      sorted(handle.fact.as_dict().items()))
                     for handle in handles),
        "trace": sha((rec.cycle, rec.rule_name,
                      [rank[seq] for seq in rec.fact_seqs],
                      [rank[seq] for seq in rec.asserted_seqs],
                      sorted(rec.bindings_summary.items()))
                     for rec in engine.trace),
        "output": sha(harness.output),
        "report": sha([render_report(harness, title=title)]),
    }


def case_trial(case: str):
    """The input trial of a profile case (``None`` for the traced one)."""
    if case.startswith("msa/"):
        return run_msa_trial(n_sequences=400, n_threads=16,
                             schedule=case.split("/", 1)[1], seed=0).trial
    if case.startswith("genidlest/"):
        return run_genidlest(RunConfig(case=RIB90, version="openmp",
                                       optimized=case.endswith("/opt"),
                                       n_procs=16, iterations=3)).trial
    if case == "wide":
        return synth_trial("wide", seed=11, n_events=200, n_threads=1024,
                           n_hot=12, n_edges=10_000)
    if case.startswith("serve/"):
        seed, n_hot = map(int, case.split("/")[1:])
        return serve_trial(seed, n_hot)
    return None


def diagnose_case(case: str, trial=None):
    """Run a case's diagnosis script; returns the harness."""
    if case == "timeline/genidlest-mpi":
        return trace_application("genidlest", case=RIB90, version="mpi",
                                 n_procs=16, iterations=8).harness
    trial = trial if trial is not None else case_trial(case)
    if case.startswith("genidlest/"):
        return diagnose_genidlest(trial)
    return diagnose_load_balance(trial)


def case_digests(case: str, trial=None) -> dict[str, str]:
    return harness_digests(diagnose_case(case, trial))


GOLDEN: dict[str, dict[str, str]] = {
    "msa/static": {
        "facts":
            "ade552c3e8fdd82c52fd3d006a33f712a70a79bd9d40751a4e0c8d840b823aa4",
        "trace":
            "908211fbfe51fbc790cc14d7e64a6fd9bd58728742ae148f6de802cf8b4d9d6d",
        "output":
            "95bb067a975a5684b408e226a3361c50a9051b55f18212e7c3bf6ab995d73da5",
        "report":
            "fb7e98bbc8479c976b6b56c815201619266e060a20ec5515793f06495d1656f9",
    },
    "msa/dynamic,1": {
        "facts":
            "b0bdc3d1d15f4d14231c505a4649c169a27295eecd637bee671fe26627d35668",
        "trace":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "output":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "report":
            "2f72845e1d518da8254a0efac838022a5fc040965b8a945011bd8e5cde01184c",
    },
    "genidlest/unopt": {
        "facts":
            "830a993deaf8b3dfaa6019c8212819b873c0c73eb90ca332b1b6a29443e259ab",
        "trace":
            "aa21cb385fd8272cf0e6abcae1c93792645319ea977d039330f3a15a436aabb0",
        "output":
            "23a433ef87aa6461638484087c7dd51d7e2ddb939ce1b056a5e8dc3f722a3580",
        "report":
            "4d5142029d0b452a1188510e35f7a70e9ec429e660b8669730bc5eb2233dd147",
    },
    "genidlest/opt": {
        "facts":
            "39ade8184ce01671dac59ac50b84e465dabc8f5e9ea33939133ad186406965ab",
        "trace":
            "0dcbecc93f473ab255d1bdfb13a37c3dafee8b902bfa2ea807e374c0e79b9058",
        "output":
            "996d3a4a69106e1198191e115ff057edcc6dde61f5df8aaf3c0a0f038114af64",
        "report":
            "053d08364b57c5eccf3d40dd82bce83857a69ed5fa0ccd76fcef8bbf3141e22e",
    },
    "wide": {
        "facts":
            "0240ec8a7396611a740e13b75ed728133ac75f326d66185cba93c609d9672ea6",
        "trace":
            "a5e11d2721e9a597f9e91db076f1d17b12e1cc63477bac8c7b31e092da8e86e8",
        "output":
            "de457661cbe914453f27da51d522289e6e575f6aac6dbd053c336e72f1e6c432",
        "report":
            "7782a60a3f281f35277641f39ab7b5e57c8f76c7bd1bae0968441400c525f899",
    },
    "serve/3/2": {
        "facts":
            "9acd3179c064826b7912afff18625cf017998908fae3e5b27bde6189e7802ab4",
        "trace":
            "c80fa120106816fbaf49eb79aa9afc44aa5c3fbf88e359b13e60f3e51189a200",
        "output":
            "fd8db358ba1f2b5eb325016f861ffb7f908fde99ac9f4f53e9c54846dce077de",
        "report":
            "634a32ff6fd870bd8eb0098906b167781ddd723a8886502d656385a9d00a801d",
    },
    "serve/5/4": {
        "facts":
            "0b1ac9e6be0f11149d1936a85dc5d87825ffd2829c32deb1faa027a170290ec6",
        "trace":
            "c20414170b89a8be72cc63bfa171fb5cb679308c5dea01dd9e05600f7c61f2ab",
        "output":
            "70d92cb7fcd8133b27ad73e6dfbb4dcefb3a9daa4f2e5139c5b43b27019fbb29",
        "report":
            "dc2d0fdddbc52a904d44c2b172eb6f9008f0353b5801ff43ae4725ffc04e9661",
    },
    "timeline/genidlest-mpi": {
        "facts":
            "e910829a04cb863d94a2a9ad68c1c6cd21e123fb32f35a01e10ea335a3a5cf00",
        "trace":
            "ac652da9ec3f227042a03182944ead4470c3a10192a90ddb624ee844b3201f76",
        "output":
            "84c97918f3d04ee6b7aa4d4811f28d19cb1de7e94fdad0751d6646a992ad1602",
        "report":
            "87f2b1c2a8cbdf18bee276f618be7e1fe7848e7a143c5ddd67f22a49cd30e260",
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_diagnosis_matches_golden(case):
    assert case_digests(case) == GOLDEN[case]
