"""Golden outputs of every shipped rulebase, rule by rule.

``test_diagnosis_golden`` pins the diagnosis scripts on real trials, but
those trials leave half of ``openuh-rules`` silent and never touch the
service, lineage, regression and experiment rulebases.  Each case here
feeds hand-built facts (or, for §III.C, the Table I level measurements)
through a registered rulebase and pins the same four sha256 digests
(facts, firing trace, output lines, report).  Together with the
diagnosis cases they make every rule of every registered rulebase fire
at least once, which the last test checks.

The digests were computed before the rules moved from Python factories
into ``.prl`` files; they must not be edited to make a change pass.
"""

from __future__ import annotations

import pytest

from repro.core import RuleHarness
from repro.core.harness import registered_rulebases
from repro.knowledge import openuh_rules, recommend_power_levels
from repro.rules import Fact

from .test_diagnosis_golden import GOLDEN as DIAGNOSIS_GOLDEN
from .test_diagnosis_golden import diagnose_case, harness_digests


def mean_event(event, metric, severity, main, value):
    return Fact("MeanEventFact", eventName=event, metric=metric,
                higherLower="higher", severity=severity, mainValue=main,
                eventValue=value, factType="Compared to Main")


def stalls(event, memory, fp, covered, severity):
    return Fact("StallDecomposition", eventName=event, memoryFraction=memory,
                fpFraction=fp, coveredFraction=covered, severity=severity)


def wait_state(kind, construct, rank, victim, seconds, severity,
               event="MPI_Waitall", occurrences=3):
    return Fact("WaitStateFact", trial="trace", kind=kind, rank=rank,
                victimRank=victim, construct=construct, eventName=event,
                occurrences=occurrences, waitSeconds=seconds,
                severity=severity)


def phase(event, trend, worst, label, first, last, peak, severity):
    return Fact("PhaseImbalanceFact", trial="run", eventName=event,
                intervals=4, firstRatio=first, lastRatio=last,
                maxRatio=peak, worstInterval=worst, worstLabel=label,
                growth=last - first, slope=(last - first) / 3, trend=trend,
                severity=severity)


def openuh_cases():
    return {
        "openuh/inefficiency": [
            mean_event("solver", "Inefficiency", 0.3, 1.5e6, 4.25e6),
            mean_event("setup", "Inefficiency", 0.05, 1.5e6, 2.0e6),
        ],
        "openuh/stalls": [
            stalls("fp_loop", 0.25, 0.7, 0.95, 0.2),
            stalls("mem_loop", 0.7, 0.25, 0.95, 0.3),
            stalls("odd_loop", 0.3, 0.2, 0.5, 0.1),
        ],
        "openuh/late-sender": [
            wait_state("late-sender", "mpi", 3, 4, 0.0042, 0.12,
                       event="MPI_Recv"),
            wait_state("late-sender", "mpi", 5, 6, 0.0001, 0.01,
                       event="MPI_Recv"),
        ],
        "openuh/straggler-thread": [
            wait_state("barrier-straggler", "openmp", 7, 0, 0.0031, 0.08,
                       event="OMP_BARRIER"),
        ],
        "openuh/straggler-rank": [
            wait_state("barrier-straggler", "mpi", 2, 9, 0.0155, 0.3,
                       event="MPI_Allreduce", occurrences=8),
        ],
        "openuh/phase-growing": [
            phase("exchange", "growing", 3, "iter 3", 0.1, 0.6, 0.6, 0.2),
            phase("solve", "growing", 2, None, 0.3, 0.5, 0.55, 0.1),
        ],
        "openuh/phase-steady": [
            phase("exchange", "persistent", 1, "iter 1", 0.4, 0.38, 0.45,
                  0.15),
            phase("solve", "shrinking", 0, "", 0.7, 0.3, 0.7, 0.08),
        ],
        "openuh/thread-populations": [
            Fact("ThreadClusterFact", trial="run", metric="TIME", k=2,
                 sizes=[12, 4], separation=3.5, clusterMeans=[1.0, 3.5]),
            Fact("ThreadClusterFact", trial="run", metric="TIME", k=2,
                 sizes=[8, 8], separation=1.2, clusterMeans=[1.0, 1.2]),
        ],
    }


def service_cases():
    def stats(**fields):
        base = dict(submitted=40, finished=40, failureRate=0.0,
                    queueDepth=0, queueWaitP95=0.001, cacheHitRate=0.5,
                    workers=4, mode="thread")
        return Fact("ServiceStatsFact", **{**base, **fields})

    def degraded(reason, value, threshold):
        return Fact("ServiceDegradedFact", reason=reason, value=value,
                    threshold=threshold, workers=4, queueDepth=10,
                    queueBound=64)

    def trend(metric, first, last, change):
        return Fact("ServiceTrendFact", metric=metric, first=first,
                    last=last, change=change, snapshots=5)

    return {
        "service/degraded": [
            stats(finished=37, failureRate=0.25, queueDepth=12,
                  queueWaitP95=2.5, cacheHitRate=0.04, mode="process"),
            degraded("queue-latency", 2.5, 1.0),
            degraded("failure-rate", 0.25, 0.10),
            degraded("backpressure", 0.125, 0.05),
            trend("queue-wait-p95", 0.01, 2.5, 2.49),
            trend("cache-hit-rate", 0.4, 0.04, -0.36),
            trend("worker-respawns", 0.0, 3.0, 3.0),
        ],
        "service/healthy": [stats()],
    }


def lineage_cases():
    def comparison(version, parent, verdict, prev, total, changed=False):
        return Fact("VersionComparisonFact", version=version,
                    parentVersion=parent, index=int(version[1:]),
                    verdict=verdict, prevVerdict=prev, totalChange=total,
                    rulebaseChanged=changed, bridgedGaps=0)

    def degradation(version, parent, event, change, severity):
        return Fact("DegradationFact", version=version, parentVersion=parent,
                    eventName=event, metric="TIME", relativeChange=change,
                    severity=severity, pValue=0.001)

    return {
        "lineage/history": [
            comparison("v1", "v0", "ok", "ok", 0.02),
            comparison("v2", "v1", "regressed", "ok", 0.41, changed=True),
            comparison("v3", "v2", "regressed", "regressed", 0.05),
            degradation("v2", "v1", "hot_loop", 0.38, 0.45),
            degradation("v2", "v1", "cold_loop", 0.9, 0.005),
            Fact("DriftFact", startVersion="v3", endVersion="v9",
                 versions=7, totalChange=0.14, maxStepChange=0.03),
        ],
    }


def regression_cases():
    def summary(verdict, total, regressed, improved):
        return Fact("RegressionSummaryFact", trial="cand", baseline="base",
                    verdict=verdict, totalChange=total,
                    regressedEvents=regressed, improvedEvents=improved)

    return {
        "regression/regressed": [
            summary("regressed", 0.31, 2, 0),
            Fact("RegressionFact", eventName="inner", metric="TIME",
                 relativeChange=0.62, severity=0.4, baseline="base",
                 baselineMean=1250.0, candidateMean=2025.0),
            Fact("RegressionFact", eventName="io", metric="TIME",
                 relativeChange=0.2, severity=0.004, baseline="base",
                 baselineMean=10.0, candidateMean=12.0),
            Fact("ImbalanceFact", eventName="inner", ratio=0.42,
                 severity=0.4),
        ],
        "regression/improved": [summary("improved", -0.18, 0, 3)],
    }


def experiment_cases():
    return {
        "experiment/sick": [
            Fact("ExperimentSummaryFact", spec="sweep", cases=10,
                 converged=5, nonConverged=3, failed=2, totalRuns=80,
                 reruns=20, outliers=4, rerunRate=2.0),
        ],
    }


#: registered rulebase → its hand-built cases (case → facts)
RULEBASE_CASES = {
    "openuh-rules": openuh_cases,
    "service-rules": service_cases,
    "lineage-rules": lineage_cases,
    "regression-rules": regression_cases,
    "experiment-rules": experiment_cases,
}
#: hand-built cases run with threshold overrides (``case@name=value``)
OVERRIDE_CASES = ["openuh/stalls@coverage_threshold=0.4",
                  "openuh/late-sender@severity_threshold=0.005"]
CASES = sorted([case for build in RULEBASE_CASES.values()
                for case in build()] + OVERRIDE_CASES + ["power/table-i"])


def table_i_measurements():
    """The §III.C level measurements (`repro-perf reproduce table1`)."""
    from repro.apps.genidlest.compiled import genidlest_compiled_program
    from repro.machine import altix_300
    from repro.openuh import OPT_LEVELS, compile_program
    from repro.power import measure_signature

    machine = altix_300()
    program = genidlest_compiled_program()
    return [measure_signature(level, compile_program(program, level)
                              .signature(), machine, n_processors=16)
            for level in OPT_LEVELS]


def run_case(case: str) -> RuleHarness:
    if case == "power/table-i":
        return recommend_power_levels(table_i_measurements())
    case, _, override = case.partition("@")
    name = next(name for name, build in RULEBASE_CASES.items()
                if case in build())
    if override:
        key, value = override.split("=")
        harness = RuleHarness(openuh_rules(**{key: float(value)}))
    else:
        harness = RuleHarness(name)
    harness.assertObjects(RULEBASE_CASES[name]()[case])
    harness.processRules()
    return harness


GOLDEN: dict[str, dict[str, str]] = {
    "experiment/sick": {
        "facts":
            "4dd2769a3d26553dcf427bc509cde85c2892a67b1941a944f80aa02d35b99657",
        "trace":
            "11130088841e47c61a559d33bbd4ee53797cd000aa126a8076af225d146c9321",
        "output":
            "2c61eea444f99ede000f33d690d15228191ba0084983ddaf96c262e9c1b012c7",
        "report":
            "878fcbbce6e01ee8e4290361be501cfe53f92db01a179a03b543a76405aeda42",
    },
    "lineage/history": {
        "facts":
            "6da72c2f27e421fa03b711259c6bda4a25cc63d7c2cb68a609c948d85140b663",
        "trace":
            "2dd872c51b2902d9728b9b208a8875126b7c5d7d5bd6fdcdaa6577d6b5cc7a91",
        "output":
            "16a9d7053ecccd7cb38067ffc7be1e7b220d8e0998927daec987ceebd77e050c",
        "report":
            "dc4d0403a44dc6d689c78a262caa94c28922366f139d25b3969ac6feafc486fa",
    },
    "openuh/inefficiency": {
        "facts":
            "acdee2a89a2fdbf21e0d44a8b713933dd6fd56b2cbcef17440a70f0dba023a1f",
        "trace":
            "d65e1a8ca1d590ad206e2caa93af24eabe425c2e4f27a962d280769907fcf12e",
        "output":
            "a752e02b88d30f4515bfb235b6fd37458fb4d3a460dfb6b69944ae6c905dab4b",
        "report":
            "b4f63238bb5b251381d89abcae2831f78764d179ddfbcfd61383c8566db86298",
    },
    "openuh/late-sender": {
        "facts":
            "2dd8765836c6465f69ae77a78ea35222203765107f1b36b92d8d5eb35aa60847",
        "trace":
            "0d8253564f2c150448ef5e79641c3f7debec4b1bcfc81bf4e7dfd5782959dd03",
        "output":
            "5bc29802e25dfe0c538024fa10159758c98446afed83e8b9eb4c3dd98dd627ba",
        "report":
            "ba80431de4876c003982e4e21278c9584980c20c0cbde24bba5a3dfe24c82438",
    },
    "openuh/late-sender@severity_threshold=0.005": {
        "facts":
            "65324045fb7c06d5a31c7b7b62ede0f943dacb7d904ed0e89eafe9c38d582f75",
        "trace":
            "2756aef71d431406241574508de7834b63b65d13b744cb80d81ce03500a628a6",
        "output":
            "e77ce7d64d77a24e4ba6dc1c992389a38c14ae25fbe2d67884fd673a52c5070e",
        "report":
            "7462202a0ea8ccc56e85ddedcac10a3a84a7ef09ad3bb9a6316526de3bfa4acd",
    },
    "openuh/phase-growing": {
        "facts":
            "d2157f30594029a7875107dafc2d0fa4c4e60c073bd455e4b73cd8ca998052cc",
        "trace":
            "52d1737729f927e097e9383ea03887b5b108b225df5e69aa8f1d313fd007e9b5",
        "output":
            "3a228d1f21f63f2bdbf3fee3b2e60348a73ead47d3cf510e936f856788cbeb94",
        "report":
            "9690c6abcbc998af736dcf4fde12c146d4fd79fed80f48003b0e13da72c4f80a",
    },
    "openuh/phase-steady": {
        "facts":
            "1f448ff4340f4584a6dab752d2cb634994b034e7469b8d7b240fe848d9427836",
        "trace":
            "1845fbed7400b95f3ce5ae1d217d8d86d3db8576e0ba20e7105f47948f752946",
        "output":
            "ef6823a5a6081f9580e5a270a3ae695966705ccda8393ad96934814a80a1d3b0",
        "report":
            "3386c4a2f70e52722df9a30d18b4f3fd950c97b379ffd8c4b3b7e137edf16356",
    },
    "openuh/stalls": {
        "facts":
            "226ab0afe08c3b529c26649cd59b51b4f9e909cf2c386b0c438230a5cd3a8c6e",
        "trace":
            "0a576e9fdd8f404c86f895437c1e2e2b68912a5a5c14ddb5bf0406ddb6f2ff56",
        "output":
            "e665317521b40c93aa474e5b9ab883b0e70c8bf1c04ee8e253ddcc72a33d8bb7",
        "report":
            "60eb9b461ef28a382839b906f12eb53899d84dc4daefefa3fb459418ad79c649",
    },
    "openuh/stalls@coverage_threshold=0.4": {
        "facts":
            "7791bb13cc706d7d35ad05fa96def98ab319f40ed10dc9bf6d8783f4ca92bd2e",
        "trace":
            "db1d1d5cdf55f35e9a64099f5d51b4a363fa60fb2ae8bd31cd5ebd601843cb40",
        "output":
            "4ed026962eee6300fe99edcc27079e2219c9158d1122ee25a5e901c82049a1be",
        "report":
            "2d416870b9934833223a82902e263c80297ecac70696380bf4ac548f4c90c515",
    },
    "openuh/straggler-rank": {
        "facts":
            "7cbca91fb32d053d00e63d99283d115310e6502daec5005128e0fd149bff9cd2",
        "trace":
            "d0e7d5f3336d0cb32bf7d67ac3336f5adb88391f4526d78b6609d5a3baf3539d",
        "output":
            "65e4e7d15269b46055a0989966c71cb3f6ca41d51e4d8a171b8ea50aa818f306",
        "report":
            "c6ba6a70bc45c12a32533696e115f5ca862d97dd8771058ccb0cab4c2832e31a",
    },
    "openuh/straggler-thread": {
        "facts":
            "2e55c75cfe641264236d2efef952c242c787de450db33663092dda6280c72adc",
        "trace":
            "7cf6d5b3d1c74cfd72f2e8be63f6278ca12a71c981e92012fe0542bf1ac3d2b9",
        "output":
            "5b9e5c82ba0dbd9ea8f62a7bfcc355c3536f5d1ad65cf03083c7e3fcd0b947ab",
        "report":
            "bbac973a2ee5a6b610a0d7981dc156077f96eea2531a42ea6440f7879ac50b7d",
    },
    "openuh/thread-populations": {
        "facts":
            "4418aed86ff3f60fd2b7281eaa2da8dbc94a28f130ed950f0c7fc8cd8f4b3c47",
        "trace":
            "1dbbab89a545c7fca46f0d7c501cc94d7e4b431967fa7a3363a70b2f09d4d93c",
        "output":
            "ea12b2d80d3fcf29298f682d4fab12d80a2a764d40f59ddc28087d1d15dc4cbe",
        "report":
            "b99ddc096c7eb266c7b123dd3ef9280229ece71a349f01d9aeb8fd96fa7edaf4",
    },
    "power/table-i": {
        "facts":
            "b89473ed94bde78d9f2833f831891ac44fc587ee48aa41a7204d05b6b808fbbb",
        "trace":
            "702374bc2a4d1b67a6cd568dcc7aaf219939c6354ba8b909cfa77777abb802fa",
        "output":
            "25947aeb71f72d311ff899315d6cafbda11db776b1dacfa6f1a9f296cbbbe0e7",
        "report":
            "af68929e7fcca9016d7e3c25b6a16b67b30cedd6d590a302ed270d96cfd3b5ce",
    },
    "regression/improved": {
        "facts":
            "569bc301ede501c8fac2f23dca4536e7f696f74161238218cf49700f4a7c844d",
        "trace":
            "7f47bc4a74c5733ff50fc2d022b7f8a641b751c990aeaedaa965d6415c400b7b",
        "output":
            "4a59941fd62adbbe75eb487914a44fa3975bb1e691b95b43c44323692ba45d14",
        "report":
            "fa252272ff9c0de97419dd23eb9c96c81f38caafb96a6885a772d99f3c714952",
    },
    "regression/regressed": {
        "facts":
            "5d8c0d6c3d300191e7b000bf508b2228ff872f37acdd91f92de5ccd88bb447e8",
        "trace":
            "e70bc841b30aefc7e2328fb070841596c0b3ffc5e9e91b65a4e575748e95578d",
        "output":
            "b35dbf13c82d1c5b903c234aab9c036dbf31d78444119cdf1b4356affcf40982",
        "report":
            "2a1a63d4dab117580c38e97582ed069e9b3ed3dc9693cbf22ddad4a6d5f7fef8",
    },
    "service/degraded": {
        "facts":
            "9cab70ae5ae63bb3964488553da04bf7776b774e06d92f71dce45a8d121d22f7",
        "trace":
            "ef1ec76f82b5a93d07413075a6710f7b11f6558bee3ef7b21aaae92a412d25fa",
        "output":
            "d6b28deb827af388ac0d9bb6372e285f1ca9d72895816c453890cbdb7d2e0396",
        "report":
            "9004978aad25a1a8f9a3b9c4a344f79625335e91938e09e22ec0d712f3bffa35",
    },
    "service/healthy": {
        "facts":
            "71aacf74705444c9ea32667d6133b600ca168190837754f6d2bb2075c7cf693e",
        "trace":
            "e553393dc31b5e241c63da8324140b71adbd689c59eba23b5eae5b82904e8d8d",
        "output":
            "8c19b5c828b99022ecad57e4824304fb6046f80edecb2707c27611bdb6ea7b54",
        "report":
            "ef621e3d5d70a947d3af07abf435076f8aaea0d1a6f6d783bf5ec8f0b41b907e",
    },
}


@pytest.mark.parametrize("case", CASES)
def test_rulebase_matches_golden(case):
    assert harness_digests(run_case(case)) == GOLDEN[case]


def test_every_registered_rule_fires_in_a_pinned_case():
    fired = set()
    for case in CASES:
        fired.update(rec.rule_name for rec in run_case(case).engine.trace)
    for case in DIAGNOSIS_GOLDEN:
        fired.update(rec.rule_name
                     for rec in diagnose_case(case).engine.trace)
    silent = {name: sorted({rule.name for rule in RuleHarness(name)
                            .engine.rules} - fired)
              for name in registered_rulebases()}
    assert silent == {name: [] for name in registered_rulebases()}
