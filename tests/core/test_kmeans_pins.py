"""Bitwise pins of k-means clustering on the diagnosed trial shapes.

``thread_cluster_facts`` reports cluster sizes and separation from
:class:`~repro.core.operations.clustering.KMeansOperation`, so any change
to how the observation matrix is laid out or how Lloyd's iterations are
evaluated must keep labels, centroids and inertia bit-identical.  Each
case pins sha256 digests of all three, for the input trials of the
diagnosis throughput cases (``benchmarks/test_component_throughput.py``
``DIAGNOSIS_CASES``) and for the 10,000-rank synthetic trial of
``benchmarks/test_engine_throughput.py::synth_rank_trial`` (the golden
module's ``synth_trial`` with the same arguments builds the same arrays).

The digests were computed before the clustering path was tuned; they
must not be edited to make a change pass.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest

from repro.core.operations.clustering import KMeansOperation
from repro.core.result import PerformanceResult
from tests.knowledge.test_diagnosis_golden import case_trial, synth_trial


def case_input(case: str):
    if case == "synth10k":
        return synth_trial("synth10k", seed=0, n_events=400, n_threads=10_000,
                           n_hot=12, n_edges=30_000)
    return case_trial(case)


def kmeans_digests(trial, k: int, seed: int) -> dict[str, str]:
    op = KMeansOperation(PerformanceResult(trial), "TIME", k, seed=seed)
    labels = op.labels()
    centroids = op.process_data()[0].exclusive("TIME").T

    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    return {
        "labels": sha(np.asarray(labels, dtype=np.int64).tobytes()),
        "centroids": sha(np.ascontiguousarray(centroids,
                                              dtype=np.float64).tobytes()),
        "inertia": sha(struct.pack("<d", op.inertia())),
    }


#: (case, k, seed) → digests; (k=2, seed=0) is the diagnosis's own call.
PINS: dict[tuple[str, int, int], dict[str, str]] = {
    ("msa/static", 2, 0): {
        "labels":
            "ed4fc1d85afa5175e4973c9780b78fa000f070c00230ec18d6190133cb915db5",
        "centroids":
            "85083892eee4ce215361d0bcef9efed0d86099df0e8776e30389b6a7108fec58",
        "inertia":
            "ee0fd7f504fd75c5d05d7ba333a3867041c5599dbfa186bc5ae955aa895dad91",
    },
    ("msa/static", 4, 1): {
        "labels":
            "7c6b4a3635328fc9049470559d93154a052b791efdfc8e304d23afaa0360ebf6",
        "centroids":
            "80cbd0beb5284eedb30359a7a7205c03899ff3db07b74a4203b5f75e25ee63ff",
        "inertia":
            "1ec7c93c2f9642c3fcf3d45952b38b75509fee45427b95fab62dcfd5d228952a",
    },
    ("genidlest/unopt", 2, 0): {
        "labels":
            "6cbce778493369d21ccc866367636b58e772dfc75e7f2ddfadb051b08fa743b5",
        "centroids":
            "2be7e060e46dfc8c57fde2cbcc0a7a84ea7bd4374119712b633778fd7004e270",
        "inertia":
            "2c72ca9116262db88caa9e227c95a679347153319f464c4ed5bed6b006f85223",
    },
    ("genidlest/unopt", 4, 1): {
        "labels":
            "bece36cab4a3aa09efb0d92eff1be9b60095c2abb2d6d094c8b1b1a480d131fb",
        "centroids":
            "702a50822086952962346c34ae78c8fc1951cad8daaaf42b9a48b184874f39a2",
        "inertia":
            "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    },
    ("serve/3/2", 2, 0): {
        "labels":
            "0c22c24866000a2f8d0f15c0e2b07fb29516e31f20f00e7d10f6bb13cf9a7053",
        "centroids":
            "775c73c9a506ba312379b1562d21977d6dacf75b166dcb4d6affb88751ecdae7",
        "inertia":
            "b83b001eddea6cde6dde94a448a872f80e6b17a5268cdec0f11e875c84fe0b68",
    },
    ("serve/3/2", 4, 1): {
        "labels":
            "c0255368a889ed951b4f8e77d958ea0efe59ad518b489ef9cf1a0239b119d4f6",
        "centroids":
            "f49b1ba07485ee4cbcd898d0982f83bbae6cc9d371bd7c69460de9381a602c07",
        "inertia":
            "1b66a56f729d7de30f3dcf139672e39404115835d5277a71badb34c93b88af23",
    },
    ("wide", 2, 0): {
        "labels":
            "12f9efdc3c47f072a493a4e3cd42ccd57a0976b021f381826db24bdca3ee90f7",
        "centroids":
            "1eb7d419ee4a26da6741814645b97dbc1d413d42ef90ce7698bd00a4ccde3df3",
        "inertia":
            "20eb1a9e650b8ac390b4099ce2cdd91286d8463794a1f3bd7da53bc7bb233ce2",
    },
    ("wide", 4, 1): {
        "labels":
            "a4b385936b3e84797576348b3192fc320f31260ece653f3bb24bb7dbfc8d3546",
        "centroids":
            "765b11ebc16fe89d557a588d1d6cf19436aeedc9119b68d136f195e131b5bea5",
        "inertia":
            "bdc51e264a09b2e4e1373532be9adb4ebea4a06e9b5eea67f5c07d9aba028411",
    },
    ("synth10k", 2, 0): {
        "labels":
            "bff0e451a3094ca491aade85138dc2695da0d914557c96e6f09f866bcc2031bd",
        "centroids":
            "0163d622af506ba12d673600018b31965fcde7aa410aa2b3d17afc597f36ea52",
        "inertia":
            "fbaf62d1613bf0028fef60255fde60f9ce2b96e507f009854ec2490bce4a59f5",
    },
}


@pytest.mark.parametrize("case, k, seed", sorted(PINS))
def test_kmeans_matches_pins(case, k, seed):
    assert kmeans_digests(case_input(case), k, seed) == PINS[case, k, seed]
