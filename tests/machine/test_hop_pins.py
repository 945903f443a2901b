"""Pins of the NUMAlink hop-count matrices.

Each digest covers the bytes, dtype and shape of
``NUMATopology(n).hop_matrix``.  They were computed from shortest paths
over an explicit graph of nodes, hubs and a radix-4 router tree; any
other way of computing the matrix must reproduce them exactly.  The hop
count does not depend on ``cpus_per_node``, so one digest serves every
CPU count.
"""

import hashlib

import pytest

from repro.machine import NUMATopology
from repro.machine.machines import altix_300, altix_3600, uniform_machine

HOP_DIGESTS = {
    1: "dd0ebc3562b81628a0f67f953e59359a46c439708afba4c7164fda039cf13bde",
    2: "c8679d70bbad1758032df77734d571f228baad15a4572839e8665fab22ab3d8e",
    3: "3b7e903047b516ac13db4b01011f14b5a250099dc8cbde397c0e6a8704805dfd",
    4: "7845c6b7d4433831c986502993602beea050d4b60e1a74b6d3d0bf425b059f36",
    5: "8b90c926226b4f657f3f289ee6e2c837920b3d3310f5bd50f4a7662702a2b223",
    7: "6567a8e7a65a1d969121943c65eb78de75f8d9a6749f26452c298f88b58961db",
    8: "c52cfbae624aca5503c77eafeec4420b467900ab2045d1084f08c7581ed7e82c",
    9: "dbc3c48050bda978f81992e19010eeea1415f2cc0ac7374616db48e8afdab72e",
    15: "6202dd66b0b237a7b766c513d6ed98acd291b48e510151b1b47ab56c6de84352",
    16: "d63e761b50e0b93553434ea7c05fe8631065e4522314662fd1203981406e3bdc",
    17: "b2ea790bd751e183f040ec355dc10647082dd6975251486a6b4ca7a3f3980244",
    31: "b9e7f92356cf1811e3624eef9b805ca4f0ff4e37569b97cf1b6fd701f35919e6",
    32: "c2bc8fc3a742ca70883231122ca91b495170b1160ca01c554d8e810afc76a0f2",
    33: "461df8f332c80a889c21c0c6c1eb7d63c9434b0fe5d5be1cfc1894cb3a3f6c9a",
    63: "3724df0e71ee440e1190a840915695d1fbb0704c0d610fa022cbb454b7f43fab",
    64: "d261255389d3907cab3605359ea601ebc607075540f5a9f6a1d17382b3a6fb43",
    65: "b2df8083c879793082d4a5bf673634733d33c2030e770642d60b39a2abd96ee0",
    127: "e28502794b980abd2300b0df6f94653f9063583de3964fadeffbef972347570e",
    128: "26c6faca3ee41b47f35f66bb704b6b8f518fdb3ac873a7c2515a2937156ad2d4",
    129: "0c60981b7f6372daf38fd67f2bef61d0f3f1e3e6d45563e5a1d327cb0d2659ca",
    256: "10b35847f4b37953907aaa3ffba8e784eee8f6b1355b3c481d5cc1ca4ae58364",
}


def digest(matrix):
    h = hashlib.sha256(matrix.tobytes())
    h.update(str(matrix.dtype).encode())
    h.update(repr(matrix.shape).encode())
    return h.hexdigest()


@pytest.mark.parametrize("cpus_per_node", [1, 2])
@pytest.mark.parametrize("n_nodes", sorted(HOP_DIGESTS))
def test_hop_matrix_pinned(n_nodes, cpus_per_node):
    topo = NUMATopology(n_nodes, cpus_per_node=cpus_per_node)
    assert digest(topo.hop_matrix) == HOP_DIGESTS[n_nodes]


@pytest.mark.parametrize("machine, n_nodes", [
    (altix_300, 8), (altix_3600, 256), (lambda: uniform_machine(16), 1),
])
def test_machine_hop_matrix_pinned(machine, n_nodes):
    assert digest(machine().topology.hop_matrix) == HOP_DIGESTS[n_nodes]
