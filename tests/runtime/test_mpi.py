"""Tests for the MPI simulator."""

import pytest

from repro.machine import WorkSignature, altix_300, uniform_machine
from repro.machine import counters as C
from repro.runtime import CommModel, MPIError, MPIRuntime, Profiler


def make_mpi(n_ranks=4, machine=None):
    m = machine or altix_300()
    p = Profiler(m)
    mpi = MPIRuntime(m, p, n_ranks)
    return mpi, p


def open_main(mpi):
    for r in range(mpi.n_ranks):
        mpi.profiler.enter(mpi.cpu_of(r), "main")


def close_main(mpi):
    for r in range(mpi.n_ranks):
        mpi.profiler.exit(mpi.cpu_of(r), "main")


class TestCommModel:
    def test_transfer_time_components(self):
        cm = CommModel(base_latency_s=1e-6, per_hop_latency_s=1e-7,
                       bandwidth_bytes_per_s=1e9)
        assert cm.transfer_seconds(0, 0) == pytest.approx(1e-6)
        assert cm.transfer_seconds(0, 4) == pytest.approx(1.4e-6)
        assert cm.transfer_seconds(1e9, 0) == pytest.approx(1.0 + 1e-6)
        with pytest.raises(MPIError):
            cm.transfer_seconds(-1, 0)


class TestPointToPoint:
    def test_isend_irecv_waitall_roundtrip(self):
        mpi, p = make_mpi(2)
        open_main(mpi)
        s = mpi.isend(0, 1, 1024 * 1024, tag=7)
        r = mpi.irecv(1, 0, 1024 * 1024, tag=7)
        mpi.waitall(1, [r])
        close_main(mpi)
        # receiver's clock advanced by at least the transfer time
        assert mpi.clock(1) >= 1024 * 1024 / mpi.comm.bandwidth_bytes_per_s
        t = p.to_trial("t")
        assert t.has_event("MPI_Isend()")
        assert t.has_event("MPI_Irecv()")
        assert t.has_event("MPI_Waitall()")
        groups = {e.name: e.group for e in t.events}
        assert groups["MPI_Isend()"] == "MPI"

    def test_overlap_hides_transfer(self):
        """Compute posted between isend and wait overlaps the transfer."""
        big = 32 * 1024 * 1024  # 10 ms at 3.2 GB/s
        mpi, p = make_mpi(2)
        open_main(mpi)
        mpi.isend(0, 1, big)
        r = mpi.irecv(1, 0, big)
        # receiver computes ~20 ms while the message is in flight
        mpi.compute(1, "overlap_work",
                    WorkSignature(flops=1e7, fp_dependency=1.0))
        before_wait = mpi.clock(1)
        mpi.waitall(1, [r])
        wait_time = mpi.clock(1) - before_wait
        close_main(mpi)
        transfer = mpi.comm.transfer_seconds(big, 0)
        assert wait_time < transfer  # some of it was hidden

    def test_unmatched_recv_is_deadlock(self):
        mpi, _ = make_mpi(2)
        open_main(mpi)
        r = mpi.irecv(1, 0, 100, tag=3)
        with pytest.raises(MPIError, match="deadlock"):
            mpi.waitall(1, [r])

    def test_tag_matching(self):
        mpi, _ = make_mpi(2)
        open_main(mpi)
        mpi.isend(0, 1, 100, tag=1)
        mpi.isend(0, 1, 200, tag=2)
        r2 = mpi.irecv(1, 0, 200, tag=2)
        r1 = mpi.irecv(1, 0, 100, tag=1)
        mpi.waitall(1, [r1, r2])  # both match despite posting order
        close_main(mpi)

    def test_self_send_rejected(self):
        mpi, _ = make_mpi(2)
        open_main(mpi)
        with pytest.raises(MPIError, match="self-send"):
            mpi.isend(0, 0, 10)

    def test_self_receive_rejected_when_posted(self):
        mpi, _ = make_mpi(2)
        open_main(mpi)
        with pytest.raises(MPIError, match="self-receive"):
            mpi.irecv(1, 1, 10)

    def test_request_ids_restart_per_runtime(self):
        def ids():
            mpi, _ = make_mpi(2)
            open_main(mpi)
            s = mpi.isend(0, 1, 10)
            r = mpi.irecv(1, 0, 10)
            mpi.waitall(1, [r])
            return [s.id, r.id]

        assert ids() == ids() == [1, 2]

    def test_wrong_rank_wait_rejected(self):
        mpi, _ = make_mpi(2)
        open_main(mpi)
        mpi.isend(0, 1, 10)
        r = mpi.irecv(1, 0, 10)
        with pytest.raises(MPIError, match="another rank"):
            mpi.waitall(0, [r])

    def test_send_recv_pair(self):
        mpi, _ = make_mpi(3)
        open_main(mpi)
        # ring exchange
        reqs = []
        for rank in range(3):
            mpi.isend(rank, (rank + 1) % 3, 4096)
            reqs.append(mpi.irecv(rank, (rank - 1) % 3, 4096))
        for rank in range(3):
            mpi.waitall(rank, [reqs[rank]])
        close_main(mpi)

    def test_hop_distance_increases_latency(self):
        m = altix_300()
        # ranks on nodes 0 and 7 (cpus 0 and 14) vs adjacent nodes
        p1 = Profiler(m)
        far = MPIRuntime(m, p1, 2, cpus=[0, 14])
        p2 = Profiler(m)
        near = MPIRuntime(m, p2, 2, cpus=[0, 2])
        for mpi in (far, near):
            for r in range(2):
                mpi.profiler.enter(mpi.cpu_of(r), "main")
            mpi.isend(0, 1, 0)
            rq = mpi.irecv(1, 0, 0)
            mpi.waitall(1, [rq])
        assert far.clock(1) > near.clock(1)


class TestCollectives:
    def test_barrier_synchronizes(self):
        mpi, _ = make_mpi(4)
        open_main(mpi)
        mpi.compute(2, "work", WorkSignature(flops=1e7, fp_dependency=1.0))
        mpi.barrier()
        clocks = [mpi.clock(r) for r in range(4)]
        assert max(clocks) - min(clocks) < 1e-12
        close_main(mpi)

    def test_allreduce_scales_with_log_ranks(self):
        mpi8, _ = make_mpi(8)
        mpi2, _ = make_mpi(2)
        for mpi in (mpi8, mpi2):
            open_main(mpi)
            mpi.allreduce(8)
            close_main(mpi)
        assert mpi8.clock(0) > mpi2.clock(0)


class TestConstruction:
    def test_rank_validation(self):
        m = uniform_machine(4)
        p = Profiler(m)
        with pytest.raises(MPIError):
            MPIRuntime(m, p, 0)
        with pytest.raises(MPIError):
            MPIRuntime(m, p, 2, cpus=[0])
        with pytest.raises(MPIError):
            MPIRuntime(m, p, 2, cpus=[0, 99])
        mpi = MPIRuntime(m, p, 2)
        with pytest.raises(MPIError):
            mpi.isend(5, 0, 10)

    def test_compute_charges_into_event(self):
        mpi, p = make_mpi(2)
        open_main(mpi)
        mpi.compute(0, "solver", WorkSignature(flops=1e6))
        close_main(mpi)
        t = p.to_trial("t")
        assert t.get_exclusive("solver", C.FP_OPS, 0) == pytest.approx(1e6)
