"""Tests for GenIDLEST: mesh, real kernels, solver, and simulation."""

import numpy as np
import pytest

from repro.apps.genidlest import (
    RIB45,
    RIB90,
    CaseConfig,
    GenidlestResult,
    MultiBlockMesh,
    RunConfig,
    SimulationError,
    SolverError,
    bicgstab,
    diff_coeff,
    fill_ghost_faces,
    matxvec,
    pc_jacobi,
    pc_schwarz,
    run_genidlest,
    solve_pressure,
)
from repro.apps.genidlest.simulate import (
    EVENT_EXCHANGE,
    EVENT_MAIN,
    EVENT_SENDRECV,
    KERNEL_EVENTS,
)
from repro.machine import counters as C


class TestMesh:
    def test_paper_cases(self):
        m45 = MultiBlockMesh(RIB45)
        assert m45.n_blocks == 8
        assert (m45.blocks[0].ni, m45.blocks[0].nj, m45.blocks[0].nk) == (128, 80, 8)
        m90 = MultiBlockMesh(RIB90)
        assert m90.n_blocks == 32
        assert m90.blocks[0].nk == 4

    def test_on_processor_copy_counts_match_paper(self):
        """'30 on-processor copies for 45rib and 126 for 90rib'."""
        assert MultiBlockMesh(RIB45).on_processor_copies(buffered=True) == 30
        assert MultiBlockMesh(RIB90).on_processor_copies(buffered=True) == 126

    def test_periodic_neighbors(self):
        m = MultiBlockMesh(RIB45)
        assert m.neighbors(0) == (7, 1)
        assert m.neighbors(7) == (6, 0)
        with pytest.raises(ValueError):
            m.neighbors(99)

    def test_exchange_pairs_cover_all_blocks(self):
        m = MultiBlockMesh(RIB45)
        pairs = m.exchange_pairs()
        assert len(pairs) == 16
        assert {p[0] for p in pairs} == set(range(8))

    def test_indivisible_grid_rejected(self):
        with pytest.raises(ValueError, match="not divisible"):
            CaseConfig("bad", (16, 16, 10), 4)


class TestKernels:
    def test_matxvec_matches_assembled_operator(self):
        rng = np.random.default_rng(0)
        p = rng.random((4, 3, 5))
        out = matxvec(p)
        # compare against explicit loops
        ref = np.zeros_like(p)
        ni, nj, nk = p.shape
        for i in range(ni):
            for j in range(nj):
                for k in range(nk):
                    v = 6.0 * p[i, j, k]
                    for di, dj, dk in [(1,0,0),(-1,0,0),(0,1,0),(0,-1,0),(0,0,1),(0,0,-1)]:
                        a, b, c = i+di, j+dj, k+dk
                        if 0 <= a < ni and 0 <= b < nj and 0 <= c < nk:
                            v -= p[a, b, c]
                    ref[i, j, k] = v
        np.testing.assert_allclose(out, ref)

    def test_matxvec_spd_like(self):
        """x . Ax > 0 for x != 0 (the operator is positive definite)."""
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.standard_normal((5, 5, 5))
            assert float(np.vdot(x, matxvec(x))) > 0

    def test_diff_coeff_harmonic_mean(self):
        u = np.full((3, 2, 2), 4.0)
        c = diff_coeff(u, dx=1.0)
        np.testing.assert_allclose(c[:-1], 4.0)  # harmonic mean of equals
        assert (c[-1] == 0).all()

    def test_diff_coeff_zero_safe(self):
        u = np.zeros((3, 2, 2))
        c = diff_coeff(u, dx=0.5)
        assert np.isfinite(c).all()

    def test_pc_jacobi(self):
        r = np.ones((2, 2, 2)) * 12.0
        np.testing.assert_allclose(pc_jacobi(r), 2.0)

    def test_pc_schwarz_improves_on_jacobi(self):
        """As a preconditioner, Schwarz should cut BiCGSTAB iterations."""
        rng = np.random.default_rng(3)
        b = rng.random((8, 8, 16))
        jac = bicgstab(matxvec, b, precondition=pc_jacobi, tol=1e-8)
        sch = bicgstab(
            matxvec, b, precondition=lambda v: pc_schwarz(v, subblocks=4),
            tol=1e-8,
        )
        assert sch.converged and jac.converged
        assert sch.iterations <= jac.iterations

    def test_fill_ghost_faces(self):
        dest = np.zeros((2, 2, 4))
        lo = np.full((2, 2), 5.0)
        hi = np.full((2, 2), 7.0)
        fill_ghost_faces(dest, lo, hi)
        assert (dest[:, :, 0] == 5).all() and (dest[:, :, -1] == 7).all()

    def test_kernel_dim_validation(self):
        with pytest.raises(ValueError):
            matxvec(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            diff_coeff(np.zeros(4), 1.0)
        with pytest.raises(ValueError):
            pc_schwarz(np.zeros((2, 2, 2)), sweeps=0)


class TestSolver:
    def test_converges_and_matches_scipy(self):
        import scipy.sparse
        import scipy.sparse.linalg

        rng = np.random.default_rng(5)
        shape = (6, 5, 4)
        b = rng.random(shape)
        result = solve_pressure(b, preconditioner="schwarz", tol=1e-10)
        assert result.converged
        # assemble the same operator sparsely and solve directly
        n = np.prod(shape)
        def mv(v):
            return matxvec(v.reshape(shape)).ravel()
        A = scipy.sparse.linalg.LinearOperator((n, n), matvec=mv)
        x_ref, info = scipy.sparse.linalg.bicgstab(A, b.ravel(), rtol=1e-12,
                                                   atol=0.0)
        assert info == 0
        np.testing.assert_allclose(result.x.ravel(), x_ref, rtol=1e-5, atol=1e-8)

    def test_residual_actually_small(self):
        rng = np.random.default_rng(8)
        b = rng.random((5, 5, 5))
        res = solve_pressure(b, preconditioner="jacobi", tol=1e-9)
        assert res.converged
        assert np.linalg.norm(b - matxvec(res.x)) / np.linalg.norm(b) < 1e-8

    def test_zero_rhs(self):
        res = solve_pressure(np.zeros((3, 3, 3)))
        assert res.converged and res.iterations == 0
        np.testing.assert_allclose(res.x, 0.0)

    def test_residual_history_monotone_ish(self):
        rng = np.random.default_rng(9)
        b = rng.random((6, 6, 6))
        res = solve_pressure(b, preconditioner="schwarz")
        assert res.residual_history[-1] < res.residual_history[0]

    def test_validation(self):
        with pytest.raises(SolverError):
            solve_pressure(np.zeros((2, 2)))
        with pytest.raises(SolverError):
            solve_pressure(np.zeros((2, 2, 2)), preconditioner="magic")
        with pytest.raises(SolverError):
            bicgstab(matxvec, np.ones((2, 2, 2)), tol=-1)


SMALL = CaseConfig("small", (16, 16, 16), 8)


class TestSimulation:
    def test_config_validation(self):
        with pytest.raises(SimulationError):
            RunConfig(version="cuda")
        with pytest.raises(SimulationError):
            RunConfig(case=SMALL, n_procs=16)  # more procs than blocks
        with pytest.raises(SimulationError):
            RunConfig(n_procs=0)
        with pytest.raises(SimulationError):
            RunConfig(iterations=0)

    def test_unopt_openmp_much_slower_than_mpi(self):
        mpi = run_genidlest(RunConfig(case=SMALL, version="mpi",
                                      optimized=True, n_procs=8, iterations=2))
        unopt = run_genidlest(RunConfig(case=SMALL, version="openmp",
                                        optimized=False, n_procs=8, iterations=2))
        assert unopt.wall_seconds > 2.0 * mpi.wall_seconds

    def test_opt_openmp_close_to_mpi(self):
        """At paper scale (90rib, 16 procs) the optimized gap is ~15%."""
        mpi = run_genidlest(RunConfig(case=RIB90, version="mpi",
                                      optimized=True, n_procs=16, iterations=2))
        opt = run_genidlest(RunConfig(case=RIB90, version="openmp",
                                      optimized=True, n_procs=16, iterations=2))
        assert opt.wall_seconds < 1.4 * mpi.wall_seconds
        assert opt.wall_seconds > mpi.wall_seconds  # MPI still wins

    def test_unopt_first_touch_concentrates_pages(self):
        """Root cause check: remote accesses dominate in unopt, not in opt."""
        unopt = run_genidlest(RunConfig(case=SMALL, version="openmp",
                                        optimized=False, n_procs=8, iterations=1))
        opt = run_genidlest(RunConfig(case=SMALL, version="openmp",
                                      optimized=True, n_procs=8, iterations=1))

        def remote_ratio(result, event):
            t = result.trial
            e = t.event_index(event)
            remote = t.exclusive_array(C.REMOTE_MEMORY_ACCESSES)[e].sum()
            local = t.exclusive_array(C.LOCAL_MEMORY_ACCESSES)[e].sum()
            return remote / (remote + local) if remote + local else 0.0

        assert remote_ratio(unopt, "matxvec") > 0.5
        assert remote_ratio(opt, "matxvec") < 0.2

    def test_profile_contains_paper_events(self):
        r = run_genidlest(RunConfig(case=SMALL, version="openmp",
                                    optimized=False, n_procs=4, iterations=1))
        for ev in (*KERNEL_EVENTS, EVENT_EXCHANGE, EVENT_SENDRECV, EVENT_MAIN):
            assert r.trial.has_event(ev), ev

    def test_metadata_records_copies(self):
        r = run_genidlest(RunConfig(case=RIB45, version="openmp",
                                    optimized=False, n_procs=8, iterations=1))
        assert r.trial.metadata["on_processor_copies"] == 30
        r_opt = run_genidlest(RunConfig(case=RIB45, version="openmp",
                                        optimized=True, n_procs=8, iterations=1))
        assert r_opt.trial.metadata["on_processor_copies"] == 16

    def test_mpi_version_has_mpi_events(self):
        r = run_genidlest(RunConfig(case=SMALL, version="mpi",
                                    optimized=True, n_procs=4, iterations=1))
        assert r.trial.has_event("MPI_Isend()")
        assert r.trial.has_event("MPI_Waitall()")

    def test_machine_too_small_rejected(self):
        from repro.machine import uniform_machine

        with pytest.raises(SimulationError, match="cpus"):
            run_genidlest(
                RunConfig(case=SMALL, version="openmp", n_procs=8, iterations=1),
                machine=uniform_machine(2),
            )

    def test_deterministic(self):
        cfg = RunConfig(case=SMALL, version="openmp", optimized=False,
                        n_procs=4, iterations=1)
        a, b = run_genidlest(cfg), run_genidlest(cfg)
        np.testing.assert_allclose(
            a.trial.exclusive_array(C.TIME), b.trial.exclusive_array(C.TIME)
        )
