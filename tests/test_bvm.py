import tracemalloc
from functools import reduce

import numpy as np
import pytest
from conftest import A_dense, ToySystem, materialize

import halfbvm as hb
from halfbvm import bvm, spatial
from halfbvm.doubling import DoubledState, ZERO_SOURCE, doubled_source, source_block_values


def test_gmm_matrices_frozen():
    gmm = bvm.build_gmm(3, 3.0)
    assert gmm.tau == pytest.approx(1.0)
    assert np.allclose(A_dense(gmm), [[0, 0.5, 0], [-0.5, 0, 0.5], [0, -1, 1]])
    assert np.allclose(gmm.a0, [-0.5, 0, 0])
    with pytest.raises(ValueError):
        bvm.build_gmm(1, 1.0)
    with pytest.raises(ValueError):
        bvm.build_gmm(4, -1.0)


@pytest.mark.parametrize("N", [2, 3, 5, 8])
def test_apply_A_matches_dense(N):
    gmm = bvm.build_gmm(N, 1.0)
    rng = np.random.default_rng(N)
    X = rng.normal(size=(N, 6))
    assert np.allclose(gmm.apply_A(X, np.zeros_like(X)), A_dense(gmm) @ X)


@pytest.mark.parametrize("N,d", [(2, 2), (5, 4), (8, 8)])
def test_operator_matches_materialized(N, d):
    rng = np.random.default_rng(N * d)
    sys = ToySystem(rng.normal(size=(d, d)))
    gmm = bvm.build_gmm(N, 0.7)
    system = bvm.AllAtOnceSystem(gmm=gmm, sys=sys)
    x = rng.normal(size=N * d)
    assert np.abs(system.apply(x) - materialize(system) @ x).max() < 1e-14


@pytest.mark.parametrize("name", sorted(hb.catalog()))
def test_apply_matches_materialized_on_every_catalog_problem(name):
    # the catalog spans walls and torus, eps = 0 (transport_limit) and
    # imaginary eps (schrodinger_*)
    run = hb.setup_run(hb.build_problem(name), m=6)
    system = bvm.AllAtOnceSystem(gmm=bvm.build_gmm(5, 1.0), sys=run.sys)
    M = materialize(system)
    rng = np.random.default_rng(0)
    x = rng.normal(size=system.shape[0])
    for v in (x, x + 1j * rng.normal(size=x.size)):
        tol = 1e-14 * np.abs(M).sum(axis=1).max() * np.abs(v).max()
        assert np.abs(system.apply(v) - M @ v).max() <= tol


@pytest.mark.parametrize("N", [2, 3, 7])
def test_apply_rows_are_those_of_the_whole_apply(N):
    # every slice of rows, the first and last included, with its halo rows
    run = hb.setup_run(hb.build_problem("schrodinger_two_lorentzian"), m=6)
    system = bvm.AllAtOnceSystem(gmm=bvm.build_gmm(N, 1.0), sys=run.sys)
    rng = np.random.default_rng(N)
    x = rng.normal(size=system.shape[0]) + 1j * rng.normal(size=system.shape[0])
    whole = system.apply(x).reshape(N, -1)
    for lo in range(N):
        for hi in range(lo + 1, N + 1):
            assert np.array_equal(system.apply(x, slice(lo, hi)), whole[lo:hi].ravel())


def test_apply_peak_memory_is_output_and_half_scratch():
    # one output and a scratch half its size; the matrix route took 2.5x
    g = spatial.Grid(length=10.0, m=1024, boundary=spatial.PERIODIC)
    sys = spatial.assemble_discrete_system(g, 0.1, spatial.OperatorKind("advection", 0.3))
    system = bvm.AllAtOnceSystem(gmm=bvm.build_gmm(128, 1.0), sys=sys)
    x = np.random.default_rng(1).normal(size=system.shape[0])
    tracemalloc.start()
    try:
        system.apply(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * x.nbytes


def test_interior_stencil_truncation_order_three():
    lam = 0.9j - 0.4
    taus = 0.1 * 0.5 ** np.arange(5)
    resid = np.abs(0.5 * (np.exp(lam * taus) - np.exp(-lam * taus)) - taus * lam)
    slope = np.polyfit(np.log(taus), np.log(resid), 1)[0]
    assert slope == pytest.approx(3.0, abs=0.1)


def test_final_row_truncation_order_two():
    lam = 0.7 - 0.3j
    taus = 0.1 * 0.5 ** np.arange(5)
    resid = np.abs(1.0 - np.exp(-lam * taus) - taus * lam)
    slope = np.polyfit(np.log(taus), np.log(resid), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


@pytest.mark.parametrize("lam", [-1.0, 1.0j, -1.0j])
def test_scalar_toy_global_second_order(lam):
    # integrate u' = lam*u, u(0)=1 over [0, 1]; endpoint error is O(tau^2)
    T = 1.0
    errs = []
    Ns = [8, 16, 32, 64]
    class Complex1D:
        dim = 1

        def apply_D(self, x, scale=1.0):
            return scale * lam * np.asarray(x)

    for N in Ns:
        gmm = bvm.build_gmm(N, T)
        sys = Complex1D()
        rhs = np.zeros(N, dtype=complex)
        rhs[0] = 0.5  # -a0 * u0 with u0 = 1
        system = bvm.AllAtOnceSystem(gmm=gmm, sys=sys)
        x = np.linalg.solve(materialize(system), rhs)
        errs.append(abs(x[-1] - np.exp(lam * T)))
    slope = np.polyfit(np.log(T / np.asarray(Ns)), np.log(errs), 1)[0]
    assert abs(slope - 2.0) <= 0.1


def test_two_step_toy_matches_hand_solution():
    # N = 2, D = [-1]: M = [[tau, 1/2], [-1, 1+tau]], rhs = (1/2, 0)
    tau = 0.1
    gmm = bvm.build_gmm(2, 2 * tau)
    sys = ToySystem([[-1.0]])
    M = materialize(bvm.AllAtOnceSystem(gmm=gmm, sys=sys))
    assert np.allclose(M, [[tau, 0.5], [-1.0, 1.0 + tau]])
    x = np.linalg.solve(M, [0.5, 0.0])
    det = tau + tau * tau + 0.5
    assert x[0] == pytest.approx(0.5 * (1 + tau) / det)
    assert x[1] == pytest.approx(0.5 / det)
    assert abs(x[1] - np.exp(-2 * tau)) < 0.6 * (2 * tau) ** 2


def test_assembled_rhs_structure():
    # diffusion with closed forms; drift with a spectral fit on the odd-doubled
    # torus; the complex dispersive model
    gmm = bvm.build_gmm(4, 1.0)
    for name in ("half_diffusion_manufactured", "advection_gaussian_quartic",
                 "schrodinger_two_lorentzian"):
        pb = hb.build_problem(name)
        run = hb.setup_run(pb, m=12)
        system = bvm.assemble_all_at_once(gmm, run.sys, run.source, run.u0v0)
        U0 = run.u0v0.stack()
        R = system.rhs.reshape(4, run.sys.dim)
        for j, t in enumerate(gmm.times):
            expect = gmm.tau * doubled_source(run.source, run.sys, t)
            if j == 0:
                expect = expect + 0.5 * U0
            assert np.array_equal(R[j], expect), name
    # the stability polynomials are the interior rows of A and of B
    mp = hb.gmm_polynomials()
    B = (A_dense(gmm) - materialize(bvm.AllAtOnceSystem(
        gmm=gmm, sys=ToySystem([[1.0]])))) / gmm.tau
    assert np.array_equal(A_dense(gmm)[1, :3], mp.rho)
    assert np.array_equal(B[1, :3], mp.sigma)


def _dense_rhs(gmm, sys, src, u0v0):
    """The rhs as one N x 2n array: each term's time values times its tau G,
    the terms summed, then -a0 (x) U0 subtracted in row 0."""
    U0 = u0v0.stack()
    if src.is_zero:
        rhs = np.zeros((gmm.n_steps, sys.dim),
                       complex if sys.epsilon.imag != 0 else float)
    else:
        rhs = reduce(np.add, (np.multiply.outer(T(gmm.times), gmm.tau * G)
                              for T, G in source_block_values(src, sys)))
    rhs = rhs.astype(np.result_type(rhs, U0), copy=False)
    rhs[0] -= gmm.a0[0] * U0
    return rhs.ravel()


@pytest.mark.parametrize("name", sorted(hb.catalog()))
def test_factored_rhs_is_the_dense_assembly_bit_for_bit(name):
    # one factor per source term and one for U0, at most 3 in the catalog;
    # the terms add in the dense sum's order, so every bit agrees, also when
    # r >= N
    pb = hb.build_problem(name)
    run = hb.setup_run(pb, m=12)
    for N in (2, 3, 7, 40):
        gmm = bvm.build_gmm(N, 1.3)
        system = bvm.assemble_all_at_once(gmm, run.sys, run.source, run.u0v0)
        r = len(run.source.terms) + 1
        assert r <= 3 and system.times.shape == (N, r)
        assert system.vectors.shape == (r, run.sys.dim)
        b, ref = system.rhs, _dense_rhs(gmm, run.sys, run.source, run.u0v0)
        assert b.dtype == ref.dtype and np.array_equal(b, ref)
        assert np.array_equal(system.rhs_rows(slice(1, N)), ref.reshape(N, -1)[1:])


def test_assembly_forms_nothing_of_the_rhs_size():
    # the drift run's fitted source: its vectors and Hilbert evaluations are
    # about 16 vectors of n, 0.02 rhs sizes at N = 400; the dense assembly
    # made the N x 2n rhs
    run = hb.setup_run(hb.build_problem("advection_gaussian_quartic"), h=0.05)
    gmm = bvm.build_gmm(400, 20.0)
    tracemalloc.start()
    try:
        system = bvm.assemble_all_at_once(gmm, run.sys, run.source, run.u0v0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * system.shape[0] * system.dtype.itemsize


def test_zero_data_gives_zero_solution():
    pb = hb.build_problem("half_diffusion_homogeneous")
    run = hb.setup_run(pb, m=12)
    zero = DoubledState(u=np.zeros(run.sys.n), v=np.zeros(run.sys.n))
    gmm = bvm.build_gmm(6, 1.0)
    system = bvm.assemble_all_at_once(gmm, run.sys, ZERO_SOURCE, zero)
    assert np.all(system.rhs == 0)
    rep = hb.gmres_solve(system, None, tol=1e-12, max_iter=10)
    assert rep.iterations == 0 and np.all(rep.solution == 0)


def test_trajectory_round_trip():
    pb = hb.build_problem("single_mode")
    run = hb.setup_run(pb, m=10)
    gmm = bvm.build_gmm(5, 1.0)
    system = bvm.assemble_all_at_once(gmm, run.sys, ZERO_SOURCE, run.u0v0)
    x = np.arange(5.0 * run.sys.dim)
    traj = bvm.extract_trajectory(x, system)
    assert len(traj) == 6
    assert traj[0] is run.u0v0
    restacked = np.concatenate([s.stack() for s in traj[1:]])
    assert np.all(restacked == x)
    with pytest.raises(ValueError):
        bvm.extract_trajectory(x[:-1], system)


def test_initial_state_size_checked():
    pb = hb.build_problem("single_mode")
    run = hb.setup_run(pb, m=10)
    bad = DoubledState(u=np.zeros(3), v=np.zeros(3))
    with pytest.raises(ValueError):
        bvm.assemble_all_at_once(bvm.build_gmm(4, 1.0), run.sys, ZERO_SOURCE, bad)
