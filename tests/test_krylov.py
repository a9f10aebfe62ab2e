import threading
import tracemalloc

import krylov_reference
import numpy as np
import pytest
from conftest import (A_dense, assert_multiset_close, dense_D, dense_system,
                      materialize, materialize_omega_circulant)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import halfbvm as hb
from halfbvm import krylov, spatial
from halfbvm.bvm import AllAtOnceSystem, build_gmm


def _setup(name="half_diffusion_manufactured", m=9, N=8, T=2.0, **kw):
    pb = hb.build_problem(name, **kw)
    run = hb.setup_run(pb, m=m)
    gmm = build_gmm(N, T)
    system = hb.assemble_all_at_once(gmm, run.sys, run.source, run.u0v0)
    return pb, run, gmm, system


def _materialized_preconditioner(gmm, sys, theta=np.pi):
    W = materialize_omega_circulant(gmm, np.exp(1j * theta))
    D = dense_D(sys)
    return (np.kron(W, np.eye(sys.dim))
            - gmm.tau * np.kron(np.eye(gmm.n_steps), D))


def _omega_preconditioner(N, theta):
    """The preconditioner of N steps at the given theta, on a small walls
    system whose spectrum keeps clear of every lam_j."""
    g = spatial.Grid(length=4.0, m=4, boundary=spatial.DIRICHLET)
    sys = spatial.assemble_discrete_system(g, 1.0, spatial.OperatorKind("zero"))
    return krylov.build_preconditioner(build_gmm(N, 1.0), sys, theta=theta)


@pytest.mark.parametrize("N", [4, 16, 64])
@pytest.mark.parametrize("theta", [np.pi, np.pi / 2, 1.0])
def test_omega_circulant_reconstruction(N, theta):
    gmm = build_gmm(N, 1.0)
    omega = np.exp(1j * theta)
    pre = _omega_preconditioner(N, theta)
    lam, scaling = pre.lambda_omega, pre.theta_scaling
    W = materialize_omega_circulant(gmm, omega)
    s = np.arange(N)
    F = np.exp(-2j * np.pi * np.outer(s, s) / N) / np.sqrt(N)
    Theta = np.diag(scaling)
    recon = Theta @ F.conj().T @ np.diag(lam) @ F @ Theta.conj().T
    assert np.abs(W - recon).max() < 1e-12
    # closed form of the eigenvalues
    assert np.abs(lam - 1j * np.sin((2 * np.pi * s - theta) / N)).max() < 1e-12


def test_omega_circulant_frozen_two_by_two():
    gmm = build_gmm(2, 1.0)
    W = materialize_omega_circulant(gmm, -1.0 + 0j)
    assert np.abs(W - np.array([[0.0, 1.0], [-1.0, 0.0]])).max() < 1e-15
    lam = _omega_preconditioner(2, np.pi).lambda_omega
    assert_multiset_close(lam, [1j, -1j], 1e-14)
    assert_multiset_close(np.linalg.eigvals(W), lam, 1e-14)


def test_omega_one_reduces_to_plain_circulant():
    pre = _omega_preconditioner(8, 0.0)
    lam, scaling = pre.lambda_omega, pre.theta_scaling
    assert np.all(scaling == 1.0)
    c = np.zeros(8, dtype=complex)
    c[1], c[7] = -0.5, 0.5
    assert np.abs(lam - np.fft.fft(c)).max() < 1e-14


def test_omega_circulant_difference_rank_two():
    gmm = build_gmm(8, 1.0)
    W = materialize_omega_circulant(gmm, np.exp(1j * np.pi))
    diff = W - A_dense(gmm)
    rows = sorted(set(np.nonzero(np.abs(diff) > 1e-14)[0].tolist()))
    assert rows == [0, 7]
    assert np.linalg.matrix_rank(diff) == 2


@pytest.mark.parametrize("N", [2, 7, 8])
@pytest.mark.parametrize("theta", [np.pi, krylov.THETA_GRID[2], krylov.THETA_GRID[9]])
def test_omega_difference_is_omega_A_minus_A(N, theta):
    # E = omega(A) - A from the coefficient table: the first-row corner and
    # the last row (at N = 2 two of its entries share a place and add up)
    gmm = build_gmm(N, 1.0)
    places = ((0, N - 1), (N - 1, 0), (N - 1, N - 2), (N - 1, N - 1))
    entries = krylov._omega_difference(_omega_preconditioner(N, theta))
    E = np.zeros((N, N), dtype=complex)
    for (j, k), e in zip(places, entries):
        E[j, k] += e
    W = materialize_omega_circulant(gmm, np.exp(1j * theta))
    assert np.abs(E - (W - A_dense(gmm))).max() < 1e-15


@pytest.mark.parametrize("name,theta,complex_x", [
    ("half_diffusion_manufactured", np.pi, False),    # real walls: packed IFFT
    ("advection_manufactured", np.pi, True),          # torus half spectrum
    ("half_diffusion_manufactured", np.pi, True),     # complex rhs, real omega
    ("half_diffusion_manufactured", krylov.THETA_GRID[2], True),   # theta != pi
    ("advection_manufactured", krylov.THETA_GRID[9], True)])
def test_preconditioned_step_is_P_inverse_M(name, theta, complex_x):
    # X - P^{-1}(E X), with E X's spectrum in closed form, against the
    # operator apply (itself against dense A) and the preconditioner's FFT
    # solve
    pb, run, gmm, system = _setup(name, m=9, N=12, T=1.5)
    pre = krylov.build_preconditioner(gmm, run.sys, theta=theta)
    modes = run.sys.modes(pre.real and name == "advection_manufactured")
    assert modes.half == (name == "advection_manufactured" and pre.real)
    rng = np.random.default_rng(13)
    X = rng.normal(size=(len(modes.p), 2, 12))
    if complex_x:
        X = X + 1j * rng.normal(size=X.shape)
    p, q = modes.p[:, None], modes.q[:, None]
    MX = krylov._apply_modes(gmm, p, q, X)       # A along the time axis, last
    DX = np.stack([X[:, 1], p * X[:, 0] + q * X[:, 1]], axis=1)
    dense = X @ A_dense(gmm).T - gmm.tau * DX
    assert np.abs(MX - dense).max() <= 1e-14 * np.abs(MX).max()
    tables = krylov._block_tables(pre.lambda_omega, modes, pre.tau)
    ref = krylov._precondition_modes(pre, tables, MX)
    step = krylov._preconditioned_step(pre, tables, X)
    assert np.iscomplexobj(step) == np.iscomplexobj(ref) == (complex_x or not pre.real)
    assert np.abs(step - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("name,m", [("half_diffusion_manufactured", 9),
                                    ("mass_transfer_manufactured", 9),
                                    ("advection_manufactured", 6)])
def test_preconditioner_is_exact_inverse(name, m):
    pb, run, gmm, system = _setup(name, m=m, N=8)
    pre = krylov.build_preconditioner(gmm, run.sys)
    P = _materialized_preconditioner(gmm, run.sys)
    rng = np.random.default_rng(1)
    x = rng.normal(size=system.shape[0])
    z = krylov.apply_preconditioner(pre, P @ x)
    assert np.abs(z - x).max() < 1e-10


def test_preconditioner_round_trip_random_rhs():
    pb, run, gmm, system = _setup(m=9, N=4)
    pre = krylov.build_preconditioner(gmm, run.sys)
    P = _materialized_preconditioner(gmm, run.sys)
    rng = np.random.default_rng(2)
    r = rng.normal(size=system.shape[0])
    assert np.abs(P @ krylov.apply_preconditioner(pre, r) - r).max() < 1e-10


def test_frequency_block_with_zero_operators_divides_by_lambda():
    # eps = 0 and no operator make P = Q = 0, leaving the v rows decoupled:
    # v2_v = r_v / lambda_j; the whole apply still inverts the materialized
    # preconditioner exactly
    g = spatial.Grid(length=4.0, m=5, boundary=spatial.DIRICHLET)
    sys = spatial.assemble_discrete_system(g, 0.0, spatial.OperatorKind("zero"))
    assert not dense_D(sys)[sys.n:].any()
    gmm = build_gmm(4, 1.0)
    pre = krylov.build_preconditioner(gmm, sys)
    rng = np.random.default_rng(3)
    v1 = rng.normal(size=sys.dim) + 1j * rng.normal(size=sys.dim)
    v2 = krylov.solve_frequency_block(pre, 1, v1)
    n = sys.n
    assert np.abs(v2[n:] - v1[n:] / pre.lambda_omega[1]).max() < 1e-13
    P = _materialized_preconditioner(gmm, sys)
    r = rng.normal(size=4 * sys.dim)
    assert np.abs(P @ krylov.apply_preconditioner(pre, r) - r).max() < 1e-11


def test_frequency_block_solves():
    pb, run, gmm, system = _setup(m=5, N=6)
    pre = krylov.build_preconditioner(gmm, run.sys)
    rng = np.random.default_rng(4)
    D = dense_D(run.sys)
    for j in (0, 3, 5):
        v1 = rng.normal(size=run.sys.dim) + 1j * rng.normal(size=run.sys.dim)
        v2 = krylov.solve_frequency_block(pre, j, v1)
        block = pre.lambda_omega[j] * np.eye(run.sys.dim) - gmm.tau * D
        # defining property of the block solve
        assert np.abs(block @ v2 - v1).max() < 1e-12
        assert np.abs(v2 - np.linalg.solve(block, v1)).max() < 1e-12


def test_frequency_blocks_order_independent():
    pb, run, gmm, system = _setup("advection_manufactured", m=8, N=8)
    pre = krylov.build_preconditioner(gmm, run.sys)
    rng = np.random.default_rng(5)
    V1 = rng.normal(size=(8, run.sys.dim)) + 1j * rng.normal(size=(8, run.sys.dim))
    order = rng.permutation(8)
    out = np.empty_like(V1)
    for j in order:
        out[j] = krylov.solve_frequency_block(pre, j, V1[j])
    ref = np.stack([krylov.solve_frequency_block(pre, j, V1[j]) for j in range(8)])
    assert np.all(out == ref)
    # the batched mode-space path (all frequencies as the last axis of the
    # mode array, solved in place) agrees with the per-block path
    modes = run.sys.modes()
    V = modes.forward(V1.reshape(8, 2, modes.n)).transpose(2, 1, 0)
    tables = krylov._block_tables(pre.lambda_omega, modes, pre.tau)
    krylov._solve_blocks(pre.lambda_omega, *tables, pre.tau, V)
    batch = modes.inverse(V.transpose(2, 1, 0)).reshape(8, -1)
    assert np.abs(batch - ref).max() < 1e-11


def _random_system(data, m, periodic):
    """A small assembled system of a random model, real epsilon."""
    if periodic:
        boundary, model = spatial.PERIODIC, "advection"
    else:
        boundary = spatial.DIRICHLET
        model = data.draw(st.sampled_from(["zero", "scalar"]))
    eps = data.draw(st.floats(0.05, 1.0))
    delta = data.draw(st.floats(-0.5, 0.5))
    grid = spatial.Grid(length=4.0, m=m, boundary=boundary)
    return spatial.assemble_discrete_system(grid, eps,
                                            spatial.OperatorKind(model, delta))


@settings(max_examples=25, deadline=None)
@given(m=st.integers(3, 8), N=st.integers(2, 8), periodic=st.booleans(),
       theta=st.one_of(st.just(np.pi), st.floats(0.1, 2 * np.pi - 0.1)),
       data=st.data())
def test_preconditioner_inverts_materialized_property(m, N, periodic, theta, data):
    sys = _random_system(data, m, periodic)
    gmm = build_gmm(N, 1.0)
    if periodic and theta == np.pi and N % 2:
        # odd N puts lam_j = 0 at theta = pi, where it meets the constant
        # mode of a periodic D: P is singular, and an explicit theta is refused
        with pytest.raises(krylov.PreconditionerError, match="GAP_MIN"):
            krylov.build_preconditioner(gmm, sys, theta=theta)
        return
    pre = krylov.build_preconditioner(gmm, sys, theta=theta)
    P = _materialized_preconditioner(gmm, sys, theta)
    r = np.random.default_rng(m * 10 + N).normal(size=N * sys.dim)
    z = krylov.apply_preconditioner(pre, r)
    # backward error at round-off, whatever the conditioning of P
    assert np.linalg.norm(P @ z - r) <= 1e-13 * np.linalg.norm(P) * np.linalg.norm(z)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(3, 8), N=st.integers(2, 9), periodic=st.booleans(),
       data=st.data())
def test_derived_theta_inverts_materialized_property(m, N, periodic, data):
    # no theta given: the one chosen keeps every block at least GAP_MIN from
    # singular, odd N on a torus included, and inverts its own materialized P
    sys = _random_system(data, m, periodic)
    gmm = build_gmm(N, data.draw(st.floats(0.5, 4.0)))
    pre = krylov.build_preconditioner(gmm, sys)
    assert pre.gap >= krylov.GAP_MIN
    P = _materialized_preconditioner(gmm, sys, pre.theta)
    r = np.random.default_rng(m * 10 + N).normal(size=N * sys.dim)
    z = krylov.apply_preconditioner(pre, r)
    assert np.linalg.norm(P @ z - r) <= 1e-13 * np.linalg.norm(P) * np.linalg.norm(z)


def _check_direct_against_dense(system):
    M = materialize(system)
    xd = np.linalg.solve(M, system.rhs)
    rep = krylov.direct_solve(system)
    scale = np.linalg.cond(M) * np.linalg.norm(xd)
    assert np.linalg.norm(rep.solution - xd) <= 1e-13 * scale
    return rep


@settings(max_examples=25, deadline=None)
@given(m=st.integers(3, 8), N=st.integers(2, 8), periodic=st.booleans(),
       data=st.data())
def test_direct_solve_matches_dense_property(m, N, periodic, data):
    # real data on a periodic grid takes the half spectrum (odd and even n);
    # a complex rhs takes the full transform
    sys = _random_system(data, m, periodic)
    kind = data.draw(st.sampled_from(["real", "complex_rhs"]))
    gmm = build_gmm(N, data.draw(st.floats(0.5, 4.0)))
    rng = np.random.default_rng(m * 10 + N)
    rhs = rng.normal(size=N * sys.dim)
    if kind == "complex_rhs":
        rhs = rhs + 1j * rng.normal(size=N * sys.dim)
    rep = _check_direct_against_dense(dense_system(gmm, sys, rhs))
    assert rep.half_spectrum == (periodic and kind == "real")
    assert np.iscomplexobj(rep.solution) == (kind != "real")


@settings(max_examples=25, deadline=None)
@given(m=st.integers(3, 8), N=st.integers(2, 8), periodic=st.booleans(),
       theta=st.one_of(st.just(np.pi), st.floats(0.1, 2 * np.pi - 0.1)),
       data=st.data())
def test_gmres_matches_direct_solve_property(m, N, periodic, theta, data):
    # the two consumers of the time table, the omega-circulant preconditioner
    # and the banded direct solve, solve the same system; a singular P (odd N
    # at theta = pi on a torus) is refused and kept out.  M - P has rank
    # <= 2*dim, so GMRES under a correct P ends within 2*dim + 1 iterations
    assume(not (periodic and theta == np.pi and N % 2))
    sys = _random_system(data, m, periodic)
    gmm = build_gmm(N, data.draw(st.floats(0.5, 4.0)))
    rhs = np.random.default_rng(m * 10 + N).normal(size=N * sys.dim)
    system = dense_system(gmm, sys, rhs)
    pre = krylov.build_preconditioner(gmm, sys, theta=theta)
    it = krylov.gmres_solve(system, pre, tol=1e-12, max_iter=2 * sys.dim + 1)
    direct = krylov.direct_solve(system)
    assert it.true_residual <= 1e-8 and direct.true_residual <= 1e-8
    gap = np.linalg.norm(it.solution - direct.solution)
    assert gap <= 1e-6 * np.linalg.norm(direct.solution)


@pytest.mark.parametrize("N", [2, 3, 4, 16])
def test_direct_solve_root_split_matches_dense(N):
    # the scalar systems (A - cI) y = r against dense solves: c = 0, the
    # double root c = +-i (z1 = z2, u_j = j), c on the marginal segment and
    # off it; then whole systems whose modes are all Jordan blocks on the
    # segment: D = 0 between walls (c = 0) and transport_limit (eps = 0)
    gmm = build_gmm(N, 1.0)
    c = np.array([0.0, 1j, -1j, 0.5j, -0.99j, 2j, 1e-3, -0.7, 0.3 + 0.5j, 5 - 40j])
    rng = np.random.default_rng(N)
    r = rng.normal(size=(N, c.size)) + 1j * rng.normal(size=(N, c.size))
    y = r.copy()
    assert krylov._scalar_sweeps(y, c) == 5            # |z1| = 1 for c on [-i, i]
    for k in range(c.size):
        ref = np.linalg.solve(A_dense(gmm) - c[k] * np.eye(N), r[:, k])
        assert np.linalg.norm(y[:, k] - ref) <= 1e-13 * np.linalg.norm(ref)
    g = spatial.Grid(length=4.0, m=6, boundary=spatial.DIRICHLET)
    sys = spatial.assemble_discrete_system(g, 0.0, spatial.OperatorKind("zero"))
    rhs = rng.normal(size=N * sys.dim)
    rep = _check_direct_against_dense(dense_system(gmm, sys, rhs))
    assert rep.marginal_modes == sys.dim
    pb, run, gmm, system = _setup("transport_limit", m=8, N=N, T=1.0)
    rep = _check_direct_against_dense(system)
    assert rep.half_spectrum and rep.marginal_modes == 2 * (run.sys.n // 2 + 1)


@pytest.mark.parametrize("boundary,model,m", [(spatial.PERIODIC, "advection", 1024),
                                              (spatial.DIRICHLET, "scalar", 1025)])
def test_direct_solve_peak_memory_in_rhs_vectors(boundary, model, m):
    # at most the mode array (rfft half spectrum, or the real DST modes) and
    # the solution, then the solution and the residual's row blocks: 2.60
    # rhs sizes measured on both grids
    g = spatial.Grid(length=10.0, m=m, boundary=boundary)
    sys = spatial.assemble_discrete_system(g, 0.1, spatial.OperatorKind(model, 0.3))
    rhs = np.random.default_rng(1).normal(size=128 * sys.dim)
    system = dense_system(build_gmm(128, 1.0), sys, rhs)
    tracemalloc.start()
    try:
        rep = krylov.direct_solve(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.converged
    assert peak <= 2.75 * rhs.nbytes


def test_reports_carry_true_residual_and_path():
    pb, run, gmm, system = _setup(m=9, N=8)
    pre = krylov.build_preconditioner(gmm, run.sys)
    b = system.rhs
    for rep, path in ((krylov.gmres_solve(system, pre), "gmres+omega"),
                      (krylov.gmres_solve(system, None), "gmres"),
                      (krylov.direct_solve(system), "direct")):
        res = np.linalg.norm(b - system.apply(rep.solution)) / np.linalg.norm(b)
        assert rep.path == path
        assert rep.true_residual == pytest.approx(res, rel=1e-6)
        assert rep.true_residual < krylov.TRUE_RESIDUAL_MAX
    stalled = krylov.gmres(lambda X, idx: 2.0 * X, np.ones((1, 4)), tol=1e-10,
                           max_iter=0)
    assert stalled.residual_history == [1.0] and not stalled.converged


def test_singular_block_at_pi_moves_theta():
    # theta = pi with odd N makes one eigenvalue of omega(A) vanish; with
    # D = 0 (eps = 0, no operator) that block is exactly singular, so the
    # derived theta leaves pi and an explicit pi is refused
    g = spatial.Grid(length=4.0, m=4, boundary=spatial.DIRICHLET)
    sys = spatial.assemble_discrete_system(g, 0.0, spatial.OperatorKind("zero"))
    gmm = build_gmm(5, 1.0)
    lam = krylov._frequencies(5, np.pi)
    assert np.abs(lam).min() < 1e-15
    with pytest.raises(krylov.PreconditionerError, match="GAP_MIN"):
        krylov.build_preconditioner(gmm, sys, theta=np.pi)
    pre = krylov.build_preconditioner(gmm, sys)
    # tau*spec(D) = {0}: the gap is min |sin((2 pi j - theta)/5)|, largest
    # (sin(pi/10)) at the grid angles pi/2 and 3 pi/2, tied up to round-off
    assert abs(abs(pre.theta - np.pi) - np.pi / 2) < 1e-15
    assert pre.gap == pytest.approx(np.sin(np.pi / 10), rel=1e-12)
    assert np.min(np.abs(pre.lambda_omega)) == pytest.approx(pre.gap, rel=1e-12)
    P = _materialized_preconditioner(gmm, sys, pre.theta)
    r = np.random.default_rng(6).normal(size=5 * sys.dim)
    assert np.abs(P @ krylov.apply_preconditioner(pre, r) - r).max() < 1e-12


@pytest.mark.parametrize("N,theta", [(8, np.pi), (7, np.pi), (6, 1.0), (2, np.pi)])
def test_near_singular_blocks_match_brute_force(N, theta):
    # the sorted search for the gap between the lam_j and a point set agrees
    # with all pairwise distances, points planted on a lam_j included (sin is
    # symmetric, so lam_j values come in equal pairs)
    lam = krylov._frequencies(N, theta)
    rng = np.random.default_rng(N)
    noise = np.concatenate([rng.normal(size=20) + 1j * rng.uniform(-1, 1, 20),
                            [2j, -2j, 0.0]])
    cases = ([lam[j:j + 1] + 1e-15 for j in range(N)] + [noise, np.r_[lam, noise]]
             + [noise[k:k + 1] for k in range(len(noise))])
    for pts in cases:
        brute = np.abs(1j * lam.imag[:, None] - pts).min()
        assert krylov._gap(lam, pts) == brute


def test_gmres_zero_rhs():
    rep = krylov.gmres(lambda X, idx: X, np.zeros((1, 7)), tol=1e-10, max_iter=500)
    assert rep.converged and rep.iterations == 0
    assert np.all(rep.solution == 0)


def test_gmres_identity_converges_in_one_iteration():
    rng = np.random.default_rng(7)
    b = rng.normal(size=(1, 12))
    rep = krylov.gmres(lambda X, idx: X, b, tol=1e-12, max_iter=500)
    assert rep.converged and rep.iterations == 1
    assert np.abs(rep.solution - b).max() < 1e-12


def test_gmres_small_dense_system():
    rng = np.random.default_rng(8)
    A = np.eye(20) + 0.3 * rng.normal(size=(20, 20))
    b = rng.normal(size=20)
    rep = krylov.gmres(lambda X, idx: X @ A.T, b[None], tol=1e-12, max_iter=40)
    assert rep.converged
    assert np.abs(rep.solution[0] - np.linalg.solve(A, b)).max() < 1e-9
    assert rep.residual_history[-1] <= 1e-12


def test_gmres_reports_non_convergence():
    rng = np.random.default_rng(10)
    A = np.eye(30) + rng.normal(size=(30, 30))
    b = rng.normal(size=(1, 30))
    rep = krylov.gmres(lambda X, idx: X @ A.T, b, tol=1e-14, max_iter=3)
    assert not rep.converged
    assert rep.iterations == 3


def test_preconditioned_spectrum_clusters_at_one():
    pb, run, gmm, system = _setup(m=9, N=8)
    P = _materialized_preconditioner(gmm, run.sys)
    M = materialize(system)
    ev = np.linalg.eigvals(np.linalg.solve(P, M))
    outliers = int(np.sum(np.abs(ev - 1.0) > 1e-8))
    assert outliers <= 2 * run.sys.dim * 2


def test_other_theta_values_still_solve():
    # omega != -1 makes the preconditioner complex end to end
    pb, run, gmm, system = _setup(m=25, N=16, T=1.0)
    pre = krylov.build_preconditioner(gmm, run.sys, theta=np.pi / 2)
    rep = krylov.gmres_solve(system, pre, tol=1e-10, max_iter=400)
    ref = krylov.direct_solve(system)
    assert rep.converged
    rel = np.linalg.norm(rep.solution - ref.solution) / np.linalg.norm(ref.solution)
    assert rel < 1e-8


def test_preconditioned_and_unpreconditioned_agree():
    pb, run, gmm, system = _setup(m=15, N=16, T=1.0)
    tol = 1e-10
    pre = krylov.build_preconditioner(gmm, run.sys)
    a = krylov.gmres_solve(system, pre, tol=tol, max_iter=400)
    b = krylov.gmres_solve(system, None, tol=tol, max_iter=400)
    assert a.converged and b.converged
    diff = np.linalg.norm(a.solution - b.solution) / np.linalg.norm(a.solution)
    assert diff <= 10 * tol


@pytest.mark.parametrize("name,m", [("half_diffusion_manufactured", 11),
                                    ("mass_transfer_manufactured", 11),
                                    ("advection_manufactured", 8),
                                    ("schrodinger_single_mode", 12)])
def test_direct_solve_matches_dense(name, m):
    pb, run, gmm, system = _setup(name, m=m, N=6, T=1.5)
    xd = np.linalg.solve(materialize(system), system.rhs)
    rep = krylov.direct_solve(system)
    assert rep.converged
    assert np.abs(rep.solution - xd).max() < 1e-12


def test_direct_solve_agrees_with_gmres():
    pb, run, gmm, system = _setup(m=25, N=20, T=1.0)
    pre = krylov.build_preconditioner(gmm, run.sys)
    it = krylov.gmres_solve(system, pre, tol=1e-12, max_iter=300)
    dr = krylov.direct_solve(system)
    assert it.converged
    rel = np.linalg.norm(it.solution - dr.solution) / np.linalg.norm(dr.solution)
    assert rel < 1e-9


def test_criterion_9_finest_solve_ends_within_five_lockstep_iterations():
    # criterion 9's finest solve: theta = pi at a block gap of 6.1e-5, where
    # one GMRES over the whole system took 158 iterations
    pb = hb.build_problem("schrodinger_single_mode", L=20.0, gamma=0.1, mode=3)
    run = hb.setup_run(pb, h=0.125)
    gmm = build_gmm(32, 2.0)
    system = hb.assemble_all_at_once(gmm, run.sys, run.source, run.u0v0)
    pre = krylov.build_preconditioner(gmm, run.sys)
    assert pre.theta == np.pi and pre.gap < 1e-4
    rep = krylov.gmres_solve(system, pre, tol=1e-12, max_iter=800)
    assert rep.converged and rep.iterations <= 5
    assert rep.true_residual <= 1e-8
    assert rep.modes == run.sys.n and not rep.half_spectrum


def _physical_stopping_norm(system, pre, x):
    """||P^{-1}(b - Mx)|| / ||P^{-1} b|| formed in physical space."""
    b = system.rhs
    return (np.linalg.norm(krylov.apply_preconditioner(pre, b - system.apply(x)))
            / np.linalg.norm(krylov.apply_preconditioner(pre, b)))


@settings(max_examples=30, deadline=None)
@given(m=st.integers(3, 8), N=st.integers(2, 9), periodic=st.booleans(),
       complex_rhs=st.booleans(), data=st.data())
def test_lockstep_gmres_property(m, N, periodic, complex_rhs, data):
    # random systems, both boundaries, real and complex data, derived theta:
    # per mode P_k^{-1} M_k = I + (rank <= 4), so the lockstep batch ends
    # within 5 iterations, never later than one GMRES on the whole system,
    # and its stopping norm is the physical preconditioned residual (the
    # rfft pair weights included).  Unpreconditioned, a mode's Krylov space
    # is all of it after 2N steps, so one cycle of 2N is always enough
    sys = _random_system(data, m, periodic)
    gmm = build_gmm(N, data.draw(st.floats(0.5, 4.0)))
    rng = np.random.default_rng(m * 10 + N)
    rhs = rng.normal(size=N * sys.dim)
    if complex_rhs:
        rhs = rhs + 1j * rng.normal(size=N * sys.dim)
    system = dense_system(gmm, sys, rhs)
    pre = krylov.build_preconditioner(gmm, sys)
    rep = krylov.gmres_solve(system, pre, tol=1e-12, max_iter=50)
    one = krylov.gmres(
        lambda X, idx: krylov.apply_preconditioner(pre, system.apply(X[0]))[None],
        krylov.apply_preconditioner(pre, rhs)[None], tol=1e-12,
        max_iter=N * sys.dim + 1)
    bare = krylov.gmres_solve(system, None, tol=1e-12, max_iter=2 * N)
    direct = krylov.direct_solve(system)
    assert rep.converged and rep.iterations <= 5
    assert rep.iterations <= one.iterations and one.modes == 1
    assert bare.converged and bare.iterations <= 2 * N
    assert rep.half_spectrum == (periodic and not complex_rhs and pre.real)
    assert rep.modes == (sys.n // 2 + 1 if rep.half_spectrum else sys.n)
    for r in (rep, bare):
        gap = np.linalg.norm(r.solution - direct.solution)
        assert gap <= 1e-6 * np.linalg.norm(direct.solution)
    assert np.iscomplexobj(rep.solution) == complex_rhs
    assert rep.preconditioned_residual == pytest.approx(
        _physical_stopping_norm(system, pre, rep.solution), rel=1e-9, abs=1e-15)
    if complex_rhs or pre.real:        # else the real part of the iterate is kept
        for k in (1, 2):
            early = krylov.gmres_solve(system, pre, tol=1e-12, max_iter=k)
            if early.iterations == k:
                assert early.residual_history[-1] == pytest.approx(
                    _physical_stopping_norm(system, pre, early.solution), rel=1e-12)


def _batch_op(A, calls=None):
    """Systems A[idx] applied to the rows X, recording each idx in ``calls``."""
    def apply_op(X, idx):
        if calls is not None:
            calls.append(tuple(idx))
        return np.matmul(A[idx], X[:, :, None])[:, :, 0]
    return apply_op


def test_gmres_batch_is_fixed_and_a_closed_system_stays_on_zero_vectors():
    # system 0 has a zero rhs and never enters; system 1's Krylov space closes
    # exactly after one step (2 I on e_1), and it stays in the batch on zero
    # vectors; systems 2 and 3 are dense and iterate to the full dimension.
    # Every step applies the same batch, and the stopping norm counts every
    # system at every iteration.
    L = 6
    rng = np.random.default_rng(11)
    A = np.stack([np.eye(L), 2.0 * np.eye(L),
                  np.eye(L) + 0.5 * rng.normal(size=(L, L)),
                  np.eye(L) + 0.5 * rng.normal(size=(L, L))])
    B = np.zeros((4, L))
    B[1, 0] = 3.0
    B[2:] = rng.normal(size=(2, L))
    calls = []
    apply_op = _batch_op(A, calls)
    rep = krylov.gmres(apply_op, B, tol=1e-12, max_iter=50)
    assert rep.converged and rep.iterations == L and rep.modes == 4
    assert len(calls) == L and set(calls) == {(1, 2, 3)}
    assert np.isfinite(rep.residual_history).all()
    assert np.all(rep.solution[0] == 0.0)
    assert rep.solution[1, 0] == 1.5 and np.all(rep.solution[1, 1:] == 0.0)
    for k in (2, 3):
        assert np.allclose(rep.solution[k], np.linalg.solve(A[k], B[k]), atol=1e-12)
    for k in range(1, L):
        early = krylov.gmres(apply_op, B, tol=1e-12, max_iter=k)
        R = B - np.matmul(A, early.solution[:, :, None])[:, :, 0]
        assert early.iterations == k and not early.converged
        assert early.residual_history[-1] == pytest.approx(
            np.linalg.norm(R) / np.linalg.norm(B), rel=1e-12)


@settings(max_examples=30)
@given(K=st.integers(1, 6), L=st.integers(2, 24), cplx=st.booleans(),
       closes=st.integers(0, 3), seed=st.integers(0, 2 ** 16))
def test_gmres_rotations_match_sequential_givens_property(K, L, cplx, closes,
                                                         seed):
    # the last row of the rotation product gives each new diagonal, and R is
    # rotated once at the end: the same histories, iteration counts and
    # verdict as rotating every column through all earlier rotations.  With
    # ``closes`` > 0, system 0 has that many distinct eigenvalues, so its
    # Krylov space closes (hk = 0) and it stays in the batch on zero vectors
    rng = np.random.default_rng(seed)
    A = np.eye(L) + 0.4 * rng.normal(size=(K, L, L))
    B = rng.normal(size=(K, L))
    if cplx:
        A = A + 0.4j * rng.normal(size=(K, L, L))
        B = B + 1j * rng.normal(size=(K, L))
    if closes:
        A[0] = np.diag(1.0 + np.arange(L) % closes)
    for tol, max_iter in ((1e-12, 2 * L), (1e-12, L // 2 + 1), (1e-3, L)):
        rep = krylov.gmres(_batch_op(A), B, tol, max_iter)
        ref = krylov_reference.gmres(_batch_op(A), B, tol, max_iter)
        assert rep.iterations == ref.iterations
        assert rep.converged == ref.converged
        assert rep.residual_history == pytest.approx(ref.residual_history,
                                                     rel=1e-13, abs=0)
        assert np.allclose(rep.solution, ref.solution, rtol=0,
                           atol=1e-10 * np.abs(ref.solution).max())


@pytest.mark.parametrize("h,N", [(0.5, 8), (0.25, 15), (0.25, 16)])
@pytest.mark.parametrize("name", sorted(hb.problems.catalog()))
def test_gmres_solve_matches_sequential_givens_on_the_catalog(monkeypatch,
                                                             name, h, N):
    # every catalog problem, with and without the preconditioner: the same
    # iteration counts as the sequential rotations, and solutions within
    # 1e-12 relative
    pb = hb.build_problem(name)
    run = hb.setup_run(pb, h=h)
    gmm = build_gmm(N, 2.0)
    system = hb.assemble_all_at_once(gmm, run.sys, run.source, run.u0v0)
    for pre in (krylov.build_preconditioner(gmm, run.sys), None):
        rep = krylov.gmres_solve(system, pre, tol=1e-10, max_iter=1500)
        with monkeypatch.context() as m:
            m.setattr(krylov, "gmres", krylov_reference.gmres)
            ref = krylov.gmres_solve(system, pre, tol=1e-10, max_iter=1500)
        assert rep.converged and ref.converged
        assert rep.iterations == ref.iterations
        gap = np.linalg.norm(rep.solution - ref.solution)
        assert gap <= 1e-12 * np.linalg.norm(ref.solution)


def test_gmres_zero_rhs_among_many_systems_converges():
    # a zero rhs among more than 8 systems: its share of the stopping norm
    # is summed over the left-out systems, so it is exactly 0 and the
    # history stays finite and falls to tol
    rng = np.random.default_rng(0)
    K, L = 12, 10
    for _ in range(10):
        A = np.eye(L) + 0.3 * rng.normal(size=(K, L, L))
        B = rng.normal(size=(K, L))
        B[K // 2] = 0.0
        rep = krylov.gmres(_batch_op(A), B, tol=1e-12, max_iter=50)
        assert np.isfinite(rep.residual_history).all()
        assert rep.converged and rep.floored_modes == 1
        assert np.all(rep.solution[K // 2] == 0.0)


def test_gmres_solve_with_exactly_zero_modes_converges():
    # on 64 intervals between walls (n = 63) the even initial data and source
    # of half_diffusion_manufactured leave the 31 antisymmetric DST-I modes
    # exactly zero; the preconditioned solve still ends within 5 iterations
    pb, run, gmm, system = _setup(m=64, N=32, T=1.0)
    assert run.sys.n == 63
    rep = krylov.gmres_solve(system, krylov.build_preconditioner(gmm, run.sys),
                             tol=1e-10)
    assert rep.converged and rep.iterations <= 5
    assert np.isfinite(rep.residual_history).all()
    assert rep.floored_modes == 31 and rep.true_residual <= 1e-12


def _floored_batch(noise):
    """Twelve dense systems of size 10; rows 2, 5 and 9 of the rhs are set
    to ``noise`` (a scalar or rows) and the rest are random."""
    rng = np.random.default_rng(5)
    K, L = 12, 10
    A = np.eye(L) + 0.3 * rng.normal(size=(K, L, L))
    B = rng.normal(size=(K, L))
    B[[2, 5, 9]] = noise
    return A, B


def test_gmres_rhs_below_the_floor_never_enters_the_batch():
    # rows at 1e-17 ||B||, rounding noise of a transform, are solved by 0
    # without a step: the run matches one where they are exactly zero
    A, B = _floored_batch(0.0)
    noise = np.random.default_rng(6).normal(size=(3, 10))
    noise *= 1e-17 * np.linalg.norm(B) / np.linalg.norm(noise, axis=1, keepdims=True)
    calls, zero_calls = [], []
    rep = krylov.gmres(_batch_op(A, calls), _floored_batch(noise)[1], tol=1e-10,
                       max_iter=50)
    ref = krylov.gmres(_batch_op(A, zero_calls), B, tol=1e-10, max_iter=50)
    kept = [k for k in range(12) if k not in (2, 5, 9)]
    assert rep.converged and rep.floored_modes == ref.floored_modes == 3
    assert all(set(c).isdisjoint((2, 5, 9)) for c in calls)
    assert calls == zero_calls
    assert np.all(rep.solution[[2, 5, 9]] == 0.0)
    assert rep.iterations == ref.iterations
    assert np.array_equal(rep.solution[kept], ref.solution[kept])


def test_gmres_floor_bounds_the_left_out_share():
    # rows just under the floor RHS_FLOOR tol beta0 / sqrt(K) stay out and
    # together hold at most RHS_FLOOR^2 of (tol beta0)^2; rows just over it
    # enter the batch
    tol, K = 1e-10, 12
    A, B = _floored_batch(0.0)
    floor = krylov.RHS_FLOOR * tol * np.linalg.norm(B) / np.sqrt(K)
    for scale, floored in ((0.99, 3), (1.01, 0)):
        calls = []
        B[[2, 5, 9]] = scale * floor / np.sqrt(10)
        rep = krylov.gmres(_batch_op(A, calls), B, tol=tol, max_iter=50)
        assert rep.converged and rep.floored_modes == floored
        assert (2 in calls[0]) is (floored == 0)
        left_out = sum(np.linalg.norm(B[k]) ** 2 for k in (2, 5, 9) if k not in calls[0])
        assert left_out <= krylov.RHS_FLOOR ** 2 * (tol * rep.rhs_norm) ** 2


def test_gmres_solve_basis_grows_with_the_iterations_taken():
    # five lockstep iterations keep at most 8 basis vectors per mode: with
    # the preconditioner's two block tables and the step's complex spectra
    # the solve peaks at 16.1 rhs sizes, the basis freed when gmres returns,
    # before the true residual, where one GMRES over the system reserved
    # max_iter + 1 = 501 of them
    g = spatial.Grid(length=20.0, m=200, boundary=spatial.DIRICHLET)
    sys = spatial.assemble_discrete_system(g, 0.1, spatial.OperatorKind("zero"))
    gmm = build_gmm(100, 4.0)
    rhs = np.random.default_rng(12).normal(size=100 * sys.dim)
    system = dense_system(gmm, sys, rhs)
    pre = krylov.build_preconditioner(gmm, sys)
    tracemalloc.start()
    try:
        rep = krylov.gmres_solve(system, pre, tol=1e-10, max_iter=500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.converged and rep.iterations <= 5
    assert peak <= 17 * rhs.nbytes, peak / rhs.nbytes


@pytest.mark.parametrize("name,m", [("advection_manufactured", 64),
                                    ("mass_transfer_manufactured", 65),
                                    ("schrodinger_two_lorentzian", 64)])
def test_pooled_and_inline_direct_solves_are_bit_identical(monkeypatch, name, m):
    # a drift torus (rfft), real walls (DST-I) and complex walls, in 4-row
    # blocks: every pooled stage treats each time row on its own and the
    # residual adds its block norms in block order, so threads change no bit
    pb, run, gmm, system = _setup(name, m=m, N=40)
    monkeypatch.setattr(krylov, "BLOCK_BYTES", 4 * system.rhs.nbytes // 40)
    monkeypatch.setattr(krylov, "usable_cpus", lambda: 2)
    pooled = krylov.direct_solve(system)
    monkeypatch.setattr(krylov, "usable_cpus", lambda: 1)
    inline = krylov.direct_solve(system)
    assert pooled.threads == 2 and inline.threads == 1
    assert np.array_equal(pooled.solution, inline.solution)
    assert pooled.true_residual == inline.true_residual < 1e-12
    assert np.iscomplexobj(pooled.solution) == (pb.scalar_field == "complex")


@pytest.mark.parametrize("name", ["advection_manufactured", "schrodinger_two_lorentzian"])
def test_blocked_true_residual_is_the_whole_apply(monkeypatch, name):
    # blocks of 1, 3 and all 40 rows: each block's halo rows give exactly
    # b - system.apply(x), and the norm agrees with the whole vector's
    pb, run, gmm, system = _setup(name, m=32, N=40)
    b = system.rhs
    rng = np.random.default_rng(4)
    x = rng.normal(size=b.size)
    if np.iscomplexobj(b):
        x = x + 1j * rng.normal(size=b.size)
    r = b - system.apply(x)
    ref = np.linalg.norm(r) / np.linalg.norm(b)
    for rows_per_block in (1, 3, 40):
        monkeypatch.setattr(krylov, "BLOCK_BYTES", rows_per_block * b.nbytes // 40)
        with krylov._RowBlocks(40, b.nbytes // 40) as rows:
            out = np.empty_like(b)
            res = krylov._true_residual(system, x, rows, out=out)
            assert np.array_equal(out, r)
            assert res == pytest.approx(ref, rel=1e-14)
            assert krylov._true_residual(system, x, rows) == res


def test_true_residual_on_pool_threads_calls_no_blas(monkeypatch):
    # the row blocks' squared norms take no BLAS dot, which would start BLAS
    # threads inside each pool thread: 2 threads with numpy's dots failing
    # off the main thread give the whole vector's residual
    pb, run, gmm, system = _setup("schrodinger_two_lorentzian", m=32, N=40)
    main, used = threading.get_ident(), set()

    def main_thread_only(dot):
        def guarded(*args, **kwargs):
            assert threading.get_ident() == main, "a BLAS dot on a pool thread"
            return dot(*args, **kwargs)
        return guarded
    x = np.random.default_rng(8).normal(size=system.rhs.size) + 0j
    ref = np.linalg.norm(system.rhs - system.apply(x)) / np.linalg.norm(system.rhs)
    monkeypatch.setattr(np, "vdot", main_thread_only(np.vdot))
    monkeypatch.setattr(np, "dot", main_thread_only(np.dot))
    monkeypatch.setattr(krylov, "BLOCK_BYTES", 3 * system.rhs.nbytes // 40)
    monkeypatch.setattr(krylov, "usable_cpus", lambda: 2)
    apply = AllAtOnceSystem.apply
    monkeypatch.setattr(AllAtOnceSystem, "apply", lambda self, x, r: used.add(
        threading.get_ident()) or apply(self, x, r))
    with krylov._RowBlocks(40, system.rhs.nbytes // 40) as rows:
        assert rows.threads == 2
        res = krylov._true_residual(system, x, rows)
    assert main not in used
    assert res == pytest.approx(ref, rel=1e-14)


@pytest.mark.parametrize("name,h,N,T,bare", [
    ("mass_transfer_manufactured", 0.125, 32, 2.0, True),
    ("half_diffusion_manufactured", 0.05, 160, 4.0, False)])
def test_benchmark_sized_systems_run_inline(monkeypatch, name, h, N, T, bare):
    # converge_sweep's finest point (with its unpreconditioned solve) and
    # walls_gmres fit in one row block, so even on two CPUs no solve starts
    # a pool
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a one-block solve submitted to a pool")
    monkeypatch.setattr(krylov, "ThreadPoolExecutor", NoPool)
    monkeypatch.setattr(krylov, "usable_cpus", lambda: 2)
    pb = hb.build_problem(name, eps=0.1)
    run = hb.setup_run(pb, h=h)
    gmm = build_gmm(N, T)
    system = hb.assemble_all_at_once(gmm, run.sys, run.source, run.u0v0)
    pre = krylov.build_preconditioner(gmm, run.sys)
    reports = [krylov.direct_solve(system), krylov.gmres_solve(system, pre)]
    if bare:
        reports.append(krylov.gmres_solve(system, None, max_iter=1500))
    for rep in reports:
        assert rep.converged and rep.threads == 1


def test_preconditioned_residual_check_applies_the_preconditioner_once(monkeypatch):
    # ||P^{-1} b|| is the lockstep loop's rhs_norm: the orthonormal mode
    # transforms keep it, so only P^{-1} r is formed in physical space, with
    # the block tables the solve built once
    pb, run, gmm, system = _setup(m=25, N=16, T=1.0)
    pre = krylov.build_preconditioner(gmm, run.sys)
    calls, built = [], []
    apply, tables = krylov.apply_preconditioner, krylov._block_tables
    monkeypatch.setattr(krylov, "apply_preconditioner",
                        lambda p, r, **kw: calls.append(r) or apply(p, r, **kw))
    monkeypatch.setattr(krylov, "_block_tables",
                        lambda *args: built.append(args) or tables(*args))
    rep = krylov.gmres_solve(system, pre, tol=1e-10)
    assert rep.converged and len(calls) == 1 and len(built) == 1
    assert rep.rhs_norm == pytest.approx(
        np.linalg.norm(krylov.apply_preconditioner(pre, system.rhs)), rel=1e-12)
    assert rep.preconditioned_residual == pytest.approx(
        _physical_stopping_norm(system, pre, rep.solution), rel=1e-9)


def test_modes_leaving_the_batch_keep_their_preconditioner_tables(monkeypatch):
    # rows of constants and of (-1)^j on an 8-point torus: only the rfft
    # modes 0 and 4 are above rounding noise, so modes 1-3 never enter the
    # batch and the preconditioned step's tables are cut to rows 0 and 4
    g = spatial.Grid(length=4.0, m=8, boundary=spatial.PERIODIC)
    sys = spatial.assemble_discrete_system(g, 0.3, spatial.OperatorKind("advection", 0.2))
    gmm = build_gmm(12, 2.0)
    rng = np.random.default_rng(2)
    const, alternating = rng.normal(size=(2, 12, 2, 1))
    rows = const + alternating * (-1.0) ** np.arange(8)
    system = dense_system(gmm, sys, rows.ravel())
    batches = []
    step = krylov._preconditioned_step
    monkeypatch.setattr(krylov, "_preconditioned_step", lambda p, tables, X: (
        batches.append((len(X), *map(len, tables))) or step(p, tables, X)))
    rep = krylov.gmres_solve(system, krylov.build_preconditioner(gmm, sys), tol=1e-12)
    direct = krylov.direct_solve(system)
    assert rep.converged and rep.modes == 5 and (2, 2, 2) in batches
    assert all(len(set(sizes)) == 1 for sizes in batches)
    gap = np.linalg.norm(rep.solution - direct.solution)
    assert gap <= 1e-10 * np.linalg.norm(direct.solution)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(hb.catalog())), m=st.integers(4, 12),
       N=st.integers(2, 12))
def test_factored_rhs_solves_as_its_dense_twin_property(name, m, N):
    # the solvers transform the r vectors of the factored rhs (r rows when r
    # >= N); the dense twin (I_N, b's rows) has its N rows transformed: the
    # same solutions to rounding, in the same iterations
    pb, run, gmm, system = _setup(name, m=m, N=N, T=1.0)
    twin = dense_system(gmm, run.sys, system.rhs)
    try:
        pre = krylov.build_preconditioner(gmm, run.sys)
    except krylov.PreconditionerError:
        pre = None
    solves = [krylov.direct_solve,
              lambda s: krylov.gmres_solve(s, None, tol=1e-12, max_iter=2 * N)]
    if pre is not None:
        solves.append(lambda s: krylov.gmres_solve(s, pre, tol=1e-12, max_iter=50))
    for solve in solves:
        a, b = solve(system), solve(twin)
        assert a.iterations == b.iterations and a.floored_modes == b.floored_modes
        assert a.converged and b.converged
        gap = np.linalg.norm(a.solution - b.solution)
        assert gap <= 1e-12 * np.linalg.norm(b.solution)


@pytest.mark.parametrize("name,m,N", [("advection_gaussian_quartic", 40, 24),
                                      ("half_diffusion_manufactured", 39, 24)])
def test_solvers_never_form_the_rhs(monkeypatch, name, m, N):
    # a drift torus (rfft, fitted source) and walls (DST-I): every solver
    # reads the rhs factors, never the N x 2n rhs
    pb, run, gmm, system = _setup(name, m=m, N=N, T=2.0)
    expected = system.rhs

    def formed(self):
        raise AssertionError("a solver formed the rhs")
    monkeypatch.setattr(AllAtOnceSystem, "rhs", property(formed))
    pre = krylov.build_preconditioner(gmm, run.sys)
    reports = [krylov.direct_solve(system), krylov.gmres_solve(system, pre),
               krylov.gmres_solve(system, None, max_iter=2 * N)]
    for rep in reports:
        res = np.linalg.norm(expected - system.apply(rep.solution))
        assert rep.converged and res <= 1e-8 * np.linalg.norm(expected)


def test_row_blocks_threads_are_capped_and_keep_block_order(monkeypatch):
    # eight CPUs still give MAX_THREADS threads, a limit of one runs inline
    # without a pool, and either way the results come back in block order
    monkeypatch.setattr(krylov, "BLOCK_BYTES", 1)
    monkeypatch.setattr(krylov, "usable_cpus", lambda: 8)
    for limit, threads in ((None, krylov.MAX_THREADS), (1, 1)):
        with krylov._RowBlocks(200, 1, limit) as rows:
            assert rows.threads == threads and len(rows.blocks) == 200
            assert (rows._pool is None) == (threads == 1)
            assert rows.map(lambda r: 2 * r.start) == list(range(0, 400, 2))
