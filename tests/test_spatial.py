import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from conftest import assert_multiset_close, dense_D, derivative_matrix, laplacian_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from halfbvm import spatial, spectrum


def test_grid_invariants():
    g = spatial.Grid(length=4.0, m=8, boundary=spatial.DIRICHLET)
    assert g.h * g.m == pytest.approx(g.length)
    assert g.n == 7
    assert g.nodes[0] == pytest.approx(g.h)
    assert g.nodes[-1] == pytest.approx(g.length - g.h)
    p = spatial.Grid(length=4.0, m=8, boundary=spatial.PERIODIC)
    assert p.n == 8
    assert p.nodes[0] == 0.0
    assert p.nodes[-1] == pytest.approx(g.length - g.h)


def test_grid_validation():
    with pytest.raises(spatial.GridTooSmallError):
        spatial.Grid(length=1.0, m=2)
    with pytest.raises(spatial.ConfigurationError):
        spatial.Grid(length=1.0, m=4, boundary="robin")
    with pytest.raises(spatial.ConfigurationError):
        spatial.Grid(length=-1.0, m=4)


def test_dirichlet_laplacian_stencil():
    g = spatial.Grid(length=4.0, m=4, boundary=spatial.DIRICHLET)  # h = 1
    K = laplacian_matrix(g).toarray()
    assert np.allclose(K, [[2, -1, 0], [-1, 2, -1], [0, -1, 2]])


def test_periodic_laplacian_stencil():
    g = spatial.Grid(length=3.0, m=3, boundary=spatial.PERIODIC)
    K = laplacian_matrix(g).toarray()
    assert np.allclose(K, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    assert np.allclose(K.sum(axis=1), 0.0)


def test_periodic_derivative_stencil():
    g = spatial.Grid(length=3.0, m=3, boundary=spatial.PERIODIC)
    Dh = derivative_matrix(g).toarray()
    assert np.allclose(Dh, [[0, 0.5, -0.5], [-0.5, 0, 0.5], [0.5, -0.5, 0]])
    assert np.allclose(Dh @ np.ones(3), 0.0)


def test_derivative_accuracy_on_sine():
    L, m = 10.0, 64
    g = spatial.Grid(length=L, m=m, boundary=spatial.PERIODIC)
    Dh = derivative_matrix(g)
    x = g.nodes
    k = 2 * np.pi / L
    err1 = np.abs(Dh @ np.sin(k * x) - k * np.cos(k * x)).max()
    g2 = spatial.Grid(length=L, m=2 * m, boundary=spatial.PERIODIC)
    x2 = g2.nodes
    err2 = np.abs(derivative_matrix(g2) @ np.sin(k * x2)
                  - k * np.cos(k * x2)).max()
    assert err1 / err2 == pytest.approx(4.0, rel=0.1)


def test_dirichlet_laplacian_eigenvalues():
    L, m = 5.0, 40
    g = spatial.Grid(length=L, m=m)
    K = laplacian_matrix(g).toarray()
    assert np.allclose(K, K.T)
    lam = np.sort(sla.eigvalsh(K))
    i = np.arange(1, m)
    expected = np.sort((4.0 / g.h ** 2) * np.sin(i * np.pi / (2 * m)) ** 2)
    assert np.abs(lam - expected).max() < 1e-10
    assert lam.min() > 0


def test_circulant_matrices_diagonalized_by_fft():
    m = 16
    g = spatial.Grid(length=7.0, m=m, boundary=spatial.PERIODIC)
    F = np.exp(2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m)
    for M in (laplacian_matrix(g), derivative_matrix(g)):
        Md = M.toarray()
        lam_fft = np.fft.fft(Md[:, 0])
        resid = Md @ F - F * lam_fft[None, :]
        assert np.abs(resid).max() < 1e-10


def test_derivative_skew_symmetric():
    for boundary in (spatial.DIRICHLET, spatial.PERIODIC):
        g = spatial.Grid(length=3.0, m=12, boundary=boundary)
        Dh = derivative_matrix(g).toarray()
        assert np.abs(Dh + Dh.T).max() == 0.0
        assert np.abs(np.linalg.eigvals(Dh).real).max() < 1e-12


def test_assemble_zero_operator_matches_laplacian():
    g = spatial.Grid(length=4.0, m=4)
    sys = spatial.assemble_discrete_system(g, 1.0, spatial.OperatorKind("zero"))
    D = dense_D(sys)
    assert np.allclose(D[3:, :3], [[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    assert np.abs(D[3:, 3:]).max() == 0.0
    assert np.allclose(D[:3, 3:], np.eye(3))
    assert np.abs(D[:3, :3]).max() == 0.0


def test_scalar_delta_zero_is_zero_operator():
    g = spatial.Grid(length=4.0, m=8)
    a = spatial.assemble_discrete_system(g, 0.5, spatial.OperatorKind("zero"))
    b = spatial.assemble_discrete_system(g, 0.5, spatial.OperatorKind("scalar", 0.0))
    assert a.p_stencil == b.p_stencil
    assert a.q_stencil == b.q_stencil
    assert np.array_equal(dense_D(a), dense_D(b))


def test_advection_matrices_commute():
    g = spatial.Grid(length=8.0, m=8, boundary=spatial.PERIODIC)
    sys = spatial.assemble_discrete_system(g, 0.01,
                                           spatial.OperatorKind("advection", 0.2))
    D, n = dense_D(sys), sys.n
    # sparse products sum only the stencil terms; BLAS rounds the zeros apart
    P, Q = sp.csr_matrix(D[n:, :n]), sp.csr_matrix(D[n:, n:])
    comm = (P @ Q - Q @ P).toarray()
    assert np.abs(comm).max() == 0.0


def test_boundary_operator_pairing_enforced():
    gd = spatial.Grid(length=4.0, m=8)
    gp = spatial.Grid(length=4.0, m=8, boundary=spatial.PERIODIC)
    with pytest.raises(spatial.ConfigurationError):
        spatial.assemble_discrete_system(gd, 0.1, spatial.OperatorKind("advection", 0.2))
    with pytest.raises(spatial.ConfigurationError):
        spatial.assemble_discrete_system(gp, 0.1, spatial.OperatorKind("zero"))
    with pytest.raises(spatial.ConfigurationError):
        spatial.assemble_discrete_system(gd, 1.0 + 1.0j, spatial.OperatorKind("zero"))
    # the checks run on every construction, not only in the factory
    with pytest.raises(spatial.ConfigurationError):
        spatial.DiscreteSystem(grid=gd, epsilon=0.1,
                               op=spatial.OperatorKind("advection", 0.2))


def test_apply_D_matches_dense():
    g = spatial.Grid(length=4.0, m=10, boundary=spatial.PERIODIC)
    sys = spatial.assemble_discrete_system(g, 0.3,
                                           spatial.OperatorKind("advection", 0.7))
    rng = np.random.default_rng(0)
    x = rng.normal(size=sys.dim)
    assert np.allclose(sys.apply_D(x), dense_D(sys) @ x)
    X = rng.normal(size=(5, sys.dim))
    assert np.allclose(sys.apply_D(X), X @ dense_D(sys).T)


@pytest.mark.parametrize("m", [3, 11])
@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("eps", [0.0, 0.3, 0.25j])
@pytest.mark.parametrize("delta", [0.7, 1e-101])
def test_dense_D_matches_reference_matrices(m, periodic, eps, delta):
    # P = eps^2 K - Lop_h^2 and Q = 2 Lop_h, Lop_h = delta Dh on a torus and
    # delta I between walls, from the sparse reference matrices; a tiny
    # delta keeps the torus Q antisymmetric
    boundary, model = ((spatial.PERIODIC, "advection") if periodic
                       else (spatial.DIRICHLET, "scalar"))
    g = spatial.Grid(length=5.0, m=m, boundary=boundary)
    sys = spatial.assemble_discrete_system(g, eps, spatial.OperatorKind(model, delta))
    n = sys.n
    lop = delta * (derivative_matrix(g).toarray() if periodic else np.eye(n))
    eps_k = (eps ** 2).real * laplacian_matrix(g).toarray()
    D = dense_D(sys)
    scale = np.abs(eps_k).max() + np.abs(lop @ lop).max()
    assert np.abs(D[n:, :n] - (eps_k - lop @ lop)).max() <= 1e-15 * scale
    assert np.abs(D[n:, n:] - 2.0 * lop).max() <= 1e-15 * np.abs(lop).max()
    assert np.array_equal(D[:n], np.hstack([np.zeros((n, n)), np.eye(n)]))


def test_imaginary_epsilon_keeps_real_matrices():
    g = spatial.Grid(length=4.0, m=8)
    sys = spatial.assemble_discrete_system(g, 0.25j, spatial.OperatorKind("zero"))
    P = dense_D(sys)[sys.n:, : sys.n]
    assert np.isrealobj(P)
    # eps^2 < 0 flips the sign: P approximates +gamma^2 * Laplacian
    assert sla.eigvalsh(P).max() < 0


def test_symbols_match_dense_eigenvalues():
    for boundary, model in ((spatial.PERIODIC, "advection"),
                            (spatial.DIRICHLET, "scalar")):
        g = spatial.Grid(length=4.0, m=12, boundary=boundary)
        sys = spatial.assemble_discrete_system(g, 0.05,
                                               spatial.OperatorKind(model, 0.4))
        n, modes = sys.n, sys.modes()
        # row k of inverse(I) is the k-th basis vector: an eigenvector of
        # P and Q with the paired symbol values
        B = modes.inverse(np.eye(n)).T
        D = dense_D(sys)
        for M, lam in ((D[n:, :n], modes.p), (D[n:, n:], modes.q)):
            assert np.abs(M @ B - B * lam[None, :]).max() < 1e-10
        X = np.random.default_rng(0).normal(size=(3, n)) * (1 + 1j)
        assert np.abs(modes.inverse(modes.forward(X)) - X).max() < 1e-13


@settings(max_examples=25)
@given(m=st.integers(3, 10), periodic=st.booleans(), imaginary=st.booleans(),
       data=st.data())
def test_closed_form_symbols_diagonalise_materialised_operators(m, periodic,
                                                               imaginary, data):
    # odd and even n, every operator a boundary accepts, real or imaginary
    # eps: the closed-form symbols are the eigenvalues of the assembled P and
    # Q on the transform's basis, and they give the spectrum of D
    if periodic:
        boundary, model = spatial.PERIODIC, "advection"
    else:
        boundary = spatial.DIRICHLET
        model = data.draw(st.sampled_from(["zero", "scalar"]))
    eps = data.draw(st.floats(0.05, 1.0)) * (1j if imaginary else 1.0)
    delta = data.draw(st.floats(-1.0, 1.0))
    g = spatial.Grid(length=data.draw(st.floats(1.0, 10.0)), m=m, boundary=boundary)
    sys = spatial.assemble_discrete_system(g, eps, spatial.OperatorKind(model, delta))
    modes = sys.modes()
    B = modes.inverse(np.eye(sys.n)).T
    D = dense_D(sys)
    P, Q = D[sys.n:, : sys.n], D[sys.n:, sys.n:]
    # P = eps^2 (-Lap_h) - Lop_h^2 can cancel: its two terms set the round-off
    eps_k = (eps ** 2).real * laplacian_matrix(g).toarray()
    for M, lam, size in ((P, modes.p, np.abs(eps_k) + np.abs(eps_k - P)),
                         (Q, modes.q, np.abs(Q))):
        scale = size.sum(axis=1).max() * np.abs(B).max()
        assert np.abs(M @ B - B * lam[None, :]).max() <= 1e-13 * max(scale, 1e-300)
    # the constant mode of a torus is a Jordan block of D: eigvals resolves it
    # only to sqrt(machine epsilon)
    assert_multiset_close(spectrum.eigenvalues_of_D(sys), np.linalg.eigvals(D),
                          1e-6 * max(1.0, np.abs(D).max()))


@settings(max_examples=40)
@given(m=st.integers(3, 12), periodic=st.booleans(), real=st.booleans(),
       data=st.data())
def test_modes_invert_keep_the_norm_and_diagonalise_each_mode(m, periodic, real,
                                                              data):
    # walls and torus, odd and even n, real and complex data: the transforms
    # invert each other, the weight makes the coefficients' norm the
    # physical one (pinning the constant and Nyquist weights), and mu holds
    # the eigenvalues of each 2x2 D_k
    if periodic:
        boundary, model = spatial.PERIODIC, "advection"
    else:
        boundary = spatial.DIRICHLET
        model = data.draw(st.sampled_from(["zero", "scalar"]))
    eps = data.draw(st.floats(0.05, 1.0)) * (1j if data.draw(st.booleans()) else 1.0)
    g = spatial.Grid(length=data.draw(st.floats(1.0, 10.0)), m=m, boundary=boundary)
    sys = spatial.assemble_discrete_system(
        g, eps, spatial.OperatorKind(model, data.draw(st.floats(-1.0, 1.0))))
    modes = sys.modes(real)
    assert modes.half == (real and periodic)
    rng = np.random.default_rng(m)
    x = rng.normal(size=(3, sys.n))
    if not real:
        x = x + 1j * rng.normal(size=x.shape)
    y = modes.forward(x)
    assert y.shape == (3, modes.weight.size) == (3, modes.mu.shape[1])
    assert np.abs(modes.inverse(y) - x).max() < 1e-13
    assert np.allclose(np.linalg.norm(modes.weight * y, axis=-1),
                       np.linalg.norm(x, axis=-1), rtol=1e-13, atol=0.0)
    for p, q, mu in zip(modes.p, modes.q, modes.mu.T):
        assert_multiset_close(mu, np.linalg.eigvals([[0.0, 1.0], [p, q]]),
                              1e-12 * (1.0 + abs(p) + abs(q)))
    assert np.array_equal(spectrum.eigenvalues_of_D(sys), sys.modes().mu.ravel())


def test_operator_rejects_complex_delta():
    for delta in (0.2j, 0.1 + 0.2j, np.complex128(0.3j)):
        with pytest.raises(spatial.ConfigurationError, match="real"):
            spatial.OperatorKind("scalar", delta)
    with pytest.raises(spatial.ConfigurationError):
        spatial.OperatorKind("advection", np.nan)
