import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_multiset_close, dense_D, derivative_matrix, laplacian_matrix
from stability_reference import N_POLYNOMIAL, S_POLYNOMIAL, classify_stability

from halfbvm import spatial, spectrum


def _sys(model="zero", m=24, eps=0.1, delta=0.0, L=20.0):
    boundary = spatial.PERIODIC if model == "advection" else spatial.DIRICHLET
    g = spatial.Grid(length=L, m=m, boundary=boundary)
    return spatial.assemble_discrete_system(g, eps, spatial.OperatorKind(model, delta))


def test_gmm_consistency_and_locus():
    mp = spectrum.gmm_polynomials()
    loc = spectrum.boundary_locus(mp, 720)
    assert np.abs(loc.real).max() < 1e-14
    assert np.abs(loc.imag).max() <= 1.0 + 1e-14
    # q(theta=0) = 0 for any consistent method
    assert abs(spectrum.boundary_locus(mp, 8)[0]) < 1e-14


def test_explicit_euler_locus_is_shifted_circle():
    mp = spectrum.lmm_catalog()["explicit_euler"]
    loc = spectrum.boundary_locus(mp, 360)
    assert np.abs(np.abs(loc + 1.0) - 1.0).max() < 1e-14


def test_locus_symmetry_for_real_methods():
    # q(e^{-i theta}) = conj(q(e^{i theta})) for real coefficients
    for name, mp in spectrum.lmm_catalog().items():
        loc = spectrum.boundary_locus(mp, 360)
        if len(loc) < 360:
            continue   # pole-skipped sampling breaks the index pairing
        mirrored = np.conj(loc[(-np.arange(360)) % 360])
        assert np.abs(loc - mirrored).max() < 1e-12, name


def test_inconsistent_method_rejected():
    with pytest.raises(ValueError, match="inconsistent"):
        spectrum.MethodPolynomials((1.0, 1.0), (1.0, 0.0), 1, 0)   # rho(1) = 2
    with pytest.raises(ValueError, match="inconsistent"):
        spectrum.MethodPolynomials((-1.0, 1.0), (0.5, 0.0), 1, 0)  # rho'(1) != sigma(1)


def test_classification_reference_cases():
    mp = spectrum.gmm_polynomials()
    assert classify_stability(mp, 1.0) == S_POLYNOMIAL
    roots = np.roots([0.5, -1.0, -0.5])   # pi(z, 1)/1: (z^2 - 1)/2 - z
    assert np.allclose(np.sort(np.abs(roots)), np.sort(np.abs([1 - np.sqrt(2), 1 + np.sqrt(2)])))
    assert classify_stability(mp, 0.5j) == N_POLYNOMIAL
    assert classify_stability(mp, 0.0) == N_POLYNOMIAL
    assert classify_stability(mp, 2.0j) == S_POLYNOMIAL
    with pytest.raises(ValueError):
        classify_stability(mp, complex(np.nan, 0.0))


@settings(max_examples=60, deadline=None)
@given(st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False))
def test_gmm_root_product_invariant(q):
    roots = np.roots([1.0, -2.0 * q, -1.0])
    assert abs(roots[0] * roots[1] + 1.0) < 1e-9


def test_eigenvalues_pure_diffusion_pm_pairs():
    sys = _sys("zero", m=32, eps=1.0)
    lam = spectrum.eigenvalues_of_D(sys)
    lam_p = np.linalg.eigvalsh(dense_D(sys)[sys.n:, : sys.n])
    expected = np.concatenate([np.sqrt(lam_p), -np.sqrt(lam_p)])
    assert np.abs(np.sort(lam.real) - np.sort(expected)).max() < 1e-10
    assert np.abs(lam.imag).max() < 1e-12
    # spectrum symmetric under negation
    assert np.abs(np.sort(lam.real) + np.sort(lam.real)[::-1]).max() < 1e-10


def test_eigenvalues_match_dense_solver():
    for model, delta in (("zero", 0.0), ("scalar", 0.05), ("advection", 0.2)):
        sys = _sys(model, m=16, eps=0.1, delta=delta)
        lam = spectrum.eigenvalues_of_D(sys)
        dense = np.linalg.eigvals(dense_D(sys))
        assert_multiset_close(lam, dense, 1e-9)


def test_eigenvalues_drift_formula():
    # lam = lam_L +- eps*sqrt(lam_{-Laplacian}) for the periodic drift pair
    sys = _sys("advection", m=16, eps=0.01, delta=0.2)
    K = laplacian_matrix(sys.grid)
    Dh = derivative_matrix(sys.grid)
    k_hat = np.fft.fft(K.toarray()[:, 0])
    d_hat = np.fft.fft(Dh.toarray()[:, 0])
    expected = np.concatenate([0.2 * d_hat + 0.01 * np.sqrt(k_hat),
                               0.2 * d_hat - 0.01 * np.sqrt(k_hat)])
    assert_multiset_close(spectrum.eigenvalues_of_D(sys), expected, 1e-10)


def test_verdict_half_diffusion_always_stable():
    sys = _sys("zero", m=24, eps=0.1)
    for tau in (0.01, 1.0, 100.0):
        assert spectrum.gmm_stability_verdict(sys, tau) == {
            "stable": True, "offending_modes": 0, "all_marginal": True}
    with pytest.raises(ValueError):
        spectrum.gmm_stability_verdict(sys, 0.0)


def test_verdict_flags_marginal_constant_mode():
    sys = _sys("advection", m=16, eps=0.01, delta=0.2)
    v = spectrum.gmm_stability_verdict(sys, 0.0312)
    assert not v["stable"]                    # conservative: q = 0 is on the segment
    assert v["all_marginal"]                  # but only the constant mode is flagged,
    assert v["offending_modes"] == 2          # its two eigenvalues (a Jordan block)


def test_verdict_schrodinger_modes_on_segment():
    # purely imaginary pairs: small tau puts modes on [-i, i], reported as offending
    sys = _sys("zero", m=16, eps=0.25j)
    v = spectrum.gmm_stability_verdict(sys, 0.05)
    assert not v["stable"] and not v["all_marginal"]
    assert v["offending_modes"] > 2


def test_segment_distance_geometry():
    q = np.array([0.5, 1j, 1.25j, 0.3 + 2j])
    d = spectrum.segment_distance(q)
    assert np.allclose(d, [0.5, 0.0, 0.25, np.hypot(0.3, 1.0)])


def test_rk_boundary_points_reference_values():
    rk2 = spectrum.rk_boundary_points("rk2", 90)
    assert np.abs(rk2 - (-2.0)).min() < 1e-8       # R(-2) = 1 for the 2nd-order poly
    radau = spectrum.rk_boundary_points("radau_iia", 90)
    assert np.abs(radau - 6.0).min() < 1e-8        # |R(6)| = 1 on the real axis
    with pytest.raises(KeyError):
        spectrum.rk_boundary_points("rk7")


def test_degenerate_sigma_rejected():
    with pytest.raises(spectrum.DegenerateMethodError):
        mp = spectrum.MethodPolynomials.__new__(spectrum.MethodPolynomials)
        object.__setattr__(mp, "rho", (-1.0, 1.0))
        object.__setattr__(mp, "sigma", (0.0, 0.0))
        object.__setattr__(mp, "k1", 1)
        object.__setattr__(mp, "k2", 0)
        spectrum.boundary_locus(mp, 16)
