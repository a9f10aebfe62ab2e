import numpy as np
import pytest
from hilbert_reference import (function_tail, hilbert_exact_twice,
                               hilbert_quadrature_oracle, hilbert_tail)
from hypothesis import given, settings
from hypothesis import strategies as st

from halfbvm import hilbert as ht
from halfbvm.doubling import LineProfile

XS = np.linspace(-10.0, 10.0, 401)

DECAYING = [
    ht.CatalogFunction("lorentzian"),
    ht.CatalogFunction("quartic"),
    ht.CatalogFunction("squared_lorentzian"),
    ht.CatalogFunction("gaussian", alpha=1.0),
    ht.CatalogFunction("gaussian", alpha=2.5),
    ht.CatalogFunction("odd_lorentzian", alpha=1.0),
    ht.CatalogFunction("odd_lorentzian", alpha=2.0),
]


def test_catalog_reference_values():
    assert ht.CatalogFunction("lorentzian").hilbert(1.0) == pytest.approx(0.5)
    assert ht.CatalogFunction("sine", alpha=1.0).hilbert(0.0) == pytest.approx(-1.0)
    assert ht.CatalogFunction("squared_lorentzian").hilbert(0.0) == 0.0


@pytest.mark.parametrize("f", DECAYING, ids=lambda f: f"{f.kind}-a{f.alpha}")
def test_catalog_matches_quadrature_oracle(f):
    for x in (-2.3, 0.7, 3.1):
        ref = hilbert_quadrature_oracle(f, x, R=1e3, n_quad=200_000)
        assert abs(f.hilbert(x) - ref) < 2e-3


@pytest.mark.parametrize("kind,alpha", [("cosine", 1.0), ("sine", 0.8)])
def test_oscillatory_catalog_matches_quadrature(kind, alpha):
    f = ht.CatalogFunction(kind, alpha=alpha)
    for x in (-1.1, 0.4):
        ref = hilbert_quadrature_oracle(f, x, R=2e3, n_quad=400_000)
        assert abs(f.hilbert(x) - ref) < 5e-3


def test_quadrature_oracle_reference_values():
    assert hilbert_quadrature_oracle(lambda x: np.zeros_like(x), 0.3) == 0.0
    lor = ht.CatalogFunction("lorentzian")
    assert abs(hilbert_quadrature_oracle(lor, 1.0, R=1e3, n_quad=100_000) - 0.5) < 1e-3
    odd = ht.CatalogFunction("odd_lorentzian", alpha=1.0)
    assert abs(hilbert_quadrature_oracle(odd, 0.0, R=1e3, n_quad=100_000) + 1.0) < 1e-3


def test_catalog_parameter_validation():
    with pytest.raises(ht.UnsupportedFunctionError):
        ht.CatalogFunction("gaussian", alpha=-1.0)
    with pytest.raises(ht.UnsupportedFunctionError):
        ht.CatalogFunction("nope")
    with pytest.raises(ht.UnsupportedFunctionError):
        ht.CatalogFunction("lorentzian", shift=np.inf)


def test_weideman_zero_function():
    e = ht.weideman_fit(lambda x: np.zeros_like(x), 16)
    assert np.all(e.coefficients == 0)
    assert ht.weideman_eval(e, 0.7) == 0.0


def test_weideman_lorentzian_reference_points():
    lor = ht.CatalogFunction("lorentzian")
    e = ht.weideman_fit(lor, 64)
    assert abs(ht.weideman_eval(e, 1.0) - 0.5) < 1e-8
    assert abs(ht.weideman_eval(e, 0.0)) < 1e-8


def test_weideman_gaussian_vs_quadrature_oracle():
    g = ht.CatalogFunction("gaussian", alpha=1.0)
    e = ht.weideman_fit(g, 128)
    xs = np.linspace(-5.0, 5.0, 41)
    ref = np.array([hilbert_quadrature_oracle(g, x, R=30.0, n_quad=200_000)
                    for x in xs])
    assert np.abs(ht.weideman_eval(e, xs) - ref).max() < 1e-6


def test_weideman_rejects_bad_input():
    with np.errstate(divide="ignore"):
        with pytest.raises(ht.InvalidSampleError, match="j=0"):
            ht.weideman_fit(lambda x: 1.0 / x, 8)
    with pytest.raises(ValueError):
        ht.weideman_fit(lambda x: x, 3)
    e = ht.weideman_fit(ht.CatalogFunction("lorentzian"), 8)
    with pytest.raises(ValueError):
        ht.weideman_eval(e, np.inf)


def test_weideman_realness_for_real_input():
    f = ht.CatalogFunction("squared_lorentzian", shift=0.8, scale=1.7)
    vals = ht.weideman_eval(ht.weideman_fit(f, 64), XS)
    assert np.abs(vals.imag).max() < 1e-13


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_weideman_fit_is_linear(a, b):
    f = ht.CatalogFunction("lorentzian")
    g = ht.CatalogFunction("gaussian", alpha=2.0)
    combo = ht.weideman_fit(lambda x: a * f(x) + b * g(x), 32)
    ef = ht.weideman_fit(f, 32)
    eg = ht.weideman_fit(g, 32)
    lin = a * ef.coefficients + b * eg.coefficients
    scale = max(np.abs(lin).max(), 1.0)
    assert np.abs(combo.coefficients - lin).max() < 1e-13 * scale


def test_weideman_modulated_cosine_near_origin():
    # slowly decaying envelope: transform of cos(x) e^{-x^2/100} tracks sin(x)
    # near the origin, and the quadrature oracle everywhere it is checked
    f = lambda x: np.cos(x) * np.exp(-x ** 2 / 100.0)
    e = ht.weideman_fit(f, 256)
    xs = np.linspace(-1.5, 1.5, 7)
    vals = ht.weideman_eval(e, xs).real
    assert np.abs(vals - np.sin(xs)).max() < 3e-2
    for x in (-0.8, 0.4):
        ref = hilbert_quadrature_oracle(f, x, R=150.0, n_quad=400_000)
        assert abs(complex(ht.weideman_eval(e, x)).real - ref) < 2e-4


def test_weideman_commutes_with_differentiation():
    sq = ht.CatalogFunction("squared_lorentzian")
    e = ht.weideman_fit(sq, 128)
    e_d = ht.weideman_fit(sq.derivative, 128)
    xs = np.linspace(-4.0, 4.0, 17)
    h = 1e-5
    fd = (ht.weideman_eval(e, xs + h) - ht.weideman_eval(e, xs - h)) / (2 * h)
    assert np.abs(fd - ht.weideman_eval(e_d, xs)).max() < 1e-6


def test_expansion_is_immutable():
    e = ht.weideman_fit(ht.CatalogFunction("lorentzian"), 8)
    with pytest.raises(ValueError):
        e.coefficients[0] = 1.0


@pytest.mark.parametrize("f", [
    ht.CatalogFunction("lorentzian"),
    ht.CatalogFunction("sine", alpha=0.9),
    ht.CatalogFunction("cosine", alpha=1.4),
    ht.CatalogFunction("odd_lorentzian", alpha=1.7),
], ids=lambda f: f.kind)
def test_skew_involution_closed_chains(f):
    assert np.abs(hilbert_exact_twice(f, XS) + f(XS)).max() < 1e-12


@pytest.mark.parametrize("f", [
    ht.CatalogFunction("quartic"),
    ht.CatalogFunction("squared_lorentzian"),
    ht.CatalogFunction("gaussian", alpha=1.0),
], ids=lambda f: f.kind)
def test_skew_involution_via_reexpanded_image(f):
    with pytest.raises(ht.UnsupportedFunctionError):
        hilbert_exact_twice(f, 0.0)
    e = ht.weideman_fit(f.hilbert, 256, tail=hilbert_tail(f))
    h2 = ht.weideman_eval(e, XS).real
    assert np.abs(h2 + f(XS)).max() < 1e-6


def test_half_laplacian_sine_eigenfunction():
    s = ht.CatalogFunction("sine", alpha=1.0)
    xs = np.linspace(-3, 3, 7)
    assert np.abs(s.hilbert_derivative(xs) - np.sin(xs)).max() < 1e-12


def test_half_laplacian_of_constant_is_zero():
    const = LineProfile(value=lambda x: 3.0 * np.ones_like(x), dx=np.zeros_like)
    assert abs(const.hilbert_dx_evaluator()(0.4)) < 1e-12


def test_half_laplacian_squared_lorentzian_at_zero():
    sq = ht.CatalogFunction("squared_lorentzian")
    # H[sq'](0) = 3/2 from the closed form of (H sq)'
    assert sq.hilbert_derivative(0.0) == pytest.approx(1.5)
    quad = hilbert_quadrature_oracle(sq.derivative, 0.0, R=1e3, n_quad=200_000)
    assert abs(quad - 1.5) < 1e-3


def test_half_laplacian_unsupported_exact():
    # no closed form and no derivative to fit
    bare = LineProfile(value=lambda x: np.exp(-x ** 2))
    with pytest.raises(ht.UnsupportedFunctionError):
        bare.hilbert_dx_evaluator()


def test_double_application_equals_minus_laplacian():
    # (-Delta)^{1/2} applied twice to sin(kx) gives k^2 sin(kx)
    k = 0.8
    xs = np.linspace(-6, 6, 25)
    once = ht.CatalogFunction("sine", alpha=k, scale=k)   # k sin(kx) = H[(sin kx)']
    twice = once.hilbert_derivative(xs)
    assert np.abs(twice - k ** 2 * np.sin(k * xs)).max() < 1e-6
    # same chain for a gaussian, finishing with the spectral route
    g = ht.CatalogFunction("gaussian", alpha=1.0)
    inner = g.hilbert_derivative
    h = 1e-5
    inner_d = lambda x: (inner(x + h) - inner(x - h)) / (2 * h)
    outer = ht.weideman_eval(ht.weideman_fit(inner_d, 256, tail=None), xs).real
    lap = -(4.0 * xs ** 2 - 2.0) * np.exp(-xs ** 2)
    assert np.abs(outer - lap).max() < 1e-5


def _weideman_eval_dense(e, x):
    """The series as one len(x) x 2N matrix of exp(i n phi) times the
    signed coefficients: the reference for the Horner evaluation."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ns = np.arange(-e.order, e.order)
    sig = np.where(ns >= 0, -1j, 1j)
    phi = 2.0 * np.arctan(x)
    return (np.exp(1j * np.outer(phi, ns)) @ (sig * e.coefficients)) / (1.0 - 1j * x)


@pytest.mark.parametrize("N", [64, 256])
@pytest.mark.parametrize("f", [ht.CatalogFunction("quartic", shift=0.3),
                               ht.CatalogFunction("gaussian", alpha=2.0),
                               ht.CatalogFunction("odd_lorentzian", alpha=0.5)])
def test_weideman_eval_matches_dense_series(N, f):
    e = ht.weideman_fit(f, N, tail=function_tail(f))
    rng = np.random.default_rng(N)
    far = 10.0 ** rng.uniform(-3, 6, 500) * rng.choice([-1.0, 1.0], 500)
    xs = np.concatenate([XS, far, [1e6, -1e6, 0.0]])
    ref = _weideman_eval_dense(e, xs)
    assert np.abs(ht.weideman_eval(e, xs) - ref).max() <= 1e-12 * np.abs(ref).max()
    for x in (0.7, -1e6):
        val = ht.weideman_eval(e, x)
        assert isinstance(val, complex)
        assert abs(val - _weideman_eval_dense(e, x)[0]) <= 1e-12 * np.abs(ref).max()


_REAL_DECAYING = ("lorentzian", "quartic", "squared_lorentzian", "gaussian",
                  "odd_lorentzian")


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(_REAL_DECAYING), alpha=st.floats(0.5, 3.0),
       shift=st.floats(-3.0, 3.0), scale=st.floats(0.1, 10.0),
       sign=st.sampled_from([-1.0, 1.0]), N=st.sampled_from([32, 64, 256]))
def test_real_fit_takes_the_one_sided_sum(kind, alpha, shift, scale, sign, N):
    # a_{-n-1} = conj(a_n) for real samples: the one-sided Horner sum is the
    # dense two-sided series, and its imaginary part is exactly zero
    f = ht.CatalogFunction(kind, alpha=alpha, shift=shift, scale=sign * scale)
    e = ht.weideman_fit(f, N, tail=function_tail(f))
    assert e.real
    xs = np.concatenate([XS, [-1e6, -40.0, 40.0, 1e6]])
    ref = _weideman_eval_dense(e, xs)
    vals = ht.weideman_eval(e, xs)
    assert np.iscomplexobj(vals) and np.all(vals.imag == 0.0)
    assert np.abs(vals - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("sample", [
    lambda x: ht.CatalogFunction("lorentzian")(x) + 0j,
    lambda x: ht.CatalogFunction("lorentzian", shift=1.0)(x)
    + 1j * ht.CatalogFunction("gaussian", alpha=2.0)(x),
], ids=["complex-dtype", "complex-valued"])
def test_complex_samples_take_the_two_sided_sum(sample):
    # the real mark follows the samples' type, never their values
    e = ht.weideman_fit(sample, 64)
    assert not e.real
    ref = _weideman_eval_dense(e, XS)
    assert np.abs(ht.weideman_eval(e, XS) - ref).max() <= 1e-12 * np.abs(ref).max()
