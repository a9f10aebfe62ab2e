import dataclasses

import numpy as np
import pytest
from doubling_reference import odd_reflection
from hilbert_reference import hilbert_quadrature_oracle
from scipy.integrate import solve_ivp

import halfbvm as hb
from halfbvm import doubling, hilbert as ht, spatial
from halfbvm.doubling import doubled_source, source_block_values


def _system(L=20.0, m=40, eps=0.1, op=None, boundary=spatial.DIRICHLET):
    g = spatial.Grid(length=L, m=m, boundary=boundary)
    return spatial.assemble_discrete_system(g, eps, op or spatial.OperatorKind("zero"))


def test_initial_state_single_mode():
    # H[(sin(pi x/L))'] = (pi/L) sin(pi x/L), so v0 = -(pi/L) sin for eps = 1
    L = 20.0
    sys = _system(L=L, m=32, eps=1.0)
    u0 = doubling.profile_from_catalog(ht.CatalogFunction("sine", alpha=np.pi / L))
    state = doubling.doubled_initial_state(u0, sys)
    x = sys.grid.nodes
    assert np.abs(state.u - np.sin(np.pi * x / L)).max() < 1e-14
    assert np.abs(state.v + (np.pi / L) * np.sin(np.pi * x / L)).max() < 1e-12


def test_initial_state_zero():
    sys = _system()
    zero = doubling.LineProfile(value=lambda x: np.zeros_like(x),
                                dx=lambda x: np.zeros_like(x),
                                hilbert_dx=lambda x: np.zeros_like(x))
    state = doubling.doubled_initial_state(zero, sys)
    assert np.all(state.u == 0) and np.all(state.v == 0)


def _quadrature_hilbert_dx(profile, x):
    return np.array([hilbert_quadrature_oracle(profile.dx, xi) for xi in x])


def test_initial_state_spot_check_against_quadrature():
    # v0 = -eps H[u0'] by the closed form, and by the fit once the profile
    # has none, against the principal-value quadrature of u0'
    sys = _system(m=20, eps=0.1)
    u0 = doubling.profile_from_catalog(
        ht.CatalogFunction("squared_lorentzian", shift=10.0))
    exact = doubling.doubled_initial_state(u0, sys)
    wei = doubling.doubled_initial_state(dataclasses.replace(u0, hilbert_dx=None), sys)
    quad_v = -0.1 * _quadrature_hilbert_dx(u0, sys.grid.nodes)
    assert np.abs(exact.v - quad_v).max() < 1e-3
    assert np.abs(exact.v - wei.v).max() < 1e-10


def test_source_u_block_formula():
    # the diffusion-model source at t = 0 has u-block -eps (y^4+6y^2-3)/(2(y^2+1)^3)
    pb = hb.build_problem("half_diffusion_manufactured")
    sys = _system(m=16)
    g = doubled_source(pb.source, sys, 0.0)
    y = sys.grid.nodes - 10.0
    expected = -0.1 * (y ** 4 + 6 * y ** 2 - 3) / (2 * (y ** 2 + 1) ** 3)
    assert np.abs(g[:sys.n] - expected).max() < 1e-12


def test_source_v_block_against_quadrature():
    pb = hb.build_problem("half_diffusion_manufactured")
    sys = _system(m=12)
    x, t = sys.grid.nodes, 0.7
    g_quad = sum(term.time(t) * np.concatenate(
        [term.space.value(x), -0.1 * _quadrature_hilbert_dx(term.space, x)])
        for term in pb.source.terms)
    fitted = doubling.SourceSpec(terms=tuple(
        doubling.SourceTerm(time=term.time,
                            space=dataclasses.replace(term.space, hilbert_dx=None))
        for term in pb.source.terms))
    for src in (pb.source, fitted):
        assert np.abs(doubled_source(src, sys, t) - g_quad).max() < 2e-3


def _count_fits(monkeypatch):
    orders = []
    fit = ht.weideman_fit
    monkeypatch.setattr(ht, "weideman_fit",
                        lambda f, N, **kw: orders.append(N) or fit(f, N, **kw))
    return orders


@pytest.mark.parametrize("name", sorted(hb.catalog()))
def test_hilbert_route_follows_the_profile(name, monkeypatch):
    # every catalog profile has a closed-form H[f'] except the gaussian-quartic
    # drift data, whose u0 and source term are each fit once, at FIT_ORDER
    orders = _count_fits(monkeypatch)
    pb = hb.build_problem(name)
    run = hb.setup_run(pb, h=0.5)
    source_block_values(run.source, run.sys)
    fitted = name == "advection_gaussian_quartic"
    assert orders == ([doubling.FIT_ORDER] * (1 + len(pb.source.terms))
                      if fitted else [])


def test_complex_profile_fits_once(monkeypatch):
    # the complex two-Lorentzian u0 without its closed form: one complex fit
    orders = _count_fits(monkeypatch)
    u0 = hb.build_problem("schrodinger_two_lorentzian").u0
    x = np.linspace(0.0, 100.0, 801)
    fitted = dataclasses.replace(u0, hilbert_dx=None).hilbert_dx_evaluator()(x)
    assert orders == [doubling.FIT_ORDER]
    assert np.iscomplexobj(fitted)
    assert np.abs(fitted - u0.hilbert_dx(x)).max() < 1e-5


def test_zero_source():
    sys = _system()
    g = doubled_source(doubling.ZERO_SOURCE, sys, 1.0)
    assert g.shape == (sys.dim,)
    assert np.all(g == 0)
    assert doubled_source(doubling.ZERO_SOURCE, sys, np.ones(3)).shape == (3, sys.dim)


def test_source_rows_at_an_array_of_times():
    pb = hb.build_problem("mass_transfer_manufactured")
    sys = _system(m=16, op=spatial.OperatorKind("scalar", 0.02))
    times = np.array([0.0, 0.4, 1.9])
    rows = doubled_source(pb.source, sys, times)
    assert rows.shape == (3, sys.dim)
    for t, row in zip(times, rows):
        assert np.array_equal(doubled_source(pb.source, sys, t), row)


def test_drift_needs_the_profile_derivative():
    # Lop = delta*d/dx needs dx; the initial state and the source both raise
    sys = _system(m=16, op=spatial.OperatorKind("advection", 0.2),
                  boundary=spatial.PERIODIC)
    f = ht.CatalogFunction("squared_lorentzian", shift=10.0)
    no_dx = doubling.LineProfile(value=f, hilbert_dx=f.hilbert_derivative)
    with pytest.raises(ht.UnsupportedFunctionError, match="derivative dx"):
        doubling.doubled_initial_state(no_dx, sys)
    src = doubling.SourceSpec(terms=(doubling.SourceTerm(time=np.cos, space=no_dx),))
    with pytest.raises(ht.UnsupportedFunctionError, match="derivative dx"):
        doubled_source(src, sys, 0.5)


def test_round_trip_reproduces_manufactured_solution():
    # reference integrator on the semi-discrete system, two mesh widths
    pb = hb.build_problem("half_diffusion_manufactured")
    errs = []
    for m in (100, 200):
        run = hb.setup_run(pb, m=m)
        blocks = source_block_values(run.source, run.sys)

        def f(t, y):
            return run.sys.apply_D(y) + sum(T(t) * G for T, G in blocks)

        sol = solve_ivp(f, (0.0, 1.0), run.u0v0.stack(), method="DOP853",
                        rtol=1e-10, atol=1e-12, t_eval=[1.0])
        u = sol.y[: run.sys.n, -1]
        err, _ = hb.relative_l2_error(u, pb.exact, run.grid, 1.0)
        errs.append(err)
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)   # O(h^2)


def test_growing_mode_cancellation_exact_rates():
    # The initial pair (u0, v0) must cancel the exp(+eps*k*t) branch so each
    # sine mode decays at -eps*n*pi/L.  The reference window is kept short:
    # round-off seeds the growing branch of every grid mode, amplified by up
    # to exp(eps*(2/h)*T), which is the very failure mode the two-point
    # boundary scheme exists to avoid.
    L, m, eps, T = 20.0, 2000, 0.1, 0.8
    sys = _system(L=L, m=m, eps=eps)
    x = sys.grid.nodes
    for n in (1, 2, 3, 4):
        u0 = doubling.profile_from_catalog(
            ht.CatalogFunction("sine", alpha=n * np.pi / L))
        state = doubling.doubled_initial_state(u0, sys)
        sol = solve_ivp(lambda t, y: sys.apply_D(y), (0.0, T), state.stack(),
                        method="DOP853", rtol=1e-12, atol=1e-14,
                        t_eval=np.linspace(0.0, T, 16))
        mode = np.sin(n * np.pi * x / L)
        amps = sol.y[: sys.n, :].T @ mode / (mode @ mode)
        rate = np.polyfit(sol.t, np.log(np.abs(amps)), 1)[0]
        continuous = -eps * n * np.pi / L
        assert abs(rate - continuous) / abs(continuous) < 1e-6


def test_transport_limit_of_drift_doubling():
    # eps = 0 still reproduces u0(x + delta t) through the doubled system
    pb = hb.build_problem("transport_limit")
    run = hb.setup_run(pb, h=0.05)
    sol = solve_ivp(lambda t, y: run.sys.apply_D(y), (0.0, 1.0),
                    run.u0v0.stack(), method="DOP853", rtol=1e-10, atol=1e-12,
                    t_eval=[1.0])
    u = sol.y[: run.sys.n, -1]
    err, _ = hb.relative_l2_error(u, pb.exact, run.grid, 1.0,
                                  window=pb.measure_window)
    assert err < 5e-3


def test_odd_reflection_identities(monkeypatch):
    f = ht.CatalogFunction("squared_lorentzian", shift=6.0)
    base = doubling.profile_from_catalog(f)
    refl = odd_reflection(base, 10.0)
    x = np.linspace(0.1, 19.9, 57)
    assert np.abs(refl.value(x) - (f(x) - f(20.0 - x))).max() < 1e-15
    assert np.abs(refl.dx(x) - (f.derivative(x) + f.derivative(20.0 - x))).max() < 1e-15
    hdx = f.hilbert_derivative
    assert np.abs(refl.hilbert_dx(x) - (hdx(x) - hdx(20.0 - x))).max() < 1e-15
    assert refl.hilbert_dx_evaluator() is refl.hilbert_dx
    # without a closed form the base is fit once, in its own frame, when the
    # reflection is made; evaluating the reflection fits nothing more
    orders = _count_fits(monkeypatch)
    fit = odd_reflection(dataclasses.replace(base, hilbert_dx=None), 10.0)
    ev = fit.hilbert_dx_evaluator()
    assert np.abs(ev(x) - refl.hilbert_dx(x)).max() < 1e-9
    assert np.abs(ev(x[::14]) - _quadrature_hilbert_dx(refl, x[::14])).max() < 1e-3
    assert orders == [doubling.FIT_ORDER]


ODD_DOUBLED = ("advection_gaussian_quartic", "advection_homogeneous",
               "advection_manufactured", "advection_mms")


def test_odd_doubled_catalog_problems():
    assert tuple(sorted(name for name, make in hb.catalog().items()
                        if make().torus == "odd_doubled")) == ODD_DOUBLED


def _profiles(pb):
    return [pb.u0] + [term.space for term in pb.source.terms]


@pytest.mark.parametrize("name", ["advection_gaussian_quartic", "advection_mms"])
def test_odd_doubled_data_evaluates_each_profile_once_per_node(name, monkeypatch):
    # the fitted and the closed-form route alike: setup and assembly call each
    # profile's H[f'] at the n torus nodes and at x = 2L, n + 1 points in all
    points = {}
    evaluator = doubling.LineProfile.hilbert_dx_evaluator

    def counting(profile):
        ev = evaluator(profile)

        def count(x):
            points[id(profile)] = points.get(id(profile), 0) + np.size(x)
            return ev(x)
        return count

    monkeypatch.setattr(doubling.LineProfile, "hilbert_dx_evaluator", counting)
    pb = hb.build_problem(name)
    run = hb.setup_run(pb, h=0.25)
    hb.assemble_all_at_once(hb.build_gmm(4, 1.0), run.sys, run.source, run.u0v0)
    assert run.sys.n == 160
    assert points == {id(p): run.sys.n + 1 for p in _profiles(pb)}


@pytest.mark.parametrize("name", ODD_DOUBLED)
def test_sampled_odd_image_is_odd_and_matches_the_pointwise_one(name):
    # on the grid the value and H[f'] pieces are exactly odd and f' exactly
    # even; each is within rounding of f(x) - f(2L - x) evaluated pointwise
    pb = hb.build_problem(name)
    sys = hb.setup_run(pb, h=0.25).sys
    m = sys.n
    for profile in _profiles(pb):
        sampled = doubling._samples(doubling.OddImage(profile, pb.L), sys)
        pointwise = doubling._samples(odd_reflection(profile, pb.L), sys)
        for piece, a, ref in zip(("value", "dx", "hilbert_dx"), sampled, pointwise):
            sign = 1.0 if piece == "dx" else -1.0
            assert np.array_equal(a[m - 1:0:-1], sign * a[1:m]), piece
            assert np.abs(a - ref).max() <= 1e-13 * np.abs(ref).max(), piece


@pytest.mark.parametrize("name", ODD_DOUBLED)
def test_sampled_odd_image_solves_as_the_pointwise_one(name):
    # the pointwise odd images, each piece evaluated at x and at 2L - x
    pb = hb.build_problem(name)
    run = hb.setup_run(pb, h=0.25)
    gmm = hb.build_gmm(16, 1.0)
    u0v0 = doubling.doubled_initial_state(odd_reflection(pb.u0, pb.L), run.sys)
    src = doubling.SourceSpec(terms=tuple(
        doubling.SourceTerm(time=term.time, space=odd_reflection(term.space, pb.L))
        for term in pb.source.terms))
    assert np.abs(run.u0v0.hilbert_dx - u0v0.hilbert_dx).max() <= 1e-13 * np.abs(
        u0v0.hilbert_dx).max()
    x = hb.direct_solve(hb.assemble_all_at_once(
        gmm, run.sys, run.source, run.u0v0)).solution
    ref = hb.direct_solve(hb.assemble_all_at_once(gmm, run.sys, src, u0v0)).solution
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_odd_image_is_sampled_only_on_its_torus():
    # node m - j is the mirror of node j only on the torus [0, 2c)
    pb = hb.build_problem("advection_mms")
    image = doubling.OddImage(pb.u0, pb.L)
    drift = spatial.OperatorKind("advection", 0.2)
    for sys in (_system(L=pb.L, m=40, op=drift, boundary=spatial.PERIODIC),
                _system(L=2.0 * pb.L, m=80)):
        with pytest.raises(ValueError, match="torus"):
            doubling.doubled_initial_state(image, sys)


def test_stack_unstack_round_trip():
    state = doubling.DoubledState(u=np.arange(3.0), v=np.arange(3.0) + 5)
    back = doubling.DoubledState.unstack(state.stack())
    assert np.all(back.u == state.u) and np.all(back.v == state.v)
    with pytest.raises(ValueError):
        doubling.DoubledState(u=np.arange(3.0), v=np.arange(4.0))
