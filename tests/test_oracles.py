import numpy as np
import pytest

import halfbvm as hb
from halfbvm import oracles
from halfbvm.hilbert import CatalogFunction
from halfbvm.problems import build_problem


def test_single_mode_half_diffusion_decay():
    L, eps = 20.0, 0.1
    u = oracles.FourierSeriesSolution(u0=lambda x: np.sin(np.pi * x / L), source=None,
                                      eps=eps, L=L, model="half_diffusion", n_max=8)
    x = np.linspace(0.5, 19.5, 13)
    for t in (0.0, 1.0, 7.5):
        expect = np.exp(-eps * np.pi * t / L) * np.sin(np.pi * x / L)
        assert np.abs(u(x, t) - expect).max() < 1e-12


def test_series_reproduces_initial_data():
    # slowest convergence sits at the walls where the line data is ~1e-4
    pb = build_problem("half_diffusion_homogeneous")
    u = oracles.FourierSeriesSolution(u0=pb.u0.value, source=None, eps=0.1, L=20.0,
                                      model="half_diffusion", n_max=400)
    x = np.linspace(0.5, 19.5, 101)
    assert np.abs(u(x, 0.0) - pb.u0.value(x)).max() < 5e-6
    interior = np.linspace(2.0, 18.0, 65)
    assert np.abs(u(interior, 0.0) - pb.u0.value(interior)).max() < 1e-6


def test_manufactured_half_diffusion_matches_series():
    pb = build_problem("half_diffusion_manufactured")
    series = pb.oracle(n_max=400)
    x = np.linspace(2.0, 18.0, 33)
    for t in (0.8, 1.7):
        assert np.abs(series(x, t) - pb.exact(x, t)).max() < 1e-3


def test_mass_transfer_reduces_to_half_diffusion_at_zero_delta():
    pb = build_problem("half_diffusion_homogeneous")
    a, b = (oracles.FourierSeriesSolution(u0=pb.u0.value, source=None, eps=0.1,
                                          L=20.0, model=model, n_max=100)
            for model in ("half_diffusion", "mass_transfer"))
    x = np.linspace(1.0, 19.0, 19)
    assert np.abs(a(x, 1.3) - b(x, 1.3)).max() < 1e-14


def test_mass_transfer_single_mode():
    L, eps, delta = 20.0, 0.1, 0.02
    u = oracles.FourierSeriesSolution(u0=lambda x: np.sin(np.pi * x / L), source=None,
                                      eps=eps, L=L, model="mass_transfer",
                                      delta=delta, n_max=8)
    x = np.linspace(0.5, 19.5, 7)
    t = 2.5
    expect = np.exp((delta - eps * np.pi / L) * t) * np.sin(np.pi * x / L)
    assert np.abs(u(x, t) - expect).max() < 1e-12


def test_manufactured_mass_transfer_matches_series():
    pb = build_problem("mass_transfer_manufactured")
    series = pb.oracle(n_max=400)
    x = np.linspace(2.0, 18.0, 21)
    assert np.abs(series(x, 1.4) - pb.exact(x, 1.4)).max() < 1e-3


def test_advection_reduces_to_half_diffusion_at_zero_delta():
    pb = build_problem("half_diffusion_homogeneous")
    a, b = (oracles.FourierSeriesSolution(u0=pb.u0.value, source=None, eps=0.1,
                                          L=20.0, model=model, n_max=100)
            for model in ("half_diffusion", "advection"))
    x = np.linspace(1.0, 19.0, 19)
    assert np.abs(a(x, 0.9) - b(x, 0.9)).max() < 1e-13


def test_advection_single_mode_shift():
    L, eps, delta, n = 20.0, 0.05, 0.3, 2
    u = oracles.FourierSeriesSolution(u0=lambda x: np.sin(n * np.pi * x / L), source=None,
                                      eps=eps, L=L, model="advection", delta=delta,
                                      n_max=8)
    x = np.linspace(0.5, 19.5, 11)
    t = 3.0
    expect = np.exp(-eps * n * np.pi * t / L) * np.sin(n * np.pi * (x + delta * t) / L)
    assert np.abs(u(x, t) - expect).max() < 1e-12


def test_advection_transport_limit():
    pb = build_problem("half_diffusion_homogeneous")   # centered bump shape
    u = oracles.FourierSeriesSolution(u0=pb.u0.value, source=None, eps=1e-8, L=20.0,
                                      model="advection", delta=1.0, n_max=400)
    x = np.linspace(2.0, 18.0, 65)
    t = 1.5
    assert np.abs(u(x, t) - pb.u0.value(x + t)).max() < 1e-3


def test_homogeneous_decay_is_monotone():
    pb = build_problem("half_diffusion_homogeneous")
    u = pb.oracle(n_max=300)
    x = np.linspace(0.25, 19.75, 79)
    norms = [np.linalg.norm(u(x, t)) for t in np.linspace(0.0, 9.0, 10)]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_truncation_self_consistency_monotone():
    pb = build_problem("half_diffusion_manufactured")
    x = np.linspace(1.0, 19.0, 37)

    def series(n_max):
        return oracles.FourierSeriesSolution(u0=pb.u0.value, source=pb.source,
                                             eps=0.1, L=20.0, model="half_diffusion",
                                             n_max=n_max)(x, 1.0)
    ref = series(800)
    resid = []
    for n_max in (50, 100, 200):
        u = series(n_max)
        resid.append(np.abs(u - ref).max())
    assert resid[0] >= resid[1] >= resid[2]


def test_dalembert_single_mode_is_exact():
    L, gamma, n = 20.0, 0.1, 3
    k = n * np.pi / L
    f = CatalogFunction("sine", alpha=k)
    u = oracles.schrodinger_dalembert(f, f.hilbert, gamma, V=0.0)
    x = np.linspace(0.5, 19.5, 11)
    for t in (0.0, 2.0, 9.3):
        expect = np.sin(k * x) * np.exp(-1j * gamma * k * t)
        assert np.abs(u(x, t) - expect).max() < 1e-12


def test_dalembert_with_potential_phase():
    L, gamma, V = 20.0, 0.1, 1.0
    k = np.pi / L
    f = CatalogFunction("sine", alpha=k)
    u = oracles.schrodinger_dalembert(f, f.hilbert, gamma, V=V)
    x = np.array([4.0, 12.0])
    t = 3.0
    expect = np.sin(k * x) * np.exp(-1j * (gamma * k + V) * t)
    assert np.abs(u(x, t) - expect).max() < 1e-12


def test_dalembert_solves_dispersive_equation():
    # residual of i u_t - gamma H[u_x] - V u at interior points by differences
    pb = build_problem("schrodinger_two_lorentzian", L=100.0, V=0.5)
    gamma = complex(pb.eps).imag
    u = pb.oracle()
    x = np.linspace(30.0, 70.0, 41)
    t, dt = 4.0, 1e-4
    du_dt = (u(x, t + dt) - u(x, t - dt)) / (2 * dt)
    # spatial transform of u_x at fixed t via the initial data's closed forms
    hux = 0.5 * np.exp(-1j * pb.V * t) * (
        pb.u0.hilbert_dx(x + gamma * t) + pb.u0.hilbert_dx(x - gamma * t)
        + 1j * pb.u0.dx(x + gamma * t) - 1j * pb.u0.dx(x - gamma * t))
    resid = 1j * du_dt - gamma * hux - pb.V * u(x, t)
    assert np.abs(resid).max() < 1e-6


def test_series_matches_dalembert_two_lorentzians():
    pb = build_problem("schrodinger_two_lorentzian", L=100.0)
    gamma = complex(pb.eps).imag
    dal = pb.oracle()
    ser = oracles.schrodinger_series(pb.u0.value, gamma, V=0.0, L=100.0,
                                     n_max=1500, n_quad=8192)
    rng = np.random.default_rng(0)
    xs = rng.uniform(10.0, 90.0, 40)
    ts = rng.uniform(0.0, 10.0, 40)
    worst = max(abs(complex(dal(np.array([x]), t)[0]) - complex(ser(np.array([x]), t)[0]))
                for x, t in zip(xs, ts))
    assert worst < 5e-3


def test_rel_l2_basics():
    a = np.array([1.0, 2.0, 2.0])
    assert oracles.rel_l2(a, a) == 0.0
    assert oracles.rel_l2(a + 3e-4, a) < 3e-4
    assert oracles.rel_l2(a, np.zeros(3)) == pytest.approx(3.0)


def test_relative_l2_error_window_and_flag():
    pb = build_problem("single_mode")
    run = hb.setup_run(pb, m=16)
    vals = pb.exact(run.grid.nodes, 0.5)
    err, flagged = oracles.relative_l2_error(vals, pb.exact, run.grid, 0.5)
    assert err < 1e-14 and not flagged
    err2, _ = oracles.relative_l2_error(vals + run.grid.h ** 2, pb.exact,
                                        run.grid, 0.5)
    assert err2 == pytest.approx(run.grid.h ** 2 * np.sqrt(15) /
                                 np.linalg.norm(pb.exact(run.grid.nodes, 0.5)), rel=1e-6)
    zero_fn = lambda x, t: np.zeros_like(x)
    err3, flagged3 = oracles.relative_l2_error(vals, zero_fn, run.grid, 0.5)
    assert flagged3 and err3 == pytest.approx(np.linalg.norm(vals))
