import numpy as np
import pytest
from hilbert_reference import hilbert_quadrature_oracle

import halfbvm as hb
from halfbvm import problems
from halfbvm.spatial import ConfigurationError


def test_catalog_entries_all_build_and_discretize():
    for name in problems.catalog():
        pb = problems.build_problem(name)
        assert pb.model in problems.MODELS
        run = hb.setup_run(pb, m=12)
        assert run.u0v0.u.shape == (run.sys.n,)
        if pb.boundary == "periodic" and pb.periodization == "odd_doubled":
            assert run.grid.length == pytest.approx(2 * pb.L)
            assert run.sys.n == 24
        else:
            assert run.grid.length == pytest.approx(pb.L)


def test_unknown_problem_name():
    with pytest.raises(KeyError, match="unknown problem"):
        problems.build_problem("nope")
    with pytest.raises(ConfigurationError, match="no parameter 'delta'"):
        problems.build_problem("half_diffusion_manufactured", delta=0.1)
    with pytest.raises(ValueError):
        hb.setup_run(problems.build_problem("single_mode"))


@pytest.mark.parametrize("name", ["half_diffusion_manufactured",
                                  "mass_transfer_manufactured",
                                  "advection_mms"])
def test_manufactured_transform_chains_vs_quadrature(name):
    # each source term carries hand-derived H[F'] data; check it against the
    # principal-value quadrature of the analytic derivative
    pb = problems.build_problem(name)
    for term in pb.source.terms:
        space = term.space
        for x in (8.7, 10.0, 11.3):
            ref = hilbert_quadrature_oracle(space.dx, x, R=2e3, n_quad=400_000)
            assert abs(space.hilbert_dx(x) - ref) < 2e-3


@pytest.mark.parametrize("name,model", [("half_diffusion_manufactured", "half_diffusion"),
                                        ("mass_transfer_manufactured", "mass_transfer"),
                                        ("advection_mms", "advection")])
def test_manufactured_solution_solves_the_model(name, model):
    # residual u_t + eps*H[u_x] - Lop(u) - f must vanish identically, with
    # H[u_x] = cos(t) * (H sq')(y) known in closed form
    pb = problems.build_problem(name)
    eps, delta, c = 0.1 if model != "advection" else 0.01, pb.delta, pb.L / 2.0
    eps = abs(complex(pb.eps))
    rng = np.random.default_rng(11)
    x = rng.uniform(0.5, 19.5, 64)
    y = x - c
    for t in (0.0, 0.9, 2.7):
        sq = 1.0 / (1.0 + y * y) ** 2
        u_t = -np.sin(t) * sq
        h_ux = np.cos(t) * (-(y ** 4 + 6 * y * y - 3) / (2 * (1 + y * y) ** 3))
        if model == "half_diffusion":
            lop = 0.0
        elif model == "mass_transfer":
            lop = delta * np.cos(t) * sq
        else:
            lop = delta * np.cos(t) * (-4.0 * y / (1 + y * y) ** 3)
        resid = u_t + eps * h_ux - lop - pb.source.value(x, t)
        assert np.abs(resid).max() < 1e-13


def test_transport_limit_exact_formula():
    pb = problems.build_problem("transport_limit")
    x = np.linspace(0.0, 20.0, 41)
    assert np.abs(pb.exact(x, 0.0) - pb.u0.value(x)).max() < 1e-15
    assert pb.exact(np.array([8.0]), 2.0)[0] == pytest.approx(1.0)  # bump center


def test_gaussian_quartic_derivative_consistent():
    pb = problems.build_problem("advection_gaussian_quartic")
    x = np.linspace(-1.0, 5.0, 31)
    h = 1e-6
    fd = (pb.u0.value(x + h) - pb.u0.value(x - h)) / (2 * h)
    assert np.abs(fd - pb.u0.dx(x)).max() < 1e-8


def test_two_lorentzian_initial_data_shape():
    pb = problems.build_problem("schrodinger_two_lorentzian", L=100.0)
    v = pb.u0.value(np.array([45.0, 55.0]))
    assert v[0].real == pytest.approx(2.0, abs=0.05)
    assert v[1].imag == pytest.approx(-5.0, abs=0.1)


def test_physical_state_rotation():
    import halfbvm as hb
    from halfbvm.doubling import DoubledState
    pb = problems.build_problem("schrodinger_single_mode", V=2.0)
    st = DoubledState(u=np.array([1.0 + 0j]), v=np.array([0.5j]))
    u, v = pb.physical_state(st, np.pi)          # e^{-2i pi} = 1
    assert u[0] == pytest.approx(1.0)
    assert v[0] == pytest.approx(0.5j - 2j)
    pb0 = problems.build_problem("single_mode")
    u0, v0 = pb0.physical_state(st, 3.0)
    assert u0 is st.u and v0 is st.v


def test_oracle_dispatch():
    assert problems.build_problem("half_diffusion_manufactured").oracle() is not None
    pb = problems.build_problem("half_diffusion_homogeneous")
    u = pb.oracle(n_max=50)
    assert np.isfinite(u(np.linspace(1, 19, 5), 0.5)).all()
