"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line with the measured quantity so the
suite doubles as a report; tolerances are fixed here, not tuned per run.
"""

import numpy as np
from conftest import (assert_multiset_close, dense_D, derivative_matrix,
                      fitted_slope, laplacian_matrix, materialize,
                      materialize_omega_circulant)
from hilbert_reference import function_tail, hilbert_exact_twice, hilbert_tail
from series_reference import schrodinger_series
from stability_reference import S_POLYNOMIAL, classify_stability

import halfbvm as hb
from halfbvm import hilbert as ht
from halfbvm import oracles, spatial, spectrum
from halfbvm.krylov import build_preconditioner, direct_solve


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _solve(pb, h, N, T, method, tol=1e-10, max_iter=800):
    run = hb.setup_run(pb, h=h)
    gmm = hb.build_gmm(N, T)
    system = hb.assemble_all_at_once(gmm, run.sys, run.source, run.u0v0)
    if method == "direct":
        rep = direct_solve(system)
    else:
        pre = build_preconditioner(gmm, run.sys) if method == "gmres" else None
        rep = hb.gmres_solve(system, pre, tol=tol, max_iter=max_iter)
    return run, gmm, rep, hb.extract_trajectory(rep.solution, system)


def test_criterion_1_hilbert_identities():
    """Spectral fits match every decaying closed-form pair; H^2 = -I."""
    xs = np.linspace(-10.0, 10.0, 2001)
    entries = [
        ht.CatalogFunction("lorentzian"),
        ht.CatalogFunction("quartic"),
        ht.CatalogFunction("squared_lorentzian"),
        ht.CatalogFunction("gaussian", alpha=1.0),
        ht.CatalogFunction("gaussian", alpha=2.5),
        ht.CatalogFunction("odd_lorentzian", alpha=1.0),
        ht.CatalogFunction("odd_lorentzian", alpha=2.0),
    ]
    worst_fit = 0.0
    worst_inv = 0.0
    for f in entries:
        fit = ht.weideman_fit(f, 256, tail=function_tail(f))
        worst_fit = max(worst_fit,
                        float(np.abs(ht.weideman_eval(fit, xs) - f.hilbert(xs)).max()))
        try:
            h2 = hilbert_exact_twice(f, xs)
        except ht.UnsupportedFunctionError:
            img = ht.weideman_fit(f.hilbert, 256, tail=hilbert_tail(f))
            h2 = ht.weideman_eval(img, xs).real
        worst_inv = max(worst_inv, float(np.abs(h2 + f(xs)).max()))
    # the oscillatory rows do not decay (outside the fit's domain); their
    # double transform chains are closed-form
    for f in (ht.CatalogFunction("sine", alpha=1.0),
              ht.CatalogFunction("cosine", alpha=1.0)):
        worst_inv = max(worst_inv, float(np.abs(hilbert_exact_twice(f, xs) + f(xs)).max()))
    ok = worst_fit <= 1e-6 and worst_inv <= 1e-5
    _report(1, ok, f"fit sup err {worst_fit:.2e} (<=1e-6), "
                   f"H^2+I sup err {worst_inv:.2e} (<=1e-5)")


def test_criterion_2_spectrum_doubling():
    """Eigenvalues of the doubled generator follow the pairing formulas."""
    g = spatial.Grid(length=20.0, m=64, boundary=spatial.DIRICHLET)
    sys = spatial.assemble_discrete_system(g, 1.0, spatial.OperatorKind("zero"))
    lam = spectrum.eigenvalues_of_D(sys)
    lam_p = np.linalg.eigvalsh(dense_D(sys)[sys.n:, : sys.n])
    expected = np.concatenate([np.sqrt(lam_p + 0j), -np.sqrt(lam_p + 0j)])
    assert_multiset_close(lam, np.linalg.eigvals(dense_D(sys)), 1e-10)
    assert_multiset_close(lam, expected, 1e-10)

    gp = spatial.Grid(length=20.0, m=64, boundary=spatial.PERIODIC)
    sysp = spatial.assemble_discrete_system(gp, 0.01,
                                            spatial.OperatorKind("advection", 0.2))
    d_hat = np.fft.fft(derivative_matrix(gp)[:, [0]].toarray().ravel())
    k_hat = np.fft.fft(laplacian_matrix(gp)[:, [0]].toarray().ravel())
    formula = np.concatenate([0.2 * d_hat + 0.01 * np.sqrt(k_hat + 0j),
                              0.2 * d_hat - 0.01 * np.sqrt(k_hat + 0j)])
    assert_multiset_close(spectrum.eigenvalues_of_D(sysp), formula, 1e-10)
    _report(2, True, "pure-diffusion +-sqrt pairs and drift formula match to 1e-10")


def test_criterion_3_gmm_stability_classification():
    """S off the segment [-i, i], non-S on it, locus confined to the segment."""
    mp = spectrum.gmm_polynomials()
    rng = np.random.default_rng(7)
    n_off = 0
    for _ in range(200):
        q = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(q.real) < 1e-3 and abs(q.imag) <= 1.0:
            q += 0.5
        n_off += classify_stability(mp, q) == S_POLYNOMIAL
    n_on = 0
    for y in np.linspace(-0.999, 0.999, 50):
        n_on += classify_stability(mp, 1j * y) != S_POLYNOMIAL
    loc = spectrum.boundary_locus(mp, 4096)
    re_max = float(np.abs(loc.real).max())
    im_max = float(np.abs(loc.imag).max())
    ok = n_off == 200 and n_on == 50 and re_max <= 1e-12 and im_max <= 1.0 + 1e-12
    _report(3, ok, f"S off-segment {n_off}/200, non-S on-segment {n_on}/50, "
                   f"max|Re q|={re_max:.1e}, max|Im q|={im_max:.12f}")


def test_criterion_4_second_order_convergence():
    """All three model problems converge at slope ~2 on the desk-scale sweep."""
    T = 2.0
    hs = (0.4, 0.2, 0.1, 0.05)
    slopes = {}
    for name, method in (("half_diffusion_manufactured", "gmres"),
                         ("mass_transfer_manufactured", "gmres"),
                         ("advection_manufactured", "direct")):
        pb = hb.build_problem(name)
        exact = pb.exact if pb.exact is not None else pb.oracle(n_max=600)
        errs = []
        for h in hs:
            run, gmm, rep, traj = _solve(pb, h, int(round(T / (0.5 * h))), T,
                                         method)
            assert method == "direct" or rep.converged
            err, _ = oracles.relative_l2_error(
                traj[-1].u.real, lambda x, t: np.asarray(exact(x, t)).real,
                run.grid, T, window=pb.measure_window)
            errs.append(err)
        slopes[name] = fitted_slope(hs, errs)
    ok = all(1.8 <= s <= 2.2 for s in slopes.values())
    detail = ", ".join(f"{k}: {v:.3f}" for k, v in slopes.items())
    _report(4, ok, f"fitted slopes in [1.8, 2.2]: {detail}")


def test_criterion_5_preconditioner_clustering():
    """Preconditioned spectrum is 1 up to at most 2*(2n)*k outliers."""
    pb = hb.build_problem("half_diffusion_manufactured")
    run = hb.setup_run(pb, m=9)
    gmm = hb.build_gmm(16, 2.0)
    system = hb.assemble_all_at_once(gmm, run.sys, run.source, run.u0v0)
    W = materialize_omega_circulant(gmm, np.exp(1j * np.pi))
    P = (np.kron(W, np.eye(run.sys.dim))
         - gmm.tau * np.kron(np.eye(16), dense_D(run.sys)))
    ev = np.linalg.eigvals(np.linalg.solve(P, materialize(system)))
    outliers = int(np.sum(np.abs(ev - 1.0) > 1e-8))
    ok = outliers <= 2 * run.sys.dim * 2
    _report(5, ok, f"{outliers} outliers of {ev.size} (bound 64)")


def test_criterion_6_preconditioner_efficacy():
    """Left preconditioning cuts the iteration count by 4x or better."""
    pb = hb.build_problem("half_diffusion_manufactured")
    T, N, tol = 1.0, 128, 1e-8
    run, gmm, rep_pre, traj = _solve(pb, 0.1, N, T, "gmres", tol=tol,
                                     max_iter=600)
    run2, gmm2, rep_no, traj2 = _solve(pb, 0.1, N, T, "none", tol=tol,
                                       max_iter=1500)
    agree = float(np.linalg.norm(rep_pre.solution - rep_no.solution)
                  / np.linalg.norm(rep_pre.solution))
    ok = (rep_pre.converged and rep_no.converged
          and rep_pre.iterations <= 0.25 * rep_no.iterations and agree <= 1e-6)
    _report(6, ok, f"{rep_pre.iterations} vs {rep_no.iterations} iterations "
                   f"({100 * rep_pre.iterations / rep_no.iterations:.0f}%), "
                   f"solutions agree to {agree:.1e}")


def test_criterion_7_transport_limit():
    """Zero-diffusion drift still reproduces the pure transport solution."""
    pb = hb.build_problem("transport_limit")
    T = 2.0
    run, gmm, rep, traj = _solve(pb, 0.025, int(round(T / 0.025)), T, "direct")
    err, _ = oracles.relative_l2_error(traj[-1].u.real, pb.exact, run.grid, T,
                                       window=pb.measure_window)
    ok = err <= 1e-2
    _report(7, ok, f"rel l2 error vs u0(x + t): {err:.3e} (<= 1e-2)")


def test_criterion_8_gaussian_quartic_error_level():
    """The no-closed-form drift run reproduces the reported error level."""
    pb = hb.build_problem("advection_gaussian_quartic")
    T, tau = 20.0, 0.0312
    run, gmm, rep, traj = _solve(pb, 0.0125, int(round(T / tau)), T, "direct")
    oracle = pb.oracle(n_max=400)
    err, _ = oracles.relative_l2_error(traj[-1].u.real,
                                       lambda x, t: oracle(x, t), run.grid, T,
                                       window=pb.measure_window)
    lo, hi = 0.0233 * 0.7, 0.0233 * 1.3
    ok = lo <= err <= hi
    _report(8, ok, f"rel L2 error {err:.4f}, reported 0.0233 +-30% -> [{lo:.4f}, {hi:.4f}]")


def test_criterion_9_schrodinger_equivalence():
    """Traveling-wave and sine-series forms agree; the solve converges at h^2."""
    rng = np.random.default_rng(42)
    # single mode: the two forms coincide with the exact phase evolution
    pbm = hb.build_problem("schrodinger_single_mode", L=20.0, gamma=0.1, mode=3)
    dal_m = pbm.oracle()
    ser_m = schrodinger_series(pbm.u0.value, 0.1, V=0.0, L=20.0,
                               n_max=400, n_quad=8192)
    xs = rng.uniform(0.5, 19.5, 100)
    ts = rng.uniform(0.0, 20.0, 100)
    worst_mode = max(abs(complex(dal_m(np.array([x]), t)[0])
                         - complex(ser_m(np.array([x]), t)[0]))
                     for x, t in zip(xs, ts))
    # two-bump data on a domain long enough for the wall hypothesis to hold
    L = 800.0
    pb2 = hb.build_problem("schrodinger_two_lorentzian", L=L)
    dal2 = pb2.oracle()
    ser2 = schrodinger_series(pb2.u0.value, 0.1, V=0.0, L=L,
                              n_max=4200, n_quad=int(64 * L))
    xs2 = rng.uniform(0.05 * L, 0.95 * L, 100)
    ts2 = rng.uniform(0.0, 20.0, 100)
    worst_two = max(abs(complex(dal2(np.array([x]), t)[0])
                        - complex(ser2(np.array([x]), t)[0]))
                    for x, t in zip(xs2, ts2))
    # numerical solve against the traveling-wave reference on a tau ~ h sweep
    errs = []
    T = 2.0
    hs = (0.5, 0.25, 0.125)
    for h in hs:
        run, gmm, rep, traj = _solve(pbm, h, max(2, int(round(T / (0.5 * h)))),
                                     T, "gmres", tol=1e-12)
        errs.append(oracles.relative_l2_error(traj[-1].u, dal_m, run.grid, T)[0])
    slope = fitted_slope(hs, errs)
    ok = worst_mode <= 1e-4 and worst_two <= 1e-4 and 1.8 <= slope <= 2.2
    _report(9, ok, f"form agreement: mode {worst_mode:.1e}, two-bump {worst_two:.1e} "
                   f"(<=1e-4); solve slope {slope:.3f}")


def test_criterion_10_doubling_decay_rates():
    """Single-mode solves recover exp(-eps n pi t / L) decay to 1e-4."""
    worst = 0.0
    details = []
    for n in (1, 2, 3, 4):
        pb = hb.build_problem("single_mode", L=20.0, eps=0.1, mode=n)
        run = hb.setup_run(pb, m=400)
        gmm = hb.build_gmm(40, 4.0)
        system = hb.assemble_all_at_once(gmm, run.sys, run.source, run.u0v0)
        rep = hb.gmres_solve(system, build_preconditioner(gmm, run.sys),
                             tol=1e-12, max_iter=500)
        traj = hb.extract_trajectory(rep.solution, system)
        x = run.grid.nodes
        mode = np.sin(n * np.pi * x / 20.0)
        amps = [float(st.u.real @ mode) / float(mode @ mode) for st in traj]
        t = gmm.tau * np.arange(len(traj))
        rate = np.polyfit(t, np.log(np.abs(amps)), 1)[0]
        target = -0.1 * n * np.pi / 20.0
        dev = abs(rate - target) / abs(target)
        worst = max(worst, dev)
        details.append(f"n={n}: {dev:.1e}")
    ok = worst <= 1e-4
    _report(10, ok, f"decay-rate relative deviations {', '.join(details)} (<=1e-4)")
