"""Reference solutions: eigenfunction series, shifts, and error norms.

On (0, L) with homogeneous walls the half-diffusion propagator acts mode by
mode: sin(n pi x / L) decays like exp(-eps n pi t / L).  Sources enter
through Duhamel integrals evaluated with Gauss-Legendre panels.  The three
supported kernels are

    half diffusion:  G(x, xi, t) = (2/L) sum_n e^{-eps n pi t/L} sin_n(x) sin_n(xi)
    mass transfer:   the same kernel times e^{delta t}
    advection:       the half-diffusion kernel evaluated at x + delta t.

The free-space dispersive model i u_t = gamma (-Delta)^{1/2} u + V u is
covered twice over: a traveling-wave closed form built from the initial
datum and its Hilbert transform, and an equivalent sine series; the two are
cross-checked against each other in the tests.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FourierSeriesSolution",
    "half_diffusion_exact",
    "mass_transfer_exact",
    "advection_exact",
    "schrodinger_dalembert",
    "schrodinger_series",
    "relative_l2_error",
    "rel_l2",
]

HALF_DIFFUSION = "half_diffusion"
MASS_TRANSFER = "mass_transfer"
ADVECTION = "advection"


def _gauss_panels(a: float, b: float, n_points: int, panel: int = 64):
    """Composite Gauss-Legendre nodes/weights with ~n_points total."""
    per = max(4, min(panel, n_points))
    n_panels = max(1, int(round(n_points / per)))
    xg, wg = np.polynomial.legendre.leggauss(per)
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


def _sine_coefficients(fn, L, n_max, n_quad):
    """(2/L) integral of fn against sin(n pi x / L), n = 1..n_max."""
    x, w = _gauss_panels(0.0, L, n_quad)
    vals = np.asarray(fn(x)) * w
    n = np.arange(1, n_max + 1)
    out = np.empty(n_max, dtype=np.result_type(vals.dtype, float))
    chunk = max(1, int(4e6 // max(len(x), 1)))
    for s in range(0, n_max, chunk):
        block = n[s: s + chunk, None] * (np.pi / L) * x[None, :]
        out[s: s + chunk] = (2.0 / L) * (np.sin(block) @ vals)
    return out


@dataclass(frozen=True)
class FourierSeriesSolution:
    """Truncated eigenfunction-series solution, callable as u(x, t).

    ``model`` selects the kernel; ``delta`` is the reaction rate or drift.
    ``n_max`` modes, spatial quadrature with ``n_quad`` Gauss points, Duhamel
    integrals with ``t_quad`` points per unit time.
    """

    u0: object
    source: object
    eps: float
    L: float
    model: str = HALF_DIFFUSION
    delta: float = 0.0
    n_max: int = 400
    n_quad: int = 4096
    t_quad: int = 256

    def __post_init__(self):
        n = np.arange(1, self.n_max + 1)
        object.__setattr__(self, "_rates", self.eps * n * np.pi / self.L)
        object.__setattr__(self, "_u0n", _sine_coefficients(
            self.u0, self.L, self.n_max, self.n_quad))
        terms = [] if self.source is None else self.source.terms
        object.__setattr__(self, "_terms", [
            (term.time, _sine_coefficients(term.space.value, self.L, self.n_max,
                                           self.n_quad))
            for term in terms])

    def _fn_at(self, s: float):
        """Mode coefficients of f(., s)."""
        total = np.zeros(self.n_max)
        for time_fn, coeffs in self._terms:
            total = total + time_fn(s) * coeffs
        return total

    def mode_amplitudes(self, t: float):
        """(A_n, B_n) multiplying sin and cos of n pi x / L at time t."""
        rates = self._rates
        drift = self.delta if self.model == ADVECTION else 0.0
        growth = self.delta if self.model == MASS_TRANSFER else 0.0
        n = np.arange(1, self.n_max + 1)
        phase = n * np.pi * drift / self.L

        decay = np.exp((growth - rates) * t)
        A = self._u0n * decay * np.cos(phase * t)
        B = self._u0n * decay * np.sin(phase * t)
        if self._terms and t > 0.0:
            sq, wq = _gauss_panels(0.0, t, max(32, int(self.t_quad * t)))
            fns = np.stack([self._fn_at(s) for s in sq])          # (q, n_max)
            lag = t - sq[:, None]
            kern = np.exp((growth - rates)[None, :] * lag) * wq[:, None]
            A = A + np.sum(kern * np.cos(phase[None, :] * lag) * fns, axis=0)
            B = B + np.sum(kern * np.sin(phase[None, :] * lag) * fns, axis=0)
        return A, B

    def __call__(self, x, t: float):
        x = np.asarray(x, dtype=float)
        A, B = self.mode_amplitudes(float(t))
        n = np.arange(1, self.n_max + 1)
        arg = np.outer(x, n) * (np.pi / self.L)
        out = np.sin(arg) @ A
        if self.model == ADVECTION:
            out = out + np.cos(arg) @ B
        return out


def half_diffusion_exact(u0, f, eps, L, n_max=400, **kw) -> FourierSeriesSolution:
    return FourierSeriesSolution(u0=u0, source=f, eps=eps, L=L,
                                 model=HALF_DIFFUSION, n_max=n_max, **kw)


def mass_transfer_exact(u0, f, eps, delta, L, n_max=400, **kw) -> FourierSeriesSolution:
    return FourierSeriesSolution(u0=u0, source=f, eps=eps, L=L, delta=delta,
                                 model=MASS_TRANSFER, n_max=n_max, **kw)


def advection_exact(u0, f, eps, delta, L, n_max=400, **kw) -> FourierSeriesSolution:
    return FourierSeriesSolution(u0=u0, source=f, eps=eps, L=L, delta=delta,
                                 model=ADVECTION, n_max=n_max, **kw)


def schrodinger_dalembert(u0_value, u0_hilbert, gamma, V=0.0, L=None):
    """Traveling-wave solution of i u_t = gamma (-Delta)^{1/2} u + V u.

    u0_value / u0_hilbert evaluate the (complex) initial datum and its
    transform anywhere on the line.  Each half-line mode e^{ikx}, k > 0,
    must rotate as e^{-i gamma k t}; expanding the projections shows this is

        u = e^{-iVt}/2 [ u0(x + g t) + u0(x - g t)
                         - i H(u0)(x + g t) + i H(u0)(x - g t) ] .
    """
    def u(x, t):
        xp = np.asarray(x, dtype=float) + gamma * t
        xm = np.asarray(x, dtype=float) - gamma * t
        val = (np.asarray(u0_value(xp), dtype=complex)
               + np.asarray(u0_value(xm), dtype=complex)
               - 1j * np.asarray(u0_hilbert(xp), dtype=complex)
               + 1j * np.asarray(u0_hilbert(xm), dtype=complex))
        return 0.5 * np.exp(-1j * V * t) * val

    return u


def schrodinger_series(u0_value, gamma, V=0.0, L=50.0, n_max=1200, n_quad=8192):
    """Sine-series form: sum C_n sin(n pi x/L) e^{-i(gamma n pi/L + V) t}, with
    C_n the sine coefficients of u0."""
    C = _sine_coefficients(u0_value, L, n_max, n_quad)
    k = np.arange(1, n_max + 1) * np.pi / L

    def u(xq, t):
        xq = np.asarray(xq, dtype=float)
        phases = np.exp(-1j * (gamma * k + V) * t)
        return np.sin(np.outer(xq, k)) @ (C * phases)

    return u


def rel_l2(numeric, exact) -> float:
    """||numeric - exact||_2 / ||exact||_2 over shared sample points."""
    numeric = np.asarray(numeric)
    exact = np.asarray(exact)
    denom = np.linalg.norm(exact)
    if denom == 0.0:
        return float(np.linalg.norm(numeric))
    return float(np.linalg.norm(numeric - exact) / denom)


def relative_l2_error(numeric, exact_fn, grid, t, window=None):
    """Relative l2 error of nodal values against exact_fn(x, t).

    ``window = (lo, hi)`` restricts the measured nodes, used to keep the
    Dirichlet wall mismatch of line-supported data out of interior error
    measurements.  Falls back to the absolute norm (flagged by a returned
    second value) when the exact solution vanishes on the window.
    """
    x = grid.nodes
    mask = np.ones_like(x, dtype=bool)
    if window is not None:
        mask = (x >= window[0]) & (x <= window[1])
    ex = np.asarray(exact_fn(x[mask], t))
    nu = np.asarray(numeric)[mask]
    denom = np.linalg.norm(ex)
    if denom == 0.0:
        return float(np.linalg.norm(nu)), True
    return float(np.linalg.norm(nu - ex) / denom), False
