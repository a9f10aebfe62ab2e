"""Dense sine-series references for the oracle tests.

``DenseSeriesSolution`` evaluates the same series as
``halfbvm.oracles.FourierSeriesSolution`` the direct way: every sine at every
quadrature node, the mode coefficients of the source at each Duhamel node,
and sin/cos matrices over the evaluation points.  The library factors each
phase into small panel tables instead, so the two agree to round-off.
``schrodinger_series`` is the sine-series form of the dispersive model that
criterion 9 checks the traveling-wave closed form against; it takes its sine
coefficients from the library oracle, not from the dense ``sine_coefficients``.
"""

from dataclasses import dataclass

import numpy as np

from halfbvm.oracles import FourierSeriesSolution

HALF_DIFFUSION = "half_diffusion"
MASS_TRANSFER = "mass_transfer"
ADVECTION = "advection"


def gauss_panels(a: float, b: float, n_points: int, panel: int = 64):
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


def sine_coefficients(fn, L, n_max, n_quad):
    """(2/L) integral of fn against sin(n pi x / L), n = 1..n_max."""
    x, w = gauss_panels(0.0, L, n_quad)
    vals = np.asarray(fn(x)) * w
    n = np.arange(1, n_max + 1)
    out = np.empty(n_max, dtype=np.result_type(vals.dtype, float))
    chunk = max(1, int(4e6 // max(len(x), 1)))
    for s in range(0, n_max, chunk):
        block = n[s: s + chunk, None] * (np.pi / L) * x[None, :]
        out[s: s + chunk] = (2.0 / L) * (np.sin(block) @ vals)
    return out


@dataclass(frozen=True)
class DenseSeriesSolution:
    """Truncated eigenfunction series, with the fields and quadrature of
    ``FourierSeriesSolution``."""

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
        object.__setattr__(self, "_u0n", sine_coefficients(
            self.u0, self.L, self.n_max, self.n_quad))
        terms = [] if self.source is None else self.source.terms
        object.__setattr__(self, "_terms", [
            (term.time, sine_coefficients(term.space.value, self.L, self.n_max,
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
            sq, wq = gauss_panels(0.0, t, max(32, int(self.t_quad * t)))
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


def schrodinger_series(u0_value, gamma, V=0.0, L=50.0, n_max=1200, n_quad=8192):
    """Sine-series form: sum C_n sin(n pi x/L) e^{-i(gamma n pi/L + V) t}, with
    C_n the sine coefficients of u0 from the library oracle's panel tables:
    its amplitudes at t = 0 are exactly those coefficients."""
    C, _ = FourierSeriesSolution(u0=u0_value, source=None, eps=gamma, L=L,
                                 n_max=n_max, n_quad=n_quad).mode_amplitudes(0.0)
    k = np.arange(1, n_max + 1) * np.pi / L

    def u(xq, t):
        xq = np.asarray(xq, dtype=float)
        phases = np.exp(-1j * (gamma * k + V) * t)
        return np.sin(np.outer(xq, k)) @ (C * phases)

    return u
