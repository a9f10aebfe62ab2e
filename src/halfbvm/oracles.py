"""Reference solutions: eigenfunction series, shifts, and error norms.

On (0, L) with homogeneous walls the half-diffusion propagator acts mode by
mode: sin(n pi x / L) decays like exp(-eps n pi t / L).  Sources enter
through Duhamel integrals evaluated with Gauss-Legendre panels.  The three
supported kernels are

    half diffusion:  G(x, xi, t) = (2/L) sum_n e^{-eps n pi t/L} sin_n(x) sin_n(xi)
    mass transfer:   the same kernel times e^{delta t}
    advection:       the half-diffusion kernel evaluated at x + delta t.

All three share one complex rate per mode, z_n = growth - eps k_n + i drift
k_n with k_n = n pi / L, and every phase is split by angle addition into
small tables contracted by a matmul.  A quadrature node on panel p is
m_p + hw xi_i, so sin(k (m_p + hw xi_i)) and e^{z (t - s)} factor into a
(panels, modes) table times a (per-panel points, modes) table.  Evaluation
writes n = a nb + b with nb ~ sqrt(n_max), so e^{i n theta} costs two short
tables of exponentials per point.

The free-space dispersive model i u_t = gamma (-Delta)^{1/2} u + V u has a
traveling-wave closed form built from the initial datum and its Hilbert
transform; the tests cross-check it against an equivalent sine series.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FourierSeriesSolution",
    "schrodinger_dalembert",
    "relative_l2_error",
]

HALF_DIFFUSION = "half_diffusion"
MASS_TRANSFER = "mass_transfer"
ADVECTION = "advection"
MODELS = (HALF_DIFFUSION, MASS_TRANSFER, ADVECTION)


def _panels(length: float, n_points: int, panel: int = 64):
    """Composite Gauss-Legendre on [0, length] with ~n_points nodes: panel
    midpoints, the common half-width, and the Gauss offsets and weights."""
    per = max(4, min(panel, n_points))
    n_panels = max(1, int(round(n_points / per)))
    xi, w = np.polynomial.legendre.leggauss(per)
    edges = np.linspace(0.0, length, n_panels + 1)
    return 0.5 * (edges[:-1] + edges[1:]), 0.5 * length / n_panels, xi, w


@dataclass(frozen=True)
class FourierSeriesSolution:
    """Truncated eigenfunction-series solution, callable as u(x, t).

    ``model`` selects the kernel; ``delta`` is the reaction rate or drift.
    ``n_max`` modes, spatial quadrature with ``n_quad`` Gauss points, Duhamel
    integrals with ``t_quad`` points per unit time.  Source time functions
    are real and vectorized.
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
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; known: "
                             + ", ".join(MODELS))
        k = np.arange(1, self.n_max + 1) * (np.pi / self.L)
        drift = self.delta if self.model == ADVECTION else 0.0
        growth = self.delta if self.model == MASS_TRANSFER else 0.0
        object.__setattr__(self, "_z", growth - self.eps * k + 1j * drift * k)
        # (2/L) int f sin(k x) dx with sin(k (m + d)) = sin(k m) cos(k d)
        # + cos(k m) sin(k d): per-panel sums against the offset tables
        mid, hw, xi, w = _panels(self.L, self.n_quad)
        x = (mid[:, None] + hw * xi).ravel()
        km, kd = np.outer(mid, k), np.outer(hw * xi, k)
        sin_m, cos_m, sin_d, cos_d = np.sin(km), np.cos(km), np.sin(kd), np.cos(kd)

        def coefficients(fn):
            v = np.broadcast_to(fn(x), x.shape).reshape(len(mid), len(xi))
            v = v * ((2.0 / self.L) * hw * w)
            return np.sum(sin_m * (v @ cos_d) + cos_m * (v @ sin_d), axis=0)

        terms = () if self.source is None else self.source.terms
        object.__setattr__(self, "_u0n", coefficients(self.u0))
        object.__setattr__(self, "_terms", [
            (term.time, coefficients(term.space.value)) for term in terms])

    def mode_amplitudes(self, t: float):
        """(A_n, B_n) multiplying sin and cos of n pi x / L at time t."""
        z = self._z
        decay = np.exp(z * t)
        A, B = self._u0n * decay.real, self._u0n * decay.imag
        if self._terms and t > 0.0:
            # e^{z (t - s)} = e^{z (t - m_p)} e^{-z hw xi_i} over the panels
            mid, hw, xi, w = _panels(t, max(32, int(self.t_quad * t)))
            s = mid[:, None] + hw * xi
            head = np.exp(np.outer(t - mid, z))
            tail = np.exp(np.outer(-hw * xi, z)) * (hw * w)[:, None]
            for time_fn, coeffs in self._terms:
                kern = np.sum(head * (np.broadcast_to(time_fn(s), s.shape) @ tail),
                              axis=0)
                A = A + kern.real * coeffs
                B = B + kern.imag * coeffs
        return A, B

    def __call__(self, x, t: float):
        """u(x, t) = Re sum_n (B_n - i A_n) e^{i n theta}, theta = pi x / L,
        over the split n = a nb + b; complex (A, B) go as two columns."""
        x = np.asarray(x, dtype=float)
        A, B = self.mode_amplitudes(float(t))
        parts = [B.real - 1j * A.real]
        if np.iscomplexobj(A):
            parts.append(B.imag - 1j * A.imag)
        nb = int(np.ceil(np.sqrt(self.n_max + 1)))
        na = -(-(self.n_max + 1) // nb)
        c = np.zeros((na * nb, len(parts)), dtype=complex)
        c[1:self.n_max + 1] = np.stack(parts, axis=1)
        # row b, column (a, part): the coefficient of n = a nb + b
        c = c.reshape(na, nb, -1).transpose(1, 0, 2).reshape(nb, -1)
        theta = x.ravel() * (np.pi / self.L)
        fine = np.exp(1j * np.outer(theta, np.arange(nb)))
        coarse = np.exp(1j * np.outer(theta, nb * np.arange(na)))
        vals = np.einsum("xa,xac->xc", coarse,
                         (fine @ c).reshape(len(theta), na, -1)).real
        out = vals[:, 0] if len(parts) == 1 else vals[:, 0] + 1j * vals[:, 1]
        return out.reshape(x.shape)


def schrodinger_dalembert(u0_value, u0_hilbert, gamma, V=0.0):
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
