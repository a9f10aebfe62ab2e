"""Spatial discretization: grids, central-difference operators, block system.

Second-order central differences on a uniform mesh over (0, L).  Dirichlet
grids keep the m-1 interior nodes (both endpoints excluded); periodic grids
keep m nodes with x_m identified with x_0.  -Lap_h is the positive
(semi)definite approximation of -Laplacian, the stencil (-1, 2, -1)/h^2, and
the central difference Dh is (-1, 0, 1)/(2h).

The evolution after wave-form doubling is U' = D U + G with

    D = [[0, I], [P, Q]],   P ~ -eps^2 Laplacian - Lop^2,   Q ~ 2 Lop,

where Lop is 0, delta*I or delta*d/dx.  With the sign conventions above that
means P = eps^2 (-Lap_h) - Lop_h^2, which for Lop = 0, eps = 1 reduces to
(1/h^2) tridiag(-1, 2, -1); the round-trip test against the exact
single-mode decay pins this convention.

A ``DiscreteSystem`` is built from (grid, eps, operator) alone.  P and Q
exist only as stencils, applied matrix-free: zero past the walls, wrapped on
a torus.  -Lap_h and Lop_h share one eigenbasis, DST-I sine modes between
walls and DFT columns on a torus, so P and Q do too, and their symbols follow
in closed form from the stencil coefficients.  ``Modes`` is that basis:
GMRES and the direct solve share its orthonormal transforms, and the
preconditioner and the spectrum read it too.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dst, fft, ifft, irfft, rfft
from scipy.ndimage import correlate1d

__all__ = [
    "DIRICHLET",
    "PERIODIC",
    "Grid",
    "OperatorKind",
    "DiscreteSystem",
    "Modes",
    "GridTooSmallError",
    "ConfigurationError",
    "assemble_discrete_system",
]

DIRICHLET = "dirichlet"
PERIODIC = "periodic"

ZERO = "zero"
SCALAR = "scalar"
ADVECTION = "advection"


class GridTooSmallError(ValueError):
    pass


class ConfigurationError(ValueError):
    pass


@dataclass(frozen=True)
class Grid:
    """Uniform mesh of m cells on (0, length)."""

    length: float
    m: int
    boundary: str = DIRICHLET

    def __post_init__(self):
        if self.boundary not in (DIRICHLET, PERIODIC):
            raise ConfigurationError(f"unknown boundary {self.boundary!r}")
        if self.m < 3:
            raise GridTooSmallError(f"need at least 3 cells, got {self.m}")
        if not self.length > 0:
            raise ConfigurationError("domain length must be positive")

    @property
    def h(self) -> float:
        return self.length / self.m

    @property
    def n(self) -> int:
        """Number of unknowns: interior nodes for Dirichlet, all for periodic."""
        return self.m - 1 if self.boundary == DIRICHLET else self.m

    @property
    def nodes(self) -> np.ndarray:
        if self.boundary == DIRICHLET:
            return self.h * np.arange(1, self.m)
        return self.h * np.arange(self.m)


@dataclass(frozen=True)
class OperatorKind:
    """The lower-order operator: zero, delta*identity or delta*d/dx."""

    variant: str = ZERO
    delta: float = 0.0

    def __post_init__(self):
        if self.variant not in (ZERO, SCALAR, ADVECTION):
            raise ConfigurationError(f"unknown operator variant {self.variant!r}")
        if np.iscomplexobj(self.delta) or not np.isfinite(self.delta):
            raise ConfigurationError("delta must be a finite real number")


def _apply_stencil(stencil, x, periodic: bool, out, scale: float):
    """out = scale * sum_d stencil[d] x[j + d] along the last axis of x, for
    offsets d = -r..r: zero past the walls, wrapped on a torus.  correlate1d
    treats a stencil within DBL_EPSILON (absolute) of symmetric as symmetric,
    so it gets one scaled by a power of two to unit size, rounding unchanged."""
    size = 2.0 ** math.frexp(max(abs(c) for c in stencil))[1]
    correlate1d(x, np.divide(stencil, size), axis=-1, output=out,
                mode="wrap" if periodic else "constant")
    out *= scale * size


def _stencils(grid: Grid, eps_sq: float, op: OperatorKind):
    """Stencils of P and Q and the symbols of -Lap_h, P and Q.

    A symmetric stencil (c1, c0, c1) carries c0 + 2 c1 cos(theta_k) on mode k,
    theta_k = k pi/(n+1) for the sine modes between walls and 2 pi k/n for
    the DFT columns of a torus.  Between walls Lop_h = delta I, so P is the
    stencil (p1, p0, p1) and Q = 2 delta at offset 0.  On a torus Lop_h =
    delta Dh gives P = (c2, c1, c0, c1, c2), Q = (-delta/h, 0, delta/h) and
    the symbol i l_k, l_k = delta sin(theta_k)/h, so p_hat = eps^2 k_hat + l^2
    and q_hat = 2 i l.  Either way q_hat^2 + 4 p_hat = 4 eps^2 k_hat, exactly
    before rounding.
    """
    n, h = grid.n, grid.h
    w = 1.0 / (h * h)
    delta = 0.0 if op.variant == ZERO else op.delta
    walls = grid.boundary == DIRICHLET
    theta = (np.arange(1, n + 1) * np.pi / (n + 1) if walls
             else np.arange(n) * (2.0 * np.pi / n))
    cos = np.cos(theta)
    k_hat = 2.0 * w + 2.0 * (-w) * cos
    p1 = eps_sq * (-w)                      # offsets +-1 of P on either boundary
    if walls:
        p0 = eps_sq * (2.0 * w) - delta ** 2
        q_hat = np.full(n, 2.0 * delta)
        return (p1, p0, p1), (2.0 * delta,), k_hat, p0 + 2.0 * p1 * cos, q_hat
    wd = 1.0 / (2.0 * h)                    # Dh = (-wd, 0, wd)
    dd = delta ** 2 * (wd * wd)             # delta^2 Dh^2 = dd (1, 0, -2, 0, 1)
    P = (-dd, p1, eps_sq * (2.0 * w) + 2.0 * dd, p1, -dd)
    Q = (-2.0 * delta * wd, 0.0, 2.0 * delta * wd)
    l_hat = (delta / h) * np.sin(theta)
    return P, Q, k_hat, eps_sq * k_hat + l_hat * l_hat, 2j * l_hat


@dataclass(frozen=True)
class Modes:
    """The spatial eigenbasis of a ``DiscreteSystem``, cut to the K modes kept:
    DST-I sine modes between walls, DFT columns on a torus, or for real data
    on a torus (``half``) the n//2+1 of the rfft half spectrum.  ``forward``
    and ``inverse`` act on the last axis, both orthonormal.  Mode k has the
    symbols ``p[k]``, ``q[k]`` of P and Q and the eigenvalues ``mu[:, k]`` of
    D_k = [[0, 1], [p_k, q_k]].  ``weight``, left out of the transforms, is
    sqrt(2) on a half-spectrum mode that stands for a conjugate pair and 1
    elsewhere: ||x|| = ||weight * forward(x)||."""

    n: int
    periodic: bool
    half: bool
    p: np.ndarray = field(repr=False)
    q: np.ndarray = field(repr=False)
    mu: np.ndarray = field(repr=False)       # (2, K)
    weight: np.ndarray = field(repr=False)

    @property
    def dtype(self) -> np.dtype:
        """The dtype of ``forward`` of real data."""
        return np.dtype(complex if self.periodic else float)

    def forward(self, X, workers=1):
        if not self.periodic:
            return dst(X, type=1, norm="ortho", axis=-1, workers=workers)
        if self.half:
            return rfft(X, norm="ortho", axis=-1, workers=workers)
        return fft(X, norm="ortho", axis=-1, workers=workers)

    def inverse(self, Y, workers=1):
        if not self.periodic:
            return self.forward(Y, workers)
        if self.half:
            return irfft(Y, n=self.n, norm="ortho", axis=-1, workers=workers)
        return ifft(Y, norm="ortho", axis=-1, workers=workers)


@dataclass(frozen=True)
class DiscreteSystem:
    """Semi-discrete doubled system U' = D U + G, D = [[0, I], [P, Q]].

    Built from (grid, epsilon, op) alone: P = eps^2 (-Lap_h) - Lop_h^2 and
    Q = 2 Lop_h are their stencils ``p_stencil``, ``q_stencil``.  ``modes``
    gives the grid's eigenbasis, with the closed-form symbols of P and Q.

    eps may be real or purely imaginary (Schrodinger form); eps^2 is real in
    both cases, and delta is real, so P and Q are real.  The advection
    operator needs periodic wrap-around; the zero and scalar operators pair
    with Dirichlet walls.
    """

    grid: Grid
    epsilon: complex
    op: OperatorKind
    p_stencil: tuple = field(init=False, repr=False, compare=False)
    q_stencil: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        epsilon = complex(self.epsilon)
        if abs(epsilon.real) * abs(epsilon.imag) > 1e-300:
            raise ConfigurationError("epsilon must be real or purely imaginary")
        if self.op.variant == ADVECTION and not self.is_circulant:
            raise ConfigurationError("advection operator requires a periodic grid")
        if self.op.variant in (ZERO, SCALAR) and self.is_circulant:
            raise ConfigurationError(
                f"operator {self.op.variant!r} pairs with Dirichlet boundaries")
        object.__setattr__(self, "epsilon", epsilon)
        P, Q = _stencils(self.grid, (epsilon ** 2).real, self.op)[:2]
        object.__setattr__(self, "p_stencil", P)
        object.__setattr__(self, "q_stencil", Q)

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def dim(self) -> int:
        """State dimension 2n of the doubled system."""
        return 2 * self.grid.n

    @property
    def is_circulant(self) -> bool:
        return self.grid.boundary == PERIODIC

    def modes(self, real=False) -> Modes:
        """The eigenbasis, the half spectrum for ``real`` data on a torus.  mu =
        q/2 +- sqrt(eps^2 k_hat) keeps P's +-(delta d)^2 parts from cancelling."""
        n = self.n
        half = real and self.is_circulant
        K = n // 2 + 1 if half else n
        weight = np.ones(K)
        if half:
            weight[1: (n + 1) // 2] = np.sqrt(2.0)
        eps_sq = (self.epsilon ** 2).real
        k_hat, p, q = (a[:K] for a in _stencils(self.grid, eps_sq, self.op)[2:])
        l_hat, root = q / 2.0, np.sqrt(eps_sq * k_hat.astype(complex))
        return Modes(n=n, periodic=self.is_circulant, half=half, p=p, q=q,
                     mu=np.array([l_hat + root, l_hat - root]), weight=weight)

    def apply_D(self, x, scale=1.0):
        """scale * D @ x for a state vector of size 2n, or for each row of a
        stack (k, 2n), in one new array and no other of its size."""
        x = np.asarray(x)
        X = x.reshape(x.shape[:-1] + (2, self.n))
        out = np.empty(X.shape, np.result_type(x, float))
        (u, v), (out_u, out_v) = X.swapaxes(0, -2), out.swapaxes(0, -2)
        _apply_stencil(self.q_stencil, v, self.is_circulant, out_u, scale)
        _apply_stencil(self.p_stencil, u, self.is_circulant, out_v, scale)
        out_v += out_u                  # out_u held scale * Q v
        np.multiply(v, scale, out=out_u)
        return out.reshape(x.shape)


def assemble_discrete_system(grid: Grid, epsilon, op: OperatorKind) -> DiscreteSystem:
    """The doubled system of eps*(-Delta)^{1/2} and the operator op on the grid."""
    return DiscreteSystem(grid=grid, epsilon=epsilon, op=op)
