"""Spatial discretization: grids, central-difference operators, block system.

Second-order central differences on a uniform mesh over (0, L).  Dirichlet
grids keep the m-1 interior nodes (both endpoints excluded); periodic grids
keep m nodes with x_m identified with x_0.  ``laplacian_matrix`` returns the
positive (semi)definite approximation of -Laplacian, i.e. the stencil
(-1, 2, -1)/h^2.

The evolution after wave-form doubling is U' = D U + G with

    D = [[0, I], [P, Q]],   P ~ -eps^2 Laplacian - Lop^2,   Q ~ 2 Lop,

where Lop is 0, delta*I or delta*d/dx.  With the sign conventions above that
means P = eps^2 * laplacian_matrix - Lop_h^2, which for Lop = 0, eps = 1
reduces to (1/h^2) tridiag(-1, 2, -1); the round-trip test against the exact
single-mode decay pins this convention.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.fft import dst, idst

__all__ = [
    "DIRICHLET",
    "PERIODIC",
    "Grid",
    "OperatorKind",
    "DiscreteSystem",
    "GridTooSmallError",
    "ConfigurationError",
    "laplacian_matrix",
    "derivative_matrix",
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
        if not np.isfinite(self.delta):
            raise ConfigurationError("delta must be finite")


def laplacian_matrix(grid: Grid):
    """Sparse approximation of -Laplacian (positive (semi)definite)."""
    n, h = grid.n, grid.h
    w = 1.0 / (h * h)
    main = np.full(n, 2.0 * w)
    off = np.full(n - 1, -w)
    K = sp.diags([off, main, off], [-1, 0, 1], format="lil")
    if grid.boundary == PERIODIC:
        K[0, n - 1] = -w
        K[n - 1, 0] = -w
    return K.tocsr()


def derivative_matrix(grid: Grid):
    """Sparse central difference (u_{j+1} - u_{j-1}) / (2h), skew-symmetric."""
    n, h = grid.n, grid.h
    w = 1.0 / (2.0 * h)
    off = np.full(n - 1, w)
    Dh = sp.diags([-off, off], [-1, 1], format="lil")
    if grid.boundary == PERIODIC:
        Dh[0, n - 1] = -w
        Dh[n - 1, 0] = w
    return Dh.tocsr()


def _symbol(M, grid: Grid, scalar: bool = False) -> np.ndarray:
    """Eigenvalues of M in the grid's eigenbasis, ordered like its transform.

    Periodic grids need M circulant: its DFT symbol is the FFT of the first
    column.  Wall grids need M symmetric Toeplitz tridiagonal, (p1, p0, p1),
    whose discrete sine modes sin(j k pi/(n+1)) carry p0 + 2 p1 cos(k pi/(n+1)),
    k = 1..n; ``scalar`` narrows that to M = p0 I.  Anything else has no
    shared eigenbasis with the assembled operators and is rejected.
    """
    n = grid.n
    periodic = grid.boundary == PERIODIC
    kind = ("a multiple of the identity" if scalar else
            "circulant" if periodic else "symmetric Toeplitz tridiagonal")
    error = ConfigurationError(
        f"spatial operator must be {kind} of size {n} on a {grid.boundary} grid")
    M = M.tocsr()
    if M.shape != (n, n):
        raise error
    if not M.has_canonical_format:     # sum duplicates in a copy, not in place
        M = M.copy()
        M.sum_duplicates()
    row = np.repeat(np.arange(n), np.diff(M.indptr))
    col = np.zeros(n, dtype=M.dtype)
    first = M.indices == 0
    col[row[first]] = M.data[first]
    # every stored entry must equal the first-column entry on its diagonal,
    # and every diagonal with a nonzero entry must be complete
    diag = (row - M.indices) % n if periodic else np.abs(row - M.indices)
    full = np.full(n, n) if periodic else 2 * (n - np.arange(n))
    full[0] = n
    tol = 1e-12 * max(float(np.abs(col).max()), 1e-300)
    used = np.abs(col) > tol
    width = 1 if scalar else (n if periodic else 2)
    if (used[width:].any() or (np.abs(M.data - col[diag]) > tol).any()
            or (np.bincount(diag, minlength=n)[used] != full[used]).any()):
        raise error
    if periodic:
        return np.fft.fft(col)
    k = np.arange(1, n + 1)
    return col[0] + 2.0 * col[1] * np.cos(k * np.pi / (n + 1))


@dataclass(frozen=True)
class DiscreteSystem:
    """Semi-discrete doubled system U' = D U + G, D = [[0, I], [P, Q]].

    P and Q share one spatial eigenbasis, checked at construction: DFT
    columns on periodic grids, discrete sine modes (DST-I) between walls,
    where Q must be scalar.  ``to_modes``/``from_modes`` move the last axis of
    an array into and out of that basis, where P and Q act as the diagonals
    ``p_hat`` and ``q_hat``.
    """

    grid: Grid
    epsilon: complex
    op: OperatorKind
    P: sp.spmatrix = field(repr=False)
    Q: sp.spmatrix = field(repr=False)
    p_hat: np.ndarray = field(init=False, repr=False, compare=False)
    q_hat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "p_hat", _symbol(self.P, self.grid))
        object.__setattr__(self, "q_hat", _symbol(self.Q, self.grid,
                                                  scalar=not self.is_circulant))

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

    def to_modes(self, X):
        """Coefficients of X (last axis) in the eigenbasis: FFT or DST-I."""
        if self.is_circulant:
            return np.fft.fft(X, axis=-1)
        return dst(X, type=1, axis=-1)

    def from_modes(self, X):
        """Inverse of ``to_modes``."""
        if self.is_circulant:
            return np.fft.ifft(X, axis=-1)
        return idst(X, type=1, axis=-1)

    def apply_D(self, x):
        """D @ x for a state vector of size 2n (or a stack of rows (k, 2n))."""
        x = np.asarray(x)
        if x.ndim == 1:
            u, v = x[: self.n], x[self.n:]
            return np.concatenate([v, self.P @ u + self.Q @ v])
        u, v = x[:, : self.n], x[:, self.n:]
        return np.hstack([v, (self.P @ u.T).T + (self.Q @ v.T).T])

    def dense_D(self):
        n = self.n
        D = np.zeros((2 * n, 2 * n), dtype=np.result_type(self.P.dtype, float))
        D[:n, n:] = np.eye(n)
        D[n:, :n] = self.P.toarray()
        D[n:, n:] = self.Q.toarray()
        return D


def assemble_discrete_system(grid: Grid, epsilon, op: OperatorKind) -> DiscreteSystem:
    """Build P = eps^2*(-Lap_h) - Lop_h^2 and Q = 2*Lop_h on the grid.

    eps may be real or purely imaginary (Schrodinger form); eps^2 is real in
    both cases so P and Q stay real.  The advection operator needs periodic
    wrap-around; the zero and scalar operators pair with Dirichlet walls.
    """
    epsilon = complex(epsilon)
    if abs(epsilon.real) * abs(epsilon.imag) > 1e-300:
        raise ConfigurationError("epsilon must be real or purely imaginary")
    if op.variant == ADVECTION and grid.boundary != PERIODIC:
        raise ConfigurationError("advection operator requires a periodic grid")
    if op.variant in (ZERO, SCALAR) and grid.boundary != DIRICHLET:
        raise ConfigurationError(
            f"operator {op.variant!r} pairs with Dirichlet boundaries")

    K = laplacian_matrix(grid)
    eps_sq = (epsilon ** 2).real
    n = grid.n
    eye = sp.identity(n, format="csr")
    if op.variant == ZERO or (op.variant == SCALAR and op.delta == 0.0):
        P = (eps_sq * K).tocsr()
        Q = sp.csr_matrix((n, n))
    elif op.variant == SCALAR:
        P = (eps_sq * K - op.delta ** 2 * eye).tocsr()
        Q = (2.0 * op.delta * eye).tocsr()
    else:
        Dh = derivative_matrix(grid)
        P = (eps_sq * K - op.delta ** 2 * (Dh @ Dh)).tocsr()
        Q = (2.0 * op.delta * Dh).tocsr()
    return DiscreteSystem(grid=grid, epsilon=epsilon, op=op, P=P, Q=Q)
