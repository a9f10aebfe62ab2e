"""Generalized-midpoint boundary value scheme in all-at-once Kronecker form.

Interior rows advance by the explicit midpoint stencil (u_{j+1} - u_{j-1})/2
= tau f_j; the final row closes the system with one backward Euler step
u_N - u_{N-1} = tau f_N.  Collecting the N unknown time slices of the linear
ODE U' = D U + G into one vector gives

    (A (x) I - tau B (x) D) u = tau (B (x) I) g - a0 (x) U0,

with B = I for this scheme.
The coefficient table below is the only place the scheme is written down:
A, a0, the rhs, the stability polynomials (``spectrum.gmm_polynomials``)
and, through their roots, the sweeps of the direct solve all read it; the
omega-circulant preconditioner (``krylov``) takes its interior row's symbol
in closed form.
The operator is applied matrix free: block row j touches only slices j-1, j,
j+1, and D acts within a slice from its spatial stencils.
"""

from dataclasses import dataclass, field

import numpy as np

from .doubling import DoubledState, SourceSpec, doubled_source, source_block_values

__all__ = [
    "INTERIOR",
    "INTERIOR_B",
    "FINAL",
    "GmmMatrices",
    "AllAtOnceSystem",
    "build_gmm",
    "assemble_all_at_once",
    "extract_trajectory",
]

# The scheme's coefficient table.  Rows 0..N-2 of A carry INTERIOR at the
# offsets -1, 0, +1 from the diagonal (offset -1 of row 0 is the initial
# state, moved to the rhs as -a0 (x) U0); the last row carries FINAL at the
# offsets -1, 0.  INTERIOR_B is the interior row of B: B = I, so the system
# couples tau*D only within a time slice.
INTERIOR = (-0.5, 0.0, 0.5)
INTERIOR_B = (0.0, 1.0, 0.0)
FINAL = (-1.0, 1.0)


@dataclass(frozen=True)
class GmmMatrices:
    """Time-stepping matrices A, B = I and a0 for N steps of size tau."""

    n_steps: int
    tau: float

    @property
    def a0(self) -> np.ndarray:
        a = np.zeros(self.n_steps)
        a[0] = INTERIOR[0]
        return a

    @property
    def times(self) -> np.ndarray:
        return self.tau * np.arange(1, self.n_steps + 1)

    def apply_A(self, X: np.ndarray, out: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Add the rows ``rows`` (all N by default) of A X to ``out``, A
        acting across the time axis of X with shape (N, dim); ``out`` holds
        just those rows.  Each interior band passes through one scratch half
        as wide as ``out``: no temporary of its size is made."""
        N, dim = X.shape
        lo, hi, _ = rows.indices(N)
        top = min(hi, N - 1)                   # the interior rows end at N - 2
        tmp = np.empty((hi - lo, dim - dim // 2), out.dtype)
        for cols in (slice(0, dim // 2), slice(dim // 2, dim)):
            for d, a in zip((-1, 0, 1), INTERIOR):
                if a:
                    s = max(lo, -d)            # row 0 has no slice before it
                    t = np.multiply(X[s + d: top + d, cols], a,
                                    out=tmp[s - lo: top - lo, : cols.stop - cols.start])
                    out[s - lo: top - lo, cols] += t
        if hi == N:
            out[N - 1 - lo] += FINAL[0] * X[N - 2] + FINAL[1] * X[N - 1]
        return out


def build_gmm(N: int, T: float) -> GmmMatrices:
    """Midpoint-with-final-Euler matrices for N uniform steps over [0, T]."""
    if N < 2:
        raise ValueError("need at least 2 time steps")
    if not T > 0:
        raise ValueError("final time must be positive")
    return GmmMatrices(n_steps=N, tau=T / N)


@dataclass(frozen=True)
class AllAtOnceSystem:
    """Matrix-free space-time operator M = A (x) I - tau B (x) D with its rhs."""

    gmm: GmmMatrices
    sys: object
    rhs: np.ndarray = field(repr=False)
    initial: DoubledState = None

    @property
    def shape(self):
        n = self.gmm.n_steps * self.sys.dim
        return (n, n)

    def apply(self, x: np.ndarray, rows=slice(None)) -> np.ndarray:
        """M @ x without materializing M: A's table added to -tau D X.  Given
        a slice ``rows`` of the N time rows, only those rows of Mx, flat."""
        X = np.asarray(x).reshape(self.gmm.n_steps, self.sys.dim)
        return self.gmm.apply_A(X, self.sys.apply_D(X[rows], -self.gmm.tau),
                                rows).ravel()


def assemble_all_at_once(gmm: GmmMatrices, sys, src: SourceSpec,
                         u0v0: DoubledState) -> AllAtOnceSystem:
    """Build the right-hand side for initial state (u0, v0) and source spec.

    Every Hilbert-transformed spatial profile in the source is evaluated once
    and reused at all N time nodes.
    """
    U0 = u0v0.stack()
    if U0.size != sys.dim:
        raise ValueError(f"initial state has size {U0.size}, expected {sys.dim}")
    cache = None if src.is_zero else source_block_values(src, sys)
    rhs = doubled_source(src, sys, gmm.times, _cache=cache)   # a new array
    rhs *= gmm.tau
    rhs = rhs.astype(np.result_type(rhs, U0), copy=False)
    rhs[0] -= gmm.a0[0] * U0               # -a0 (x) U0: a0 is zero past row 0
    return AllAtOnceSystem(gmm=gmm, sys=sys, rhs=rhs.ravel(), initial=u0v0)


def extract_trajectory(x: np.ndarray, system: AllAtOnceSystem):
    """Unstack a solution vector into N+1 states, the initial one first."""
    N, dim = system.gmm.n_steps, system.sys.dim
    x = np.asarray(x)
    if x.size != N * dim:
        raise ValueError(f"solution vector has size {x.size}, expected {N * dim}")
    X = x.reshape(N, dim)
    states = [system.initial]
    states.extend(DoubledState.unstack(X[j]) for j in range(N))
    return states
