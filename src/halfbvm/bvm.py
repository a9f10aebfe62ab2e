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
The rhs is kept separable, as the source is: each term T_i(t) F_i(x) gives
the column T_i(t_j) of ``times`` and the spatial vector tau G_i of
``vectors``, and -a0 (x) U0 the column e_0 and the vector -a0[0] U0.  So b =
times @ vectors has rank r <= terms + 1, and a solver transforms r spatial
vectors, not N time rows.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Assembly no longer calls doubled_source, but perfbench wraps it in this
# namespace; it stays until the benchmark's targets are revised (ROADMAP
# item 1).
from .doubling import (DoubledState, SourceSpec, doubled_source,  # noqa: F401
                       source_block_values)

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


# Rows formed from the rhs factors, and their products, pass through scratch
# arrays of at most SCRATCH_BYTES.  Temporaries of a whole row block on each
# pool thread made glibc trim and re-fault its heap on every block (on a
# 2-core VM, drift_quartic's true residual took 2.5x as long); one-row
# scratches cost a numpy call per row (+2.3 ms on walls_gmres's 160-row true
# residual).
SCRATCH_BYTES = 2 ** 18


def _row_chunks(n_rows: int, row_bytes: int) -> list:
    """Slices of n_rows rows of row_bytes each, at most SCRATCH_BYTES apiece
    (one row at least)."""
    step = max(1, SCRATCH_BYTES // max(row_bytes, 1))
    return [slice(a, min(a + step, n_rows)) for a in range(0, n_rows, step)]


def _add_terms(T, S, out):
    """out = T @ S, T (rows, r) and S (r, d), by ufuncs term by term in
    order, each product after the first through one ``_row_chunks`` scratch:
    no BLAS call, so any thread may run it, no temporary of out's size, and
    every row comes out the same bits however the rows are split."""
    np.multiply(T[:, :1], S[0], out=out)
    if len(S) > 1:
        dtype = np.result_type(T, S)
        chunks = _row_chunks(len(T), S.shape[1] * dtype.itemsize)
        tmp = np.empty((chunks[0].stop, S.shape[1]), dtype)
        for c in chunks:
            t = tmp[: c.stop - c.start]
            for i in range(1, len(S)):
                out[c] += np.multiply(T[c, i: i + 1], S[i], out=t)
    return out


@dataclass(frozen=True)
class AllAtOnceSystem:
    """Matrix-free space-time operator M = A (x) I - tau B (x) D with its rhs
    b = times @ vectors: ``times`` (N, r) the time coefficients and
    ``vectors`` (r, 2n) the spatial vectors (module docstring).  A dense b is
    given as (I_N, its N rows).  Operator-only systems leave both None."""

    gmm: GmmMatrices
    sys: object
    times: np.ndarray = field(default=None, repr=False)
    vectors: np.ndarray = field(default=None, repr=False)
    initial: DoubledState = None

    @property
    def shape(self):
        n = self.gmm.n_steps * self.sys.dim
        return (n, n)

    @property
    def dtype(self) -> np.dtype:
        return np.result_type(self.times, self.vectors)

    @cached_property
    def dense(self) -> bool:
        """b given by its rows: ``times`` is the identity."""
        T = self.times
        return T.shape[0] == T.shape[1] and np.array_equal(T, np.eye(len(T)))

    def rhs_rows(self, rows=slice(None), out=None) -> np.ndarray:
        """Rows ``rows`` (a slice) of b, (rows, 2n), formed from the factors
        into ``out`` when given, else into a new array (``_add_terms``).  A
        dense b gives its own rows, copied only into an ``out``."""
        if self.dense:
            if out is None:
                return self.vectors[rows]
            out[...] = self.vectors[rows]
            return out
        T = self.times[rows]
        if out is None:
            out = np.empty((len(T), self.vectors.shape[1]), self.dtype)
        return _add_terms(T, self.vectors, out)

    @property
    def rhs(self) -> np.ndarray:
        """b = times @ vectors, flat, in one new array: for tests and checks;
        the solvers read the factors."""
        b = np.empty((self.gmm.n_steps, self.vectors.shape[1]), self.dtype)
        return self.rhs_rows(out=b).ravel()

    def apply(self, x: np.ndarray, rows=slice(None)) -> np.ndarray:
        """M @ x without materializing M: A's table added to -tau D X.  Given
        a slice ``rows`` of the N time rows, only those rows of Mx, flat."""
        X = np.asarray(x).reshape(self.gmm.n_steps, self.sys.dim)
        return self.gmm.apply_A(X, self.sys.apply_D(X[rows], -self.gmm.tau),
                                rows).ravel()


def assemble_all_at_once(gmm: GmmMatrices, sys, src: SourceSpec,
                         u0v0: DoubledState) -> AllAtOnceSystem:
    """The system of initial state (u0, v0) and source spec, its rhs in
    factors: each term's time function at the N time nodes and its
    Hilbert-transformed spatial vector, evaluated once and scaled by tau,
    then e_0 and -a0[0] U0.  Nothing N x 2n is formed.
    """
    U0 = u0v0.stack()
    if U0.size != sys.dim:
        raise ValueError(f"initial state has size {U0.size}, expected {sys.dim}")
    terms = source_block_values(src, sys)
    e0 = np.zeros(gmm.n_steps)
    e0[0] = 1.0
    times = np.column_stack([time_fn(gmm.times) for time_fn, _ in terms] + [e0])
    dtype = np.result_type(U0, *(G for _, G in terms),
                           complex if sys.epsilon.imag != 0 else float)
    vectors = np.array([gmm.tau * G for _, G in terms] + [-gmm.a0[0] * U0], dtype)
    return AllAtOnceSystem(gmm=gmm, sys=sys, times=times, vectors=vectors,
                           initial=u0v0)


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
