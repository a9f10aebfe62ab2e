"""Generalized-midpoint boundary value scheme in all-at-once Kronecker form.

Interior rows advance by the explicit midpoint stencil (u_{j+1} - u_{j-1})/2
= tau f_j; the final row closes the system with one backward Euler step
u_N - u_{N-1} = tau f_N.  Collecting the N unknown time slices of the linear
ODE U' = D U + G into one vector gives

    (A (x) I - tau B (x) D) u = tau (B (x) I) g - a0 (x) U0,

with B = I for this scheme.
The operator is applied matrix free: block row j touches only slices j-1, j,
j+1.
"""

from dataclasses import dataclass, field

import numpy as np

from .doubling import DoubledState, SourceSpec, doubled_source, source_block_values

__all__ = [
    "GmmMatrices",
    "AllAtOnceSystem",
    "build_gmm",
    "assemble_all_at_once",
    "extract_trajectory",
]


@dataclass(frozen=True)
class GmmMatrices:
    """Time-stepping matrices A, B = I and a0 for N steps of size tau."""

    n_steps: int
    tau: float

    @property
    def a0(self) -> np.ndarray:
        a = np.zeros(self.n_steps)
        a[0] = -0.5
        return a

    @property
    def times(self) -> np.ndarray:
        return self.tau * np.arange(1, self.n_steps + 1)

    def A_dense(self) -> np.ndarray:
        N = self.n_steps
        A = np.zeros((N, N))
        idx = np.arange(N - 1)
        A[idx[:-1], idx[:-1] + 1] = 0.5
        A[N - 2, N - 1] = 0.5
        A[idx[1:], idx[1:] - 1] = -0.5
        A[N - 1, N - 2] = -1.0
        A[N - 1, N - 1] = 1.0
        return A

    def apply_A(self, X: np.ndarray) -> np.ndarray:
        """A acting across the time axis of X with shape (N, dim)."""
        N = self.n_steps
        out = np.zeros_like(X)
        out[: N - 1] = 0.5 * X[1:N]
        out[1: N - 1] -= 0.5 * X[: N - 2]
        out[N - 1] = X[N - 1] - X[N - 2]
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

    def apply(self, x: np.ndarray) -> np.ndarray:
        """M @ x without materializing M."""
        N, dim = self.gmm.n_steps, self.sys.dim
        X = np.asarray(x).reshape(N, dim)
        out = self.gmm.apply_A(X)
        out -= self.gmm.tau * self.sys.apply_D(X)
        return out.ravel()

    def materialize(self) -> np.ndarray:
        """Dense M for small instances (tests and eigenvalue studies)."""
        N, dim = self.gmm.n_steps, self.sys.dim
        return (np.kron(self.gmm.A_dense(), np.eye(dim))
                - self.gmm.tau * np.kron(np.eye(N), self.sys.dense_D()))


def assemble_all_at_once(gmm: GmmMatrices, sys, src: SourceSpec,
                         u0v0: DoubledState, hmode: str = "exact",
                         weideman_n: int = 256) -> AllAtOnceSystem:
    """Build the right-hand side for initial state (u0, v0) and source spec.

    Every Hilbert-transformed spatial profile in the source is evaluated once
    and reused at all N time nodes.
    """
    N, dim = gmm.n_steps, sys.dim
    U0 = u0v0.stack()
    if U0.size != dim:
        raise ValueError(f"initial state has size {U0.size}, expected {dim}")
    tau = gmm.tau
    if src.is_zero:
        cache, g0 = None, np.zeros(dim)
    else:
        cache = source_block_values(src, sys, hmode, weideman_n)
        g0 = doubled_source(src, sys, 0.0, hmode, _cache=cache)   # for the dtype
    dtype = np.result_type(U0.dtype, g0.dtype, float)
    rhs = np.zeros((N, dim), dtype=dtype)
    if not src.is_zero:
        for j, t in enumerate(gmm.times):
            rhs[j] = tau * doubled_source(src, sys, t, hmode, _cache=cache)
    # -a0 (x) U0 with a0 = (-1/2, 0, ..., 0)
    rhs[0] += 0.5 * U0
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
