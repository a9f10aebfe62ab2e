import numpy as np
import scipy.sparse as sp
from hypothesis import settings

import halfbvm as hb
from halfbvm.bvm import INTERIOR, AllAtOnceSystem
from halfbvm.krylov import build_preconditioner, direct_solve

# same examples on every run, no time limit: property tests cannot flake
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")


class ToySystem:
    """Minimal stand-in for a discrete system: a given dense matrix D."""

    def __init__(self, D):
        self.D = np.asarray(D, dtype=float)
        self.dim = self.D.shape[0]

    def apply_D(self, x, scale=1.0):
        return scale * (np.asarray(x) @ self.D.T)


def dense_system(gmm, sys, rhs):
    """The all-at-once system of a dense rhs: the identity as its time
    coefficients and b's N rows as its spatial vectors."""
    N = gmm.n_steps
    return AllAtOnceSystem(gmm=gmm, sys=sys, times=np.eye(N),
                           vectors=np.reshape(rhs, (N, -1)))


def dense_D(sys):
    """Dense D of a discrete system, one apply to the identity."""
    return sys.apply_D(np.eye(sys.dim)).T


def A_dense(gmm):
    """Dense A of the time-stepping scheme, from its coefficient table."""
    return gmm.apply_A(np.eye(gmm.n_steps), np.zeros((gmm.n_steps,) * 2))


def materialize(system):
    """Dense M = A (x) I - tau I (x) D of a small all-at-once system."""
    N, dim = system.gmm.n_steps, system.sys.dim
    return (np.kron(A_dense(system.gmm), np.eye(dim))
            - system.gmm.tau * np.kron(np.eye(N), dense_D(system.sys)))


def laplacian_matrix(grid):
    """Sparse -Laplacian (-1, 2, -1)/h^2 on the grid: the reference that the
    stencils and closed-form symbols of ``DiscreteSystem`` are checked
    against."""
    n, h = grid.n, grid.h
    w = 1.0 / (h * h)
    main = np.full(n, 2.0 * w)
    off = np.full(n - 1, -w)
    K = sp.diags([off, main, off], [-1, 0, 1], format="lil")
    if grid.boundary == hb.PERIODIC:
        K[0, n - 1] = -w
        K[n - 1, 0] = -w
    return K.tocsr()


def derivative_matrix(grid):
    """Sparse central difference (u_{j+1} - u_{j-1}) / (2h), skew-symmetric."""
    n, h = grid.n, grid.h
    w = 1.0 / (2.0 * h)
    off = np.full(n - 1, w)
    Dh = sp.diags([-off, off], [-1, 1], format="lil")
    if grid.boundary == hb.PERIODIC:
        Dh[0, n - 1] = -w
        Dh[n - 1, 0] = w
    return Dh.tocsr()


def materialize_omega_circulant(gmm, omega: complex) -> np.ndarray:
    """Dense omega(A) for validation: column shifts carry the omega wrap.

    Its first column holds the interior row of A on the diagonals, the
    superdiagonal omega-wrapped into the last entry."""
    N = gmm.n_steps
    below, diag, above = INTERIOR
    c = np.zeros(N, dtype=complex)
    c[0], c[1] = diag, below
    c[N - 1] += above / omega
    W = np.zeros((N, N), dtype=complex)
    for j in range(N):
        for k in range(N):
            s = (j - k) % N
            W[j, k] = c[s] * (omega if j < k and s else 1.0)
    return W


def solve_problem(pb, h=None, m=None, n_steps=16, T=2.0, method="gmres",
                  tol=1e-10, max_iter=800):
    """Discretize, assemble and solve one named problem; returns run data."""
    run = hb.setup_run(pb, h=h, m=m)
    gmm = hb.build_gmm(n_steps, T)
    system = hb.assemble_all_at_once(gmm, run.sys, run.source, run.u0v0)
    if method == "direct":
        report = direct_solve(system)
    else:
        pre = build_preconditioner(gmm, run.sys)
        report = hb.gmres_solve(system, pre, tol=tol, max_iter=max_iter)
    traj = hb.extract_trajectory(report.solution, system)
    return run, gmm, system, report, traj


def fitted_slope(hs, errs):
    return float(np.polyfit(np.log(np.asarray(hs)), np.log(np.asarray(errs)), 1)[0])


def assert_multiset_close(a, b, tol):
    """Greedy nearest-neighbour matching of two complex multisets."""
    a = list(np.asarray(a, dtype=complex))
    b = list(np.asarray(b, dtype=complex))
    assert len(a) == len(b)
    for z in a:
        dist = [abs(z - w) for w in b]
        j = int(np.argmin(dist))
        assert dist[j] < tol, f"no partner for {z} within {tol} (closest {dist[j]})"
        b.pop(j)
