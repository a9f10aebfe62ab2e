"""GMRES per spatial mode under the omega-circulant all-at-once preconditioner.

The space-time operator M = A (x) I - tau I (x) D is block diagonal in the
spatial eigenbasis of D, ``spatial.Modes``: DST-I modes between walls, DFT
columns on a torus.  Mode k carries the 2x2 D_k = [[0, 1], [p_k, q_k]] from
the basis's symbols ``p`` and ``q``.  The preconditioner replaces A by its
omega-circulant approximation, whose Toeplitz interior stencil wraps around
with a unimodular factor omega = e^{i theta}:

    M_k = A (x) I_2 - tau I (x) D_k,   P_k = omega(A) (x) I_2 - tau I (x) D_k,
    omega(A) = Theta* F* Lambda F Theta,   Theta = diag(omega^{-s/N}).

Applying P_k^{-1} costs a Theta-scaled FFT across time, one closed-form 2x2
solve (lam_j I - tau D_k) per frequency and an inverse FFT.

omega(A) differs from A only in the first-row corner entry and the final
(backward Euler) row, so P_k - M_k has rank <= 4 and P_k^{-1} M_k = I + (rank
<= 4).  Its minimal polynomial has degree <= 5: GMRES on one mode ends within
5 iterations.  ``gmres_solve`` therefore moves the rhs once into the
orthonormal modes (the half spectrum for real data on a torus under a real
omega), scales each by the basis's pair ``weight``, runs one GMRES over
the batch of modes (``gmres``) and moves the solution back once.  The modes
iterate in lockstep and stop together on sqrt(sum_k |g_k|^2) / beta0 <= tol:
the weighted transform keeps the 2-norm, so that is the preconditioned
residual of the whole system in physical space.  ``direct_solve`` works in
the same orthonormal modes, without the weight.  One GMRES on the whole
system stops on the same test, and its Krylov space projected onto mode k
lies in that mode's own, so the lockstep count is never above it.  The true
residual ||b - Mx|| / ||b|| is formed in physical space from the operator's
stencils and coefficient table, one block of time rows at a time
(``_true_residual``).  A GMRES report's ``timings`` are the stages
``GMRES_STAGES``: transform, operator, preconditioner, orthogonalisation,
inverse_transform and true_residual.

Block j is singular where lam_j = i sin((2 pi j - theta)/N) meets tau*spec(D),
as at theta = pi for odd N on a torus.  Both sets are closed forms: theta is pi
while their gap is at least GAP_MIN, else the angle of THETA_GRID with most gap.
"""

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import fft, ifft

from .bvm import FINAL, AllAtOnceSystem, GmmMatrices
from .spectrum import eigenvalues_of_D, gmm_polynomials

TRUE_RESIDUAL_MAX = 1e-8   # ||b - Mx|| / ||b|| above which a direct solve failed
# GMRES has converged when the preconditioned residual reaches tol and the
# true residual is at most max(TRUE_RESIDUAL_MAX, GMRES_SLACK * tol).  Measured
# true residual / tol at convergence: 2.7 (half_diffusion_manufactured,
# h = 0.05, T = 4), 1.6 (mass_transfer_manufactured, h = 0.125), 1.2
# (acceptance criterion 6, tol 1e-8); 2e3 to 7e5 at gaps below GAP_MIN.
GMRES_SLACK = 1e3
# Least gap from the lam_j to tau*spec(D).  A block inverse grows like 1/gap
# (1/gap^2 on eps = 0 Jordan blocks): at tol 1e-10 GMRES misses the true
# residual 1e-7 below gaps of 1e-5 (advection_mms) and 6e-5 (transport_limit,
# N = 5).  Singular blocks: <= 5.6e-17; criterion 9 converges at 6.1e-5.
GAP_MIN = 5e-5
# pi * (1 + k/64), k = 0, -1, 1, ..., 63: nearest pi first, as argmax ties go
THETA_GRID = np.pi * (1.0 + np.array(sorted(range(-63, 64), key=abs)) / 64.0)
GMRES_STAGES = ("transform", "operator", "preconditioner", "orthogonalisation",
                "inverse_transform", "true_residual")
# The direct solve's row-independent stages (spatial transforms, 2x2
# rotations, coupling update) and every true residual take the N time rows in
# blocks of about BLOCK_BYTES, one core's L2.  On a 2-core Xeon VM (2 MB L2
# per core) drift_quartic's direct_solve, 641 rows of 102 KB on 2 threads,
# took 0.30, 0.28, 0.26, 0.28 and 0.28 s at 0.5, 1, 2, 4 and 8 MB (medians
# of 12, interleaved), and 0.49 s as one block.
BLOCK_BYTES = 2 ** 21
# At most this many threads run the row blocks: the gains above were
# measured on two cores, and more threads are unmeasured.
MAX_THREADS = 2

__all__ = [
    "TRUE_RESIDUAL_MAX", "GMRES_SLACK", "OmegaPreconditioner", "SolveReport",
    "build_preconditioner", "apply_preconditioner",
    "solve_frequency_block", "gmres", "gmres_solve", "direct_solve",
    "usable_cpus",
]


def _frequencies(N: int, theta: float) -> np.ndarray:
    """lam_j = i sin((2 pi j - theta)/N), j = 0..N-1: the symbol of A's
    interior row (-1/2, 0, 1/2) at the omega-shifted Fourier frequencies."""
    return 1j * np.sin((2.0 * np.pi * np.arange(N) - theta) / N)


@dataclass(frozen=True)
class OmegaPreconditioner:
    """The omega-circulant preconditioner for one (gmm, sys, tau): theta, its
    gap, Lambda and Theta; the blocks come from ``sys``'s symbols."""

    theta: float
    gap: float                         # distance from the lam_j to tau*spec(D)
    n_steps: int
    tau: float
    theta_scaling: np.ndarray = field(repr=False)
    lambda_omega: np.ndarray = field(repr=False)
    sys: object = field(repr=False)

    @property
    def real(self) -> bool:
        """omega = +-1: P is real, and so is P^{-1} r for real r."""
        return bool(abs(np.sin(self.theta)) < 1e-12)

    def apply(self, r: np.ndarray) -> np.ndarray:
        return apply_preconditioner(self, r)


def _gap(lam, z) -> float:
    """Distance between the sets {lam_j} and z: the lam_j lie on the imaginary
    axis, so the nearest to a point of z is one of the two around its Im z."""
    s = np.sort(lam.imag)
    near = s[np.clip(np.searchsorted(s, z.imag) - [[1], [0]], 0, len(s) - 1)]
    return float(np.abs(1j * near - z).min())


def build_preconditioner(gmm: GmmMatrices, sys,
                         theta: float = None) -> OmegaPreconditioner:
    """Pick theta (module docstring) unless given, then Lambda and Theta;
    ValueError if the gap is below GAP_MIN.  Nothing N x n is formed: the
    block solve reads the symbols on each apply."""
    N, tau = gmm.n_steps, gmm.tau
    z = tau * eigenvalues_of_D(sys)

    def gap(th):
        return _gap(_frequencies(N, th), z)
    if theta is None and gap(np.pi) < GAP_MIN:
        theta = THETA_GRID[np.argmax([gap(th) for th in THETA_GRID])]
    theta = np.pi if theta is None else float(theta)
    g = gap(theta)
    if not g >= GAP_MIN:
        raise ValueError(f"theta = {theta:.6g}: block gap {g:.3g} < GAP_MIN")
    scaling = np.exp(-1j * theta * np.arange(N) / N)   # Theta, omega^{-s/N}
    return OmegaPreconditioner(theta=theta, gap=g, n_steps=N, tau=tau,
                               theta_scaling=scaling,
                               lambda_omega=_frequencies(N, theta), sys=sys)


def _block_tables(lam, modes, tau):
    """The (K, F) tables shift = lam - tau q and denom = lam shift - tau^2 p
    of ``_solve_blocks``, for the K ``modes`` and frequencies lam."""
    shift = lam - tau * modes.q[:, None]
    return shift, lam * shift - tau ** 2 * modes.p[:, None]


def _solve_blocks(lam, shift, denom, tau, V):
    """Overwrite V (K, 2, F) with the solutions (u, v) of (lam_f I - tau D_k)
    (u, v) = (r1, r2) = V[k, :, f], D_k = [[0, 1], [p_k, q_k]], for every mode
    k and frequency f, given ``_block_tables``.  The first row gives v = (lam
    u - r1)/tau; put into the second, it leaves [lam (lam - tau q) - tau^2 p]
    u = tau r2 + (lam - tau q) r1."""
    u = shift * V[:, 0]
    u += np.multiply(tau, V[:, 1], out=V[:, 1])
    u /= denom
    v = V[:, 1]
    np.multiply(lam, u, out=v)
    v -= V[:, 0]
    v /= tau
    V[:, 0] = u
    return V


def _precondition_modes(p: OmegaPreconditioner, tables, R):
    """P_k^{-1} R_k for mode vectors R (K, 2, N), time last, given the
    modes' ``_block_tables``: the Theta-scaled FFT across time, the 2x2
    frequency blocks, the inverse FFT.  No spatial transform; real R stays
    real under a real omega."""
    V = fft(R * np.conj(p.theta_scaling), axis=-1, overwrite_x=True)
    V = ifft(_solve_blocks(p.lambda_omega, *tables, p.tau, V), axis=-1,
             overwrite_x=True)
    V *= p.theta_scaling
    if p.real and not np.iscomplexobj(R):
        return np.ascontiguousarray(V.real)
    return V


def solve_frequency_block(p: OmegaPreconditioner, j: int, v1: np.ndarray) -> np.ndarray:
    """Solve (lam_j I - tau D) v2 = v1 for one 2n frequency block: into the
    spatial modes, the 2x2 block solves, back."""
    modes = p.sys.modes()
    V = modes.forward(np.asarray(v1, dtype=complex).reshape(2, modes.n))
    tables = _block_tables(p.lambda_omega[j], modes, p.tau)
    _solve_blocks(p.lambda_omega[j], *tables, p.tau, V.T[:, :, None])
    return modes.inverse(V).ravel()


def apply_preconditioner(p: OmegaPreconditioner, r: np.ndarray) -> np.ndarray:
    """z = P^{-1} r in physical space: into the spatial modes, the mode-space
    solve of ``_precondition_modes``, back."""
    modes = p.sys.modes(p.real and not np.iscomplexobj(r))
    R = modes.forward(np.asarray(r).reshape(p.n_steps, 2, modes.n))
    Z = _precondition_modes(p, _block_tables(p.lambda_omega, modes, p.tau),
                            R.transpose(2, 1, 0))
    return modes.inverse(Z.transpose(2, 1, 0)).ravel()


@dataclass
class SolveReport:
    """What a linear solve produced and how it got there."""

    solution: np.ndarray = field(repr=False)
    iterations: int
    residual_history: list
    converged: bool
    wall_time: float
    true_residual: float = None     # ||b - Mx|| / ||b||
    path: str = None                # "direct", "gmres+omega" or "gmres"
    half_spectrum: bool = False     # ``Modes.half``: real data on a torus
    theta: float = None             # the preconditioner's theta and its gap,
    gap: float = None               # None without one
    timings: dict = field(default_factory=dict)   # stage -> seconds
    marginal_modes: int = None      # direct: mode components with tau*mu on [-i, i]
    modes: int = None               # GMRES: the batch size
    # GMRES: ||P^{-1} b|| (||b|| without a preconditioner), the residual
    # history's base, summed over the batch in lockstep
    rhs_norm: float = None
    # ||P^{-1}(b - Mx)|| / ||P^{-1} b|| in physical space, under a preconditioner
    preconditioned_residual: float = None
    threads: int = 1                # threads that ran the row blocks, 1 inline


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity (e.g. taskset) bounds it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:             # no affinity call on this platform
        return os.cpu_count() or 1


class _RowBlocks:
    """The N time rows of a solve in blocks of about BLOCK_BYTES.  ``map``
    runs a task on each block, the tasks writing disjoint rows, and returns
    their results in block order.  ``threads`` is the least of ``limit``
    (default ``usable_cpus()``), MAX_THREADS and the block count; with one,
    the calling thread runs the blocks in order, else a pool of that many."""

    def __init__(self, N: int, row_bytes: int, limit: int = None):
        size = max(1, BLOCK_BYTES // max(row_bytes, 1))
        self.blocks = [slice(a, min(a + size, N)) for a in range(0, N, size)]
        limit = usable_cpus() if limit is None else limit
        self.threads = max(1, min(limit, MAX_THREADS, len(self.blocks)))
        self._pool = ThreadPoolExecutor(self.threads) if self.threads > 1 else None

    def map(self, task) -> list:
        if self._pool is None:
            return [task(r) for r in self.blocks]
        return list(self._pool.map(task, self.blocks))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown()


def _sumsq(a) -> float:
    return float(np.vdot(a, a).real)


def _true_residual(system: AllAtOnceSystem, x, rows: _RowBlocks, out=None) -> float:
    """||b - Mx|| / ||b|| in physical space, one row block at a time.

    ``AllAtOnceSystem.apply`` forms each block's rows of Mx from the block
    and its halo rows.  b minus them goes into ``out`` (b's shape) when
    given, else into the block's own apply output.  The squared norms of the
    blocks add up in block order, so the result does not depend on the
    thread count.
    """
    N = system.gmm.n_steps
    B = np.asarray(system.rhs).reshape(N, -1)
    O = None if out is None else out.reshape(N, -1)

    def block(r):
        Mx = system.apply(x, r).reshape(-1, B.shape[1])
        dest = O[r] if O is not None else (Mx if np.can_cast(B.dtype, Mx.dtype)
                                           else None)
        return _sumsq(np.subtract(B[r], Mx, out=dest)), _sumsq(B[r])
    parts = rows.map(block)
    rr, bb = sum(r for r, _ in parts), sum(b for _, b in parts)
    return float(np.sqrt(rr) / max(np.sqrt(bb), 1e-300))


def _project(basis, w, cplx):
    """<v_i, w> for each row v_i of each system's basis (K, j, L)."""
    if cplx:                           # conjugate the vector, not the basis
        return np.matmul(basis, w.conj()[:, :, None])[:, :, 0].conj()
    return np.matmul(basis, w[:, :, None])[:, :, 0]


def _combine(y, basis):
    """sum_i y_i v_i for each system: y (K, j), basis (K, j, L)."""
    return np.matmul(y[:, None, :], basis)[:, 0]


def _update(basis, cols, g):
    """The correction sum_i y_i v_i of each system, R y = g by back
    substitution on the rotated Hessenberg columns ``cols``."""
    y = np.stack(g[: len(cols)], axis=1)
    for c in range(len(cols) - 1, -1, -1):
        y[:, c] /= cols[c][:, c]
        y[:, :c] -= cols[c][:, :c] * y[:, c: c + 1]
    return _combine(y, basis[:, : len(cols)])


def gmres(apply_op, B, precond=None, tol=1e-10, max_iter=500, restart=None,
          residual=None):
    """Left-preconditioned GMRES on a batch of independent systems, in lockstep.

    B is (K, L), one rhs per system; ``apply_op(X, idx)`` and ``precond(X,
    idx)`` map the rows X (len(idx), L) of the systems ``idx``.  A 1-D b is a
    batch of one, and both then map one vector.  Each system has its own
    Arnoldi basis (CGS2), Hessenberg columns and Givens rotations.  All take
    one step per iteration and stop together when sqrt(sum_k |g_k|^2), g_k
    system k's residual estimate, reaches tol times the 2-norm of the whole
    preconditioned rhs (``rhs_norm``).  A system whose residual is exactly
    zero (a zero rhs) or whose Krylov space closes exactly (hk = 0) leaves
    the batch; its last residual still counts.  A basis grows with the
    iterations taken, to at most min(restart, L) vectors; restart defaults
    to max_iter.

    The true residual is formed once, at exit, by ``residual(X)``, by default
    ||B - AX|| / ||B|| over the whole batch; the solve has converged only if
    it is at most max(TRUE_RESIDUAL_MAX, GMRES_SLACK * tol) too.  Returns a
    SolveReport whose solution has B's shape; non-convergence is reported,
    not raised.
    """
    if restart is not None and restart < 1:
        raise ValueError(f"restart must be at least 1, got {restart}")
    t0 = time.perf_counter()
    b = np.asarray(B)
    if b.ndim == 1:
        op_1, pre_1 = apply_op, precond
        apply_op = lambda X, idx: op_1(X[0])[None]            # noqa: E731
        if pre_1 is not None:
            precond = lambda X, idx: pre_1(X[0])[None]        # noqa: E731
    Bk = b.reshape(-1, b.shape[-1])
    K, L = Bk.shape
    every = np.arange(K)
    if residual is None:
        def residual(X):
            r = Bk - apply_op(X, every)
            return float(np.linalg.norm(r) / max(np.linalg.norm(Bk), 1e-300))
    true_max = max(TRUE_RESIDUAL_MAX, GMRES_SLACK * tol)
    MB = precond(Bk, every) if precond is not None else Bk
    work = np.result_type(MB.dtype, float)
    res2 = np.linalg.norm(MB, axis=1) ** 2       # squared residuals
    beta0 = float(np.sqrt(res2.sum()))
    restart = min(max_iter if restart is None else min(restart, max_iter), L)
    X = np.zeros((K, L), dtype=work)
    live = np.ones(K, dtype=bool)
    history = [1.0 if beta0 > 0 else 0.0]
    total = 0
    converged = beta0 == 0.0
    while not converged and total < max_iter and live.any():
        idx = np.flatnonzero(live)
        if total:
            AX = apply_op(X[idx], idx)
            R = MB[idx] - (precond(AX, idx) if precond is not None else AX)
        else:
            R = MB[idx]
        beta = np.linalg.norm(R, axis=1)
        res2[idx] = beta ** 2
        if np.sqrt(res2.sum()) / beta0 <= tol:
            converged = True
            break
        live[idx] = beta > 0
        idx, R, beta = idx[beta > 0], R[beta > 0], beta[beta > 0]
        frozen = res2.sum() - res2[idx].sum()
        basis = np.empty((len(idx), min(8, restart), L), dtype=work)
        basis[:, 0] = R / beta[:, None]
        cplx = np.iscomplexobj(basis)
        g, cols, rot = [beta.astype(work)], [], []
        for j in range(restart):
            v = apply_op(basis[:, j], idx)
            if precond is not None:
                v = precond(v, idx)
            v = v.astype(work, copy=True)
            # classical Gram-Schmidt, repeated once (CGS2), batched over systems
            Vj = basis[:, : j + 1]
            h = _project(Vj, v, cplx)
            v -= _combine(h, Vj)
            h2 = _project(Vj, v, cplx)
            v -= _combine(h2, Vj)
            col = h + h2
            hk = np.linalg.norm(v, axis=1)
            for i, (c, s, sc) in enumerate(rot):
                t = c * col[:, i] + s * col[:, i + 1]
                col[:, i + 1] = c * col[:, i + 1] - sc * col[:, i]
                col[:, i] = t
            a = col[:, j]
            aa = np.abs(a)
            ok = aa > 0
            safe = np.where(ok, aa, 1.0)
            denom = np.hypot(safe, hk)
            c = np.where(ok, aa / denom, 0.0)
            s = np.where(ok, (a / safe) * (hk / denom), 1.0)
            col[:, j] = c * a + s * hk
            cols.append(col)
            rot.append((c, s, s.conj()))
            g.append(-s.conj() * g[j])
            g[j] = c * g[j]
            total += 1
            res2[idx] = np.abs(g[j + 1]) ** 2
            history.append(float(np.sqrt(frozen + res2[idx].sum()) / beta0))
            closed = hk == 0
            if (history[-1] <= tol or total >= max_iter or j + 1 == restart
                    or closed.all()):
                break
            if closed.any():           # these systems are solved: they leave
                X[idx[closed]] += _update(basis[closed], [x[closed] for x in cols],
                                          [x[closed] for x in g])
                live[idx[closed]] = False
                frozen += res2[idx[closed]].sum()
                keep = ~closed
                idx, basis, v, hk = idx[keep], basis[keep], v[keep], hk[keep]
                cols, g = [x[keep] for x in cols], [x[keep] for x in g]
                rot = [tuple(x[keep] for x in r) for r in rot]
            if j + 1 == basis.shape[1]:    # grow the bases with the iterations
                grown = np.empty((len(idx), min(2 * (j + 1), restart), L), dtype=work)
                grown[:, : j + 1] = basis
                basis = grown
            basis[:, j + 1] = v / hk[:, None]
        X[idx] += _update(basis, cols, g)
        live[idx[closed]] = False
        converged = history[-1] <= tol
    res = residual(X)
    return SolveReport(solution=X.reshape(b.shape), iterations=total,
                       residual_history=history, true_residual=res,
                       converged=converged and res <= true_max,
                       wall_time=time.perf_counter() - t0, modes=K,
                       rhs_norm=beta0)


def _apply_modes(gmm: GmmMatrices, p_k, q_k, X):
    """M_k X_k for mode vectors X (K, 2, N), time last: -tau D_k within each
    time slice, plus A's coefficient table along time (``apply_A``)."""
    tau, N = gmm.tau, gmm.n_steps
    out = np.empty(X.shape, np.result_type(X, p_k, q_k))
    np.multiply(X[:, 1], -tau, out=out[:, 0])
    np.multiply(p_k, X[:, 0], out=out[:, 1])
    out[:, 1] += q_k * X[:, 1]
    out[:, 1] *= -tau
    gmm.apply_A(X.reshape(-1, N).T, out.reshape(-1, N).T)
    return out


def gmres_solve(system: AllAtOnceSystem, precond: OmegaPreconditioner = None,
                tol: float = 1e-10, max_iter: int = 500,
                restart: int = None, threads: int = None) -> SolveReport:
    """Solve the all-at-once system by lockstep GMRES over its spatial modes,
    optionally omega-circulant preconditioned (module docstring).

    ``iterations`` counts lockstep steps and ``modes`` the batch.  Above 2e5
    unknowns each basis is capped at 50 vectors per cycle to bound memory.
    Under a preconditioner, ``preconditioned_residual`` checks the lockstep
    stopping norm in physical space: ||P^{-1} r|| through
    ``apply_preconditioner`` over the lockstep ``rhs_norm`` = ||P^{-1} b||,
    which the weighted transform keeps.  The true residual runs on
    ``_RowBlocks`` of at most ``threads`` threads (default ``usable_cpus()``).
    """
    t0 = time.perf_counter()
    if restart is None and system.shape[0] > 200_000:
        restart = 50
    sys_, gmm = system.sys, system.gmm
    N, n = gmm.n_steps, sys_.n
    rhs = np.asarray(system.rhs)
    real = not np.iscomplexobj(rhs)      # P and Q are real by construction
    modes = sys_.modes(real and (precond is None or precond.real))
    B = np.ascontiguousarray(modes.forward(rhs.reshape(N, 2, n)).transpose(2, 1, 0))
    B *= modes.weight[:, None, None]   # the lockstep norm is then the physical one
    K = len(B)
    p_k, q_k = modes.p[:, None], modes.q[:, None]
    # the preconditioner's block tables, built once and cut to the modes
    # still in the batch as the others leave it
    held = {"idx": np.arange(K), "tables": None if precond is None else
            _block_tables(precond.lambda_omega, modes, precond.tau)}
    timings = dict.fromkeys(GMRES_STAGES, 0.0)

    def timed(stage, apply):
        def run(X, idx):
            t = time.perf_counter()
            Y = apply(idx, X.reshape(len(idx), 2, N))
            timings[stage] += time.perf_counter() - t
            return Y.reshape(len(idx), -1)
        return run

    def precondition(idx, X):
        if not np.array_equal(held["idx"], idx):
            pos = np.searchsorted(held["idx"], idx)
            held.update(idx=idx, tables=[t[pos] for t in held["tables"]])
        return _precondition_modes(precond, held["tables"], X)
    op = timed("operator", lambda idx, X: _apply_modes(gmm, p_k[idx], q_k[idx], X))
    pre = None if precond is None else timed("preconditioner", precondition)
    kept = {}
    with _RowBlocks(N, rhs.nbytes // N, threads) as rows:
        def residual(Y):               # back to physical space, then b - Mx
            t = time.perf_counter()
            Y /= modes.weight[:, None]     # GMRES's own copy, not read again
            x = modes.inverse(Y.reshape(K, 2, N).transpose(2, 1, 0)).ravel()
            kept["x"] = x = np.ascontiguousarray(x.real) if real else x
            t2 = time.perf_counter()
            kept["r"] = np.empty(rhs.shape, np.result_type(rhs, x))
            res = _true_residual(system, x, rows, out=kept["r"])
            timings["inverse_transform"] += t2 - t
            timings["true_residual"] += time.perf_counter() - t2
            return res
        t1 = time.perf_counter()
        timings["transform"] = t1 - t0
        report = gmres(op, B.reshape(K, 2 * N), pre, tol=tol, max_iter=max_iter,
                       restart=restart, residual=residual)
    t2 = time.perf_counter()
    timings["orthogonalisation"] = (t2 - t1) - sum(timings[s] for s in (
        "operator", "preconditioner", "inverse_transform", "true_residual"))
    if precond is not None:
        report.preconditioned_residual = float(
            np.linalg.norm(apply_preconditioner(precond, kept["r"]))
            / max(report.rhs_norm, 1e-300))
        report.theta, report.gap = precond.theta, precond.gap
    report.solution = kept["x"]
    report.path = "gmres+omega" if precond is not None else "gmres"
    report.half_spectrum = modes.half
    report.threads = rows.threads
    report.wall_time = time.perf_counter() - t0
    timings["true_residual"] += report.wall_time - (t2 - t0)
    report.timings = timings
    return report


def _scalar_sweeps(y, c) -> int:
    """Solve (A - cI) y = r in place on y (N, M), one c per column, and count
    the c on [-i, i] (|z1| = 1).  rho(z) - c sigma(z) = a (z - z1)(z - z2),
    |z1| <= 1 <= |z2|, so row j < N-1 is a (w_{j+1} - z2 w_j) = r_j for
    w_j = y_j - z1 y_{j-1}: w by a backward sweep in 1/z2 from w_{N-1}, then
    y by a forward sweep in z1.  Run with w_{N-1} = 0, they leave the FINAL
    row to fix w_{N-1}; its part of y_{N-2} is u_{N-1}/z2, u_j = 1 +
    (z1/z2) u_{j-1}, which needs no powers of z1."""
    mp = gmm_polynomials()
    k, b, a = (r - c * s for r, s in zip(mp.rho, mp.sigma))
    d = np.sqrt(b * b - 4.0 * a * k)
    q = -0.5 * np.where(np.abs(b + d) >= np.abs(b - d), b + d, b - d)
    N, z1, iz2 = len(y), k / q, a / q           # the larger q: z2 = q/a
    beta, zeta, f1 = -iz2 / a, z1 * iz2, FINAL[1] - c
    r_last, u, acc = y[N - 1].copy(), np.zeros_like(c), np.zeros_like(y[0])
    t, y[N - 1] = np.empty_like(r_last), 0.0
    for j in range(N - 2, -1, -1):              # w_j = beta r_j + w_{j+1}/z2
        y[j] *= beta
        y[j] += np.multiply(iz2, y[j + 1], out=t)
        u *= zeta
        u += 1.0
    for j in range(N - 1):                      # y_{N-2} of these sweeps
        acc *= z1
        acc += y[j]
    g = FINAL[0] + f1 * z1                      # FINAL, y_{N-1} = w + z1 y_{N-2}
    w = (r_last - g * acc) / (f1 + g * iz2 * u)
    for j in range(N - 1, -1, -1):              # w_j += w_{N-1}/z2^(N-1-j)
        y[j] += w
        w *= iz2
    for j in range(1, N):
        y[j] += np.multiply(z1, y[j - 1], out=t)
    return int(np.count_nonzero(np.abs(np.abs(z1) - 1.0) <= 1e-12))


def _rotate(C, F, out=None):
    """out[j] = C F[j] for every time row j of F (rows, 2, M), by whole-array
    ops; C (2, 2, M) is one 2x2 per mode.  With ``out``, F is spent as the
    scratch.  Without it, the rotation is in place on F, through two
    scratches half F's size.  Every product keeps the order C F: swapped,
    numpy's complex products change in the last bit here."""
    u, v = F[:, 0], F[:, 1]
    if out is None:
        a = np.multiply(C[0, 0], u)
        t = np.multiply(C[0, 1], v)
        a += t
        np.multiply(C[1, 1], v, out=v)
        v += np.multiply(C[1, 0], u, out=t)
        u[...] = a
        return
    np.multiply(C[0, 0], u, out=out[:, 0])
    np.multiply(C[1, 1], v, out=out[:, 1])
    out[:, 0] += np.multiply(C[0, 1], v, out=v)
    out[:, 1] += np.multiply(C[1, 0], u, out=u)


def direct_solve(system: AllAtOnceSystem, threads: int = None) -> SolveReport:
    """Exact solve by diagonalizing space, then two scalar sweeps per mode.

    One transform into ``sys.modes(real)``, the basis of GMRES, leaves a 2N
    system per mode.  The Schur form of its D_k by U = s [[1, -conj(mu1)],
    [mu1, 1]], s = 1/sqrt(1 + |mu1|^2), unitary at a Jordan block too, has
    diagonal mu and t12 = 1 + conj(mu1) mu2: scalar systems (A - qI) y = r,
    q = tau*mu, the first with tau t12 y2 added.  Their sweeps contract when
    q is off [-i, i], the scheme's (k1, k2) = (1, 1) condition; on it
    (``marginal_modes``) the true residual is the check.  All in place on
    the mode array.

    The stages that treat each time row on its own run on ``_RowBlocks`` of
    at most ``threads`` threads (default ``usable_cpus()``), a block at a
    time: the transform with U^H into the mode array, the coupling update,
    U, and the true residual.  The inverse transform runs on as many
    ``scipy.fft`` workers, and the sweeps on this thread alone.
    """
    t0 = time.perf_counter()
    sys_, gmm = system.sys, system.gmm
    N, n, tau = gmm.n_steps, sys_.n, gmm.tau
    rhs = np.asarray(system.rhs)
    real = not np.iscomplexobj(rhs)      # P and Q are real by construction
    modes = sys_.modes(real)
    mu = modes.mu if modes.mu.imag.any() else modes.mu.real     # real D_k: real sweeps
    m1, m2 = mu
    s = 1.0 / np.sqrt(1.0 + abs(m1) ** 2)
    X = rhs.reshape(N, 2, n)
    R = np.empty((N, 2, m1.size), np.result_type(rhs, mu, modes.dtype))
    with _RowBlocks(N, rhs.nbytes // N, threads) as rows:
        C = np.array([[s, s * m1.conj()], [-s * m1, s]])         # U^H

        def forward(r):
            _rotate(C, modes.forward(X[r]).astype(R.dtype, copy=False), R[r])
        rows.map(forward)
        t1 = time.perf_counter()
        marginal = _scalar_sweeps(R[:, 1], tau * m2)
        coupling = tau * (1.0 + m1.conj() * m2)

        def couple(r):
            R[r, 0] += coupling * R[r, 1]
        rows.map(couple)
        marginal += _scalar_sweeps(R[:, 0], tau * m1)
        C = np.array([[s, -s * m1.conj()], [s * m1, s]])         # U
        rows.map(lambda r: _rotate(C, R[r]))
        t2 = time.perf_counter()
        x = modes.inverse(R, workers=rows.threads)
        del R                            # room for the residual's blocks
        x = np.ascontiguousarray(x.real).ravel() if real else x.ravel()
        t3 = time.perf_counter()
        res = _true_residual(system, x, rows)
    t4 = time.perf_counter()
    timings = {"transform": t1 - t0, "sweeps": t2 - t1,
               "inverse_transform": t3 - t2, "true_residual": t4 - t3}
    return SolveReport(solution=x, iterations=1, residual_history=[res],
                       converged=res < TRUE_RESIDUAL_MAX, wall_time=t4 - t0,
                       true_residual=res, path="direct", half_spectrum=modes.half,
                       timings=timings, marginal_modes=marginal,
                       threads=rows.threads)
