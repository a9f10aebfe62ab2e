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
(backward Euler) row: E = omega(A) - A is nonzero in time rows 0 and N-1
only, so P_k - M_k = E (x) I_2 has rank <= 4 and P_k^{-1} M_k = I -
P_k^{-1} (E (x) I_2).  Its minimal polynomial has degree <= 5: GMRES on one
mode ends within 5 iterations.  GMRES runs on that form from P^{-1} b, with
P^{-1} applied once to the rhs.  E X is zero outside time rows 0 and N-1, so
its Theta-scaled FFT across time is a closed-form broadcast, and a step costs
the 2x2 solves and one inverse FFT: no operator apply and no forward FFT.
Under a real omega P^{-1} keeps real data real, and one complex IFFT of
u + i v gives both components.  ``gmres_solve`` therefore moves the rhs
once into the orthonormal modes (the half spectrum for real data on a torus
under a real omega), from its r transformed spatial vectors
(``_mode_rhs``), scales each by the basis's pair ``weight``, runs one
GMRES over the batch of modes (``gmres``) and moves the solution back once.
The modes iterate in lockstep and stop together on sqrt(sum_k |g_k|^2) /
beta0 <= tol: the weighted transform keeps the 2-norm, so that is the
preconditioned residual of the whole system in physical space.
``direct_solve`` works in the same orthonormal modes, without the weight.
One GMRES on the whole system stops on the same test, and its Krylov space
projected onto mode k lies in that mode's own, so the lockstep count is
never above it.  ``gmres`` is the lockstep loop alone, on one fixed batch;
``gmres_solve`` alone forms the true residual ||b - Mx|| / ||b||, in physical
space one block of time rows at a time, each block's rows of b - Mx and
||b|| from ``AllAtOnceSystem`` (``_true_residual``), and gates convergence on
it.  A GMRES report's ``timings`` are the stages ``GMRES_STAGES``:
transform, operator (M, or P^{-1} M under the preconditioner),
preconditioner (its block tables and P^{-1} b), orthogonalisation,
inverse_transform, true_residual and preconditioned_residual (||P^{-1} r||
of that r, read in the weighted modes).

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

from .bvm import FINAL, INTERIOR, AllAtOnceSystem, GmmMatrices
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
# A system of a GMRES batch whose rhs norm is at most RHS_FLOOR * tol * beta0
# / sqrt(K), beta0 the norm of all K rhs, is solved by X = 0 and never enters
# the batch.  Together such systems hold at most RHS_FLOOR^2 = 1e-6 of
# (tol beta0)^2, so they move the stopping test by at most 1 part in 1e6.
# Symmetric data leaves the antisymmetric DST-I modes at rounding noise,
# <= 2.5e-16 ||b||: at tol 1e-10 and K = 399 the floor is 5e-15 beta0.
RHS_FLOOR = 1e-3
# pi * (1 + k/64), k = 0, -1, 1, ..., 63: nearest pi first, as max ties go
THETA_GRID = np.pi * (1.0 + np.array(sorted(range(-63, 64), key=abs)) / 64.0)
GMRES_STAGES = ("transform", "operator", "preconditioner", "orthogonalisation",
                "inverse_transform", "true_residual", "preconditioned_residual")
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
    "PreconditionerError", "build_preconditioner", "apply_preconditioner",
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
    tau: float
    theta_scaling: np.ndarray = field(repr=False)
    lambda_omega: np.ndarray = field(repr=False)
    sys: object = field(repr=False)

    @property
    def real(self) -> bool:
        """omega = +-1: P is real, and so is P^{-1} r for real r."""
        return bool(abs(np.sin(self.theta)) < 1e-12)


def _nearest(lam, z):
    """(gap, i, j): the distance between the sets {lam_j} and z, and the
    z_i and lam_j at that distance.  The lam_j lie on the imaginary axis, so
    the nearest to a point of z is one of the two around its Im z."""
    order = np.argsort(lam.imag)
    s = lam.imag[order]
    near = np.clip(np.searchsorted(s, z.imag) - [[1], [0]], 0, len(s) - 1)
    dist = np.abs(1j * s[near] - z)
    a, i = np.unravel_index(np.argmin(dist), dist.shape)
    return float(dist[a, i]), int(i), int(order[near[a, i]])


class PreconditionerError(ValueError):
    """No theta keeps every block at least GAP_MIN from singular.  ``record``
    holds that theta, its gap and GAP_MIN, and under ``nearest`` where the
    gap falls: the spatial ``mode`` k and the ``component`` c of its
    eigenvalue pair (``tau_mu`` = tau mu[c, k], ``spatial.Modes``) nearest
    the block frequency ``lam`` = lam_j, j = ``frequency``."""

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record or {}


def build_preconditioner(gmm: GmmMatrices, sys,
                         theta: float = None) -> OmegaPreconditioner:
    """Pick theta (module docstring) unless given, then Lambda and Theta;
    PreconditionerError if the gap is below GAP_MIN.  Nothing N x n is
    formed: the block solve reads the symbols on each apply."""
    N, tau = gmm.n_steps, gmm.tau
    z = tau * eigenvalues_of_D(sys)

    def at(th):
        lam = _frequencies(N, th)
        return (*_nearest(lam, z), th, lam)
    given = theta is not None
    g, i, j, theta, lam = at(float(theta) if given else np.pi)
    if not given and g < GAP_MIN:
        g, i, j, theta, lam = max(map(at, THETA_GRID.tolist()), key=lambda c: c[0])
    if not g >= GAP_MIN:
        K = z.size // 2                # z is mu (2, K) raveled
        raise PreconditionerError(
            f"theta = {theta:.6g}: block gap {g:.3g} < GAP_MIN",
            {"theta": theta, "gap": g, "gap_min": GAP_MIN,
             "nearest": {"mode": i % K, "component": i // K,
                         "tau_mu": [z[i].real, z[i].imag],
                         "frequency": j, "lam": [lam[j].real, lam[j].imag]}})
    scaling = np.exp(-1j * theta * np.arange(N) / N)   # Theta, omega^{-s/N}
    return OmegaPreconditioner(theta=theta, gap=g, tau=tau,
                               theta_scaling=scaling, lambda_omega=lam, sys=sys)


def _block_tables(lam, modes, tau):
    """The reciprocal (K, F) tables ta = shift/denom and tb = tau/denom of
    ``_solve_blocks``, shift = lam - tau q and denom = lam shift - tau^2 p,
    for the K ``modes`` and frequencies lam."""
    shift = lam - tau * modes.q[:, None]
    denom = lam * shift - tau ** 2 * modes.p[:, None]
    shift /= denom
    return shift, np.divide(tau, denom, out=denom)


def _solve_blocks(lam, ta, tb, tau, V, packed=False):
    """Overwrite V (K, 2, F) with the solutions (u, v) of (lam_f I - tau D_k)
    (u, v) = (r1, r2) = V[k, :, f], D_k = [[0, 1], [p_k, q_k]], for every mode
    k and frequency f, given ``_block_tables``.  The first row gives v = (lam
    u - r1)/tau; put into the second, it leaves [lam (lam - tau q) - tau^2 p]
    u = tau r2 + (lam - tau q) r1, so u = ta r1 + tb r2.  ``packed`` leaves
    u + i v = (1 + i lam/tau) u - (i/tau) r1 in V[:, 0] instead, V[:, 1]
    spent: the lam are imaginary, so that factor of u is real."""
    u = ta * V[:, 0]
    u += np.multiply(tb, V[:, 1], out=V[:, 1])
    if packed:
        u *= 1.0 - lam.imag / tau
        V[:, 0] *= -1j / tau
        V[:, 0] += u
        return V
    v = np.multiply(lam, u, out=V[:, 1])
    v -= V[:, 0]
    v /= tau
    V[:, 0] = u
    return V


def _invert_spectra(p: OmegaPreconditioner, tables, V, real: bool):
    """P_k^{-1} R_k from the Theta-scaled FFTs V (K, 2, N) of mode vectors R,
    V spent: the 2x2 frequency blocks, the inverse FFT, the Theta untwist.
    ``real`` (a real omega and real R) makes P^{-1} R real: one complex IFFT
    of u + i v (K, N) then gives both components, as its real and imaginary
    parts, in a new real array."""
    _solve_blocks(p.lambda_omega, *tables, p.tau, V, packed=real)
    if not real:
        V = ifft(V, axis=-1, overwrite_x=True)
        V *= p.theta_scaling
        return V
    W = ifft(V[:, 0], axis=-1, overwrite_x=True)
    W *= p.theta_scaling
    Z = np.empty(V.shape, float)
    Z[:, 0], Z[:, 1] = W.real, W.imag
    return Z


def apply_preconditioner(p: OmegaPreconditioner, tables, R):
    """P_k^{-1} R_k for mode vectors R (K, 2, N), time last, given the
    modes' ``_block_tables``: the Theta-scaled FFT across time, then
    ``_invert_spectra``.  P is block diagonal in the spatial modes, so this
    is its only apply: no spatial transform, and real R stays real under a
    real omega."""
    V = fft(R * np.conj(p.theta_scaling), axis=-1, overwrite_x=True)
    return _invert_spectra(p, tables, V, p.real and not np.iscomplexobj(R))


def _omega_difference(p: OmegaPreconditioner):
    """The entries (E[0, N-1], E[N-1, 0], E[N-1, N-2], E[N-1, N-1]) of E =
    omega(A) - A, from the coefficient table: omega(A) wraps the interior
    row past both corners, omega = e^{i theta}, and carries it into the last
    row, where A has FINAL.  E is zero elsewhere."""
    omega = np.cos(p.theta) if p.real else np.exp(1j * p.theta)
    return (omega * INTERIOR[0], np.conj(omega) * INTERIOR[2],
            INTERIOR[0] - FINAL[0], INTERIOR[1] - FINAL[1])


def _preconditioned_step(p: OmegaPreconditioner, tables, X):
    """P_k^{-1} M_k X_k = X_k - P_k^{-1} E X_k for mode vectors X (K, 2, N),
    time last, given the modes' ``_block_tables``.  Each (mode, component)
    row of E X is a in time row 0 and b in row N-1, so its Theta-scaled FFT
    is a + b phi_j, phi_j = conj(Theta_{N-1}) e^{-2 pi i j (N-1)/N} =
    e^{i (theta (N-1) + 2 pi j)/N}: no operator apply and no forward FFT,
    then ``_invert_spectra``."""
    N = X.shape[-1]
    e0, e1, e2, e3 = _omega_difference(p)
    a = e0 * X[..., N - 1]
    b = e1 * X[..., 0] + e2 * X[..., N - 2] + e3 * X[..., N - 1]
    phi = np.exp(1j * (p.theta * (N - 1) + 2.0 * np.pi * np.arange(N)) / N)
    V = np.multiply(b[..., None], phi)
    V += a[..., None]
    Z = _invert_spectra(p, tables, V, p.real and not np.iscomplexobj(X))
    return np.subtract(X, Z, out=Z)


def solve_frequency_block(p: OmegaPreconditioner, j: int, v1: np.ndarray) -> np.ndarray:
    """Solve (lam_j I - tau D) v2 = v1 for one 2n frequency block: into the
    spatial modes, the 2x2 block solves, back."""
    modes = p.sys.modes()
    V = modes.forward(np.asarray(v1, dtype=complex).reshape(2, modes.n))
    tables = _block_tables(p.lambda_omega[j], modes, p.tau)
    _solve_blocks(p.lambda_omega[j], *tables, p.tau, V.T[:, :, None])
    return modes.inverse(V).ravel()


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
    modes: int = None               # GMRES: the batch size
    floored_modes: int = None       # GMRES: modes solved by X = 0 without a step
    # GMRES: ||P^{-1} b|| (||b|| without a preconditioner), the residual
    # history's base, summed over the batch in lockstep
    rhs_norm: float = None
    # ||P^{-1}(b - Mx)|| / ||P^{-1} b|| under a preconditioner, read in the
    # weighted modes from the physical b - Mx
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
    their results in block order.  ``threads`` is the least of ``limit``,
    ``usable_cpus()``, MAX_THREADS and the block count; with one, the
    calling thread runs the blocks in order, else a pool of that many."""

    def __init__(self, N: int, row_bytes: int, limit: int = None):
        size = max(1, BLOCK_BYTES // max(row_bytes, 1))
        self.blocks = [slice(a, min(a + size, N)) for a in range(0, N, size)]
        limit = MAX_THREADS if limit is None else limit
        self.threads = max(1, min(limit, usable_cpus(), MAX_THREADS, len(self.blocks)))
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


def _true_residual(system: AllAtOnceSystem, x, rows: _RowBlocks, out=None) -> float:
    """||b - Mx|| / ||b|| in physical space, one row block at a time: each
    block's squared norm comes from ``AllAtOnceSystem.residual_sumsq``, its
    rows of b - Mx into ``out`` (b's shape) when given.  The blocks add up
    in block order, so the result does not depend on the thread count."""
    rr = sum(rows.map(lambda r: system.residual_sumsq(x, r, out)))
    return float(np.sqrt(rr) / max(system.rhs_norm, 1e-300))


def _mode_rhs(system: AllAtOnceSystem, modes, rows: _RowBlocks, dtype, C=None):
    """b in ``modes``, (N, 2, K) with time rows first, and C (2, 2, K), one
    2x2 per mode, applied to each row when given (``_rotate``).  The r
    spatial vectors are transformed (and rotated) once, and each row block
    of the result is ``rhs_rows`` with them in place of the vectors."""
    N, n = system.gmm.n_steps, system.sys.n
    S = system.vectors
    R = np.empty((N, 2, len(modes.p)), dtype)
    W = modes.forward(S.reshape(-1, 2, n)).astype(dtype, copy=False)
    if C is not None:
        _rotate(C, W)
    W = W.reshape(len(S), -1)
    rows.map(lambda r: system.rhs_rows(r, R[r].reshape(-1, W.shape[1]), vectors=W))
    return R


def _project(basis, w, cplx):
    """<v_i, w> for each row v_i of each system's basis (K, j, L)."""
    if cplx:                           # conjugate the vector, not the basis
        return np.matmul(basis, w.conj()[:, :, None])[:, :, 0].conj()
    return np.matmul(basis, w[:, :, None])[:, :, 0]


def _combine(y, basis):
    """sum_i y_i v_i for each system: y (K, j), basis (K, j, L)."""
    return np.matmul(y[:, None, :], basis)[:, 0]


def _update(basis, H, rot, g):
    """The correction sum_i y_i v_i of each system, R y = g by back
    substitution.  H holds each system's raw Hessenberg columns, packed
    (``_packed``).  Rotation i (c, s) turns row i, carried in w, and the raw
    row i + 1 over all their columns at once: row i is then R's, and goes
    back into H.  A zero pivot, a step after the system's Krylov space
    closed, leaves y_k at g_k = 0."""
    n = len(rot)
    start = _packed(np.arange(n))
    w = H[:, start]
    for i, (c, s) in enumerate(rot):
        z = H[:, start[i:] + i + 1]
        H[:, start[i:] + i] = c[:, None] * w + s[:, None] * z
        w = (c[:, None] * z - s.conj()[:, None] * w)[:, 1:]
    y = np.stack(g[:n], axis=1)
    for k in range(n - 1, -1, -1):
        col = H[:, start[k]: start[k] + k + 1]
        np.divide(y[:, k], col[:, k], out=y[:, k], where=col[:, k] != 0)
        y[:, :k] -= col[:, :k] * y[:, k: k + 1]
    return _combine(y, basis[:, :n])


def _packed(j):
    """Where Hessenberg column j, its j + 2 entries, starts in a packed row."""
    return j * (j + 3) // 2


def _grown(a, size):
    """A new (K, size, ...) array holding ``a`` in its first entries."""
    grown = np.empty((a.shape[0], size) + a.shape[2:], a.dtype)
    grown[:, : a.shape[1]] = a
    return grown


def gmres(apply_op, B, tol, max_iter):
    """GMRES on one fixed batch of independent systems, in lockstep.

    B is (K, L), one rhs per system; ``apply_op(X, idx)`` maps the rows X
    (len(idx), L) of the systems ``idx`` to a new array, which GMRES then
    overwrites, or to a view of X.  A preconditioned system comes in
    preconditioned: the operator P^{-1} A and the rhs P^{-1} b.  Each system
    has its own Arnoldi basis (CGS2), Hessenberg columns and Givens
    rotations G_i.  Step j needs of the earlier rotations only q, row j of
    G_{j-1} ... G_0: the new column's rotated diagonal is a_j = sum_i q_i
    h_ij, and after G_j, q becomes [-conj(s_j) q, c_j].  The raw columns are
    kept, packed, and ``_update`` rotates them into R once, at the end.  All
    systems take one step per iteration and stop together when
    sqrt(sum_k |g_k|^2), g_k system k's residual estimate, reaches tol times
    the 2-norm of the whole rhs (``rhs_norm``), or after min(max_iter, L)
    steps.  A system whose rhs norm is at most RHS_FLOOR * tol * rhs_norm /
    sqrt(K) is solved by X = 0 and never enters the batch (``floored_modes``
    counts them): all of them together move the stopping test by at most 1
    part in 1e6.  The others enter once, and ``idx`` is the same at every
    step.  A system whose Krylov space closes exactly (hk = 0) stays in the
    batch on zero vectors: its later Hessenberg columns and g_k are 0.  A
    basis grows with the iterations taken, to at most min(max_iter, L)
    vectors, in one cycle: after L steps a system's Krylov space is all of
    it, so a second cycle would have nothing left to do.

    Returns a SolveReport of the batch's solution X (K, L), the iterations,
    the residual history and ``converged``, the stopping test alone: the
    caller forms the true residual.  Non-convergence is reported, not
    raised; the bases are freed on return.
    """
    t0 = time.perf_counter()
    K, L = B.shape
    work = np.result_type(B.dtype, float)
    beta = np.linalg.norm(B, axis=1)
    res2 = beta ** 2                   # squared residuals
    beta0 = float(np.sqrt(res2.sum()))
    steps = min(max_iter, L)
    X = np.zeros((K, L), dtype=work)
    history = [1.0 if beta0 > 0 else 0.0]
    floored = K
    if history[0] > tol and steps > 0:
        below = beta <= RHS_FLOOR * tol * beta0 / np.sqrt(K)   # solved by X = 0
        idx = np.flatnonzero(~below)
        floored = K - len(idx)
        frozen = float(res2[below].sum())  # summed, not a difference of sums
        beta = beta[idx]
        basis = np.empty((len(idx), min(8, steps), L), dtype=work)
        basis[:, 0] = B[idx] / beta[:, None]
        H = np.empty((len(idx), _packed(basis.shape[1])), dtype=work)
        cplx = np.iscomplexobj(basis)
        g, rot, q = [beta.astype(work)], [], np.ones((len(idx), 1), work)
        for j in range(steps):
            v = apply_op(basis[:, j], idx)
            # orthogonalised in place: copied only where it views the basis
            v = v.astype(work, copy=np.may_share_memory(v, basis))
            # classical Gram-Schmidt, repeated once (CGS2), batched over systems
            Vj = basis[:, : j + 1]
            h = _project(Vj, v, cplx)
            v -= _combine(h, Vj)
            h2 = _project(Vj, v, cplx)
            v -= _combine(h2, Vj)
            col = H[:, _packed(j): _packed(j + 1)]
            np.add(h, h2, out=col[:, : j + 1])
            col[:, j + 1] = hk = np.linalg.norm(v, axis=1)
            a = np.einsum("ki,ki->k", q, col[:, : j + 1])
            aa = np.abs(a)
            ok = aa > 0
            safe = np.where(ok, aa, 1.0)
            denom = np.hypot(safe, hk)
            c = np.where(ok, aa / denom, 0.0)
            s = np.where(ok, (a / safe) * (hk / denom), 1.0)
            sc = s.conj()
            q = np.concatenate((q * -sc[:, None], c[:, None]), axis=1)
            rot.append((c, s))
            g.append(-sc * g[j])
            g[j] = c * g[j]
            res2[idx] = np.abs(g[j + 1]) ** 2
            history.append(float(np.sqrt(frozen + res2[idx].sum()) / beta0))
            closed = hk == 0
            if history[-1] <= tol or j + 1 == steps or closed.all():
                break
            if j + 1 == basis.shape[1]:    # grow the bases with the iterations
                basis = _grown(basis, min(2 * (j + 1), steps))
                H = _grown(H, _packed(basis.shape[1]))
            # a closed system's v is exactly 0, and so is its next vector
            np.divide(v, np.where(closed, 1.0, hk)[:, None], out=basis[:, j + 1])
            del v                      # free while the next step is applied
        X[idx] += _update(basis, H, rot, g)
    return SolveReport(solution=X, iterations=len(history) - 1,
                       residual_history=history, converged=history[-1] <= tol,
                       wall_time=time.perf_counter() - t0, modes=K,
                       floored_modes=floored, rhs_norm=beta0)


def _apply_modes(gmm: GmmMatrices, p_k, q_k, X):
    """M_k X_k for mode vectors X (K, 2, N), time last: -tau D_k within each
    time slice, plus A's coefficient table along the contiguous time axis."""
    tau, N = gmm.tau, gmm.n_steps
    out = np.empty(X.shape, np.result_type(X, p_k, q_k))
    np.multiply(X[:, 1], -tau, out=out[:, 0])
    np.multiply(p_k, X[:, 0], out=out[:, 1])
    out[:, 1] += q_k * X[:, 1]
    out[:, 1] *= -tau
    for d, a in zip((-1, 0, 1), INTERIOR):     # rows 0..N-2; row 0 has no
        if a:                                  # slice before it
            s = max(0, -d)
            out[..., s: N - 1] += a * X[..., s + d: N - 1 + d]
    out[..., N - 1] += FINAL[0] * X[..., N - 2] + FINAL[1] * X[..., N - 1]
    return out


def gmres_solve(system: AllAtOnceSystem, precond: OmegaPreconditioner = None,
                tol: float = 1e-10, max_iter: int = 500,
                threads: int = None) -> SolveReport:
    """Solve the all-at-once system by lockstep GMRES over its spatial modes,
    optionally omega-circulant preconditioned (module docstring).

    ``iterations`` counts lockstep steps and ``modes`` the batch.  Each mode
    holds at most min(max_iter, 2N) basis vectors.  Under a preconditioner,
    GMRES runs on P_k^{-1} M_k (``_preconditioned_step``) from P^{-1} b, with
    the block tables of the modes that enter the batch.  After ``gmres``
    returns, x goes back to physical space and r = b - Mx is formed there;
    the rhs and r run on one ``_RowBlocks``, ``threads`` its limit.  The solve
    has converged if the lockstep stopping test holds and ||r|| / ||b|| is at
    most max(TRUE_RESIDUAL_MAX, GMRES_SLACK * tol).  ``preconditioned_residual``
    checks the stopping norm: r moves back into the modes, P^{-1} r is formed
    there with the solve's tables, and since the weighted transform keeps the
    2-norm, ||weight P^{-1} r|| / ``rhs_norm`` is the physical ratio.
    """
    t0 = time.perf_counter()
    sys_, gmm = system.sys, system.gmm
    N = gmm.n_steps
    real = system.dtype.kind != "c"      # P and Q are real by construction
    modes = sys_.modes(real and (precond is None or precond.real))
    timings = dict.fromkeys(GMRES_STAGES, 0.0)
    with _RowBlocks(N, sys_.dim * system.dtype.itemsize, threads) as rows:
        B = _mode_rhs(system, modes, rows, np.result_type(system.dtype, modes.dtype))
        B = np.ascontiguousarray(B.transpose(2, 1, 0))
        B *= modes.weight[:, None, None]   # the lockstep norm is then the physical one
        K = len(B)
        per_mode = (modes.p[:, None], modes.q[:, None])    # what the step reads
        t1 = time.perf_counter()
        if precond is not None:
            per_mode = tables = _block_tables(precond.lambda_omega, modes, precond.tau)
            B = apply_preconditioner(precond, tables, B)
            timings["preconditioner"] = time.perf_counter() - t1

        def op(X, idx):
            nonlocal per_mode
            t = time.perf_counter()
            if len(per_mode[0]) != len(idx):   # the batch is fixed: cut once
                per_mode = [a[idx] for a in per_mode]
            X = X.reshape(len(idx), 2, N)
            Y = (_apply_modes(gmm, *per_mode, X) if precond is None
                 else _preconditioned_step(precond, per_mode, X))
            timings["operator"] += time.perf_counter() - t
            return Y.reshape(len(idx), -1)
        report = gmres(op, B.reshape(K, 2 * N), tol, max_iter)
        t2 = time.perf_counter()
        Y = report.solution
        Y /= modes.weight[:, None]
        x = modes.inverse(Y.reshape(K, 2, N).transpose(2, 1, 0)).ravel()
        report.solution = x = np.ascontiguousarray(x.real) if real else x
        t3 = time.perf_counter()
        r = np.empty(x.size, np.result_type(system.dtype, x))
        report.true_residual = _true_residual(system, x, rows, out=r)
    t4 = time.perf_counter()
    report.converged = report.converged and report.true_residual <= max(
        TRUE_RESIDUAL_MAX, GMRES_SLACK * tol)
    if precond is not None:
        R = modes.forward(r.reshape(N, 2, sys_.n))
        R = np.ascontiguousarray(R.transpose(2, 1, 0))   # time last, for the FFTs
        del r
        Z = apply_preconditioner(precond, tables, R)
        Z *= modes.weight[:, None, None]
        # einsum's loop, not a BLAS dot, whose sum depends on the BLAS threads
        z = Z.reshape(-1).view(np.float64)
        report.preconditioned_residual = float(
            np.sqrt(np.einsum("i,i->", z, z)) / max(report.rhs_norm, 1e-300))
        report.theta, report.gap = precond.theta, precond.gap
    report.wall_time = time.perf_counter() - t0
    timings.update(transform=t1 - t0, inverse_transform=t3 - t2,
                   true_residual=t4 - t3,
                   preconditioned_residual=report.wall_time - (t4 - t0))
    timings["orthogonalisation"] = (t2 - t1) - (timings["operator"]
                                                + timings["preconditioner"])
    report.timings = timings
    report.path = "gmres+omega" if precond is not None else "gmres"
    report.half_spectrum = modes.half
    report.threads = rows.threads
    return report


def _scalar_sweeps(y, c):
    """Solve (A - cI) y = r in place on y (N, M), one c per column.
    rho(z) - c sigma(z) = a (z - z1)(z - z2), |z1| <= 1 <= |z2|, so row
    j < N-1 is a (w_{j+1} - z2 w_j) = r_j for w_j = y_j - z1 y_{j-1}: w by a
    backward sweep in 1/z2 from w_{N-1}, then y by a forward sweep in z1.
    Run with w_{N-1} = 0, they leave the FINAL row to fix w_{N-1}; its part
    of y_{N-2} is u_{N-1}/z2, u_j = 1 + (z1/z2) u_{j-1}, which needs no
    powers of z1.  Where c is on [-i, i] (|z1| = 1) the sweeps do not
    contract; the run record's ``spectrum.gmm_stability_verdict`` counts
    those c over the whole spectrum."""
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


def _rotate(C, F):
    """F[j] = C F[j] in place for every time row j of F (rows, 2, M), by
    whole-array ops through two scratches half F's size; C (2, 2, M) is one
    2x2 per mode.  Every product keeps the order C F: swapped, numpy's
    complex products change in the last bit here."""
    u, v = F[:, 0], F[:, 1]
    a = np.multiply(C[0, 0], u)
    t = np.multiply(C[0, 1], v)
    a += t
    np.multiply(C[1, 1], v, out=v)
    v += np.multiply(C[1, 0], u, out=t)
    u[...] = a


def direct_solve(system: AllAtOnceSystem, threads: int = None) -> SolveReport:
    """Exact solve by diagonalizing space, then two scalar sweeps per mode.

    One transform into ``sys.modes(real)``, the basis of GMRES, leaves a 2N
    system per mode.  The Schur form of its D_k by U = s [[1, -conj(mu1)],
    [mu1, 1]], s = 1/sqrt(1 + |mu1|^2), unitary at a Jordan block too, has
    diagonal mu and t12 = 1 + conj(mu1) mu2: scalar systems (A - qI) y = r,
    q = tau*mu, the first with tau t12 y2 added.  Their sweeps contract when
    q is off [-i, i], the scheme's (k1, k2) = (1, 1) condition; on it (the
    run record's ``stability`` counts those modes) the true residual is the
    check.  All in place on the mode array.

    The rhs enters the mode array by ``_mode_rhs``: its r spatial vectors
    are transformed and turned by U^H once.  The stages that treat each time
    row on its own run on ``_RowBlocks``, ``threads`` its limit, a block at
    a time: filling the mode array
    from those vectors, the coupling update, U, and the true residual.  The
    inverse transform runs on as many ``scipy.fft`` workers, and the sweeps
    on this thread alone.
    """
    t0 = time.perf_counter()
    sys_, gmm = system.sys, system.gmm
    N, tau = gmm.n_steps, gmm.tau
    real = system.dtype.kind != "c"      # P and Q are real by construction
    modes = sys_.modes(real)
    mu = modes.mu if modes.mu.imag.any() else modes.mu.real     # real D_k: real sweeps
    m1, m2 = mu
    s = 1.0 / np.sqrt(1.0 + abs(m1) ** 2)
    with _RowBlocks(N, sys_.dim * system.dtype.itemsize, threads) as rows:
        C = np.array([[s, s * m1.conj()], [-s * m1, s]])         # U^H
        R = _mode_rhs(system, modes, rows,
                      np.result_type(system.dtype, mu, modes.dtype), C)
        t1 = time.perf_counter()
        _scalar_sweeps(R[:, 1], tau * m2)
        coupling = tau * (1.0 + m1.conj() * m2)

        def couple(r):
            R[r, 0] += coupling * R[r, 1]
        rows.map(couple)
        _scalar_sweeps(R[:, 0], tau * m1)
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
                       timings=timings, threads=rows.threads)
