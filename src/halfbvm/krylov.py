"""GMRES with the omega-circulant all-at-once preconditioner.

The preconditioner replaces the time-stepping matrix A by its omega-circulant
approximation: the Toeplitz interior stencil wraps around with a unimodular
factor omega = e^{i theta},

    P = omega(A) (x) I - tau I (x) D ,
    omega(A) = Theta* F* Lambda F Theta,   Theta = diag(omega^{-s/N}),

so applying P^{-1} costs one FFT across the time axis, N decoupled frequency
block solves (lam_j I - tau D) v_j = r_j, and one inverse FFT.  Each 2n block
is reduced by eliminating its second half: writing the block rows as
[lam I, -tau I; -tau P, lam I - tau Q] acting on (w, z) with data (r1, r2),
the first row gives z = (lam w - r1)/tau and w solves the n-sized system

    [lam (lam I - tau Q) - tau^2 P] w = tau r2 + (lam I - tau Q) r1 .

P and Q are diagonal in the system's spatial eigenbasis (DST-I modes between
walls, DFT columns on a periodic grid), so that system is diagonal there too:
all N blocks are solved together by one spatial transform, one division by
the reduced symbol and one inverse transform.

omega(A) differs from A only in the first-row corner entry and the final
(backward Euler) row, a rank <= 2 perturbation; the preconditioned spectrum
is therefore 1 except for a bounded number of outliers.

Block j is singular where lam_j = i sin((2 pi j - theta)/N) meets tau*spec(D),
as at theta = pi for odd N on a torus.  Both sets are closed forms: theta is pi
while their gap is at least GAP_MIN, else the angle of THETA_GRID with most gap.
"""

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import fft, ifft
from scipy.linalg import solve_triangular

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

__all__ = [
    "TRUE_RESIDUAL_MAX", "GMRES_SLACK", "OmegaPreconditioner", "SolveReport",
    "build_omega_circulant", "build_preconditioner", "apply_preconditioner",
    "solve_frequency_block", "gmres", "gmres_solve", "direct_solve",
]


def _frequencies(N: int, theta: float) -> np.ndarray:
    """lam_j = i sin((2 pi j - theta)/N), j = 0..N-1: the symbol of A's
    interior row (-1/2, 0, 1/2) at the omega-shifted Fourier frequencies."""
    return 1j * np.sin((2.0 * np.pi * np.arange(N) - theta) / N)


def build_omega_circulant(gmm: GmmMatrices, omega: complex):
    """Eigenvalues Lambda of omega(A), in closed form, plus the Theta
    scaling diagonal."""
    if abs(abs(omega) - 1.0) > 1e-12:
        raise ValueError("omega must be unimodular")
    N = gmm.n_steps
    theta = np.angle(omega)
    scaling = np.exp(-1j * theta * np.arange(N) / N)   # Theta diagonal, omega^{-s/N}
    return _frequencies(N, theta), scaling


@dataclass(frozen=True)
class OmegaPreconditioner:
    """Factorized omega-circulant preconditioner for one (gmm, sys, tau).

    ``shift`` holds lam_j - tau q_hat_k, row j per frequency, with a single
    column when Q is scalar.
    """

    theta: float
    gap: float                         # distance from the lam_j to tau*spec(D)
    n_steps: int
    tau: float
    theta_scaling: np.ndarray = field(repr=False)
    lambda_omega: np.ndarray = field(repr=False)
    sys: object = field(repr=False)
    shift: np.ndarray = field(repr=False)

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
    """Pick theta (module docstring) unless given, then assemble Lambda and the
    reduced block data; ValueError if its gap is below GAP_MIN.  Nothing N x n
    is formed: each apply rebuilds the reduced symbol, cheaper than holding it."""
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
    lam, scaling = build_omega_circulant(gmm, np.exp(1j * theta))
    q_hat = sys.q_hat
    if np.all(q_hat == q_hat[0]):      # scalar Q: one column, not N x n
        q_hat = q_hat[:1]
    return OmegaPreconditioner(theta=theta, gap=g, n_steps=N, tau=tau,
                               theta_scaling=scaling, lambda_omega=lam,
                               sys=sys, shift=lam[:, None] - tau * q_hat)


def _solve_blocks(p: OmegaPreconditioner, V: np.ndarray, rows=slice(None)):
    """Overwrite each row of the complex array V, one 2n frequency block
    v1, with the solution v2 of (lam_j I - tau D) v2 = v1, for the
    frequencies ``rows``; the reduced n-sized solve is diagonal in the
    spatial eigenbasis.  Works in place: the preconditioner apply is bound by
    memory traffic, and every fresh N x 2n array costs page faults."""
    sys_, tau = p.sys, p.tau
    n = sys_.n
    lam, shift = p.lambda_omega[rows, None], p.shift[rows]
    M = sys_.to_modes(V.reshape(len(V), 2, n))
    w = M[:, 0]                        # (tau r2 + (lam - tau q) r1) / symbol
    np.multiply(shift, w, out=w)       # not w * shift: that rounds apart (FMA)
    M[:, 1] *= tau
    w += M[:, 1]
    w /= lam * shift - tau ** 2 * sys_.p_hat
    u = sys_.from_modes(w)
    v = V[:, n:]                       # (lam u - r1) / tau
    np.multiply(lam, u, out=v)
    v -= V[:, :n]
    v /= tau
    V[:, :n] = u
    return V


def solve_frequency_block(p: OmegaPreconditioner, j: int, v1: np.ndarray) -> np.ndarray:
    """Solve (lam_j I - tau D) v2 = v1 for one 2n frequency block."""
    return _solve_blocks(p, np.array(v1, dtype=complex)[None, :], slice(j, j + 1))[0]


def apply_preconditioner(p: OmegaPreconditioner, r: np.ndarray) -> np.ndarray:
    """z = P^{-1} r via Theta scaling, time FFT, block solves, inverse FFT."""
    N = p.n_steps
    real_in = not np.iscomplexobj(r)
    V = np.asarray(r).reshape(N, p.sys.dim) * np.conj(p.theta_scaling)[:, None]
    V = fft(V, axis=0, overwrite_x=True)
    V = ifft(_solve_blocks(p, V), axis=0, overwrite_x=True)
    V *= p.theta_scaling[:, None]
    z = V.ravel()
    if real_in and abs(np.sin(p.theta)) < 1e-12:     # omega = +-1
        return z.real.copy()
    return z


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
    half_spectrum: bool = False     # a direct solve of the rfft modes only
    theta: float = None             # the preconditioner's theta and its gap,
    gap: float = None               # None without one
    timings: dict = field(default_factory=dict)   # stage -> seconds
    marginal_modes: int = None      # direct: mode components with tau*mu on [-i, i]


def _true_residual(apply_op, b, x) -> float:
    """||b - Mx|| / ||b||, formed in the output of the apply when it can hold b."""
    r = apply_op(x)
    own = np.can_cast(b.dtype, r.dtype) and not np.may_share_memory(r, x)
    r = np.subtract(b, r, out=r if own else None)
    return float(np.linalg.norm(r) / max(np.linalg.norm(b), 1e-300))


def gmres(apply_op, b, precond=None, tol=1e-10, max_iter=500, restart=None):
    """Left-preconditioned GMRES with CGS2 orthogonalisation and Givens updates.

    Iterations stop when the preconditioned residual, relative to the
    preconditioned rhs, reaches tol.  The true residual ||b - Ax|| / ||b|| is
    computed once, at exit, and the solve has converged only if it is at most
    max(TRUE_RESIDUAL_MAX, GMRES_SLACK * tol) too.  Returns a SolveReport;
    non-convergence is reported, not raised.
    """
    if restart is not None and restart < 1:
        raise ValueError(f"restart must be at least 1, got {restart}")
    t0 = time.perf_counter()
    b = np.asarray(b)
    true_max = max(TRUE_RESIDUAL_MAX, GMRES_SLACK * tol)
    mb = precond(b) if precond is not None else b
    beta0 = np.linalg.norm(mb)
    if beta0 == 0.0:                   # x = 0: the true residual is ||b|| / ||b||
        res = float(np.any(b))
        return SolveReport(solution=np.zeros_like(b), iterations=0,
                           residual_history=[0.0], converged=res <= true_max,
                           true_residual=res, wall_time=time.perf_counter() - t0)
    m = b.size
    if restart is None or restart > max_iter:
        restart = max_iter
    restart = min(restart, m)
    work = np.result_type(mb.dtype, float)
    x = np.zeros(m, dtype=work)
    # shared by all restart cycles: every entry a cycle reads it has written
    # first, so nothing is cleared between cycles
    V = np.empty((restart + 1, m), dtype=work)
    H = np.zeros((restart + 1, restart), dtype=work)
    cs = np.zeros(restart, dtype=work)
    sn = np.zeros(restart, dtype=work)
    g = np.zeros(restart + 1, dtype=work)
    history = [1.0]
    total = 0
    converged = False
    while total < max_iter and not converged:
        Ax = apply_op(x)
        r = mb - (precond(Ax) if precond is not None else Ax)
        beta = np.linalg.norm(r)
        if beta / beta0 <= tol:
            converged = True
            break
        V[0] = r / beta
        g[0] = beta
        k_used = 0
        breakdown = False
        for k in range(restart):
            w = apply_op(V[k])
            if precond is not None:
                w = precond(w)
            w = w.astype(work, copy=True)
            # classical Gram-Schmidt, repeated once (CGS2): BLAS-2 speed with
            # modified-GS-grade orthogonality; conjugate the vector, not the basis
            basis = V[: k + 1]
            cplx = np.iscomplexobj(w)
            h = (basis @ w.conj()).conj() if cplx else basis @ w
            w -= basis.T @ h
            h2 = (basis @ w.conj()).conj() if cplx else basis @ w
            w -= basis.T @ h2
            H[: k + 1, k] = h + h2
            hk = np.linalg.norm(w)
            H[k + 1, k] = hk
            if hk > 0:
                V[k + 1] = w / hk
            else:
                breakdown = True
            for i in range(k):
                t = cs[i] * H[i, k] + sn[i] * H[i + 1, k]
                H[i + 1, k] = -np.conj(sn[i]) * H[i, k] + np.conj(cs[i]) * H[i + 1, k]
                H[i, k] = t
            a, bb = H[k, k], H[k + 1, k]
            denom = np.hypot(abs(a), abs(bb))
            if denom == 0.0 or abs(a) == 0.0:
                cs[k], sn[k] = 0.0, 1.0
            else:
                cs[k] = abs(a) / denom
                sn[k] = (a / abs(a)) * np.conj(bb) / denom
            H[k, k] = cs[k] * a + sn[k] * bb
            H[k + 1, k] = 0.0
            g[k + 1] = -np.conj(sn[k]) * g[k]
            g[k] = cs[k] * g[k]
            total += 1
            k_used = k + 1
            history.append(float(abs(g[k + 1]) / beta0))
            if history[-1] <= tol or total >= max_iter or breakdown:
                break
        if k_used:
            y = solve_triangular(H[:k_used, :k_used], g[:k_used])
            x = x + V[:k_used].T @ y
        if history[-1] <= tol:
            converged = True
        elif breakdown:
            break
    res = _true_residual(apply_op, b, x)
    return SolveReport(solution=x, iterations=total, residual_history=history,
                       converged=converged and res <= true_max, true_residual=res,
                       wall_time=time.perf_counter() - t0)


def gmres_solve(system: AllAtOnceSystem, precond: OmegaPreconditioner = None,
                tol: float = 1e-10, max_iter: int = 500,
                restart: int = None) -> SolveReport:
    """Solve the all-at-once system, optionally omega-circulant preconditioned.

    Full GMRES by default; above 2e5 unknowns the basis is capped at 50
    vectors per cycle to bound memory.
    """
    if restart is None and system.shape[0] > 200_000:
        restart = 50
    apply_p = precond.apply if precond is not None else None
    report = gmres(system.apply, system.rhs, precond=apply_p, tol=tol,
                   max_iter=max_iter, restart=restart)
    report.path = "gmres+omega" if precond is not None else "gmres"
    report.timings = {"total": report.wall_time}
    if precond is not None:
        report.theta, report.gap = precond.theta, precond.gap
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


def _rotate(R, C):
    """R[j] = C R[j] for every time row j; C (2, 2, M) is one 2x2 per mode."""
    T = np.empty(C.shape, R.dtype)
    for row in R:
        np.add(*np.multiply(C, row, out=T).swapaxes(0, 1), out=row)


def direct_solve(system: AllAtOnceSystem) -> SolveReport:
    """Exact solve by diagonalizing space, then two scalar sweeps per mode.

    One spatial transform (DFT on a torus, only the n//2+1 ``rfft`` modes
    for real data; DST-I between walls) leaves a 2N system per mode.  The
    Schur form of its D_k by U = s [[1, -conj(mu1)], [mu1, 1]], s = 1/sqrt(1
    + |mu1|^2), unitary at a Jordan block too, has diagonal mu and t12 = 1 +
    conj(mu1) mu2: scalar systems (A - qI) y = r, q = tau*mu, the first with
    tau t12 y2 added.  Their sweeps contract when q is off [-i, i], the
    scheme's (k1, k2) = (1, 1) condition; on it (``marginal_modes``) the
    true residual is the check.  All in place on the mode array.
    """
    t0 = time.perf_counter()
    sys_, gmm = system.sys, system.gmm
    N, n, tau = gmm.n_steps, sys_.n, gmm.tau
    rhs = np.asarray(system.rhs)
    real = not np.iscomplexobj(rhs)      # P and Q are real by construction
    half = real and sys_.is_circulant
    mu = eigenvalues_of_D(sys_).reshape(2, n)
    mu = mu if mu.imag.any() else mu.real       # real D_k: real sweeps
    R = (np.fft.rfft if half else sys_.to_modes)(rhs.reshape(N, 2, n))
    R = R.astype(np.result_type(R, mu), copy=False)
    m1, m2 = mu[:, : R.shape[-1]]
    t1 = time.perf_counter()
    s = 1.0 / np.sqrt(1.0 + abs(m1) ** 2)
    _rotate(R, np.array([[s, s * m1.conj()], [-s * m1, s]]))    # U^H R
    marginal = _scalar_sweeps(R[:, 1], tau * m2)
    coupling = tau * (1.0 + m1.conj() * m2)
    for j in range(N):
        R[j, 0] += coupling * R[j, 1]
    marginal += _scalar_sweeps(R[:, 0], tau * m1)
    _rotate(R, np.array([[s, -s * m1.conj()], [s * m1, s]]))    # U Y
    t2 = time.perf_counter()
    x = (np.fft.irfft(R, n=n) if half else sys_.from_modes(R)).ravel()
    del R                                # room for the residual's apply
    if real:
        x = np.ascontiguousarray(x.real)
    t3 = time.perf_counter()
    res = _true_residual(system.apply, rhs, x)
    t4 = time.perf_counter()
    timings = {"transform": t1 - t0, "sweeps": t2 - t1,
               "inverse_transform": t3 - t2, "true_residual": t4 - t3}
    return SolveReport(solution=x, iterations=1, residual_history=[res],
                       converged=res < TRUE_RESIDUAL_MAX, wall_time=t4 - t0,
                       true_residual=res, path="direct", half_spectrum=half,
                       timings=timings, marginal_modes=marginal)
