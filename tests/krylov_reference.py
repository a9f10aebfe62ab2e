"""Sequential-Givens lockstep GMRES, the reference for ``krylov.gmres``.

``gmres`` here is the same lockstep loop as the library's, with the textbook
rotation step: at step j each system's new Hessenberg column goes through the
j earlier rotations one by one, and ``_update`` reads the rotated columns.
The library keeps the last row of the rotation product instead and rotates
the raw columns once at the end, so the two must agree to rounding.
"""

import time

import numpy as np

from halfbvm.krylov import (RHS_FLOOR, SolveReport, _combine, _grown,
                            _project)


def _update(basis, cols, g):
    """sum_i y_i v_i of each system, R y = g by back substitution on the
    rotated columns; a zero pivot leaves y_c at g_c = 0."""
    y = np.stack(g[: len(cols)], axis=1)
    for c in range(len(cols) - 1, -1, -1):
        pivot = cols[c][:, c]
        np.divide(y[:, c], pivot, out=y[:, c], where=pivot != 0)
        y[:, :c] -= cols[c][:, :c] * y[:, c: c + 1]
    return _combine(y, basis[:, : len(cols)])


def gmres(apply_op, B, tol, max_iter):
    """``krylov.gmres`` with the rotations applied column by column."""
    t0 = time.perf_counter()
    K, L = B.shape
    work = np.result_type(B.dtype, float)
    beta = np.linalg.norm(B, axis=1)
    res2 = beta ** 2
    beta0 = float(np.sqrt(res2.sum()))
    steps = min(max_iter, L)
    X = np.zeros((K, L), dtype=work)
    history = [1.0 if beta0 > 0 else 0.0]
    floored = K
    if history[0] > tol and steps > 0:
        below = beta <= RHS_FLOOR * tol * beta0 / np.sqrt(K)
        idx = np.flatnonzero(~below)
        floored = K - len(idx)
        frozen = float(res2[below].sum())
        beta = beta[idx]
        basis = np.empty((len(idx), min(8, steps), L), dtype=work)
        basis[:, 0] = B[idx] / beta[:, None]
        cplx = np.iscomplexobj(basis)
        g, cols, rot = [beta.astype(work)], [], []
        for j in range(steps):
            v = apply_op(basis[:, j], idx)
            v = v.astype(work, copy=np.may_share_memory(v, basis))
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
            res2[idx] = np.abs(g[j + 1]) ** 2
            history.append(float(np.sqrt(frozen + res2[idx].sum()) / beta0))
            closed = hk == 0
            if history[-1] <= tol or j + 1 == steps or closed.all():
                break
            if j + 1 == basis.shape[1]:
                basis = _grown(basis, min(2 * (j + 1), steps))
            np.divide(v, np.where(closed, 1.0, hk)[:, None], out=basis[:, j + 1])
            del v
        X[idx] += _update(basis, cols, g)
    return SolveReport(solution=X, iterations=len(history) - 1,
                       residual_history=history, converged=history[-1] <= tol,
                       wall_time=time.perf_counter() - t0, modes=K,
                       floored_modes=floored, rhs_norm=beta0)
