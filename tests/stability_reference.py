"""Root classification of a two-boundary multistep scheme, for the tests.

``classify_stability`` decides, from the roots of pi(z, q) = rho(z) -
q sigma(z), whether ``spectrum.MethodPolynomials`` is S-stable, N-stable or
unstable at one point q.  Acceptance criterion 3 and ``test_spectrum`` check
the midpoint scheme's stability region with it; the library itself only
counts tau*spec(D) on the closed-form segment [-i, i], once, in
``spectrum.gmm_stability_verdict``, whose dict is the run record's
``stability``.
"""

import numpy as np

from halfbvm.spectrum import MethodPolynomials

S_POLYNOMIAL = "S_polynomial"
N_POLYNOMIAL = "N_polynomial"
UNSTABLE = "unstable"


def classify_stability(mp: MethodPolynomials, q: complex, tol: float = 1e-9) -> str:
    """Root classification of pi(z, q) = rho(z) - q sigma(z).

    S: exactly k1 roots strictly inside and k2 strictly outside the unit
    circle.  N: nothing beyond position k1 inside, with unit-modulus roots
    simple.  Anything else is unstable.
    """
    if not np.isfinite([q.real, q.imag]).all():
        raise ValueError("q must be finite")
    rho = np.asarray(mp.rho, dtype=complex)
    sigma = np.zeros_like(rho)
    sigma[: len(mp.sigma)] = mp.sigma
    pi = rho - q * sigma
    # drop vanishing leading coefficients; lost roots live at infinity
    deg = len(pi) - 1
    while deg > 0 and abs(pi[deg]) < 1e-300:
        deg -= 1
    n_infinite = len(pi) - 1 - deg
    if deg == 0:
        raise ValueError("pi(z, q) degenerated to a constant")
    roots = np.roots(pi[deg::-1])
    if not np.all(np.isfinite(roots)):
        raise ArithmeticError(f"root finding failed for pi coefficients {pi}")
    mods = np.sort(np.abs(roots))
    mods = np.concatenate([mods, np.full(n_infinite, np.inf)])
    k1, k2 = mp.k1, mp.k2
    inside_ok = k1 == 0 or mods[k1 - 1] < 1.0 - tol
    outside_ok = k2 == 0 or mods[k1] > 1.0 + tol
    if inside_ok and outside_ok:
        return S_POLYNOMIAL
    on_circle = roots[np.abs(np.abs(roots) - 1.0) <= tol]
    weakly_inside = k2 == 0 or np.sum(mods > 1.0 + tol) <= k2
    others_ok = np.sum(mods < 1.0 - tol) <= k1
    simple = True
    for i in range(len(on_circle)):
        for k in range(i + 1, len(on_circle)):
            if abs(on_circle[i] - on_circle[k]) <= 10 * tol:
                simple = False
    if len(on_circle) and simple and weakly_inside and others_ok:
        return N_POLYNOMIAL
    return UNSTABLE
