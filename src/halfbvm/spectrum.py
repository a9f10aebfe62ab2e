"""Eigenvalue analysis of the doubled generator and multistep stability.

The doubled block matrix D = [[0, I], [P, Q]] has characteristic roots
lam^2 - lam*lamQ - lamP = 0 over any shared eigenbasis of commuting P, Q,
i.e. lam = (lamQ +- sqrt(lamQ^2 + 4 lamP)) / 2: each operator eigenvalue of
the original problem produces a symmetric pair, which is why this artifact
calls the reformulation "doubling".

Stability of a two-boundary multistep scheme at q = tau*lam is decided by
pi(z, q) = rho(z) - q sigma(z): the scheme with (k1, k2) end conditions is
absolutely stable where pi has exactly k1 roots inside and k2 outside the
unit circle.  For the midpoint main formula with a backward-Euler final row
the unstable set is precisely the segment [-i, i] of the boundary locus
q(e^{i theta}) = i sin(theta).

This module owns two facts of a run: ``gmm_stability_verdict`` is the run
record's one count of tau*spec(D) on that segment, and ``ONE_STEP`` with
``lmm_catalog`` names every method the locus dump draws.
"""

import cmath
import warnings
from dataclasses import dataclass

import numpy as np

from .bvm import INTERIOR, INTERIOR_B
from .spatial import DiscreteSystem

__all__ = [
    "MethodPolynomials",
    "gmm_polynomials",
    "lmm_catalog",
    "boundary_locus",
    "ONE_STEP",
    "rk_boundary_points",
    "eigenvalues_of_D",
    "gmm_stability_verdict",
    "segment_distance",
]

_CONSISTENCY_TOL = 1e-12


class DegenerateMethodError(ValueError):
    pass


@dataclass(frozen=True)
class MethodPolynomials:
    """Characteristic pair (rho, sigma), coefficients ordered low to high.

    Consistency demands rho(1) = 0 and rho'(1) = sigma(1); both are enforced
    at construction.
    """

    rho: tuple
    sigma: tuple
    k1: int
    k2: int
    name: str = "method"

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        sigma = np.asarray(self.sigma, dtype=complex)
        if len(rho) != self.k1 + self.k2 + 1:
            raise ValueError("rho must have degree k1 + k2")
        r1 = np.polyval(rho[::-1], 1.0)
        dr1 = np.polyval(np.polyder(rho[::-1]), 1.0)
        s1 = np.polyval(sigma[::-1], 1.0)
        if abs(r1) > _CONSISTENCY_TOL or abs(dr1 - s1) > _CONSISTENCY_TOL:
            raise ValueError(
                f"inconsistent method: rho(1)={r1:.3g}, rho'(1)-sigma(1)={dr1 - s1:.3g}")

    def rho_at(self, z):
        return np.polyval(np.asarray(self.rho, dtype=complex)[::-1], z)

    def sigma_at(self, z):
        return np.polyval(np.asarray(self.sigma, dtype=complex)[::-1], z)


def gmm_polynomials() -> MethodPolynomials:
    """Midpoint main formula: rho = (z^2 - 1)/2, sigma = z, (k1, k2) = (1, 1),
    read from the interior rows of A and B in ``bvm``."""
    return MethodPolynomials(rho=INTERIOR, sigma=INTERIOR_B, k1=1, k2=1, name="gmm")


def lmm_catalog():
    """Classical linear multistep methods for locus plots."""
    return {
        "explicit_euler": MethodPolynomials((-1.0, 1.0), (1.0, 0.0), 1, 0,
                                            "explicit_euler"),
        "implicit_euler": MethodPolynomials((-1.0, 1.0), (0.0, 1.0), 1, 0,
                                            "implicit_euler"),
        "gmm": gmm_polynomials(),
        "bdf2": MethodPolynomials((0.5, -2.0, 1.5), (0.0, 0.0, 1.0), 2, 0, "bdf2"),
        "bdf4": MethodPolynomials((0.25, -4.0 / 3.0, 3.0, -4.0, 25.0 / 12.0),
                                  (0.0, 0.0, 0.0, 0.0, 1.0), 4, 0, "bdf4"),
    }


def boundary_locus(mp: MethodPolynomials, n_theta: int = 720) -> np.ndarray:
    """Samples of q(e^{i theta}) = rho/sigma over [0, 2pi).

    Sample angles where sigma vanishes are skipped and reported as a warning.
    """
    if not np.any(np.abs(mp.sigma)):
        raise DegenerateMethodError("sigma is identically zero")
    theta = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    z = np.exp(1j * theta)
    s = mp.sigma_at(z)
    ok = np.abs(s) > 1e-14
    if not np.all(ok):
        warnings.warn(f"{mp.name}: skipped {int(np.sum(~ok))} locus samples "
                      "where sigma(e^{i theta}) = 0")
    return mp.rho_at(z[ok]) / s[ok]


# Stability functions R = num/den of the one-step methods displayed alongside
# the LMM loci, coefficients low to high: the locus knows these names
ONE_STEP = {
    "rk2": (np.array([1.0, 1.0, 0.5]), np.array([1.0])),
    "rk4": (np.array([1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0]), np.array([1.0])),
    # 2-stage Radau IIA: R(z) = (1 + z/3) / (1 - 2z/3 + z^2/6)
    "radau_iia": (np.array([1.0, 1.0 / 3.0]), np.array([1.0, -2.0 / 3.0, 1.0 / 6.0])),
}


def rk_boundary_points(name: str, n_theta: int = 720) -> np.ndarray:
    """|R(z)| = 1 contour of the one-step stability function ``ONE_STEP[name]``.

    Solves R(z) = e^{i theta} as a polynomial root problem per angle and
    returns all finite roots; this traces the region boundary without
    assuming it is star shaped.
    """
    num, den = ONE_STEP[name]
    theta = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    pts = []
    deg = max(len(num), len(den))
    for th in theta:
        c = np.zeros(deg, dtype=complex)
        c[: len(num)] += num
        c[: len(den)] -= cmath.exp(1j * th) * den
        roots = np.roots(c[::-1])
        pts.extend(roots.tolist())
    return np.asarray(pts)


def eigenvalues_of_D(sys: DiscreteSystem) -> np.ndarray:
    """All 2n eigenvalues of the doubled generator: the roots mu[:, k] of
    lam^2 - q_k lam - p_k = 0 of each spatial mode (``DiscreteSystem.modes``)."""
    return sys.modes().mu.ravel()


def segment_distance(q) -> np.ndarray:
    """Distance from points q to the closed segment [-i, i]."""
    q = np.asarray(q, dtype=complex)
    return np.hypot(q.real, np.maximum(np.abs(q.imag) - 1.0, 0.0))


def gmm_stability_verdict(sys: DiscreteSystem, tau: float,
                          tol: float = 1e-12) -> dict:
    """The run record's verdict of tau*spec(D) against the segment [-i, i]:
    ``offending_modes`` counts the eigenvalues with tau*lam on it (or within
    ``tol``) over all 2n, ``stable`` is true when there are none, and
    ``all_marginal`` when each of them is the (conserved) constant mode,
    |tau*lam| <= 1e-10.

    The flagged set is conservative: the stability region is open, so
    borderline modes such as a periodic constant mode are reported rather
    than silently accepted.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    q = tau * eigenvalues_of_D(sys)
    bad = q[segment_distance(q) <= tol]
    return {"stable": bad.size == 0, "offending_modes": int(bad.size),
            "all_marginal": bool(np.all(np.abs(bad) <= 1e-10))}
