"""Hilbert transforms on the real line and the half-Laplacian built from them.

The transform used throughout is::

                1        /  f(y)
    H[f](x) =  --  p.v.  | ------ dy ,
                pi       /  x - y

so that H[1/(1+x^2)] = x/(1+x^2), H[cos] = sin and H^2 = -I.  On
differentiable decaying functions the half-Laplacian is then

    (-Delta)^{1/2} f = H[f'] .

Two routes give H[f'] to the solver, chosen by the data: a catalog of
closed forms (``CatalogFunction.hilbert_derivative``), and a spectral
approximation by expansion in the rational eigenfunctions of H (fit with
one FFT) for profiles without one; ``doubling.LineProfile`` picks between
them and fixes the fit order.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import dawsn

__all__ = [
    "CatalogFunction",
    "WeidemanExpansion",
    "UnsupportedFunctionError",
    "InvalidSampleError",
    "weideman_fit",
    "weideman_eval",
]

LORENTZIAN = "lorentzian"                    # 1/(1+x^2)
QUARTIC = "quartic"                          # 1/(1+x^4)
SQUARED_LORENTZIAN = "squared_lorentzian"    # 1/(1+x^2)^2
GAUSSIAN = "gaussian"                        # exp(-alpha x^2)
COSINE = "cosine"                            # cos(alpha x)
SINE = "sine"                                # sin(alpha x)
ODD_LORENTZIAN = "odd_lorentzian"            # x/(x^2+alpha^2)

_KINDS = (LORENTZIAN, QUARTIC, SQUARED_LORENTZIAN, GAUSSIAN, COSINE, SINE,
          ODD_LORENTZIAN)
_NEEDS_POSITIVE_ALPHA = (GAUSSIAN, ODD_LORENTZIAN, COSINE, SINE)

class UnsupportedFunctionError(ValueError):
    """Requested a closed-form transform that the catalog does not provide."""


class InvalidSampleError(ValueError):
    """A sample used to build an expansion was not finite."""


@dataclass(frozen=True)
class CatalogFunction:
    """One of the closed-form transform pairs, with translation and scaling.

    Evaluates ``scale * base(x - shift)`` where ``base`` is fixed by ``kind``.
    The transform follows by linearity and translation invariance of H.
    """

    kind: str
    alpha: float = 1.0
    shift: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise UnsupportedFunctionError(f"unknown catalog kind {self.kind!r}")
        if self.kind in _NEEDS_POSITIVE_ALPHA and not self.alpha > 0:
            raise UnsupportedFunctionError(
                f"kind {self.kind!r} requires alpha > 0, got {self.alpha}")
        if not np.isfinite([self.alpha, self.shift, self.scale]).all():
            raise UnsupportedFunctionError("catalog parameters must be finite")

    def __call__(self, x):
        y = np.asarray(x, dtype=float) - self.shift
        a = self.alpha
        if self.kind == LORENTZIAN:
            base = 1.0 / (1.0 + y * y)
        elif self.kind == QUARTIC:
            base = 1.0 / (1.0 + y ** 4)
        elif self.kind == SQUARED_LORENTZIAN:
            base = 1.0 / (1.0 + y * y) ** 2
        elif self.kind == GAUSSIAN:
            base = np.exp(-a * y * y)
        elif self.kind == COSINE:
            base = np.cos(a * y)
        elif self.kind == SINE:
            base = np.sin(a * y)
        else:
            base = y / (y * y + a * a)
        return self.scale * base

    def derivative(self, x):
        y = np.asarray(x, dtype=float) - self.shift
        a = self.alpha
        if self.kind == LORENTZIAN:
            d = -2.0 * y / (1.0 + y * y) ** 2
        elif self.kind == QUARTIC:
            d = -4.0 * y ** 3 / (1.0 + y ** 4) ** 2
        elif self.kind == SQUARED_LORENTZIAN:
            d = -4.0 * y / (1.0 + y * y) ** 3
        elif self.kind == GAUSSIAN:
            d = -2.0 * a * y * np.exp(-a * y * y)
        elif self.kind == COSINE:
            d = -a * np.sin(a * y)
        elif self.kind == SINE:
            d = a * np.cos(a * y)
        else:
            d = (a * a - y * y) / (y * y + a * a) ** 2
        return self.scale * d

    def hilbert(self, x):
        """The closed-form H[f] from the catalog."""
        y = np.asarray(x, dtype=float) - self.shift
        a = self.alpha
        if self.kind == LORENTZIAN:
            h = y / (1.0 + y * y)
        elif self.kind == QUARTIC:
            h = y * (y * y + 1.0) / (np.sqrt(2.0) * (y ** 4 + 1.0))
        elif self.kind == SQUARED_LORENTZIAN:
            h = y * (y * y + 3.0) / (2.0 * (1.0 + y * y) ** 2)
        elif self.kind == GAUSSIAN:
            # Dawson-function form; sign fixed against the quadrature oracle.
            h = (2.0 / np.sqrt(np.pi)) * dawsn(np.sqrt(a) * y)
        elif self.kind == COSINE:
            h = np.sin(a * y)
        elif self.kind == SINE:
            h = -np.cos(a * y)
        else:
            h = -a / (y * y + a * a)
        return self.scale * h

    def hilbert_derivative(self, x):
        """d/dx of H[f]; equals H[f'] since H commutes with differentiation."""
        y = np.asarray(x, dtype=float) - self.shift
        a = self.alpha
        if self.kind == LORENTZIAN:
            h = (1.0 - y * y) / (1.0 + y * y) ** 2
        elif self.kind == QUARTIC:
            h = (-y ** 6 - 3.0 * y ** 4 + 3.0 * y * y + 1.0) / (
                np.sqrt(2.0) * (y ** 4 + 1.0) ** 2)
        elif self.kind == SQUARED_LORENTZIAN:
            h = -(y ** 4 + 6.0 * y * y - 3.0) / (2.0 * (1.0 + y * y) ** 3)
        elif self.kind == GAUSSIAN:
            z = np.sqrt(a) * y
            h = (2.0 * np.sqrt(a) / np.sqrt(np.pi)) * (1.0 - 2.0 * z * dawsn(z))
        elif self.kind == COSINE:
            h = a * np.cos(a * y)
        elif self.kind == SINE:
            h = a * np.sin(a * y)
        else:
            h = 2.0 * a * y / (y * y + a * a) ** 2
        return self.scale * h


@dataclass(frozen=True)
class WeidemanExpansion:
    """Expansion of a function in the rational eigenfunctions of H.

    ``coefficients[k]`` holds a_n for n = k - N, n = -N .. N-1, built from
    samples at the nodes x_j = tan(theta_j / 2), theta_j = j pi / N.
    ``real`` marks an expansion of real samples, whose coefficients pair up
    as a_{-n-1} = conj(a_n).  Immutable after construction and safe to share
    across threads.
    """

    order: int
    coefficients: np.ndarray = field(repr=False)
    real: bool = False

    def __post_init__(self):
        if self.coefficients.shape != (2 * self.order,):
            raise ValueError("expansion needs exactly 2N coefficients")
        self.coefficients.setflags(write=False)


def weideman_fit(f, N: int, tail=None) -> WeidemanExpansion:
    """Expand f over the rational basis from 2N-1 tangent-node samples.

    ``tail`` is the limit of x*f(x) for |x| -> oo; it supplies the sample at
    the compactified point theta = pi.  When None it is estimated from the
    outermost nodes, which is exact for inputs decaying faster than 1/x and
    accurate to O(1/x_max^2) otherwise.  One length-2N FFT gives all
    coefficients.
    """
    if N < 4:
        raise ValueError("need N >= 4")
    j = np.arange(-N + 1, N)
    theta = j * np.pi / N
    x = np.tan(theta / 2.0)
    fx = np.asarray(f(x))
    if not np.all(np.isfinite(fx)):
        bad = int(j[np.argmax(~np.isfinite(fx))])
        raise InvalidSampleError(
            f"non-finite sample at node j={bad} (x={np.tan(bad * np.pi / (2 * N)):.6g})")
    w = (1.0 - 1j * x) * fx
    if tail is None:
        xl = x[-1]
        tail = 0.5 * (xl * fx[-1] - xl * fx[0])
    g = np.zeros(2 * N, dtype=complex)
    g[j + N] = w
    g[0] = -1j * tail
    full = np.fft.fft(g) / (2.0 * N)
    ns = np.arange(-N, N)
    coeffs = np.where(ns % 2 == 0, 1.0, -1.0) * full[np.mod(ns, 2 * N)]
    return WeidemanExpansion(order=N, coefficients=coeffs,
                             real=not np.iscomplexobj(fx))


def weideman_eval(e: WeidemanExpansion, x):
    """Evaluate the approximate transform of the expanded function at x.

    Returns sum_n (-i sgn(n+1/2)) a_n z^n / (1-ix), z = (1+ix)/(1-ix), as a
    complex value, by Horner's rule in O(len(x)) memory.  The basis pairs as
    conj(z^n / (1-ix)) = z^(-n-1) / (1-ix), so for real samples, where
    a_{-n-1} = conj(a_n), the sum is 2 Im(sum_{n>=0} a_n z^n / (1-ix)): one
    Horner sum of N terms, and an imaginary part of exactly 0.  Complex
    samples take both sums, the n < 0 terms in 1/z = conj(z).
    """
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        raise ValueError("evaluation point must be finite")

    def horner(coeffs, w):     # coeffs[0] w^(K-1) + ... + coeffs[K-1], small end first
        acc = np.full(x.shape, coeffs[0])
        for ck in coeffs[1:]:
            acc *= w
            acc += ck
        return acc
    N, c = e.order, e.coefficients
    z = np.exp(2j * np.arctan(x))
    ahead = horner(c[:N - 1:-1], z)                 # sum_{n>=0} a_n z^n
    if e.real:
        out = (2.0 * (ahead / (1.0 - 1j * x)).imag).astype(complex)
    else:
        out = horner(c[:N], z.conj()) * z.conj() - ahead
        out *= 1j / (1.0 - 1j * x)
    return complex(out[0]) if scalar else out
