"""Hilbert-transform references for the tests.

``hilbert_quadrature_oracle`` computes H[f](x) by a slow principal-value
quadrature, independent of both routes the library takes (closed forms and
the rational spectral fit).  ``hilbert_exact_twice`` gives H(H(f)) in closed
form for the catalog kinds whose image is again in the catalog, so the
skew-involution H^2 = -I can be checked.  ``function_tail`` and
``hilbert_tail`` give the 1/x tail coefficients that ``weideman_fit`` takes
when it re-expands a catalog function or its transform image.
"""

import numpy as np

from halfbvm import hilbert as ht

# Entries whose closed-form transform decays like 1/x; the coefficient of
# that tail is needed for accurate re-expansion of the transform image.
_IMAGE_TAIL = {
    ht.LORENTZIAN: 1.0,
    ht.QUARTIC: 1.0 / np.sqrt(2.0),
    ht.SQUARED_LORENTZIAN: 0.5,
    ht.GAUSSIAN: None,   # sqrt(pi/alpha)/pi, filled in per instance
    ht.ODD_LORENTZIAN: -1.0,
}


def hilbert_tail(f: ht.CatalogFunction):
    """Coefficient c in H[f] ~ c/x as |x| -> oo (None when H[f] decays faster)."""
    c = _IMAGE_TAIL.get(f.kind)
    if f.kind == ht.GAUSSIAN:
        c = 1.0 / np.sqrt(np.pi * f.alpha)
    return None if c is None else f.scale * c


def function_tail(f: ht.CatalogFunction):
    """lim x*f(x): zero except for the 1/x-decaying odd Lorentzian."""
    if f.kind in (ht.COSINE, ht.SINE):
        raise ht.UnsupportedFunctionError(
            f"kind {f.kind!r} does not decay; no tail coefficient")
    return f.scale if f.kind == ht.ODD_LORENTZIAN else 0.0


def hilbert_exact_twice(f: ht.CatalogFunction, x):
    """H(H(f)) where the image is itself closed under the catalog.

    Closed chains exist for the Lorentzian, the sine/cosine pair and the odd
    Lorentzian; for the remaining kinds re-expand the exact image with
    ``weideman_fit`` instead.  The skew-involution H^2 = -I makes the
    expected value -f in every case.
    """
    y = np.asarray(x, dtype=float) - f.shift
    a = f.alpha
    if f.kind == ht.LORENTZIAN:
        out = -1.0 / (1.0 + y * y)
    elif f.kind == ht.COSINE:
        out = -np.cos(a * y)
    elif f.kind == ht.SINE:
        out = -np.sin(a * y)
    elif f.kind == ht.ODD_LORENTZIAN:
        # H[-a/(y^2+a^2)] = -y/(y^2+a^2) by the dilated Lorentzian pair
        out = -y / (y * y + a * a)
    else:
        raise ht.UnsupportedFunctionError(
            f"no closed double-transform chain for kind {f.kind!r}")
    return f.scale * out


def hilbert_quadrature_oracle(f, x: float, R: float = 1e3, n_quad: int = 100_000):
    """Principal-value quadrature of H[f](x), the independent oracle.

    Pairs nodes placed symmetrically about the singularity, so the 1/(x-y)
    kernel contributes (f(x-s) - f(x+s))/s which is regular at s=0; midpoint
    panels avoid s=0 itself.  Truncation error is O(1/R) for 1/x^2 tails
    (spectrally small for compactly concentrated f) plus O(n_quad^{-2}).
    """
    if R <= 0:
        raise ValueError("R must be positive")
    n_half = max(int(n_quad) // 2, 8)
    ds = R / n_half
    s = (np.arange(n_half) + 0.5) * ds
    vals = (np.asarray(f(x - s)) - np.asarray(f(x + s))) / s
    return float(np.sum(vals) * ds / np.pi)
