"""The pointwise odd image of a profile, the reference for the sampled one.

``odd_reflection`` composes lambdas that evaluate f(x) - f(2c - x) anywhere,
each profile piece at x and again at 2c - x.  The library samples an
``OddImage`` once per torus node instead and reflects by index, which moves
each mirror argument by a few ulps; the tests hold the two together.
"""

from halfbvm.doubling import LineProfile


def odd_reflection(p: LineProfile, center: float) -> LineProfile:
    """f(x) - f(2c - x): the odd image of a profile about x = c.

    Sampled on [0, 2c) this is the odd periodic extension of f restricted to
    (0, c), up to the decaying tails of f.  H[f'] composes from p's via
    H[phi(2c - .)](x) = -(H phi)(2c - x), so a spectral fit happens once,
    here, in p's own frame.
    """
    c2 = 2.0 * center
    ev = p.hilbert_dx_evaluator()
    value = lambda x: p.value(x) - p.value(c2 - x)
    dx = None if p.dx is None else (lambda x: p.dx(x) + p.dx(c2 - x))
    return LineProfile(value=value, dx=dx, hilbert_dx=lambda x: ev(x) - ev(c2 - x))
