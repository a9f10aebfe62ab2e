"""Wave-form doubling of the half-Laplacian evolution problem.

Applying the half-Laplacian once more turns u_t = -eps*(-Delta)^{1/2} u +
Lop(u) + f into a second-order problem in time; with v = u_t - f it splits
into the first-order system

    u_t = v + f
    v_t = (-eps^2 Delta - Lop^2) u + 2 Lop v + Lop(f) - eps H[f_x]

    u(x,0) = u0,   v(x,0) = -eps H[u0'](x) + Lop(u0)(x).

Singular integrals appear only in the initial state and in the source data,
never during time stepping, so H[u0'] and H[f_x] are one-time data steps:
each profile's closed form when it has one, else one spectral fit of its
derivative at the fixed ``FIT_ORDER``, which the profile keeps.  They are
evaluated once per spatial profile here and cached by the all-at-once
assembly.
"""

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import hilbert as ht
from .spatial import SCALAR, ZERO, DiscreteSystem

__all__ = [
    "FIT_ORDER",
    "LineProfile",
    "profile_from_catalog",
    "odd_reflection",
    "SourceTerm",
    "SourceSpec",
    "ZERO_SOURCE",
    "DoubledState",
    "doubled_initial_state",
    "doubled_source",
]

# Order of the one spectral fit of a profile's derivative.  At 256 the fit of
# every decaying catalog pair is within 1e-6 of its closed form (acceptance
# criterion 1), and the one fitted catalog problem, the gaussian-quartic drift
# run, reports the same error at 1024.
FIT_ORDER = 256


@dataclass(frozen=True)
class LineProfile:
    """A spatial profile on the real line with its transform data.

    ``value``/``dx`` are vectorized callables; ``hilbert_dx`` evaluates
    H[f'] = (H f)' in closed form, or is None and ``dx`` is fit instead.
    ``hilbert`` (H of the profile itself) is optional, used by oracles.
    ``center`` marks where the profile's structure lives: the spectral fit
    works in coordinates centered there, since its tangent nodes only
    resolve features near the origin.
    """

    value: object
    dx: object = None
    hilbert: object = None
    hilbert_dx: object = None
    center: float = 0.0

    def __call__(self, x):
        return self.value(x)

    def hilbert_dx_evaluator(self):
        """Vectorized H[f']: ``hilbert_dx`` when the profile has a closed
        form, else the profile's spectral fit of ``dx``, taken real when
        its samples were."""
        if self.hilbert_dx is not None:
            return self.hilbert_dx
        fit, c = self._fit, self.center
        if fit.real:
            return lambda x: ht.weideman_eval(fit, np.asarray(x) - c).real
        return lambda x: ht.weideman_eval(fit, np.asarray(x) - c)

    @cached_property
    def _fit(self) -> ht.WeidemanExpansion:
        """The one spectral fit of ``dx`` at ``FIT_ORDER``, made on first use."""
        if self.dx is None:
            raise ht.UnsupportedFunctionError(
                "profile has neither a closed-form H[f'] nor a derivative to fit")
        c = self.center
        return ht.weideman_fit(lambda t: np.asarray(self.dx(t + c)), FIT_ORDER,
                               tail=0.0)

    def hilbert_route(self) -> dict:
        """How H[f'] is formed, for the run record: ``closed_form``, or
        ``fit`` at its order with the ``one_sided`` Horner sum of a real fit
        or the ``two_sided`` one of a complex fit."""
        if self.hilbert_dx is not None:
            return {"route": "closed_form"}
        return {"route": "fit", "order": self._fit.order,
                "sum": "one_sided" if self._fit.real else "two_sided"}


def profile_from_catalog(f: ht.CatalogFunction) -> LineProfile:
    return LineProfile(value=f, dx=f.derivative, hilbert=f.hilbert,
                       hilbert_dx=f.hilbert_derivative, center=f.shift)


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


@dataclass(frozen=True)
class SourceTerm:
    """One separable source contribution T(t) * F(x); T is vectorized."""

    time: object
    space: LineProfile


@dataclass(frozen=True)
class SourceSpec:
    """Source f(x,t) as a sum of separable terms (possibly empty)."""

    terms: tuple = ()

    @property
    def is_zero(self) -> bool:
        return len(self.terms) == 0

    def value(self, x, t):
        if self.is_zero:
            return np.zeros(np.shape(x))
        return sum(term.time(t) * term.space.value(x) for term in self.terms)


ZERO_SOURCE = SourceSpec()


@dataclass(frozen=True)
class DoubledState:
    """The pair (u, v) on the grid unknowns."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        if self.u.shape != self.v.shape or self.u.ndim != 1:
            raise ValueError("u and v must be vectors of equal length")

    def stack(self) -> np.ndarray:
        return np.concatenate([self.u, self.v])

    @classmethod
    def unstack(cls, x: np.ndarray) -> "DoubledState":
        n = x.size // 2
        return cls(u=x[:n], v=x[n:])


def _real_if_real(eps: complex):
    return eps.real if eps.imag == 0.0 else eps


def _doubled_pair(profile: LineProfile, sys: DiscreteSystem):
    """(F, Lop(F) - eps*H[F']) of one profile on the grid nodes."""
    x = sys.grid.nodes
    F = np.asarray(profile.value(x))
    hdx = np.asarray(profile.hilbert_dx_evaluator()(x))
    if sys.op.variant == ZERO:
        lop = np.zeros_like(F)
    elif sys.op.variant == SCALAR:
        lop = sys.op.delta * F
    elif profile.dx is None:
        raise ht.UnsupportedFunctionError(
            "the drift operator needs the profile's derivative dx")
    else:
        lop = sys.op.delta * np.asarray(profile.dx(x))
    return F, lop - _real_if_real(sys.epsilon) * hdx


def doubled_initial_state(u0, sys: DiscreteSystem) -> DoubledState:
    """Sample u0 and build v0 = -eps*H[u0'] + Lop(u0) on the grid nodes."""
    if isinstance(u0, ht.CatalogFunction):
        u0 = profile_from_catalog(u0)
    u, v = _doubled_pair(u0, sys)
    dtype = complex if np.iscomplexobj(v) or np.iscomplexobj(u) else float
    return DoubledState(u=u.astype(dtype), v=v.astype(dtype))


def source_block_values(src: SourceSpec, sys: DiscreteSystem):
    """Per-term stacked spatial vectors [F, Lop(F) - eps*H[F']] on the nodes.

    Time stepping only rescales these by T(t); no singular integral is
    evaluated after this point.
    """
    return [(term.time, np.concatenate(_doubled_pair(term.space, sys)))
            for term in src.terms]


def doubled_source(src: SourceSpec, sys: DiscreteSystem, t,
                   _cache=None) -> np.ndarray:
    """Stacked source G(t) = [f(.,t), Lop(f) - eps*H[f_x]](t) of size 2n.

    For an array of times the rows of the result are G at each time.
    """
    if src.is_zero:
        return np.zeros(np.shape(t) + (2 * sys.n,),
                        dtype=complex if sys.epsilon.imag != 0 else float)
    cached = source_block_values(src, sys) if _cache is None else _cache
    # a single term's product is returned as is, for the caller to scale in place
    return reduce(np.add, (np.multiply.outer(time_fn(t), G) for time_fn, G in cached))
