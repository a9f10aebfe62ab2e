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
evaluated once per spatial profile here, and the all-at-once assembly keeps
each source term's vector as a factor of its rhs.

On the odd-doubled torus [0, 2c) the data is an ``OddImage``, f(x) - f(2c - x)
of a profile f.  It is sampled, then reflected: f, f' and H[f'] are evaluated
once at the m nodes x_j and at x = 2c, and node m - j stands for the mirror
point 2c - x_j, which it is to a few ulps.  The image on the nodes is then
F_j - F_{m-j} (F_j + F_{m-j} for f'), exactly odd (even) on the grid, and a
fitted profile costs m + 1 evaluation points, not 2m.
"""

from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from . import hilbert as ht
from .spatial import ADVECTION, SCALAR, ZERO, DiscreteSystem

__all__ = [
    "FIT_ORDER",
    "LineProfile",
    "profile_from_catalog",
    "OddImage",
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
        ``fit`` at its order with the ``one_sided`` sum of a real fit
        or the ``two_sided`` one of a complex fit."""
        if self.hilbert_dx is not None:
            return {"route": "closed_form"}
        return {"route": "fit", "order": self._fit.order,
                "sum": "one_sided" if self._fit.real else "two_sided"}


def profile_from_catalog(f: ht.CatalogFunction) -> LineProfile:
    return LineProfile(value=f, dx=f.derivative, hilbert=f.hilbert,
                       hilbert_dx=f.hilbert_derivative, center=f.shift)


@dataclass(frozen=True)
class OddImage:
    """f(x) - f(2c - x) of a profile f, its odd image about x = c: on [0, 2c)
    the odd periodic extension of f restricted to (0, c), up to the decaying
    tails of f.  It is data for the torus [0, 2c) and is only ever sampled
    there (``_samples``), never evaluated pointwise; a spectral fit of f
    happens in f's own frame and is kept by f."""

    profile: LineProfile
    center: float


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
    """The pair (u, v) on the grid unknowns.  A state sampled from a profile
    (``doubled_initial_state``) also keeps ``hilbert_dx``, the H[u0'] on the
    nodes that v was built from, so the run record can compare the line data
    with the torus the run is posed on."""

    u: np.ndarray
    v: np.ndarray
    hilbert_dx: np.ndarray = field(default=None, repr=False, compare=False)

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


def _profile_samples(p: LineProfile, x, need_dx: bool):
    """(f, f', H[f']) of a profile at the points x; f' is None unless asked."""
    F = np.asarray(p.value(x))
    hdx = np.asarray(p.hilbert_dx_evaluator()(x))
    if not need_dx:
        return F, None, hdx
    if p.dx is None:
        raise ht.UnsupportedFunctionError(
            "the drift operator needs the profile's derivative dx")
    return F, np.asarray(p.dx(x)), hdx


def _samples(profile, sys: DiscreteSystem):
    """(f, f', H[f']) of a profile or an ``OddImage`` on the grid nodes; f'
    only under the drift operator, else None.

    An odd image about c samples its profile once at the nodes x_j = j h of
    the torus [0, 2c) and at x_m = 2c, then reflects by index: node m - j is
    the mirror point 2c - x_j.  So the value and H[f'] pieces are exactly odd
    on the grid, F_j - F_{m-j}, and f' exactly even, F_j + F_{m-j}.
    """
    need_dx = sys.op.variant == ADVECTION
    if not isinstance(profile, OddImage):
        return _profile_samples(profile, sys.grid.nodes, need_dx)
    grid = sys.grid
    if not (sys.is_circulant and 2.0 * profile.center == grid.length):
        raise ValueError(f"an odd image about x = {profile.center} is sampled on "
                         f"the torus [0, {2.0 * profile.center}), not on this grid")
    F, dF, hdx = _profile_samples(profile.profile,
                                  np.append(grid.nodes, grid.length), need_dx)
    # a[:0:-1][j] is a[m - j], the sample at the mirror point of node j
    return (F[:-1] - F[:0:-1], None if dF is None else dF[:-1] + dF[:0:-1],
            hdx[:-1] - hdx[:0:-1])


def _doubled_pair(profile, sys: DiscreteSystem):
    """(F, Lop(F) - eps*H[F'], H[F']) of a profile or an ``OddImage`` on the
    grid nodes, each piece sampled once (``_samples``)."""
    F, dF, hdx = _samples(profile, sys)
    if sys.op.variant == ZERO:
        lop = np.zeros_like(F)
    elif sys.op.variant == SCALAR:
        lop = sys.op.delta * F
    else:
        lop = sys.op.delta * dF
    return F, lop - _real_if_real(sys.epsilon) * hdx, hdx


def doubled_initial_state(u0, sys: DiscreteSystem) -> DoubledState:
    """Sample u0, a ``LineProfile`` or an ``OddImage``, and build v0 =
    -eps*H[u0'] + Lop(u0) on the grid nodes."""
    u, v, hdx = _doubled_pair(u0, sys)
    dtype = complex if np.iscomplexobj(v) or np.iscomplexobj(u) else float
    return DoubledState(u=u.astype(dtype), v=v.astype(dtype), hilbert_dx=hdx)


def source_block_values(src: SourceSpec, sys: DiscreteSystem):
    """Per-term stacked spatial vectors [F, Lop(F) - eps*H[F']] on the nodes.

    Time stepping only rescales these by T(t); no singular integral is
    evaluated after this point.
    """
    return [(term.time, np.concatenate(_doubled_pair(term.space, sys)[:2]))
            for term in src.terms]


def doubled_source(src: SourceSpec, sys: DiscreteSystem, t) -> np.ndarray:
    """Stacked source G(t) = [f(.,t), Lop(f) - eps*H[f_x]](t) of size 2n.

    For an array of times the rows of the result are G at each time.
    """
    if src.is_zero:
        return np.zeros(np.shape(t) + (2 * sys.n,),
                        dtype=complex if sys.epsilon.imag != 0 else float)
    return reduce(np.add, (np.multiply.outer(time_fn(t), G)
                           for time_fn, G in source_block_values(src, sys)))
