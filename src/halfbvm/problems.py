"""Named experiment configurations with their closed-form transform data.

Every profile is a function on the whole line; domains place the interesting
data at the center so wall values stay near round-off of the measured error.
The manufactured runs fix u(x,t) = cos(t)/(1+y^2)^2 in the centered
coordinate y = x - L/2 and derive the source that makes it exact for each
model; the Hilbert data of each source piece follows from the squared
Lorentzian pair by differentiating under H:

    sq  = 1/(1+y^2)^2          H[sq]  = y(y^2+3) / (2(1+y^2)^2)
    P3  = (y^4+6y^2-3)/(2(1+y^2)^3) = -H[sq']
    H[P3'] = sq''              H[-sq''] = P3'

The drift model is posed on the doubled torus [0, 2L) carrying the odd
reflection of the data, matching the sine-series reference kernel.
"""

import inspect
from dataclasses import dataclass

import numpy as np

from . import oracles
from .doubling import (LineProfile, OddImage, SourceSpec, SourceTerm,
                       ZERO_SOURCE, doubled_initial_state, profile_from_catalog)
from .hilbert import LORENTZIAN, SINE, SQUARED_LORENTZIAN, CatalogFunction
from .spatial import (ADVECTION, DIRICHLET, PERIODIC, SCALAR, ZERO,
                      ConfigurationError, DiscreteSystem, Grid, OperatorKind,
                      assemble_discrete_system)

__all__ = ["Problem", "catalog", "build_problem", "discrete_system",
           "setup_run"]

MODELS = ("half_diffusion", "mass_transfer", "advection", "schrodinger")


# ---------------------------------------------------------------------------
# rational building blocks (centered coordinate)

def _sq(y):
    return 1.0 / (1.0 + y * y) ** 2


def _sq_d(y):
    q = 1.0 + y * y
    return -4.0 * y / (q * q * q)


def _sq_dd(y):
    y2 = y * y
    q2 = (1.0 + y2) ** 2
    return -4.0 * (1.0 - 5.0 * y2) / (q2 * q2)


def _p3(y):
    y2 = y * y
    q = 1.0 + y2
    return (y2 * y2 + 6.0 * y2 - 3.0) / (2.0 * (q * q * q))


def _p3_d(y):
    y2 = y * y
    q2 = (1.0 + y2) ** 2
    return -y * (y2 * y2 + 10.0 * y2 - 15.0) / (q2 * q2)


def _add(f, g):
    return lambda x: f(x) + g(x)


def _bump_profile(center) -> LineProfile:
    """1/(1+y^2)^2 centered, with full closed-form transform data."""
    return profile_from_catalog(
        CatalogFunction(SQUARED_LORENTZIAN, shift=center))


def _profile_sum(parts, center) -> LineProfile:
    """LineProfile for sum_i c_i * fn_i evaluated in y = x - center.

    Each part carries (c, fn, fn', H[fn']); linearity and translation
    invariance of H give the combined transform data.
    """
    def build(idx):
        def total(x):
            y = np.asarray(x, dtype=float) - center
            return sum(p[0] * p[idx](y) for p in parts)
        return total

    return LineProfile(value=build(1), dx=build(2), hilbert_dx=build(3),
                       center=center)


def _manufactured_source(model, eps, delta, center) -> SourceSpec:
    """Source making u = cos(t) * sq(y) exact for the given model.

    f = u_t + eps*(-Delta)^{1/2}u - Lop(u):
      half diffusion: cos(t) * (-eps*P3)             + sin(t) * (-sq)
      mass transfer:  cos(t) * (-eps*P3 - delta*sq)  + sin(t) * (-sq)
      advection:      cos(t) * (-eps*P3 - delta*sq') + sin(t) * (-sq)
    H-chains: H[P3'] = sq'', H[sq'] = -P3, H[sq''] = -P3'.
    """
    cos_parts = [(-eps, _p3, _p3_d, _sq_dd)]
    if model == "mass_transfer":
        cos_parts.append((-delta, _sq, _sq_d, lambda y: -_p3(y)))
    elif model == "advection":
        cos_parts.append((-delta, _sq_d, _sq_dd, lambda y: -_p3_d(y)))
    sin_parts = [(-1.0, _sq, _sq_d, lambda y: -_p3(y))]
    return SourceSpec(terms=(
        SourceTerm(time=np.cos, space=_profile_sum(cos_parts, center)),
        SourceTerm(time=np.sin, space=_profile_sum(sin_parts, center)),
    ))


def _manufactured_exact(center):
    def u(x, t):
        return np.cos(t) * _sq(np.asarray(x, dtype=float) - center)
    return u


def _gaussian_quartic(shift_):
    """exp(-s^4)/(1+s^2) bumps used by the no-closed-form drift run."""

    def g(x):
        s = np.asarray(x, dtype=float) - shift_
        s2 = s * s
        return np.exp(-(s2 * s2)) / (1.0 + s2)

    def gd(x):
        s = np.asarray(x, dtype=float) - shift_
        s2 = s * s
        q = 1.0 + s2
        return -np.exp(-(s2 * s2)) * (4.0 * (s2 * s) * q + 2.0 * s) / (q * q)

    return g, gd


@dataclass(frozen=True)
class Problem:
    """A ready-to-discretize model instance with its reference solution."""

    name: str
    model: str
    L: float
    eps: complex
    delta: float = 0.0
    V: float = 0.0
    u0: LineProfile = None
    source: SourceSpec = ZERO_SOURCE
    exact: object = None              # callable (x, t) or None (series oracle)
    measure_window: tuple = None
    # periodic runs either double the torus with the odd reflection (matches
    # the sine-series reference) or wrap the line data directly with period L
    # (smoother seam; used when the data is symmetric about the center and no
    # series reference is involved)
    periodization: str = "odd_doubled"

    @property
    def scalar_field(self) -> str:
        return "complex" if self.model == "schrodinger" else "real"

    @property
    def boundary(self) -> str:
        return PERIODIC if self.model == "advection" else DIRICHLET

    @property
    def torus(self):
        """The periodization a run applies: None between walls."""
        return self.periodization if self.boundary == PERIODIC else None

    def physical_state(self, state, t: float):
        """Map a solved state at time t to physical fields.

        A constant potential is removed from the dispersive solve by the
        exact rotation u = e^{-iVt} w; the discrete system evolves w, so the
        physical pair is (e^{-iVt} w, e^{-iVt} (w_t - iV w)).
        """
        if self.model != "schrodinger" or self.V == 0.0:
            return state.u, state.v
        phase = np.exp(-1j * self.V * t)
        return phase * state.u, phase * (state.v - 1j * self.V * state.u)

    def operator(self) -> OperatorKind:
        if self.model == "mass_transfer":
            return OperatorKind(SCALAR, self.delta)
        if self.model == "advection":
            return OperatorKind(ADVECTION, self.delta)
        return OperatorKind(ZERO, 0.0)

    def oracle(self, n_max=400, **kw):
        """Reference u(x, t): the stated closed form, else the series solution."""
        if self.exact is not None:
            return self.exact
        if self.model != "schrodinger":
            return oracles.FourierSeriesSolution(
                u0=self.u0.value, source=self.source, eps=self.eps, L=self.L,
                model=self.model, delta=self.delta, n_max=n_max, **kw)
        gamma = complex(self.eps).imag
        return oracles.schrodinger_dalembert(self.u0.value, self.u0.hilbert,
                                             gamma, self.V)


def catalog():
    """Factories for every named configuration."""
    return {
        "half_diffusion_homogeneous": _half_diffusion_homogeneous,
        "half_diffusion_manufactured": _half_diffusion_manufactured,
        "mass_transfer_homogeneous": _mass_transfer_homogeneous,
        "mass_transfer_manufactured": _mass_transfer_manufactured,
        "advection_homogeneous": _advection_homogeneous,
        "advection_manufactured": _advection_manufactured,
        "advection_mms": _advection_mms,
        "advection_gaussian_quartic": _advection_gaussian_quartic,
        "transport_limit": _transport_limit,
        "single_mode": _single_mode,
        "schrodinger_single_mode": _schrodinger_single_mode,
        "schrodinger_two_lorentzian": _schrodinger_two_lorentzian,
    }


def build_problem(name: str, **kw) -> Problem:
    try:
        factory = catalog()[name]
    except KeyError:
        raise KeyError(f"unknown problem {name!r}; known: {sorted(catalog())}")
    takes = inspect.signature(factory).parameters
    for key in kw:
        if key not in takes:
            raise ConfigurationError(f"problem {name!r} takes no parameter {key!r}; "
                                     f"it takes {list(takes)}")
    return factory(**kw)


def _half_diffusion_homogeneous(L=20.0, eps=0.1):
    return Problem(name="half_diffusion_homogeneous", model="half_diffusion",
                   L=L, eps=eps, u0=_bump_profile(L / 2.0))


def _half_diffusion_manufactured(L=20.0, eps=0.1):
    c = L / 2.0
    return Problem(name="half_diffusion_manufactured", model="half_diffusion",
                   L=L, eps=eps, u0=_bump_profile(c),
                   source=_manufactured_source("half_diffusion", eps, 0.0, c),
                   exact=_manufactured_exact(c))


def _mass_transfer_homogeneous(L=20.0, eps=0.1, delta=0.02):
    return Problem(name="mass_transfer_homogeneous", model="mass_transfer",
                   L=L, eps=eps, delta=delta, u0=_bump_profile(L / 2.0))


def _mass_transfer_manufactured(L=20.0, eps=0.1, delta=0.02):
    c = L / 2.0
    return Problem(name="mass_transfer_manufactured", model="mass_transfer",
                   L=L, eps=eps, delta=delta, u0=_bump_profile(c),
                   source=_manufactured_source("mass_transfer", eps, delta, c),
                   exact=_manufactured_exact(c))


def _advection_homogeneous(L=20.0, eps=0.01, delta=0.2):
    return Problem(name="advection_homogeneous", model="advection",
                   L=L, eps=eps, delta=delta, u0=_bump_profile(L / 2.0),
                   measure_window=(0.0, L))


def _advection_manufactured(L=20.0, eps=0.01, delta=0.2):
    """Drift run fed with the diffusion-model manufactured source.

    The convergence study of the drift model reuses the same source as the
    pure diffusion one, so no closed form exists; the series solution is the
    reference.  ``advection_mms`` is the fully manufactured variant.
    """
    c = L / 2.0
    return Problem(name="advection_manufactured", model="advection",
                   L=L, eps=eps, delta=delta, u0=_bump_profile(c),
                   source=_manufactured_source("half_diffusion", eps, delta, c),
                   measure_window=(0.0, L))


def _advection_mms(L=20.0, eps=0.01, delta=0.2):
    c = L / 2.0
    return Problem(name="advection_mms", model="advection",
                   L=L, eps=eps, delta=delta, u0=_bump_profile(c),
                   source=_manufactured_source("advection", eps, delta, c),
                   exact=_manufactured_exact(c), measure_window=(0.0, L))


def _advection_gaussian_quartic(L=20.0, eps=0.01, delta=0.2):
    """Drift run whose data has no closed-form transform (spectral fit only).

    The bumps sit at x = +-2 as stated, not domain-centered: they are already
    compatible with the walls (quartic-exponential tails), and the leftward
    drift carries the state out through the absorbing side during long runs,
    which is part of what the reported error measures.
    """
    g_p, gd_p = _gaussian_quartic(2.0)
    g_m, gd_m = _gaussian_quartic(-2.0)
    u0 = LineProfile(value=g_p, dx=gd_p, center=2.0)
    src = SourceSpec(terms=(SourceTerm(
        time=lambda t: -np.cos(t),
        space=LineProfile(value=_add(g_p, g_m), dx=_add(gd_p, gd_m), center=0.0)),))
    return Problem(name="advection_gaussian_quartic", model="advection",
                   L=L, eps=eps, delta=delta, u0=u0, source=src,
                   measure_window=(0.0, L))


def _transport_limit(L=20.0, delta=1.0):
    c = L / 2.0
    u0 = _bump_profile(c)

    def exact(x, t):
        return _sq(np.asarray(x, dtype=float) + delta * t - c)

    return Problem(name="transport_limit", model="advection", L=L, eps=0.0,
                   delta=delta, u0=u0, exact=exact, measure_window=(0.0, L),
                   periodization="plain")


def _single_mode(L=20.0, eps=0.1, mode=1):
    k = mode * np.pi / L
    u0 = profile_from_catalog(CatalogFunction(SINE, alpha=k))

    def exact(x, t):
        return np.exp(-eps * k * t) * np.sin(k * np.asarray(x, dtype=float))

    return Problem(name="single_mode", model="half_diffusion", L=L, eps=eps,
                   u0=u0, exact=exact)


def _schrodinger_single_mode(L=20.0, gamma=0.1, mode=1, V=0.0):
    k = mode * np.pi / L
    u0 = profile_from_catalog(CatalogFunction(SINE, alpha=k))

    def exact(x, t):
        return (np.sin(k * np.asarray(x, dtype=float))
                * np.exp(-1j * (gamma * k + V) * t))

    return Problem(name="schrodinger_single_mode", model="schrodinger", L=L,
                   eps=1j * gamma, V=V, u0=u0, exact=exact)


def _schrodinger_two_lorentzian(L=100.0, gamma=0.1, V=0.0, separation=10.0,
                                weights=(2.0, -5.0)):
    c1 = L / 2.0 - separation / 2.0
    c2 = L / 2.0 + separation / 2.0
    f1 = CatalogFunction(LORENTZIAN, shift=c1, scale=weights[0])
    f2 = CatalogFunction(LORENTZIAN, shift=c2, scale=abs(weights[1]))
    sgn2 = np.sign(weights[1])

    u0 = LineProfile(
        value=lambda x: f1(x) + 1j * sgn2 * f2(x),
        dx=lambda x: f1.derivative(x) + 1j * sgn2 * f2.derivative(x),
        hilbert=lambda x: f1.hilbert(x) + 1j * sgn2 * f2.hilbert(x),
        hilbert_dx=lambda x: (f1.hilbert_derivative(x)
                              + 1j * sgn2 * f2.hilbert_derivative(x)),
        center=L / 2.0)
    return Problem(name="schrodinger_two_lorentzian", model="schrodinger",
                   L=L, eps=1j * gamma, V=V, u0=u0)


# ---------------------------------------------------------------------------
# discretization of a Problem

@dataclass(frozen=True)
class RunSetup:
    """Everything a solve needs: system, initial state and source."""

    grid: Grid
    sys: object
    u0v0: object
    source: SourceSpec


def discrete_system(problem: Problem, h: float = None,
                    m: int = None) -> DiscreteSystem:
    """The grid rule: drift models on the odd-doubled torus get [0, 2L) with
    2m cells, every other run (0, L) with m.  The mesh width h refers to the
    physical domain (0, L) in either case."""
    if (h is None) == (m is None):
        raise ConfigurationError("space grid: give exactly one of h, m")
    if m is None:
        m = int(round(problem.L / h))
    if problem.torus == "odd_doubled":
        grid = Grid(length=2.0 * problem.L, m=2 * m, boundary=PERIODIC)
    else:
        grid = Grid(length=problem.L, m=m, boundary=problem.boundary)
    return assemble_discrete_system(grid, problem.eps, problem.operator())


def setup_run(problem: Problem, h: float = None, m: int = None) -> RunSetup:
    """Discretize in space.  On the odd-doubled torus [0, 2L) the data is each
    profile's ``OddImage`` about x = L, which the initial state and the
    assembly sample once per node and reflect by index."""
    sys = discrete_system(problem, h=h, m=m)
    u0, src = problem.u0, problem.source
    if problem.torus == "odd_doubled":
        u0 = OddImage(u0, problem.L)
        src = SourceSpec(terms=tuple(
            SourceTerm(time=t.time, space=OddImage(t.space, problem.L))
            for t in src.terms))
    u0v0 = doubled_initial_state(u0, sys)
    return RunSetup(grid=sys.grid, sys=sys, u0v0=u0v0, source=src)
