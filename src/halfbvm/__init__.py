"""Solvers for 1-D evolution equations driven by the half-Laplacian.

The pipeline: evaluate the half-Laplacian through the Hilbert transform of
the derivative (the data's closed form when it has one, else a rational
spectral fit), double the problem into a first-order system in time so that
time stepping never touches a singular integral, integrate with the
generalized-midpoint boundary value scheme as one all-at-once linear system,
and solve that system with GMRES under an omega-circulant preconditioner
whose frequency blocks decouple and reduce to half-size solves.  One spatial
eigenbasis, ``Modes``, serves GMRES and the direct solve (which share its
orthonormal transforms), the preconditioner and the spectrum.
"""

from .bvm import AllAtOnceSystem, GmmMatrices, assemble_all_at_once, build_gmm, \
    extract_trajectory
from .doubling import (DoubledState, LineProfile, SourceSpec, SourceTerm,
                       ZERO_SOURCE, doubled_initial_state, doubled_source,
                       profile_from_catalog)
from .hilbert import (CatalogFunction, InvalidSampleError,
                      UnsupportedFunctionError, WeidemanExpansion,
                      weideman_eval, weideman_fit)
from .krylov import (OmegaPreconditioner, SolveReport, build_preconditioner,
                     direct_solve, gmres, gmres_solve)
from .oracles import (FourierSeriesSolution, relative_l2_error,
                      schrodinger_dalembert)
from .problems import Problem, build_problem, catalog, setup_run
from .spatial import (DIRICHLET, PERIODIC, ConfigurationError, DiscreteSystem,
                      Grid, GridTooSmallError, Modes, OperatorKind,
                      assemble_discrete_system)
from .spectrum import (ONE_STEP, MethodPolynomials, boundary_locus,
                       eigenvalues_of_D, gmm_polynomials, gmm_stability_verdict,
                       lmm_catalog, rk_boundary_points)

__version__ = "0.1.0"
