"""The benchmark's workloads: CLI configs made from a seed, and output checks.

Seed 0 gives the configs exactly as listed in README.md.  Any other seed
scales ``eps`` and ``delta`` by independent factors in [0.99, 1.01] (only
``delta`` on ``converge_sweep``), so a claim can be re-checked on inputs not
used while writing it.  The program only ever sees the generated config file.
"""

import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

WORKERS = 2                 # sweep threads of the converge op
RESIDUAL_MAX = 1e-8         # true residual ||b - Mx|| / ||b|| of every solve
AGREEMENT_MAX = 1e-6        # GMRES against direct on the same discretisation
SLOPE_RANGE = (1.8, 2.2)    # fitted error slope of the h-sweep

# the reasons for each are in BENCHMARK.json and README.md
WORKLOADS = ("walls_gmres", "drift_quartic", "converge_sweep")


@dataclass(frozen=True)
class Op:
    """One ``halfbvm`` CLI call: ``halfbvm <command> --config <config>``."""

    label: str
    command: str
    config: dict
    args: tuple = ()
    keep_solution: bool = False


@dataclass
class OpResult:
    """What one op did, and what the checks found."""

    op: Op
    rc: int
    wall_s: float
    out_dir: object
    residuals: list = field(default_factory=list)
    iterations: int = 0
    basis_mb: float = 0.0
    solution: np.ndarray = field(default=None, repr=False)
    rel_l2_error: float = None
    errors: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.errors)


def _factors(seed: int):
    rng = random.Random(seed)
    while True:
        yield 1.0 if seed == 0 else 1.0 + 0.01 * (2.0 * rng.random() - 1.0)


def make_ops(workload: str, seed: int, small: bool = False) -> list:
    """The ops of one pass, the workload's main op first.  ``small`` coarsens
    h and tau (the warm-up and the smoke tests use it)."""
    f = _factors(seed)
    if workload == "walls_gmres":
        s = 4.0 if small else 1.0
        cfg = {"problem": "half_diffusion_manufactured", "T": 4.0,
               "tau": 0.025 * s, "h": 0.05 * s, "eps": 0.1 * next(f),
               "solver": {"tol": 1e-10, "max_iter": 800}}
        direct = dict(cfg, solver=dict(cfg["solver"], method="direct"))
        return [Op("gmres_solve", "solve", cfg, keep_solution=True),
                Op("direct_solve", "solve", direct, keep_solution=True)]
    if workload == "drift_quartic":
        s = 4.0 if small else 1.0
        cfg = {"problem": "advection_gaussian_quartic", "T": 20.0,
               "tau": 0.0312 * s, "h": 0.00625 * s, "eps": 0.01 * next(f),
               "delta": 0.2 * next(f), "solver": {"method": "direct"}}
        return [Op("direct_solve", "solve", cfg), Op("spectrum", "spectrum", cfg)]
    if workload == "converge_sweep":
        # eps stays fixed: +2% eps adds ~11% unpreconditioned iterations and
        # ~50% time, so it would turn seed-to-seed spread into a work change;
        # the sweep's own slope needs a finer grid than h*4 to stay in range
        s = 2.0 if small else 1.0
        cfg = {"problem": "mass_transfer_manufactured", "T": 2.0,
               "eps": 0.1, "delta": 0.02 * next(f),
               "h_sweep": [0.5 * s, 0.25 * s, 0.125 * s], "tau_over_h": 0.5,
               "solver": {"tol": 1e-10, "max_iter": 1500}}
        return [Op("converge", "converge", cfg, ("--workers", str(WORKERS)))]
    raise KeyError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def basis_mb(system, kwargs) -> float:
    """Krylov basis size (restart+1) x unknowns x itemsize, computed from the
    arguments by the restart rule of ``krylov.gmres_solve`` and ``gmres``."""
    m = system.shape[0]
    restart, max_iter = kwargs.get("restart"), kwargs.get("max_iter", 500)
    if restart is None and m > 200_000:
        restart = 50
    if restart is None or restart > max_iter:
        restart = max_iter
    restart = min(restart, m)
    itemsize = np.result_type(system.rhs.dtype, float).itemsize
    return (restart + 1) * m * itemsize / 2 ** 20


def record_solves(result: OpResult, captured) -> None:
    """True residual of every captured solve, computed after the op's timer."""
    for name, args, kwargs, report in captured:
        system = args[0]
        b = np.asarray(system.rhs)
        r = b - system.apply(report.solution)
        res = float(np.linalg.norm(r) / max(np.linalg.norm(b), 1e-300))
        result.residuals.append(res)
        if not res <= RESIDUAL_MAX:
            result.errors.append(f"{name}: true residual {res:.3g} > {RESIDUAL_MAX:g}")
        if name == "krylov.gmres":
            result.iterations += report.iterations
            result.basis_mb = max(result.basis_mb, basis_mb(system, kwargs))
        if result.op.keep_solution:
            result.solution = report.solution


def read_outputs(result: OpResult) -> None:
    """Error at T from the manifest (the finest h for a sweep) and the
    sweep's own verdicts."""
    out = result.out_dir
    if result.rc != 0:
        result.errors.append(f"exit code {result.rc}")
        return
    cmd = result.op.command
    if cmd == "solve":
        result.rel_l2_error = json.loads((out / "report.json").read_text())[
            "rel_l2_error_at_T"]
    elif cmd == "converge":
        manifest = json.loads((out / "convergence.json").read_text())
        rows = [line.split(",") for line in
                (out / "convergence.csv").read_text().splitlines()[2:]]
        result.rel_l2_error = float(rows[-1][2])
        slope = manifest["fitted_slope"]
        if slope is None or not SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]:
            result.errors.append(f"fitted slope {slope} outside {SLOPE_RANGE}")
        if manifest["unpreconditioned_hit_iteration_cap"]:
            result.errors.append("unpreconditioned solve hit the iteration cap")
    if result.rel_l2_error is not None and not math.isfinite(result.rel_l2_error):
        result.errors.append(f"rel_l2_error {result.rel_l2_error}")


def check_pass(results) -> None:
    """Checks that span ops: GMRES and direct agree on the same system."""
    kept = [r for r in results if r.op.keep_solution]
    if len(kept) == 2 and all(r.solution is not None for r in kept):
        a, b = (r.solution for r in kept)
        gap = float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))
        if not gap <= AGREEMENT_MAX:
            kept[1].errors.append(f"GMRES and direct differ by {gap:.3g}")
    elif kept:
        kept[-1].errors.append("no solution to cross-check")
    for r in kept:
        r.solution = None
