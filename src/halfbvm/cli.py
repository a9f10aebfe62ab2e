"""Experiment driver: solve, convergence sweeps, spectra and locus dumps.

Configuration is one JSON document; outputs are CSV files plus a JSON
manifest, each embedding the fully resolved configuration so a run can be
reproduced from any of its artifacts.  Exit codes: 0 success, 2 bad
configuration, 3 solver non-convergence, 4 solver error (no preconditioner
clears GAP_MIN).
"""

import argparse
import json
import math
import sys as _sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import problems, spectrum
from .bvm import assemble_all_at_once, build_gmm, extract_trajectory
from .krylov import PreconditionerError, build_preconditioner, direct_solve, \
    gmres_solve, usable_cpus
from .oracles import FourierSeriesSolution, relative_l2_error
from .spatial import ConfigurationError, GridTooSmallError
from .spectrum import boundary_locus, eigenvalues_of_D, lmm_catalog, \
    rk_boundary_points

__all__ = ["ExperimentConfig", "ConfigError", "load_config", "run_solve",
           "run_convergence", "run_spectrum", "run_locus", "run_schrodinger",
           "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_SOLVER = 4


class ConfigError(ValueError):
    pass


@dataclass
class SolverSettings:
    method: str = "gmres"      # "gmres" or "direct" (spatial eigenbasis solve)
    tol: float = 1e-10
    max_iter: int = 500
    precondition: bool = True
    workers: int = 0           # threads per solve at most; 0: usable_cpus()


@dataclass
class ExperimentConfig:
    """Resolved experiment description.

    Exactly one of (n_steps, tau) and one of (m, h) must be given; sweep
    lists, when present, must be strictly decreasing.
    """

    problem: str
    T: float = 2.0
    L: float = None
    eps: float = None
    delta: float = None
    V: float = None
    mode: int = None
    n_steps: int = None
    tau: float = None
    m: int = None
    h: float = None
    tau_over_h: float = 0.5
    h_sweep: list = None
    tau_sweep: list = None
    snapshot_times: list = None
    n_max: int = 400
    locus_methods: list = None
    window: list = None
    solver: SolverSettings = field(default_factory=SolverSettings)
    out: str = "out"

    def validate(self):
        if self.problem not in problems.catalog():
            raise ConfigError(f"problem: unknown name {self.problem!r}")
        if self.h_sweep is not None and self.tau_sweep is not None:
            raise ConfigError("sweep: give at most one of h_sweep, tau_sweep")
        for name in ("T", "L", "tau", "h", "tau_over_h", "h_sweep", "tau_sweep"):
            value = getattr(self, name)
            if value is None:
                continue
            values = value if isinstance(value, list) else [value]
            if not values:
                raise ConfigError(f"{name}: empty sweep")
            if not all(isinstance(v, (int, float)) and math.isfinite(v) and v > 0
                       for v in values):
                raise ConfigError(f"{name}: must be positive finite numbers")
            if any(b >= a for a, b in zip(values, values[1:])):
                raise ConfigError(f"{name}: must be strictly decreasing")
        if self.tau_sweep is not None and (self.m is None) == (self.h is None):
            raise ConfigError("tau_sweep: fix the space grid with one of m, h")
        if self.h_sweep is None and self.tau_sweep is None:
            if (self.n_steps is None) == (self.tau is None):
                raise ConfigError("time grid: give exactly one of n_steps, tau")
            if (self.m is None) == (self.h is None):
                raise ConfigError("space grid: give exactly one of m, h")
        for name, value, least in (("n_steps", self.n_steps, 2), ("m", self.m, 3),
                                   ("mode", self.mode, 1), ("n_max", self.n_max, 1),
                                   ("solver.max_iter", self.solver.max_iter, 1),
                                   ("solver.workers", self.solver.workers, 0)):
            if value is not None and not (isinstance(value, int) and value >= least):
                raise ConfigError(f"{name}: must be an integer of at least {least}")
        if self.solver.method not in ("gmres", "direct"):
            raise ConfigError(f"solver.method: unknown method {self.solver.method!r}")
        if not isinstance(self.solver.precondition, bool):
            raise ConfigError("solver.precondition: must be true or false")
        for name in ("eps", "delta", "V"):
            value = getattr(self, name)
            if value is not None and not (isinstance(value, (int, float))
                                          and math.isfinite(value)):
                raise ConfigError(f"{name}: must be a finite number")
        tol = self.solver.tol
        if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0):
            raise ConfigError("solver.tol: must be a positive finite number")
        return self

    def build_problem(self) -> problems.Problem:
        kw = {}
        if self.L is not None:
            kw["L"] = self.L
        if self.eps is not None:
            if self.problem.startswith("schrodinger"):
                kw["gamma"] = self.eps
            else:
                kw["eps"] = self.eps
        if self.delta is not None:
            kw["delta"] = self.delta
        if self.V is not None:
            kw["V"] = self.V
        if self.mode is not None:
            kw["mode"] = self.mode
        return problems.build_problem(self.problem, **kw)

    def time_steps(self, h=None) -> int:
        if self.n_steps is not None:
            return self.n_steps
        tau = self.tau if self.tau is not None else self.tau_over_h * h
        return max(2, int(round(self.T / tau)))


def load_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        solver = SolverSettings(**raw.pop("solver", {}))
    except TypeError as exc:
        raise ConfigError(f"solver: {exc}")
    known = {f for f in ExperimentConfig.__dataclass_fields__ if f != "solver"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return ExperimentConfig(solver=solver, **raw).validate()


def _write_csv(path: Path, header, columns, cfg):
    """One row per entry of the columns: floats as %.16g, anything else by
    str, the whole table in one format over its row-major values."""
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%.16g" if c.dtype.kind == "f" else "%s" for c in columns)
    values = [v for r in zip(*(c.tolist() for c in columns)) for v in r]
    body = (row + "\n") * len(columns[0]) % tuple(values)
    head = "# config: " + json.dumps(asdict(cfg), default=str)
    path.write_text(head + "\n" + ",".join(header) + "\n" + body)


def _assemble(cfg, pb, h=None, m=None):
    """Discretize and assemble one point; returns (run, gmm, system)."""
    run = problems.setup_run(pb, h=h, m=m)
    N = cfg.time_steps(h=h if h is not None else pb.L / m)
    gmm = build_gmm(N, cfg.T)
    return run, gmm, assemble_all_at_once(gmm, run.sys, run.source, run.u0v0)


def _solve(cfg, run, gmm, system, precondition=None):
    """One solve of an assembled system.  The solver's row blocks run on at
    most ``solver.workers`` threads (0: all), never more than the usable
    CPUs."""
    cpus = usable_cpus()
    threads = min(cfg.solver.workers or cpus, cpus)
    if cfg.solver.method == "direct":
        return direct_solve(system, threads=threads)
    use_pre = cfg.solver.precondition if precondition is None else precondition
    pre = build_preconditioner(gmm, run.sys) if use_pre else None
    return gmres_solve(system, pre, tol=cfg.solver.tol,
                       max_iter=cfg.solver.max_iter, threads=threads)


def _error_at(cfg, pb, run, traj, t_index, gmm):
    """Error at step t_index against the problem's oracle: (error, flagged
    absolute, record of the oracle's kind, modes and wall time)."""
    t0 = time.perf_counter()
    oracle = pb.oracle(n_max=cfg.n_max)
    t = t_index * gmm.tau
    window = tuple(cfg.window) if cfg.window else pb.measure_window
    u, _ = pb.physical_state(traj[t_index], t)
    if pb.scalar_field == "complex":
        exact = oracle
    else:
        u = u.real
        exact = lambda x, tt: np.asarray(oracle(x, tt)).real
    err, flagged = relative_l2_error(u, exact, run.grid, t, window=window)
    series = isinstance(oracle, FourierSeriesSolution)
    return err, flagged, {"kind": "series" if series else "closed_form",
                          "n_max": oracle.n_max if series else None,
                          "wall_time": time.perf_counter() - t0}


def run_solve(cfg: ExperimentConfig, out_dir: Path) -> int:
    pb = cfg.build_problem()
    run, gmm, system = _assemble(cfg, pb, h=cfg.h, m=cfg.m)
    report = _solve(cfg, run, gmm, system)
    traj = extract_trajectory(report.solution, system)
    x = run.grid.nodes
    times = cfg.snapshot_times or [0.0, cfg.T / 2.0, cfg.T]
    is_complex = pb.scalar_field == "complex"
    for t in times:
        j = min(range(len(traj)), key=lambda i: abs(i * gmm.tau - t))
        u, v = pb.physical_state(traj[j], j * gmm.tau)
        if is_complex:
            columns = (x, u.real, u.imag, v.real, v.imag)
            header = ["x", "re_u", "im_u", "re_v", "im_v"]
        else:
            columns = (x, u.real, v.real)
            header = ["x", "u", "v"]
        _write_csv(out_dir / f"solution_t{j * gmm.tau:g}.csv", header, columns, cfg)
    err, flagged, oracle = _error_at(cfg, pb, run, traj, len(traj) - 1, gmm)
    manifest = {
        "config": asdict(cfg),
        # the discretisation actually solved: T/tau and L/h are rounded
        "n_steps": gmm.n_steps, "tau_effective": gmm.tau,
        "n": run.grid.n, "h_effective": run.grid.h,
        "unknowns": gmm.n_steps * run.sys.dim, "boundary": run.grid.boundary,
        # the rhs's separable terms: one per source term, one for U0
        "rhs_rank": len(system.vectors),
        "path": report.path, "half_spectrum": report.half_spectrum,
        "theta": report.theta, "gap": report.gap,
        "iterations": report.iterations,
        "converged": report.converged,
        "true_residual": report.true_residual,
        "preconditioned_residual": report.preconditioned_residual,
        "wall_time": report.wall_time,
        "timings": report.timings,
        "marginal_modes": report.marginal_modes,
        "modes": report.modes,
        "floored_modes": report.floored_modes,
        "threads": report.threads,
        "residual_history": report.residual_history,
        "rel_l2_error_at_T": err,
        "error_norm_flagged_absolute": flagged,
        "oracle": oracle,
        # how H[f'] of each profile was formed, and the torus it was wrapped on
        "hilbert": {"periodisation": pb.torus, "u0": pb.u0.hilbert_route(),
                    "source": [t.space.hilbert_route() for t in pb.source.terms]},
    }
    (out_dir / "report.json").write_text(json.dumps(manifest, indent=2))
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def _sweep_point(cfg, pb, h=None, tau=None):
    """Assemble one point once and solve it with the preconditioner, then,
    on the GMRES path and if that converged, without it for the iteration
    count; the error is the preconditioned solve's."""
    t0 = time.perf_counter()
    if tau is not None:
        cfg = replace(cfg, tau=tau, n_steps=None)
        h = cfg.h if cfg.h is not None else pb.L / cfg.m
    run, gmm, system = _assemble(cfg, pb, h=h)
    report = _solve(cfg, run, gmm, system, precondition=True)
    traj = extract_trajectory(report.solution, system)
    err = _error_at(cfg, pb, run, traj, len(traj) - 1, gmm)[0]
    # h, tau and N as solved
    rows = {"pre": (report, err, run.grid.h, gmm.tau, gmm.n_steps)}
    if cfg.solver.method != "direct" and report.converged:
        rows["nopre"] = _solve(cfg, run, gmm, system, precondition=False)
    return rows, time.perf_counter() - t0


def run_convergence(cfg: ExperimentConfig, out_dir: Path) -> int:
    if not cfg.h_sweep and not cfg.tau_sweep:
        raise ConfigError("sweep: converge needs h_sweep or tau_sweep")
    pb = cfg.build_problem()
    if cfg.h_sweep:
        points = [{"h": h} for h in cfg.h_sweep]
    else:
        points = [{"tau": tau} for tau in cfg.tau_sweep]
    results = [_sweep_point(cfg, pb, **pt) for pt in points]
    rows, solved = [], []
    failed = False
    comparison_failed = False
    for res, wall_time in results:
        pre_rep, pre_err, h, tau, n_steps = res["pre"]
        if "nopre" in res:
            no_rep = res["nopre"]
            no_iters = no_rep.iterations
            comparison_failed = comparison_failed or not no_rep.converged
        else:
            no_iters = -1
        failed = failed or not pre_rep.converged
        rows.append((h, tau, pre_err, pre_rep.iterations, no_iters))
        solved.append({"h": h, "tau": tau, "n_steps": n_steps,
                       "theta": pre_rep.theta, "threads": pre_rep.threads,
                       "wall_time": wall_time,
                       "iterations_pre": pre_rep.iterations,
                       "iterations_nopre": no_iters})
    slope = None
    if len(rows) > 1:
        swept = [r[0] if cfg.h_sweep else r[1] for r in rows]
        errs = [r[2] for r in rows]
        slope = float(np.polyfit(np.log(swept), np.log(errs), 1)[0])
    _write_csv(out_dir / "convergence.csv",
               ["h", "tau", "rel_l2_error", "iterations_pre", "iterations_nopre"],
               zip(*rows), cfg)
    manifest = {"config": asdict(cfg), "points": solved,
                "fitted_slope": slope, "partial": failed,
                "unpreconditioned_hit_iteration_cap": comparison_failed}
    (out_dir / "convergence.json").write_text(json.dumps(manifest, indent=2))
    return EXIT_NO_CONVERGENCE if failed else EXIT_OK


def run_spectrum(cfg: ExperimentConfig, out_dir: Path) -> int:
    pb = cfg.build_problem()
    lam = eigenvalues_of_D(problems.discrete_system(pb, h=cfg.h, m=cfg.m))
    _write_csv(out_dir / "spectrum.csv", ["re", "im", "label"],
               (lam.real, lam.imag, [pb.name] * len(lam)), cfg)
    return EXIT_OK


def run_locus(cfg: ExperimentConfig, out_dir: Path) -> int:
    rows = []
    methods = cfg.locus_methods or sorted(lmm_catalog()) + ["rk2", "rk4", "radau_iia"]
    for name in methods:
        if name in lmm_catalog():
            pts = boundary_locus(lmm_catalog()[name], 720)
        elif name in ("rk2", "rk4", "radau_iia"):
            pts = rk_boundary_points(name, 360)
        else:
            raise ConfigError(f"locus_methods: unknown method {name!r}")
        rows.extend((float(z.real), float(z.imag), name) for z in pts)
    _write_csv(out_dir / "locus.csv", ["re", "im", "label"], zip(*rows), cfg)
    return EXIT_OK


def run_schrodinger(cfg: ExperimentConfig, out_dir: Path) -> int:
    if not cfg.problem.startswith("schrodinger"):
        raise ConfigError("problem: schrodinger subcommand needs a schrodinger_* problem")
    return run_solve(cfg, out_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="halfbvm",
        description="half-Laplacian evolution runs, all-at-once in time")
    parser.add_argument("command",
                        choices=["solve", "converge", "spectrum", "locus",
                                 "schrodinger"])
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--workers", type=int, default=None,
                        help="threads per solve at most (0: all usable CPUs)")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.workers is not None:
            cfg.solver.workers = args.workers
            cfg.validate()
        out_dir = Path(args.out or cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        runner = {
            "solve": run_solve,
            "converge": run_convergence,
            "spectrum": run_spectrum,
            "locus": run_locus,
            "schrodinger": run_schrodinger,
        }[args.command]
        return runner(cfg, out_dir)
    # grids the loader cannot check fail here: h against the problem's L, and
    # a sweep-only config (a sweep lifts the loader's grid check) outside converge
    except (ConfigError, ConfigurationError, GridTooSmallError) as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except PreconditionerError as exc:
        print(f"solver error: {exc}", file=_sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
