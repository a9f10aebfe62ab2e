"""Experiment driver: solve, convergence sweeps, spectra and locus dumps.

Configuration is one JSON document.  Each of its fields is declared once, in
``ExperimentConfig`` or ``SolverSettings``, with its default, its check and
the commands that read it: experiment fields are read by every command, so
one file serves several, and a command refuses an output or sweep field that
it does not read.  Each command needs only the grids it reads.  Outputs are
CSV files plus a JSON manifest, each embedding the fully resolved
configuration, defaults included.  Exit codes: 0 success, 2 bad
configuration, 3 solver non-convergence, 4 solver error (no preconditioner
clears GAP_MIN; ``solve`` and ``schrodinger`` still write a report.json,
with a null ``path`` and the failure).
"""

import argparse
import ctypes
import functools
import json
import math
import resource
import sys as _sys
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import problems
from .bvm import assemble_all_at_once, build_gmm, extract_trajectory
from .krylov import PreconditionerError, build_preconditioner, direct_solve, \
    gmres_solve
from .oracles import FourierSeriesSolution, relative_l2_error
from .spatial import ConfigurationError, GridTooSmallError
from .spectrum import ONE_STEP, boundary_locus, eigenvalues_of_D, \
    gmm_stability_verdict, lmm_catalog, rk_boundary_points

__all__ = ["ExperimentConfig", "ConfigError", "load_config", "run_solve",
           "run_convergence", "run_spectrum", "run_locus", "run_schrodinger",
           "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_SOLVER = 4

COMMANDS = ("solve", "schrodinger", "converge", "spectrum", "locus")
# the commands that solve once, and those that measure an error (window, n_max)
SOLVES = ("solve", "schrodinger")
MEASURES = SOLVES + ("converge",)
# the boundaries ``locus`` draws: its default and the names it knows
LOCUS_METHODS = sorted(lmm_catalog()) + list(ONE_STEP)
# a converge point's fields in convergence.json, and its convergence.csv columns
POINT_FIELDS = ("h", "tau", "n_steps", "theta", "threads", "wall_time",
                "iterations_pre", "iterations_nopre")
POINT_COLUMNS = ("h", "tau", "rel_l2_error", "iterations_pre", "iterations_nopre")


class ConfigError(ValueError):
    pass


def _number(v) -> bool:
    """A finite JSON number: true and false are not numbers here, nor is an
    integer beyond the float range."""
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:
        return False


def _list(v, item) -> bool:
    """A non-empty JSON list of items that each pass ``item``."""
    return isinstance(v, list) and bool(v) and all(map(item, v))


def _at_least(least) -> tuple:
    return (lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= least,
            f"must be an integer of at least {least}")


# (check, error) of the kinds of value that several fields take
FINITE = (_number, "must be a finite number")
POSITIVE = (lambda v: _number(v) and v > 0, "must be a positive finite number")
SWEEP = (lambda v: _list(v, POSITIVE[0]) and all(b < a for a, b in zip(v, v[1:])),
         "must be a non-empty, strictly decreasing list of positive finite numbers")


def _field(default, check, error, read_by=COMMANDS):
    """A config field, declared once: its default, the check a value given
    must pass (else ``error``) and the commands that read it.  Any other
    command refuses it."""
    return field(default=default,
                 metadata={"check": check, "error": error, "read_by": read_by})


@dataclass
class SolverSettings:
    # "direct": the structured solve in the spatial eigenbasis
    method: str = _field("gmres", lambda v: v in ("gmres", "direct"),
                         'must be "gmres" or "direct"')
    tol: float = _field(1e-10, *POSITIVE)
    max_iter: int = _field(500, *_at_least(1))
    precondition: bool = _field(True, lambda v: isinstance(v, bool),
                                "must be true or false")
    # threads per solve at most; 0: all usable CPUs
    workers: int = _field(0, *_at_least(0))


@dataclass
class ExperimentConfig:
    """Resolved experiment description: one field per key of the JSON config.

    Experiment fields (the problem and its parameters, T, the grids, solver
    and out) are read by every command, so one file serves several.  An
    output or sweep field names the commands that read it, and the others
    refuse it.  The rules that join fields are ``load_config``'s.
    """

    problem: str = _field(MISSING, lambda v: isinstance(v, str) and v in problems.catalog(),
                          "must name a problem of problems.catalog()")
    T: float = _field(2.0, *POSITIVE)
    L: float = _field(None, *POSITIVE)
    eps: float = _field(None, *FINITE)      # gamma on a Schrödinger problem
    delta: float = _field(None, *FINITE)
    V: float = _field(None, *FINITE)
    mode: int = _field(None, *_at_least(1))
    n_steps: int = _field(None, *_at_least(2))
    tau: float = _field(None, *POSITIVE)
    m: int = _field(None, *_at_least(3))
    h: float = _field(None, *POSITIVE)
    tau_over_h: float = _field(0.5, *POSITIVE, ("converge",))
    h_sweep: list = _field(None, *SWEEP, ("converge",))
    tau_sweep: list = _field(None, *SWEEP, ("converge",))
    snapshot_times: list = _field(None, lambda v: _list(v, _number),
                                  "must be a non-empty list of finite numbers", SOLVES)
    n_max: int = _field(400, *_at_least(1), MEASURES)
    locus_methods: list = _field(None, lambda v: _list(v, LOCUS_METHODS.__contains__),
                                 f"must be a non-empty list of {LOCUS_METHODS}", ("locus",))
    window: list = _field(None, lambda v: isinstance(v, list) and len(v) == 2 and all(
        map(_number, v)) and v[0] < v[1], "must be two finite numbers lo < hi", MEASURES)
    solver: SolverSettings = field(default_factory=SolverSettings,
                                   metadata={"read_by": COMMANDS})
    out: str = _field("out", lambda v: isinstance(v, str), "must be a path")

    def build_problem(self) -> problems.Problem:
        """The named problem with the parameters given: eps is a Schrödinger
        problem's gamma."""
        eps = "gamma" if self.problem.startswith("schrodinger") else "eps"
        kw = {"L": self.L, eps: self.eps, "delta": self.delta, "V": self.V,
              "mode": self.mode}
        return problems.build_problem(
            self.problem, **{k: v for k, v in kw.items() if v is not None})

    def time_steps(self, h=None) -> int:
        if self.n_steps is not None:
            return self.n_steps
        tau = self.tau if self.tau is not None else self.tau_over_h * h
        return max(2, int(round(self.T / tau)))


# each grid: its fields, of which at most one is given, and the commands that
# need exactly one.  A sweep sets the grid field it sweeps at each point, and
# tau_over_h sets tau on an h_sweep
GRIDS = (("time grid", ("n_steps", "tau", "tau_sweep", "tau_over_h"), SOLVES),
         ("space grid", ("m", "h", "h_sweep"), MEASURES + ("spectrum",)),
         ("sweep", ("h_sweep", "tau_sweep"), ("converge",)))


def _read_by(cls, name: str) -> tuple:
    return cls.__dataclass_fields__[name].metadata["read_by"]


def _checked(cls, raw, command: str, prefix: str = ""):
    """``cls`` of the fields given in ``raw``, each declared, read by
    ``command`` and passing its check.  null stands for a field's default
    only where that default is null, and counts as not given."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{prefix[:-1]}: must be a JSON object")
    values = {}
    for name, value in raw.items():
        f = cls.__dataclass_fields__.get(name)
        if f is None:
            raise ConfigError(f"{prefix}{name}: unknown field")
        if value is not None and command not in _read_by(cls, name):
            raise ConfigError(f"{prefix}{name}: read by {', '.join(_read_by(cls, name))} "
                              f"only, not {command}")
        if is_dataclass(f.default_factory):
            value = _checked(f.default_factory, value, command, f"{prefix}{name}.")
        elif not (f.default is None if value is None else f.metadata["check"](value)):
            raise ConfigError(f"{prefix}{name}: {f.metadata['error']}")
        values[name] = value
    return cls(**values)


def load_config(path, command: str = "solve", workers: int = None) -> ExperimentConfig:
    """The config at ``path`` as ``command`` reads it, ``workers`` (when not
    None) standing for its ``solver.workers``.  Each field is checked as
    declared; the rules that join fields follow: the grids (``GRIDS``), eps's
    sign off a Schrödinger problem, and snapshot times within [0, T]."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(raw, dict) or "problem" not in raw:
        raise ConfigError("config: must be a JSON object naming its problem")
    if workers is not None and isinstance(raw.get("solver", {}), dict):
        raw["solver"] = dict(raw.get("solver", {}), workers=workers)
    cfg = _checked(ExperimentConfig, raw, command)
    given = {name for name, value in raw.items() if value is not None}
    for label, group, needed_by in GRIDS:
        count, needed = len(given.intersection(group)), command in needed_by
        if count > 1 or (needed and not count):
            read = [n for n in group if command in _read_by(ExperimentConfig, n)]
            raise ConfigError(f"{label}: give {'exactly' if needed else 'at most'} one "
                              f"of {', '.join(read)}")
    if cfg.eps is not None and cfg.eps < 0 and not cfg.problem.startswith("schrodinger"):
        raise ConfigError("eps: must not be negative off a Schrödinger problem")
    if not all(0 <= t <= cfg.T for t in cfg.snapshot_times or ()):
        raise ConfigError("snapshot_times: must lie in [0, T]")
    return cfg


def _write_csv(path: Path, header, columns, cfg):
    """One row per entry of the columns: floats as %.16g, anything else by
    str, the whole table in one format over its row-major values."""
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%.16g" if c.dtype.kind == "f" else "%s" for c in columns)
    values = [v for r in zip(*(c.tolist() for c in columns)) for v in r]
    body = (row + "\n") * len(columns[0]) % tuple(values)
    head = "# config: " + json.dumps(asdict(cfg), default=str)
    path.write_text(head + "\n" + ",".join(header) + "\n" + body)


def _as_text(column) -> np.ndarray:
    """A float column as the %.16g strings ``_write_csv`` writes for it: a
    column that several tables share is formatted once."""
    return np.array(["%.16g" % v for v in np.asarray(column, float).tolist()])


def _assemble(cfg, pb):
    """Discretize and assemble the config's grid, its h or m and its tau or
    n_steps (else tau_over_h * h).  A ``window`` that holds no node of the
    grid is refused here, before any solve."""
    run = problems.setup_run(pb, h=cfg.h, m=cfg.m)
    w = cfg.window
    if w and not np.any((run.grid.nodes >= w[0]) & (run.grid.nodes <= w[1])):
        raise ConfigError(f"window: {cfg.window} holds no node of the grid "
                          f"at h = {run.grid.h:g}")
    gmm = build_gmm(cfg.time_steps(h=cfg.h if cfg.h is not None else pb.L / cfg.m),
                    cfg.T)
    return assemble_all_at_once(gmm, run.sys, run.source, run.u0v0)


def _solve(cfg, system, precondition=None):
    """One solve of an assembled system.  The solver's row blocks run on at
    most ``solver.workers`` threads (0: no limit); the solver caps them at
    the usable CPUs."""
    threads = cfg.solver.workers or None
    if cfg.solver.method == "direct":
        return direct_solve(system, threads=threads)
    use_pre = cfg.solver.precondition if precondition is None else precondition
    pre = build_preconditioner(system.gmm, system.sys) if use_pre else None
    return gmres_solve(system, pre, tol=cfg.solver.tol,
                       max_iter=cfg.solver.max_iter, threads=threads)


def _error_at(cfg, pb, system, state, t):
    """Error of a solved state at time t against the problem's oracle:
    (error, flagged absolute, record of the oracle's kind, modes and wall
    time)."""
    t0 = time.perf_counter()
    oracle = pb.oracle(n_max=cfg.n_max)
    window = tuple(cfg.window) if cfg.window else pb.measure_window
    u, _ = pb.physical_state(state, t)
    if pb.scalar_field == "complex":
        exact = oracle
    else:
        u = u.real
        exact = lambda x, tt: np.asarray(oracle(x, tt)).real
    err, flagged = relative_l2_error(u, exact, system.sys.grid, t, window=window)
    series = isinstance(oracle, FourierSeriesSolution)
    return err, flagged, {"kind": "series" if series else "closed_form",
                          "n_max": oracle.n_max if series else None,
                          "wall_time": time.perf_counter() - t0}


def _torus_gap(system):
    """||H[u0'] - |k| u0|| / ||H[u0']|| on a torus, None between walls: the
    H[u0'] the initial state took from the line data against the torus's own
    half-Laplacian of u0, |k| on its modes.  The gap is the data mismatch a
    torus run inherits from line data."""
    sys, state = system.sys, system.initial
    if not sys.is_circulant:
        return None
    modes = sys.modes(real=not np.iscomplexobj(state.u))
    j = np.arange(modes.p.size)
    k = (2.0 * np.pi / sys.grid.length) * np.minimum(j, sys.n - j)
    torus = modes.inverse(k * modes.forward(state.u))
    return float(np.linalg.norm(state.hilbert_dx - torus)
                 / np.linalg.norm(state.hilbert_dx))


@functools.cache
def _blas() -> tuple:
    """(library, threads): the BLAS numpy was built with, and its thread
    count where the loaded library reports one (OpenBLAS), else None.  Read
    once per process: the maps scan takes about 0.6 ms."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        library = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        library = None
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "blas" in line.lower() and line.rstrip().endswith(".so")})
        for path in paths:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    get = getattr(lib, sym)
                    get.argtypes, get.restype = [], ctypes.c_int
                    return library, int(get())
    except OSError:
        pass
    return library, None


def _peak_rss_mb() -> float:
    """The process's peak resident set so far, ru_maxrss (KiB on Linux) in
    MB of 1024 KiB: read as a record is written, a CLI run's own peak."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _discretisation(cfg, system) -> dict:
    """The discretisation actually solved: T/tau and L/h are rounded."""
    gmm, grid = system.gmm, system.sys.grid
    return {"config": asdict(cfg),
            "n_steps": gmm.n_steps, "tau_effective": gmm.tau,
            "n": grid.n, "h_effective": grid.h,
            "unknowns": system.shape[0], "boundary": grid.boundary,
            # the rhs's separable terms: one per source term, one for U0
            "rhs_rank": len(system.vectors)}


def run_solve(cfg: ExperimentConfig, out_dir: Path) -> int:
    """One solve and its record.  A preconditioner that cannot clear GAP_MIN
    leaves a record of the failure, with no solver ``path``, and is raised
    on: no other solver stands in for it."""
    pb = cfg.build_problem()
    system = _assemble(cfg, pb)
    gmm = system.gmm
    try:
        report = _solve(cfg, system)
    except PreconditionerError as exc:
        failure = {**_discretisation(cfg, system), "path": None,
                   "error": str(exc), **exc.record, "peak_rss_mb": _peak_rss_mb()}
        (out_dir / "report.json").write_text(json.dumps(failure, indent=2))
        raise
    traj = extract_trajectory(report.solution, system)
    x = _as_text(system.sys.grid.nodes)
    is_complex = pb.scalar_field == "complex"
    snapshots = []                     # each requested time, as rounded
    for t in cfg.snapshot_times or [0.0, cfg.T / 2.0, cfg.T]:
        j = min(range(len(traj)), key=lambda i: abs(i * gmm.tau - t))
        name = f"solution_t{j * gmm.tau:g}.csv"
        snapshots.append({"requested": t, "j": j, "t": j * gmm.tau, "file": name})
        u, v = pb.physical_state(traj[j], j * gmm.tau)
        if is_complex:
            columns = (x, u.real, u.imag, v.real, v.imag)
            header = ["x", "re_u", "im_u", "re_v", "im_v"]
        else:
            columns = (x, u.real, v.real)
            header = ["x", "u", "v"]
        _write_csv(out_dir / name, header, columns, cfg)
    err, flagged, oracle = _error_at(cfg, pb, system, traj[-1], gmm.n_steps * gmm.tau)
    manifest = {
        **_discretisation(cfg, system),
        **{f.name: getattr(report, f.name) for f in fields(report)
           if f.name != "solution"},
        "rel_l2_error_at_T": err,
        "error_norm_flagged_absolute": flagged,
        "oracle": oracle,
        "snapshots": snapshots,
        # how H[f'] of each profile was formed, the torus it was wrapped on,
        # and how far the line data's H[u0'] is from that torus's own
        "hilbert": {"periodisation": pb.torus, "u0": pb.u0.hilbert_route(),
                    "source": [t.space.hilbert_route() for t in pb.source.terms],
                    "torus_gap": _torus_gap(system)},
        "stability": gmm_stability_verdict(system.sys, gmm.tau),
        "blas": dict(zip(("library", "threads"), _blas())),
        "peak_rss_mb": _peak_rss_mb(),
    }
    (out_dir / "report.json").write_text(json.dumps(manifest, indent=2))
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def _sweep_point(cfg, pb) -> dict:
    """One sweep point, ``cfg`` with the swept h or tau set, as one dict:
    assembled once, solved with the preconditioner and, on the GMRES path
    and if that converged, without it for the iteration count; h, tau and N
    as solved, and the preconditioned solve's error."""
    t0 = time.perf_counter()
    system = _assemble(cfg, pb)
    gmm = system.gmm
    report = _solve(cfg, system, precondition=True)
    state, t = extract_trajectory(report.solution, system)[-1], gmm.n_steps * gmm.tau
    point = {"h": system.sys.grid.h, "tau": gmm.tau, "n_steps": gmm.n_steps,
             "theta": report.theta, "threads": report.threads,
             "rel_l2_error": _error_at(cfg, pb, system, state, t)[0],
             "converged": report.converged, "iterations_pre": report.iterations,
             "iterations_nopre": -1, "nopre_converged": True}
    if cfg.solver.method != "direct" and report.converged:
        nopre = _solve(cfg, system, precondition=False)
        point.update(iterations_nopre=nopre.iterations,
                     nopre_converged=nopre.converged)
    point["wall_time"] = time.perf_counter() - t0
    return point


def run_convergence(cfg: ExperimentConfig, out_dir: Path) -> int:
    pb = cfg.build_problem()
    swept = "h" if cfg.h_sweep else "tau"
    points = [_sweep_point(replace(cfg, **{swept: v}), pb)
              for v in cfg.h_sweep or cfg.tau_sweep]
    failed = not all(p["converged"] for p in points)
    xs = [p[swept] for p in points]
    errs = [p["rel_l2_error"] for p in points]
    slope = None
    # a line through two solved steps at least, on positive finite errors:
    # two requests may round to one step
    if len(set(xs)) > 1 and all(0 < e < math.inf for e in errs):
        slope = float(np.polyfit(np.log(xs), np.log(errs), 1)[0])
    _write_csv(out_dir / "convergence.csv", POINT_COLUMNS,
               [[p[c] for p in points] for c in POINT_COLUMNS], cfg)
    manifest = {"config": asdict(cfg),
                "points": [{f: p[f] for f in POINT_FIELDS} for p in points],
                "fitted_slope": slope, "partial": failed,
                "unpreconditioned_hit_iteration_cap":
                    not all(p["nopre_converged"] for p in points),
                "peak_rss_mb": _peak_rss_mb()}
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
    for name in cfg.locus_methods or LOCUS_METHODS:
        if name in lmm_catalog():
            pts = boundary_locus(lmm_catalog()[name], 720)
        else:
            pts = rk_boundary_points(name, 360)
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
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--workers", type=int, default=None,
                        help="threads per solve at most (0: all usable CPUs)")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.command, args.workers)
        out_dir = Path(args.out or cfg.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"out: cannot make directory {out_dir}: {exc.strerror}")
        runner = {
            "solve": run_solve,
            "converge": run_convergence,
            "spectrum": run_spectrum,
            "locus": run_locus,
            "schrodinger": run_schrodinger,
        }[args.command]
        return runner(cfg, out_dir)
    # what the loader cannot check fails here: h against the problem's L, and
    # a parameter the problem's factory does not take
    except (ConfigError, ConfigurationError, GridTooSmallError) as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except PreconditionerError as exc:
        print(f"solver error: {exc}", file=_sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
