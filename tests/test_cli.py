import inspect
import json
import tempfile
import threading
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfbvm import cli, krylov, problems
from halfbvm import hilbert as ht
from halfbvm.doubling import FIT_ORDER
from halfbvm.krylov import GAP_MIN
from halfbvm.spectrum import eigenvalues_of_D


def _write_config(tmp_path, **kw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(kw))
    return str(path)


def _base_solve_config(**extra):
    cfg = {
        "problem": "single_mode",
        "T": 1.0,
        "n_steps": 8,
        "m": 24,
        "solver": {"tol": 1e-10, "max_iter": 200},
    }
    cfg.update(extra)
    return cfg


def test_config_validation_errors(tmp_path):
    bad = [
        {"problem": "nope", "n_steps": 4, "m": 8},
        {"problem": "single_mode", "m": 8},                       # no time grid
        {"problem": "single_mode", "n_steps": 4, "tau": 0.1, "m": 8},
        {"problem": "single_mode", "n_steps": 4},                 # no space grid
        {"problem": "single_mode", "n_steps": 4, "m": 8, "h": 0.5},
        {"problem": "single_mode", "h_sweep": [0.1, 0.4]},        # not decreasing
        {"problem": "single_mode", "n_steps": 4, "m": 8, "T": -1.0},
        {"problem": "single_mode", "n_steps": 4, "m": 8, "frobs": 1},
    ]
    for raw in bad:
        with pytest.raises(cli.ConfigError):
            cli.load_config(_write_config(tmp_path, **raw))


# h above L/3 is a grid of fewer than 3 cells, and a window between two
# nodes (h = 20/24) holds none; only the grid can tell, since L comes from
# the problem
GRID_ONLY = ({"h": 100.0, "m": None},
             {"h_sweep": [100.0, 0.5], "m": None, "n_steps": None},
             {"window": [0.1, 0.2]})
# the loader cannot know which parameters each problem's factory takes
PROBLEM_ONLY = ({"problem": "half_diffusion_manufactured", "delta": 0.1},
                {"V": 0.5},                  # on single_mode
                {"problem": "transport_limit", "eps": 0.1},
                {"problem": "advection_mms", "mode": 2})
# a valid output or sweep field, given to a command that does not read it:
# the loader refuses it for that command, named under "command"
COMMAND_ONLY = ({"locus_methods": ["gmm"], "command": "solve"},   # solve ignored it
                {"locus_methods": ["gmm"], "command": "converge",
                 "h_sweep": [0.5, 0.25], "m": None, "n_steps": None},
                {"locus_methods": ["gmm"], "command": "spectrum"},
                {"locus_methods": ["bdf2", "rk4"], "command": "schrodinger",
                 "problem": "schrodinger_single_mode"},
                # and only converge reads a sweep
                {"tau_sweep": [0.1, 0.05], "n_steps": None,       # ran on tau_over_h * h
                 "command": "solve"},
                {"h_sweep": [0.5, 0.25], "m": None, "command": "spectrum"},
                {"h_sweep": [0.5, 0.25], "m": None, "command": "locus"},   # ignored it
                {"tau_sweep": [0.1, 0.05], "n_steps": None, "command": "schrodinger",
                 "problem": "schrodinger_single_mode"},
                # each of these exited 0 having been ignored
                {"tau_over_h": 7.0, "command": "solve"},
                {"tau_over_h": 0.25, "tau_sweep": [0.1, 0.05], "n_steps": None,
                 "command": "converge"},
                {"tau_over_h": 0.25, "h_sweep": [0.5, 0.25], "m": None,  # n_steps: 8
                 "command": "converge"},
                {"snapshot_times": [0.5], "h_sweep": [0.5, 0.25], "m": None,
                 "n_steps": None, "command": "converge"},
                {"window": [0.0, 10.0], "command": "spectrum"},
                {"n_max": 20, "command": "spectrum"},
                {"snapshot_times": [0.5], "command": "spectrum"},
                {"window": [0.0, 10.0], "command": "locus"},
                {"n_max": 20, "command": "locus"})


@pytest.mark.parametrize("setting", [
    {"solver": {"restart": 0}},          # GMRES runs one cycle: no such field
    {"solver": {"restart": -1}},
    {"solver": {"restart": 50}},         # ran with 50-vector cycles
    {"solver": {"theta": np.pi}},        # derived from the spectrum instead
    {"tau": 0.0, "n_steps": None},
    {"tau": -0.1, "n_steps": None},      # ran with N = 2
    {"h": 0.0, "m": None},
    {"n_steps": 1},
    *GRID_ONLY,                          # raised GridTooSmallError
    {"problem": "advection_gaussian_quartic", "weideman_n": 2},  # fit order is fixed
    {"L": -5.0},
    {"eps": 1e400},                      # JSON Infinity
    {"eps": -0.1},                       # ran, error 0.58 against the oracle of |eps|
    {"problem": "advection_homogeneous", "eps": -0.01},
    {"solver": {"max_iter": 0}},         # ran, then exit 3
    {"solver": {"tol": -1.0}},
    {"mode": 0},                         # a zero sine profile
    {"solver": {"precondition": "no"}},  # truthy: ran preconditioned
    {"solver": {"precondition": 0}},
    {"solver": {"workers": -1}},         # silently raised to 1
    {"solver": {"workers": 1.5}},
    {"solver": {"method": 1}},
    {"solver": {"method": ["direct"]}},
    *PROBLEM_ONLY,                       # died on a TypeError, exit 1
    {"window": [5, -3]},                 # ran, rel_l2_error_at_T 0.0
    {"window": ["a", "b"]},              # a traceback after the CSVs
    {"window": [0.1]},
    {"window": [0.2, 0.4, 7]},           # ran on (0.2, 0.4)
    {"window": []},                      # ran on the problem's window
    {"snapshot_times": ["abc"]},         # a traceback after the solve
    {"snapshot_times": "x"},
    {"snapshot_times": [None]},
    {"snapshot_times": [-1, 1e9]},       # clamped to t = 0 and t = T
    {"T": True},                         # ran as T = 1
    {"T": 10 ** 400},                    # an OverflowError traceback
    {"n_max": True},                     # ran as n_max = 1
    {"snapshot_times": []},              # wrote the default three
    {"locus_methods": ["nope"]},         # solve ignored it
    {"locus_methods": "gmm"},
    {"locus_methods": []},               # locus drew every method
    *COMMAND_ONLY,
    # a sweep sets the grid field it sweeps: one given beside it was ignored
    {"tau_sweep": [0.1, 0.05], "command": "converge"},             # n_steps: 8
    {"tau_sweep": [0.1, 0.05], "n_steps": None, "tau": 0.3, "command": "converge"},
    {"h_sweep": [0.5, 0.25]},                                      # m: 24
    {"h_sweep": [0.5, 0.25], "m": None, "h": 0.5},
    {"h_sweep": [0.5, 0.25], "command": "solve"},                  # ran m = 24
    {"problem": None},                   # a TypeError traceback at load
    {"problem": []},                     # an unhashable-type traceback
    {"solver": {"max_iter": None}},      # a TypeError in the solve
    {"out": 5},                          # a TypeError without --out
])
def test_bad_solver_and_grid_settings_exit_config(tmp_path, setting, capsys):
    cfg = _base_solve_config()
    command = setting.get("command", "converge" if "h_sweep" in setting else "solve")
    for key, value in setting.items():
        if key == "solver":
            cfg["solver"] = dict(cfg["solver"], **value)
        elif value is None:
            cfg.pop(key)
        elif key != "command":
            cfg[key] = value
    path = _write_config(tmp_path, **cfg)
    if setting not in GRID_ONLY + PROBLEM_ONLY:
        with pytest.raises(cli.ConfigError):
            cli.load_config(path, command)
    assert cli.main([command, "--config", path, "--out", str(tmp_path / "o")]) \
        == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not list((tmp_path / "o").glob("*"))     # no solve, no record


def test_report_lists_each_snapshot_as_rounded(tmp_path):
    # tau = 1/8: 0.55 and 0.5 both round to step 4, so both requests are
    # listed, with the one file they share; without requests the default
    # three times are listed
    cfg = _write_config(tmp_path, **_base_solve_config(snapshot_times=[0.55, 0.5, 1]))
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "s")]) == cli.EXIT_OK
    report = json.loads((tmp_path / "s" / "report.json").read_text())
    assert report["snapshots"] == [
        {"requested": 0.55, "j": 4, "t": 0.5, "file": "solution_t0.5.csv"},
        {"requested": 0.5, "j": 4, "t": 0.5, "file": "solution_t0.5.csv"},
        {"requested": 1, "j": 8, "t": 1.0, "file": "solution_t1.csv"}]
    assert sorted(p.name for p in (tmp_path / "s").glob("*.csv")) == [
        "solution_t0.5.csv", "solution_t1.csv"]
    cfg = _write_config(tmp_path, **_base_solve_config())
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "d")]) == cli.EXIT_OK
    report = json.loads((tmp_path / "d" / "report.json").read_text())
    assert [(s["requested"], s["j"], s["file"]) for s in report["snapshots"]] == [
        (0.0, 0, "solution_t0.csv"), (0.5, 4, "solution_t0.5.csv"),
        (1.0, 8, "solution_t1.csv")]


def test_direct_solver_method(tmp_path):
    cfg = _base_solve_config()
    cfg["problem"] = "transport_limit"
    cfg["h"] = 0.25
    cfg.pop("m")
    cfg["solver"] = {"method": "direct"}
    path = _write_config(tmp_path, **cfg)
    rc = cli.main(["solve", "--config", path, "--out", str(tmp_path / "d")])
    assert rc == cli.EXIT_OK
    report = json.loads((tmp_path / "d" / "report.json").read_text())
    assert report["iterations"] == 1 and report["converged"]
    for bad in ({"method": "magic"}, {"tolx": 1.0}):
        with pytest.raises(cli.ConfigError):
            cli.load_config(_write_config(tmp_path, **dict(_base_solve_config(), solver=bad)))


def test_report_records_discretisation_and_path(tmp_path, monkeypatch):
    # tau = 0.27 does not divide T = 1: the run uses N = 4, tau = 0.25
    cfg = _base_solve_config(problem="advection_manufactured", h=0.25, tau=0.27)
    for key in ("m", "n_steps"):
        cfg.pop(key)
    runs = (({"method": "direct"}, "direct", True),
            ({"tol": 1e-10}, "gmres+omega", True),
            ({"tol": 1e-10, "precondition": False}, "gmres", True))
    for solver, path, half in runs:
        out = tmp_path / path
        path_cfg = _write_config(tmp_path, **dict(cfg, solver=solver))
        rc = cli.main(["solve", "--config", path_cfg, "--out", str(out)])
        assert rc == cli.EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["n_steps"] == 4
        assert report["tau_effective"] == 0.25
        assert report["config"]["tau"] == 0.27
        assert report["n"] == 160 and report["h_effective"] == 0.25   # torus [0, 2L)
        assert report["unknowns"] == 4 * 2 * 160
        assert report["boundary"] == "periodic"
        # every field of the solve report but the solution itself
        assert {f.name for f in fields(krylov.SolveReport)} - set(report) \
            == {"solution"}
        assert report["path"] == path and report["half_spectrum"] is half
        assert 0.0 <= report["true_residual"] < 1e-8
        # a system of one row block runs inline on every path
        assert report["threads"] == 1
        # the direct path times its four stages
        if path == "direct":
            assert set(report["timings"]) == {"transform", "sweeps",
                                              "inverse_transform", "true_residual"}
            assert sum(report["timings"].values()) == pytest.approx(report["wall_time"])
            assert report["modes"] is None and report["floored_modes"] is None
            assert report["rhs_norm"] is None
        else:
            # GMRES times its seven stages, summing to within 5% of the wall
            # time, and solves the 160 // 2 + 1 rfft modes as one batch
            assert set(report["timings"]) == {
                "transform", "operator", "preconditioner", "orthogonalisation",
                "inverse_transform", "true_residual", "preconditioned_residual"}
            assert sum(report["timings"].values()) == pytest.approx(
                report["wall_time"], rel=0.05)
            assert all(t >= 0.0 for t in report["timings"].values())
            assert report["modes"] == 81
            # no rfft mode of this data is below the floor of the rhs
            assert report["floored_modes"] == 0
            assert report["rhs_norm"] > 0.0
        # only the preconditioned path has a theta, its gap and a physical
        # preconditioned residual
        if path == "gmres+omega":
            assert report["theta"] == np.pi and report["gap"] >= GAP_MIN
            assert report["timings"]["preconditioner"] > 0.0
            assert report["timings"]["preconditioned_residual"] > 0.0
            assert 0.0 <= report["preconditioned_residual"] <= 1e-9
        else:
            assert report["theta"] is None and report["gap"] is None
            assert report["preconditioned_residual"] is None
        # advection_manufactured states no closed form: the error is taken
        # against the sine series, timed around the whole error evaluation
        assert report["oracle"]["kind"] == "series"
        assert report["oracle"]["n_max"] == 400
        assert report["oracle"]["wall_time"] > 0.0
        # the BLAS numpy calls, and its thread count where the library tells it
        assert set(report["blas"]) == {"library", "threads"}
        assert isinstance(report["blas"]["library"], str)
        assert report["blas"]["threads"] is None or report["blas"]["threads"] >= 1
        # the process's peak memory when the record was written, in MB
        assert 1.0 < report["peak_rss_mb"] < 1e5
        # every path records the torus gap of the line data and the stability
        # verdict; on a torus the constant mode's two eigenvalues are 0, on
        # the segment [-i, i]
        assert 0.0 < report["hilbert"]["torus_gap"] < 1e-2
        assert report["stability"] == {"stable": False, "offending_modes": 2,
                                       "all_marginal": True}
    # the stated closed form where a problem has one, else the series; the
    # Hilbert route of u0 and each source term, and the torus they were put on:
    # between walls every profile has its closed form, while the drift data
    # states none, so its u0 and source term are each fit once, from real
    # samples, on the odd-doubled torus
    fits = []
    fit = ht.weideman_fit
    monkeypatch.setattr(ht, "weideman_fit",
                        lambda f, N, **kw: fits.append(N) or fit(f, N, **kw))
    fitted = {"route": "fit", "order": FIT_ORDER, "sum": "one_sided"}
    closed = {"route": "closed_form"}
    # the rhs has one separable term per source term and one for U0: 3 on the
    # walls, 2 on the drift run, 1 on homogeneous data.  Between walls no
    # eigenvalue of tau*D is on [-i, i] and there is no torus gap; the drift
    # data's line H[u0'] is farther than 1e-2 from the torus's |k| u0, the
    # mismatch behind that run's error floor
    walls = {"stable": True, "offending_modes": 0, "all_marginal": True}
    torus = {"stable": False, "offending_modes": 2, "all_marginal": True}
    for problem, kind, n_max, periodisation, routes, rank, stability in (
            ("half_diffusion_manufactured", "closed_form", None, None, [closed] * 3, 3,
             walls),
            ("advection_gaussian_quartic", "series", 400, "odd_doubled", [fitted] * 2,
             2, torus),
            ("half_diffusion_homogeneous", "series", 400, None, [closed], 1, walls)):
        out = tmp_path / problem
        path_cfg = _write_config(tmp_path, **_base_solve_config(
            problem=problem, m=40, solver={"method": "direct"}))
        fits.clear()
        assert cli.main(["solve", "--config", path_cfg, "--out", str(out)]) == cli.EXIT_OK
        report = json.loads((out / "report.json").read_text())
        oracle = report["oracle"]
        assert oracle["kind"] == kind and oracle["n_max"] == n_max
        assert oracle["wall_time"] > 0.0
        record = report["hilbert"]
        assert record["periodisation"] == periodisation
        assert [record["u0"], *record["source"]] == routes
        if periodisation is None:
            assert record["torus_gap"] is None
        else:
            assert record["torus_gap"] > 1e-2
        assert report["stability"] == stability
        assert report["rhs_rank"] == rank
        # the record reads the fits the run made, and makes none of its own
        assert fits == [FIT_ORDER] * routes.count(fitted)


# every key of each record, written out: a record gains or loses a fact
# only with this list.  A solve's report.json (on every path) and its exit-4
# record both start with the discretisation solved
DISCRETISATION_KEYS = {"config", "n_steps", "tau_effective", "n", "h_effective",
                       "unknowns", "boundary", "rhs_rank"}
REPORT_KEYS = DISCRETISATION_KEYS | {
    "iterations", "residual_history", "converged", "wall_time", "true_residual",
    "path", "half_spectrum", "theta", "gap", "timings", "modes", "floored_modes",
    "rhs_norm", "preconditioned_residual", "threads", "rel_l2_error_at_T",
    "error_norm_flagged_absolute", "oracle", "snapshots", "hilbert", "stability",
    "blas", "peak_rss_mb"}
NESTED_KEYS = {"oracle": {"kind", "n_max", "wall_time"},
               "hilbert": {"periodisation", "u0", "source", "torus_gap"},
               "stability": {"stable", "offending_modes", "all_marginal"},
               "blas": {"library", "threads"}}
FAILURE_KEYS = DISCRETISATION_KEYS | {"path", "error", "theta", "gap", "gap_min",
                                      "nearest", "peak_rss_mb"}
CONVERGENCE_KEYS = {"config", "points", "fitted_slope", "partial",
                    "unpreconditioned_hit_iteration_cap", "peak_rss_mb"}
POINT_KEYS = {"h", "tau", "n_steps", "theta", "threads", "wall_time",
              "iterations_pre", "iterations_nopre"}


def test_records_hold_exactly_their_keys(tmp_path, monkeypatch):
    def record(command, cfg, name, rc=cli.EXIT_OK):
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        path = _write_config(tmp_path, **cfg)
        assert cli.main([command, "--config", path, "--out", str(out)]) == rc
        return json.loads((out / name).read_text())

    for solver, path in (({"method": "direct"}, "direct"), ({}, "gmres+omega"),
                         ({"precondition": False}, "gmres")):
        report = record("solve", _base_solve_config(solver=solver), "report.json")
        assert report["path"] == path
        assert set(report) == REPORT_KEYS
        for key, keys in NESTED_KEYS.items():
            assert set(report[key]) == keys
        for snapshot in report["snapshots"]:
            assert set(snapshot) == {"requested", "j", "t", "file"}
    manifest = record("converge", {"problem": "single_mode", "T": 1.0,
                                   "h_sweep": [1.0, 0.5], "tau_over_h": 0.25},
                      "convergence.json")
    assert set(manifest) == CONVERGENCE_KEYS
    assert len(manifest["points"]) == 2
    for point in manifest["points"]:
        assert set(point) == POINT_KEYS
    monkeypatch.setattr(krylov, "GAP_MIN", 1e3)
    failure = record("solve", _base_solve_config(), "report.json", cli.EXIT_SOLVER)
    assert set(failure) == FAILURE_KEYS


@pytest.mark.parametrize("h,n,floored", [(0.3125, 63, 31), (20.0 / 41, 40, 20)])
def test_symmetric_walls_data_leaves_its_antisymmetric_modes_out(tmp_path, h, n,
                                                                  floored):
    # symmetric data between walls: the antisymmetric DST-I modes are exactly
    # zero at odd n = 63 and rounding noise at even n = 40.  Both stay out of
    # the batch, and the solve ends within 5 preconditioned iterations.
    cfg = _base_solve_config(problem="half_diffusion_manufactured", h=h, n_steps=32)
    cfg.pop("m")
    for precondition in (True, False):
        out = tmp_path / str(precondition)
        path = _write_config(tmp_path, **dict(cfg, solver=dict(
            cfg["solver"], precondition=precondition)))
        assert cli.main(["solve", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["n"] == report["modes"] == n
        assert report["floored_modes"] == floored
        assert report["iterations"] <= (5 if precondition else 64)
        assert report["true_residual"] <= 1e-12


@pytest.mark.parametrize("problem,h,grid", [
    ("advection_manufactured", 0.25, {"n_steps": 5}),
    ("advection_mms", 0.2, {"n_steps": 7}),
    ("advection_homogeneous", 0.25, {"n_steps": 9}),
    ("transport_limit", 0.25, {"tau": 0.3}),       # N = 3
    ("transport_limit", 0.25, {"tau": 0.27}),      # N = 4
])
def test_gmres_moves_theta_off_a_singular_pi(tmp_path, problem, h, grid):
    # at theta = pi a frequency block of these runs is singular: odd N on a
    # torus meets the constant mode, and tau/h ~ 1 puts an eigenvalue of
    # tau*D on a frequency.  The derived theta solves them under gmres.
    solutions = {}
    for method in ("gmres", "direct"):
        cfg = dict(problem=problem, T=1.0, h=h, solver={"method": method},
                   **grid)
        out = tmp_path / method
        rc = cli.main(["solve", "--config", _write_config(tmp_path, **cfg),
                       "--out", str(out)])
        assert rc == cli.EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["true_residual"] <= 1e-8
        solutions[method] = np.loadtxt(out / "solution_t1.csv", delimiter=",",
                                       skiprows=2)
        if method == "gmres":
            assert report["theta"] != np.pi and report["gap"] >= GAP_MIN
    a, b = solutions["gmres"], solutions["direct"]
    assert np.linalg.norm(a - b) <= 1e-6 * np.linalg.norm(b)


def test_missing_config_is_config_error(tmp_path):
    rc = cli.main(["solve", "--config", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    # JSON, but not an object: a number died on an AttributeError
    for i, text in enumerate(("[1, 2]", "5")):
        (tmp_path / f"{i}.json").write_text(text)
        rc = cli.main(["solve", "--config", str(tmp_path / f"{i}.json"),
                       "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_CONFIG


def test_solve_writes_outputs(tmp_path):
    cfg = _write_config(tmp_path, **_base_solve_config(out=str(tmp_path / "out")))
    rc = cli.main(["solve", "--config", cfg])
    assert rc == cli.EXIT_OK
    out = tmp_path / "out"
    report = json.loads((out / "report.json").read_text())
    assert report["converged"]
    assert report["rel_l2_error_at_T"] < 1e-3
    assert report["config"]["problem"] == "single_mode"
    csvs = sorted(out.glob("solution_t*.csv"))
    assert len(csvs) == 3
    head = csvs[0].read_text().splitlines()
    assert head[0].startswith("# config:")
    assert head[1] == "x,u,v"
    assert len(head) == 2 + 23     # m - 1 interior nodes


def test_solve_is_deterministic(tmp_path):
    cfg = _write_config(tmp_path, **_base_solve_config())
    cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "a")])
    cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "b")])
    for name in ("solution_t0.csv", "solution_t1.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_solver_non_convergence_exit_code(tmp_path):
    cfg = _base_solve_config()
    cfg["solver"] = {"tol": 1e-14, "max_iter": 2, "precondition": False}
    path = _write_config(tmp_path, **cfg)
    rc = cli.main(["solve", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_NO_CONVERGENCE


@pytest.mark.parametrize("precondition", [True, False])
def test_true_residual_gate_fails_a_solve_whose_stopping_test_holds(
        tmp_path, monkeypatch, precondition):
    # gmres_solve forms the true residual and applies the gate: at 1e-6,
    # above max(TRUE_RESIDUAL_MAX, GMRES_SLACK * tol), the solve has not
    # converged though the lockstep stopping test reached tol
    monkeypatch.setattr(krylov, "_true_residual", lambda *args, **kw: 1e-6)
    reports, solve = [], krylov.gmres_solve
    monkeypatch.setattr(cli, "gmres_solve",
                        lambda *a, **kw: reports.append(solve(*a, **kw)) or reports[-1])
    cfg = _base_solve_config()
    cfg["solver"] = {"tol": 1e-10, "max_iter": 200, "precondition": precondition}
    path = _write_config(tmp_path, **cfg)
    rc = cli.main(["solve", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_NO_CONVERGENCE
    (rep,) = reports
    assert rep.residual_history[-1] <= 1e-10 and rep.true_residual == 1e-6
    assert not rep.converged


def test_converge_sweep(tmp_path):
    cfg = _write_config(tmp_path, problem="single_mode", T=1.0,
                        h_sweep=[1.0, 0.5], tau_over_h=0.25,
                        solver={"tol": 1e-10, "max_iter": 300})
    rc = cli.main(["converge", "--config", cfg, "--out", str(tmp_path / "sweep"),
                   "--workers", "2"])
    assert rc == cli.EXIT_OK
    lines = (tmp_path / "sweep" / "convergence.csv").read_text().splitlines()
    assert lines[1] == "h,tau,rel_l2_error,iterations_pre,iterations_nopre"
    assert len(lines) == 4
    manifest = json.loads((tmp_path / "sweep" / "convergence.json").read_text())
    assert manifest["fitted_slope"] == pytest.approx(2.0, abs=0.5)


def test_converge_records_and_fits_the_solved_discretisation(tmp_path):
    # h = 0.3 and 0.15 do not divide L = 20: the runs use m = 67 and 133 cells,
    # and tau = h/4 rounds to T/N; the csv and the slope use what was solved
    cfg = _write_config(tmp_path, problem="single_mode", T=1.0,
                        h_sweep=[0.3, 0.15], tau_over_h=0.25,
                        solver={"tol": 1e-10, "max_iter": 300})
    rc = cli.main(["converge", "--config", cfg, "--out", str(tmp_path / "s")])
    assert rc == cli.EXIT_OK
    lines = (tmp_path / "s" / "convergence.csv").read_text().splitlines()
    rows = np.array([[float(v) for v in line.split(",")[:3]] for line in lines[2:]])
    # the csv keeps 16 significant digits
    assert rows[:, 0] == pytest.approx([20.0 / 67, 20.0 / 133], rel=1e-15)
    assert rows[:, 1] == pytest.approx([1.0 / 13, 1.0 / 27], rel=1e-15)
    manifest = json.loads((tmp_path / "s" / "convergence.json").read_text())
    # the manifest keeps every bit of what each point solved, and what it cost
    iterations = [[int(v) for v in line.split(",")[3:]] for line in lines[2:]]
    times = [p.pop("wall_time") for p in manifest["points"]]
    assert all(t > 0 for t in times)
    assert 1.0 < manifest["peak_rss_mb"] < 1e5
    assert manifest["points"] == [
        {"h": 20.0 / 67, "tau": 1.0 / 13, "n_steps": 13, "theta": np.pi,
         "threads": 1,
         "iterations_pre": iterations[0][0], "iterations_nopre": iterations[0][1]},
        {"h": 20.0 / 133, "tau": 1.0 / 27, "n_steps": 27, "theta": np.pi,
         "threads": 1,
         "iterations_pre": iterations[1][0], "iterations_nopre": iterations[1][1]}]
    assert min(min(it) for it in iterations) > 0
    slope = np.polyfit(np.log(rows[:, 0]), np.log(rows[:, 2]), 1)[0]
    assert manifest["fitted_slope"] == pytest.approx(slope, rel=1e-12)


def _recording(solve, reports, threads=None):
    """``solve``, appending each report to ``reports`` and the calling
    thread's id to ``threads``."""
    def recorded(*args, **kwargs):
        if threads is not None:
            threads.append(threading.get_ident())
        reports.append(solve(*args, **kwargs))
        return reports[-1]
    return recorded


def test_converge_solves_every_point_on_the_calling_thread_in_order(tmp_path,
                                                                   monkeypatch):
    # no sweep pool: both solves of each point, coarse to fine, on the
    # thread that called main
    reports, threads = [], []
    monkeypatch.setattr(cli, "gmres_solve",
                        _recording(cli.gmres_solve, reports, threads))
    cfg = _write_config(tmp_path, problem="single_mode", T=1.0,
                        h_sweep=[1.0, 0.5, 0.25], tau_over_h=0.25,
                        solver={"tol": 1e-10, "max_iter": 300})
    rc = cli.main(["converge", "--config", cfg, "--out", str(tmp_path / "s"),
                   "--workers", "2"])
    assert rc == cli.EXIT_OK
    assert set(threads) == {threading.get_ident()}
    assert [r.path for r in reports] == ["gmres+omega", "gmres"] * 3
    sizes = [r.solution.size for r in reports]
    assert sizes[::2] == sizes[1::2] and sizes[0] < sizes[2] < sizes[4]


def test_converge_assembles_each_point_once(tmp_path, monkeypatch):
    # both solves of a point read one assembled system, and the error is
    # the preconditioned solve's alone
    assembled, solved, errors = [], [], []
    assemble, solve, error = (cli.assemble_all_at_once, cli.gmres_solve,
                              cli.relative_l2_error)
    monkeypatch.setattr(cli, "assemble_all_at_once",
                        lambda *a: assembled.append(assemble(*a)) or assembled[-1])
    monkeypatch.setattr(cli, "gmres_solve",
                        lambda system, *a, **kw: solved.append(system) or solve(
                            system, *a, **kw))
    monkeypatch.setattr(cli, "relative_l2_error",
                        lambda *a, **kw: errors.append(a) or error(*a, **kw))
    cfg = _write_config(tmp_path, problem="single_mode", T=1.0,
                        h_sweep=[1.0, 0.5, 0.25], tau_over_h=0.25,
                        solver={"tol": 1e-10, "max_iter": 300})
    assert cli.main(["converge", "--config", cfg, "--out", str(tmp_path / "s")]) \
        == cli.EXIT_OK
    assert len(assembled) == 3 and len(errors) == 3
    assert [id(s) for s in solved] == [id(s) for s in assembled for _ in range(2)]


def test_workers_caps_the_row_block_threads_of_each_solve(tmp_path, monkeypatch):
    # one-row blocks make every solve pooled: on two CPUs, --workers 2, 1
    # and 64 give each solve 2, 1 and 2 threads, and the same iterations
    reports = []
    monkeypatch.setattr(krylov, "BLOCK_BYTES", 1)
    monkeypatch.setattr(krylov, "usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "gmres_solve", _recording(cli.gmres_solve, reports))
    cfg = _write_config(tmp_path, problem="single_mode", T=1.0,
                        h_sweep=[1.0, 0.5], tau_over_h=0.25,
                        solver={"tol": 1e-10, "max_iter": 300})
    tables = set()
    for workers, threads in (("2", 2), ("1", 1), ("64", 2)):
        out = tmp_path / workers
        rc = cli.main(["converge", "--config", cfg, "--out", str(out),
                       "--workers", workers])
        assert rc == cli.EXIT_OK
        assert len(reports) == 4 and {r.threads for r in reports} == {threads}
        points = json.loads((out / "convergence.json").read_text())["points"]
        assert [p["threads"] for p in points] == [threads] * 2
        lines = (out / "convergence.csv").read_text().splitlines()[2:]
        tables.add(tuple(line.split(",", 3)[3] for line in lines))
        reports.clear()
    assert len(tables) == 1


def test_solve_workers_one_runs_inline(tmp_path, monkeypatch):
    monkeypatch.setattr(krylov, "BLOCK_BYTES", 1)
    monkeypatch.setattr(krylov, "usable_cpus", lambda: 2)
    path = _write_config(tmp_path, **_base_solve_config())
    for workers, threads in (("1", 1), ("0", 2)):
        out = tmp_path / workers
        rc = cli.main(["solve", "--config", path, "--out", str(out),
                       "--workers", workers])
        assert rc == cli.EXIT_OK
        assert json.loads((out / "report.json").read_text())["threads"] == threads


def test_sweep_threads_are_capped_by_the_cpu_affinity(tmp_path, monkeypatch):
    # an affinity of one CPU (as under taskset -c 0): --workers 2 runs its
    # points one after another on one sweep thread, each solve inline
    reports, sweep_threads = [], set()

    def recording(*args, **kwargs):
        sweep_threads.add(threading.get_ident())
        reports.append(solve(*args, **kwargs))
        return reports[-1]
    solve = cli.gmres_solve
    monkeypatch.setattr(krylov, "BLOCK_BYTES", 1)
    monkeypatch.setattr(krylov, "usable_cpus", lambda: 1)
    monkeypatch.setattr(cli, "gmres_solve", recording)
    cfg = _write_config(tmp_path, problem="single_mode", T=1.0,
                        h_sweep=[1.0, 0.5], tau_over_h=0.25,
                        solver={"tol": 1e-10, "max_iter": 300})
    rc = cli.main(["converge", "--config", cfg, "--out", str(tmp_path / "s"),
                   "--workers", "2"])
    assert rc == cli.EXIT_OK
    assert len(reports) == 4 and {r.threads for r in reports} == {1}
    assert len(sweep_threads) == 1


@pytest.mark.parametrize("command", ["solve", "spectrum", "schrodinger"])
def test_single_runs_need_one_space_grid(tmp_path, command, capsys):
    # a sweep-only config loads for converge; the single-run commands read
    # no sweep and exit 2, not a traceback.  A space grid beside the sweep is
    # refused at load
    problem = "schrodinger_single_mode" if command == "schrodinger" else "single_mode"
    path = _write_config(tmp_path, problem=problem, T=1.0, h_sweep=[0.5, 0.25])
    cli.load_config(path, "converge")
    rc = cli.main([command, "--config", path, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert capsys.readouterr().err == \
        f"config error: h_sweep: read by converge only, not {command}\n"
    for grid in ({"m": 8}, {"h": 0.5}, {"m": 8, "h": 0.5}):
        path = _write_config(tmp_path, problem=problem, T=1.0,
                             h_sweep=[0.5, 0.25], **grid)
        with pytest.raises(cli.ConfigError,
                           match="space grid: give exactly one of m, h, h_sweep"):
            cli.load_config(path, "converge")


def test_output_directory_that_cannot_be_made_exits_config(tmp_path, capsys):
    # an existing file, or a path through one, by --out or by out: mkdir's
    # FileExistsError or NotADirectoryError was a traceback with exit 1
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    for out, argv in ((blocker, ["--out", str(blocker)]),
                      (blocker / "o", ["--out", str(blocker / "o")]),
                      (blocker / "o", [])):
        path = _write_config(tmp_path, **_base_solve_config(out=str(out)))
        assert cli.main(["solve", "--config", path, *argv]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: out: cannot make directory {out}: ")
        assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "file"]
    assert blocker.read_text() == "kept"


def test_negative_workers_flag_exits_config(tmp_path, capsys):
    cfg = _write_config(tmp_path, problem="single_mode", T=1.0,
                        h_sweep=[1.0, 0.5], tau_over_h=0.25)
    rc = cli.main(["converge", "--config", cfg, "--out", str(tmp_path / "s"),
                   "--workers", "-1"])
    assert rc == cli.EXIT_CONFIG
    assert "solver.workers" in capsys.readouterr().err


def test_converge_tau_sweep(tmp_path):
    # temporal error must dominate: fine h, stiff mode, coarse tau sweep
    cfg = _write_config(tmp_path, problem="single_mode", eps=2.0, mode=2,
                        T=1.0, h=0.1, tau_sweep=[0.5, 0.25, 0.125],
                        solver={"tol": 1e-11, "max_iter": 500})
    rc = cli.main(["converge", "--config", cfg, "--out", str(tmp_path / "ts")])
    assert rc == cli.EXIT_OK
    manifest = json.loads((tmp_path / "ts" / "convergence.json").read_text())
    assert manifest["fitted_slope"] == pytest.approx(2.0, abs=0.35)
    lines = (tmp_path / "ts" / "convergence.csv").read_text().splitlines()
    assert [float(l.split(",")[0]) for l in lines[2:]] == [0.1, 0.1, 0.1]
    with pytest.raises(cli.ConfigError, match="space grid: give exactly one"):
        cli.load_config(_write_config(tmp_path, problem="single_mode",
                                      tau_sweep=[0.2, 0.1]), "converge")
    with pytest.raises(cli.ConfigError):
        cli.load_config(_write_config(tmp_path, problem="single_mode", h=0.5,
                                      h_sweep=[0.4, 0.2], tau_sweep=[0.2, 0.1]),
                        "converge")


def test_converge_requires_sweep(tmp_path):
    cfg = _write_config(tmp_path, **_base_solve_config())
    with pytest.raises(cli.ConfigError,
                       match="sweep: give exactly one of h_sweep, tau_sweep"):
        cli.load_config(cfg, "converge")


def test_spectrum_evaluates_no_transform(tmp_path, monkeypatch):
    # the spectrum needs the discrete system alone: no initial state or source
    # data, so no Hilbert fit or evaluation, even for data without a closed form
    calls = []
    for name in ("weideman_fit", "weideman_eval"):
        fn = getattr(ht, name)
        monkeypatch.setattr(ht, name, lambda *a, _fn=fn, _name=name, **kw:
                            calls.append(_name) or _fn(*a, **kw))
    path = _write_config(tmp_path, problem="advection_gaussian_quartic",
                         n_steps=4, h=0.5, T=1.0)
    rc = cli.main(["spectrum", "--config", path, "--out", str(tmp_path / "sp")])
    assert rc == cli.EXIT_OK and calls == []
    cfg = cli.load_config(path)
    run = problems.setup_run(cfg.build_problem(), h=cfg.h)
    lam = eigenvalues_of_D(run.sys)
    cli._write_csv(tmp_path / "ref.csv", ["re", "im", "label"],
                   (lam.real, lam.imag, [cfg.problem] * len(lam)), cfg)
    assert (tmp_path / "sp" / "spectrum.csv").read_text() \
        == (tmp_path / "ref.csv").read_text()


def test_spectrum_dump(tmp_path):
    cfg = _write_config(tmp_path, problem="advection_homogeneous", n_steps=4,
                        h=1.0, T=1.0)
    rc = cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path / "sp")])
    assert rc == cli.EXIT_OK
    lines = (tmp_path / "sp" / "spectrum.csv").read_text().splitlines()
    assert lines[1] == "re,im,label"
    # doubled torus: 2 * (2 * L/h) eigenvalue rows
    assert len(lines) == 2 + 2 * 40
    assert lines[2].endswith("advection_homogeneous")
    # the spectrum of D does not depend on tau: no time grid is needed, and
    # the rows are the same
    cfg = _write_config(tmp_path, problem="advection_homogeneous", h=1.0)
    rc = cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path / "nt")])
    assert rc == cli.EXIT_OK
    assert (tmp_path / "nt" / "spectrum.csv").read_text().splitlines()[1:] == lines[1:]


def test_locus_dump(tmp_path):
    cfg = _write_config(tmp_path, **_base_solve_config())
    rc = cli.main(["locus", "--config", cfg, "--out", str(tmp_path / "loc")])
    assert rc == cli.EXIT_OK
    text = (tmp_path / "loc" / "locus.csv").read_text()
    for name in ("gmm", "bdf2", "rk4", "radau_iia", "explicit_euler"):
        assert name in text
    # locus reads no grid: a config naming only its problem draws the same rows
    cfg = _write_config(tmp_path, problem="single_mode")
    assert cli.main(["locus", "--config", cfg, "--out", str(tmp_path / "p")]) == cli.EXIT_OK
    assert (tmp_path / "p" / "locus.csv").read_text().splitlines()[1:] \
        == text.splitlines()[1:]


def test_locus_method_selection(tmp_path):
    cfg = _write_config(tmp_path, **_base_solve_config(locus_methods=["gmm"]))
    rc = cli.main(["locus", "--config", cfg, "--out", str(tmp_path / "one")])
    assert rc == cli.EXIT_OK
    text = (tmp_path / "one" / "locus.csv").read_text()
    assert "gmm" in text and "bdf2" not in text
    bad = _write_config(tmp_path, **_base_solve_config(locus_methods=["zorp"]))
    rc = cli.main(["locus", "--config", bad, "--out", str(tmp_path / "two")])
    assert rc == cli.EXIT_CONFIG


def test_schrodinger_subcommand(tmp_path):
    # eps is the Schrödinger gamma here, and a negative one stays valid
    for gamma in (0.1, -0.1):
        cfg = _write_config(tmp_path, problem="schrodinger_single_mode", L=20.0,
                            eps=gamma, T=1.0, n_steps=8, m=24,
                            solver={"tol": 1e-10, "max_iter": 200})
        out = tmp_path / f"sch{gamma}"
        rc = cli.main(["schrodinger", "--config", cfg, "--out", str(out)])
        assert rc == cli.EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["rel_l2_error_at_T"] < 1e-3
        head = (out / "solution_t0.csv").read_text().splitlines()
        assert head[1] == "x,re_u,im_u,re_v,im_v"


def test_schrodinger_with_potential(tmp_path):
    # constant potential enters through the exact phase rotation
    cfg = _write_config(tmp_path, problem="schrodinger_single_mode", L=20.0,
                        eps=0.1, V=1.0, T=1.0, n_steps=16, m=40,
                        solver={"tol": 1e-11, "max_iter": 300})
    rc = cli.main(["schrodinger", "--config", cfg, "--out", str(tmp_path / "v")])
    assert rc == cli.EXIT_OK
    report = json.loads((tmp_path / "v" / "report.json").read_text())
    assert report["rel_l2_error_at_T"] < 1e-4


def test_schrodinger_subcommand_rejects_other_models(tmp_path):
    cfg = _write_config(tmp_path, **_base_solve_config())
    rc = cli.main(["schrodinger", "--config", cfg, "--out", str(tmp_path / "x")])
    assert rc == cli.EXIT_CONFIG


def _rowwise_csv(path, header, columns, cfg):
    """The CSV writer as it was: one f-string per value, row by row."""
    lines = ["# config: " + json.dumps(asdict(cfg), default=str), ",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(f"{v:.16g}" if isinstance(v, float) else str(v)
                              for v in row))
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("command,cfg", [
    ("solve", _base_solve_config(problem="mass_transfer_manufactured", m=40)),
    ("schrodinger", dict(_base_solve_config(problem="schrodinger_single_mode"),
                         L=20.0, eps=0.1)),
    ("spectrum", _base_solve_config(problem="advection_manufactured", m=30)),
    ("converge", {"problem": "single_mode", "T": 1.0, "h_sweep": [1.0, 0.5],
                  "tau_over_h": 0.25}),
    ("locus", _base_solve_config()),
])
def test_csv_columns_write_the_rowwise_bytes(tmp_path, monkeypatch, command, cfg):
    # every CSV the commands write, real and complex, is byte-identical to
    # the row-by-row writer's on the same data
    written = []
    new = cli._write_csv

    def both(path, header, columns, cfg):
        columns = list(columns)
        new(path, header, columns, cfg)
        ref = path.with_suffix(".rowwise")
        _rowwise_csv(ref, header, columns, cfg)
        written.append((path.read_bytes(), ref.read_bytes()))
    monkeypatch.setattr(cli, "_write_csv", both)
    rc = cli.main([command, "--config", _write_config(tmp_path, **cfg),
                   "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_OK and written
    for got, ref in written:
        assert got == ref


def test_preconditioner_without_gap_exits_solver_error(tmp_path, capsys):
    # purely dispersive data with many modes: no single theta clears
    # GAP_MIN, and the run ends in one line on stderr, not a traceback
    path = _write_config(tmp_path, problem="schrodinger_two_lorentzian", T=2.0,
                         n_steps=49, h=0.125)
    rc = cli.main(["schrodinger", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_SOLVER == 4
    err = capsys.readouterr().err
    assert err.startswith("solver error: theta = ") and "GAP_MIN" in err
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("command,cfg", [
    ("solve", _base_solve_config()),
    ("schrodinger", dict(_base_solve_config(problem="schrodinger_single_mode"),
                         L=20.0, eps=0.1)),
])
def test_preconditioner_failure_leaves_a_record(tmp_path, monkeypatch, capsys,
                                                command, cfg):
    # no theta clears a GAP_MIN set above every gap: exit 4, one stderr line,
    # and a report naming the failing block, with no solver path and no
    # fallback to the direct solve
    monkeypatch.setattr(krylov, "GAP_MIN", 1e3)
    monkeypatch.setattr(cli, "direct_solve", None)
    out = tmp_path / "o"
    rc = cli.main([command, "--config", _write_config(tmp_path, **cfg),
                   "--out", str(out)])
    assert rc == cli.EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith("solver error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    report = json.loads((out / "report.json").read_text())
    assert report["path"] is None and report["error"] == err[len("solver error: "):-1]
    assert report["n_steps"] == 8 and report["unknowns"] == 8 * 2 * report["n"]
    assert report["gap_min"] == 1e3 and 0.0 < report["gap"] < 1e3
    assert 1.0 < report["peak_rss_mb"] < 1e5
    nearest = report["nearest"]
    assert set(nearest) == {"mode", "component", "tau_mu", "frequency", "lam"}
    assert nearest["component"] in (0, 1) and 0 <= nearest["frequency"] < 8
    # the gap is the distance from that eigenvalue to that frequency
    run = problems.setup_run(cli.load_config(out.parent / "config.json")
                             .build_problem(), m=24)
    z = (1.0 / 8) * eigenvalues_of_D(run.sys)
    K = z.size // 2
    zi = z[nearest["component"] * K + nearest["mode"]]
    assert [zi.real, zi.imag] == nearest["tau_mu"]
    assert abs(complex(*nearest["lam"]) - zi) == report["gap"]
    assert not list(out.glob("*.csv"))


def test_preformatted_x_writes_the_same_bytes(tmp_path):
    # x formatted once and passed as strings gives the bytes of the float x
    # formatted with the table, beside float, int and complex columns
    rng = np.random.default_rng(3)
    x = np.concatenate([np.linspace(0.0, 40.0, 257), rng.standard_normal(40) * 1e-300,
                        [1.0 / 3.0, -0.0, 1e22, 5e-324]])
    columns = (x, rng.standard_normal(x.size), np.arange(x.size),
               rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size))
    cfg = cli.load_config(_write_config(tmp_path, **_base_solve_config()))
    header = ["x", "u", "k", "z"]
    cli._write_csv(tmp_path / "new.csv", header, (cli._as_text(x), *columns[1:]), cfg)
    cli._write_csv(tmp_path / "old.csv", header, columns, cfg)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# values no field takes, and each field's own invalid ones
JUNK = (None, True, "x", [], -1.0, 0.0, 1e400)
INVALID = {
    "problem": ["nope"], "T": [10 ** 400], "L": [],
    "eps": [-0.1],                       # a diffusion eps; valid as a Schrödinger gamma
    "delta": [], "V": [],
    "mode": [0, 1.5], "n_steps": [1, 2.5], "tau": [], "m": [2, 8.0], "h": [100.0],
    "tau_over_h": [], "h_sweep": [[2.5, 5.0], [100.0, 2.5], ["a"]],
    "tau_sweep": [[0.25, 0.5], [0.5, -0.5]],
    "snapshot_times": [[-1.0], [1e9], ["abc"], [None], "x"], "n_max": [0, 2.5],
    "locus_methods": [["nope"], "gmm"],
    "window": [[5.0, -3.0], ["a", "b"], [0.1], [0.2, 0.4, 7], [1e3, 1e3 + 1]],
    "frobs": [1], "out": [5]}
INVALID_SOLVER = {"method": ["nope", 1], "tol": [], "max_iter": [0, 2.5],
                  "precondition": ["no", 0, 1], "workers": [1.5], "restart": [50]}
# what a run that gets past its config leaves
RECORD = {"solve": "report.json", "schrodinger": "report.json",
          "converge": "convergence.json", "spectrum": "spectrum.csv",
          "locus": "locus.csv"}
# the output and sweep fields, the commands that read each (every command
# reads the other fields), and a valid value to give one that does not
READS = {"snapshot_times": ("solve", "schrodinger"),
         "window": ("solve", "schrodinger", "converge"),
         "n_max": ("solve", "schrodinger", "converge"),
         "locus_methods": ("locus",), "h_sweep": ("converge",), "tau_sweep": ("converge",),
         "tau_over_h": ("converge",)}
STRAY = {"snapshot_times": [0.0], "window": [-1e3, 1e3], "n_max": 20,
         "locus_methods": ["gmm"], "h_sweep": [2.5], "tau_sweep": [0.5], "tau_over_h": 0.5}


def _unread(command, cfg) -> set:
    """The fields ``cfg`` gives (null gives none) that ``command`` does not
    read: tau_over_h is read on an h_sweep without n_steps or tau alone."""
    given = {k for k, v in cfg.items() if v is not None}
    unread = {k for k in given if command not in READS.get(k, RECORD)}
    if "tau_over_h" in given and ("h_sweep" not in given or given & {"n_steps", "tau"}):
        unread.add("tau_over_h")
    return unread


@st.composite
def _cli_runs(draw):
    """(command, config, --workers or None): a valid config of the command on
    a grid of at most 16 cells and 8 steps, with the grids it needs, some
    that it does not and the output fields it reads; then maybe a field it
    does not read, and up to two fields given an invalid value, null, or
    dropped."""
    command = draw(st.sampled_from(sorted(RECORD)))
    names = [n for n in sorted(problems.catalog())
             if command != "schrodinger" or n.startswith("schrodinger")]
    problem = draw(st.sampled_from(names))
    takes = inspect.signature(problems.catalog()[problem]).parameters
    cfg = {"problem": problem, "T": draw(st.sampled_from([0.5, 1.0, 2.0]))}
    if draw(st.booleans()):
        cfg["L"] = draw(st.sampled_from([4.0, 10.0, 20.0]))
    L = cfg.get("L", takes["L"].default)
    for name, key, values in (("eps", "eps", [0.05, 0.1, 0.5, 0.0]),
                              ("gamma", "eps", [0.05, 0.1, 1.0, 0.0]),
                              ("delta", "delta", [0.0, 0.02, 0.2, 1.0, -0.2]),
                              ("V", "V", [0.0, 0.5, -0.5]), ("mode", "mode", [1, 2, 7])):
        if name in takes and draw(st.booleans()):
            cfg[key] = draw(st.sampled_from(values))
    hs = st.sampled_from([L / 3.0, L / 4.5, L / 7.0, L / 12.0])
    sweep = command == "converge" and draw(st.sampled_from(["h_sweep", "tau_sweep"]))
    if sweep == "h_sweep":
        cfg["h_sweep"] = sorted(draw(st.lists(hs, min_size=1, max_size=2, unique=True)),
                                reverse=True)
    elif sweep:
        cfg["tau_sweep"] = sorted(draw(st.lists(st.sampled_from([0.5, 0.25, 0.2]),
                                                min_size=1, max_size=2, unique=True)),
                                  reverse=True)
    # solve and schrodinger need a time grid, and an h_sweep without one
    # takes tau = tau_over_h * h; only locus needs no space grid
    if sweep != "tau_sweep" and (command in READS["snapshot_times"] or draw(st.booleans())):
        if draw(st.booleans()):
            cfg["n_steps"] = draw(st.sampled_from([2, 3, 5, 8]))
        else:
            cfg["tau"] = draw(st.sampled_from([0.25, 0.3, 0.5]))
    elif sweep == "h_sweep" and draw(st.booleans()):
        cfg["tau_over_h"] = draw(st.sampled_from([0.25, 0.5, 2.0]))
    if sweep != "h_sweep" and (command != "locus" or draw(st.booleans())):
        if draw(st.booleans()):
            cfg["m"] = draw(st.sampled_from([3, 4, 6, 11, 16]))
        else:
            cfg["h"] = draw(hs)
    for key, values in (("snapshot_times", st.lists(st.sampled_from(
                            [0.0, 0.3, cfg["T"] / 2, cfg["T"]]), min_size=1, max_size=3)),
                        ("window", st.sampled_from([[-1e3, 1e3], [0.0, L / 2],
                                                    [0.4 * L, 0.6 * L]])),
                        ("n_max", st.sampled_from([1, 20, 400])),
                        ("locus_methods", st.sampled_from([["gmm"], ["bdf2", "rk4"]]))):
        if command in READS[key] and draw(st.booleans()):
            cfg[key] = draw(values)
    if draw(st.sampled_from([False, False, True])):
        key = draw(st.sampled_from(sorted(k for k in STRAY if command not in READS[k])
                                   + ["tau_over_h"]))
        cfg[key] = STRAY[key]
    solver = {}
    for key, values in (("method", ["gmres", "direct"]), ("tol", [1e-6, 1e-10, 1e-14]),
                        ("max_iter", [1, 3, 200]), ("precondition", [True, False]),
                        ("workers", [0, 1, 2])):
        if draw(st.booleans()):
            solver[key] = draw(st.sampled_from(values))
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
        if draw(st.booleans()):
            key = draw(st.sampled_from(sorted(INVALID_SOLVER)))
            solver[key] = draw(st.sampled_from(INVALID_SOLVER[key] + list(JUNK)))
        elif draw(st.booleans()):
            cfg.pop(draw(st.sampled_from(sorted(cfg))))
        else:
            key = draw(st.sampled_from(sorted(INVALID)))
            cfg[key] = draw(st.sampled_from(INVALID[key] + list(JUNK)))
    if solver:
        cfg["solver"] = solver
    return command, cfg, draw(st.sampled_from([None, None, None, 1, 2, -1]))


@settings(max_examples=200)
@given(run=_cli_runs())
def test_cli_contract_property(run):
    # every run exits 0, 2, 3 or 4 and raises nothing; one that gets past its
    # config leaves its record (a solve its report.json, also on exit 3 or 4),
    # and a config error leaves no output at all.  A config that gives a
    # field its command does not read is a config error
    command, cfg, workers = run
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "o"
        path.write_text(json.dumps(cfg))
        argv = [command, "--config", str(path), "--out", str(out)]
        if workers is not None:
            argv += ["--workers", str(workers)]
        rc = cli.main(argv)
        assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NO_CONVERGENCE, cli.EXIT_SOLVER)
        if _unread(command, cfg):
            assert rc == cli.EXIT_CONFIG
        written = {p.name for p in out.glob("*")}
        if rc == cli.EXIT_CONFIG:
            assert not written
        else:
            assert RECORD[command] in written
