import json
import threading
from dataclasses import asdict

import numpy as np
import pytest

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


# h above L/3 is a grid of fewer than 3 cells; only the grid can tell, since
# L comes from the problem
GRID_ONLY = ({"h": 100.0, "m": None},
             {"h_sweep": [100.0, 0.5], "m": None, "n_steps": None})
# the loader cannot know which parameters each problem's factory takes
PROBLEM_ONLY = ({"problem": "half_diffusion_manufactured", "delta": 0.1},
                {"V": 0.5},                  # on single_mode
                {"problem": "transport_limit", "eps": 0.1},
                {"problem": "advection_mms", "mode": 2})


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
])
def test_bad_solver_and_grid_settings_exit_config(tmp_path, setting, capsys):
    cfg = _base_solve_config()
    for key, value in setting.items():
        if key == "solver":
            cfg["solver"] = dict(cfg["solver"], **value)
        elif value is None:
            cfg.pop(key)
        else:
            cfg[key] = value
    path = _write_config(tmp_path, **cfg)
    if setting not in GRID_ONLY + PROBLEM_ONLY:
        with pytest.raises(cli.ConfigError):
            cli.load_config(path)
    command = "converge" if "h_sweep" in setting else "solve"
    assert cli.main([command, "--config", path, "--out", str(tmp_path / "o")]) \
        == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")


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
        assert report["path"] == path and report["half_spectrum"] is half
        assert 0.0 <= report["true_residual"] < 1e-8
        # a system of one row block runs inline on every path
        assert report["threads"] == 1
        # the direct path times its four stages and counts the mode components
        # with tau*mu on [-i, i]: here the constant mode, twice (Jordan block)
        if path == "direct":
            assert set(report["timings"]) == {"transform", "sweeps",
                                              "inverse_transform", "true_residual"}
            assert sum(report["timings"].values()) == pytest.approx(report["wall_time"])
            assert report["marginal_modes"] == 2
            assert report["modes"] is None and report["floored_modes"] is None
        else:
            # GMRES times its seven stages, summing to within 5% of the wall
            # time, and solves the 160 // 2 + 1 rfft modes as one batch
            assert set(report["timings"]) == {
                "transform", "operator", "preconditioner", "orthogonalisation",
                "inverse_transform", "true_residual", "preconditioned_residual"}
            assert sum(report["timings"].values()) == pytest.approx(
                report["wall_time"], rel=0.05)
            assert all(t >= 0.0 for t in report["timings"].values())
            assert report["marginal_modes"] is None
            assert report["modes"] == 81
            # no rfft mode of this data is below the floor of the rhs
            assert report["floored_modes"] == 0
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
    # walls, 2 on the drift run, 1 on homogeneous data
    for problem, kind, n_max, torus, routes, rank in (
            ("half_diffusion_manufactured", "closed_form", None, None, [closed] * 3, 3),
            ("advection_gaussian_quartic", "series", 400, "odd_doubled", [fitted] * 2,
             2),
            ("half_diffusion_homogeneous", "series", 400, None, [closed], 1)):
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
        assert record["periodisation"] == torus
        assert [record["u0"], *record["source"]] == routes
        assert report["rhs_rank"] == rank
        # the record reads the fits the run made, and makes none of its own
        assert fits == [FIT_ORDER] * routes.count(fitted)


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
    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
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
    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
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
    monkeypatch.setattr(cli, "usable_cpus", lambda: 1)
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
    # a sweep lifts the loader's grid check, so a sweep-only config loads;
    # the single-run commands then have no grid and exit 2, not a traceback
    problem = "schrodinger_single_mode" if command == "schrodinger" else "single_mode"
    for grid in ({}, {"m": 8, "h": 0.5}):
        path = _write_config(tmp_path, problem=problem, T=1.0,
                             h_sweep=[0.5, 0.25], **grid)
        cli.load_config(path)
        rc = cli.main([command, "--config", path, "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: space grid")


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
    with pytest.raises(cli.ConfigError):
        cli.load_config(_write_config(tmp_path, problem="single_mode",
                                      tau_sweep=[0.2, 0.1]))   # no space grid
    with pytest.raises(cli.ConfigError):
        cli.load_config(_write_config(tmp_path, problem="single_mode", h=0.5,
                                      h_sweep=[0.4, 0.2], tau_sweep=[0.2, 0.1]))


def test_converge_requires_sweep(tmp_path):
    cfg = _write_config(tmp_path, **_base_solve_config())
    with pytest.raises(cli.ConfigError):
        cli.run_convergence(cli.load_config(cfg), tmp_path)


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


def test_locus_dump(tmp_path):
    cfg = _write_config(tmp_path, **_base_solve_config())
    rc = cli.main(["locus", "--config", cfg, "--out", str(tmp_path / "loc")])
    assert rc == cli.EXIT_OK
    text = (tmp_path / "loc" / "locus.csv").read_text()
    for name in ("gmm", "bdf2", "rk4", "radau_iia", "explicit_euler"):
        assert name in text


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
    cfg = _write_config(tmp_path, problem="schrodinger_single_mode", L=20.0,
                        eps=0.1, T=1.0, n_steps=8, m=24,
                        solver={"tol": 1e-10, "max_iter": 200})
    rc = cli.main(["schrodinger", "--config", cfg, "--out", str(tmp_path / "sch")])
    assert rc == cli.EXIT_OK
    report = json.loads((tmp_path / "sch" / "report.json").read_text())
    assert report["rel_l2_error_at_T"] < 1e-3
    head = (tmp_path / "sch" / "solution_t0.csv").read_text().splitlines()
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
