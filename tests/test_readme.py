"""The README's code runs: the library sketch and the example configuration;
and its table of config fields is the declarations'."""

import json
import re
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from halfbvm import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(lang: str, after: str) -> str:
    """The first ```lang fenced block after the heading or text ``after``."""
    tail = README[README.index(after):]
    return re.search(rf"```{lang}\n(.*?)```", tail, re.S).group(1)


def test_library_sketch_runs():
    env = {}
    exec(_block("python", "## Library sketch"), env)
    assert env["report"].converged
    assert env["err"] < 1e-2


def test_example_config_loads(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(_block("json", "Example configuration"))
    cfg = cli.load_config(path)
    assert cfg.problem == "half_diffusion_manufactured"
    assert cfg.solver.precondition and cfg.solver.tol == 1e-9
    assert json.loads(path.read_text())["h"] == cfg.h


@pytest.mark.parametrize("command,record", [("solve", "report.json"),
                                            ("spectrum", "spectrum.csv"),
                                            ("locus", "locus.csv")])
def test_example_config_runs_under_several_commands(tmp_path, command, record):
    # one file serves several commands: the solve's T, tau and solver are
    # experiment fields, which spectrum and locus take and do not read
    path = tmp_path / "cfg.json"
    path.write_text(_block("json", "Example configuration"))
    out = tmp_path / command
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
    assert (out / record).exists()


def test_config_table_is_the_declarations():
    # each row: the field, its default as JSON ("required" for none), the
    # error its check raises, and the commands that read it ("all")
    head = README.index("| field | default | check | read by |")
    rows = {}
    for line in README[head:].splitlines()[2:]:
        if not line.startswith("| `"):
            break
        name, default, check, read_by = (c.strip() for c in line.strip("|").split(" | "))
        rows[name.strip("`")] = (default, check, read_by)
    declared = {}
    for cls, prefix in ((cli.ExperimentConfig, ""), (cli.SolverSettings, "solver.")):
        for f in fields(cls):
            if f.name == "solver":
                continue
            read_by = f.metadata["read_by"]
            declared[prefix + f.name] = (
                "required" if f.default is MISSING else f"`{json.dumps(f.default)}`",
                f.metadata["error"], "all" if read_by == cli.COMMANDS else ", ".join(read_by))
    assert rows == declared
