"""The README's code runs: the library sketch and the example configuration."""

import json
import re
from pathlib import Path

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
