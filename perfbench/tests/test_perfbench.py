"""Tests of the benchmark itself: span arithmetic, wrapper lifetime, metric
names against BENCHMARK.json, the output checks, and a smoke run of every
workload on coarsened configs.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import COARSE, FULL, Span, Target, Tracer, _resolve, covered, \
    self_times  # noqa: E402


def _current(targets):
    out = {}
    for t in targets:
        owner, attr = _resolve(t)
        out[t] = vars(owner)[attr]
    return out


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 1.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0) == 4.0
    assert covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0


def test_self_times_on_hand_built_tree():
    tree = [
        Span(1, "cli.solve", 0.0, 10.0, None, 1, 0),
        Span(2, "krylov.gmres", 1.0, 4.0, 1, 1, 0),
        Span(3, "bvm.apply", 2.0, 3.0, 2, 1, 0),
        Span(4, "problems.setup_run", 3.5, 6.0, 1, 1, 1),   # concurrent with 2
        Span(5, "bvm.assemble", 9.0, 12.0, 1, 1, 1),        # outlives its parent
    ]
    st = self_times(tree)
    # children of 1 cover [1, 6] and [9, 10] of its interval
    assert st[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert st[2] == pytest.approx(3.0 - 1.0)
    assert st[3] == pytest.approx(1.0)
    assert st[4] == pytest.approx(2.5)
    assert st[5] == pytest.approx(3.0)
    # in one thread, self times add up to the root's duration
    serial = tree[:3]
    assert sum(self_times(serial).values()) == pytest.approx(10.0)


def test_wrappers_removed_and_untraced_runs_see_originals(tmp_path):
    before = _current(FULL)
    with Tracer().installed(COARSE):
        during = _current(FULL)
    assert all(during[t] is before[t] for t in FULL if t not in COARSE)
    assert all(during[t] is not before[t] for t in COARSE)

    _, passes = run.measure("walls_gmres", 0, 0, True, out_root=tmp_path,
                            small=True)
    assert all(now is before[t] for t, now in _current(FULL).items())
    untraced, traced = passes[0], passes[1]
    assert not untraced["traced"] and traced["traced"]
    coarse = {t.name for t in COARSE}
    assert {sp.name for sp in untraced["spans"] if sp.parent} <= coarse
    assert {"bvm.apply", "krylov.precond_apply"} <= {
        sp.name for sp in traced["spans"]}


def test_wrappers_restored_when_the_block_raises():
    before = _current(FULL)
    with pytest.raises(RuntimeError):
        with Tracer().installed(FULL):
            raise RuntimeError("boom")
    assert all(now is before[t] for t, now in _current(FULL).items())


def test_inherited_attribute_is_not_wrapped():
    with pytest.raises(AttributeError):
        _resolve(Target("halfbvm.bvm", "AllAtOnceSystem.__init_subclass__", "x"))


@pytest.mark.parametrize("trace", [False, True])
def test_every_benchmark_metric_is_emitted(tmp_path, trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in bench["per_layer" if trace
                                                   else "end_to_end"]}
    warm, passes = run.measure("drift_quartic", 1, 0, trace, out_root=tmp_path,
                               small=True)
    summary = run.summarize(warm, passes, trace)
    line = run.result_line(summary, trace)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == listed
    assert all(math.isfinite(v["value"]) for v in line["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_workload_passes_every_check(tmp_path, workload):
    warm, passes = run.measure(workload, 0, 0, False, out_root=tmp_path,
                               small=True)
    summary = run.summarize(warm, passes, False)
    assert summary["failed"] == 0, summary["errors"]
    assert summary["attempted"] == 2 * len(workloads.make_ops(workload, 0))
    assert summary["max_true_residual"] <= workloads.RESIDUAL_MAX


def test_seed_zero_is_exact_and_other_seeds_jitter_within_one_percent():
    base = workloads.make_ops("drift_quartic", 0)[0].config
    assert (base["eps"], base["delta"]) == (0.01, 0.2)
    for seed in range(1, 20):
        cfg = workloads.make_ops("drift_quartic", seed)[0].config
        assert abs(cfg["eps"] / 0.01 - 1) <= 0.01
        assert abs(cfg["delta"] / 0.2 - 1) <= 0.01
        assert cfg == workloads.make_ops("drift_quartic", seed)[0].config
        assert workloads.make_ops("converge_sweep", seed)[0].config["eps"] == 0.1
    assert workloads.make_ops("drift_quartic", 1)[0].config != base


def _result(op, **kw):
    return workloads.OpResult(op=op, rc=0, wall_s=1.0, out_dir=None, **kw)


def test_checks_flag_bad_residual_and_disagreeing_paths():
    system = SimpleNamespace(rhs=np.ones(4), apply=lambda x: 2.0 * x,
                             shape=(4, 4))
    op = workloads.Op("direct_solve", "solve", {})
    res = _result(op)
    report = SimpleNamespace(solution=np.ones(4), iterations=1)
    workloads.record_solves(res, [("krylov.direct", (system,), {}, report)])
    assert res.failed and "true residual" in res.errors[0]

    kept = workloads.Op("x", "solve", {}, keep_solution=True)
    a = _result(kept, solution=np.ones(4))
    b = _result(kept, solution=np.ones(4) * (1 + 1e-3))
    workloads.check_pass([a, b])
    assert b.failed and not a.failed
    assert a.solution is None and b.solution is None


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walls_gmres",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
