"""halfbvm benchmark: run one workload through ``halfbvm.cli.main`` in-process.

    python3 perfbench/run.py --workload walls_gmres --seed 0 --seconds 35 --trace 0

Run from the repository root; the program is imported from ``src/``.  Passes
of the workload's ops repeat until the next one would end after ``--seconds``.
``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics plus the tracing overhead.  The last line of standard output is one
JSON object; the lines before it, starting with ``#``, are the run header and
the tables.  The full record, with every span of a traced run, is written to
``.perfbench_out/`` under the current directory.  See README.md.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

# One BLAS thread.  On a 2-core machine OpenBLAS's second thread spins beside
# the Python-bound preconditioner loop: walls_gmres passes then swing by
# +-18% instead of +-5%.  Set before numpy loads; the run header records it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from spans import COARSE, FULL, Tracer, self_times  # noqa: E402
from workloads import (WORKERS, WORKLOADS, OpResult, check_pass, make_ops,  # noqa: E402
                       read_outputs, record_solves)

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(".perfbench_out")

END_TO_END = {
    "main_op_s": "s",
    "workload_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# span name -> the layer metric its self time adds to; op spans add to cli.self_s
SELF_METRIC = {
    "problems.setup_run": "problems.setup_run_s",
    "spatial.assemble": "spatial.assemble_s",
    "hilbert.fit": "hilbert.fit_s",
    "hilbert.eval": "hilbert.eval_s",
    "hilbert.closed_form": "hilbert.eval_s",
    "doubling.initial_state": "doubling.initial_state_s",
    "doubling.source_blocks": "doubling.source_blocks_s",
    "doubling.doubled_source": "doubling.source_blocks_s",
    "bvm.assemble": "bvm.assemble_self_s",
    "bvm.apply": "bvm.apply_s",
    "krylov.precond_build": "krylov.precond_build_s",
    "krylov.precond_apply": "krylov.precond_apply_s",
    "krylov.gmres": "krylov.orth_s",
    "krylov.direct": "krylov.direct_s",
    "spectrum.eigs": "spectrum.eigs_s",
    "oracles.build": "oracles.build_s",
    "oracles.eval": "oracles.eval_s",
    "oracles.error": "oracles.eval_s",
}
# layers some workload bypasses read 0 there; the JSON line carries them
# merged with a layer every workload runs, the tables carry them apart
MERGED = {
    "hilbert.fit_eval_s": ("hilbert.fit_s", "hilbert.eval_s"),
    "krylov.orth_direct_s": ("krylov.orth_s", "krylov.direct_s"),
    "oracles.build_eval_s": ("oracles.build_s", "oracles.eval_s"),
}
PER_LAYER = {
    "problems.setup_run_s": "s",
    "spatial.assemble_s": "s",
    "hilbert.fit_eval_s": "s",
    "doubling.initial_state_s": "s",
    "doubling.source_blocks_s": "s",
    "bvm.assemble_self_s": "s",
    "bvm.apply_s": "s",
    "krylov.orth_direct_s": "s",
    "oracles.build_eval_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "hilbert.eval_points": "count",
    "doubling.doubled_source_calls": "count",
    "bvm.apply_calls": "count",
    "krylov.precond_apply_calls": "count",
    "krylov.block_solve_calls": "count",
    "krylov.gmres_iterations": "count",
    "krylov.basis_mb_computed": "MB",
    "oracles.rel_l2_error": "1",
}
SETUP_SPANS = ("problems.setup_run", "bvm.assemble", "krylov.precond_build")
CALLS = {
    "hilbert.fit_calls": "hilbert.fit",
    "doubling.doubled_source_calls": "doubling.doubled_source",
    "bvm.apply_calls": "bvm.apply",
    "krylov.precond_build_calls": "krylov.precond_build",
    "krylov.precond_apply_calls": "krylov.precond_apply",
    "krylov.direct_calls": "krylov.direct",
    "spectrum.eigs_calls": "spectrum.eigs",
    "oracles.build_calls": "oracles.build",
}


def _blas():
    """BLAS library name and version, and its thread count where readable."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{info.get('name')} {info.get('version')}"
    threads = None
    try:
        import ctypes
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "blas" in line.lower() and line.rstrip().endswith(".so")}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    threads = int(getattr(lib, sym)())
                    break
            if threads is not None:
                break
    except OSError:
        pass
    return name, threads


def run_header(workload, seed, seconds, trace) -> dict:
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas, blas_threads = _blas()
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": blas_threads, "workers": WORKERS}


def run_pass(cli, ops, tracer, targets, out_dir) -> dict:
    """Run every op once with ``targets`` wrapped; check each after its timer."""
    results = []
    with tracer.installed(targets):
        for op in ops:
            op_dir = out_dir / op.label
            op_dir.mkdir(parents=True, exist_ok=True)
            cfg_path = op_dir / "config.json"
            cfg_path.write_text(json.dumps(op.config))
            argv = [op.command, "--config", str(cfg_path), "--out", str(op_dir),
                    *op.args]
            rc, wall = -1, math.nan
            try:
                with tracer.op(f"cli.{op.command}"):
                    t0 = time.perf_counter()
                    try:
                        rc = cli.main(argv)
                    finally:
                        wall = time.perf_counter() - t0
            except Exception:
                traceback.print_exc(file=sys.stderr)
            res = OpResult(op=op, rc=rc, wall_s=wall, out_dir=op_dir)
            record_solves(res, tracer.captured)
            tracer.captured.clear()
            read_outputs(res)
            results.append(res)
        check_pass(results)
    spans, counts = tracer.take()
    return {"traced": targets is FULL, "results": results, "spans": spans,
            "counts": counts, "wall_s": sum(r.wall_s for r in results)}


def layer_values(p) -> dict:
    """Per-layer self times and counts of one traced pass."""
    spans, results = p["spans"], p["results"]
    st = self_times(spans)
    out = dict.fromkeys(sorted(set(SELF_METRIC.values())), 0.0)
    out["cli.self_s"] = 0.0
    for sp in spans:
        key = "cli.self_s" if sp.parent is None else SELF_METRIC[sp.name]
        out[key] += st[sp.id]
    for name, parts in MERGED.items():
        out[name] = sum(out[k] for k in parts)
    names = Counter(sp.name for sp in spans)
    out.update({k: names[v] for k, v in CALLS.items()})
    out["hilbert.eval_points"] = p["counts"]["hilbert.eval_points"]
    out["krylov.block_solve_calls"] = p["counts"]["krylov.block_solve"]
    out["krylov.gmres_iterations"] = sum(r.iterations for r in results)
    out["krylov.basis_mb_computed"] = max(r.basis_mb for r in results)
    out["oracles.rel_l2_error"] = results[0].rel_l2_error
    return out


def measure(workload, seed, seconds, trace, out_root=OUT, small=False):
    """Warm up on the small configs, then run passes for ``seconds``."""
    from halfbvm import cli
    ops = make_ops(workload, seed, small=small)
    out_dir = out_root / workload
    tracer = Tracer()
    warm = run_pass(cli, make_ops(workload, seed, small=True), tracer, COARSE,
                    out_dir / "warmup")
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.perf_counter()
        p = run_pass(cli, ops, tracer, FULL if traced else COARSE, out_dir)
        p["elapsed_s"] = time.perf_counter() - t0
        passes.append(p)
        need_traced = trace and not any(q["traced"] for q in passes)
        typical = statistics.median(q["elapsed_s"] for q in passes)
        if not need_traced and time.perf_counter() - start + typical > seconds:
            break
    return warm, passes


def _median(values):
    """Median of the values present; NaN when an op failed on every pass."""
    present = [v for v in values if v is not None]
    return float(statistics.median(present)) if present else math.nan


def summarize(warm, passes, trace) -> dict:
    ops = [r for p in [warm, *passes] for r in p["results"]]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    labels = [r.op.label for r in plain[0]["results"]]
    op_walls = {lab: [p["results"][i].wall_s for p in plain]
                for i, lab in enumerate(labels)}
    summary = {
        "attempted": len(ops),
        "failed": sum(r.failed for r in ops),
        "errors": [f"{r.op.label}: {e}" for r in ops for e in r.errors],
        "op_walls_s": op_walls,
        "gmres_iterations": [sum(r.iterations for r in p["results"]) for p in passes],
        "max_true_residual": max((x for r in ops for x in r.residuals), default=None),
        "rel_l2_error": _median(p["results"][0].rel_l2_error for p in passes),
    }
    if not trace:
        summary["metrics"] = {
            "main_op_s": _median(op_walls[labels[0]]),
            "workload_s": _median(p["wall_s"] for p in plain),
            "setup_s": _median(sum(sp.cpu for sp in p["spans"]
                                   if sp.name in SETUP_SPANS) for p in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return summary
    rows = [layer_values(p) for p in traced]
    table = {k: _median(r[k] for r in rows) for k in rows[0]}
    table["trace.overhead_s"] = (_median(p["wall_s"] for p in traced)
                                 - _median(p["wall_s"] for p in plain))
    summary["layers"] = table
    summary["traced_passes"] = len(traced)
    summary["overhead_by_op_s"] = {
        lab: _median(p["results"][i].wall_s for p in traced) - _median(op_walls[lab])
        for i, lab in enumerate(labels)}
    summary["metrics"] = {k: table[k] for k in PER_LAYER}
    return summary


def _print_tables(header, summary, trace):
    print("# " + " ".join(f"{k}={v}" for k, v in header.items()))
    print(f"# {'op':<14}{'samples':>8}{'median_s':>11}{'min_s':>10}{'max_s':>10}")
    for lab, walls in summary["op_walls_s"].items():
        print(f"# {lab + '_s':<14}{len(walls):>8}{statistics.median(walls):>11.4f}"
              f"{min(walls):>10.4f}{max(walls):>10.4f}")
    main_op = next(iter(summary["op_walls_s"]))
    print(f"# gmres_iterations per pass: {summary['gmres_iterations']}; "
          f"max true residual: {summary['max_true_residual']}; "
          f"rel_l2_error ({main_op}): {summary['rel_l2_error']}; "
          f"ops_failed_frac: {summary['failed']}/{summary['attempted']}")
    for err in summary["errors"]:
        print(f"# FAILED {err}")
    if trace:
        title = f"layer (median of {summary['traced_passes']} traced passes)"
        print(f"# {title:<34}{'value':>14}")
        for k, v in summary["layers"].items():
            print(f"# {k:<34}{v:>14.6g}")
        for lab, v in summary["overhead_by_op_s"].items():
            print(f"# trace overhead {lab + '_s':<18}{v:>14.6g}")


def _record(header, summary, passes, trace) -> dict:
    rec = {"header": header, **summary}
    if trace:
        rec["spans"] = [
            {"id": sp.id, "name": sp.name, "start": sp.start, "end": sp.end,
             "parent": sp.parent, "op": sp.op, "thread": sp.thread, "cpu": sp.cpu,
             "pass": i, "traced": p["traced"]}
            for i, p in enumerate(passes) for sp in p["spans"]]
    return rec


def result_line(summary, trace) -> dict:
    """The last line of standard output."""
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": summary["metrics"][k], "unit": u}
                    for k, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "halfbvm" / "__init__.py").is_file():
        print(f"perfbench: no halfbvm sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import halfbvm
    if Path(halfbvm.__file__).resolve().parent != (src / "halfbvm").resolve():
        print(f"perfbench: imported halfbvm from {halfbvm.__file__}, not {src}",
              file=sys.stderr)
        return 2

    trace = bool(args.trace)
    header = run_header(args.workload, args.seed, args.seconds, args.trace)
    warm, passes = measure(args.workload, args.seed, args.seconds, trace)
    summary = summarize(warm, passes, trace)
    _print_tables(header, summary, trace)
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(_record(header, summary, passes, trace)))
    print(json.dumps(result_line(summary, trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
