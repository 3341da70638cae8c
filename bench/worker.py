"""One benchmark process: set up, run one workload config, check the report.

    python3 bench/worker.py --config CFG --out DIR [--trace]

Started by ``bench/run.py``.  Times ``import irlobs`` plus ``load_config``,
calls ``run_experiment`` once and checks the report.  With ``--trace`` it
then repeats the run with the tracer installed (see tracing.py) and once
more without; every repeat must make the same decisions, and the traced
run must write a byte-identical ``summary.json``.  Prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THETA_BOUND = 1e-3  # acceptance criterion 4
W_BOUND = 1e-2  # acceptance criterion 6
REPORT_ARRAYS = ("t", "p_tilde", "q_tilde", "theta_tilde", "w_tilde", "w_true", "w_final")


def timed_setup(config_path):
    """Import irlobs and load the config; returns (module, cfg, import_s, load_s)."""
    t0 = time.perf_counter()
    import irlobs

    t1 = time.perf_counter()
    cfg = irlobs.load_config(config_path)
    t2 = time.perf_counter()
    return irlobs, cfg, t1 - t0, t2 - t1


def decision_digest(trace):
    """Hash of the run's stores (swaps included), weight updates and purges,
    with their times."""
    payload = json.dumps([trace.stores, trace.weight_updates, trace.purges], default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def relative_error(report, name, scale):
    """Final norm of the error series ``name`` relative to ``scale``."""
    return float(report.norms(name)[-1] / scale)


def check_report(report, theta_norm, checks_weights):
    """Reasons the report fails the correctness check (empty when it passes).

    ``checks_weights`` adds the cost-recovery bounds, which hold in query
    mode only: observed mode never solves the weights.
    """
    import numpy as np

    problems = [
        f"{name} empty or not finite"
        for name in REPORT_ARRAYS
        if getattr(report, name).size == 0 or not np.all(np.isfinite(getattr(report, name)))
    ]
    if problems:
        return problems
    theta_rel = relative_error(report, "theta_tilde", theta_norm)
    if not theta_rel < THETA_BOUND:
        problems.append(f"|theta~|/|theta| = {theta_rel:.3e} >= {THETA_BOUND}")
    if checks_weights:
        w_rel = relative_error(report, "w_tilde", np.linalg.norm(report.w_true))
        if not w_rel < W_BOUND:
            problems.append(f"|W~|/|W| = {w_rel:.3e} >= {W_BOUND}")
        if report.purge_count < 1:
            problems.append("no purge")
    return problems


def one_run(irlobs, cfg):
    """Call run_experiment once; returns (report or None, record)."""
    import numpy as np

    start = time.perf_counter()
    try:
        report = irlobs.experiment.run_experiment(cfg)
    except Exception as exc:  # a raising run is a failed operation
        wall = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return None, {"wall_s": wall, "ok": False, "problems": [f"raised {exc!r}"]}
    wall = time.perf_counter() - start
    theta_norm = np.linalg.norm(cfg.plant().theta)
    problems = check_report(report, theta_norm, cfg.raw["run"]["mode"] == "query")
    record = {
        "wall_s": wall,
        "ok": not problems,
        "problems": problems,
        "duration_s": float(cfg.raw["run"]["duration"]),
        "digest": decision_digest(report.trace),
        "purges": report.purge_count,
    }
    if not problems:
        record["theta_rel"] = relative_error(report, "theta_tilde", theta_norm)
        record["w_rel"] = relative_error(report, "w_tilde", np.linalg.norm(report.w_true))
    return report, record


def traced_run(irlobs, cfg, tracer, untraced, out_dir):
    """Repeat the run with ``tracer`` installed and compare it with the
    untraced ``(report, record)``."""
    irlobs.experiment.write_report(untraced[0], out_dir / "untraced")
    with tracer.installed():
        report, record = one_run(irlobs, cfg)
        if report is not None:
            irlobs.experiment.write_report(report, out_dir / "traced")
    if report is None:
        return record
    if record["digest"] != untraced[1]["digest"]:
        record["problems"].append("traced run made different decisions")
    if ((out_dir / "traced" / "summary.json").read_bytes()
            != (out_dir / "untraced" / "summary.json").read_bytes()):
        record["problems"].append("traced summary.json differs from untraced")
    record["ok"] = not record["problems"]
    return record


def environment():
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run(args):
    irlobs, cfg, import_s, load_s = timed_setup(args.config)
    untraced = one_run(irlobs, cfg)
    result = {
        "import_s": import_s,
        "load_config_s": load_s,
        "runs": [untraced[1]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if not args.trace or untraced[0] is None:
        return result
    from layers import span_metrics
    from tracing import Tracer

    tracer = Tracer()
    traced = traced_run(irlobs, cfg, tracer, untraced, Path(args.out))
    # a second untraced run brackets the traced one, so slow drift in
    # machine speed cancels out of the tracing overhead
    after = one_run(irlobs, cfg)[1]
    if after.get("digest") != untraced[1]["digest"]:
        after["ok"] = False
        after["problems"].append("repeated run made different decisions")
    result["runs"] += [traced, after]
    if traced["ok"] and after["ok"]:
        layers = span_metrics(tracer.spans, tracer.truthy, float(cfg.raw["run"]["dt"]))
        layers["purge.purges"] = traced["purges"]
        layers["irl.w_digits"] = math.log10(1.0 / traced["w_rel"])
        untraced_s = (untraced[1]["wall_s"] + after["wall_s"]) / 2.0
        layers["trace.overhead_frac"] = traced["wall_s"] / untraced_s - 1.0
        result["layers"] = layers
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
