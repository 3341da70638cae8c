"""irlobs benchmark: real-time factor, set-up time, memory and accuracy.

    python3 bench/run.py --workload query --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each sub-run of the workload gets a
fresh single-threaded process (BLAS and OpenMP pools pinned to one thread
before numpy is imported) that times ``import irlobs`` plus
``load_config``, calls ``run_experiment`` once and checks the report.
With ``--trace 1`` one process runs sub-run 0 untraced, traced and
untraced again, and the per-layer metrics are reported instead of the
end-to-end ones.  See
bench/README.md.

Standard output ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, workload_config  # noqa: E402

END_TO_END = {
    "realtime_factor": "sim_s/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "theta_digits": "decades",
}

TIME_LIMIT_S = 170.0
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker(args, env, timeout):
    """Run bench/worker.py with ``args``; returns its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout:.0f} s: {' '.join(args)}")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace, root):
    """Worker results of one benchmark run, one per process started.

    Untraced: runs the workload's sub-runs, one fresh process each, and
    repeats the whole cycle while another one is likely to end within
    ``seconds`` (at least one cycle).  Traced: one process running sub-run
    0 untraced, traced and untraced again.
    """
    if not (root / "src" / "irlobs" / "__init__.py").is_file():
        raise BenchError(f"no irlobs sources under {root / 'src'}")
    spec = WORKLOADS[workload]
    started = time.perf_counter()
    env = dict(os.environ, **WORKER_ENV)
    build = root / ".bench_build"
    build.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=build))
    flags = ["--trace"] if trace else []
    results = []
    try:
        while True:
            cycle_start = time.perf_counter()
            for index in range(1 if trace else spec["runs"]):
                config_path = work / f"config-{index}.json"
                config_path.write_text(json.dumps(workload_config(workload, seed, index)))
                remaining = TIME_LIMIT_S - (time.perf_counter() - started)
                if remaining <= 0:
                    raise BenchError(f"no time left within {TIME_LIMIT_S:.0f} s")
                results.append(worker(
                    ["--config", str(config_path), "--out", str(work / "out"), *flags],
                    env, remaining,
                ))
            now = time.perf_counter()
            # another cycle only if it is likely to end inside the window
            if trace or (now - started) + (now - cycle_start) > min(seconds, TIME_LIMIT_S):
                return results
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end(results):
    runs = [r for res in results for r in res["runs"] if "duration_s" in r]
    digits = [math.log10(1.0 / r["theta_rel"]) for r in runs if "theta_rel" in r]
    return {
        "realtime_factor": statistics.median(r["duration_s"] / r["wall_s"] for r in runs)
        if runs else 0.0,
        "setup_s": statistics.median(r["import_s"] + r["load_config_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "theta_digits": statistics.median(digits) if digits else 0.0,
    }


def per_layer(results):
    metrics = dict(results[0].get("layers", {}))
    metrics["setup.import_s"] = statistics.median(r["import_s"] for r in results)
    metrics["setup.load_config_ms"] = 1e3 * statistics.median(
        r["load_config_s"] for r in results
    )
    return metrics


def decision_digest(runs):
    """One digest over the distinct decision digests of the runs, in order."""
    joined = ",".join(dict.fromkeys(r.get("digest", "-") for r in runs))
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: the running worker is killed and the scratch removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = HERE.parent
    try:
        results = measure(args.workload, args.seed, args.seconds, args.trace, root)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    all_runs = [r for res in results for r in res["runs"]]
    failed = sum(1 for r in all_runs if not r["ok"])
    if args.trace:
        values, units = per_layer(results), PER_LAYER
    else:
        values, units = end_to_end(results), END_TO_END
    missing = [name for name in units if name not in values]
    if missing and not failed:
        print(f"bench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for name in missing:  # a failed traced run leaves its layers unmeasured
        values[name] = 0.0

    env = results[0]["environment"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(all_runs)} runs, {failed} failed")
    for r in all_runs:
        if not r["ok"]:
            print(f"  failed run: {'; '.join(r['problems'])}")
    print(f"  decision_digest {decision_digest(all_runs)} "
          f"(sub-runs {' '.join(r.get('digest', '-') for r in all_runs)})")
    print(f"  environment {json.dumps(env, sort_keys=True)}")
    print("  run walls " + " ".join(f"{r['wall_s']:.3f}s" for r in all_runs))
    for name, key in (("w_err_log10", "w_rel"), ("theta_err_log10", "theta_rel")):
        errors = [r[key] for r in all_runs if key in r]
        if errors:  # informational: log10 of the median final relative error
            print(f"  {name:<52} {math.log10(statistics.median(errors)):.6g} decades")
    for name, unit in units.items():
        print(f"  {name:<52} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(all_runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
