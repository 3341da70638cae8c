"""Command-line entry point: run experiments, inspect the Riccati solution."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import IrlobsError
from .experiment import ExperimentConfig, load_config, read_config, run_experiment, write_report
from .plant import make_demonstrator


def _cmd_run(args):
    merged = read_config(args.config)
    flags = {"mode": args.mode, "seed": args.seed, "report_stride": 1 if args.full_rate else None}
    merged["run"].update((k, v) for k, v in flags.items() if v is not None)
    cfg = ExperimentConfig(merged)
    out = Path(args.out)
    made = not out.exists()
    out.mkdir(parents=True, exist_ok=True)  # an unusable --out fails before the run
    try:
        report = run_experiment(cfg)
    except (IrlobsError, MemoryError):  # MemoryError: a stack capacity too large to allocate
        if made:  # a failed run leaves no output directory behind
            out.rmdir()
        raise
    paths = write_report(report, out)
    norms = report.norms("w_tilde")
    w_rel = norms[-1] / max(np.linalg.norm(report.w_true), 1e-300) if norms.size else float("nan")
    print(f"run complete: {report.t.size} report rows, {report.queries} queries, "
          f"{report.purge_count} purges, final |W~|/|W| = {w_rel:.3e}")
    for p in paths:
        print(f"wrote {p}")
    return 0


def _cmd_are(args):
    cfg = load_config(args.config)
    demo = make_demonstrator(cfg.plant(), cfg.cost())
    eigs = np.linalg.eigvals(demo.a_cl)
    np.set_printoptions(precision=8, suppress=True)
    print("Riccati solution P:")
    print(demo.riccati_p)
    print("feedback gain K = R^-1 B' P:")
    print(demo.k_fb)
    print("closed-loop eigenvalues:")
    for lam in eigs:
        print(f"  {lam.real:+.8f} {lam.imag:+.8f}j")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="irlobs",
        description="Observe a linear agent and recover its cost function online.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment and write CSV/JSON reports")
    p_run.add_argument("--config", help="JSON config file (default: the shipped defaults)")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--mode", choices=["observed", "query"], default=None,
                       help="override the configured mode")
    p_run.add_argument("--seed", type=int, default=None, help="override the configured seed")
    p_run.add_argument("--full-rate", action="store_true",
                       help="report every grid step instead of downsampling")
    p_run.set_defaults(func=_cmd_run)

    p_are = sub.add_parser("are", help="print the Riccati solution and closed-loop eigenvalues")
    p_are.add_argument("--config", help="JSON config file (default: the shipped defaults)")
    p_are.set_defaults(func=_cmd_are)

    args = parser.parse_args(argv)
    try:
        # a run checks its values itself: numpy's overflow warnings would
        # only add lines to its one error line
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (IrlobsError, OSError, MemoryError) as exc:  # OSError: creating or writing --out
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
