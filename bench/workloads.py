"""Workload definitions for the irlobs benchmark.

Each workload is a partial experiment config (merged over the shipped
defaults by ``irlobs.load_config``) plus a seed.  One benchmark run makes
``runs`` sub-runs of the workload; sub-run i uses the sub-seed
``seed * MAX_RUNS + i``, which sets ``run.seed`` (the query-oracle draws)
and draws the initial state ``run.x0`` uniformly from the query box.  The
cost of a run depends on its data (purges leave the stack cheap to fill
for a while, stores rebuild the Gram), so a run spreads its time over
several initial states instead of one.  This module imports nothing from
the repository and no numpy, so the parent process of a run stays light.
"""

from __future__ import annotations

import random

# Simulated seconds per run.  The acceptance bounds checked on every run
# (|theta~|/|theta| < 1e-3, |W~|/|W| < 1e-2) are first met at about 3.9 s
# on the slowest seeds probed, so 5 s leaves two orders of magnitude.
DURATION_S = 5.0

DEFAULT_BOX = [-2.0, 2.0]
MAX_RUNS = 16

# 3-position, 2-input plant of the problem-size workload: theta has
# dimension 2*3*3 + 2*3 = 24 and the IRL regression is 21 + 6 + 1 = 28 wide.
PLANT_N3 = {
    "a": [
        [1.0, 0.5, 0.0, 1.0, 0.0, -0.5],
        [0.0, 1.0, 1.0, 0.5, -1.0, 0.0],
        [2.0, 0.0, -1.0, 0.0, 0.5, 1.0],
    ],
    "b": [[1.0, 0.0], [0.5, 1.0], [0.0, 2.0]],
}

WORKLOADS = {
    "query": {
        "why": "the paper's headline run (n=2, m=2) in query mode: two data_select "
               "offers per step, weight solves and purges all the time, Python "
               "overhead dominates the small kernels",
        "state_dim": 4,
        "config": {"run": {"mode": "query"}},
        "runs": 3,
    },
    "observed": {
        "why": "the same plant in observed mode: one offer per step to a full IRL "
               "stack, no oracle and, for most initial states, no weight solve or "
               "purge, so the estimator and quality indicators dominate",
        "state_dim": 4,
        "config": {"run": {"mode": "observed"}},
        "runs": 4,
    },
    "query_n3": {
        "why": "problem-size axis: 3-position plant in query mode, theta of "
               "dimension 24 and IRL width 28, so the batched eigvalsh kernels "
               "take most of the time",
        "state_dim": 6,
        "config": {
            "plant": PLANT_N3,
            "cost": {"w_q": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], "r_diag": [20.0, 10.0]},
            "run": {
                "mode": "query",
                "query_low": [DEFAULT_BOX[0]] * 6,
                "query_high": [DEFAULT_BOX[1]] * 6,
            },
        },
        "runs": 2,
    },
}


# Workloads defined here but left out of BENCHMARK.json, with the reason.
# They still run with ``--workload``.
WITHHELD = {
    "query_n3": "about one sub-run in five never recovers the cost weights: the IRL "
                "stack fills while theta^ is near 0 and no swap or purge can bring "
                "its condition number back from inf (see bench/README.md)",
}


def workload_config(name, seed, index=0):
    """The partial config of sub-run ``index`` of workload ``name`` under
    ``seed``, as a dict."""
    spec = WORKLOADS[name]
    sub_seed = (int(seed) * MAX_RUNS + index) % 2**32
    dim = spec["state_dim"]
    run = dict(spec["config"].get("run", {}))
    low = run.get("query_low", [DEFAULT_BOX[0]] * dim)
    high = run.get("query_high", [DEFAULT_BOX[1]] * dim)
    rng = random.Random(sub_seed)
    run["x0"] = [rng.uniform(lo, hi) for lo, hi in zip(low, high)]
    run["seed"] = sub_seed
    run["duration"] = DURATION_S
    config = {key: dict(val) for key, val in spec["config"].items() if key != "run"}
    config["run"] = run
    return config
