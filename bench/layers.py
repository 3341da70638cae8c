"""Per-layer metrics from the spans of a traced run.

For every traced function F: ``F.calls`` (calls in the run) and ``F.us``
(mean self time per call, in microseconds; 0 when F is never called on the
workload).  Ratios are measured where the work happens, and the runner's
one ``rk4_step`` call per grid step gives the per-step wall stamps.
"""

from __future__ import annotations

import statistics

from tracing import ROOT, TARGETS, self_times

# the layer functions, in TARGETS order; experiment.* spans get metrics of their own
TRACED = tuple(dict.fromkeys(
    name for _, _, name, _ in TARGETS if not name.startswith("experiment.")
))

RECORD = "estimator.ParamHistoryStack.record"
CALIBRATION = "experiment.prerecord_param_stack"
RUNNER = "experiment.run_experiment"

# name -> unit, in the order printed; every name is also in BENCHMARK.json
PER_LAYER = {}
for _name in TRACED:
    PER_LAYER[f"{_name}.calls"] = "count"
    PER_LAYER[f"{_name}.us"] = "us"
for _caller in ("calibration", "online"):
    PER_LAYER[f"{RECORD}.{_caller}.calls"] = "count"
    PER_LAYER[f"{RECORD}.{_caller}.us"] = "us"
PER_LAYER.update({
    f"{RECORD}.commit_ratio": "ratio",
    "irl.data_select.accept_ratio": "ratio",
    "purge.purge_policy.solve_ratio": "ratio",
    "purge.purges": "count",
    "irl.w_digits": "decades",
    f"{CALIBRATION}.s": "s",
    f"{RUNNER}.self_share": "ratio",
    "experiment.step_us.p50": "us",
    "experiment.step_us.p99": "us",
    "experiment.step_over_dt_frac": "ratio",
    "experiment.write_report.ms": "ms",
    "setup.import_s": "s",
    "setup.load_config_ms": "ms",
    "trace.overhead_frac": "ratio",
})


def percentile(values, q):
    """Nearest-rank percentile of ``values`` (0 < q <= 100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def span_metrics(spans, truthy, dt):
    """Layer metrics from the spans of one traced run."""
    selfs = self_times(spans)
    calls, self_s = {}, {}
    record_split = {"calibration": [0, 0.0], "online": [0, 0.0]}
    runner_total = runner_self = calibration_s = write_s = 0.0
    solves_in_policy = 0
    step_starts = []
    for index, (name, parent, start, end) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[index]
        parent_name = spans[parent][0] if parent != ROOT else None
        if name == RECORD:
            split = record_split["calibration" if parent_name == CALIBRATION else "online"]
            split[0] += 1
            split[1] += selfs[index]
        elif name == RUNNER:
            runner_total += end - start
            runner_self += selfs[index]
        elif name == CALIBRATION:
            calibration_s += end - start
        elif name == "experiment.write_report":
            write_s += end - start
        elif name == "irl.solve_weights" and parent_name == "purge.purge_policy":
            solves_in_policy += 1
        elif name == "numerics.rk4_step" and parent_name == RUNNER:
            step_starts.append(start)
    steps_us = [1e6 * (b - a) for a, b in zip(step_starts, step_starts[1:])]

    def per_call_us(count, total):
        return 1e6 * total / count if count else 0.0

    def ratio(hits, name):
        count = calls.get(name, 0)
        return hits / count if count else 0.0

    out = {}
    for name in TRACED:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.us"] = per_call_us(calls.get(name, 0), self_s.get(name, 0.0))
    for caller, (count, total) in record_split.items():
        out[f"{RECORD}.{caller}.calls"] = count
        out[f"{RECORD}.{caller}.us"] = per_call_us(count, total)
    out[f"{RECORD}.commit_ratio"] = ratio(truthy.get(RECORD, 0), RECORD)
    out["irl.data_select.accept_ratio"] = ratio(
        truthy.get("irl.data_select", 0), "irl.data_select"
    )
    out["purge.purge_policy.solve_ratio"] = ratio(solves_in_policy, "purge.purge_policy")
    out[f"{CALIBRATION}.s"] = calibration_s
    out[f"{RUNNER}.self_share"] = runner_self / runner_total if runner_total else 0.0
    out["experiment.step_us.p50"] = statistics.median(steps_us) if steps_us else 0.0
    out["experiment.step_us.p99"] = percentile(steps_us, 99) if steps_us else 0.0
    out["experiment.step_over_dt_frac"] = (
        sum(1 for s in steps_us if s > 1e6 * dt) / len(steps_us) if steps_us else 0.0
    )
    out["experiment.write_report.ms"] = 1e3 * write_s
    return out
