"""Tests of the benchmark's own machinery (tracing, metrics, checks)."""

import itertools
import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from layers import PER_LAYER, span_metrics  # noqa: E402
from workloads import WITHHELD, WORKLOADS, workload_config  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_self_time_is_duration_minus_covered_child_time():
    tracer = tracing.Tracer(targets=(), clock=itertools.count().__next__)
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: (leaf(), leaf()))
    top = tracer.wrap("top", lambda: (mid(), leaf()))
    top()
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    for index, (name, _, start, end) in enumerate(spans):
        children = [s for s in spans if s[1] == index]
        covered = sum(c_end - c_start for _, _, c_start, c_end in children)
        assert selfs[index] == pytest.approx((end - start) - covered)
    assert [s[0] for s in spans] == ["top", "mid", "leaf", "leaf", "leaf"]
    assert [s[1] for s in spans] == [tracing.ROOT, 0, 1, 1, 0]
    # ticks: top 0-9, mid 1-6, leaves 2-3, 4-5 and 7-8
    assert selfs == [3.0, 3.0, 1.0, 1.0, 1.0]


def test_overlapping_children_are_covered_once():
    spans = [("p", tracing.ROOT, 0.0, 10.0), ("a", 0, 1.0, 5.0), ("b", 0, 3.0, 7.0),
             ("c", 0, 9.0, 12.0)]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def _tiny_config():
    import irlobs
    from irlobs.experiment import ExperimentConfig, default_config_dict

    raw = default_config_dict()
    raw["gains"]["excitation_duration"] = 2.0
    raw["run"]["duration"] = 0.0
    return irlobs, ExperimentConfig(raw)


def _bindings():
    return {(path, attr): vars(tracing.resolve(path))[attr]
            for path, attr, _, _ in tracing.TARGETS}


def test_wrappers_are_restored_after_a_traced_run():
    irlobs, cfg = _tiny_config()
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(vars(tracing.resolve(p))[a] is not before[(p, a)] for p, a in before)
        irlobs.experiment.run_experiment(cfg)
    after = _bindings()
    assert all(after[key] is before[key] for key in before)
    names = {span[0] for span in tracer.spans}
    assert {"experiment.run_experiment", "numerics.solve_are",
            "experiment.prerecord_param_stack",
            "estimator.ParamHistoryStack.record"} <= names
    calibration = [i for i, s in enumerate(tracer.spans)
                   if s[0] == "experiment.prerecord_param_stack"]
    records = [s for s in tracer.spans if s[0] == "estimator.ParamHistoryStack.record"]
    assert records and all(s[1] in calibration for s in records)


def test_wrappers_are_restored_when_the_run_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("boom")
    assert _bindings() == before


def test_step_stamps_and_ratios_from_spans():
    spans = [("experiment.run_experiment", tracing.ROOT, 0.0, 1.0)]
    for k, start in enumerate([0.1, 0.1005, 0.1020, 0.1025]):
        spans.append(("numerics.rk4_step", 0, start, start + 1e-4))
        spans.append(("irl.data_select", 0, start + 2e-4, start + 3e-4))
    metrics = span_metrics(spans, {"irl.data_select": 3}, dt=1e-3)
    assert metrics["numerics.rk4_step.calls"] == 4
    assert metrics["numerics.rk4_step.us"] == pytest.approx(100.0)
    assert metrics["experiment.step_us.p50"] == pytest.approx(500.0)
    assert metrics["experiment.step_us.p99"] == pytest.approx(1500.0)
    assert metrics["experiment.step_over_dt_frac"] == pytest.approx(1 / 3)
    assert metrics["irl.data_select.accept_ratio"] == pytest.approx(0.75)
    assert metrics["irl.solve_weights.us"] == 0.0


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == run.END_TO_END
    assert declared_layer == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == [
        name for name in WORKLOADS if name not in WITHHELD
    ]
    for name, unit in {**run.END_TO_END, **PER_LAYER}.items():
        assert NAME.match(name), name
        assert UNIT.match(unit), unit


def test_workload_configs_are_seeded_and_valid():
    from irlobs.experiment import _merge, default_config_dict, ExperimentConfig

    for name in WORKLOADS:
        first = workload_config(name, 7, 1)
        assert first == workload_config(name, 7, 1)
        assert first["run"]["x0"] != workload_config(name, 8, 1)["run"]["x0"]
        cfg = ExperimentConfig(_merge(default_config_dict(), first))
        low, high = np.asarray(cfg.raw["run"]["query_low"]), np.asarray(cfg.raw["run"]["query_high"])
        assert np.all((low <= cfg.raw["run"]["x0"]) & (cfg.raw["run"]["x0"] <= high))


def test_correctness_check_rejects_inaccurate_and_non_finite_reports():
    good = SimpleNamespace(
        t=np.array([0.0, 1.0]), p_tilde=np.zeros((2, 2)), q_tilde=np.zeros((2, 2)),
        theta_tilde=np.array([[1.0, 0.0], [1e-5, 0.0]]),
        w_tilde=np.array([[1.0], [1e-4]]), w_true=np.array([1.0]), w_final=np.array([1.0]),
        purge_count=3,
    )
    good.norms = lambda name: np.linalg.norm(getattr(good, name), axis=1)
    assert worker.check_report(good, 1.0, checks_weights=True) == []
    good.purge_count = 0
    assert worker.check_report(good, 1.0, checks_weights=True) == ["no purge"]
    assert worker.check_report(good, 1.0, checks_weights=False) == []
    good.theta_tilde[-1, 0] = 2e-3
    assert len(worker.check_report(good, 1.0, checks_weights=False)) == 1
    good.w_final = np.array([np.nan])
    assert worker.check_report(good, 1.0, checks_weights=False)
