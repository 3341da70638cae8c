"""Configuration, runner and reporting tests."""

import functools
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from irlobs import experiment, numerics, purge
from irlobs.errors import ConfigError, IrlobsError, NumericOverflowError
from irlobs.estimator import ParamHistoryStack, theta_dim
from irlobs.experiment import (
    ExperimentConfig,
    default_config,
    default_config_dict,
    load_config,
    run_experiment,
    write_report,
)
from irlobs.irl import Entry
from irlobs.plant import make_demonstrator, optimal_action, query

from conftest import eager_purge_policy, swap_kernel, whole_array_rows

SRC_DIR = Path(__file__).resolve().parent.parent / "src" / "irlobs"

NAN = float("nan")
NON_SYMMETRIC = [[1.0, 0.5, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
# (section, field, invalid value, the field the ConfigError must name)
INVALID_ENTRIES = [
    ("cost", "w_q", [-1.0, 2.0, 3.0, 6.0], "cost.w_q"),
    ("plant", "b", [[0.0, 0.0], [0.0, 0.0]], "plant"),
    ("purge", "s1", NON_SYMMETRIC, "purge.s1"),
    ("irl", "v_monomials", [[0, 0], [0, 0]], "irl.v_monomials"),
    ("irl", "capacity", "a", "irl.capacity"),
    ("gains", "alpha", NAN, "gains.alpha"),
    ("irl", "xi1", NAN, "irl.xi1"),
    ("purge", "kappa1_bar", NAN, "purge.kappa1_bar"),
    ("run", "duration", NAN, "run.duration"),
    # 5e-10 s off two rollout steps: within 1e-9 s, but not within 1e-9 * horizon
    ("purge", "horizon", 0.0400000005, "purge.horizon"),
]
# windows and durations off their grids (run.dt 1e-3, gains.excitation_dt
# 2e-4), and rollout half steps off the samples
OFF_GRID_ENTRIES = [
    ("gains", "t1", 1.0005, "gains.t1"),
    ("gains", "t2", 0.8002, "gains.t2"),  # 4,001 calibration steps, 800.2 run steps
    ("purge", "rollout_stride", 25, "purge.rollout_stride"),
    ("run", "duration", 2.0004, "run.duration"),
    ("gains", "excitation_duration", 6.00013, "gains.excitation_duration"),
]
INVALID_ENTRIES += OFF_GRID_ENTRIES


def short_config(duration=4.0, mode="query", seed=0, **run_overrides):
    raw = default_config_dict()
    raw["run"]["duration"] = duration
    raw["run"]["mode"] = mode
    raw["run"]["seed"] = seed
    raw["run"].update(run_overrides)
    return ExperimentConfig(raw)


def measured_run(cfg):
    """A fresh OnlineIrl as run_experiment builds it, and the (t, p, u,
    queries) of every step that run_experiment measures: the closed loop
    simulated in one piece (whole_array_rows), and one oracle draw per
    step."""
    n, dt = cfg.n, cfg.dt
    demo = make_demonstrator(cfg.plant(), cfg.cost())
    stack = ParamHistoryStack(cfg.param_capacity, theta_dim(n, cfg.m), cfg.min_eig_threshold)
    experiment.prerecord_param_stack(demo, cfg, stack)
    online = experiment.OnlineIrl(cfg, stack, cfg.x0[:n], optimal_action(demo, cfg.x0), cfg.w0)
    states, inputs = whole_array_rows(demo, cfg.x0, dt, cfg.steps)
    rng, steps = np.random.default_rng(cfg.seed), []
    for k in range(1, cfg.steps + 1):
        queries = ()
        if cfg.mode == "query":
            x_star = rng.uniform(cfg.query_low, cfg.query_high)
            queries = ((x_star, query(demo, x_star)),)
        steps.append((k * dt, states[k, :n], inputs[k], queries))
    return online, steps


@pytest.fixture(scope="module")
def short_report():
    return run_experiment(short_config())


class TestLoadConfig:
    def test_defaults_are_default_system(self):
        cfg = default_config()
        np.testing.assert_array_equal(
            np.asarray(cfg.raw["plant"]["a"]), [[1.0, 1, -1, 1], [5, 1, 1, 1]]
        )
        np.testing.assert_array_equal(np.asarray(cfg.raw["cost"]["w_q"]), [1.0, 2, 3, 6])
        np.testing.assert_array_equal(np.asarray(cfg.raw["cost"]["r_diag"]), [20.0, 10.0])
        g = cfg.raw["gains"]
        assert (g["k"], g["alpha"], g["beta"], g["beta1"]) == (100.0, 20.0, 10.0, 5.0)
        assert (g["capacity"], g["t1"], g["t2"]) == (150, 1.0, 0.8)
        assert cfg.gains().k_theta == 0.3 / 150

    def test_partial_file_takes_defaults(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"run": {"duration": 4.0}}))
        cfg = load_config(path)
        assert cfg.raw["run"]["duration"] == 4.0
        assert cfg.raw["run"]["x0"] == [2.0, -2.0, 1.0, -1.0]
        assert cfg.raw["gains"]["k"] == 100.0

    def test_zero_gain_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"gains": {"alpha": 0.0}}))
        with pytest.raises(ConfigError, match="gains.alpha"):
            load_config(path)

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"run": {"x0": [1.0, 2.0]}}))
        with pytest.raises(ConfigError, match="run.x0"):
            load_config(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"run": {"duraton": 3.0}}))
        with pytest.raises(ConfigError, match="duraton"):
            load_config(path)

    def test_hand_built_config_names_a_missing_field_or_section(self):
        # ExperimentConfig takes a raw dict without read_config's merge over
        # the defaults: each missing leaf, each extra leaf, each section
        # given as a list and a root that is not an object are ConfigErrors
        # naming them
        for section, fields in default_config_dict().items():
            for name in fields:
                raw = default_config_dict()
                del raw[section][name]
                with pytest.raises(ConfigError, match=re.escape(f"'{section}.{name}'")):
                    ExperimentConfig(raw)
            raw = default_config_dict()
            raw[section]["extra"] = 3.0
            with pytest.raises(ConfigError, match=f"unknown config field '{section}.extra'"):
                ExperimentConfig(raw)
            raw = default_config_dict()
            raw[section] = [1]
            with pytest.raises(ConfigError, match=re.escape(f"section '{section}'")):
                ExperimentConfig(raw)
        raw = default_config_dict()
        raw["extra"] = {}
        with pytest.raises(ConfigError, match="unknown config field 'extra'"):
            ExperimentConfig(raw)
        with pytest.raises(ConfigError, match="root"):
            ExperimentConfig([1])

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_mode_rejected(self):
        raw = default_config_dict()
        raw["run"]["mode"] = "telepathy"
        with pytest.raises(ConfigError, match="run.mode"):
            ExperimentConfig(raw)

    def test_short_nonzero_duration_rejected(self):
        raw = default_config_dict()
        raw["run"]["duration"] = 1.0  # below t1 + t2
        with pytest.raises(ConfigError, match="duration"):
            ExperimentConfig(raw)

    def test_negative_seed_rejected(self):
        raw = default_config_dict()
        raw["run"]["seed"] = -1
        with pytest.raises(ConfigError, match="run.seed"):
            ExperimentConfig(raw)

    def test_wrong_w0_length_rejected(self):
        raw = default_config_dict()
        raw["run"]["w0"] = [0.0] * 7
        with pytest.raises(ConfigError, match="run.w0"):
            ExperimentConfig(raw)

    @pytest.mark.parametrize("section, name, value, path", INVALID_ENTRIES)
    def test_invalid_entry_raises_config_error(self, tmp_path, section, name, value, path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({section: {name: value}}))
        with pytest.raises(ConfigError, match=re.escape(f"'{path}'")):
            load_config(cfg_path)

    def test_custom_w0_round_trips(self):
        raw = default_config_dict()
        raw["run"]["duration"] = 0.0
        raw["run"]["w0"] = list(range(15))
        report = run_experiment(ExperimentConfig(raw))
        np.testing.assert_array_equal(report.w_final, np.arange(15.0))


class TestRunExperiment:
    def test_zero_duration_run(self):
        raw = default_config_dict()
        raw["run"]["duration"] = 0.0
        report = run_experiment(ExperimentConfig(raw))
        assert report.t.size == 0
        assert report.purge_count == 0
        assert report.queries == 0
        np.testing.assert_array_equal(report.w_final, np.zeros(15))

    def test_series_lengths_match(self, short_report):
        rep = short_report
        assert rep.t.shape[0] == rep.p_tilde.shape[0] == rep.q_tilde.shape[0]
        assert rep.t.shape[0] == rep.theta_tilde.shape[0] == rep.w_tilde.shape[0]
        for name in ("p_tilde", "q_tilde", "theta_tilde", "w_tilde"):
            assert np.all(np.isfinite(getattr(rep, name)))

    def test_query_count_equals_steps(self, short_report):
        steps = int(round(4.0 / 1e-3))
        assert short_report.queries == steps

    def test_observed_mode_makes_no_queries(self):
        report = run_experiment(short_config(mode="observed"))
        assert report.queries == 0

    def test_determinism_same_seed(self, tmp_path, short_report):
        rep2 = run_experiment(short_config())
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        write_report(short_report, out1)
        write_report(rep2, out2)
        for name in ("ptilde.csv", "qtilde.csv", "thetatilde.csv", "wtilde.csv",
                     "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_different_seed_changes_queries(self, short_report):
        other = run_experiment(short_config(seed=1))
        assert not np.array_equal(short_report.w_tilde[-1], other.w_tilde[-1])

    def test_estimator_converges_in_short_run(self, short_report):
        theta_norm = short_report.norms("theta_tilde")
        assert theta_norm[-1] < 0.05 * theta_norm[0]

    def test_gamma_bounds_positive(self, short_report):
        assert short_report.gamma_eig_min > 0.0
        assert np.isfinite(short_report.gamma_eig_max)

    def test_gamma_bounds_do_not_depend_on_the_report_stride(self):
        # the gain spectra are solved in fixed-size batches, whatever the
        # report stride; 1,900 steps leave a partial last batch.  They also
        # end between two report steps at stride 7, and the last step is
        # logged too, so the last row is the final estimate
        bounds = []
        for stride in (1, 7):
            report = run_experiment(short_config(1.9, mode="observed", report_stride=stride))
            bounds.append((report.gamma_eig_min, report.gamma_eig_max))
            assert report.t.size == -(-1900 // stride) + 1
            assert report.t[-1] == 1900 * 1e-3
            assert report.w_tilde[-1].tobytes() == (report.w_final - report.w_true).tobytes()
        assert bounds[0] == bounds[1]

    @pytest.mark.parametrize("mode", ["observed", "query"])
    def test_eta_computed_once_per_step_from_the_floor(self, monkeypatch, mode):
        # drain takes eta's inputs once per step from the first step with
        # the full horizon and smoothing window on, whether or not a
        # decision reads it, and each is scored exactly once: in blocks of
        # one when stepped, in the run's blocks of _PIPE_BATCH steps when
        # run; eta1 and eta2 share one smoothed velocity
        taken, blocks, smoothings = [], [], []
        inputs_of, score = experiment.eta2_inputs, experiment.quality_eta2_block

        def counting_inputs(p_log, u_log, k, quality, v0):
            taken.extend(range(k, k + len(v0)))
            return inputs_of(p_log, u_log, k, quality, v0)

        def counting_blocks(a_prime, b_prime, inputs, quality, dt):
            blocks.append(len(a_prime))
            return score(a_prime, b_prime, inputs, quality, dt)

        def counting_smoothing(module):
            smooth = module.smooth_velocity

            def wrapped(p_log, center, half_width, count=None):
                smoothings.extend(range(center, center + (count or 1)))
                return smooth(p_log, center, half_width, count)

            monkeypatch.setattr(module, "smooth_velocity", wrapped)

        monkeypatch.setattr(experiment, "eta2_inputs", counting_inputs)
        monkeypatch.setattr(experiment, "quality_eta2_block", counting_blocks)
        counting_smoothing(experiment)
        counting_smoothing(purge)
        cfg = short_config(duration=2.0, mode=mode)
        online, steps = measured_run(cfg)
        for t, p, u, queries in steps:
            online.step(t, p, u, queries)
        floor = cfg.quality().horizon + cfg.quality().half_width
        assert online.eta_floor_step == floor
        scored = [k for k in range(1, len(steps) + 1) if k >= online.eta_floor_step]
        assert taken == scored and blocks == [1] * len(scored)
        assert smoothings == [k - cfg.quality().horizon for k in scored]
        times = {steps[k - 1][0] for k in scored}
        stored = {t for t, *_ in online.trace.stores if t >= steps[floor - 1][0]}
        assert stored and stored <= times

        # in process, so that the counts see the measuring half
        monkeypatch.delattr(os, "fork")
        taken.clear()
        blocks.clear()
        run_experiment(cfg)
        batch = experiment._PIPE_BATCH
        runs = [[k for k in scored if first <= k < first + batch]
                for first in range(1, len(steps) + 1, batch)]
        assert taken == scored and blocks == [len(run) for run in runs if run]

    def test_deferred_weight_solve_matches_eager_reference(self, monkeypatch):
        # the estimate is solved when read, yet every weight update, store,
        # purge and report value is that of solving at the gate
        solves = []
        original = purge.solve_weights

        def counting(sigma_matrix, rhs_vector):
            solves.append(sigma_matrix)
            return original(sigma_matrix, rhs_vector)

        monkeypatch.setattr(purge, "solve_weights", counting)
        cfg = short_config(duration=2.0)
        deferred = run_experiment(cfg)
        monkeypatch.setattr(experiment, "purge_policy", eager_purge_policy)
        eager = run_experiment(cfg)
        assert len(eager.trace.weight_updates) > 100
        assert deferred.trace.weight_updates == eager.trace.weight_updates
        assert deferred.trace.stores == eager.trace.stores
        assert deferred.trace.purges == eager.trace.purges
        for name in ("w_tilde", "w_final", "theta_tilde", "p_tilde", "q_tilde"):
            np.testing.assert_array_equal(getattr(deferred, name), getattr(eager, name))
        assert deferred.final_residual == eager.final_residual
        # one solve per report row at most, far fewer than the updates
        assert 0 < len(solves) <= deferred.t.size

    @pytest.mark.parametrize("mode", ["observed", "query"])
    def test_online_irl_replays_the_run_bit_for_bit(self, mode):
        # a fresh in-process OnlineIrl fed the measurements and queries that
        # the pipelined run measures, from the closed loop simulated in one
        # piece, makes the same estimates and decisions, also after it
        # rejected a non-finite input at t = 0.002, which leaves the logs and
        # the step queue as they were
        cfg = short_config(duration=2.0, mode=mode)
        report = run_experiment(cfg)
        online, steps = measured_run(cfg)
        stride = cfg.report_stride
        theta_true = cfg.plant().theta
        rows_theta = [theta_true - online.theta]
        rows_w = [online.weights - report.w_true]

        def measured_state():
            return pickle.dumps((online.steps, online.p_log, online.u_log, online._queue))

        for k, (t, p, u, queries) in enumerate(steps, 1):
            if k == 2:
                before = measured_state()
                with pytest.raises(NumericOverflowError, match="non-finite"):
                    online.step(t, p, np.full_like(u, np.nan), queries)
                assert measured_state() == before
            online.step(t, p, u, queries)
            if k % stride == 0:
                rows_theta.append(theta_true - online.theta)
                rows_w.append(online.weights - report.w_true)
        assert len(steps) == 2000 and sum(len(q) for _, _, _, q in steps) == report.queries
        assert np.asarray(rows_theta).tobytes() == report.theta_tilde.tobytes()
        assert np.asarray(rows_w).tobytes() == report.w_tilde.tobytes()
        assert online.trace == report.trace
        assert len(report.trace.stores) > 0

    def test_in_process_run_equals_the_pipelined_run(self, monkeypatch):
        # without os.fork, measure and offer run in one process, with the
        # same bits, in both modes (observed mode sends one-candidate
        # blocks); a pipelined run leaves no child process behind
        for mode in ("observed", "query"):
            cfg = short_config(duration=2.0, mode=mode)
            pipelined = run_experiment(cfg)
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            with monkeypatch.context() as mp:
                mp.delattr(os, "fork")
                serial = run_experiment(cfg)
            assert serial.trace == pipelined.trace and len(serial.trace.stores) > 0
            # observed mode's default run never passes the weight-update gate
            assert (mode == "observed") == (len(serial.trace.weight_updates) == 0)
            for name in ("t", "p_tilde", "q_tilde", "theta_tilde", "w_tilde", "w_final"):
                same = getattr(serial, name).tobytes() == getattr(pipelined, name).tobytes()
                assert same, (mode, name)
            for name in ("queries", "purge_count", "gamma_eig_min", "gamma_eig_max",
                         "final_kappa", "final_gram_kappa", "final_residual"):
                assert getattr(serial, name) == getattr(pipelined, name), (mode, name)

    @pytest.mark.parametrize("mode", ["observed", "query"])
    def test_the_run_steps_its_closed_loop_without_rk4_step(self, tmp_path, monkeypatch, mode):
        # closed_loop_source is the one integrator on the run path: with
        # experiment.rk4_step refusing every call, the run writes the same
        # summary.json
        cfg = short_config(duration=2.0, mode=mode)
        write_report(run_experiment(cfg), tmp_path / "plain")

        def refused(*args):
            raise AssertionError("the run called rk4_step")

        monkeypatch.setattr(experiment, "rk4_step", refused)
        write_report(run_experiment(cfg), tmp_path / "stubbed")
        summaries = [(tmp_path / out / "summary.json").read_bytes() for out in ("plain", "stubbed")]
        assert summaries[0] == summaries[1]

    def test_step_off_the_time_grid_is_an_irlobs_error(self, monkeypatch):
        # a measurement stream that restarts, repeats or skips a grid time
        # must end in an error the CLI reports, not a traceback
        inputs = []
        fresh = experiment.OnlineIrl

        class Recording(fresh):
            def __init__(self, *args):
                inputs.extend(args)
                super().__init__(*args)

        monkeypatch.setattr(experiment, "OnlineIrl", Recording)
        run_experiment(short_config(duration=0.0))
        online = fresh(*inputs)
        p, u = inputs[2], inputs[3]
        online.step(0.001, p, u)
        for t in (0.001, 0.003, 0.0):
            with pytest.raises(IrlobsError, match="off-grid"):
                online.step(t, p, u)
        online.step(0.002, p, u)

    def test_online_irl_takes_a_copy_of_a_finite_w0_of_the_weight_width(self):
        cfg = short_config(duration=0.0)
        online, _ = measured_run(cfg)
        assert online.weights is not cfg.w0
        np.testing.assert_array_equal(online.weights, cfg.w0, strict=True)
        make = functools.partial(experiment.OnlineIrl, cfg, online.param_stack,
                                 cfg.x0[:cfg.n], np.zeros(cfg.m))
        for w0 in (np.full(15, np.inf), np.zeros(14), np.zeros((15, 1))):
            with pytest.raises(ValueError, match="w0"):
                make(w0)

    def test_queue_holds_at_most_a_pipe_batch_of_like_steps(self):
        # measure queues at most _PIPE_BATCH steps, each with the same
        # number of well-formed oracle pairs; a step refused for either
        # leaves the logs and the queue as they were
        cfg = short_config(duration=2.0, mode="query")
        online, steps = measured_run(cfg)
        batch = experiment._PIPE_BATCH

        def measured_state():
            return pickle.dumps((online.steps, online.p_log, online.u_log, online._queue))

        for t, p, u, queries in steps[:batch]:
            online.measure([t], [p], [u], [queries])
        t, p, u, queries = steps[batch]
        before = measured_state()
        with pytest.raises(ValueError, match="drain"):
            online.measure([t], [p], [u], [queries])
        assert measured_state() == before
        times, etas, rows, rhs = online.drain()
        assert times == [step[0] for step in steps[:batch]] and rows.shape[:2] == (batch, 2)
        assert online.drain() == ([], [], [], [])
        online.measure([t], [p], [u], [queries])
        t, p, u, queries = steps[batch + 1]
        (x_star, u_star), = queries
        before = measured_state()
        for bad in ((), queries * 2, ((x_star[:2], u_star),)):
            with pytest.raises(ValueError, match="pair"):
                online.measure([t], [p], [u], [bad])
            assert measured_state() == before
        online.measure([t], [p], [u], [queries])
        assert len(online.drain()[0]) == 2

    def test_a_non_finite_oracle_pair_is_refused_at_measure(self):
        # like a non-finite measurement, a non-finite oracle answer or query
        # state is a NumericOverflowError that changes nothing, not a
        # ValueError raised later from offer
        cfg = short_config(duration=2.0, mode="query")
        online, steps = measured_run(cfg)

        def state():
            return pickle.dumps((online.steps, online.p_log, online.u_log, online._queue))

        for t, p, u, queries in steps[:10]:
            online.measure([t], [p], [u], [queries])
        t, p, u, ((x_star, u_star),) = steps[10]
        before = state()
        for bad in (np.nan, np.inf, -np.inf):
            for pair in ((np.where(np.arange(4) == 2, bad, x_star), u_star),
                         (x_star, np.where(np.arange(2) == 1, bad, u_star))):
                with pytest.raises(NumericOverflowError, match="oracle pair"):
                    online.measure([t], [p], [u], [(pair,)])
                assert state() == before
        online.measure([t], [p], [u], [((x_star, u_star),)])
        for entries in Entry.block(*online.drain()):
            online.offer(entries)
        assert online.steps == 11

    def test_stack_source_is_no_longer_a_config_field(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"gains": {"stack_source": "prerecorded"}}))
        with pytest.raises(ConfigError, match="gains.stack_source"):
            load_config(path)


class TestCompiledSearch:
    """Both history stacks search in compiled code (irlobs.gramkernel) where
    it loads; numerics._kernel = False holds them to numpy's exhaustive
    reference."""

    def test_the_calibrated_stack_is_byte_identical(self, monkeypatch):
        swap_kernel()
        cfg = short_config()
        demo = make_demonstrator(cfg.plant(), cfg.cost())

        def calibrated():
            stack = ParamHistoryStack(cfg.param_capacity, theta_dim(cfg.n, cfg.m),
                                      cfg.min_eig_threshold)
            return experiment.prerecord_param_stack(demo, cfg, stack)

        compiled = calibrated()
        monkeypatch.setattr(numerics, "_kernel", False)
        plain = calibrated()
        assert compiled._search and plain._search is False
        assert compiled.size == plain.size == cfg.param_capacity
        for name in ("gram", "blocks", "_projections", "rhs_projection", "spectrum"):
            assert getattr(compiled, name).tobytes() == getattr(plain, name).tobytes(), name

    @pytest.mark.parametrize("mode", ["observed", "query"])
    def test_a_run_is_byte_identical(self, mode, tmp_path, monkeypatch):
        # in one process and pipelined, the same RunTrace and summary.json
        swap_kernel()
        cfg = short_config(duration=2.0, mode=mode)

        def runs():
            pipelined = run_experiment(cfg)
            with monkeypatch.context() as mp:
                mp.delattr(os, "fork")
                return pipelined, run_experiment(cfg)

        reports = runs()
        monkeypatch.setattr(numerics, "_kernel", False)
        reports += runs()
        assert len(reports[0].trace.stores) > 0
        for i, report in enumerate(reports):
            write_report(report, tmp_path / str(i))
            assert report.trace == reports[0].trace
            summary = (tmp_path / str(i) / "summary.json").read_bytes()
            assert summary == (tmp_path / "0" / "summary.json").read_bytes()


class TestWriteReport:
    def test_empty_report_headers_only(self, tmp_path):
        raw = default_config_dict()
        raw["run"]["duration"] = 0.0
        report = run_experiment(ExperimentConfig(raw))
        paths = write_report(report, tmp_path)
        for path in paths:
            assert path.exists()
        lines = (tmp_path / "ptilde.csv").read_text().splitlines()
        assert lines == ["t,ptilde_1,ptilde_2,norm"]

    def test_csv_formatting(self, tmp_path, short_report):
        write_report(short_report, tmp_path)
        data = (tmp_path / "qtilde.csv").read_bytes()
        assert b"\r\n" in data  # RFC 4180 line endings
        first_rows = data.decode().splitlines()
        assert first_rows[0] == "t,qtilde_1,qtilde_2,norm"
        t_field = first_rows[1].split(",")[0]
        assert len(t_field.split(".")[1]) == 6  # six decimal places

    def test_norm_column_consistent(self, tmp_path, short_report):
        write_report(short_report, tmp_path)
        rows = (tmp_path / "thetatilde.csv").read_text().splitlines()[1:]
        for row in rows[:20]:
            vals = [float(v) for v in row.split(",")[1:]]
            comps, norm = vals[:-1], vals[-1]
            assert abs(np.linalg.norm(comps) - norm) < 1e-12

    def test_summary_round_trips_through_load(self, tmp_path, short_report):
        write_report(short_report, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        echo_path = tmp_path / "echo.json"
        echo_path.write_text(json.dumps(summary["config"]))
        cfg = load_config(echo_path)
        assert cfg.raw == short_report.config

    def test_error_norms_decay_from_peak(self, tmp_path, short_report):
        # coarse-block envelope: transient wiggle inside a block is fine,
        # the block maxima must come down and the run must end far below
        # the peak
        rep = short_report
        for name in ("p_tilde", "q_tilde", "theta_tilde", "w_tilde"):
            norms = rep.norms(name)
            peak = int(np.argmax(norms))
            blocks = np.array_split(norms[peak:], 3)
            maxima = [b.max() for b in blocks if b.size]
            assert all(m2 <= m1 * 1.05 for m1, m2 in zip(maxima, maxima[1:])), name
            assert norms[-1] <= 0.05 * norms.max() + 1e-12, name


class TestCli:
    def test_default_config_dict_is_fresh_on_every_call(self):
        first = default_config_dict()
        first["run"]["x0"][0] = 99.0
        first["gains"]["k"] = -1.0
        del first["irl"]
        second = default_config_dict()
        assert second["run"]["x0"][0] == 2.0 and second["gains"]["k"] == 100.0
        assert "irl" in second and second == default_config_dict()

    def test_run_and_are_without_a_config(self, tmp_path, capsys, monkeypatch):
        from irlobs.cli import main

        # the shipped defaults, shortened to a 2 s run
        raw = default_config_dict()
        raw["run"]["duration"] = 2.0
        shortened = tmp_path / "defaults.json"
        shortened.write_text(json.dumps(raw))
        monkeypatch.setattr(experiment, "DEFAULTS_PATH", shortened)
        out_dir = tmp_path / "out"
        assert main(["run", "--out", str(out_dir)]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["config"] == raw and summary["queries"] == 2000
        assert main(["are"]) == 0
        assert "closed-loop eigenvalues" in capsys.readouterr().out

    def test_run_and_are_commands(self, tmp_path, capsys):
        from irlobs.cli import main

        cfg_path = tmp_path / "cfg.json"
        raw = default_config_dict()
        raw["run"]["duration"] = 2.0
        cfg_path.write_text(json.dumps(raw))
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        assert (out_dir / "summary.json").exists()
        assert (out_dir / "wtilde.csv").exists()
        downsampled_rows = len((out_dir / "wtilde.csv").read_text().splitlines())
        full_dir = tmp_path / "full"
        assert main([
            "run", "--config", str(cfg_path), "--out", str(full_dir), "--full-rate",
        ]) == 0
        full_rows = len((full_dir / "wtilde.csv").read_text().splitlines())
        assert full_rows > 9 * downsampled_rows
        assert main(["are", "--config", str(cfg_path)]) == 0
        assert "closed-loop eigenvalues" in capsys.readouterr().out

    def test_huge_report_stride_reports_the_first_and_last_step(self, tmp_path):
        # the gain spectra batch does not grow with the stride, so this
        # allocates no stride-sized buffer
        from irlobs.cli import main

        cfg_path = tmp_path / "stride.json"
        cfg_path.write_text(json.dumps({"run": {"duration": 2.0, "report_stride": 10**12}}))
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        rows = (out_dir / "thetatilde.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0.000000", "2.000000"]

    def test_missing_config_fails_cleanly(self, tmp_path, capsys):
        from irlobs.cli import main

        code = main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_configs_exit_1_without_traceback(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC_DIR.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
        ))
        out = tmp_path / "out"
        cases = []  # (config file, --out, text the error line must contain)
        for i, (section, name, value, path) in enumerate(INVALID_ENTRIES[:5] + OFF_GRID_ENTRIES):
            cfg_path = tmp_path / f"bad{i}.json"
            bad = {"run": {"duration": 0}}
            bad.setdefault(section, {})[name] = value
            cfg_path.write_text(json.dumps(bad))
            cases.append((cfg_path, out, f"'{path}'"))
        horizon, latin1, empty = (tmp_path / f"{k}.json" for k in ("horizon", "latin1", "empty"))
        horizon.write_text(
            json.dumps({"purge": {"horizon": 0.0400000005}, "run": {"duration": 2.0}})
        )
        latin1.write_bytes('{"run": {"mode": "obs\xe9rved"}}'.encode("latin-1"))
        empty.write_text(json.dumps({"run": {"duration": 0}}))
        cases += [
            (horizon, out, "'purge.horizon'"),
            (latin1, out, "codec can't decode"),
            (empty, latin1, "File exists"),  # --out names an existing file
        ]
        # a stack too large to allocate: above the 128 TiB user address
        # space, so the allocation fails at once and commits no memory
        for section in ("gains", "irl"):
            cfg_path = tmp_path / f"huge_{section}.json"
            cfg_path.write_text(json.dumps({section: {"capacity": 10**15}}))
            cases.append((cfg_path, out, "allocate"))
        for cfg_path, out_dir, needle in cases:
            done = subprocess.run(
                [sys.executable, "-m", "irlobs.cli", "run", "--config", str(cfg_path),
                 "--out", str(out_dir)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert done.returncode == 1, done.stderr
            assert done.stderr.startswith("error: ") and needle in done.stderr, done.stderr
            assert len(done.stderr.splitlines()) == 1, done.stderr
            assert "Traceback" not in done.stderr
            assert not out.exists()  # no run leaves its output directory behind

    def test_mode_and_seed_overrides(self, tmp_path, monkeypatch):
        # the three flags write the same files as a config file that sets
        # run.mode, run.seed and run.report_stride = 1, and each command
        # validates its config once
        from irlobs.cli import main

        built = []
        init = ExperimentConfig.__init__

        def counting(self, raw):
            built.append(raw)
            init(self, raw)

        monkeypatch.setattr(ExperimentConfig, "__init__", counting)
        cfg_path, set_path = tmp_path / "cfg.json", tmp_path / "set.json"
        raw = default_config_dict()
        raw["run"]["duration"] = 2.0
        cfg_path.write_text(json.dumps(raw))
        raw["run"].update(mode="observed", seed=7, report_stride=1)
        set_path.write_text(json.dumps(raw))
        flags_dir, file_dir = tmp_path / "flags", tmp_path / "file"
        assert main([
            "run", "--config", str(cfg_path), "--out", str(flags_dir),
            "--mode", "observed", "--seed", "7", "--full-rate",
        ]) == 0
        assert len(built) == 1
        assert main(["run", "--config", str(set_path), "--out", str(file_dir)]) == 0
        assert main(["are", "--config", str(set_path)]) == 0
        assert len(built) == 3
        summary = json.loads((flags_dir / "summary.json").read_text())
        assert summary["mode"] == "observed"
        assert summary["seed"] == 7
        assert summary["queries"] == 0
        for name in ("ptilde.csv", "qtilde.csv", "thetatilde.csv", "wtilde.csv",
                     "summary.json"):
            assert (flags_dir / name).read_bytes() == (file_dir / name).read_bytes(), name
        assert len((flags_dir / "wtilde.csv").read_text().splitlines()) == 2002


class TestOutputFeedbackDiscipline:
    def test_estimation_modules_never_import_plant(self):
        # the estimator/recovery path must stay measurement-only; the plant
        # (truth) may only be touched by the experiment wiring and tests
        for module in ("numerics.py", "estimator.py", "irl.py", "purge.py"):
            source = (SRC_DIR / module).read_text()
            assert "from .plant" not in source, module
            assert "import plant" not in source, module

    def test_observer_interface_accepts_only_outputs(self):
        from inspect import signature

        from irlobs.estimator import AdaptiveObserver

        params = signature(AdaptiveObserver.step).parameters
        assert list(params) == ["self", "p_meas", "u", "dt"]
