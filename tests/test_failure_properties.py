"""Property tests of the run's failure paths.

A non-finite value in a measurement must end the run with
NumericOverflowError, and a grid step on which RK4 is unstable for the
closed loop must be rejected with ConfigError before any step runs.  The
CLI must turn either into exit code 1 and one ``error:`` line, never a
traceback or a report of NaNs.
"""

import json
import math
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irlobs import errors, experiment
from irlobs.cli import main
from irlobs.errors import ConfigError, NumericOverflowError
from irlobs.experiment import ExperimentConfig, default_config_dict, run_experiment

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
PROPERTY = settings(derandomize=True, max_examples=8, deadline=None)
DURATION = 2.0
DT = 1e-3
BAD_VALUES = st.sampled_from([math.nan, math.inf, -math.inf])


def short_raw(**run):
    """A run of DURATION seconds with a short calibration maneuver."""
    raw = default_config_dict()
    raw["gains"]["excitation_duration"] = 2.0
    raw["run"].update({"duration": DURATION, **run})
    return raw


def large_step_raw(dt, excitation_duration=6.0):
    """A run on grid step dt, the default windows scaled to fit it: time
    runs in units of 5 dt, so t1 = 5 dt and t2 = 4 dt are whole steps of dt
    and of the calibration grid dt / 1000, the quality horizon is 4 dt (two
    rollout steps of stride 2), and the calibration lasts
    excitation_duration units: 6 as by default, or 2, just past t1 + t2."""
    raw = default_config_dict()
    raw["gains"].update(t1=5.0 * dt, t2=4.0 * dt, excitation_dt=dt / 1000,
                        excitation_duration=excitation_duration * 5.0 * dt)
    raw["run"].update(dt=dt, duration=40.0 * dt)
    raw["purge"].update(horizon=4.0 * dt, half_width=1, rollout_stride=2)
    return raw


def refusing(name):
    """A stand-in for the runner function name that fails the test if called."""
    def called(*args):
        raise AssertionError(f"{name} ran on a rejected config")

    return called


def corrupting_source(part, step, index, value):
    """experiment.closed_loop_source with entry index of the states (part
    1) or inputs (part 2) row of step set to value on the run's grid of DT;
    the calibration's source, on its finer grid, is left as it is."""
    source = experiment.closed_loop_source

    def wrapped(demo, x0, dt, steps, *args):
        for block in source(demo, x0, dt, steps, *args):
            times = block[0]
            if dt == DT and times[0] <= step * DT <= times[-1]:
                block = list(block)
                block[part] = block[part].copy()
                block[part][step - round(times[0] / DT), index] = value
            yield tuple(block)

    return wrapped


@st.composite
def corruptions(draw):
    """(part, step, entry, value): a position coordinate of the measured
    state, or an input channel, at a measured step."""
    part = draw(st.sampled_from([1, 2]))  # states or inputs
    step = draw(st.integers(1, int(round(DURATION / DT))))
    index = draw(st.integers(0, 1))  # a position coordinate or an input channel
    return part, step, index, draw(BAD_VALUES)


@PROPERTY
@given(corruption=corruptions())
def test_non_finite_measurement_raises_numeric_overflow(corruption):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "closed_loop_source", corrupting_source(*corruption))
        with pytest.raises(NumericOverflowError):
            run_experiment(ExperimentConfig(short_raw()))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_initial_input_raises_numeric_overflow(value):
    # the run's one optimal_action call is the input at step 0, which
    # OnlineIrl starts from
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "optimal_action", lambda demo, x: [value] * demo.plant.m)
        with pytest.raises(NumericOverflowError, match=r"t=0\.0$"):
            run_experiment(ExperimentConfig(short_raw()))


@PROPERTY
@given(dt=st.floats(1.0, 100.0), mode=st.sampled_from(["query", "observed"]),
       excitation_duration=st.sampled_from([2.0, 6.0]))
def test_too_large_grid_step_raises_config_error(dt, mode, excitation_duration):
    raw = large_step_raw(dt, excitation_duration)
    raw["run"]["mode"] = mode
    with pytest.MonkeyPatch.context() as mp:
        for name in ("prerecord_param_stack", "closed_loop_source"):
            mp.setattr(experiment, name, refusing(name))
        with pytest.raises(ConfigError, match=r"'run\.dt': dt too large"):
            run_experiment(ExperimentConfig(raw))


def test_unstable_rk4_step_is_rejected_before_a_diverged_report():
    # a 1 s grid and a short calibration; with t1 = 1 s, t2 = 0.8 s and a
    # 2 s calibration, too short to certify full rank, so that the
    # adaptation law never ran, this run used to exit 0 with |p~| of about
    # 1.6e12
    raw = large_step_raw(1.0, excitation_duration=2.0)
    raw["run"]["duration"] = 40.0
    with pytest.raises(ConfigError, match=r"'run\.dt'.*2\.469"):
        run_experiment(ExperimentConfig(raw))


def test_unstable_calibration_step_is_rejected():
    raw = default_config_dict()
    raw["gains"].update(excitation_dt=1.0, t2=1.0)  # t1 and t2 whole steps of it
    with pytest.raises(ConfigError, match=r"'gains\.excitation_dt': dt too large"):
        run_experiment(ExperimentConfig(raw))


def test_cli_exits_1_on_a_non_finite_measurement(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(short_raw()))
    monkeypatch.setattr(experiment, "closed_loop_source", corrupting_source(1, 700, 0, math.nan))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "non-finite" in err
    assert not (tmp_path / "out").exists()


def test_cli_exits_1_on_a_too_large_grid_step(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(large_step_raw(2.0)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC_DIR)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    ))
    done = subprocess.run(
        [sys.executable, "-m", "irlobs.cli", "run", "--config", str(cfg_path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("error: ") and "dt too large" in done.stderr
    assert "Traceback" not in done.stderr


ERRORS = [  # one of every exception class in irlobs.errors, with its fields
    (errors.IrlobsError("base"), {}),
    (errors.NumericOverflowError("non-finite"), {}),
    (errors.WindowUnderflowError("before the window"), {}),
    (errors.SolverFailureError("no convergence", residual=0.25), {"residual": 0.25}),
    (errors.RankDeficiencyError("rank deficient", rank=3), {"rank": 3}),
    (errors.SampleTimeError("off-grid"), {}),
    (errors.ConfigError("field 'run.dt'"), {}),
    (errors.ArgumentError("horizon", "must be positive"), {"name": "horizon"}),
]


def test_every_error_survives_a_pickle_round_trip():
    # the run's measuring process sends its exception to the caller pickled
    classes = {
        c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)
    }
    assert {type(exc) for exc, _ in ERRORS} == classes
    for exc, fields in ERRORS:
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc) and str(back) == str(exc)
        assert {name: getattr(back, name) for name in fields} == fields


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def patch_step_half(mp, name, step=None, fail=None):
    """Call fail(t) instead of OnlineIrl.<name> at its step-th call, in
    whichever process runs it; returns the times of the calls made in this
    process (measure takes the time, offer the step's entries)."""
    original = getattr(experiment.OnlineIrl, name)
    calls = []

    def patched(self, first, *args):
        t = first if name == "measure" else first[0].t
        calls.append(t)
        if len(calls) == step:
            fail(t)
        return original(self, first, *args)

    mp.setattr(experiment.OnlineIrl, name, patched)
    return calls


def rank_failure(t):
    raise errors.RankDeficiencyError(f"injected at t = {t:.3f}", rank=3)


pipelined = pytest.mark.skipif(not hasattr(os, "fork"), reason="runs in one process")


@pytest.mark.parametrize("scale", [1e155, 5e153, 1e80])
def test_an_overflowing_gram_block_is_one_error_line(tmp_path, capsys, recwarn, scale):
    # finite initial states whose Gram blocks overflow: at 1e155 the
    # calibration's regressors square to an infinite block, at 5e153 their
    # finite blocks overflow the stack's Gram, and at 1e80 the first IRL
    # rows square to an infinite block.  Each used to end in a LinAlgError
    # traceback from eigvalsh and leave --out behind
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(short_raw(x0=[scale, -scale, scale, -scale])))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Gram block" in err
    assert not (tmp_path / "out").exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert_no_child_left()


@pipelined
def test_an_error_in_measure_reaches_the_caller(tmp_path, capsys):
    # the steps measured before the error are offered, then the child's
    # exception is raised here with its type, message and fields
    with pytest.MonkeyPatch.context() as mp:
        patch_step_half(mp, "measure", 700, rank_failure)
        offers = patch_step_half(mp, "offer")
        with pytest.raises(errors.RankDeficiencyError, match=r"^injected at t = 0\.700$") as info:
            run_experiment(ExperimentConfig(short_raw()))
    assert info.value.rank == 3 and offers == [0.001 * k for k in range(1, 700)]
    assert_no_child_left()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(short_raw()))
    with pytest.MonkeyPatch.context() as mp:
        patch_step_half(mp, "measure", 700, rank_failure)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: injected at t = 0.700\n"
    assert not (tmp_path / "out").exists()
    assert_no_child_left()


@pipelined
@pytest.mark.parametrize("step", [experiment._PIPE_BATCH * 21 + 1, round(DURATION / DT)])
def test_an_error_at_a_block_edge_offers_every_step_before_it(step):
    # at the first step of an eta block, with no step pending, and at the
    # run's last step, in the block that the run's end would score
    with pytest.MonkeyPatch.context() as mp:
        patch_step_half(mp, "measure", step, rank_failure)
        offers = patch_step_half(mp, "offer")
        with pytest.raises(errors.RankDeficiencyError, match="injected"):
            run_experiment(ExperimentConfig(short_raw()))
    assert offers == [0.001 * k for k in range(1, step)]
    assert_no_child_left()


@pipelined
def test_an_error_in_offer_stops_and_reaps_the_child():
    # the child of a 60 s query run is killed at the first offer's error,
    # not left to measure the run to its end
    raw = short_raw(duration=60.0)
    with pytest.MonkeyPatch.context() as mp:
        patch_step_half(mp, "offer", 1, rank_failure)
        start = time.perf_counter()
        with pytest.raises(errors.RankDeficiencyError, match="0.001"):
            run_experiment(ExperimentConfig(raw))
    assert time.perf_counter() - start < 30.0
    assert_no_child_left()


@pipelined
def test_a_child_that_exits_without_a_result_is_an_irlobs_error():
    with pytest.MonkeyPatch.context() as mp:
        patch_step_half(mp, "measure", 300, lambda t: os._exit(3))
        with pytest.raises(errors.IrlobsError, match="ended without a result"):
            run_experiment(ExperimentConfig(short_raw()))
    assert_no_child_left()


@pipelined
def test_a_child_that_dies_within_a_block_is_one_irlobs_error():
    # the child writes the first half of its fifth block and exits: the
    # four blocks before it are offered, and the cut-off pickle ends the
    # run in one IrlobsError
    blocks = []

    def dump(obj, file):
        if isinstance(obj, tuple):
            blocks.append(obj)
            if len(blocks) == 5:
                data = pickle.dumps(obj)
                file.write(data[: len(data) // 2])
                file.flush()
                os._exit(3)
        pickle.dump(obj, file)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "pickle", SimpleNamespace(dump=dump, load=pickle.load))
        offers = patch_step_half(mp, "offer")
        with pytest.raises(errors.IrlobsError, match="ended without a result") as info:
            run_experiment(ExperimentConfig(short_raw()))
    assert type(info.value) is errors.IrlobsError
    assert offers == [0.001 * k for k in range(1, 4 * experiment._PIPE_BATCH + 1)]
    assert_no_child_left()
