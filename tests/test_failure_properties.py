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
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irlobs import experiment
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
    """A run on grid step dt, the quality windows scaled to fit it.  The
    default calibration maneuver certifies full rank, so the adaptation
    law would run from the first step; a 2 s one does not."""
    raw = default_config_dict()
    raw["gains"]["excitation_duration"] = excitation_duration
    raw["run"].update(dt=dt, duration=40.0 * dt)
    raw["purge"].update(horizon=4.0 * dt, half_width=1, rollout_stride=1)
    return raw


def refusing(name):
    """A stand-in for the runner function name that fails the test if called."""
    def called(*args):
        raise AssertionError(f"{name} ran on a rejected config")

    return called


def corrupting(fn, call, index, value):
    """fn with entry index of the return value of its call-th call set to value."""
    calls = []

    def wrapped(*args):
        out = fn(*args)
        calls.append(None)
        if len(calls) == call:
            out = np.array(out, dtype=float)
            out[index] = value
        return out

    return wrapped


@st.composite
def corruptions(draw):
    """(runner name, call number, entry, value): the measured position comes
    from the state rk4_step returns, the measured input from optimal_action
    (whose first call is the initial input)."""
    name = draw(st.sampled_from(["rk4_step", "optimal_action"]))
    steps = int(round(DURATION / DT))
    call = draw(st.integers(1, steps))
    index = draw(st.integers(0, 1))  # a position coordinate or an input channel
    return name, call, index, draw(BAD_VALUES)


@PROPERTY
@given(corruption=corruptions())
def test_non_finite_measurement_raises_numeric_overflow(corruption):
    name, call, index, value = corruption
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, name, corrupting(getattr(experiment, name), call, index, value))
        with pytest.raises(NumericOverflowError):
            run_experiment(ExperimentConfig(short_raw()))


@PROPERTY
@given(dt=st.floats(1.0, 100.0), mode=st.sampled_from(["query", "observed"]),
       excitation_duration=st.sampled_from([2.0, 6.0]))
def test_too_large_grid_step_raises_config_error(dt, mode, excitation_duration):
    raw = large_step_raw(dt, excitation_duration)
    raw["run"]["mode"] = mode
    with pytest.MonkeyPatch.context() as mp:
        for name in ("prerecord_param_stack", "rk4_step"):
            mp.setattr(experiment, name, refusing(name))
        with pytest.raises(ConfigError, match=r"'run\.dt': dt too large"):
            run_experiment(ExperimentConfig(raw))


def test_unstable_rk4_step_is_rejected_before_a_diverged_report():
    # the calibration is too short to certify full rank, so the adaptation
    # law never runs; this run used to exit 0 with |p~| of about 1.6e12
    raw = large_step_raw(1.0, excitation_duration=2.0)
    raw["run"]["duration"] = 40.0
    with pytest.raises(ConfigError, match=r"'run\.dt'.*2\.469"):
        run_experiment(ExperimentConfig(raw))


def test_unstable_calibration_step_is_rejected():
    raw = default_config_dict()
    raw["gains"]["excitation_dt"] = 1.0
    with pytest.raises(ConfigError, match=r"'gains\.excitation_dt': dt too large"):
        run_experiment(ExperimentConfig(raw))


def test_cli_exits_1_on_a_non_finite_measurement(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(short_raw()))
    monkeypatch.setattr(
        experiment, "rk4_step", corrupting(experiment.rk4_step, 700, 0, math.nan)
    )
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
