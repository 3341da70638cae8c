"""Experiment configuration, the online estimator, the runner and reports.

OnlineIrl steps estimator -> cost recovery -> purge policy once per
measurement; run_experiment drives it from a simulated demonstrator on a
common clock, in observed or query mode and, where os.fork exists, in two
processes, and write_report emits CSV/JSON reports.  OnlineIrl sees only
the measured position and input (and the oracle's answers); ground truth
is touched exclusively for report columns.
"""

from __future__ import annotations

import copy
import csv
import functools
import itertools
import json
import math
import os
import pickle
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ArgumentError, ConfigError, IrlobsError, NumericOverflowError
from .estimator import (
    AdaptiveObserver,
    EstimatorGains,
    ParamHistoryStack,
    integral_regressor,
    integral_residual,
    model_matrices,
    theta_dim,
)
from .irl import (
    Entry,
    FeatureBasis,
    IrlHistoryStack,
    data_select,
    entry_rows,
    ideal_weights,
    read_lazy,
)
from .numerics import SampledSignal, linear_rk4_matrices, linear_rollout
from .plant import CostFunction, LinearPlant, make_demonstrator, optimal_action, query
from .purge import (
    PurgeState,
    QualityConfig,
    eta2_inputs,
    purge_policy,
    quality_eta1,
    quality_eta2_block,
    smooth_velocity,
)

# not called here, but bench/tracing.py wraps experiment.rk4_step and
# experiment.quality_eta2 by name
from .numerics import rk4_step
from .purge import quality_eta2

MODES = ("observed", "query")
# steps per block of the run's closed_loop_source, so per η block, per
# write to the pipe in _pipelined and per oracle draw and gain-spectrum
# solve in _measure_run, and the most that OnlineIrl queues between two drains
_PIPE_BATCH = 32
_PIPE_BYTES = 1 << 20  # the pipe's capacity in _pipelined, where the platform sets it
_CALIBRATION_BLOCK = 1024  # steps per block of the calibration's closed_loop_source
DEFAULTS_PATH = Path(__file__).with_name("default_config.json")


def default_config_dict():
    """The shipped default experiment (default_config.json), freshly parsed."""
    with open(DEFAULTS_PATH) as fh:
        return json.load(fh)


def _merge(base, override, path=""):
    """base with override's fields merged over it, section by section;
    ExperimentConfig checks the merged key tree."""
    for key, val in override.items():
        if isinstance(base.get(key), dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config section '{path}{key}' must be an object")
            _merge(base[key], val, path=f"{path}{key}.")
        else:
            base[key] = val
    return base


def _require(base, raw, path="root"):
    """Raise ConfigError naming the first section of the key tree base (the
    shipped defaults) that raw does not give as an object, the first field
    that it lacks, or the first field that base does not have."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config section '{path}' must be an object")
    prefix = "" if path == "root" else f"{path}."
    for key in raw:
        if key not in base:
            raise ConfigError(f"unknown config field '{prefix}{key}'")
    for key, val in base.items():
        if key not in raw:
            raise ConfigError(f"missing config field '{prefix}{key}'")
        if isinstance(val, dict):
            _require(val, raw[key], prefix + key)


def _number(path, value, low=None, *, inclusive=False, integer=False):
    """value as a finite float (an int when integer) above low, or at least
    low when inclusive; raises ConfigError naming the field otherwise."""
    try:
        ok = (
            not isinstance(value, bool)
            and math.isfinite(value)
            and (not integer or value == int(value))
            and (low is None or value > low or (inclusive and value == low))
        )
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        kind = "an integer" if integer else "a finite number"
        bound = "" if low is None else f" {'>=' if inclusive else '>'} {low:g}"
        raise ConfigError(f"field '{path}' must be {kind}{bound}, got {value!r}")
    return int(value) if integer else float(value)


def _count(path, value, low=1):
    return _number(path, value, low, inclusive=True, integer=True)


def _steps(path, span, dt):
    """span as a number of steps of dt; raises ConfigError naming the field
    unless that is a whole number to within 1e-9 * min(1, |span|)."""
    steps = span / dt
    if not math.isfinite(steps) or abs(round(steps) * dt - span) > 1e-9 * min(1.0, abs(span)):
        raise ConfigError(f"field '{path}': {span!r} is not a whole number of {dt!r} s steps")
    return round(steps)


def _array(path, value, shape=None):
    """value as a finite float array of the given shape; raises ConfigError
    naming the field otherwise."""
    try:
        arr = np.asarray(value, dtype=float)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"field '{path}' is not a numeric array: {exc}")
    if shape is not None and arr.shape != shape:
        raise ConfigError(f"field '{path}' must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"field '{path}' must be finite")
    return arr


def _build(section, make, fields=None):
    """Run make, a section constructor or a check; its ValueError or TypeError
    becomes a ConfigError naming the failing field (the section when unknown)."""
    try:
        return make()
    except (ValueError, TypeError) as exc:
        path = section
        if isinstance(exc, ArgumentError):
            path = (fields or {}).get(exc.name, f"{section}.{exc.name}")
        raise ConfigError(f"field '{path}': {exc}") from exc


class ExperimentConfig:
    """Validated experiment configuration; see default_config_dict for the
    schema and the shipped defaults.

    The plant, cost, gains, feature basis and quality sections are built
    once here and check their own entries; every other entry is kept as a
    plain attribute named after its field (gains.capacity and irl.capacity
    as param_capacity and irl_capacity; a null run.w0 as zeros).  Every
    duration and window is a whole number of steps of the grid that reads
    it, kept as a step count: steps (run.duration) and windows (gains.t1,
    gains.t2) in run.dt, excitation_steps and excitation_windows in
    gains.excitation_dt, and the quality horizon in run.dt.  Any missing,
    unknown, invalid, non-finite or off-grid entry, and any section that is
    not an object, raises ConfigError naming the field.
    """

    def __init__(self, raw):
        _require(default_config_dict(), raw)
        self.raw = copy.deepcopy(raw)
        pl, c, g, irl, p, r = (
            self.raw[k] for k in ("plant", "cost", "gains", "irl", "purge", "run")
        )
        self._plant = _build("plant", lambda: LinearPlant(
            a=_array("plant.a", pl["a"]), b=_array("plant.b", pl["b"]),
        ))
        n, m = self._plant.n, self._plant.m
        self.n, self.m = n, m
        self._cost = _build("cost", lambda: CostFunction(
            dim=2 * n, w_q=_array("cost.w_q", c["w_q"]),
            r_diag=_array("cost.r_diag", c["r_diag"], (m,)),
            q_monomials=c["q_monomials"],
        ))
        self.param_capacity = capacity = _count("gains.capacity", g["capacity"])
        self._gains = gains = _build("gains", lambda: EstimatorGains(
            k_theta=(
                0.3 / capacity if g["k_theta"] is None
                else _number("gains.k_theta", g["k_theta"])
            ),
            **{k: _number(f"gains.{k}", g[k]) for k in ("beta1", "alpha", "beta", "k", "t1", "t2")},
        ))
        self._basis = _build("irl", lambda: (
            FeatureBasis.quadratic(2 * n, self._cost.q_monomials) if irl["v_monomials"] is None
            else FeatureBasis(2 * n, irl["v_monomials"], self._cost.q_monomials)
        ), fields={"q_monomials": "cost.q_monomials"})

        for name in ("gamma0", "min_eig_threshold", "excitation_duration", "excitation_dt",
                     "excitation_amplitude"):
            setattr(self, name, _number(f"gains.{name}", g[name], 0.0))
        for name in ("record_stride", "excitation_stride"):
            setattr(self, name, _count(f"gains.{name}", g[name]))
        self.irl_capacity = _count("irl.capacity", irl["capacity"])
        self.xi1 = _number("irl.xi1", irl["xi1"], 0.0, inclusive=True)
        self.xi2 = _number("irl.xi2", irl["xi2"], 0.0)
        for name in ("kappa1_bar", "kappa2_bar"):
            setattr(self, name, _number(f"purge.{name}", p[name], 0.0))

        for name in ("x0", "query_low", "query_high"):
            setattr(self, name, _array(f"run.{name}", r[name], (2 * n,)))
        self.duration = _number("run.duration", r["duration"], 0.0, inclusive=True)
        self.dt = dt = _number("run.dt", r["dt"], 0.0)
        self.steps = _steps("run.duration", self.duration, dt)
        self.windows = tuple(_steps(f"gains.{k}", getattr(gains, k), dt) for k in ("t1", "t2"))
        self.excitation_steps = _steps(
            "gains.excitation_duration", self.excitation_duration, self.excitation_dt
        )
        self.excitation_windows = tuple(
            _steps(f"gains.{k}", getattr(gains, k), self.excitation_dt) for k in ("t1", "t2")
        )
        if 0 < self.steps <= sum(self.windows):
            raise ConfigError("field 'run.duration' must exceed gains.t1 + gains.t2")
        if self.excitation_steps <= sum(self.excitation_windows):
            raise ConfigError("field 'gains.excitation_duration' must exceed t1 + t2")
        self._quality = _build("purge", lambda: QualityConfig(
            horizon=_steps("purge.horizon", _number("purge.horizon", p["horizon"]), dt),
            s1=np.eye(2 * n) if p["s1"] is None else _array("purge.s1", p["s1"], (2 * n, 2 * n)),
            s2=np.eye(n) if p["s2"] is None else _array("purge.s2", p["s2"], (n, n)),
            half_width=_number("purge.half_width", p["half_width"], integer=True),
            rollout_stride=_number("purge.rollout_stride", p["rollout_stride"], integer=True),
        ))
        if r["mode"] not in MODES:
            raise ConfigError(f"field 'run.mode' must be one of {MODES}")
        self.mode = r["mode"]
        if np.any(self.query_low > self.query_high):
            raise ConfigError("field 'run.query_low' must not exceed 'run.query_high'")
        self.report_stride = _count("run.report_stride", r["report_stride"])
        self.seed = _count("run.seed", r["seed"], low=0)
        width = self._basis.width(m)
        self.w0 = np.zeros(width) if r["w0"] is None else _array("run.w0", r["w0"], (width,))

    def plant(self):
        return self._plant

    def cost(self):
        return self._cost

    def gains(self):
        return self._gains

    def basis(self):
        return self._basis

    def quality(self):
        return self._quality


def default_config():
    return ExperimentConfig(default_config_dict())


def read_config(path=None):
    """The raw config of a JSON file: the shipped defaults with the file's
    fields merged over them (just the defaults without a path)."""
    if path is None:
        return default_config_dict()
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"config file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return _merge(default_config_dict(), data)


def load_config(path=None):
    """The validated config of read_config(path)."""
    return ExperimentConfig(read_config(path))


@dataclass
class RunTrace:
    """Gate-level evidence collected during a run.

    stores:          (t, branch, gram_kappa_before, gram_kappa_after, u1_norm_after)
    weight_updates:  (t, varpi, gram_kappa, u1_norm)  -- every change of the estimate
    purges:          (t, gram_kappa, eta_now, eta_bar_before)
    """

    stores: list = field(default_factory=list)
    weight_updates: list = field(default_factory=list)
    purges: list = field(default_factory=list)


@dataclass
class RunReport:
    """Time series of the estimation errors plus run-level diagnostics."""

    t: np.ndarray
    p_tilde: np.ndarray
    q_tilde: np.ndarray
    theta_tilde: np.ndarray
    w_tilde: np.ndarray
    purge_count: int
    queries: int
    final_kappa: float
    final_gram_kappa: float
    final_residual: float
    gamma_eig_min: float
    gamma_eig_max: float
    w_true: np.ndarray
    w_final: np.ndarray
    wall_clock_seconds: float
    trace: RunTrace
    config: dict

    def norms(self, name):
        series = getattr(self, name)
        if series.shape[0] == 0:
            return np.zeros(0)
        return np.linalg.norm(series, axis=1)


def _excitation(times, m, amplitude):
    """Deterministic multisine dither, distinct across input channels."""
    t = np.atleast_1d(np.asarray(times, dtype=float))[:, None]
    i = np.arange(m)[None, :]
    return amplitude * (
        np.sin((0.7 + 0.6 * i) * t + 0.5 + 0.2 * i)
        + np.sin((1.9 + 0.7 * i) * t + 1.7 + 0.3 * i)
        + np.sin((3.7 + 0.8 * i) * t + 0.9 + 0.4 * i)
    )


def closed_loop_source(demo, x0, dt, steps, block, amplitude=0.0):
    """The demonstrator's closed loop from x0 on the grid of dt, its input
    the optimal policy plus the multisine dither of amplitude (_excitation;
    none by default): blocks (t, states, inputs) of grid times and their
    rows, step 0 alone and then the steps to steps, at most block at a time.
    The closed loop is linear time-invariant, so one set of RK4 step
    matrices, whose phi has the spectral radius that _check_rk4_step
    bounds, advances it, each block from the last state of the one before.
    No product has one row, which takes another BLAS path, so every row is
    bitwise that of simulating all steps at once: a block's inputs are
    those of its states and the one it starts from, and only a run of one
    step has a block of one step."""
    m = demo.plant.m
    phi, w0, wh, w1 = linear_rk4_matrices(demo.a_cl, demo.plant.b_prime, dt)
    x, lo = x0, 0
    # the block that would leave a last block of one step ends a step early
    for hi in [*(min(hi, steps - 2) for hi in range(block, steps, block)), steps]:
        dither_half = _excitation((0.5 * dt) * np.arange(2 * lo, 2 * hi + 1), m, amplitude)
        drive = dither_half[0:-1:2] @ w0.T + dither_half[1::2] @ wh.T + dither_half[2::2] @ w1.T
        states = linear_rollout(phi, drive, x)
        if not np.isfinite(states).all():
            raise NumericOverflowError(f"the closed loop diverged by t={hi * dt}")
        inputs = states @ (-demo.k_fb.T) + dither_half[0::2]
        t = dt * np.arange(lo, hi + 1)
        if lo == 0:
            yield t[:1], states[:1], inputs[:1]
        if hi > lo:
            yield t[1:], states[1:], inputs[1:]
        x, lo = states[-1], hi


class ParamRecorder:
    """Records a parameter history stack from position and input logs of
    window seconds on a grid of dt, and at least the t1 + t2 steps
    (windows) that a record reads back, plus one.  Every stride-th step
    from t1 + t2 on is due, and recorded once the logs reach it."""

    def __init__(self, stack, n, m, dt, windows, stride, window):
        self.stack, self.windows, self.stride = stack, windows, stride
        window = max(window, (sum(windows) + 1) * dt)
        # the steps the logs keep beyond a record's window: rows appended
        # that many at a time leave every due step among them readable
        self._reach = round(window / dt) - sum(windows)
        self.p_log, self.u_log = SampledSignal(n, dt, window), SampledSignal(m, dt, window)

    def due(self, first, end):
        """The due steps from first to before end."""
        first = max(first, sum(self.windows))
        return range(first + -first % self.stride, end, self.stride)

    def record(self, k):
        """Offer the stack the integral error system's pair at step k;
        returns True when the stack commits it."""
        t1, t2 = self.windows
        return self.stack.record(integral_residual(self.p_log, k, t1, t2),
                                 integral_regressor(self.p_log, self.u_log, k, t1, t2))

    def extend(self, t, p, u):
        """Append the rows of p and u, the samples of consecutive grid
        times from t on, and record each due step once the logs reach it;
        raises, changing nothing, unless p and u are finite blocks of as
        many rows as wide as their logs."""
        p, u = np.asarray(p, dtype=float), np.asarray(u, dtype=float)
        if p.shape != (len(p), self.p_log.dim) or u.shape != (len(p), self.u_log.dim):
            raise ValueError(f"positions and inputs must be blocks of as many rows of "
                             f"{self.p_log.dim} and {self.u_log.dim} columns")
        if not (np.isfinite(p).all() and np.isfinite(u).all()):
            raise NumericOverflowError(f"non-finite sample in the rows from t={t}")
        step, dt = self.p_log.first_step + len(self.p_log), self.p_log.dt
        for lo in range(0, len(p), self._reach):
            hi = min(lo + self._reach, len(p))
            self.p_log.extend(t + lo * dt, p[lo:hi])
            self.u_log.extend(t + lo * dt, u[lo:hi])
            for k in self.due(step + lo, step + hi):
                self.record(k)


def prerecord_param_stack(demo, cfg, stack):
    """Fill the parameter history stack from an excited calibration maneuver.

    Along a pure feedback trajectory the input window integrals are an
    exact linear image of the position window integrals, so the regressor
    Gram can never reach full rank; the stack is therefore recorded from a
    run with a deterministic dither on top of the optimal policy, standing
    in for rich data gathered before observation starts.  It streams
    through a ParamRecorder, so memory does not grow with its duration.
    """
    n, dt, windows = demo.plant.n, cfg.excitation_dt, cfg.excitation_windows
    recorder = ParamRecorder(stack, n, demo.plant.m, dt, windows, cfg.excitation_stride,
                             (sum(windows) + _CALIBRATION_BLOCK) * dt)
    for t, states, inputs in closed_loop_source(demo, cfg.x0, dt, cfg.excitation_steps,
                                                _CALIBRATION_BLOCK, cfg.excitation_amplitude):
        recorder.extend(t[0], states[:, :n], inputs)
    return stack


def _check_rk4_step(a_cl, h, path):
    """Raise ConfigError naming path unless an RK4 step of h is stable on
    the closed loop: |R(lambda*h)| <= 1 for every eigenvalue lambda of a_cl,
    with R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24."""
    z = np.linalg.eigvals(a_cl) * h
    growth = float(np.max(np.abs(1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0)))
    if growth > 1.0:
        raise ConfigError(f"field '{path}': dt too large, the closed loop's RK4 step "
                          f"grows by |R(lambda*dt)| = {growth:.4g} > 1")


class OnlineIrl:
    """The online estimator, stepped per block of measurements.

    step(t, p, u, queries) takes the position and input measured one grid
    step after the last, plus any oracle pairs (x*, u*) to offer.  It
    records the parameter stack, advances the observer, and offers the
    estimated pair and each query, with the estimate-quality score, to the
    IRL stack under the weight-update/purge policy.  It sees nothing else:
    param_stack comes filled by a calibration maneuver (see
    prerecord_param_stack), and w0 is the stacked initial weight guess.
    step is measure, the estimator, then offer, the cost recovery, of each
    step's entries that irl.Entry.block builds from what drain returns;
    measure takes a block of consecutive measurements, a single one being
    a block of one, and queues each step's own values, drain builds the
    IRL rows and scores the η of all steps queued since the last, at most
    _PIPE_BATCH, in one block, and offer reads nothing that measure writes.
    """

    def __init__(self, cfg, param_stack, p0, u0, w0):
        n, m = cfg.n, cfg.m
        gains = cfg.gains()
        self.quality = quality = cfg.quality()
        basis, r1 = cfg.basis(), cfg.cost().r1
        self.dt = dt = cfg.dt
        self.param_stack = param_stack
        self.steps = 0  # the measurements logged after step 0
        # first step with both the full horizon and the smoothing window available
        self.eta_floor_step = quality.horizon + quality.half_width

        # the records read t1 + t2 back from each step of a block, and drain
        # reads the smoothing window and horizon back from each step queued
        window = max(gains.t1 + gains.t2, (quality.horizon + quality.half_width + 2) * dt)
        self.recorder = ParamRecorder(param_stack, n, m, dt, cfg.windows, cfg.record_stride,
                                      window + (_PIPE_BATCH + 4) * dt)
        self.p_log, self.u_log = self.recorder.p_log, self.recorder.u_log
        self.qhat_log = SampledSignal(n, dt, (quality.horizon + _PIPE_BATCH + 4) * dt)
        self.p_log.append(0.0, p0)
        self.u_log.append(0.0, u0)
        self.observer = AdaptiveObserver(n, m, p0=p0, u0=u0, gains=gains,
                                         gamma_scale=cfg.gamma0)
        self.qhat_log.append(0.0, self.observer.q_hat)
        w0 = np.array(w0, dtype=float)  # a copy: the run never writes to cfg.w0
        if w0.shape != (basis.width(m),) or not np.isfinite(w0).all():
            raise ValueError(f"w0 must be a finite {basis.width(m)}-vector")
        self.irl_stack = IrlHistoryStack(cfg.irl_capacity, basis, r1, m, xi2=cfg.xi2)
        self.xi1 = cfg.xi1
        self.purge_state = PurgeState(cfg.kappa1_bar, cfg.kappa2_bar, w_current=w0)
        self.trace = RunTrace()
        # per block measured, not yet drained: (first step, times, x_hat,
        # theta, p_tilde, oracle states, oracle inputs), stacked over its
        # steps; drain reads u and the lagged q_hat from their logs
        self._queue = []

    @property
    def x_hat(self):
        return self.observer.x_hat

    @property
    def theta(self):
        return self.observer.theta

    @property
    def weights(self):
        """The weight estimate in force; read_lazy runs its solve if that was deferred."""
        return read_lazy(self.purge_state.w_current)

    def step(self, t, p, u, queries=()):
        """Take the measurement (p, u) at time t and offer the data."""
        self.measure([t], [p], [u], [queries])
        for entries in Entry.block(*self.drain()):
            self.offer(entries)

    def measure(self, times, p, u, queries=None):
        """The estimator half of step, for a block of measurements: the
        positions p and inputs u, rows measured at the consecutive grid
        times `times`, and per row the oracle pairs (x*, u*) of queries
        (none by default).  Logs the rows, records the parameter stack at
        each due step, advances the adaptation law and the observer, and
        queues each step's time, x_hat, parameter estimate, position error
        and copies of its pairs, bitwise as one row at a time.  Returns
        x_hat, theta and the adaptation matrix P after each step, stacked.

        Raises ValueError, changing nothing, if more than _PIPE_BATCH steps
        would be queued, if p, u and queries do not have a row for each
        time, or if a pair is not a (2n-vector, m-vector) or a step has
        another number of pairs than the steps queued.  A row that is not
        finite or not at its grid time raises NumericOverflowError or
        SampleTimeError at its own step, as does a record, the adaptation
        law or the observer failing there: the rows before it are measured
        and queued first."""
        observer, count = self.observer, len(times)
        n, m = observer.n, observer.m
        if sum(len(block[1]) for block in self._queue) + count > _PIPE_BATCH:
            raise ValueError(f"{_PIPE_BATCH} steps would be queued: drain them first")
        times = np.asarray(times, dtype=float).tolist()
        p, u = np.asarray(p, dtype=float), np.asarray(u, dtype=float)
        queries = [()] * count if queries is None else list(queries)
        if p.shape != (count, n) or u.shape != (count, m) or len(queries) != count:
            raise ValueError(f"positions, inputs and queries must have a row for each time, "
                             f"of {n} and {m} columns")
        if self._queue:  # as many pairs as the steps queued
            pairs = self._queue[0][-1].shape[1]
        else:
            pairs = len(queries[0]) if count else 0
        if any(len(step) != pairs for step in queries):
            raise ValueError("every step queued must have as many oracle pairs")
        x_star, u_star = np.empty((count, pairs, 2 * n)), np.empty((count, pairs, m))
        if count * pairs:
            try:
                x_star = np.array([[x for x, _ in step] for step in queries], dtype=float)
                u_star = np.array([[v for _, v in step] for step in queries], dtype=float)
            except ValueError:  # pairs of different shapes
                x_star = u_star = np.empty(0)
        if x_star.shape != (count, pairs, 2 * n) or u_star.shape != (count, pairs, m):
            raise ValueError(f"oracle pairs must be ({2 * n}-vector, {m}-vector)")
        refusals = [self.p_log.refused(times, p), self.u_log.refused(times, u)]
        finite = np.isfinite(x_star).all(axis=(1, 2)) & np.isfinite(u_star).all(axis=(1, 2))
        if not finite.all():
            j = int(finite.argmin())
            refusals.insert(0, (j, NumericOverflowError(f"non-finite oracle pair at t={times[j]}")))
        # the first refused row; in it a pair's refusal goes first, then p's, then u's
        good, error = min((r for r in refusals if r), key=lambda r: r[0], default=(count, None))
        measured = self._measure_rows(times[:good], p[:good], u[:good], x_star[:good],
                                      u_star[:good])
        if error:
            raise error
        return measured

    def _measure_rows(self, times, p, u, x_star, u_star):
        """measure of rows refused by no check."""
        count, k0, stack = len(times), self.steps + 1, self.param_stack
        if not count:
            d = stack.dim
            return np.empty((0, 2 * self.observer.n)), np.empty((0, d)), np.empty((0, d, d))
        self.p_log.extend(times[0], p)
        self.u_log.extend(times[0], u)
        self.steps += count
        # the stack in force from each step on: the records read only the logs
        stacks = [(0, stack.gram, stack.rhs_projection, stack.is_full_rank)]
        limit, error = count, None
        for k in self.recorder.due(k0, k0 + count):
            try:
                committed = self.recorder.record(k)
            except Exception as exc:  # raised at its step, once the steps before it are queued
                limit, error = k - k0, exc
                break
            if committed:
                stacks.append((k - k0, stack.gram, stack.rhs_projection, stack.is_full_rank))
        observer = self.observer
        info, theta, rate, failed = observer.update_block(stacks, limit, self.dt)
        if failed:
            limit, error = len(theta), failed
        p_hat, q_hat, p_tilde, failed = observer.step_block(
            p[:limit], u[:limit], theta[:limit], rate[:limit], self.dt)
        if failed:
            limit, error = len(p_tilde), failed
        x_hat = np.concatenate((p_hat, q_hat), axis=1)
        if limit:
            self.qhat_log.extend(times[0], q_hat)
            self._queue.append((k0, times[:limit], x_hat, theta[:limit], p_tilde,
                                x_star[:limit], u_star[:limit]))
        if error:
            raise error
        return x_hat, theta, info

    def drain(self):
        """Empty the queue into the arguments of Entry.block, whose entries
        offer takes: the times, the quality scores eta (inf before
        eta_floor_step) and, stacked over the steps in order, the IRL rows
        (irl.entry_rows) of each step's estimated pair and oracle pairs,
        and their right-hand sides; empty lists for an empty queue.  eta
        is eta1 plus quality_eta2, each scored for all steps in one block,
        bitwise as step by step.  The queue is emptied only once all of it
        is built."""
        queue = self._queue
        if not queue:
            return [], [], [], []
        quality, stack = self.quality, self.irl_stack
        first, times = queue[0][0], [t for block in queue for t in block[1]]
        count = len(times)
        last = first + count - 1
        x_hat, thetas, p_tilde, x_star, u_star = (
            np.concatenate(parts) for parts in list(zip(*queue))[2:]
        )
        a, b = model_matrices(thetas, self.observer.n, self.observer.m)
        u = self.u_log.rows(first, count)
        xs = np.concatenate((x_hat[:, None], x_star), axis=1)
        us = np.concatenate((u[:, None], u_star), axis=1)
        rows, rhs = entry_rows(stack.basis, xs, us, a[:, None], b[:, None], stack.r1)
        eta = np.full(count, np.inf)
        # the scored steps, those from eta_floor_step on, end the queue
        scored = min(count, last - self.eta_floor_step + 1)
        if scored > 0:
            first = last - scored + 1
            v = smooth_velocity(self.p_log, first - quality.horizon, quality.half_width, scored)
            lagged = self.qhat_log.rows(first - quality.horizon, scored)
            eta1 = quality_eta1(p_tilde[-scored:], lagged, v, quality.s1)
            inputs = eta2_inputs(self.p_log, self.u_log, first, quality, v)
            eta[-scored:] = eta1 + quality_eta2_block(
                a[-scored:], b[-scored:], inputs, quality, self.dt
            )
        self._queue = []
        return times, eta.tolist(), rows, rhs

    def offer(self, entries):
        """The cost-recovery half of step: offer one step's candidates, the
        irl.Entry objects that Entry.block builds from what drain returns,
        in order to the IRL stack under the weight-update/purge policy.
        Reads nothing that measure changes, so it may run in another
        process."""
        stack, ps, trace = self.irl_stack, self.purge_state, self.trace
        for entry in entries:
            kappa_before, size_before = stack.gram_kappa, stack.size
            varpi = data_select(stack, entry, self.xi1)
            if varpi:
                branch = "append" if stack.size > size_before else "swap"
                trace.stores.append(
                    (entry.t, branch, kappa_before, stack.gram_kappa, stack.sigma_u1_norm)
                )
            ps.varpi = varpi
            w_before, purges_before = ps.w_current, ps.purge_count
            eta_bar_before, kappa_gate = stack.eta_min, stack.gram_kappa
            u1_gate = stack.sigma_u1_norm
            if purge_policy(ps, stack, entry.eta) is not w_before:
                trace.weight_updates.append((entry.t, varpi, kappa_gate, u1_gate))
            if ps.purge_count > purges_before:
                trace.purges.append((entry.t, kappa_gate, entry.eta, eta_bar_before))


def _measure_run(cfg, demo, online, emit):
    """The measuring half of run_experiment: per block of at most
    _PIPE_BATCH steps of the demonstrator (closed_loop_source), draw one
    oracle query per step in query mode, call online.measure on the block
    and pass online.drain() to emit, also before an exception leaves.
    Returns the bounds of the observer gain's spectrum (nan for a run of no
    steps) and the report rows (t, p - p_hat, q - q_hat, theta - theta_hat)
    of step 0 and of every report_stride-th and the last step."""
    n, steps, stride = cfg.n, cfg.steps, cfg.report_stride
    theta_true = cfg.plant().theta
    rng = np.random.default_rng(cfg.seed)
    gamma_lo, gamma_hi = np.inf, 0.0

    def truth_row(t, x, x_hat, theta):
        return np.concatenate([(t,), x - x_hat, theta_true - theta])

    truth = [truth_row(0.0, cfg.x0, online.x_hat, online.theta)] if steps > 0 else []
    source = closed_loop_source(demo, cfg.x0, cfg.dt, steps, _PIPE_BATCH)
    try:
        # online starts from step 0, the source's first block; per block,
        # one draw takes the oracle states of one draw per step
        for times, states, inputs in itertools.islice(source, 1, None):
            queries = None
            if cfg.mode == "query":
                draws = rng.uniform(cfg.query_low, cfg.query_high, size=states.shape)
                queries = [((x_star, query(demo, x_star)),) for x_star in draws]
            first = online.steps + 1
            x_hat, theta, info = online.measure(times, states[:, :n], inputs, queries)
            for j, k in enumerate(range(first, first + len(times))):
                if k % stride == 0 or k == steps:
                    truth.append(truth_row(times[j], states[j], x_hat[j], theta[j]))
            # the spectra of P, the inverse of the gain, a report diagnostic,
            # in one batch, bitwise the single solves
            lam = np.linalg.eigvalsh(info)
            gamma_lo = min(gamma_lo, 1.0 / float(lam[:, -1].max()))
            gamma_hi = max(gamma_hi, 1.0 / float(lam[:, 0].min()))
            emit(online.drain())
    except BaseException:
        emit(online.drain())  # the steps measured before the error are offered first
        raise
    return (gamma_lo, gamma_hi, truth) if steps > 0 else (math.nan, math.nan, truth)


def _pipelined(front, take):
    """front(emit) in a forked child, and here take(block) for each block
    of drained steps (OnlineIrl.drain) that it emits; returns what front
    returns.

    The child pickles each block it emits, whole, to a pipe of _PIPE_BYTES.
    None ends the blocks, and the pickled result of front, or the
    exception it raised, follows; that exception is raised here once the
    blocks before it are taken.  An exception here kills the child, and
    the child is always reaped.
    """
    import fcntl  # POSIX only, like os.fork, which every caller has

    read_fd, write_fd = os.pipe()
    try:
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except (AttributeError, OSError):
        pass  # no F_SETPIPE_SZ, or a size above the system's limit: keep the default
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:

                def emit(block):
                    pickle.dump(block, pipe)
                    pipe.flush()

                try:
                    result = front(emit)
                except BaseException as exc:  # raised again in the parent
                    result = exc
                pickle.dump(None, pipe)
                pickle.dump(result, pipe)
        finally:
            os._exit(0)
    os.close(write_fd)

    def load(pipe):
        try:  # EOF, or a cut-off pickle, if the child died before the end
            return pickle.load(pipe)
        except Exception as exc:
            raise IrlobsError("the measuring process ended without a result") from exc

    try:
        with open(read_fd, "rb") as pipe:
            while (block := load(pipe)) is not None:
                take(block)
            result = load(pipe)
        if isinstance(result, BaseException):
            raise result
        return result
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def run_experiment(cfg):
    """Simulate the demonstrator and run OnlineIrl on its measurements.

    Records the calibration stack, then per grid step advances the
    demonstrator, draws one oracle query in query mode, steps the
    estimator through OnlineIrl.measure, drain and offer, and every
    report_stride steps and at the last step logs the estimation errors
    against ground truth.  Where os.fork exists, the run is a two-process
    pipeline: a child runs _measure_run, and this process offers the
    drained steps it streams and logs W_hat - W (see _pipelined); no
    output bit depends on which.  Deterministic for a fixed config and seed.
    """
    t_start = time.perf_counter()
    n, m = cfg.n, cfg.m
    plant, cost, basis = cfg.plant(), cfg.cost(), cfg.basis()
    demo = make_demonstrator(plant, cost)
    _check_rk4_step(demo.a_cl, cfg.dt, "run.dt")
    _check_rk4_step(demo.a_cl, cfg.excitation_dt, "gains.excitation_dt")

    steps = cfg.steps
    w_true = ideal_weights(basis, demo.riccati_p, cost.w_q, cost.r_diag)

    param_stack = ParamHistoryStack(cfg.param_capacity, theta_dim(n, m), cfg.min_eig_threshold)
    prerecord_param_stack(demo, cfg, param_stack)
    online = OnlineIrl(cfg, param_stack, cfg.x0[:n], optimal_action(demo, cfg.x0), cfg.w0)

    w_rows = [online.weights - w_true] if steps > 0 else []
    counter = itertools.count(1)

    def take(block):
        # block first, so that zip draws no step number past the block's end
        for entries, k in zip(Entry.block(*block), counter):
            online.offer(entries)
            if k % cfg.report_stride == 0 or k == steps:
                w_rows.append(online.weights - w_true)

    front = functools.partial(_measure_run, cfg, demo, online)
    gamma_lo, gamma_hi, truth = _pipelined(front, take) if hasattr(os, "fork") else front(take)
    # a reshape fails loudly unless both processes logged the same report steps
    truth = np.reshape(truth, (len(w_rows), 1 + 2 * n + theta_dim(n, m)))

    irl_stack, w_final = online.irl_stack, online.weights
    residual = irl_stack.sigma_matrix @ w_final - irl_stack.rhs_vector
    final_residual = float(np.linalg.norm(residual)) if irl_stack.size > 0 else float("nan")

    return RunReport(
        t=truth[:, 0],
        p_tilde=truth[:, 1 : 1 + n],
        q_tilde=truth[:, 1 + n : 1 + 2 * n],
        theta_tilde=truth[:, 1 + 2 * n :],
        w_tilde=np.asarray(w_rows).reshape(len(w_rows), basis.width(m)),
        purge_count=online.purge_state.purge_count,
        queries=steps if cfg.mode == "query" else 0,
        final_kappa=irl_stack.kappa,
        final_gram_kappa=irl_stack.gram_kappa,
        final_residual=final_residual,
        gamma_eig_min=gamma_lo,
        gamma_eig_max=gamma_hi,
        w_true=w_true,
        w_final=w_final,
        wall_clock_seconds=time.perf_counter() - t_start,
        trace=online.trace,
        config=copy.deepcopy(cfg.raw),
    )


def _fmt(value):
    return repr(float(value))


def write_report(report, out_dir):
    """Write the four error-series CSVs and summary.json; returns the paths.

    CSVs are RFC 4180 (CRLF, header row) with t to six decimal places; the
    summary omits wall-clock so identical runs write identical bytes.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    series = [
        ("ptilde.csv", "ptilde", report.p_tilde),
        ("qtilde.csv", "qtilde", report.q_tilde),
        ("thetatilde.csv", "thetatilde", report.theta_tilde),
        ("wtilde.csv", "wtilde", report.w_tilde),
    ]
    paths = []
    for fname, prefix, arr in series:
        path = out / fname
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            ncols = arr.shape[1]
            writer.writerow(["t"] + [f"{prefix}_{i + 1}" for i in range(ncols)] + ["norm"])
            for t, row in zip(report.t, arr):
                writer.writerow(
                    [f"{t:.6f}"] + [_fmt(v) for v in row] + [_fmt(np.linalg.norm(row))]
                )
        paths.append(path)

    w_true_norm = float(np.linalg.norm(report.w_true))
    final = {
        "p_tilde_norm": float(report.norms("p_tilde")[-1]) if report.t.size else None,
        "q_tilde_norm": float(report.norms("q_tilde")[-1]) if report.t.size else None,
        "theta_tilde_norm": float(report.norms("theta_tilde")[-1]) if report.t.size else None,
        "w_tilde_norm": float(report.norms("w_tilde")[-1]) if report.t.size else None,
        "w_tilde_rel": (
            float(report.norms("w_tilde")[-1] / w_true_norm)
            if report.t.size and w_true_norm > 0
            else None
        ),
        "kappa": report.final_kappa,
        "gram_kappa": report.final_gram_kappa,
        "lstsq_residual": report.final_residual,
    }
    summary = {
        "seed": report.config["run"]["seed"],
        "mode": report.config["run"]["mode"],
        "purge_count": report.purge_count,
        "queries": report.queries,
        "gamma_eig_min": report.gamma_eig_min,
        "gamma_eig_max": report.gamma_eig_max,
        "final": final,
        "config": report.config,
    }
    spath = out / "summary.json"
    with open(spath, "w") as fh:
        json.dump(_sanitize(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths.append(spath)
    return paths


def _sanitize(obj):
    """Make numpy scalars/inf/nan JSON-representable."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if np.isnan(v):
            return "nan"
        if np.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj
