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
    theta_dim,
)
from .irl import (
    Entry,
    FeatureBasis,
    IrlHistoryStack,
    WeightVector,
    data_select,
    entry_rows,
    ideal_weights,
    read_lazy,
)
from .numerics import SampledSignal, linear_rk4_matrices, linear_rollout, rk4_step
from .plant import (
    CostFunction,
    LinearPlant,
    closed_loop_field,
    make_demonstrator,
    optimal_action,
    query,
)
from .purge import (
    PurgeState,
    QualityConfig,
    eta2_inputs,
    purge_policy,
    quality_eta1,
    quality_eta2,  # unused here, but bench/tracing.py wraps experiment.quality_eta2
    quality_eta2_block,
    smooth_velocity,
)

MODES = ("observed", "query")
_GAMMA_BATCH = 256  # gain matrices per batched eigvalsh in run_experiment
_PIPE_BATCH = 32  # measured steps per η block and per write to the pipe in _pipelined
_PIPE_BYTES = 1 << 20  # the pipe's capacity in _pipelined, where the platform sets it
DEFAULTS_PATH = Path(__file__).with_name("default_config.json")


def default_config_dict():
    """The shipped default experiment (default_config.json), freshly parsed."""
    with open(DEFAULTS_PATH) as fh:
        return json.load(fh)


def _merge(base, override, path=""):
    for key, val in override.items():
        if key not in base:
            raise ConfigError(f"unknown config field '{path}{key}'")
        if isinstance(base[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config section '{path}{key}' must be an object")
            _merge(base[key], val, path=f"{path}{key}.")
        else:
            base[key] = val
    return base


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
    gains.excitation_dt, and the quality horizon in run.dt.  Any invalid,
    non-finite or off-grid entry raises ConfigError naming the field.
    """

    def __init__(self, raw):
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


def prerecord_param_stack(demo, cfg, stack):
    """Fill the parameter history stack from an excited calibration maneuver.

    Along a pure feedback trajectory the input window integrals are an
    exact linear image of the position window integrals, so the regressor
    Gram can never reach full rank; the stack is therefore recorded from a
    run with a deterministic dither on top of the optimal policy, standing
    in for rich data gathered before observation starts.
    """
    plant = demo.plant
    n, m = plant.n, plant.m
    dt, steps = cfg.excitation_dt, cfg.excitation_steps
    t1, t2 = cfg.excitation_windows

    # closed loop driven by the dither is linear time-invariant, so one set
    # of RK4 step matrices advances the whole calibration trajectory
    phi, w0, wh, w1 = linear_rk4_matrices(demo.a_cl, plant.b_prime, dt)
    dither_half = _excitation((0.5 * dt) * np.arange(2 * steps + 1), m, cfg.excitation_amplitude)
    drive = dither_half[0:-1:2] @ w0.T + dither_half[1::2] @ wh.T + dither_half[2::2] @ w1.T
    states = linear_rollout(phi, drive, cfg.x0)
    if not np.isfinite(states).all():
        raise NumericOverflowError("calibration run diverged")
    inputs = states @ (-demo.k_fb.T) + dither_half[0::2]

    window = cfg.excitation_duration + dt
    p_log = SampledSignal.from_samples(dt, window, 0.0, states[:, :n])
    u_log = SampledSignal.from_samples(dt, window, 0.0, inputs)
    for k in range(t1 + t2, steps + 1):
        if k % cfg.excitation_stride == 0:
            stack.record(
                integral_residual(p_log, k, t1, t2),
                integral_regressor(p_log, u_log, k, t1, t2),
            )
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
    """The online estimator, stepped once per measurement.

    step(t, p, u, queries) takes the position and input measured one grid
    step after the last, plus any oracle pairs (x*, u*) to offer.  It
    records the parameter stack, advances the observer, and offers the
    estimated pair and each query, with the estimate-quality score, to the
    IRL stack under the weight-update/purge policy.  It sees nothing else:
    param_stack comes filled by a calibration maneuver (see
    prerecord_param_stack), and w0 is the stacked initial weight guess.
    step is measure, score_eta and candidate_rows, the estimator, then
    offer, the cost recovery, which reads nothing that the others write;
    score_eta may also score the η of many measured steps in one block.
    """

    def __init__(self, cfg, param_stack, p0, u0, w0):
        n, m = cfg.n, cfg.m
        gains = cfg.gains()
        self.quality = quality = cfg.quality()
        basis, r1 = cfg.basis(), cfg.cost().r1
        self.dt = dt = cfg.dt
        self.windows = cfg.windows
        self.record_stride = cfg.record_stride
        self.param_stack = param_stack
        self.steps = 0
        # first step with both the full horizon and the smoothing window available
        self.eta_floor_step = quality.horizon + quality.half_width

        window = max(gains.t1 + gains.t2, (quality.horizon + quality.half_width + 2) * dt)
        self.p_log = SampledSignal(n, dt, window + 4 * dt)
        self.u_log = SampledSignal(m, dt, window + 4 * dt)
        self.qhat_log = SampledSignal(n, dt, (quality.horizon + 4) * dt)
        self.p_log.append(0.0, p0)
        self.u_log.append(0.0, u0)
        self.observer = AdaptiveObserver(n, m, p0=p0, u0=u0, gains=gains,
                                         gamma_scale=cfg.gamma0)
        self.qhat_log.append(0.0, self.observer.q_hat)
        self.irl_stack = IrlHistoryStack(cfg.irl_capacity, basis, r1, m, xi2=cfg.xi2)
        self.xi1 = cfg.xi1
        w_start = WeightVector.from_stacked(w0, basis.num_v, basis.num_q, r1)
        self.purge_state = PurgeState(cfg.kappa1_bar, cfg.kappa2_bar, w_current=w_start)
        self.trace = RunTrace()

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
        x_hat, theta, pending = self.measure(t, p, u)
        (eta,) = self.score_eta([pending])
        self.offer(t, eta, self.candidate_rows(x_hat, u, theta, queries))

    def measure(self, t, p, u):
        """The estimator half of step: log (p, u) at time t, record the
        parameter stack, advance the adaptation law and the observer, and
        take what the step's quality η reads.  Returns (x_hat, theta,
        pending): the state estimate, the ThetaVector and score_eta's input
        for this step, None before eta_floor_step."""
        observer, (t1, t2) = self.observer, self.windows
        # a rejected measurement leaves every log and counter as it was
        self.p_log.check(t, p)
        self.u_log.check(t, u)
        self.steps += 1
        k = self.steps
        self.p_log.append(t, p)
        self.u_log.append(t, u)
        if k >= t1 + t2 and k % self.record_stride == 0:
            self.param_stack.record(
                integral_residual(self.p_log, k, t1, t2),
                integral_regressor(self.p_log, self.u_log, k, t1, t2),
            )
        observer.update_parameters(self.param_stack, self.dt)
        observer.step(p, u, self.dt)
        self.qhat_log.append(t, observer.q_hat)

        theta_v = observer.theta_vector
        pending = self._eta_inputs(k, theta_v) if k >= self.eta_floor_step else None
        return observer.x_hat, theta_v, pending

    def score_eta(self, pendings):
        """The quality η of each step whose pending (of measure) is listed,
        in the same order: eta1 plus the step's quality_eta2, all rollouts
        in one quality_eta2_block, and inf where pending is None."""
        scored = [pending[1] for pending in pendings if pending is not None]
        eta2 = iter(quality_eta2_block(scored, self.quality, self.dt) if scored else ())
        return [float("inf") if pending is None else pending[0] + float(next(eta2))
                for pending in pendings]

    def candidate_rows(self, x_hat, u, theta, queries=()):
        """The IRL rows and right-hand side (irl.entry_rows) of the
        estimated pair (x_hat, u) and of each oracle pair, under theta."""
        basis, r1 = self.irl_stack.basis, self.irl_stack.r1
        return [entry_rows(basis, x, v, theta, r1) for x, v in ((x_hat, u), *queries)]

    def offer(self, t, eta, rows):
        """The cost-recovery half of step: offer each (rows, rhs) of
        candidate_rows, with the quality eta of step t, to the IRL stack
        under the weight-update/purge policy.  Reads nothing that measure
        changes, so it may run in another process."""
        for block, rhs in rows:
            self._offer(Entry(block, rhs, eta, t))

    def _eta_inputs(self, k, theta_v):
        """(eta1, eta2_inputs) of step k, sharing one smoothed velocity."""
        quality = self.quality
        k0 = k - quality.horizon
        v_smooth = smooth_velocity(self.p_log, k0, quality.half_width)
        eta1 = quality_eta1(
            self.observer.p_tilde, self.qhat_log.rows(k0)[0], v_smooth, quality.s1
        )
        return eta1, eta2_inputs(self.p_log, self.u_log, theta_v, k, quality, v_smooth)

    def _offer(self, entry):
        stack, ps, trace = self.irl_stack, self.purge_state, self.trace
        kappa_before, size_before = stack.gram_kappa, stack.size
        varpi = data_select(stack, entry, self.xi1, stack.xi2)
        if varpi:
            branch = "append" if stack.size > size_before else "swap"
            trace.stores.append(
                (entry.t, branch, kappa_before, stack.gram_kappa, stack.sigma_u1_norm)
            )
        ps.varpi = varpi
        w_before, purges_before = ps.w_current, ps.purge_count
        eta_bar_before, kappa_gate, u1_gate = stack.eta_min, stack.gram_kappa, stack.sigma_u1_norm
        if purge_policy(ps, stack, entry.eta) is not w_before:
            trace.weight_updates.append((entry.t, varpi, kappa_gate, u1_gate))
        if ps.purge_count > purges_before:
            trace.purges.append((entry.t, kappa_gate, entry.eta, eta_bar_before))


def _measure_run(cfg, demo, online, steps, emit):
    """The measuring half of run_experiment: per grid step k = 1..steps,
    advance the demonstrator, draw one oracle query in query mode, call
    online.measure and build the IRL rows of the estimated pair and each
    query (OnlineIrl.candidate_rows).  Every _PIPE_BATCH steps, at the
    last step and before an exception leaves, it scores η for the steps
    since in one block (OnlineIrl.score_eta) and passes them to emit as a
    list of (k, x, x_hat, theta, (t, eta, rows)), theta the parameter
    vector and the last item offer's arguments.  Returns the bounds of the
    observer gain's spectrum over the run."""
    n, dt = cfg.n, cfg.dt
    field_fn = closed_loop_field(demo)
    rng = np.random.default_rng(cfg.seed)
    # the gain's spectrum is a report diagnostic: the gains of _GAMMA_BATCH
    # steps are solved in one batch, per matrix bitwise the single solves
    gammas = np.empty((_GAMMA_BATCH,) + online.observer.gamma.shape)
    gamma_lo, gamma_hi = np.inf, 0.0
    block = []  # (k, x, x_hat, theta, t, rows, pending) of the steps not yet emitted

    def flush():
        etas = online.score_eta([pending for *_, pending in block])
        ready = [(k, x, x_hat, theta, (t, eta, rows))
                 for (k, x, x_hat, theta, t, rows, _), eta in zip(block, etas)]
        block.clear()
        emit(ready)

    x = cfg.x0
    try:
        for k in range(steps):
            x = rk4_step(field_fn, k * dt, x, dt)
            t = (k + 1) * dt
            u = optimal_action(demo, x)
            queries = ()
            if cfg.mode == "query":
                x_star = rng.uniform(cfg.query_low, cfg.query_high)
                queries = ((x_star, query(demo, x_star)),)
            x_hat, theta, pending = online.measure(t, x[:n], u)
            rows = online.candidate_rows(x_hat, u, theta, queries)
            block.append((k + 1, x, x_hat, theta.theta, t, rows, pending))

            gammas[k % _GAMMA_BATCH] = online.observer.gamma
            if (k + 1) % _GAMMA_BATCH == 0 or k + 1 == steps:
                lam = np.linalg.eigvalsh(gammas[: k % _GAMMA_BATCH + 1])
                gamma_lo = min(gamma_lo, float(lam[:, 0].min()))
                gamma_hi = max(gamma_hi, float(lam[:, -1].max()))
            if (k + 1) % _PIPE_BATCH == 0 or k + 1 == steps:
                flush()
    except BaseException:
        flush()  # the steps measured before the error are offered first
        raise
    return gamma_lo, gamma_hi


def _pipelined(front, take, shapes):
    """front(emit) in a forked child, and here take(k, x, x_hat, theta,
    offered) for each step it emits; returns what front returns.

    The child writes each block it emits to a pipe of _PIPE_BYTES, one
    float64 row per step: the parts of the step's record, flattened, with
    shapes giving each part's shape in order ((t, eta), x, x_hat, theta,
    then the rows and right-hand side of each candidate).  A row of zeros
    (t = 0 is no measured step) ends the rows, and the pickled result of
    front, or the exception it raised, follows; that exception is raised
    here once the steps before it are taken.  An exception here kills the
    child, and the child is always reaped.
    """
    import fcntl  # POSIX only, like os.fork, which every caller has

    cuts = np.cumsum([0] + [math.prod(shape) for shape in shapes]).tolist()
    size = 8 * cuts[-1]
    read_fd, write_fd = os.pipe()
    try:
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except (AttributeError, OSError):
        pass  # no F_SETPIPE_SZ, or a size above the system's limit: keep the default
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            with open(write_fd, "wb", buffering=size * _PIPE_BATCH) as pipe:

                def emit(block):
                    for _, x, x_hat, theta, (t, eta, rows) in block:
                        parts = (part.ravel() for pair in rows for part in pair)
                        pipe.write(np.concatenate([(t, eta), x, x_hat, theta, *parts]))
                    pipe.flush()

                try:
                    result = front(emit)
                except BaseException as exc:  # raised again in the parent
                    result = exc
                pipe.write(bytes(size))
                pickle.dump(result, pipe)
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            for k in itertools.count(1):
                data = pipe.read(size)
                if len(data) < size or data[:8] == bytes(8):
                    break
                row = np.frombuffer(data)
                (t, eta), x, x_hat, theta, *rows = (
                    row[a:b].reshape(shape).copy() for a, b, shape in zip(cuts, cuts[1:], shapes)
                )
                take(k, x, x_hat, theta, (float(t), float(eta), list(zip(rows[::2], rows[1::2]))))
            try:  # after the end row; EOF if the child died before it
                result = pickle.load(pipe)
            except Exception as exc:
                raise IrlobsError("the measuring process ended without a result") from exc
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
    estimator, and every report_stride steps and at the last step logs
    the estimation errors against ground truth.  Where os.fork exists,
    the run is a two-process pipeline: a child runs the demonstrator, the
    oracle, OnlineIrl.measure, the η blocks and the IRL rows, and this
    process runs OnlineIrl.offer and the report rows on the records it
    streams (see _pipelined); no output bit depends on which.
    Deterministic for a fixed config and seed.
    """
    t_start = time.perf_counter()
    n, m = cfg.n, cfg.m
    plant, cost, basis = cfg.plant(), cfg.cost(), cfg.basis()
    demo = make_demonstrator(plant, cost)
    dt = cfg.dt
    _check_rk4_step(demo.a_cl, dt, "run.dt")
    _check_rk4_step(demo.a_cl, cfg.excitation_dt, "gains.excitation_dt")

    steps = cfg.steps
    report_stride = cfg.report_stride
    theta_true = plant.theta
    w_true = ideal_weights(basis, demo.riccati_p, cost.w_q, cost.r_diag).stacked

    param_stack = ParamHistoryStack(cfg.param_capacity, theta_dim(n, m), cfg.min_eig_threshold)
    prerecord_param_stack(demo, cfg, param_stack)
    online = OnlineIrl(cfg, param_stack, cfg.x0[:n], optimal_action(demo, cfg.x0), cfg.w0)

    rows = []  # (t, p - p_hat, q - q_hat, theta - theta_hat, W_hat - W)

    def log_row(t, x, x_hat, theta):
        x_tilde = x - x_hat
        rows.append((t, x_tilde[:n], x_tilde[n:], theta_true - theta,
                     online.weights.stacked - w_true))

    def take(k, x, x_hat, theta, offered):
        online.offer(*offered)
        if k % report_stride == 0 or k == steps:
            log_row(offered[0], x, x_hat, theta)

    def take_block(block):
        for record in block:
            take(*record)

    if steps > 0:
        log_row(0.0, cfg.x0, online.x_hat, online.theta)
    front = functools.partial(_measure_run, cfg, demo, online, steps)
    if hasattr(os, "fork"):
        candidates = 2 if cfg.mode == "query" else 1
        shapes = [(2,), (2 * n,), (2 * n,), (theta_dim(n, m),)]
        shapes += [(1 + m, basis.width(m)), (1 + m,)] * candidates
        gamma_lo, gamma_hi = _pipelined(front, take, shapes)
    else:
        gamma_lo, gamma_hi = front(take_block)

    irl_stack, w_final = online.irl_stack, online.weights.stacked
    final_residual = float("nan")
    if irl_stack.size > 0:
        final_residual = float(
            np.linalg.norm(irl_stack.sigma_matrix @ w_final - irl_stack.rhs_vector)
        )

    def series(column, width):
        if rows:
            return np.asarray([row[column] for row in rows])
        return np.zeros((0, width))

    return RunReport(
        t=np.asarray([row[0] for row in rows]),
        p_tilde=series(1, n),
        q_tilde=series(2, n),
        theta_tilde=series(3, theta_dim(n, m)),
        w_tilde=series(4, basis.width(m)),
        purge_count=online.purge_state.purge_count,
        queries=steps if cfg.mode == "query" else 0,
        final_kappa=irl_stack.kappa,
        final_gram_kappa=irl_stack.gram_kappa,
        final_residual=final_residual,
        gamma_eig_min=float(gamma_lo) if steps > 0 else float("nan"),
        gamma_eig_max=float(gamma_hi) if steps > 0 else float("nan"),
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
