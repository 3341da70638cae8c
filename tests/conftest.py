"""Shared fixtures: the default linear-quadratic system, a prerecorded
parameter stack, and a fully logged estimator run used across test modules."""

from dataclasses import dataclass

import numpy as np
import pytest

from irlobs.errors import RankDeficiencyError
from irlobs.estimator import (
    AdaptiveObserver,
    EstimatorGains,
    ParamHistoryStack,
    integral_regressor,
    integral_residual,
    model_matrices,
    theta_dim,
)
from irlobs.experiment import _excitation, default_config, prerecord_param_stack
from irlobs.irl import Entry, entry_rows, eval_features, read_lazy, solve_weights
from irlobs.numerics import SampledSignal, linear_rk4_matrices, linear_rollout, rk4_step
from irlobs.plant import CostFunction, LinearPlant, make_demonstrator, optimal_action

DEFAULT_A = np.array([[1.0, 1.0, -1.0, 1.0], [5.0, 1.0, 1.0, 1.0]])
DEFAULT_B = np.array([[1.0, 3.0], [0.0, 1.0]])
DEFAULT_WQ = np.array([1.0, 2.0, 3.0, 6.0])
DEFAULT_RDIAG = np.array([20.0, 10.0])
X0 = np.array([2.0, -2.0, 1.0, -1.0])


def default_gains():
    return EstimatorGains(
        k_theta=0.3 / 150, beta1=5.0, alpha=20.0, beta=10.0, k=100.0, t1=1.0, t2=0.8
    )


def cumulative_trapezoid(y, dt):
    """Cumulative composite-trapezoid values of a sampled series."""
    out = np.zeros_like(np.asarray(y, dtype=float))
    out[1:] = np.cumsum(0.5 * dt * (y[:-1] + y[1:]), axis=0)
    return out


def signal_of(dt, window, values):
    """A SampledSignal of window seconds holding the rows of values, the
    first at step 0 and t = 0."""
    values = np.asarray(values, dtype=float)
    sig = SampledSignal(values.shape[1], dt, window)
    sig.extend(0.0, values)
    return sig


def simulate_demonstrator(demo, x0, duration, dt):
    """Simulate the closed loop and log position and input on the grid.

    Returns (p_log, u_log), step k at time k * dt; the internal velocity is
    never exposed so that downstream consumers stay output-feedback honest.
    """
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    n = demo.plant.n
    x = np.asarray(x0, dtype=float).copy()
    field = lambda _t, x: demo.a_cl @ x
    steps = int(round(duration / dt))
    p_log = SampledSignal(n, dt, window=duration + dt)
    u_log = SampledSignal(demo.plant.m, dt, window=duration + dt)
    p_log.append(0.0, x[:n])
    u_log.append(0.0, optimal_action(demo, x))
    for k in range(steps):
        x = rk4_step(field, k * dt, x, dt)
        t = (k + 1) * dt
        p_log.append(t, x[:n])
        u_log.append(t, optimal_action(demo, x))
    return p_log, u_log


def whole_array_rows(demo, x0, dt, steps, amplitude=None):
    """The states and inputs of the closed loop from x0, its input dithered
    by amplitude (experiment._excitation) or not at all, simulated in one
    piece: one linear_rollout of every step, the reference of
    experiment.closed_loop_source's blocks."""
    plant = demo.plant
    phi, w0, wh, w1 = linear_rk4_matrices(demo.a_cl, plant.b_prime, dt)
    if amplitude is None:
        states = linear_rollout(phi, np.zeros((steps, 2 * plant.n)), x0)
        return states, states @ (-demo.k_fb.T)
    dither_half = _excitation((0.5 * dt) * np.arange(2 * steps + 1), plant.m, amplitude)
    drive = dither_half[0:-1:2] @ w0.T + dither_half[1::2] @ wh.T + dither_half[2::2] @ w1.T
    states = linear_rollout(phi, drive, x0)
    return states, states @ (-demo.k_fb.T) + dither_half[0::2]


def eval_features_loop(basis, x, u):
    """Reference for irl.eval_features: one monomial at a time."""
    x = np.asarray(x, dtype=float)
    sigma_v = np.empty(basis.num_v)
    grad = np.zeros((basis.num_v, basis.dim))
    for k, (i, j) in enumerate(basis.v_monomials):
        sigma_v[k] = x[i] * x[j]
        if i == j:
            grad[k, i] = 2.0 * x[i]
        else:
            grad[k, i] = x[j]
            grad[k, j] = x[i]
    sigma_q = np.array([x[i] * x[j] for i, j in basis.q_monomials])
    u = np.asarray(u, dtype=float)
    return sigma_v, grad, sigma_q, u * u


def model_of(theta, x, u):
    """estimator.model_matrices of the parameter vector theta of the plant
    whose state is x and whose input is u."""
    return model_matrices(theta, np.size(x) // 2, np.size(u))


def inverse_bellman_row(basis, x_hat, u, theta_hat, r1):
    """Independent reference for row 0 of irl.entry_rows: the
    inverse-Bellman row and its right-hand side -r1 u1^2."""
    u = np.asarray(u, dtype=float)
    _, grad, sigma_q, sigma_u = eval_features(basis, x_hat, u)
    a_prime, b_prime = model_of(theta_hat, x_hat, u)
    xdot = a_prime @ np.asarray(x_hat, dtype=float) + b_prime @ u
    row = np.concatenate([grad @ xdot, sigma_q, sigma_u[1:]])
    return row, -r1 * sigma_u[0]


def controller_rows(basis, x_hat, u, theta_hat, r1):
    """Independent reference for rows 1: of irl.entry_rows: one stationarity
    row per input channel; the first moves the known -2 r1 u1 to the
    right-hand side, channels 2..m keep 2 u_i against their R weight."""
    u = np.asarray(u, dtype=float)
    m = u.size
    _, grad, _, _ = eval_features(basis, x_hat, u)
    rows = np.zeros((m, basis.width(m)))
    rows[:, : basis.num_v] = model_of(theta_hat, x_hat, u)[1].T @ grad.T
    rhs = np.zeros(m)
    rhs[0] = -2.0 * r1 * u[0]
    for i in range(1, m):
        rows[i, basis.num_v + basis.num_q + i - 1] = 2.0 * u[i]
    return rows, rhs


class SlotEntries:
    """The entry that GramStack.put stored in each slot of a stack, in slot
    order, noted by a wrapper of the stack's _store hook from this object's
    construction on; calling it gives them as a list."""

    def __init__(self, stack):
        self._stack, self._slots, store = stack, [], stack._store

        def noting(i, entry):
            store(i, entry)  # first: an entry that _store rejects is not stored
            del self._slots[stack.size :]  # the entries a clear dropped
            self._slots[i : i + 1] = [entry]

        stack._store = noting

    def __call__(self):
        return self._slots[: self._stack.size]


def exhaustive_param_slot(stack, regressor):
    """Reference for ParamHistoryStack.record on a full stack: score every
    swap with one batched eigvalsh, take the first argmax of lambda_min and
    apply the commit rule.  Returns the slot it commits to, or None."""
    block = regressor.T @ regressor
    lam = np.linalg.eigvalsh((stack.gram + block)[None, :, :] - stack.blocks[: stack.size])
    slot = int(np.argmax(lam[:, 0]))
    rounding = stack.dim * np.finfo(float).eps * lam[slot, -1]
    return None if lam[slot, 0] <= stack.min_eigenvalue + rounding else slot


def gram_kappas(lam):
    """Reference Gram condition numbers of ascending spectra (rows): inf
    unless lambda_min exceeds width*eps*lambda_max > 0."""
    lo, hi = lam[..., 0], lam[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((hi > 0.0) & (lo > hi * lam.shape[-1] * np.finfo(float).eps), hi / lo, np.inf)


def make_entry(stack, x, u, theta, eta=0.0, t=0.0):
    """The Entry offered to data_select for the pair (x, u) under the
    parameter estimate theta, with the stack's basis and r1."""
    rows, rhs = entry_rows(stack.basis, x, u, *model_of(theta, x, u), stack.r1)
    return Entry.of(rows, rhs, eta, t)


def exhaustive_irl_slot(stack, entry, xi1):
    """Reference for data_select on a full stack: score every swap's Gram
    condition number with one batched eigvalsh, take the first argmin and
    apply the commit and right-hand-side rules.  Returns the slot it commits
    to, or None."""
    lam = np.linalg.eigvalsh((stack.gram + entry.gram)[None, :, :] - stack.blocks[: stack.size])
    kappas = gram_kappas(lam)
    slot = int(np.argmin(kappas))
    rounding = 1.0 + stack.dim * np.finfo(float).eps * kappas[slot]
    rhs_sq = stack.rhs_sq - stack._rhs_sq[slot] + entry.rhs_sq
    if kappas[slot] * rounding < xi1 * stack.gram_kappa and np.sqrt(max(rhs_sq, 0.0)) >= stack.xi2:
        return slot
    return None


def eager_purge_policy(ps, stack, eta_now):
    """Reference for purge.purge_policy that solves the weights at the gate
    itself, holding the previous estimate on a rank-deficient solve."""
    gram_kappa = stack.gram_kappa
    if gram_kappa < ps.kappa1_bar and ps.varpi == 1 and stack.sigma_u1_norm >= stack.xi2:
        try:
            ps.w_current = solve_weights(stack.sigma_matrix, stack.rhs_vector)
        except RankDeficiencyError:
            pass
    if gram_kappa < ps.kappa2_bar and read_lazy(eta_now) < stack.eta_min:
        stack.clear()
        ps.purge_count += 1
    return ps.w_current


@pytest.fixture(scope="session")
def default_system():
    plant = LinearPlant(a=DEFAULT_A.copy(), b=DEFAULT_B.copy())
    cost = CostFunction(dim=4, w_q=DEFAULT_WQ.copy(), r_diag=DEFAULT_RDIAG.copy())
    demo = make_demonstrator(plant, cost)
    return plant, cost, demo


@pytest.fixture(scope="session")
def double_integrator():
    plant = LinearPlant(a=np.array([[0.0, 0.0]]), b=np.array([[1.0]]))
    cost = CostFunction(dim=2, w_q=np.array([1.0, 1.0]), r_diag=np.array([1.0]))
    demo = make_demonstrator(plant, cost)
    return plant, cost, demo


@pytest.fixture(scope="session")
def prerecorded_stack(default_system):
    _, _, demo = default_system
    stack = ParamHistoryStack(capacity=150, dim=theta_dim(2, 2), min_eig_threshold=1e-3)
    prerecord_param_stack(demo, default_config(), stack)
    return stack


@dataclass
class EstimatorRun:
    """Complete logs of a closed-loop run with the estimator attached."""

    dt: float
    gains: EstimatorGains
    times: np.ndarray
    x_true: np.ndarray
    u: np.ndarray
    p_hat: np.ndarray
    q_hat: np.ndarray
    eta: np.ndarray
    nu: np.ndarray
    p_tilde: np.ndarray
    theta: np.ndarray
    theta_rate: np.ndarray
    gamma_eigs: np.ndarray
    p_log: SampledSignal
    u_log: SampledSignal
    theta_true: np.ndarray
    stack: ParamHistoryStack

    @property
    def q_true(self):
        n = self.p_hat.shape[1]
        return self.x_true[:, n:]

    @property
    def q_tilde(self):
        return self.q_true - self.q_hat

    @property
    def theta_tilde(self):
        return self.theta_true[None, :] - self.theta


def drive_estimator(
    demo,
    duration,
    dt,
    stack,
    gains=None,
    x0=X0,
    theta0=None,
    q_hat0=None,
    record_stride=0,
    update_parameters=True,
):
    """Run the demonstrator with the estimator attached, logging everything.

    record_stride > 0 also feeds the error-system pairs into the stack as
    the run progresses (the stack is mutated).
    """
    plant = demo.plant
    n, m = plant.n, plant.m
    gains = gains or default_gains()
    field = lambda _t, x: demo.a_cl @ x
    steps = int(round(duration / dt))
    t1, t2 = round(gains.t1 / dt), round(gains.t2 / dt)
    x = np.asarray(x0, dtype=float).copy()
    u = optimal_action(demo, x)
    p_log = SampledSignal(n, dt, window=duration + dt)
    u_log = SampledSignal(m, dt, window=duration + dt)
    p_log.append(0.0, x[:n])
    u_log.append(0.0, u)
    obs = AdaptiveObserver(
        n, m, p0=x[:n], u0=u, gains=gains, theta0=theta0, q_hat0=q_hat0
    )
    logs = {
        "x": [x.copy()], "u": [u.copy()], "p_hat": [obs.p_hat.copy()],
        "q_hat": [obs.q_hat.copy()], "eta": [obs.eta.copy()], "nu": [obs.nu.copy()],
        "p_tilde": [obs.p_tilde.copy()], "theta": [obs.theta.copy()],
        "theta_rate": [obs.theta_rate.copy()],
    }
    # the gain is P^-1, so its extreme eigenvalues are 1/eig(P), reversed
    gamma_eigs = [1.0 / np.linalg.eigvalsh(obs.info)[[-1, 0]]]
    for k in range(steps):
        x = rk4_step(field, k * dt, x, dt)
        t = (k + 1) * dt
        u = optimal_action(demo, x)
        p_log.append(t, x[:n])
        u_log.append(t, u)
        if record_stride and k + 1 >= t1 + t2 and (k + 1) % record_stride == 0:
            stack.record(
                integral_residual(p_log, k + 1, t1, t2),
                integral_regressor(p_log, u_log, k + 1, t1, t2),
            )
        if update_parameters:
            obs.update_parameters(stack, dt)
        obs.step(x[:n], u, dt)
        for key, val in (
            ("x", x), ("u", u), ("p_hat", obs.p_hat), ("q_hat", obs.q_hat),
            ("eta", obs.eta), ("nu", obs.nu), ("p_tilde", obs.p_tilde),
            ("theta", obs.theta), ("theta_rate", obs.theta_rate),
        ):
            logs[key].append(val.copy())
        gamma_eigs.append(1.0 / np.linalg.eigvalsh(obs.info)[[-1, 0]])
    return EstimatorRun(
        dt=dt,
        gains=gains,
        times=dt * np.arange(steps + 1),
        x_true=np.asarray(logs["x"]),
        u=np.asarray(logs["u"]),
        p_hat=np.asarray(logs["p_hat"]),
        q_hat=np.asarray(logs["q_hat"]),
        eta=np.asarray(logs["eta"]),
        nu=np.asarray(logs["nu"]),
        p_tilde=np.asarray(logs["p_tilde"]),
        theta=np.asarray(logs["theta"]),
        theta_rate=np.asarray(logs["theta_rate"]),
        gamma_eigs=np.asarray(gamma_eigs),
        p_log=p_log,
        u_log=u_log,
        theta_true=plant.theta,
        stack=stack,
    )


@pytest.fixture(scope="session")
def default_run(default_system, prerecorded_stack):
    """A 12 s fully logged run on the default system with the prerecorded
    stack; shared read-only by estimator and purge tests."""
    _, _, demo = default_system
    import copy

    stack = copy.deepcopy(prerecorded_stack)
    return drive_estimator(demo, duration=12.0, dt=1e-3, stack=stack, record_stride=10)
