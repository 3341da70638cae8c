"""Estimate-quality indicators and the stack purge/update policy.

Quality is scored from residuals: a noncausal smoothed velocity checks the
state estimate, and a short model rollout against the measured positions
checks the parameter estimate.  Both indicators vanish as the estimates
converge, which is what lets the policy recognize that freshly recorded
data beats everything currently stored and purge the stack.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, RankDeficiencyError
from .estimator import model_matrices
from .irl import solve_weights
from .numerics import linear_rk4_matrices, linear_rollout

_ROLLOUT_NORM_CAP = 1e12


@dataclass
class QualityConfig:
    """Horizon and weighting for the quality indicators, in grid steps.

    horizon is both the smoothing lag and the rollout length; s1 weighs the
    state-estimate residual, s2 the rollout prediction error.  The rollout
    is integrated on a grid coarsened by rollout_stride measurement steps,
    an even number dividing the horizon, so that its RK4 half steps are
    samples too.
    """

    horizon: int
    s1: np.ndarray
    s2: np.ndarray
    half_width: int
    rollout_stride: int = 20

    def __post_init__(self):
        self.s1 = np.asarray(self.s1, dtype=float)
        self.s2 = np.asarray(self.s2, dtype=float)
        if self.horizon <= 0:
            raise ArgumentError("horizon", "horizon must be positive")
        if self.half_width < 1:
            raise ArgumentError("half_width", "half_width must be at least 1")
        if self.rollout_stride < 2 or self.rollout_stride % 2:
            raise ArgumentError("rollout_stride", "rollout_stride must be a positive even number")
        if self.horizon % self.rollout_stride:
            raise ArgumentError("horizon", "horizon must be a whole number of rollout strides")
        if self.horizon < 2 * self.half_width + 1:
            raise ArgumentError("horizon", "horizon is shorter than the smoothing window")
        for name, s in (("s1", self.s1), ("s2", self.s2)):
            if s.ndim != 2 or s.shape[0] != s.shape[1]:
                raise ArgumentError(name, f"{name} must be square")
            if np.linalg.norm(s - s.T) > 1e-12 * max(1.0, np.linalg.norm(s)):
                raise ArgumentError(name, f"{name} must be symmetric")
            if np.min(np.linalg.eigvalsh(s)) < -1e-10:
                raise ArgumentError(name, f"{name} must be positive semidefinite")


def smooth_velocity(p_log, center, half_width, count=None):
    """Velocity estimate from a local quadratic fit around step center.

    Per coordinate, fits the 2*half_width+1 samples centered at that step
    by least squares and returns the fitted derivative at the center;
    exact on trajectories that are polynomials of degree <= 2 over the
    window.  Noncausal: needs samples on both sides of the center.  With
    a count, the estimates at count consecutive centers from center on,
    as rows, each bitwise that of its own call.
    """
    w = int(half_width)
    offsets = np.arange(-w, w + 1)
    vals = _windows(p_log.rows(center - w, 2 * w + (count or 1)), 2 * w + 1, 1)
    # symmetric stencil: the quadratic term drops out of the slope
    v = (offsets @ vals) / (p_log.dt * float(offsets @ offsets))
    return v if count else v[0]


def _windows(rows, size, stride):
    """The windows rows[j : j + size : stride] of every start j that fits,
    as one contiguous (starts, ceil(size / stride), dim) array."""
    view = np.lib.stride_tricks.sliding_window_view(rows, size, axis=0)
    return np.ascontiguousarray(view[:, :, ::stride].swapaxes(1, 2))


def quality_eta1(p_tilde, q_hat_lagged, v_smooth, s1):
    """State-estimate quality score.

    Quadratic form of the stacked residual [position error now; lagged
    velocity estimate minus the smoothed velocity]; zero for perfect
    estimates and nonnegative for positive semidefinite s1.  The arguments
    but s1 may carry a leading axis of steps, each scored bitwise as by
    its own call.
    """
    p_tilde, q_hat_lagged = np.asarray(p_tilde, float), np.asarray(q_hat_lagged, float)
    xbar = np.concatenate([p_tilde, q_hat_lagged - v_smooth], axis=-1)
    return (xbar[..., None, :] @ s1 @ xbar[..., None])[..., 0, 0]


def quality_eta2(p_log, u_log, theta_hat, k, quality, v0):
    """Parameter-estimate quality score at step k.

    Rolls the model of the parameter estimate theta_hat (see
    estimator.model_matrices) out over the quality.horizon steps up to k
    from the measured position and the smoothed velocity v0 at their first
    step (smooth_velocity with quality.half_width, as quality_eta1 reads
    it), replaying the logged input, and integrates the squared position
    prediction error under s2.  Returns +inf (worst quality) if the
    rollout diverges.  The score of a block of one (quality_eta2_block).
    """
    inputs = eta2_inputs(p_log, u_log, k, quality, np.asarray(v0, dtype=float)[None])
    a_prime, b_prime = model_matrices(np.asarray(theta_hat, dtype=float)[None], p_log.dim,
                                      u_log.dim)
    eta2 = quality_eta2_block(a_prime, b_prime, inputs, quality, p_log.dt)
    return float(eta2[0])


def eta2_inputs(p_log, u_log, k, quality, v0):
    """What quality_eta2 reads from the logs, for the len(v0) consecutive
    steps from step k on, given the smoothed velocity v0[j] of step
    k + j: the rollouts' initial states, the input at every rollout half
    step and the measured position at every rollout step, each stacked
    over the steps."""
    horizon, stride = quality.horizon, quality.rollout_stride
    if k < horizon:
        raise ValueError(f"step {k} is before the first full horizon {horizon}")
    count = len(v0)
    k0 = k - horizon
    p_rows = p_log.rows(k0, horizon + count)
    x0 = np.concatenate([p_rows[:count], v0], axis=1)
    u_half = _windows(u_log.rows(k0, horizon + count), horizon + 1, stride // 2)
    p_meas = _windows(p_rows, horizon + 1, stride)
    return x0, u_half, p_meas


def quality_eta2_block(a_prime, b_prime, inputs, quality, dt):
    """quality_eta2 of a block of steps from their models' a_prime and
    b_prime and their eta2_inputs, each stacked over the steps, on the
    grid of step dt, as an array in the same order.

    The rollouts advance in lockstep through stacked products, and each
    score is bitwise that of its own step; a diverging rollout scores
    +inf in its own entry only.
    """
    x0, u_half, p_meas = inputs
    h = quality.rollout_stride * dt
    n = p_meas.shape[-1]
    phi, w0, wh, w1 = linear_rk4_matrices(a_prime, b_prime, h)
    drive = (
        u_half[:, 0:-1:2] @ w0.swapaxes(1, 2)
        + u_half[:, 1::2] @ wh.swapaxes(1, 2)
        + u_half[:, 2::2] @ w1.swapaxes(1, 2)
    )
    eta2 = np.full(len(x0), np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        states = linear_rollout(phi, drive, x0)
        # also false where a rollout holds a nan or an inf
        bounded = np.max(np.abs(states), axis=(1, 2)) <= _ROLLOUT_NORM_CAP
        err = states[bounded, :, :n] - p_meas[bounded]
        # one einsum per rollout: a stacked einsum's sums can differ in bits
        integrand = np.empty(err.shape[:2])
        for row, e in zip(integrand, err):
            row[:] = np.einsum("ij,jk,ik->i", e, quality.s2, e)
        eta2[bounded] = np.trapezoid(integrand, dx=h, axis=-1)
    return eta2


@dataclass
class PurgeState:
    """Purge counter, gating thresholds and the weight estimate in force."""

    kappa1_bar: float
    kappa2_bar: float
    w_current: object  # the stacked weights, or a cached solve of them; read with irl.read_lazy
    varpi: int = 0
    purge_count: int = 0


def purge_policy(ps, stack, eta_now):
    """Apply the weight-update and purge gates; returns ps.w_current.

    The weights are re-solved only when the last candidate was stored and
    the stack is well conditioned (otherwise held); the stack is emptied,
    weights surviving, when it is well conditioned and the current quality
    beats every stored score.

    When the Gram condition number certifies full column rank
    (stack.full_rank_kappa), the solve cannot fail, so it is deferred:
    the new estimate is a cached solve_weights of copies of the stacked
    rows and right-hand side, run when read_lazy first reads it (a solve
    that raises is not cached: it runs again at the next read).
    Otherwise it is solved now, and a rank deficient system holds the
    previous estimate.
    """
    gram_kappa = stack.gram_kappa
    if gram_kappa < ps.kappa1_bar and ps.varpi == 1 and stack.sigma_u1_norm >= stack.xi2:
        if gram_kappa < stack.full_rank_kappa:
            ps.w_current = functools.cache(functools.partial(
                solve_weights, stack.sigma_matrix.copy(), stack.rhs_vector.copy()
            ))
        else:
            try:
                ps.w_current = solve_weights(stack.sigma_matrix, stack.rhs_vector)
            except RankDeficiencyError:
                pass  # hold at the previous value
    if gram_kappa < ps.kappa2_bar and eta_now < stack.eta_min:
        stack.clear()
        ps.purge_count += 1
    return ps.w_current
