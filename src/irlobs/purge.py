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
from .irl import solve_weights
from .numerics import linear_rk4_matrices, linear_rollout

_ROLLOUT_NORM_CAP = 1e12


@dataclass
class QualityConfig:
    """Horizon and weighting for the quality indicators.

    horizon is both the smoothing lag and the rollout length; s1 weighs the
    state-estimate residual, s2 the rollout prediction error.  The rollout
    is integrated on a grid coarsened by rollout_stride measurement steps.
    """

    horizon: float
    s1: np.ndarray
    s2: np.ndarray
    half_width: int
    rollout_stride: int = 20

    def __post_init__(self):
        self.s1 = np.asarray(self.s1, dtype=float)
        self.s2 = np.asarray(self.s2, dtype=float)
        if self.horizon <= 0.0:
            raise ArgumentError("horizon", "horizon must be positive")
        if self.half_width < 1:
            raise ArgumentError("half_width", "half_width must be at least 1")
        if self.rollout_stride < 1:
            raise ArgumentError("rollout_stride", "rollout_stride must be at least 1")
        for name, s in (("s1", self.s1), ("s2", self.s2)):
            if s.ndim != 2 or s.shape[0] != s.shape[1]:
                raise ArgumentError(name, f"{name} must be square")
            if np.linalg.norm(s - s.T) > 1e-12 * max(1.0, np.linalg.norm(s)):
                raise ArgumentError(name, f"{name} must be symmetric")
            if np.min(np.linalg.eigvalsh(s)) < -1e-10:
                raise ArgumentError(name, f"{name} must be positive semidefinite")


def rollout_steps(horizon, h):
    """The number of rollout steps of length h in horizon; raises ValueError
    unless that is a whole number, at least one, to within 1e-9 * min(1, horizon)."""
    steps = round(horizon / h) if np.isfinite(horizon / h) else 0
    if steps < 1 or abs(steps * h - horizon) > 1e-9 * min(1.0, horizon):
        raise ValueError("horizon must be a whole number of rollout_stride * run.dt steps")
    return steps


def smooth_velocity(p_log, t_center, half_width):
    """Velocity estimate from a local quadratic fit around t_center.

    Per coordinate, fits the 2*half_width+1 samples centered at t_center by
    least squares and returns the fitted derivative at the center; exact on
    trajectories that are polynomials of degree <= 2 over the window.
    Noncausal: needs samples on both sides of t_center.
    """
    w = int(half_width)
    dt = p_log.dt
    offsets = np.arange(-w, w + 1)
    vals = p_log.grid_rows(t_center + dt * -w, t_center + dt * w, 2 * w + 1)
    if vals is None:
        vals = p_log.values_at(t_center + dt * offsets)
    # symmetric stencil: the quadratic term drops out of the slope
    return (offsets @ vals) / (dt * float(offsets @ offsets))


def quality_eta1(p_tilde, q_hat_lagged, v_smooth, s1):
    """State-estimate quality score.

    Quadratic form of the stacked residual [position error now; lagged
    velocity estimate minus the smoothed velocity]; zero for perfect
    estimates and nonnegative for positive semidefinite s1.
    """
    xbar = np.concatenate([np.asarray(p_tilde, float), np.asarray(q_hat_lagged, float) - v_smooth])
    return float(xbar @ s1 @ xbar)


def quality_eta2(p_log, u_log, theta_hat, t, quality, v0):
    """Parameter-estimate quality score.

    Rolls the estimated model out over [t - horizon, t] from the measured
    position and the smoothed velocity v0 at t - horizon (smooth_velocity
    with quality.half_width, as quality_eta1 reads it), replaying the
    logged input, and integrates the squared position prediction error
    under s2.  Returns +inf (worst quality) if the rollout diverges.
    """
    horizon = quality.horizon
    if t < horizon:
        raise ValueError(f"t={t} is before the first full horizon {horizon}")
    dt = p_log.dt
    h = quality.rollout_stride * dt
    steps = rollout_steps(horizon, h)
    t0 = t - horizon
    n = p_log.dim
    x = np.concatenate([p_log.value_at(t0), v0])
    phi, w0, wh, w1 = linear_rk4_matrices(theta_hat.a_prime, theta_hat.b_prime, h)
    # on an even rollout_stride the half steps are samples too
    u_half = u_log.grid_rows(t0, t0 + (0.5 * h) * (2 * steps), 2 * steps + 1)
    if u_half is None:
        u_half = u_log.values_at(t0 + (0.5 * h) * np.arange(2 * steps + 1))
    p_meas = p_log.grid_rows(t0, t0 + h * steps, steps + 1)
    if p_meas is None:
        p_meas = p_log.values_at(t0 + h * np.arange(steps + 1))
    drive = u_half[0:-1:2] @ w0.T + u_half[1::2] @ wh.T + u_half[2::2] @ w1.T
    with np.errstate(over="ignore", invalid="ignore"):
        states = linear_rollout(phi, drive, x)
        if not np.isfinite(states).all() or np.max(np.abs(states)) > _ROLLOUT_NORM_CAP:
            return float("inf")
        err = states[:, :n] - p_meas
        integrand = np.einsum("ij,jk,ik->i", err, quality.s2, err)
    return float(np.trapezoid(integrand, dx=h))


@dataclass
class PurgeState:
    """Purge counter, gating thresholds and the weight estimate in force."""

    kappa1_bar: float
    kappa2_bar: float
    w_current: object  # WeightVector, or a cached solve returning it; read with irl.read_lazy
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
    the new estimate is a cached solve_weights of a snapshot of the
    stack, run when read_lazy first reads it.  Otherwise it is solved
    now, and a rank deficient system holds the previous estimate.
    """
    gram_kappa = stack.gram_kappa
    if gram_kappa < ps.kappa1_bar and ps.varpi == 1 and stack.sigma_u1_norm >= stack.xi2:
        if gram_kappa < stack.full_rank_kappa:
            ps.w_current = functools.cache(functools.partial(solve_weights, stack.snapshot()))
        else:
            try:
                ps.w_current = solve_weights(stack)
            except RankDeficiencyError:
                pass  # hold at the previous value
    if gram_kappa < ps.kappa2_bar and eta_now < stack.eta_min:
        stack.clear()
        ps.purge_count += 1
    return ps.w_current
