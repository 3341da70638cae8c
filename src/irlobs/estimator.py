"""Simultaneous state and parameter estimation from position/input logs.

The integral linear error system turns input-output histories into
algebraic constraints on the stacked dynamics parameters; a concurrent
learning update law driven by a recorded history stack estimates those
parameters, and a velocity-free adaptive observer reconstructs the full
state through integral forms that never touch the unmeasured velocity.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NumericOverflowError
from .numerics import GramStack

_EPS = np.finfo(float).eps


@dataclass
class ThetaVector:
    """Stacked dynamics parameters [vec(A1); vec(A2); vec(B)] for an
    n-position, m-input plant."""

    theta: np.ndarray
    n: int
    m: int

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        expected = 2 * self.n * self.n + self.m * self.n
        if self.theta.shape != (expected,):
            raise ValueError(f"theta must have length {expected}, got {self.theta.shape}")

    @classmethod
    def from_matrices(cls, a1, a2, b):
        a1 = np.asarray(a1, dtype=float)
        a2 = np.asarray(a2, dtype=float)
        b = np.asarray(b, dtype=float)
        n, m = b.shape
        theta = np.concatenate(
            [a1.reshape(-1, order="F"), a2.reshape(-1, order="F"), b.reshape(-1, order="F")]
        )
        return cls(theta=theta, n=n, m=m)

    @property
    def a1(self):
        n = self.n
        return self.theta[: n * n].reshape((n, n), order="F")

    @property
    def a2(self):
        n = self.n
        return self.theta[n * n : 2 * n * n].reshape((n, n), order="F")

    @property
    def b(self):
        n, m = self.n, self.m
        return self.theta[2 * n * n :].reshape((n, m), order="F")

    @functools.cached_property
    def a_prime(self):
        """[[0, I], [A1, A2]], built once per instance (read-only; theta
        must not change after construction)."""
        n = self.n
        ap = np.zeros((2 * n, 2 * n))
        ap[:n, n:] = np.eye(n)
        # [A1, A2] column-major is vec(A1) followed by vec(A2)
        ap[n:] = self.theta[: 2 * n * n].reshape((n, 2 * n), order="F")
        ap.flags.writeable = False
        return ap

    @functools.cached_property
    def b_prime(self):
        """[[0], [B]], built once per instance (read-only)."""
        n, m = self.n, self.m
        bp = np.zeros((2 * n, m))
        bp[n:] = self.b
        bp.flags.writeable = False
        return bp


def theta_dim(n, m):
    return 2 * n * n + m * n


@dataclass
class EstimatorGains:
    """Adaptation and observer gains; every entry must be positive."""

    k_theta: float
    beta1: float
    alpha: float
    beta: float
    k: float
    t1: float
    t2: float

    def __post_init__(self):
        for name in ("k_theta", "beta1", "alpha", "beta", "k", "t1", "t2"):
            if getattr(self, name) <= 0.0:
                raise ArgumentError(name, f"gain {name} must be positive")


def integral_residual(p_log, k, t1, t2):
    """Measured side of the integral error system at step k.

    The four-point position combination
    p(k - t1 - t2) - p(k - t1) + p(k) - p(k - t2), windows t1 and t2 in
    steps, for k >= t1 + t2, and the zero vector before enough history
    exists.
    """
    if k < t1 + t2:
        return np.zeros(p_log.dim)
    early, late = p_log.rows(k - t1 - t2, 2, t2), p_log.rows(k - t2, 2, t2)
    return early[0] - early[1] + late[1] - late[0]


def _double_integral(log, k, t1, t2):
    """Integral over the t2 steps up to step k of the sliding window
    integral of width t1 steps."""
    cum = log.rows(k - t2, t2 + 1, cumulative=True)
    lagged = log.rows(k - t2 - t1, t2 + 1, cumulative=True)
    return np.trapezoid(cum - lagged, dx=log.dt, axis=0)


def integral_regressor(p_log, u_log, k, t1, t2):
    """Regressor matrix of the integral error system at step k.

    Columns multiply [vec(A1); vec(A2); vec(B)]; the zero matrix is
    returned before step t1 + t2 so the error system stays consistent with
    the zero residual.
    """
    n = p_log.dim
    m = u_log.dim
    if k < t1 + t2:
        return np.zeros((n, theta_dim(n, m)))
    f_block = _double_integral(p_log, k, t1, t2)
    early = p_log.rows(k - t1 - t2, 2, t2, cumulative=True)
    late = p_log.rows(k - t2, 2, t2, cumulative=True)
    g_block = (late[1] - late[0]) - (early[1] - early[0])
    u_block = _double_integral(u_log, k, t1, t2)
    eye = np.eye(n)
    return np.hstack(
        [
            np.kron(f_block[None, :], eye),
            np.kron(g_block[None, :], eye),
            np.kron(u_block[None, :], eye),
        ]
    )


class ParamHistoryStack(GramStack):
    """Recorded (residual, regressor) pairs with a rank certificate.

    Each entry is a (residual, regressor) pair with Gram block
    regressor' regressor.  The summed right-hand side projection and the
    smallest Gram eigenvalue are kept current; once the stack is full, a
    new pair is only committed if swapping it for an existing entry raises
    that eigenvalue by more than its eigvalsh rounding, dim*eps times the
    largest eigenvalue.
    """

    def __init__(self, capacity, dim, min_eig_threshold):
        super().__init__(capacity, dim)
        if min_eig_threshold <= 0.0:
            raise ValueError("min_eig_threshold must be positive")
        self.min_eig_threshold = float(min_eig_threshold)
        self._projections = np.zeros((self.capacity, self.dim))
        self._changed()

    @property
    def is_full_rank(self):
        return self.min_eigenvalue > self.min_eig_threshold

    def _changed(self):
        # the slot-order sum adds the rows one after another from zero,
        # bitwise the running sum over the entries
        self.rhs_projection = self._projections[: self.size].sum(axis=0, initial=0.0)
        self.min_eigenvalue = (
            float(np.linalg.eigvalsh(self.gram)[0]) if self.size else 0.0
        )

    def record(self, residual, regressor):
        """Store the pair if it is admissible; returns True when committed."""
        residual = np.asarray(residual, dtype=float)
        regressor = np.asarray(regressor, dtype=float)
        if regressor.shape[1] != self.dim or residual.shape != (regressor.shape[0],):
            raise ValueError("residual/regressor dimensions are inconsistent")
        if not (np.isfinite(residual).all() and np.isfinite(regressor).all()):
            raise NumericOverflowError("non-finite history stack candidate")
        block = regressor.T @ regressor
        slot = self.size
        if self.is_full:
            # a commit needs lam_min > lam_cur + dim*eps*lam_max, and
            # lam_max >= lam_min, so even a swap with lam_max < 0 needs
            # lam_min above about lam_cur - dim*eps*|lam_cur|; the factor 4
            # covers the rounding of that sum, and a slot whose lam_min
            # bound is at most this floor cannot commit
            lam_cur = self.min_eigenvalue
            floor = lam_cur - 4 * self.dim * _EPS * abs(lam_cur)
            found = self.best_swap(block, _neg_lam_min, _neg_lam_min_floor, -floor)
            if found is None:
                return False
            slot, lam = found
            # eigvalsh leaves an absolute error of about dim*eps*lam_max on
            # lam_min; an absolute margin also holds on a rank-deficient stack,
            # where lam_min is rounding noise around zero and may be negative
            rounding = self.dim * _EPS * lam[-1]
            if lam[0] <= lam_cur + rounding:
                return False
        self._projections[slot] = regressor.T @ residual
        self.put(slot, block, (residual, regressor))
        return True


def _neg_lam_min(lam):
    return -lam[:, 0]


def _neg_lam_min_floor(lam_min_bound, lam_max_bound):
    return -lam_min_bound


class AdaptiveObserver:
    """Velocity-free adaptive observer with concurrent-learning adaptation.

    The velocity estimate follows the integration-by-parts form of the
    update law (boundary terms in the position replace the unmeasured
    velocity) and the output filter follows its integral form; both are
    advanced with implicit trapezoid increments on the measurement grid,
    solving the small linear coupling between the new position error,
    filter state, and velocity estimate exactly at each step.
    """

    def __init__(self, n, m, p0, u0, gains, theta0=None, gamma_scale=0.1, q_hat0=None):
        self.n = int(n)
        self.m = int(m)
        self.gains = gains
        self.dim = theta_dim(n, m)
        p0 = np.asarray(p0, dtype=float)
        u0 = np.asarray(u0, dtype=float)
        if theta0 is None:
            theta0 = np.zeros(self.dim)
        self.theta = np.asarray(theta0, dtype=float).copy()
        if self.theta.shape != (self.dim,):
            raise ValueError(f"theta0 must have length {self.dim}")
        self.gamma = gamma_scale * np.eye(self.dim)
        self.theta_rate = np.zeros(self.dim)

        self.p_hat = p0.copy()
        self.q_hat = np.zeros(n) if q_hat0 is None else np.asarray(q_hat0, dtype=float).copy()
        self.eta = np.zeros(n)
        self.p_tilde = np.zeros(n)
        self.nu = np.zeros(n)

        g = gains
        self._g1 = g.beta + g.k
        self._g2 = g.k * g.alpha
        self._g3 = g.k + g.alpha
        self._g4 = g.k + g.alpha + g.beta

        tv = self.theta_vector
        self._q0 = self.q_hat.copy()
        self._boundary0 = tv.a2 @ p0
        self._acc_q = np.zeros(n)
        self._acc_eta = np.zeros(n)
        # integrands at the current time, for trapezoid increments
        # (theta_rate and nu are zero at construction)
        self._g_prev = tv.b @ u0 + tv.a1 @ p0
        self._eta_integrand_prev = np.zeros(n)

    @property
    def theta_vector(self):
        return ThetaVector(theta=self.theta.copy(), n=self.n, m=self.m)

    @property
    def x_hat(self):
        return np.concatenate([self.p_hat, self.q_hat])

    def _adaptation_rates(self, theta, gamma, gram, proj):
        k_theta = self.gains.k_theta
        resid = proj - gram @ theta
        theta_dot = k_theta * (gamma @ resid)
        gamma_dot = self.gains.beta1 * gamma - k_theta * (gamma @ gram @ gamma)
        return theta_dot, gamma_dot

    def update_parameters(self, stack, dt):
        """One RK4 step of the concurrent-learning update laws.

        Frozen (zero parameter rate) until the stack certifies full rank.
        Raises NumericOverflowError if the gain matrix loses positive
        definiteness, which indicates the step size is too large.
        """
        if not stack.is_full_rank:
            self.theta_rate = np.zeros(self.dim)
            return
        gram = stack.gram
        proj = stack.rhs_projection
        th, ga = self.theta, self.gamma
        k1t, k1g = self._adaptation_rates(th, ga, gram, proj)
        k2t, k2g = self._adaptation_rates(th + 0.5 * dt * k1t, ga + 0.5 * dt * k1g, gram, proj)
        k3t, k3g = self._adaptation_rates(th + 0.5 * dt * k2t, ga + 0.5 * dt * k2g, gram, proj)
        k4t, k4g = self._adaptation_rates(th + dt * k3t, ga + dt * k3g, gram, proj)
        self.theta = th + (dt / 6.0) * (k1t + 2 * k2t + 2 * k3t + k4t)
        gamma = ga + (dt / 6.0) * (k1g + 2 * k2g + 2 * k3g + k4g)
        gamma = 0.5 * (gamma + gamma.T)
        if not (np.isfinite(gamma).all() and np.isfinite(self.theta).all()):
            raise NumericOverflowError("adaptation state became non-finite (dt too large)")
        try:
            np.linalg.cholesky(gamma)
        except np.linalg.LinAlgError:
            raise NumericOverflowError(
                "least-squares gain lost positive definiteness (dt too large)"
            )
        self.gamma = gamma
        # the rate alone: the gain's rate at the new state is not needed
        self.theta_rate = self.gains.k_theta * (gamma @ (proj - gram @ self.theta))

    def step(self, p_meas, u, dt):
        """Advance the observer one grid step given the new measurements.

        The parameter estimate in force (see update_parameters) enters the
        integrands at the new time; the linear implicit coupling between
        the new position error, filter state and velocity estimate is
        solved in closed form.
        """
        p_meas = np.asarray(p_meas, dtype=float)
        u = np.asarray(u, dtype=float)
        tv = self.theta_vector
        a2_dot = ThetaVector(theta=self.theta_rate, n=self.n, m=self.m).a2
        drive = tv.b @ u + (tv.a1 - a2_dot) @ p_meas

        g1, g2, g3, g4 = self._g1, self._g2, self._g3, self._g4
        half = 0.5 * dt
        d1 = 1.0 + half * g1
        btil = g3 + half * g2
        c3 = p_meas - self.p_hat - half * self.q_hat
        c2 = self._acc_eta - half * self._eta_integrand_prev
        c1 = (
            self._acc_q
            + half * self._g_prev
            + half * drive
            + self._q0
            + tv.a2 @ p_meas
            - self._boundary0
        )
        c = half * (1.0 + g4 * btil / d1)
        c1p = c1 - half * (g4 / d1) * c2
        q_hat = (c1p + c * c3) / (1.0 + c * half)
        p_tilde = c3 - half * q_hat
        eta = (c2 - btil * p_tilde) / d1
        nu = p_tilde - g4 * eta
        g_new = drive + nu
        self._acc_q = self._acc_q + half * (self._g_prev + g_new)
        eta_integrand = g1 * eta + g2 * p_tilde
        self._acc_eta = self._acc_eta - half * (self._eta_integrand_prev + eta_integrand)
        self._g_prev = g_new
        self._eta_integrand_prev = eta_integrand
        self.q_hat = q_hat
        self.p_tilde = p_tilde
        self.eta = eta
        self.nu = nu
        self.p_hat = p_meas - p_tilde
        if not (
            np.isfinite(self.p_hat).all()
            and np.isfinite(self.q_hat).all()
            and np.isfinite(self.eta).all()
        ):
            raise NumericOverflowError("observer state became non-finite")
