"""Simultaneous state and parameter estimation from position/input logs.

The integral linear error system turns input-output histories into
algebraic constraints on the stacked dynamics parameters; a concurrent
learning update law driven by a recorded history stack estimates those
parameters, and a velocity-free adaptive observer reconstructs the full
state through integral forms that never touch the unmeasured velocity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NumericOverflowError
from .numerics import GramStack

_EPS = np.finfo(float).eps


def model_matrices(theta, n, m):
    """The model xdot = a_prime x + b_prime u of the parameters
    theta = [vec(A1); vec(A2); vec(B)] of an n-position, m-input plant:
    a_prime = [[0, I], [A1, A2]] and b_prime = [[0], [B]].  theta may
    carry leading axes, which both matrices then carry; their entries are
    theta's, copied."""
    lead = theta.shape[:-1]
    a_prime = np.zeros(lead + (2 * n, 2 * n))
    a_prime[..., :n, n:] = np.eye(n)
    # [A1, A2] column-major is vec(A1) followed by vec(A2)
    a_prime[..., n:, :] = theta[..., : 2 * n * n].reshape(lead + (2 * n, n)).swapaxes(-1, -2)
    b_prime = np.zeros(lead + (2 * n, m))
    b_prime[..., n:, :] = theta[..., 2 * n * n :].reshape(lead + (m, n)).swapaxes(-1, -2)
    return a_prime, b_prime


def theta_blocks(theta, n, m):
    """The blocks A1, A2 and B of the parameters theta = [vec(A1); vec(A2);
    vec(B)] of an n-position, m-input plant, as column-major views sharing
    theta's memory; raises ValueError unless theta is a theta_dim(n, m)-vector."""
    if theta.shape != (theta_dim(n, m),):
        raise ValueError(f"theta must have length {theta_dim(n, m)}, got {theta.shape}")
    nn = n * n
    return (theta[:nn].reshape((n, n), order="F"), theta[nn : 2 * nn].reshape((n, n), order="F"),
            theta[2 * nn :].reshape((n, m), order="F"))


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
    y = log.rows(k - t2, t2 + 1, cumulative=True) - log.rows(
        k - t2 - t1, t2 + 1, cumulative=True
    )
    # np.trapezoid(y, dx=log.dt, axis=0), operation for operation, in place
    ends = y[1:] + y[:-1]
    ends *= log.dt
    ends /= 2.0
    return ends.sum(axis=0)


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
    row = np.concatenate((f_block, g_block, u_block))
    # kron(row, I) with the products np.kron forms: [i, j*n + l] = I[i, l] * row[j]
    return (np.eye(n)[:, None, :] * row[None, :, None]).reshape(n, row.size * n)


class ParamHistoryStack(GramStack):
    """Recorded (residual, regressor) pairs with a rank certificate.

    Each entry is a (residual, regressor) pair with Gram block
    regressor' regressor; each slot keeps the pair's right-hand side
    projection regressor' residual.  The summed projection and the
    smallest Gram eigenvalue are kept current; once the stack is full, a
    new pair is only committed if swapping it for an existing entry raises
    that eigenvalue by more than its eigvalsh rounding, dim*eps times the
    largest eigenvalue (the criterion: _score, _score_floor, _commits).
    Its searches take their Ritz basis per offer
    (GramStack.ritz_per_offer): with 150 slots of rank-2 blocks, bounds
    from gram alone leave about 50 slots to solve per search, and bounds
    from gram + block under 6.
    """

    ritz_per_offer = True

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
        if (
            regressor.ndim != 2
            or regressor.shape[1] != self.dim
            or residual.shape != (regressor.shape[0],)
        ):
            raise ValueError("residual/regressor dimensions are inconsistent")
        if not (np.isfinite(residual).all() and np.isfinite(regressor).all()):
            raise NumericOverflowError("non-finite history stack candidate")
        # a commit needs lam_min > lam_cur + dim*eps*lam_max, and lam_max >=
        # lam_min, so even a swap with lam_max < 0 needs lam_min above about
        # lam_cur - dim*eps*|lam_cur|; the factor 4 covers the rounding of
        # that sum, and a slot whose lam_min bound is at most this floor
        # cannot commit
        lam_cur = self.min_eigenvalue
        floor = lam_cur - 4 * self.dim * _EPS * abs(lam_cur)
        return self.offer(regressor.T @ regressor, (residual, regressor), -floor)

    @staticmethod
    def _score(lam):
        return -lam[:, 0]

    @staticmethod
    def _score_floor(lam_min_bound, lam_max_bound):
        return -lam_min_bound

    def _commits(self, entry, slot, lam, cut):
        # eigvalsh leaves an absolute error of about dim*eps*lam_max on
        # lam_min; an absolute margin also holds on a rank-deficient stack,
        # where lam_min is rounding noise around zero and may be negative
        rounding = self.dim * _EPS * lam[-1]
        return lam[0] > self.min_eigenvalue + rounding

    def _store(self, i, entry):
        residual, regressor = entry
        self._projections[i] = regressor.T @ residual


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
        theta = np.asarray(theta0, dtype=float).copy()
        if theta.shape != (self.dim,):
            raise ValueError(f"theta0 must have length {self.dim}")
        self._set_theta(theta)
        self.gamma = gamma_scale * np.eye(self.dim)
        self._set_rate(np.zeros(self.dim))
        # update_parameters' work arrays, each gamma's rows with theta as a
        # last row, so that one elementwise operation advances both: the RK4
        # state, a stage's input and the four stages' rates, with their
        # (whole, gamma, theta) views, built at the first update; and
        # scratch for one product each
        d = self.dim
        self._rk4 = np.empty((6, d + 1, d))
        self._rk4_views = None
        self._product = np.empty((d, d))
        self._residual = np.empty(d)

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

        self._q0 = self.q_hat.copy()
        self._boundary0 = self._a2 @ p0
        self._acc_q = np.zeros(n)
        self._acc_eta = np.zeros(n)
        # integrands at the current time, for trapezoid increments
        # (theta_rate and nu are zero at construction)
        self._g_prev = self._b @ u0 + self._a1 @ p0
        self._eta_integrand_prev = np.zeros(n)

    def __getstate__(self):
        # a copy's views would not share memory with its work arrays, so a
        # copy builds its own at its first update
        return {**self.__dict__, "_rk4_views": None}

    def _set_theta(self, theta):
        # the parameter estimate [vec(A1); vec(A2); vec(B)] (read-only by
        # convention: update_parameters replaces it, and a queued step keeps
        # it), with the blocks each step multiplies by
        self.theta = theta
        self._a1, self._a2, self._b = theta_blocks(theta, self.n, self.m)

    def _set_rate(self, theta_rate):
        self.theta_rate = theta_rate
        self._a2_rate = theta_blocks(theta_rate, self.n, self.m)[1]

    @property
    def x_hat(self):
        return np.concatenate([self.p_hat, self.q_hat])

    def update_parameters(self, stack, dt):
        """One RK4 step of the concurrent-learning update laws
        theta' = k_theta gamma (proj - gram theta) and
        gamma' = beta1 gamma - k_theta gamma gram gamma, with gram and proj
        the stack's.

        Frozen (zero parameter rate) until the stack certifies full rank.
        Raises NumericOverflowError if the gain matrix loses positive
        definiteness, which indicates the step size is too large.
        """
        if not stack.is_full_rank:
            self._set_rate(np.zeros(self.dim))
            return
        gram, proj = stack.gram, stack.rhs_projection
        k_theta, beta1, d = self.gains.k_theta, self.gains.beta1, self.dim
        if self._rk4_views is None:
            self._rk4_views = [(w, w[:d], w[d]) for w in self._rk4]
        (state, state_g, state_t), (stage, stage_g, stage_t), *rates = self._rk4_views
        product, residual = self._product, self._residual
        state_g[...] = self.gamma
        state_t[...] = self.theta
        # each stage does the products and sums of one evaluation of the
        # rates at state + h * (the last stage's rates), in place and in
        # their order
        x_g, x_t = state_g, state_t
        for k, h in enumerate((0.0, 0.5 * dt, 0.5 * dt, dt)):
            if k:
                np.multiply(rates[k - 1][0], h, stage)
                stage += state
                x_g, x_t = stage_g, stage_t
            rate, rate_g, rate_t = rates[k]
            np.matmul(gram, x_t, residual)
            np.subtract(proj, residual, residual)
            np.matmul(x_g, residual, rate_t)
            np.matmul(x_g, gram, product)
            np.matmul(product, x_g, rate_g)
            rate *= k_theta
            np.multiply(x_g, beta1, product)
            np.subtract(product, rate_g, rate_g)
        # state + (dt / 6) (k1 + 2 k2 + 2 k3 + k4)
        k1, total, k3, k4 = (rate for rate, _, _ in rates)
        total *= 2.0
        total += k1
        k3 *= 2.0
        total += k3
        total += k4
        total *= dt / 6.0
        total += state
        gamma = total[:d] + total[:d].T
        gamma *= 0.5
        theta = total[d].copy()
        if not (np.isfinite(gamma).all() and np.isfinite(theta).all()):
            raise NumericOverflowError("adaptation state became non-finite (dt too large)")
        try:
            np.linalg.cholesky(gamma)
        except np.linalg.LinAlgError:
            raise NumericOverflowError(
                "least-squares gain lost positive definiteness (dt too large)"
            )
        self.gamma = gamma
        self._set_theta(theta)
        # the rate alone: the gain's rate at the new state is not needed
        rate = gamma @ (proj - gram @ theta)
        rate *= k_theta
        self._set_rate(rate)

    def step(self, p_meas, u, dt):
        """Advance the observer one grid step given the new measurements.

        The parameter estimate in force (see update_parameters) enters the
        integrands at the new time; the linear implicit coupling between
        the new position error, filter state and velocity estimate is
        solved in closed form.
        """
        p_meas = np.asarray(p_meas, dtype=float)
        u = np.asarray(u, dtype=float)
        drive = self._b @ u + (self._a1 - self._a2_rate) @ p_meas

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
            + self._a2 @ p_meas
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
