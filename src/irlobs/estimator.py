"""Simultaneous state and parameter estimation from position/input logs.

The integral linear error system turns input-output histories into
algebraic constraints on the stacked dynamics parameters; a concurrent
learning update law driven by a recorded history stack estimates those
parameters, and a velocity-free adaptive observer reconstructs the full
state through integral forms that never touch the unmeasured velocity.
"""

from __future__ import annotations

import math
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
    b_prime = np.zeros(lead + (2 * n, m))
    a_prime[..., n:, :n], a_prime[..., n:, n:], b_prime[..., n:, :] = theta_blocks(theta, n, m)
    return a_prime, b_prime


def theta_blocks(theta, n, m):
    """The blocks A1, A2 and B of the parameters theta = [vec(A1); vec(A2);
    vec(B)] of an n-position, m-input plant, as column-major views sharing
    theta's memory.  theta may carry leading axes, which the blocks then
    carry; raises ValueError unless its last axis has theta_dim(n, m) entries."""
    if theta.shape[-1:] != (theta_dim(n, m),):
        raise ValueError(f"theta must have length {theta_dim(n, m)}, got {theta.shape}")
    lead, nn = theta.shape[:-1], n * n

    def block(lo, hi, cols):
        return theta[..., lo:hi].reshape(lead + (cols, n)).swapaxes(-1, -2)

    return block(0, nn, n), block(nn, 2 * nn, n), block(2 * nn, theta.shape[-1], m)


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
    largest eigenvalue (the criterion: _score, _commits).  Its compiled
    searches take their Ritz basis per offer (GramStack.ritz_per_offer):
    with 150 slots of rank-2 blocks, bounds from gram alone leave about 50
    slots to solve per search, and bounds from gram + block under 6.
    """

    ritz_per_offer = True
    kernel_score = "lam_min"

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
        # for 2 or more columns, as theta always has, the slot-order sum adds
        # the rows one after another from zero, bitwise the running sum over
        # the entries; numpy sums a single column pairwise
        self.rhs_projection = self._projections[: self.size].sum(axis=0, initial=0.0)
        self.min_eigenvalue = float(self.spectrum[0]) if self.size else 0.0

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
        # that sum, and a slot scoring at least -floor cannot commit
        lam_cur = self.min_eigenvalue
        floor = lam_cur - 4 * self.dim * _EPS * abs(lam_cur)
        return self.offer(regressor.T @ regressor, (residual, regressor), -floor)

    @staticmethod
    def _score(lam):
        return -lam[:, 0]

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

    The parameter estimate theta follows the concurrent-learning
    least-squares law with forgetting, kept in information form: info is
    P = Gamma^-1, starting at I / gamma_scale, and z = P theta
    (update_parameters).  The velocity estimate follows the
    integration-by-parts form of the update law (boundary terms in the
    position replace the unmeasured velocity) and the output filter
    follows its integral form; both are advanced with implicit trapezoid
    increments on the measurement grid, solving the small linear coupling
    between the new position error, filter state, and velocity estimate
    exactly at each step (step).

    update_block and step_block advance a block of consecutive steps with
    stacked products, one product per step, bitwise as one call per step;
    update_parameters and step are blocks of one.
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
        # the parameter estimate [vec(A1); vec(A2); vec(B)] and its rate,
        # read-only by convention: a step replaces them, and a queued step
        # keeps them
        self.theta = np.asarray(theta0, dtype=float).copy()
        if self.theta.shape != (self.dim,):
            raise ValueError(f"theta0 must have length {self.dim}")
        self.info = np.eye(self.dim) / gamma_scale
        self.z = self.info @ self.theta
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

        a1, a2, b = theta_blocks(self.theta, self.n, self.m)
        self._q0 = self.q_hat.copy()
        self._boundary0 = a2 @ p0
        self._acc_q = np.zeros(n)
        self._acc_eta = np.zeros(n)
        # integrands at the current time, for trapezoid increments
        # (theta_rate and nu are zero at construction)
        self._g_prev = b @ u0 + a1 @ p0
        self._eta_integrand_prev = np.zeros(n)

    @property
    def x_hat(self):
        return np.concatenate([self.p_hat, self.q_hat])

    def update_parameters(self, stack, dt):
        """One exact step of the concurrent-learning least-squares law with
        forgetting, theta' = k_theta Gamma (proj - gram theta) and
        Gamma' = beta1 Gamma - k_theta Gamma gram Gamma, with gram and proj
        the stack's, held over the step.

        In information form, P = Gamma^-1 and z = P theta, the law is linear,
        P' = -beta1 P + k_theta gram and z' = -beta1 z + k_theta proj, so the
        step is P <- e P + c gram and z <- e z + c proj with
        e = exp(-beta1 dt) and c = k_theta (1 - e) / beta1; P stays
        positive definite.  Frozen (P and z kept, zero parameter rate) until
        the stack certifies full rank.  Raises NumericOverflowError, changing
        nothing, if the adaptation state overflows.
        """
        state = (0, stack.gram, stack.rhs_projection, stack.is_full_rank)
        error = self.update_block([state], 1, dt)[-1]
        if error:
            raise error

    def update_block(self, stacks, count, dt):
        """update_parameters for count consecutive steps, stacks giving the
        stack in force from a step on as (step, gram, rhs_projection,
        is_full_rank), in step order, the first from step 0; of two from the
        same step, the later one is in force.

        P and z are stepped one step at a time, with c gram and c proj formed
        once per stack; P^-1, theta and the rate are stacked products.
        Returns P, theta and the rate after each step, stacked over the
        steps before the first whose adaptation state is not finite, and the
        NumericOverflowError to raise at that step, or None; the state is
        that after the last step returned.
        """
        k_theta, beta1 = self.gains.k_theta, self.gains.beta1
        e = math.exp(-beta1 * dt)
        c = -k_theta * math.expm1(-beta1 * dt) / beta1
        d = self.dim
        info, z = np.empty((count, d, d)), np.empty((count, d))
        theta, rate = np.empty((count, d)), np.zeros((count, d))
        last_info, last_z, last_theta = self.info, self.z, self.theta
        error = None
        ends = [first for first, *_ in stacks[1:]] + [count]
        for (lo, gram, proj, full_rank), hi in zip(stacks, ends):
            if lo == hi:
                continue
            if not full_rank:
                info[lo:hi], z[lo:hi], theta[lo:hi] = last_info, last_z, last_theta
                continue
            c_gram, c_proj = c * gram, c * proj
            for info_i, z_i in zip(info[lo:hi], z[lo:hi]):
                np.multiply(last_info, e, out=info_i)
                info_i += c_gram
                np.multiply(last_z, e, out=z_i)
                z_i += c_proj
                last_info, last_z = info_i, z_i
            finite = np.isfinite(info[lo:hi]).all(axis=(1, 2)) & np.isfinite(z[lo:hi]).all(axis=1)
            if not finite.all():
                hi = lo + int(finite.argmin())
                error = NumericOverflowError("adaptation state became non-finite")
            gain = np.linalg.inv(info[lo:hi])
            # a trailing unit axis, so that each step's product is gain @ vector
            theta[lo:hi] = np.matmul(gain, z[lo:hi, :, None])[..., 0]
            residual = proj - np.matmul(gram, theta[lo:hi, :, None])[..., 0]
            rate[lo:hi] = np.matmul(gain, residual[..., None])[..., 0]
            rate[lo:hi] *= k_theta
            if error:
                count = hi
                break
            last_theta = theta[hi - 1]
        if count:
            self.info, self.z = info[count - 1], z[count - 1]
            self.theta, self.theta_rate = theta[count - 1], rate[count - 1]
        return info[:count], theta[:count], rate[:count], error

    def step(self, p_meas, u, dt):
        """Advance the observer one grid step given the new measurements.

        The parameter estimate in force (see update_parameters) enters the
        integrands at the new time; the linear implicit coupling between
        the new position error, filter state and velocity estimate is
        solved in closed form.  Raises NumericOverflowError if the state
        becomes non-finite.
        """
        p = np.asarray(p_meas, dtype=float)[None]
        u = np.asarray(u, dtype=float)[None]
        error = self.step_block(p, u, self.theta[None], self.theta_rate[None], dt)[-1]
        if error:
            raise error

    def step_block(self, p, u, theta, theta_rate, dt):
        """step for each row of the positions p and inputs u, consecutive
        measurements, with the rows of theta and theta_rate the parameter
        estimate and its rate in force at each.

        The drive terms B u, (A1 - A2') p and A2 p are stacked products of
        theta's column-major blocks, one per step; the implicit recursion
        runs per coordinate in float arithmetic, the operations of one
        step's array arithmetic in the same order.  Returns p_hat, q_hat and
        p_tilde after each step, stacked over the steps before the first
        whose state is not finite, and the NumericOverflowError to raise at
        that step, or None; the state is that after the last step computed.
        """
        n, m, count = self.n, self.m, len(p)
        a1, a2, b = theta_blocks(theta, n, m)
        a2_rate = theta_blocks(theta_rate, n, m)[1]
        drive = (np.matmul(b, u[..., None]) + np.matmul(a1 - a2_rate, p[..., None]))[..., 0]
        a2_p = np.matmul(a2, p[..., None])[..., 0]

        g1, g2, g3, g4 = self._g1, self._g2, self._g3, self._g4
        half = 0.5 * dt
        d1 = 1.0 + half * g1
        btil = g3 + half * g2
        c = half * (1.0 + g4 * btil / d1)
        c_eta = half * (g4 / d1)
        q_den = 1.0 + c * half
        starts = zip(self.p_hat.tolist(), self.q_hat.tolist(), self._acc_q.tolist(),
                     self._g_prev.tolist(), self._acc_eta.tolist(),
                     self._eta_integrand_prev.tolist(), self._q0.tolist(), self._boundary0.tolist())
        columns = []
        for i, (p_hat, q_hat, acc_q, g_prev, acc_eta, eta_prev, q0, boundary0) in enumerate(starts):
            column = []
            for p_i, drive_i, a2_p_i in zip(p[:, i].tolist(), drive[:, i].tolist(),
                                            a2_p[:, i].tolist()):
                c3 = p_i - p_hat - half * q_hat
                c2 = acc_eta - half * eta_prev
                c1 = acc_q + half * g_prev + half * drive_i + q0 + a2_p_i - boundary0
                c1p = c1 - c_eta * c2
                q_hat = (c1p + c * c3) / q_den
                p_tilde = c3 - half * q_hat
                eta = (c2 - btil * p_tilde) / d1
                nu = p_tilde - g4 * eta
                g_new = drive_i + nu
                acc_q = acc_q + half * (g_prev + g_new)
                eta_integrand = g1 * eta + g2 * p_tilde
                acc_eta = acc_eta - half * (eta_prev + eta_integrand)
                g_prev, eta_prev = g_new, eta_integrand
                p_hat = p_i - p_tilde
                column.append((p_hat, q_hat, p_tilde, eta, nu, acc_q, g_prev, acc_eta, eta_prev))
            columns.append(column)
        # (field, step, coordinate), each field's rows C-contiguous
        fields = np.array(columns).reshape(n, count, 9).transpose(2, 1, 0).copy()
        p_hat, q_hat, p_tilde, eta = fields[:4]
        finite = np.isfinite(p_hat).all(axis=1) & np.isfinite(q_hat).all(axis=1)
        finite &= np.isfinite(eta).all(axis=1)
        error, last = None, count - 1
        if not finite.all():
            count = last = int(finite.argmin())
            error = NumericOverflowError("observer state became non-finite")
        if last >= 0:
            (self.p_hat, self.q_hat, self.p_tilde, self.eta, self.nu, self._acc_q, self._g_prev,
             self._acc_eta, self._eta_integrand_prev) = fields[:, last]
        return p_hat[:count], q_hat[:count], p_tilde[:count], error
