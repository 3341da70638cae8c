"""The demonstrator.

True linear dynamics with double-integrator structure, the true quadratic
cost, the LQR-optimal policy, its closed-loop field, and the query oracle
answering "what would you do at state x*?".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import index

import numpy as np

from .errors import ArgumentError, SolverFailureError
from .estimator import ThetaVector
from .numerics import solve_are


def monomial_matrix(dim, weights, monomials):
    """Symmetric matrix M with x'Mx = sum_k w_k x_i x_j over the monomials."""
    m = np.zeros((dim, dim))
    for w, (i, j) in zip(weights, monomials):
        if i == j:
            m[i, i] += w
        else:
            m[i, j] += 0.5 * w
            m[j, i] += 0.5 * w
    return m


@dataclass
class LinearPlant:
    """True dynamics pdot = q, qdot = A x + B u with A = [A1, A2].

    Derived: the read-only lifted matrices a_prime = [[0, I], [A1, A2]] and
    b_prime = [0; B], and theta = [vec(A1); vec(A2); vec(B)].  Construction
    fails if (a_prime, b_prime) is not controllable.
    """

    a: np.ndarray  # n x 2n
    b: np.ndarray  # n x m

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.a.ndim != 2 or self.a.shape[1] != 2 * self.a.shape[0]:
            raise ArgumentError("a", f"A must be n x 2n, got {self.a.shape}")
        n = self.a.shape[0]
        if self.b.ndim != 2 or self.b.shape[0] != n:
            raise ArgumentError("b", f"B must be {n} x m, got {self.b.shape}")
        self.n = n
        self.m = self.b.shape[1]
        lifted = ThetaVector.from_matrices(self.a[:, :n], self.a[:, n:], self.b)
        self.a1, self.a2, self.theta = lifted.a1, lifted.a2, lifted.theta
        self.a_prime, self.b_prime = lifted.a_prime, lifted.b_prime
        if self._controllability_rank() < 2 * n:
            raise ValueError("(a_prime, b_prime) is not controllable")

    def _controllability_rank(self):
        blocks = [self.b_prime]
        for _ in range(2 * self.n - 1):
            blocks.append(self.a_prime @ blocks[-1])
        return np.linalg.matrix_rank(np.hstack(blocks))


@dataclass
class CostFunction:
    """Instantaneous cost r(x, u) = Q(x) + u'Ru with diagonal R.

    Q(x) = w_q' sigma_Q(x) over quadratic monomials of the 2n-state; the
    reconstructed matrix form must be positive semidefinite.  The first
    entry of the R diagonal is the scale anchor assumed known downstream.
    """

    dim: int                      # state dimension 2n
    w_q: np.ndarray               # weights on the Q monomials
    r_diag: np.ndarray            # positive diagonal of R
    q_monomials: list = field(default=None)

    def __post_init__(self):
        self.w_q = np.asarray(self.w_q, dtype=float)
        self.r_diag = np.asarray(self.r_diag, dtype=float)
        if self.q_monomials is None:
            self.q_monomials = [(i, i) for i in range(self.dim)]
        self.q_monomials = [(index(i), index(j)) for i, j in self.q_monomials]
        if len(self.q_monomials) != self.w_q.size:
            raise ArgumentError("w_q", "w_q length must match the number of Q monomials")
        for i, j in self.q_monomials:
            if not (0 <= i <= j < self.dim):
                raise ArgumentError("q_monomials", f"monomial index pair ({i}, {j}) out of range")
        if np.any(self.r_diag <= 0.0):
            raise ArgumentError("r_diag", "all R diagonal entries must be positive")
        self.q_matrix = monomial_matrix(self.dim, self.w_q, self.q_monomials)
        if np.min(np.linalg.eigvalsh(self.q_matrix)) < -1e-10:
            raise ArgumentError("w_q", "Q(x) is not positive semidefinite")

    @property
    def r1(self):
        """The known first control weight (scale anchor)."""
        return float(self.r_diag[0])


@dataclass
class Demonstrator:
    """Plant + cost + the LQR-optimal policy u = -R^-1 B' P x, and the
    closed-loop matrix a_cl = a_prime - b_prime k_fb."""

    plant: LinearPlant
    cost: CostFunction
    riccati_p: np.ndarray
    k_fb: np.ndarray
    a_cl: np.ndarray


def make_demonstrator(plant, cost):
    """Solve the ARE for the plant/cost pair and wire up the optimal policy.

    The ARE is solved on cost data normalized by the known first control
    weight, which makes the feedback gain exactly invariant under a common
    positive scaling of (Q, R); the stored riccati_p carries the true scale.
    """
    if cost.dim != 2 * plant.n:
        raise ValueError("cost dimension does not match the plant state")
    if cost.r_diag.size != plant.m:
        raise ValueError("R diagonal length does not match the input dimension")
    r1 = cost.r1
    q_norm = cost.q_matrix / r1
    r_norm = np.diag(cost.r_diag / r1)
    p_norm = solve_are(plant.a_prime, plant.b_prime, q_norm, r_norm)
    k_fb = (plant.b_prime.T @ p_norm) / (cost.r_diag / r1)[:, None]
    a_cl = plant.a_prime - plant.b_prime @ k_fb
    if not np.all(np.linalg.eigvals(a_cl).real < 0.0):
        raise SolverFailureError("closed loop is not Hurwitz")
    return Demonstrator(plant=plant, cost=cost, riccati_p=r1 * p_norm, k_fb=k_fb, a_cl=a_cl)


def optimal_action(demo, x):
    """Optimal policy u = -K_fb x."""
    return -(demo.k_fb @ x)


def query(demo, x_star):
    """Oracle answering the optimal action at an arbitrary state.

    Behaviorally identical to optimal_action; kept as a distinct entry
    point so experiment code can count and limit oracle queries.
    """
    return optimal_action(demo, x_star)


def closed_loop_field(demo):
    """Vector field of the plant under the optimal policy."""
    a_cl = demo.a_cl

    def field(_t, x):
        return a_cl @ x

    return field
