"""Inverse reinforcement learning over recorded state-action data.

Quadratic feature construction, inverse Bellman and optimal-controller
rows normalized by the known first control weight, condition-number-driven
data selection for the regression stack, and the least-squares weight
solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import index

import numpy as np

from .errors import ArgumentError, NumericOverflowError
from .numerics import GramStack, least_squares

_EPS = np.finfo(float).eps


def _index_arrays(monomials):
    pairs = np.array(monomials, dtype=np.intp).reshape(-1, 2)
    return pairs[:, 0].copy(), pairs[:, 1].copy()


def quadratic_monomials(dim):
    """All index pairs (i, j) with i <= j: the full quadratic basis."""
    return [(i, j) for i in range(dim) for j in range(i, dim)]


@dataclass
class FeatureBasis:
    """Quadratic monomial features for the value and state-cost parts.

    Each monomial is an index pair (i, j), i <= j, over the 2n-dimensional
    state; the value features carry an analytic gradient rule.
    """

    dim: int
    v_monomials: list
    q_monomials: list

    def __post_init__(self):
        self.v_monomials = [(index(i), index(j)) for i, j in self.v_monomials]
        self.q_monomials = [(index(i), index(j)) for i, j in self.q_monomials]
        for name, monos in (("v_monomials", self.v_monomials), ("q_monomials", self.q_monomials)):
            seen = set()
            for i, j in monos:
                if not (0 <= i <= j < self.dim):
                    raise ArgumentError(name, f"monomial ({i}, {j}) out of range")
                if (i, j) in seen:
                    raise ArgumentError(name, f"duplicate monomial ({i}, {j})")
                seen.add((i, j))
        self._v_i, self._v_j = _index_arrays(self.v_monomials)
        self._q_i, self._q_j = _index_arrays(self.q_monomials)
        # gradient entries as (flat position, source coordinate, factor):
        # x_j at (k, i) and x_i at (k, j), or 2 x_i at (k, i) when i == j
        k = np.arange(self.num_v)
        cross = self._v_i != self._v_j
        self._grad_at = np.concatenate(
            (k * self.dim + self._v_i, (k * self.dim + self._v_j)[cross])
        )
        self._grad_src = np.concatenate((np.where(cross, self._v_j, self._v_i), self._v_i[cross]))
        self._grad_factor = np.concatenate((np.where(cross, 1.0, 2.0), np.ones(cross.sum())))

    @classmethod
    def quadratic(cls, dim, q_monomials=None):
        """Full quadratic value basis; squares-only cost basis by default."""
        if q_monomials is None:
            q_monomials = [(i, i) for i in range(dim)]
        return cls(dim=dim, v_monomials=quadratic_monomials(dim), q_monomials=q_monomials)

    @property
    def num_v(self):
        return len(self.v_monomials)

    @property
    def num_q(self):
        return len(self.q_monomials)

    def width(self, m):
        """Stacked unknown count: value + cost + all-but-first R weights."""
        return self.num_v + self.num_q + m - 1


def eval_features(basis, x, u):
    """Evaluate (sigma_V, grad sigma_V, sigma_Q, sigma_u) at (x, u).

    The gradient row of monomial x_i x_j holds x_j at column i and x_i at
    column j (2 x_i at i when i == j).  x and u may carry leading axes of
    points; each point's features are then bitwise those of its own call.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape[-1:] != (basis.dim,):
        raise ValueError(f"x must be a {basis.dim}-vector")
    lead = x.shape[:-1]
    sigma_v = x[..., basis._v_i] * x[..., basis._v_j]
    grad = np.zeros(lead + (basis.num_v, basis.dim))
    grad.reshape(lead + (-1,))[..., basis._grad_at] = x[..., basis._grad_src] * basis._grad_factor
    sigma_q = x[..., basis._q_i] * x[..., basis._q_j]
    sigma_u = u * u
    return sigma_v, grad, sigma_q, sigma_u


def ideal_weights(basis, riccati_p, w_q_star, r_diag):
    """The stacked weights [W_V; W_Q; W_R-minus] the solve should recover
    on ideal data.

    Value weights read off the Riccati solution (diagonal entries for
    squares, twice the off-diagonals for cross monomials), true state-cost
    weights, and the R diagonal after the known r1.
    """
    riccati_p = np.asarray(riccati_p, dtype=float)
    w_v = np.array(
        [riccati_p[i, i] if i == j else 2.0 * riccati_p[i, j] for i, j in basis.v_monomials]
    )
    return np.concatenate([w_v, np.asarray(w_q_star, dtype=float), np.asarray(r_diag, float)[1:]])


def entry_rows(basis, x_hat, u, a_prime, b_prime, r1):
    """Full (1+m)-row block of one data point: the inverse-Bellman row
    stacked over the controller rows, sharing one feature evaluation, with
    the model xdot = a_prime x + b_prime u of a parameter estimate
    (estimator.model_matrices).

    Every argument but basis and r1 may carry leading axes, broadcast
    against each other, of points; each point's block, shaped (1+m, width)
    behind them, is then bitwise that of its own call, since each stacked
    product is one product per point.
    """
    x_hat = np.asarray(x_hat, dtype=float)
    u = np.asarray(u, dtype=float)
    m = u.shape[-1]
    num_v, num_q = basis.num_v, basis.num_q
    _, grad, sigma_q, sigma_u = eval_features(basis, x_hat, u)
    lead = np.broadcast_shapes(grad.shape[:-2], a_prime.shape[:-2], b_prime.shape[:-2])
    rows = np.zeros(lead + (1 + m, basis.width(m)))
    rhs = np.zeros(lead + (1 + m,))
    xdot = (a_prime @ x_hat[..., None] + b_prime @ u[..., None])[..., 0]
    rows[..., 0, :num_v] = (grad @ xdot[..., None])[..., 0]
    rows[..., 0, num_v : num_v + num_q] = sigma_q
    rows[..., 0, num_v + num_q :] = sigma_u[..., 1:]
    rhs[..., 0] = -r1 * sigma_u[..., 0]
    rows[..., 1:, :num_v] = b_prime.swapaxes(-1, -2) @ grad.swapaxes(-1, -2)
    rhs[..., 1] = -2.0 * r1 * u[..., 0]
    for i in range(1, m):
        rows[..., 1 + i, num_v + num_q + i - 1] = 2.0 * u[..., i]
    return rows, rhs


def read_lazy(value):
    """A weight estimate given as itself, or as a zero-argument callable
    that runs its deferred solve and returns it."""
    return value() if callable(value) else value


class Entry:
    """One stored data point: its rows and right-hand side (entry_rows),
    quality score and time, with the Gram block and squared right-hand
    side norm they give, and whether its rows and right-hand side are
    all finite.  Entry.block builds entries, Entry.of one."""

    __slots__ = ("rows", "rhs", "eta", "t", "gram", "rhs_sq", "finite")

    def __init__(self, rows, rhs, eta, t, gram, rhs_sq, finite):
        self.rows = rows
        self.rhs = rhs
        self.eta = eta
        self.t = t
        self.gram = gram
        self.rhs_sq = rhs_sq
        self.finite = finite

    @classmethod
    def block(cls, times, etas, rows, rhs):
        """Per step, the list of its candidates' entries, from the times,
        etas and the rows and right-hand sides stacked over steps and
        candidates that OnlineIrl.drain returns (no steps for empty
        lists).  One stacked product gives every Gram block and one every
        squared norm, each bitwise that of its own entry, since each
        stacked product is one product per candidate."""
        if not len(times):
            return []
        per_step = rows.shape[1]
        grams = rows.swapaxes(-1, -2) @ rows
        rhs_sq = (rhs[..., None, :] @ rhs[..., None]).ravel().tolist()
        finite = (np.isfinite(rows).all(axis=(-2, -1))
                  & np.isfinite(rhs).all(axis=-1)).ravel().tolist()
        entries = list(map(
            cls,
            rows.reshape(-1, *rows.shape[2:]),
            rhs.reshape(-1, rhs.shape[-1]),
            [eta for eta in etas for _ in range(per_step)],
            [t for t in times for _ in range(per_step)],
            grams.reshape(-1, *grams.shape[2:]),
            rhs_sq,
            finite,
        ))
        return [entries[i : i + per_step] for i in range(0, len(entries), per_step)]

    @classmethod
    def of(cls, rows, rhs, eta, t):
        """The entry of one candidate's rows and right-hand side: a block
        of one."""
        return cls.block([t], [eta], rows[None, None], rhs[None, None])[0][0]


def _gram_kappa(lam):
    """IrlHistoryStack._score of one ascending spectrum, in plain float
    arithmetic (the same operations in the same order)."""
    lo, hi = float(lam[0]), float(lam[-1])
    if hi > 0.0 and lo > hi * len(lam) * _EPS:
        return hi / lo
    return float("inf")


def full_rank_kappa(rows, width, depth):
    """Gram condition number below which least_squares keeps full rank.

    For a stacked matrix A of at most ``rows`` rows and ``width`` columns
    whose Gram G = A'A is summed from products over at most ``depth``
    terms per entry, a computed kappa^ = lam^max / lam^min of eigvalsh(G^)
    below the returned bound certifies that lstsq's cutoff
    eps max(M, N) sigma^_1 keeps all N computed singular values of A.

    Let N = width, s = sigma_1(A)^2 = lam_max(G), and u = eps.
      - Gram rounding: |G^ - G| <= gamma_depth |A|'|A| entrywise, and
        || |A|'|A| ||_2 <= ||A||_F^2 <= N s, so ||G^ - G||_2 <= 1.01 depth N u s.
      - eigvalsh is backward stable: lam^ are exact eigenvalues of G^ + F
        with ||F||_2 <= N^2 u ||G^||_2 (LAPACK's modest p(N), as in
        GramStack._ritz_bounds).
      - Weyl: |lam^_j - lam_j(G)| <= delta s with delta = 8 (depth N + N^2) u,
        a factor 8 above the 1.01 (depth N + N^2) u the two terms need.
    Then s <= lam^max / (1 - delta) and lam_min(G) >= lam^min - delta s, so
    sigma_N^2 / sigma_1^2 >= (1 - delta) / kappa^ - delta.
      - lstsq's SVD is backward stable: sigma^_i = sigma_i(A + H) with
        ||H||_2 <= q u sigma_1, taking q = 8 M N for LAPACK's modest
        p(M, N).  So rank is full when sigma_N / sigma_1 > c with
        c = (max(M, N) + 2q) u, which covers the cutoff and both errors.
    Both hold when (1 - delta) / kappa^ - delta > c^2, that is when kappa^
    is below (1 - delta) / (delta + c^2): about 7.8e11 at M = 90, N = 15
    and depth 33, where c^2 (about 2e-23) is negligible next to delta.
    """
    delta = 8 * (depth * width + width * width) * _EPS
    c = (max(rows, width) + 16 * rows * width) * _EPS
    return float((1.0 - delta) / (delta + c * c))


class IrlHistoryStack(GramStack):
    """Recorded feature-row blocks forming the weight regression.

    Each entry contributes one inverse-Bellman row plus one controller row
    per input channel, held in slot order in a preallocated row array so
    the stacked matrix and right-hand side are slices of it.  The Gram
    condition number, the squared norm of the known right-hand side and
    the smallest stored quality score are refreshed after every change.
    data_select offers it candidates; its criterion (_score, _score_floor,
    _commits) keeps swaps that lower the Gram condition number.
    """

    def __init__(self, capacity, basis, r1, m, xi2=1e-3):
        super().__init__(capacity, basis.width(m))
        self.basis = basis
        self.r1 = float(r1)
        self.xi2 = float(xi2)
        self._rows = np.zeros((self.capacity, 1 + m, self.dim))
        self._rhs = np.zeros((self.capacity, 1 + m))
        # each slot's squared right-hand side norm and quality score, in slot order
        self._rhs_sq = [0.0] * self.capacity
        self._eta = [0.0] * self.capacity
        # entries are inner products over 1 + m rows, summed over the slots
        self.full_rank_kappa = full_rank_kappa(
            self.capacity * (1 + m), self.dim, self.capacity + 1 + m
        )
        self._changed()

    def _store(self, i, entry):
        if entry.rows.shape != self._rows.shape[1:] or entry.rhs.shape != self._rhs.shape[1:]:
            raise ValueError(
                f"entry rows {entry.rows.shape} and right-hand side {entry.rhs.shape} do not "
                f"fit the stack's {self._rows.shape[1:]} and {self._rhs.shape[1:]}"
            )
        self._rows[i] = entry.rows
        self._rhs[i] = entry.rhs
        self._rhs_sq[i] = entry.rhs_sq
        self._eta[i] = entry.eta

    def _changed(self):
        # the sums and minimum over the slots in order, as over the entries
        self.rhs_sq = float(sum(self._rhs_sq[: self.size]))
        self.sigma_u1_norm = math.sqrt(self.rhs_sq)  # norm of the stacked known right-hand side
        self.eta_min = min(self._eta[: self.size], default=float("inf"))
        self.gram_kappa = _gram_kappa(np.linalg.eigvalsh(self.gram))
        self.kappa = math.sqrt(self.gram_kappa)

    @staticmethod
    def _score(lam):
        """Gram condition numbers from ascending spectra (one per row); +inf
        where the Gram is numerically singular."""
        lo, hi = lam[..., 0], lam[..., -1]
        kappa = np.empty_like(hi)
        kappa.fill(np.inf)
        return np.divide(hi, lo, out=kappa, where=(hi > 0.0) & (lo > hi * lam.shape[-1] * _EPS))

    @staticmethod
    def _score_floor(lam_min_bound, lam_max_bound):
        """Lower bounds on _score from bounds on each spectrum's ends: inf
        where lam_min cannot be positive, lam_max / lam_min otherwise."""
        floor = np.empty_like(lam_min_bound)
        floor.fill(np.inf)
        return np.divide(np.maximum(lam_max_bound, 0.0), lam_min_bound, out=floor,
                         where=lam_min_bound > 0.0)

    def _commits(self, entry, slot, lam, cut):
        """Whether the swap of entry into slot, of spectrum lam, lowers the
        Gram condition number below cut, xi1 times the stack's, by more
        than the relative eigvalsh rounding width*eps*kappa of the swapped
        condition number, while the known right-hand side keeps norm at
        least the stack's floor xi2, which the weight solve checks too."""
        gram_kappa = _gram_kappa(lam)
        rhs_sq = self.rhs_sq - self._rhs_sq[slot] + entry.rhs_sq
        # eigvalsh leaves an absolute error of about width*eps*lam_max on
        # lam_min, so kappa is only known to a relative width*eps*kappa.  The
        # margin rides on the candidate's kappa so a stack at kappa = inf can
        # still take a swap that makes it finite.
        rounding = 1.0 + self.dim * _EPS * gram_kappa
        return gram_kappa * rounding < cut and math.sqrt(max(rhs_sq, 0.0)) >= self.xi2

    @property
    def sigma_matrix(self):
        """The stacked rows in slot order (a read-only view)."""
        view = self._rows[: self.size].reshape(-1, self.dim)
        view.flags.writeable = False
        return view

    @property
    def rhs_vector(self):
        """The stacked right-hand side in slot order (a read-only view)."""
        view = self._rhs[: self.size].reshape(-1)
        view.flags.writeable = False
        return view


def data_select(stack, entry, xi1):
    """Offer a candidate Entry to the stack per the condition-number
    selection rule (IrlHistoryStack._commits).

    Appends unconditionally while the stack is not full.  Once full, finds
    the swap that best conditions the stacked matrix and commits it only if
    the Gram condition number improves by the factor xi1.  Returns 1 if
    stored, else 0; raises NumericOverflowError, changing nothing, for an
    entry that is not finite or whose Gram block overflows the stack's.
    """
    if not entry.finite:
        raise NumericOverflowError(f"candidate produced non-finite regression rows at t={entry.t}")
    # a swap can pass the gate only with kappa below xi1*kappa_cur, since
    # the rounding factor is at least 1; a kappa_cur of inf scores every swap
    return int(stack.offer(entry.gram, entry, xi1 * stack.gram_kappa))


def solve_weights(sigma_matrix, rhs_vector):
    """Least-squares weight estimate [W_V; W_Q; W_R-minus] from the stacked
    regression (an IrlHistoryStack's sigma_matrix and rhs_vector).

    Requires the stacked matrix to have full column rank; raises
    RankDeficiencyError otherwise (rank 0 for an empty stack) so the caller
    can hold the previous estimate.
    """
    return least_squares(sigma_matrix, rhs_vector)
