"""Shared numerical kernels.

Fixed-step integration, step-indexed logs of uniformly sampled signals, a
continuous-time algebraic Riccati solver (a Hamiltonian start gain refined by
Kleinman-Newton iteration), least squares and the Gram-block history stack.
Nothing in this module knows about plants, observers or costs; everything
operates on plain numpy arrays, and numpy is the only dependency.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    NumericOverflowError,
    RankDeficiencyError,
    SampleTimeError,
    SolverFailureError,
    WindowUnderflowError,
)

_GRID_TOL = 1e-6  # fraction of dt tolerated when checking a sample's time
_EPS = np.finfo(float).eps
_NEWTON_TOL = 1e-13  # relative Newton step that ends the Riccati iteration
_NEWTON_MAX_ITER = 60
_FIRST_BATCH = 6  # slots GramStack.best_swap solves before it prunes by the best score
_EYE3 = np.eye(3)


def rk4_step(f, t, x, dt):
    """Advance x by one classical 4th-order Runge-Kutta step of size dt.

    f maps (t, x) to dx/dt.  Local error is O(dt^5).  Raises
    NumericOverflowError if the update produces non-finite entries.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    k1 = f(t, x)
    k2 = f(t + 0.5 * dt, x + (0.5 * dt) * k1)
    k3 = f(t + 0.5 * dt, x + (0.5 * dt) * k2)
    k4 = f(t + dt, x + dt * k3)
    out = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(out).all():
        raise NumericOverflowError(f"RK4 step at t={t} produced a non-finite state")
    return out


class SampledSignal:
    """Uniformly sampled vector signal with a bounded retention window.

    Samples are appended one grid step at a time (single writer) and
    addressed by step index: the first sample appended is step 0.  The
    signal retains at least ``window`` seconds of history.  A running
    trapezoid integral is kept alongside the samples, so the integral
    between two steps is the difference of two of its rows and integral
    additivity holds to machine precision.
    """

    def __init__(self, dim, dt, window):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if window <= 0.0:
            raise ValueError("window must be positive")
        self.dim = int(dim)
        self.dt = float(dt)
        # samples kept: the int(window/dt) + 1 spanning the window, one more
        # in case the window ends between two steps, and one beyond it
        self._keep = int(window / dt + _GRID_TOL) + 3
        cap = max(64, int(window / dt) + 16)
        self._values = np.zeros((cap, self.dim))
        self._cum = np.zeros((cap, self.dim))
        self._head = 0            # storage row of the first retained sample
        self._count = 0           # number of retained samples
        self.first_step = 0       # step index of the first retained sample
        self._t0 = 0.0            # time of step 0, set by the first sample

    def __len__(self):
        return self._count

    def check(self, t, value):
        """value as a float vector if it may be appended at time t; raises,
        changing nothing, unless it is a finite dim-vector at the next grid time."""
        v = np.asarray(value, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"expected a {self.dim}-vector, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise NumericOverflowError(f"non-finite sample at t={t}")
        expected = self._t0 + (self.first_step + self._count) * self.dt
        if self._count > 0 and abs(t - expected) > _GRID_TOL * self.dt:
            raise SampleTimeError(f"sample at t={t} is off-grid (expected {expected})")
        return v

    def append(self, t, value):
        """Append the sample for the next grid time (see check)."""
        self.push(t, self.check(t, value))

    def push(self, t, v):
        """Append v, a float vector that check(t, v) returned, unchecked."""
        if self._count == 0:
            self._t0 = float(t)
        if self._head + self._count >= self._values.shape[0]:
            # retention (_keep) is below the capacity, so a full buffer has
            # pruned rows at its head: move the retained rows to the front
            lo, hi = self._head, self._head + self._count
            self._values[: self._count] = self._values[lo:hi]
            self._cum[: self._count] = self._cum[lo:hi]
            self._head = 0
        i = self._head + self._count
        self._values[i] = v
        if self._count == 0:
            self._cum[i] = 0.0
        else:
            self._cum[i] = self._cum[i - 1] + (0.5 * self.dt) * (self._values[i - 1] + v)
        self._count += 1
        self._prune()

    def extend(self, t, values):
        """Append the rows of values, the samples of consecutive grid times
        from t on, bitwise as one append each; raises, changing nothing,
        unless they are finite dim-vectors and t the next grid time."""
        values = np.asarray(values, dtype=float)
        if not len(values):
            return
        self.check(t, values[0])  # a row's shape and the grid time
        if not np.isfinite(values).all():
            raise NumericOverflowError(f"non-finite sample in the rows from t={t}")
        if self._count == 0:  # the first sample starts the running integral
            self.push(t, values[0])
            values = values[1:]
        # push's running integral, one row after another from the last row
        last, count = self._head + self._count - 1, len(values)
        terms = np.concatenate((self._values[last : last + 1], values))
        terms = terms[:-1] + terms[1:]
        terms *= 0.5 * self.dt
        cum = np.add.accumulate(np.concatenate((self._cum[last : last + 1], terms)))
        # keep the last _keep rows of the old and the new ones
        new = min(count, self._keep)
        old = min(self._count, self._keep - new)
        lo = last + 1 - old
        if lo + old + new > self._values.shape[0]:
            self._values[:old] = self._values[lo : lo + old]
            self._cum[:old] = self._cum[lo : lo + old]
            lo = 0
        self._values[lo + old : lo + old + new] = values[count - new :]
        self._cum[lo + old : lo + old + new] = cum[1 + count - new :]
        self.first_step += self._count - old + count - new
        self._head, self._count = lo, old + new

    def _prune(self):
        drop = self._count - self._keep
        if drop > 0:
            self._head += drop
            self._count -= drop
            self.first_step += drop

    def _local(self, first, count, stride):
        """The retained-row offset of step first; raises unless count >= 1
        steps from first on, stride >= 1 apart, are all retained."""
        if count < 1 or stride < 1:
            raise ValueError("count and stride must be positive")
        lo = first - self.first_step
        if lo < 0 or lo + (count - 1) * stride >= self._count:
            raise WindowUnderflowError(
                f"steps {first}..{first + (count - 1) * stride} are outside the retained "
                f"steps {self.first_step}..{self.first_step + self._count - 1}"
            )
        return lo

    def rows(self, first, count=1, stride=1, cumulative=False):
        """The samples (running integrals when cumulative) of count steps
        from step first on, stride steps apart, as a (count, dim) read-only
        view, valid until the next append."""
        lo = self._head + self._local(first, count, stride)
        data = self._cum if cumulative else self._values
        view = data[lo : lo + (count - 1) * stride + 1 : stride]
        view.flags.writeable = False
        return view


def linear_rk4_matrices(a, b, h):
    """One-step RK4 matrices for xdot = A x + B u(t) with step h.

    Returns (phi, w0, wh, w1) such that the classical RK4 update is
    x+ = phi x + w0 u(t) + wh u(t + h/2) + w1 u(t + h).  a and b may
    carry a leading stack axis of independent systems; each system's
    matrices are then bitwise those of its own call.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a3 = a2 @ a
    a4 = a3 @ a
    phi = eye + h * a + (h**2 / 2) * a2 + (h**3 / 6) * a3 + (h**4 / 24) * a4
    w0 = (h / 6.0) * (eye + h * a + (h**2 / 2) * a2 + (h**3 / 4) * a3) @ b
    wh = (h / 6.0) * (4.0 * eye + 2.0 * h * a + (h**2 / 2) * a2) @ b
    w1 = (h / 6.0) * b
    return phi, w0, wh, w1


def linear_rollout(phi, drive, x0):
    """States x_0 = x0, x_{j+1} = phi x_j + drive[j] for every row of drive.

    One matrix-vector product and one add per step, bitwise the same as
    x = phi @ x + drive[j].  phi (d, d), drive (steps, d) and x0 (d,) may
    carry a leading stack axis of independent systems, advanced in
    lockstep by stacked products; each system's states, shaped
    (steps + 1, d) behind that axis, are then bitwise those of its own
    call.
    """
    x0 = np.asarray(x0, dtype=float)
    # step-major, so that each step's states are one contiguous block; the
    # states and drive rows as columns, so that each product is phi @ x
    states = np.empty((drive.shape[-2] + 1,) + x0.shape + (1,))
    states[0, ..., 0] = x0
    for prev, row, step in zip(states, states[1:], np.moveaxis(drive, -2, 0)[..., None]):
        np.matmul(phi, prev, out=row)
        row += step
    return np.moveaxis(states[..., 0], 0, -2)


def _is_hurwitz(a):
    return bool(np.all(np.linalg.eigvals(a).real < 0.0))


def _hamiltonian_gain(a, b, q, r):
    """Start gain R^-1 B'P0, with P0 = Y X^-1 from the stable eigenvectors
    [X; Y] of the Hamiltonian [[A, -BR^-1B'], [-Q, -A']] (Laub, IEEE TAC
    1979).  Raises SolverFailureError unless A - BK0 is Hurwitz."""
    n = a.shape[0]
    vals, vecs = np.linalg.eig(np.block([[a, -b @ np.linalg.solve(r, b.T)], [-q, -a.T]]))
    stable = vecs[:, vals.real < 0.0]
    if stable.shape[1] != n:
        raise SolverFailureError("the Hamiltonian has eigenvalues on the imaginary axis")
    try:
        p0 = np.real(np.linalg.solve(stable[:n].T, stable[n:].T).T)
    except np.linalg.LinAlgError as exc:
        raise SolverFailureError(f"could not find a stabilizing gain: {exc}")
    k0 = np.linalg.solve(r, b.T @ (0.5 * (p0 + p0.T)))
    if not (np.isfinite(k0).all() and _is_hurwitz(a - b @ k0)):
        raise SolverFailureError("the Hamiltonian start gain does not stabilize the pair")
    return k0


def _lyapunov(a, c):
    """P with A'P + PA = C, from the n^2 x n^2 Kronecker system."""
    n = a.shape[0]
    eye = np.eye(n)
    try:
        p = np.linalg.solve(np.kron(eye, a.T) + np.kron(a.T, eye), c.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise SolverFailureError(f"singular Lyapunov equation: {exc}")
    return p.reshape(n, n)


def are_residual(a, b, q, r, p):
    """Frobenius norm of A'P + PA - PBR^-1B'P + Q."""
    res = a.T @ p + p @ a - p @ b @ np.linalg.solve(r, b.T @ p) + q
    return float(np.linalg.norm(res, "fro"))


def solve_are(a, b, q, r):
    """Stabilizing solution of A'P + PA - P B R^-1 B' P + Q = 0.

    Kleinman-Newton iteration (IEEE TAC 1968): from the Hamiltonian start
    gain, each pass solves the Lyapunov equation
    (A - BK)'P + P(A - BK) = -(Q + K'RK) and refreshes K = R^-1 B'P.
    Quadratically convergent when (A, B) is stabilizable.

    Raises SolverFailureError (with the final residual attached) when no
    stabilizing gain exists, the iteration stalls, or the verified solution
    violates the residual/symmetry/Hurwitz contract.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape[0] != n or q.shape != (n, n):
        raise ValueError("inconsistent dimensions for the Riccati data")
    if b.ndim != 2:
        raise ValueError("B must be a matrix")
    if np.any(np.linalg.eigvalsh(0.5 * (r + r.T)) <= 0.0):
        raise ValueError("R must be positive definite")

    k = _hamiltonian_gain(a, b, q, r)
    p = np.zeros((n, n))
    last = np.inf
    for _ in range(_NEWTON_MAX_ITER):
        p_next = _lyapunov(a - b @ k, -(q + k.T @ r @ k))
        p_next = 0.5 * (p_next + p_next.T)
        step = np.linalg.norm(p_next - p, "fro")
        p = p_next
        k = np.linalg.solve(r, b.T @ p)
        # the Kronecker solve bottoms out near 1e-12 relative on badly
        # conditioned closed loops, so a step that stops shrinking ends it too
        if step <= _NEWTON_TOL * max(1.0, np.linalg.norm(p, "fro")) or step >= last:
            break
        last = step
    else:
        raise SolverFailureError(
            "Kleinman-Newton iteration did not converge",
            residual=are_residual(a, b, q, r, p),
        )

    residual = are_residual(a, b, q, r, p)
    if residual >= 1e-8:
        raise SolverFailureError(
            f"Riccati residual {residual:.3e} exceeds tolerance", residual=residual
        )
    if np.linalg.norm(p - p.T, "fro") >= 1e-10:
        raise SolverFailureError("Riccati solution lost symmetry", residual=residual)
    if not _is_hurwitz(a - b @ np.linalg.solve(r, b.T @ p)):
        raise SolverFailureError("closed loop is not Hurwitz", residual=residual)
    return p


def least_squares(a, b):
    """Minimizer of ||a w - b||_2 via orthogonal (SVD) factorization.

    Requires full column rank; raises RankDeficiencyError carrying the
    numerical rank otherwise.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < a.shape[1]:
        raise RankDeficiencyError(
            f"system is rank deficient (rank {rank} < {a.shape[1]})", rank=int(rank)
        )
    return sol


class GramStack:
    """Fixed-capacity stack of slots, each holding a symmetric Gram block.

    ``gram`` is the sum of the stored blocks, re-summed in slot order after
    every change.  Candidates enter by ``offer``, which weighs the best
    single-slot swap that ``best_swap`` finds with as few batched
    ``eigvalsh`` solves as Ritz bounds allow.  Subclasses own the criterion
    (``_score``, ``_score_floor``, ``_commits``), the Ritz basis
    (``ritz_per_offer``), what they keep per slot (``_store``) and what
    they derive from the stack (``_changed``).
    """

    # best_swap's Ritz basis: the eigenvectors of gram, taken once per
    # change of the stack, or (True) those of gram + block, taken per offer
    ritz_per_offer = False

    def __init__(self, capacity, dim):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = int(capacity)
        self.dim = int(dim)
        self.blocks = np.zeros((self.capacity, self.dim, self.dim))
        self._traces = np.zeros(self.capacity)
        self.size = 0
        self.gram = np.zeros((self.dim, self.dim))
        self._gram_trace = 0.0
        self._ritz = None

    @property
    def is_full(self):
        return self.size >= self.capacity

    def offer(self, block, entry, cut):
        """Store entry and its Gram block, appending while the stack is not
        full, else in the slot of best_swap(block, cut) if _commits(entry,
        slot, spectrum, cut); returns True when stored.  Raises, changing
        nothing, for an entry that _store rejects, and NumericOverflowError
        unless twice the trace of gram + block (block being the Gram of
        finite rows) is finite: it bounds every entry of gram + block, which
        the eigen-solves start from, and of the Gram that an append or a
        swap gives, and the Ritz bounds sum two traces."""
        if not math.isfinite(2.0 * (self._gram_trace + float(block.trace()))):
            raise NumericOverflowError("a candidate's Gram block overflows the stack's Gram")
        if not self.is_full:
            self.put(self.size, block, entry)
            return True
        found = self.best_swap(block, cut)
        if found is None or not self._commits(entry, *found, cut):
            return False
        self.put(found[0], block, entry)
        return True

    def swap_spectra(self, block):
        """Ascending eigenvalues of gram + block - blocks[i], one row per stored slot i."""
        return np.linalg.eigvalsh((self.gram + block)[None, :, :] - self.blocks[: self.size])

    def best_swap(self, block, cut):
        """The swap of block into the stack with the lowest score.

        _score maps rows of ascending spectra to one score each;
        _score_floor maps the per-slot bounds (an upper bound on lam_min, a
        lower bound on lam_max) of ``swap_spectra`` to lower bounds on the
        score.  Returns (slot, spectrum), the spectrum bitwise the row of
        ``swap_spectra``.  If some slot scores below cut, slot is the lowest
        scoring one, ties going to the lowest slot as with argmin;
        otherwise the result is None or a slot scoring at least cut.

        Exact eigen-solves run on at most two batches: the _FIRST_BATCH
        slots with the lowest floors, then every other slot whose floor is
        below cut and at most the best score found.  A non-finite cut, or a
        dim of 1, scores every slot in one batch.
        """
        if self.dim < 2 or not math.isfinite(cut):
            lam = self.swap_spectra(block)
            slot = int(np.argmin(self._score(lam)))
            return slot, lam[slot]
        floor = self._score_floor(*self._ritz_bounds(block))
        order = floor.argsort(kind="stable")
        ranked = floor[order]
        live = int(ranked.searchsorted(cut))
        if live == 0:
            return None
        grown = self.gram + block
        slots = order[: min(_FIRST_BATCH, live)]
        # rows of grown - blocks[:size], bitwise, for the slots solved
        lam = np.linalg.eigvalsh(grown - self.blocks.take(slots, axis=0))
        scores = self._score(lam)
        j = scores.argmin()
        rest = order[slots.size : min(live, int(ranked.searchsorted(scores[j], side="right")))]
        if rest.size:
            more = np.linalg.eigvalsh(grown - self.blocks.take(rest, axis=0))
            slots = np.concatenate((slots, rest))
            lam = np.concatenate((lam, more))
            scores = np.concatenate((scores, self._score(more)))
            j = scores.argmin()
        ties = (scores == scores[j]).nonzero()[0]
        if ties.size != 1:  # the lowest of tied slots
            j = ties[slots[ties].argmin()]
        return int(slots[j]), lam[j]

    def _ritz_bounds(self, block):
        """Per slot i, an upper bound on lam_min and a lower bound on lam_max
        of M_i = gram + block - blocks[i], from Rayleigh-Ritz on an
        eigenbasis: that of gram, taken once per change of the stack, or
        with ritz_per_offer that of gram + block, taken per offer.

        With U the basis eigenvectors of the 2 smallest eigenvalues and v
        that of the largest, Rayleigh-Ritz (Cauchy interlacing) gives
        lam_min(M) <= lam_min(U'MU) and lam_max(M) >= v'Mv for any
        orthonormal U, v; the basis only decides how tight the bounds are.
        The projections W'(X W) of gram and of each blocks[i] on W = [U, v]
        are summed when the basis is taken, and each offer adds that of
        block; lam_min of the 2x2 U'MU [[a, b], [b, c]] is the closed form
        ((a + c) - hypot(a - c, 2b)) / 2.  The computed values differ from
        these by at most tau_i = (64 d^2 eps + 3 delta) s_i, which moves
        each bound outwards, where s_i = trace(gram) + trace(block) +
        trace(blocks[i]) bounds ||M_i||_2 and the norms of the three PSD
        terms together, also when swapping out a dominant entry cancels
        most of the trace, and delta = sum |W'W - I| + 4d eps, at least
        ||W'W - I||_F + 4d eps, bounds W's loss of orthonormality.
        Budget, in units of eps s_i:
          - eigvalsh backward error on the exact solve of M_i, and the
            rounding of M_i: at most d^2 + 2d (LAPACK's modest p(d), and
            sqrt(d) eps per sum of PSD terms);
          - rounding of the three projections: at most 2 * 2d * sqrt(d)
            <= 4 d^2 (elementwise gamma_2d times || |w| ||^2 || |X| ||,
            doubled from an entry to the 2x2 matrix);
          - the sums of the projections, each entry's sum and difference,
            the closed form and the adding of tau's two parts: at most 18
            (eps ||M|| for each of the 16 roundings, 2 eps ||M|| for hypot,
            which also carries its arguments' errors; halving is exact);
          - the Rayleigh quotient's norm ||Wy||^2 in [1 - delta, 1 + delta]
            moves it by at most 2 delta (1 + delta) ||M|| <= 3 delta ||M||.
        The first three sum to 5 d^2 + 2d + 18 <= 8 d^2 for d >= 3 (11 d^2
        at d = 2), a factor 5.8 or more below the 64 d^2 used.
        """
        if self._ritz is None or self.ritz_per_offer:
            d, size = self.dim, self.size
            _, q = np.linalg.eigh(self.gram + block if self.ritz_per_offer else self.gram)
            w = q[:, [0, 1, -1]]
            loss = w.T @ w
            loss -= _EYE3
            # the sum of the magnitudes bounds the Frobenius norm
            delta = float(np.abs(loss).sum()) + 4 * d * _EPS
            scale = 64 * d * d * _EPS + 3 * delta
            # W'(gram - blocks[i])W for every slot, from one product each
            rest = (w.T @ (self.gram @ w))[None] - w.T @ (
                self.blocks[:size].reshape(-1, d) @ w
            ).reshape(size, d, 3)
            a, b, c = rest[:, 0, 0], rest[:, 0, 1], rest[:, 1, 1]
            tau = scale * (self.gram.trace() + self._traces[:size])
            # each bound's part from the stack: half of a + c and the top
            # Rayleigh quotient, each moved by tau
            low = 0.5 * (a + c)
            low += tau
            high = rest[:, 2, 2] - tau
            self._ritz = (w, scale, low, a - c, 2.0 * b, high)
        w, scale, low, diffs, b2, high = self._ritz
        (p00, p01, _), (_, p11, _), (_, _, p22) = (w.T @ (block @ w)).tolist()
        tau = scale * float(block.trace())
        lam_min = np.hypot(diffs + (p00 - p11), b2 + 2.0 * p01)
        lam_min *= -0.5
        lam_min += low
        lam_min += 0.5 * (p00 + p11) + tau
        return lam_min, high + (p22 - tau)

    def put(self, i, block, entry):
        """Store an entry and its Gram block in slot i; i == size appends.
        Raises, changing nothing, for a slot past the end, a block of
        another shape, or an entry that _store rejects."""
        if not 0 <= i <= self.size or i >= self.capacity:
            raise IndexError(f"slot {i} is outside the stack (size {self.size})")
        if block.shape != self.blocks.shape[1:]:
            raise ValueError(f"block of shape {block.shape} in a stack of dim {self.dim}")
        self._store(i, entry)
        self.blocks[i] = block
        self._traces[i] = block.trace()
        self.size = max(self.size, i + 1)
        self.gram = self.blocks[: self.size].sum(axis=0)
        self._gram_trace = float(self.gram.trace())
        self._ritz = None
        self._changed()

    def clear(self):
        self.size = 0
        self.gram = np.zeros((self.dim, self.dim))
        self._gram_trace = 0.0
        self._ritz = None
        self._changed()

    def _store(self, i, entry):
        """Hook run first in put, for a subclass to check entry and write
        what it keeps per slot; raises, changing nothing, if entry does
        not fit."""

    def _changed(self):
        """Hook run after every put and clear."""
