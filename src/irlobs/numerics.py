"""Shared numerical kernels.

Fixed-step integration, step-indexed logs of uniformly sampled signals, a
continuous-time algebraic Riccati solver (a Hamiltonian start gain refined by
Kleinman-Newton iteration), least squares and the Gram-block history stack.
Nothing in this module knows about plants, observers or costs; everything
operates on plain numpy arrays, and numpy is the only dependency.
"""

from __future__ import annotations

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

    def __init__(self, dim, dt, window, t0=0.0):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if window <= 0.0:
            raise ValueError("window must be positive")
        self.dim = int(dim)
        self.dt = float(dt)
        self.window = float(window)
        # samples kept: the int(window/dt) + 1 spanning the window, one more
        # in case the window ends between two steps, and one beyond it
        self._keep = int(window / dt + _GRID_TOL) + 3
        cap = max(64, int(window / dt) + 16)
        self._values = np.zeros((cap, self.dim))
        self._cum = np.zeros((cap, self.dim))
        self._head = 0            # storage row of the first retained sample
        self._count = 0           # number of retained samples
        self.first_step = 0       # step index of the first retained sample
        self._t0 = float(t0)      # time of step 0

    @classmethod
    def from_samples(cls, dt, window, t0, values):
        """Bulk-load a signal from consecutive grid samples (rows of values)."""
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 1:
            raise ValueError("values must be a nonempty (samples x dim) array")
        if not np.all(np.isfinite(values)):
            raise NumericOverflowError("non-finite samples in bulk load")
        sig = cls(values.shape[1], dt, window, t0=t0)
        count = values.shape[0]
        if count + 1 > sig._values.shape[0]:
            sig._values = np.zeros((count + 16, sig.dim))
            sig._cum = np.zeros((count + 16, sig.dim))
        sig._values[:count] = values
        sig._cum[1:count] = np.cumsum(
            (0.5 * dt) * (values[:-1] + values[1:]), axis=0
        )
        sig._count = count
        sig._prune()
        return sig

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
        v = self.check(t, value)
        if self._count == 0:
            self._t0 = float(t)
        if self._head + self._count >= self._values.shape[0]:
            self._compact_or_grow()
        i = self._head + self._count
        self._values[i] = v
        if self._count == 0:
            self._cum[i] = 0.0
        else:
            self._cum[i] = self._cum[i - 1] + (0.5 * self.dt) * (self._values[i - 1] + v)
        self._count += 1
        self._prune()

    def _compact_or_grow(self):
        lo, hi = self._head, self._head + self._count
        if self._count + 1 <= self._values.shape[0] and self._head > 0:
            self._values[: self._count] = self._values[lo:hi]
            self._cum[: self._count] = self._cum[lo:hi]
        else:
            cap = max(2 * self._values.shape[0], self._count + 16)
            values = np.zeros((cap, self.dim))
            cum = np.zeros((cap, self.dim))
            values[: self._count] = self._values[lo:hi]
            cum[: self._count] = self._cum[lo:hi]
            self._values, self._cum = values, cum
        self._head = 0

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
        from step first on, stride steps apart, as a (count, dim) copy."""
        lo = self._head + self._local(first, count, stride)
        data = self._cum if cumulative else self._values
        return data[lo : lo + (count - 1) * stride + 1 : stride].copy()


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
    # step-major, so that each step's states are one contiguous block
    states = np.empty((drive.shape[-2] + 1,) + x0.shape)
    states[0] = x0
    for prev, row, step in zip(states, states[1:], np.moveaxis(drive, -2, 0)):
        np.matmul(phi, prev[..., None], out=row[..., None])
        row += step
    return np.moveaxis(states, 0, -2)


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
    """Fixed-capacity stack of entries, each carrying a symmetric Gram block.

    ``gram`` is the sum of the stored blocks, re-summed in slot order after
    every change.  ``swap_spectra`` scores every single-entry swap with one
    batched ``eigvalsh``; ``best_swap`` finds the best swap with as few of
    those eigen-solves as Ritz bounds allow.  Subclasses own the selection
    criterion and refresh what they derive from the stack in ``_changed``.
    """

    def __init__(self, capacity, dim):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = int(capacity)
        self.dim = int(dim)
        self.blocks = np.zeros((self.capacity, self.dim, self.dim))
        self._traces = np.zeros(self.capacity)
        self.entries = []
        self.gram = np.zeros((self.dim, self.dim))
        self._ritz = None

    @property
    def size(self):
        return len(self.entries)

    @property
    def is_full(self):
        return self.size >= self.capacity

    def swap_spectra(self, block):
        """Ascending eigenvalues of gram + block - blocks[i], one row per stored slot i."""
        return np.linalg.eigvalsh((self.gram + block)[None, :, :] - self.blocks[: self.size])

    def best_swap(self, block, score, score_floor, cut):
        """The swap of block into the stack with the lowest score.

        score maps rows of ascending spectra to one score each;
        score_floor maps the per-slot bounds (an upper bound on lam_min, a
        lower bound on lam_max) of ``swap_spectra`` to lower bounds on the
        score.  Returns (slot, spectrum), the spectrum bitwise the row of
        ``swap_spectra``.  If some slot scores below cut, slot is the lowest
        scoring one, ties going to the lowest slot as with argmin;
        otherwise the result is None or a slot scoring at least cut.

        Exact eigen-solves run on at most two batches: the 4 slots with the
        lowest floors, then every other slot whose floor is below cut and
        at most the best score found.  A non-finite cut scores every slot
        in one batch.
        """
        if not np.isfinite(cut):
            lam = self.swap_spectra(block)
            slot = int(np.argmin(score(lam)))
            return slot, lam[slot]
        grown = self.gram + block
        m = grown[None, :, :] - self.blocks[: self.size]
        floor = score_floor(*self._ritz_bounds(m, np.trace(grown)))
        order = np.argsort(floor, kind="stable")
        ranked = floor[order]
        live = int(np.searchsorted(ranked, cut, side="left"))
        if live == 0:
            return None
        slots = order[: min(4, live)]
        lam = np.linalg.eigvalsh(m[slots])
        scores = score(lam)
        rest = order[slots.size : min(live, np.searchsorted(ranked, scores.min(), side="right"))]
        if rest.size:
            slots = np.concatenate((slots, rest))
            lam = np.concatenate((lam, np.linalg.eigvalsh(m[rest])))
            scores = score(lam)
        ties = np.flatnonzero(scores == scores.min())
        j = ties[np.argmin(slots[ties])]
        return int(slots[j]), lam[j]

    def _ritz_bounds(self, m, grown_trace):
        """Per slot i, an upper bound on eigvalsh(m[i])[0] and a lower bound
        on eigvalsh(m[i])[-1], from the eigenvectors of gram.

        With U the eigenvectors of gram's 3 smallest eigenvalues and v that
        of its largest, Rayleigh-Ritz (Cauchy interlacing) gives
        lam_min(M) <= lam_min(U'MU) and lam_max(M) >= v'Mv for orthonormal
        U, v.  The computed values differ from these by at most
        tau_i = (64 d^2 eps + 3 delta) s_i, where s_i = trace(gram + block)
        + trace(blocks[i]) bounds ||m[i]||_2 for PSD blocks, also when
        swapping out a dominant entry cancels most of the trace, and delta
        is the measured loss of orthonormality ||Q'Q - I||_F + d eps of
        gram's eigenvector matrix Q.  Budget, in units of eps ||M||:
          - eigvalsh backward error, on m[i] and on the 3x3 U'MU:
            at most d^2 each (LAPACK's modest p(d));
          - rounding of U'(MU) and (Mv).v: at most 2d * 3 * sqrt(d)
            <= 6 d^2 (elementwise gamma_2d times || |U| ||^2 || |M| ||);
          - the Rayleigh quotient's norm ||Qy||^2 in [1 - delta, 1 + delta]
            moves it by at most 2 delta (1 + delta) ||M|| <= 3 delta ||M||.
        The first two sum to 8 d^2, a factor 8 below the 64 d^2 used.
        """
        d = self.dim
        if self._ritz is None:
            _, q = np.linalg.eigh(self.gram)
            delta = np.linalg.norm(q.T @ q - np.eye(d)) + d * _EPS
            self._ritz = (q[:, :3], q[:, -1], 64 * d * d * _EPS + 3 * delta)
        u, v, scale = self._ritz
        tau = scale * (grown_trace + self._traces[: self.size])
        ritz = u.T @ (m.reshape(-1, d) @ u).reshape(m.shape[0], d, u.shape[1])
        return np.linalg.eigvalsh(ritz)[:, 0] + tau, (m @ v) @ v - tau

    def put(self, i, block, entry):
        """Store an entry and its Gram block in slot i; i == size appends."""
        if not 0 <= i <= self.size or i >= self.capacity:
            raise IndexError(f"slot {i} is outside the stack (size {self.size})")
        self.blocks[i] = block
        self._traces[i] = np.trace(block)
        if i == self.size:
            self.entries.append(entry)
        else:
            self.entries[i] = entry
        self.gram = self.blocks[: self.size].sum(axis=0)
        self._ritz = None
        self._changed()

    def clear(self):
        self.entries = []
        self.gram = np.zeros((self.dim, self.dim))
        self._ritz = None
        self._changed()

    def _changed(self):
        """Hook run after every put and clear."""
