"""Shared numerical kernels.

Fixed-step integration, step-indexed logs of uniformly sampled signals, a
continuous-time algebraic Riccati solver (a Hamiltonian start gain refined by
Kleinman-Newton iteration), least squares and the Gram-block history stack.
Nothing in this module knows about plants, observers or costs; everything
operates on plain numpy arrays, and numpy is the only dependency.  The
stack's swap search is bounded in compiled C (irlobs.gramkernel) where a C
compiler is found; numpy, where none loads, scores every slot, the
exhaustive search that the compiled one matches bit for bit.
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
_NEWTON_TOL = 1e-13  # relative Newton step that ends the Riccati iteration
_NEWTON_MAX_ITER = 60
# GramStack's compiled search (gramkernel.Kernel): None until a stack
# first searches a full stack, then the kernel, or False where none loads
_kernel = None


def _swap_kernel():
    """The compiled swap search, loaded at the first call, or False."""
    global _kernel
    if _kernel is None:
        from . import gramkernel

        _kernel = gramkernel.load() or False
    return _kernel


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

    Samples are written by one method, extend, in blocks of consecutive
    grid steps, and addressed by step index: the first sample appended is
    step 0.  The signal retains at least ``window`` seconds of history.
    A running trapezoid integral is kept alongside the samples, so the
    integral between two steps is the difference of two of its rows and
    integral additivity holds to machine precision.
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

    def refused(self, times, values):
        """The first of the rows of values, a (len(times), dim) float array
        of samples at times, that extend would refuse once the rows before
        it were appended, as (its index, extend's error), or None: the first
        row that is not finite or not at its grid time."""
        finite = np.isfinite(values).all(axis=1)
        if self._count:
            t0, first = self._t0, self.first_step + self._count
        else:  # the first sample sets the grid
            t0, first = float(times[0]), 0
        expected = t0 + np.arange(first, first + len(values)) * self.dt
        off = np.abs(np.asarray(times, dtype=float) - expected) > _GRID_TOL * self.dt
        bad = ~finite | off
        if not bad.any():
            return None
        j = int(bad.argmax())
        if not finite[j]:
            return j, NumericOverflowError(f"non-finite sample at t={times[j]}")
        return j, SampleTimeError(
            f"sample at t={times[j]} is off-grid (expected {float(expected[j])})"
        )

    def append(self, t, value):
        """Append value, the sample of the next grid time t: extend by one row."""
        self.extend(t, np.asarray(value, dtype=float)[None])

    def extend(self, t, values):
        """Append the rows of values, the samples of consecutive grid times
        from t on; the first sample appended sets the grid.  Raises,
        changing nothing, unless they are finite dim-vectors and t the next
        grid time."""
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != self.dim:
            raise ValueError(f"expected rows of {self.dim} values, got shape {values.shape}")
        if not len(values):
            return
        if refused := self.refused([t], values[:1]):
            raise refused[1]
        if not np.isfinite(values).all():
            raise NumericOverflowError(f"non-finite sample in the rows from t={t}")
        # the running integral, one row after another from the last row, or
        # from 0.0 at the first sample
        end, count = self._head + self._count, len(values)
        if self._count:
            terms = np.concatenate((self._values[end - 1 : end], values))
            start = self._cum[end - 1 : end]
        else:
            self._t0 = float(t)
            terms, start = values, np.zeros((1, self.dim))
        terms = terms[:-1] + terms[1:]
        terms *= 0.5 * self.dt
        cum = np.add.accumulate(np.concatenate((start, terms)))[-count:]
        # keep the last _keep rows of the old and the new ones; retention is
        # below the capacity, so a full buffer has dropped rows at its head:
        # then move the kept old rows to the front
        new = min(count, self._keep)
        old = min(self._count, self._keep - new)
        lo = end - old
        if lo + old + new > self._values.shape[0]:
            self._values[:old] = self._values[lo:end]
            self._cum[:old] = self._cum[lo:end]
            lo = 0
        self._values[lo + old : lo + old + new] = values[count - new :]
        self._cum[lo + old : lo + old + new] = cum[count - new :]
        self.first_step += self._count - old + count - new
        self._head, self._count = lo, old + new

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
        view, valid until the next extend."""
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
    every change, and ``spectrum`` its ascending eigenvalues.  Candidates
    enter by ``offer``, which weighs the best single-slot swap that
    ``best_swap`` finds.  Subclasses own the criterion (``_score``,
    ``_commits``, and ``kernel_score``, which of the compiled search's two
    scores ``_score`` is), the compiled search's Ritz basis
    (``ritz_per_offer``), what they keep per slot (``_store``) and what
    they derive from the stack (``_changed``).

    From its first search of a full stack on, a stack with a kernel_score
    searches in compiled code (irlobs.gramkernel) where that loads, solving
    as few swaps as Ritz bounds allow; else numpy solves every swap.  Both
    make the same decisions from the same spectra, bit for bit.
    """

    # the compiled search's Ritz basis: the eigenvectors of gram, taken once
    # per change of the stack, or (True) those of gram + block, per offer
    ritz_per_offer = False
    # _score as the compiled search has it: "kappa", the Gram condition
    # number, "lam_min", minus the smallest eigenvalue, or None for numpy only
    kernel_score = None

    def __init__(self, capacity, dim):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = int(capacity)
        self.dim = int(dim)
        self.blocks = np.zeros((self.capacity, self.dim, self.dim))
        self._traces = np.zeros(self.capacity)
        self.size = 0
        self._search = None  # the compiled search, or False, from the first full-stack search
        self._resum()

    def __getstate__(self):
        # a copy has arrays of its own, so it attaches its own search
        return {**self.__dict__, "_search": None}

    @property
    def is_full(self):
        return self.size >= self.capacity

    def offer(self, block, entry, cut):
        """Store entry and its Gram block, appending while the stack is not
        full, else in the slot of best_swap(block, cut, trace) if
        _commits(entry, slot, spectrum, cut); returns True when stored.
        block's trace is taken once, here.  Raises, changing
        nothing, for an entry that _store rejects, and NumericOverflowError
        unless twice the trace of gram + block (block being the Gram of
        finite rows) is finite: it bounds every entry of gram + block, which
        the eigen-solves start from, and of the Gram that an append or a
        swap gives, and the Ritz bounds sum two traces."""
        trace = float(block.trace())
        if not math.isfinite(2.0 * (self._gram_trace + trace)):
            raise NumericOverflowError("a candidate's Gram block overflows the stack's Gram")
        if not self.is_full:
            self.put(self.size, block, entry, trace)
            return True
        found = self.best_swap(block, cut, trace)
        if found is None or not self._commits(entry, *found, cut):
            return False
        self.put(found[0], block, entry, trace)
        return True

    def swap_spectra(self, block):
        """Ascending eigenvalues of gram + block - blocks[i], one row per stored slot i."""
        return np.linalg.eigvalsh((self.gram + block)[None, :, :] - self.blocks[: self.size])

    def best_swap(self, block, cut, trace):
        """The swap of block, of trace float(block.trace()), into the stack
        with the lowest score.

        _score maps rows of ascending spectra to one score each.  Returns
        (slot, spectrum), the spectrum bitwise the row of ``swap_spectra``.
        If some slot scores below cut, slot is the lowest scoring one, ties
        going to the lowest slot as with argmin; otherwise the result is
        None or a slot scoring at least cut.

        The compiled search solves only the slots that its bounds leave
        (gramkernel.c).  Without it, every slot is scored from one batched
        eigvalsh, the exhaustive reference.
        """
        if self._search is None:
            kernel = _swap_kernel() if self.kernel_score else False
            self._search = kernel and kernel.search(
                self.blocks, self._traces, self.kernel_score == "kappa", self.ritz_per_offer
            )
        if self._search:
            return self._search.best_swap(block, cut, trace, self.gram, self.size,
                                          self._gram_trace)
        # the argmin slot always: where no slot scores below cut, the compiled
        # search may return None or another slot scoring at least cut, and
        # each stack's _commits refuses every such slot, so both commit alike
        lam = self.swap_spectra(block)
        slot = int(np.argmin(self._score(lam)))
        return slot, lam[slot]

    def put(self, i, block, entry, trace=None):
        """Store an entry and its Gram block, of trace float(block.trace()),
        in slot i; i == size appends.  Raises, changing nothing, for a slot
        past the end, a block of another shape, or an entry that _store
        rejects."""
        if not 0 <= i <= self.size or i >= self.capacity:
            raise IndexError(f"slot {i} is outside the stack (size {self.size})")
        if block.shape != self.blocks.shape[1:]:
            raise ValueError(f"block of shape {block.shape} in a stack of dim {self.dim}")
        self._store(i, entry)
        self.blocks[i] = block
        self._traces[i] = float(block.trace()) if trace is None else trace
        self.size = max(self.size, i + 1)
        self._resum()
        self._changed()

    def clear(self):
        self.size = 0
        self._resum()
        self._changed()

    def _resum(self):
        """gram, the stored blocks summed in slot order (a new array), its
        trace and its spectrum."""
        self.gram = self.blocks[: self.size].sum(axis=0)
        self.spectrum = np.linalg.eigvalsh(self.gram)
        self._gram_trace = float(self.gram.trace())

    def _store(self, i, entry):
        """Hook run first in put, for a subclass to check entry and write
        what it keeps per slot; raises, changing nothing, if entry does
        not fit."""

    def _changed(self):
        """Hook run after every put and clear."""
