"""Numerical kernel tests against analytic values and independent oracles."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_continuous_are

from irlobs.errors import (
    NumericOverflowError,
    RankDeficiencyError,
    SampleTimeError,
    SolverFailureError,
    WindowUnderflowError,
)
from irlobs.irl import _gram_kappa, _gram_kappas
from irlobs.numerics import (
    GramStack,
    SampledSignal,
    _lyapunov,
    are_residual,
    least_squares,
    linear_rk4_matrices,
    linear_rollout,
    rk4_step,
    solve_are,
)
from irlobs.plant import CostFunction, LinearPlant

from conftest import DEFAULT_A, DEFAULT_B, DEFAULT_RDIAG, DEFAULT_WQ, signal_of

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
# the 3-position plant of the benchmark's query_n3 workload
N3_A = [[1.0, 0.5, 0.0, 1.0, 0.0, -0.5], [0.0, 1.0, 1.0, 0.5, -1.0, 0.0],
        [2.0, 0.0, -1.0, 0.0, 0.5, 1.0]]
N3_B = [[1.0, 0.0], [0.5, 1.0], [0.0, 2.0]]


def make_signal(fn, dim, dt, duration, window=None):
    sig = SampledSignal(dim, dt, window or duration + dt)
    for k in range(int(round(duration / dt)) + 1):
        t = k * dt
        sig.append(t, np.atleast_1d(fn(t)))
    return sig


def integral(sig, a, b):
    """The trapezoid integral of sig from step a to step b."""
    return sig.rows(b, cumulative=True)[0] - sig.rows(a, cumulative=True)[0]


class TestRk4:
    def test_zero_field_is_identity(self):
        x0 = np.array([1.5, -2.0])
        out = rk4_step(lambda t, x: np.zeros(2), 0.0, x0, 0.1)
        np.testing.assert_array_equal(out, x0)

    def test_matches_exponential_decay(self):
        out = rk4_step(lambda t, x: -x, 0.0, np.array([1.0]), 0.1)
        assert abs(out[0] - np.exp(-0.1)) < 1e-7

    def test_order_four_convergence(self):
        def global_error(dt):
            x = np.array([1.0])
            for k in range(int(round(1.0 / dt))):
                x = rk4_step(lambda t, y: -y, k * dt, x, dt)
            return abs(x[0] - np.exp(-1.0))

        ratio = global_error(0.1) / global_error(0.05)
        assert 15.0 < ratio < 17.0

    def test_overflow_rejected(self):
        x = np.array([1.0])
        with pytest.raises(NumericOverflowError), np.errstate(over="ignore"):
            for k in range(4):
                x = rk4_step(lambda t, y: 1e200 * y, 0.0, x, 0.5)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            rk4_step(lambda t, x: -x, 0.0, np.array([1.0]), 0.0)


class TestSampledSignalAndTrapezoid:
    def test_constant_integral(self):
        c = np.array([2.0, -3.0])
        sig = make_signal(lambda t: c, 2, 0.01, 2.0)
        np.testing.assert_allclose(integral(sig, 0, 200), 2.0 * c, atol=1e-12)

    def test_empty_interval_is_zero(self):
        sig = make_signal(lambda t: np.array([t]), 1, 0.01, 1.0)
        np.testing.assert_array_equal(integral(sig, 50, 50), np.zeros(1))

    def test_linear_ramp(self):
        sig = make_signal(lambda t: np.array([t]), 1, 1e-3, 1.0)
        assert abs(integral(sig, 0, 1000)[0] - 0.5) < 1e-6

    def test_additivity(self):
        rng = np.random.default_rng(0)
        sig = make_signal(lambda t: np.array([np.sin(3 * t), np.cos(2 * t)]), 2, 1e-2, 3.0)
        for _ in range(50):
            a, b, c = np.sort(rng.integers(0, 301, size=3))
            lhs = integral(sig, a, b) + integral(sig, b, c)
            rhs = integral(sig, a, c)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_window_underflow_raises(self):
        sig = make_signal(lambda t: np.array([t]), 1, 0.01, 3.0, window=1.0)
        with pytest.raises(WindowUnderflowError):
            sig.rows(0, 51, cumulative=True)

    def test_retention_window(self):
        sig = make_signal(lambda t: np.array([t]), 1, 0.01, 5.0, window=2.0)
        assert sig.first_step <= 300
        np.testing.assert_allclose(sig.rows(300)[0], [3.0], atol=1e-12)

    def test_off_grid_append_rejected(self):
        sig = SampledSignal(1, 0.01, 1.0)
        sig.append(0.0, [0.0])
        with pytest.raises(ValueError):
            sig.append(0.0137, [1.0])

    @pytest.mark.parametrize("t", [0.0, 0.02, 0.0137])
    def test_repeated_skipped_or_off_grid_time_is_typed(self, t):
        sig = SampledSignal(1, 0.01, 1.0)
        sig.append(0.0, [0.0])
        with pytest.raises(SampleTimeError, match="off-grid"):
            sig.append(t, [1.0])
        assert len(sig) == 1

    def test_a_long_log_keeps_its_grid(self):
        # appends stay due at k * dt, no matter how many steps were pruned,
        # and a time half a step off is still rejected
        sig, zero = SampledSignal(1, 1e-3, 1.804), np.zeros(1)
        for k in range(350_000):
            sig.append(k * 1e-3, zero)
        assert sig.first_step + len(sig) == 350_000
        with pytest.raises(SampleTimeError):
            sig.append(350_000.5 * 1e-3, zero)

    def test_non_finite_append_rejected(self):
        sig = SampledSignal(1, 0.01, 1.0)
        with pytest.raises(NumericOverflowError):
            sig.append(0.0, [np.nan])

    def test_reversed_bounds_rejected(self):
        sig = make_signal(lambda t: np.array([t]), 1, 0.01, 1.0)
        with pytest.raises(ValueError):
            sig.rows(80, 2, stride=-60)
        with pytest.raises(ValueError):
            sig.rows(80, 0)

    def test_bulk_load_matches_appends(self):
        dt = 0.01
        values = np.column_stack([np.sin(np.arange(101) * dt), np.cos(np.arange(101) * dt)])
        bulk = signal_of(dt, 1.2, values)
        ref = SampledSignal(2, dt, 1.2)
        for k in range(101):
            ref.append(k * dt, values[k])
        assert np.array_equal(integral(bulk, 10, 90), integral(ref, 10, 90))

    @pytest.mark.parametrize("t, rows, error", [
        (0.03, [[1.0, 2.0], [1.0, np.nan]], NumericOverflowError),
        (0.03, np.ones((2, 3)), ValueError),
        (0.05, np.ones((2, 2)), SampleTimeError),
    ])
    def test_a_rejected_block_changes_nothing(self, t, rows, error):
        sig = SampledSignal(2, 0.01, 0.02)
        sig.extend(0.0, np.ones((3, 2)))
        with pytest.raises(error):
            sig.extend(t, rows)
        assert (sig.first_step, len(sig)) == (0, 3)
        sig.extend(0.03, np.empty((0, 2)))  # no rows, nothing to append
        sig.extend(0.03, np.ones((4, 2)))
        assert (sig.first_step, len(sig)) == (2, 5)


class TestSolveAre:
    def test_double_integrator_analytic(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0], [1.0]])
        p = solve_are(a, b, np.eye(2), np.array([[1.0]]))
        expected = np.array([[np.sqrt(3.0), 1.0], [1.0, np.sqrt(3.0)]])
        np.testing.assert_allclose(p, expected, atol=1e-9)

    def test_scaling_homogeneity(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0], [1.0]])
        p1 = solve_are(a, b, np.eye(2), np.array([[1.0]]))
        pk = solve_are(a, b, 7.0 * np.eye(2), np.array([[7.0]]))
        np.testing.assert_allclose(pk, 7.0 * p1, rtol=1e-10)

    def test_default_system_contract(self, default_system):
        plant, cost, _ = default_system
        q = cost.q_matrix
        r = np.diag(cost.r_diag)
        p = solve_are(plant.a_prime, plant.b_prime, q, r)
        assert are_residual(plant.a_prime, plant.b_prime, q, r, p) < 1e-8
        assert np.linalg.norm(p - p.T, "fro") < 1e-10
        closed = plant.a_prime - plant.b_prime @ np.linalg.solve(r, plant.b_prime.T @ p)
        assert np.all(np.linalg.eigvals(closed).real < 0.0)

    def test_matches_hamiltonian_oracle(self, default_system):
        plant, cost, _ = default_system
        q = cost.q_matrix
        r = np.diag(cost.r_diag)
        p = solve_are(plant.a_prime, plant.b_prime, q, r)
        np.testing.assert_allclose(p, hamiltonian_are(plant.a_prime, plant.b_prime, q, r),
                                   atol=1e-8)

    @pytest.mark.parametrize("a, b, w_q, r_diag", [
        (DEFAULT_A, DEFAULT_B, DEFAULT_WQ, DEFAULT_RDIAG),
        (N3_A, N3_B, np.arange(1.0, 7.0), np.array([20.0, 10.0])),
    ], ids=["default", "query_n3"])
    def test_benchmark_plants_match_scipy(self, a, b, w_q, r_diag):
        # scipy's Schur solver takes P from the Hamiltonian's stable
        # invariant subspace, with no Newton refinement
        plant = LinearPlant(a=np.array(a), b=np.array(b))
        q = CostFunction(dim=len(w_q), w_q=w_q, r_diag=r_diag).q_matrix
        r = np.diag(r_diag)
        p = solve_are(plant.a_prime, plant.b_prime, q, r)
        assert_close(p, scipy_are(plant.a_prime, plant.b_prime, q, r))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
    def test_random_lifted_pairs_match_scipy(self, n, m):
        # where scipy meets the residual contract, solve_are matches it;
        # where solve_are fails, scipy does too, and nothing warns
        rng = np.random.default_rng(10 * n + m)
        for _ in range(340):
            a, b = lifted(rng.normal(size=(n, 2 * n)), rng.normal(size=(n, m)))
            q, r = np.eye(2 * n), np.eye(m)
            ref = scipy_are(a, b, q, r)
            try:
                p = solve_are(a, b, q, r)
            except SolverFailureError:
                assert ref is None
                continue
            if ref is not None:
                assert_close(p, ref)

    @pytest.mark.filterwarnings("error")
    def test_uncontrollable_pair_fails(self):
        a = np.eye(2)
        b = np.zeros((2, 1))
        with pytest.raises(SolverFailureError):
            solve_are(a, b, np.eye(2), np.array([[1.0]]))

    @pytest.mark.filterwarnings("error")
    def test_imaginary_axis_hamiltonian_fails(self):
        # an undamped oscillator with no input: eig(H) = +-i, each a
        # defective double eigenvalue that rounding splits about the axis
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        b = np.zeros((2, 1))
        with pytest.raises(SolverFailureError):
            solve_are(a, b, np.eye(2), np.array([[1.0]]))

    def test_lyapunov_solve(self):
        rng = np.random.default_rng(3)
        a, c = rng.normal(size=(3, 3)) - 3.0 * np.eye(3), rng.normal(size=(3, 3))
        p = _lyapunov(a, c)
        np.testing.assert_allclose(a.T @ p + p @ a, c, atol=1e-13)
        # eig(A) = +-i, so P -> A'P + PA is singular
        with pytest.raises(SolverFailureError, match="singular Lyapunov"):
            _lyapunov(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))

    def test_indefinite_r_rejected(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError):
            solve_are(a, b, np.eye(2), np.array([[0.0]]))


def lifted(a, b):
    """The pair ([[0, I], [A]], [[0], [B]]) of an n x 2n A and n x m B."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n = a.shape[0]
    return (np.block([[np.zeros((n, n)), np.eye(n)], [a]]),
            np.vstack((np.zeros(b.shape), b)))


def hamiltonian_are(a, b, q, r):
    """Independent Riccati oracle from the stable Hamiltonian eigenspace."""
    n = a.shape[0]
    ham = np.block([[a, -b @ np.linalg.solve(r, b.T)], [-q, -a.T]])
    vals, vecs = np.linalg.eig(ham)
    stable = vecs[:, vals.real < 0.0]
    p = np.real(stable[n:, :] @ np.linalg.inv(stable[:n, :]))
    return 0.5 * (p + p.T)


def scipy_are(a, b, q, r):
    """scipy's solution where it meets solve_are's residual bound, else None."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            p = solve_continuous_are(a, b, q, r)
        except (ValueError, np.linalg.LinAlgError):
            return None
        return p if are_residual(a, b, q, r, p) < 1e-8 else None


def assert_close(p, ref):
    """p within 1e-9 of ref, relative in the Frobenius norm."""
    assert np.linalg.norm(p - ref) <= 1e-9 * np.linalg.norm(ref)


def test_package_runs_without_scipy():
    # scipy is a test dependency only: a run and the are command need numpy alone
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import irlobs\n"
        "import irlobs.cli\n"
        "from irlobs.experiment import ExperimentConfig, default_config_dict\n"
        "raw = default_config_dict()\n"
        "raw['gains']['excitation_duration'] = 2.0\n"
        "raw['run']['duration'] = 0.0\n"
        "irlobs.run_experiment(ExperimentConfig(raw))\n"
        "sys.exit(irlobs.cli.main(['are']))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC_DIR)), timeout=120)
    assert done.returncode == 0, done.stderr
    assert "Riccati solution P:" in done.stdout


class TestLeastSquares:
    def test_identity_system(self):
        b = np.array([3.0, -1.0, 2.0])
        np.testing.assert_allclose(least_squares(np.eye(3), b), b, atol=1e-14)

    def test_consistent_overdetermined(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(12, 4))
        w = rng.normal(size=4)
        sol = least_squares(a, a @ w)
        assert np.linalg.norm(a @ sol - a @ w) < 1e-12

    def test_matches_pseudo_inverse_oracle(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(40, 15))
        b = rng.normal(size=40)
        np.testing.assert_allclose(least_squares(a, b), np.linalg.pinv(a) @ b, atol=1e-10)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(30, 8))
        b = rng.normal(size=30)
        w = least_squares(a, b)
        assert np.linalg.norm(a.T @ (a @ w - b)) < 1e-8 * np.linalg.norm(b)

    def test_rank_deficiency_raises_with_rank(self):
        a = np.zeros((5, 3))
        a[:, 0] = 1.0
        a[:, 1] = 2.0
        a[:, 2] = 3.0  # all columns parallel
        with pytest.raises(RankDeficiencyError) as err:
            least_squares(a, np.ones(5))
        assert err.value.rank == 1


class TestConditionNumber:
    """The stacked-matrix condition number the IRL stack scores, read from
    the Gram spectrum: kappa(A) = sqrt(kappa(A'A))."""

    @staticmethod
    def condition_number(a):
        return float(np.sqrt(_gram_kappas(np.linalg.eigvalsh(a.T @ a))))

    def test_identity(self):
        assert self.condition_number(np.eye(4)) == 1.0

    def test_diagonal(self):
        assert abs(self.condition_number(np.diag([10.0, 1.0])) - 10.0) < 1e-12

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(5, 3))
        s = np.linalg.svd(a, compute_uv=False)
        assert abs(self.condition_number(a) - s[0] / s[-1]) < 1e-10

    def test_rank_deficient_is_inf(self):
        a = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
        assert self.condition_number(a) == float("inf")

    def test_single_spectrum_matches_the_batched_rule(self):
        rng = np.random.default_rng(5)
        eps = np.finfo(float).eps
        spectra = [np.sort(rng.normal(size=15)) for _ in range(100)]
        spectra += [np.sort(rng.uniform(0.0, 1.0, size=15) ** p) for p in (1, 10, 40)]
        spectra += [np.zeros(15), -np.ones(15), np.array([2 * eps, 1.0]),
                    np.array([3 * eps, 1.0]), np.array([np.nan, 1.0])]
        for lam in spectra:
            assert _gram_kappa(lam) == float(_gram_kappas(lam))


class TestLinearRk4Matrices:
    def test_matches_rk4_step_on_forced_system(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 2))
        h = 0.05

        def u_of(t):
            return np.array([np.sin(3 * t), np.cos(2 * t)])

        x0 = rng.normal(size=3)
        phi, w0, wh, w1 = linear_rk4_matrices(a, b, h)
        fast = phi @ x0 + w0 @ u_of(0.0) + wh @ u_of(h / 2) + w1 @ u_of(h)
        ref = rk4_step(lambda t, x: a @ x + b @ u_of(t), 0.0, x0, h)
        np.testing.assert_allclose(fast, ref, atol=1e-12)


class TestLinearRollout:
    def test_matches_the_step_loop_bitwise(self):
        rng = np.random.default_rng(9)
        for d in (2, 4, 6, 12):
            for _ in range(20):
                phi = rng.normal(size=(d, d)) * rng.uniform(0.1, 2.0)
                drive = rng.normal(size=(30, d))
                x = x0 = rng.normal(size=d)
                want = [x0]
                for step in drive:
                    x = phi @ x + step
                    want.append(x)
                np.testing.assert_array_equal(linear_rollout(phi, drive, x0), np.array(want))


class TestStackedRollout:
    """A stack of systems through linear_rk4_matrices and linear_rollout
    gives each system the bits of its own calls, a diverging one included."""

    @pytest.mark.parametrize("d", [2, 4, 6, 12])
    def test_stack_equals_the_single_calls_bitwise(self, d):
        rng = np.random.default_rng(d)
        count, m, steps, h = 9, 3, 50, 0.02
        a = rng.normal(size=(count, d, d)) * rng.uniform(0.1, 3.0, size=(count, 1, 1))
        a[4] *= 1e4  # grows past the float range within the rollout
        b = rng.normal(size=(count, d, m))
        x0 = rng.normal(size=(count, d))
        drive = rng.normal(size=(count, steps, d))
        stacked = linear_rk4_matrices(a, b, h)
        with np.errstate(over="ignore", invalid="ignore"):
            states = linear_rollout(stacked[0], drive, x0)
            for i in range(count):
                for one, many in zip(linear_rk4_matrices(a[i], b[i], h), stacked):
                    assert one.tobytes() == many[i].tobytes()
                alone = linear_rollout(stacked[0][i], drive[i], x0[i])
                assert alone.tobytes() == np.ascontiguousarray(states[i]).tobytes()
        assert not np.isfinite(states[4]).all()
        assert np.isfinite(np.delete(states, 4, axis=0)).all()


class TestGramStack:
    @staticmethod
    def blocks(count, dim, seed):
        rows = np.random.default_rng(seed).normal(size=(count, 2, dim))
        return [r.T @ r for r in rows]

    def test_put_appends_then_replaces(self):
        stack = GramStack(capacity=3, dim=2)
        b = self.blocks(4, 2, 9)
        for i in range(3):
            stack.put(i, b[i], f"entry{i}")
        assert stack.is_full and stack.entries == ["entry0", "entry1", "entry2"]
        stack.put(1, b[3], "entry3")
        assert stack.entries == ["entry0", "entry3", "entry2"]
        np.testing.assert_array_equal(stack.gram, b[0] + b[3] + b[2])

    def test_slots_past_the_end_rejected(self):
        stack = GramStack(capacity=2, dim=2)
        b = self.blocks(3, 2, 10)
        with pytest.raises(IndexError):
            stack.put(1, b[0], "gap")
        stack.put(0, b[0], "a")
        stack.put(1, b[1], "b")
        with pytest.raises(IndexError):
            stack.put(2, b[2], "over capacity")
        assert stack.entries == ["a", "b"]

    def test_swap_spectra_match_explicit_swaps(self):
        stack = GramStack(capacity=5, dim=3)
        b = self.blocks(6, 3, 11)
        for i in range(5):
            stack.put(i, b[i], i)
        lam = stack.swap_spectra(b[5])
        for i in range(5):
            swapped = sum(b[j] for j in range(5) if j != i) + b[5]
            np.testing.assert_allclose(lam[i], np.linalg.eigvalsh(swapped), atol=1e-12)

    def test_clear_empties_the_stack(self):
        stack = GramStack(capacity=2, dim=2)
        stack.put(0, self.blocks(1, 2, 12)[0], "a")
        stack.clear()
        assert stack.size == 0 and not stack.gram.any()
