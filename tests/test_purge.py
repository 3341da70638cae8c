"""Quality-indicator and purge-policy tests."""

import copy

import numpy as np
import pytest

from irlobs import purge
from irlobs.errors import RankDeficiencyError, WindowUnderflowError
from irlobs.irl import (
    FeatureBasis,
    IrlHistoryStack,
    data_select,
    read_lazy,
    solve_weights,
)
from irlobs.numerics import SampledSignal
from irlobs.plant import optimal_action
from irlobs.purge import (
    PurgeState,
    QualityConfig,
    purge_policy,
    quality_eta1,
    quality_eta2,
    smooth_velocity,
)

from conftest import SlotEntries, make_entry


def make_log(fn, dim, dt, duration):
    sig = SampledSignal(dim, dt, duration + dt)
    for k in range(int(round(duration / dt)) + 1):
        t = k * dt
        sig.append(t, np.atleast_1d(fn(t)))
    return sig


def default_quality(n=2, horizon=1000, half_width=5, rollout_stride=20):
    return QualityConfig(
        horizon=horizon, s1=np.eye(2 * n), s2=np.eye(n),
        half_width=half_width, rollout_stride=rollout_stride,
    )


def eta2(run, theta_hat, k, quality):
    """quality_eta2 given the smoothed velocity at step k - horizon, as the runner does."""
    v0 = smooth_velocity(run.p_log, k - quality.horizon, quality.half_width)
    return quality_eta2(run.p_log, run.u_log, theta_hat, k, quality, v0)


@pytest.fixture(scope="module")
def basis():
    return FeatureBasis.quadratic(4)


class TestSmoothVelocity:
    def test_constant_gives_zero(self):
        log = make_log(lambda t: np.array([4.0, -1.0]), 2, 1e-3, 1.0)
        np.testing.assert_allclose(smooth_velocity(log, 500, 5), np.zeros(2), atol=1e-12)

    def test_linear_ramp_exact(self):
        log = make_log(lambda t: np.array([3.0 * t, -2.0 * t]), 2, 1e-3, 1.0)
        np.testing.assert_allclose(smooth_velocity(log, 500, 5), [3.0, -2.0], atol=1e-9)

    def test_quadratic_exact(self):
        log = make_log(lambda t: np.array([t**2]), 1, 1e-3, 1.0)
        t0 = 0.5
        assert abs(smooth_velocity(log, 500, 5)[0] - 2.0 * t0) < 1e-9

    def test_insufficient_window_raises(self):
        log = make_log(lambda t: np.array([t]), 1, 1e-3, 1.0)
        with pytest.raises(WindowUnderflowError):
            smooth_velocity(log, 1, 5)

    def test_tracks_true_velocity_on_default_run(self, default_run):
        run = default_run
        n = 2
        worst = 0.0
        for t in np.arange(2.0, 10.0, 0.5):
            k = int(round(t / run.dt))
            v = smooth_velocity(run.p_log, k, 5)
            worst = max(worst, float(np.linalg.norm(v - run.x_true[k, n:])))
        assert worst < 1e-4


class TestQualityEta1:
    def test_perfect_estimates_give_zero(self):
        v = np.array([1.0, 2.0])
        assert quality_eta1(np.zeros(2), v, v, np.eye(4)) == 0.0

    def test_zero_weighting_gives_zero(self):
        assert quality_eta1(np.ones(2), np.ones(2), -np.ones(2), np.zeros((4, 4))) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            val = quality_eta1(
                rng.normal(size=2), rng.normal(size=2), rng.normal(size=2), np.eye(4)
            )
            assert val >= 0.0

    def test_early_worse_than_late_on_default_run(self, default_run):
        run = default_run
        qc = default_quality()

        def eta1_at(t):
            k = int(round(t / run.dt))
            k_lag = k - qc.horizon
            v = smooth_velocity(run.p_log, k_lag, qc.half_width)
            return quality_eta1(run.p_tilde[k], run.q_hat[k_lag], v, qc.s1)

        assert eta1_at(2.0) > eta1_at(10.0)


class TestQualityEta2:
    def test_true_model_near_zero(self, default_run):
        run = default_run
        theta = run.theta_true.copy()
        val = eta2(run, theta, 8000, default_quality())
        assert 0.0 <= val < 1e-8

    def test_wrong_model_strictly_positive(self, default_run):
        run = default_run
        theta_true = run.theta_true.copy()
        doubled = run.theta_true.copy()
        doubled[:8] *= 2.0  # scale both dynamics blocks
        good = eta2(run, theta_true, 8000, default_quality())
        bad = eta2(run, doubled, 8000, default_quality())
        assert bad > 1e3 * max(good, 1e-30)
        assert bad > 0.0

    def test_zero_weighting_gives_zero(self, default_run):
        run = default_run
        qc = QualityConfig(horizon=1000, s1=np.eye(4), s2=np.zeros((2, 2)), half_width=5)
        theta = np.zeros(12)
        assert eta2(run, theta, 8000, qc) == 0.0

    def test_divergent_rollout_returns_inf(self, default_run):
        run = default_run
        unstable = np.zeros(12)
        unstable[0] = unstable[3] = 4e4  # violently unstable A1
        qc = QualityConfig(horizon=1000, s1=np.eye(4), s2=np.eye(2), half_width=5,
                           rollout_stride=20)
        val = eta2(run, unstable, 8000, qc)
        assert val == float("inf")

    def test_before_first_horizon_rejected(self, default_run):
        run = default_run
        theta = np.zeros(12)
        with pytest.raises(ValueError):
            quality_eta2(run.p_log, run.u_log, theta, 500, default_quality(), np.zeros(2))


class TestCompositeQuality:
    def test_composite_vanishes_as_estimates_converge(self, default_run):
        # both indicators, evaluated with the run's own estimates, shrink
        # by orders of magnitude between the transient and the converged tail
        run = default_run
        qc = default_quality()

        def eta_at(t):
            k = int(round(t / run.dt))
            k_lag = k - qc.horizon
            v = smooth_velocity(run.p_log, k_lag, qc.half_width)
            e1 = quality_eta1(run.p_tilde[k], run.q_hat[k_lag], v, qc.s1)
            theta = run.theta[k].copy()
            e2 = quality_eta2(run.p_log, run.u_log, theta, k, qc, v)
            return e1 + e2

        early, late = eta_at(2.0), eta_at(11.0)
        assert late < 1e-3 * early
        assert late < 1e-8


class TestQualityConfig:
    def test_asymmetric_weight_rejected(self):
        s1 = np.eye(4)
        s1[0, 1] = 0.5
        with pytest.raises(ValueError):
            QualityConfig(horizon=1000, s1=s1, s2=np.eye(2), half_width=5)

    def test_indefinite_weight_rejected(self):
        with pytest.raises(ValueError):
            QualityConfig(horizon=1000, s1=-np.eye(4), s2=np.eye(2), half_width=5)


def zero_weights(basis):
    return np.zeros(basis.width(2))


def filled_stack(default_system, basis, count=30, eta=1.0, seed=50):
    _, _, demo = default_system
    plant = demo.plant
    theta = plant.theta
    stack = IrlHistoryStack(capacity=count, basis=basis, r1=demo.cost.r1, m=plant.m)
    rng = np.random.default_rng(seed)
    for i in range(count):
        x = rng.uniform(-2.0, 2.0, size=4)
        cand = make_entry(stack, x, optimal_action(demo, x), theta, eta=eta, t=float(i))
        data_select(stack, cand, 1.0)
    return stack


class TestPurgePolicy:
    def test_hold_without_new_data(self, default_system, basis):
        stack = filled_stack(default_system, basis)
        w0 = zero_weights(basis)
        ps = PurgeState(kappa1_bar=1e6, kappa2_bar=1e6, w_current=w0, varpi=0)
        w = purge_policy(ps, stack, eta_now=10.0)
        assert w is w0  # held, no matter how well conditioned

    def test_solve_when_gates_pass(self, default_system, basis):
        stack = filled_stack(default_system, basis)
        ps = PurgeState(kappa1_bar=1e6, kappa2_bar=1e6, w_current=zero_weights(basis), varpi=1)
        w = purge_policy(ps, stack, eta_now=10.0)
        assert np.linalg.norm(read_lazy(w)) > 0.0

    def test_no_purge_when_quality_not_better(self, default_system, basis):
        stack = filled_stack(default_system, basis, eta=1.0)
        ps = PurgeState(kappa1_bar=1e6, kappa2_bar=1e6, w_current=zero_weights(basis), varpi=0)
        purge_policy(ps, stack, eta_now=1.0)  # equal, not strictly better
        assert ps.purge_count == 0
        assert stack.size == 30

    def test_purge_on_quality_improvement(self, default_system, basis):
        stack = filled_stack(default_system, basis, eta=1.0)
        ps = PurgeState(kappa1_bar=1e6, kappa2_bar=1e6, w_current=zero_weights(basis), varpi=1)
        w_before = purge_policy(ps, stack, eta_now=10.0)  # solves, no purge
        assert ps.purge_count == 0
        w_after = purge_policy(ps, stack, eta_now=0.5)
        assert ps.purge_count == 1
        assert stack.size == 0
        # the weights survive the purge
        assert w_after is ps.w_current
        np.testing.assert_array_equal(read_lazy(w_after), read_lazy(w_before))

    def test_purge_blocked_by_conditioning(self, default_system, basis):
        stack = filled_stack(default_system, basis, count=2, eta=1.0)  # rank deficient
        ps = PurgeState(kappa1_bar=1e6, kappa2_bar=1e6, w_current=zero_weights(basis), varpi=1)
        purge_policy(ps, stack, eta_now=0.0)
        assert ps.purge_count == 0
        assert stack.size == 2

    def test_hold_on_rank_deficient_solve(self, default_system, basis):
        stack = filled_stack(default_system, basis, count=2, eta=1.0)
        w0 = zero_weights(basis)
        ps = PurgeState(kappa1_bar=float("inf"), kappa2_bar=1e6, w_current=w0, varpi=1)
        w = purge_policy(ps, stack, eta_now=10.0)
        assert w is w0

    def test_eta_bar_bookkeeping(self, default_system, basis):
        _, _, demo = default_system
        plant = demo.plant
        theta = plant.theta
        stack = IrlHistoryStack(capacity=10, basis=basis, r1=demo.cost.r1, m=2)
        entries = SlotEntries(stack)
        ps = PurgeState(kappa1_bar=1e6, kappa2_bar=1e-6, w_current=zero_weights(basis))
        rng = np.random.default_rng(51)
        etas = []
        for i in range(25):
            x = rng.uniform(-2.0, 2.0, size=4)
            eta = float(rng.uniform(0.1, 5.0))
            cand = make_entry(stack, x, optimal_action(demo, x), theta, eta=eta, t=float(i))
            if data_select(stack, cand, 1.0):
                pass
            purge_policy(ps, stack, eta_now=eta)
            # oracle: exhaustive recomputation over the stored entries
            stored = [e.eta for e in entries()]
            expected = min(stored) if stored else float("inf")
            assert stack.eta_min == expected
            etas.append(eta)


def counting_solves(monkeypatch):
    """Count the calls of purge.solve_weights; returns the list of their
    (sigma_matrix, rhs_vector) arguments."""
    calls = []
    original = purge.solve_weights

    def counting(sigma_matrix, rhs_vector):
        calls.append((sigma_matrix, rhs_vector))
        return original(sigma_matrix, rhs_vector)

    monkeypatch.setattr(purge, "solve_weights", counting)
    return calls


def assert_same_weights(w, reference):
    assert isinstance(w, np.ndarray) and w.dtype == np.float64
    np.testing.assert_array_equal(w, reference, strict=True)


def solve_stack(stack):
    return solve_weights(stack.sigma_matrix, stack.rhs_vector)


class TestDeferredSolve:
    def test_deferred_weights_equal_a_solve_at_the_gate(self, default_system, basis, monkeypatch):
        # each gate pass defers its solve; read after later stores changed
        # the stack, it still gives the solve of the stack at the gate
        _, _, demo = default_system
        plant = demo.plant
        theta = plant.theta
        stack = IrlHistoryStack(capacity=30, basis=basis, r1=demo.cost.r1, m=2)
        ps = PurgeState(kappa1_bar=1e6, kappa2_bar=1e-300, w_current=zero_weights(basis))
        solves = counting_solves(monkeypatch)
        rng = np.random.default_rng(52)
        updates = []
        for i in range(80):
            x = rng.uniform(-2.0, 2.0, size=4)
            cand = make_entry(stack, x, optimal_action(demo, x), theta, eta=1.0, t=float(i))
            ps.varpi = data_select(stack, cand, 1.0)
            w_before = ps.w_current
            if purge_policy(ps, stack, eta_now=1.0) is not w_before:
                updates.append((ps.w_current, copy.deepcopy(stack), i))
        assert not solves
        assert len(updates) > 10 and updates[0][2] < 60  # later offers store swaps
        assert stack.size == 30 and stack.gram_kappa < stack.full_rank_kappa
        for w, stack_then, _ in updates:
            assert callable(w) and not isinstance(w, np.ndarray)
            assert_same_weights(read_lazy(w), solve_stack(stack_then))
        assert len(solves) == len(updates)
        for w, _, _ in updates:  # the solve is kept
            assert read_lazy(w) is read_lazy(w)
        assert len(solves) == len(updates)

    def test_one_reader_for_held_and_deferred_weights(self, default_system, basis, monkeypatch):
        # read_lazy hands a weight array back as it is, and runs a deferred
        # estimate's solve on its first read only
        stack = filled_stack(default_system, basis)
        solves = counting_solves(monkeypatch)
        w0 = zero_weights(basis)
        assert read_lazy(w0) is w0
        ps = PurgeState(kappa1_bar=1e6, kappa2_bar=1e6, w_current=w0, varpi=1)
        w = purge_policy(ps, stack, eta_now=10.0)
        assert w is ps.w_current and not solves
        first = read_lazy(w)
        assert isinstance(first, np.ndarray) and read_lazy(w) is first
        assert len(solves) == 1
        assert_same_weights(first, solve_stack(stack))

    def test_a_deferred_solve_that_raises_runs_again_at_the_next_read(
        self, default_system, basis, monkeypatch
    ):
        # a solve that raises is not cached: the next read runs it again,
        # and once one returns, later reads return its array unsolved
        stack = filled_stack(default_system, basis)
        calls = []

        def fails_once(sigma_matrix, rhs_vector):
            calls.append(None)
            if len(calls) == 1:
                raise RankDeficiencyError("the first solve fails", rank=0)
            return solve_weights(sigma_matrix, rhs_vector)

        monkeypatch.setattr(purge, "solve_weights", fails_once)
        ps = PurgeState(kappa1_bar=1e6, kappa2_bar=1e6, w_current=zero_weights(basis), varpi=1)
        w = purge_policy(ps, stack, eta_now=10.0)
        assert callable(w) and not calls
        with pytest.raises(RankDeficiencyError):
            read_lazy(w)
        second = read_lazy(w)
        assert len(calls) == 2
        assert_same_weights(second, solve_stack(stack))
        assert read_lazy(w) is second and len(calls) == 2

    def test_kappa_above_the_certificate_solves_at_once(self, default_system, basis, monkeypatch):
        stack = filled_stack(default_system, basis)
        stack.full_rank_kappa = stack.gram_kappa
        solves = counting_solves(monkeypatch)
        ps = PurgeState(kappa1_bar=1e6, kappa2_bar=1e6, w_current=zero_weights(basis), varpi=1)
        w = purge_policy(ps, stack, eta_now=10.0)
        assert len(solves) == 1 and isinstance(w, np.ndarray)
        assert read_lazy(w) is w
        assert_same_weights(w, solve_stack(stack))

    def test_kappa_above_the_certificate_holds_on_rank_deficiency(
        self, default_system, basis, monkeypatch
    ):
        # a Gram kappa that rounding made finite, above the certificate, on
        # 6 rows of 15 columns: the solve runs at once and fails
        stack = filled_stack(default_system, basis, count=2)
        stack.gram_kappa = 2.0 * stack.full_rank_kappa
        solves = counting_solves(monkeypatch)
        w0 = zero_weights(basis)
        ps = PurgeState(kappa1_bar=float("inf"), kappa2_bar=1e6, w_current=w0, varpi=1)
        assert purge_policy(ps, stack, eta_now=10.0) is w0
        assert len(solves) == 1

    def test_certificate_is_far_above_the_default_gate(self, basis):
        stack = IrlHistoryStack(capacity=30, basis=basis, r1=20.0, m=2)
        assert 1e11 < stack.full_rank_kappa < 1e13
        wider = IrlHistoryStack(capacity=60, basis=basis, r1=20.0, m=2)
        assert wider.full_rank_kappa < stack.full_rank_kappa
