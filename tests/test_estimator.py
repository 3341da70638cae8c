"""Estimator tests: the integral error system, the history stack, the
concurrent-learning update, and the velocity-free observer."""

import copy
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irlobs.errors import NumericOverflowError
from irlobs.estimator import (
    AdaptiveObserver,
    EstimatorGains,
    ParamHistoryStack,
    integral_regressor,
    integral_residual,
    model_matrices,
    theta_blocks,
    theta_dim,
)
from irlobs.numerics import SampledSignal

from conftest import (
    X0, cumulative_trapezoid, default_gains, drive_estimator, signal_of, simulate_demonstrator,
)


EPS = np.finfo(float).eps


def log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda x: 10.0 ** x)


def adaptation_property(test):
    """Runs test over drawn adaptation gains, initial gain scale, step size
    and synthetic-stack seed, and at the default gains with a 50 s step."""
    test = given(k_theta=log_uniform(1e-3, 1e2), beta1=log_uniform(1e-2, 1e1),
                 gamma0=log_uniform(1e-3, 1e3), dt=log_uniform(1e-4, 50.0),
                 seed=st.integers(0, 2**16))(test)
    test = example(k_theta=0.3 / 150, beta1=5.0, gamma0=0.1, dt=50.0, seed=24)(test)
    return settings(derandomize=True, max_examples=60, deadline=None)(test)


def ramp_log(dim, dt, duration, slope=1.0):
    sig = SampledSignal(dim, dt, duration + dt)
    for k in range(int(round(duration / dt)) + 1):
        t = k * dt
        sig.append(t, slope * t * np.ones(dim))
    return sig


def constant_log(dim, dt, duration, value):
    sig = SampledSignal(dim, dt, duration + dt)
    for k in range(int(round(duration / dt)) + 1):
        sig.append(k * dt, value * np.ones(dim))
    return sig


class TestThetaBlocks:
    def test_round_trip(self):
        rng = np.random.default_rng(20)
        a1 = rng.normal(size=(2, 2))
        a2 = rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 3))
        theta = np.concatenate([a1.ravel(order="F"), a2.ravel(order="F"), b.ravel(order="F")])
        for block, expected in zip(theta_blocks(theta, 2, 3), (a1, a2, b)):
            np.testing.assert_array_equal(block, expected)
        a_prime, b_prime = model_matrices(theta, 2, 3)
        np.testing.assert_array_equal(a_prime[2:], np.hstack([a1, a2]))
        np.testing.assert_array_equal(b_prime[2:], b)

    def test_lifted_blocks(self):
        theta = np.concatenate([np.eye(2).ravel(), 2 * np.eye(2).ravel(), np.ones(2)])
        a_prime, b_prime = model_matrices(theta, 2, 1)
        np.testing.assert_array_equal(a_prime[:2, 2:], np.eye(2))
        np.testing.assert_array_equal(a_prime[2:, :2], np.eye(2))
        np.testing.assert_array_equal(b_prime[:2, :], np.zeros((2, 1)))

    def test_views_share_the_memory_of_theta(self):
        theta = np.arange(14.0)
        a1, a2, b = theta_blocks(theta, 2, 3)
        assert all(np.shares_memory(block, theta) for block in (a1, a2, b))
        theta[[0, 5, 13]] = -1.0
        assert a1[0, 0] == a2[1, 0] == b[1, 2] == -1.0

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            theta_blocks(np.zeros(5), 2, 2)
        with pytest.raises(ValueError):
            theta_blocks(np.zeros((1, 12)), 2, 2)


class TestEstimatorGains:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            EstimatorGains(k_theta=0.0, beta1=1, alpha=1, beta=1, k=1, t1=1, t2=1)


class TestIntegralResidual:
    def test_zero_before_window(self):
        log = ramp_log(2, 1e-2, 3.0)
        np.testing.assert_array_equal(integral_residual(log, 100, 100, 80), np.zeros(2))

    def test_constant_signal_cancels(self):
        log = constant_log(2, 1e-2, 3.0, 4.2)
        np.testing.assert_allclose(integral_residual(log, 250, 100, 80), np.zeros(2), atol=1e-12)

    def test_ramp_cancels(self):
        log = ramp_log(1, 1e-2, 6.0)
        # (5 - 1.8) - (5 - 1) + 5 - (5 - 0.8) = 0
        assert abs(integral_residual(log, 500, 100, 80)[0]) < 1e-12


class TestIntegralRegressor:
    def test_zero_before_window(self):
        p = ramp_log(2, 1e-2, 3.0)
        u = ramp_log(2, 1e-2, 3.0)
        out = integral_regressor(p, u, 150, 100, 80)
        assert out.shape == (2, theta_dim(2, 2))
        np.testing.assert_array_equal(out, np.zeros_like(out))

    def test_constant_signal_blocks(self):
        c = 3.0
        p = constant_log(2, 1e-3, 3.0, c)
        u = constant_log(2, 1e-3, 3.0, 1.0)
        t1, t2 = 1.0, 0.8
        reg = integral_regressor(p, u, 2500, 1000, 800)
        eye = np.eye(2)
        f_block = reg[:, :4]
        g_block = reg[:, 4:8]
        np.testing.assert_allclose(
            f_block, np.kron(t1 * t2 * c * np.ones((1, 2)), eye), atol=1e-10
        )
        np.testing.assert_allclose(g_block, np.zeros((2, 4)), atol=1e-10)

    def test_double_integral_is_the_trapezoid_over_the_logged_times(self):
        # the logged steps lie on the grid, so the quadrature runs with a
        # uniform spacing dt, however much of the log was pruned
        dt, t1, t2, k = 1e-3, 1000, 800, 2999
        values = np.random.default_rng(24).normal(size=(k + 1, 2))
        p = SampledSignal(2, dt, (t1 + t2 + 4) * dt)
        for step, value in enumerate(values):
            p.append(step * dt, value)
        cum = cumulative_trapezoid(values, dt)
        inner = cum[k - t2 : k + 1] - cum[k - t2 - t1 : k - t1 + 1]
        f_block = np.trapezoid(inner, dx=dt, axis=0)
        assert np.array_equal(integral_regressor(p, p, k, t1, t2)[0, 0:4:2], f_block)

    def test_regressor_bits_do_not_depend_on_pruning(self):
        # the same samples, appended to a log that prunes to OnlineIrl's
        # 1.804 s window, or bulk-loaded into one that keeps them all
        dt, t1, t2 = 1e-3, 1000, 800
        values = np.random.default_rng(25).normal(size=(6001, 2))
        whole = signal_of(dt, 6.001, values)
        pruned = SampledSignal(2, dt, 1.804)
        for k, value in enumerate(values):
            pruned.append(k * dt, value)
            if k >= t1 + t2 and k % 10 == 0:
                assert np.array_equal(integral_regressor(pruned, pruned, k, t1, t2),
                                      integral_regressor(whole, whole, k, t1, t2))

    def test_error_system_identity_on_default_run(self, default_system):
        _, _, demo = default_system
        p_log, u_log = simulate_demonstrator(demo, X0, 6.0, 1e-3)
        theta = demo.plant.theta
        worst = 0.0
        for k in range(1800, 6000, 50):
            resid = integral_residual(p_log, k, 1000, 800)
            reg = integral_regressor(p_log, u_log, k, 1000, 800)
            worst = max(worst, float(np.linalg.norm(resid - reg @ theta)))
        assert worst < 1e-5


class TestParamHistoryStack:
    def test_append_until_capacity(self):
        stack = ParamHistoryStack(capacity=3, dim=4, min_eig_threshold=1e-6)
        rng = np.random.default_rng(21)
        for i in range(3):
            assert stack.record(rng.normal(size=2), rng.normal(size=(2, 4)))
            assert stack.size == i + 1
        assert stack.is_full

    @pytest.mark.parametrize("size", [1, 3])
    @pytest.mark.parametrize("scale", [1e160, 2.5e153])
    def test_an_overflowing_gram_block_changes_nothing(self, size, scale):
        # finite regressor rows of 1e160 square to an infinite Gram block;
        # rows of 2.5e153 to a finite one, of trace 5e307, that would give
        # the stack's Gram, holding one like it, a trace whose double, which
        # the swap search's bounds take, overflows.  eigvalsh used to fail
        # on an infinite Gram with a LinAlgError
        stack = ParamHistoryStack(capacity=3, dim=4, min_eig_threshold=1e-6)
        rng = np.random.default_rng(21)
        for _ in range(size - 1):
            stack.record(rng.normal(size=2), rng.normal(size=(2, 4)))
        stack.record(np.ones(2), np.full((2, 4), 2.5e153))
        before = (stack.size, stack.gram.copy(), stack.blocks.copy(), stack.rhs_projection.copy(),
                  stack.min_eigenvalue)
        with pytest.raises(NumericOverflowError, match="Gram block"), np.errstate(over="ignore"):
            stack.record(np.ones(2), np.full((2, 4), scale))
        after = (stack.size, stack.gram, stack.blocks, stack.rhs_projection, stack.min_eigenvalue)
        for was, now in zip(before, after):
            assert np.array_equal(was, now)

    def test_replacement_never_decreases_min_eig(self):
        rng = np.random.default_rng(22)
        stack = ParamHistoryStack(capacity=10, dim=4, min_eig_threshold=1e-6)
        for _ in range(10):
            stack.record(rng.normal(size=2), rng.normal(size=(2, 4)))
        for _ in range(100):
            before = stack.min_eigenvalue
            stack.record(rng.normal(size=2), rng.normal(size=(2, 4)))
            assert stack.min_eigenvalue >= before

    def test_full_rank_flag(self, prerecorded_stack):
        assert prerecorded_stack.min_eigenvalue > 0.0
        assert prerecorded_stack.is_full_rank

    def test_prerecorded_pairs_satisfy_error_system(self, default_system, prerecorded_stack):
        # each slot keeps reg' resid and reg' reg of a regressor reg of full
        # row rank n, so ||resid - reg theta|| is at most ||reg' resid -
        # reg' reg theta|| / sigma_n(reg), and sigma_n(reg)^2 is the n-th
        # largest eigenvalue of reg' reg
        plant, _, _ = default_system
        theta, stack = plant.theta, prerecorded_stack
        for projection, block in zip(stack._projections[: stack.size], stack.blocks):
            sigma_n = np.sqrt(np.linalg.eigvalsh(block)[-plant.n])
            assert np.linalg.norm(projection - block @ theta) < 1e-6 * sigma_n

    def test_pure_feedback_data_cannot_reach_full_rank(self, default_system):
        # u = -Kx makes the input window integrals a linear image of the
        # position window integrals, so the Gram stays rank deficient
        _, _, demo = default_system
        p_log, u_log = simulate_demonstrator(demo, X0, 5.0, 1e-3)
        stack = ParamHistoryStack(capacity=40, dim=theta_dim(2, 2), min_eig_threshold=1e-3)
        for k in range(1800, 5000, 80):
            stack.record(
                integral_residual(p_log, k, 1000, 800),
                integral_regressor(p_log, u_log, k, 1000, 800),
            )
        assert stack.min_eigenvalue < 1e-10
        assert not stack.is_full_rank

    def test_a_one_dimensional_regressor_is_a_value_error(self):
        stack = ParamHistoryStack(capacity=3, dim=4, min_eig_threshold=1e-6)
        stack.record(np.ones(2), np.eye(2, 4))
        for residual, regressor in ((np.ones(1), np.ones(4)), (np.ones(4), np.ones(4))):
            with pytest.raises(ValueError, match="inconsistent"):
                stack.record(residual, regressor)
        assert stack.size == 1

    def test_duplicate_discarded_when_it_cannot_improve(self):
        # a stack of copies of one pair: every swap for another copy leaves
        # the Gram unchanged, so the strict test must reject the duplicate
        rng = np.random.default_rng(23)
        residual, regressor = rng.normal(size=2), rng.normal(size=(2, 4))
        stack = ParamHistoryStack(capacity=5, dim=4, min_eig_threshold=1e-6)
        for _ in range(5):
            stack.record(residual, regressor)
        before = stack.min_eigenvalue
        assert not stack.record(residual, regressor)
        assert stack.min_eigenvalue == before

    def test_rank_deficient_stack_commits_only_real_gains(self, default_system):
        # on-policy data keeps the Gram singular, so lambda_min is rounding
        # noise around zero and no swap can truly raise it: every commit
        # must still raise the recomputed lambda_min
        _, _, demo = default_system
        p_log, u_log = simulate_demonstrator(demo, X0, 5.0, 1e-3)
        stack = ParamHistoryStack(capacity=10, dim=theta_dim(2, 2), min_eig_threshold=1e-3)
        for k in range(1800, 5000, 20):
            was_full, before = stack.is_full, stack.min_eigenvalue
            committed = stack.record(
                integral_residual(p_log, k, 1000, 800),
                integral_regressor(p_log, u_log, k, 1000, 800),
            )
            if was_full and committed:
                assert np.linalg.eigvalsh(stack.gram)[0] > before
        assert not stack.is_full_rank


class TestUpdateParameters:
    def make_synthetic_stack(self, theta, rng, count=20):
        dim = theta.size
        stack = ParamHistoryStack(capacity=count, dim=dim, min_eig_threshold=1e-3)
        for _ in range(count):
            reg = rng.normal(size=(2, dim))
            stack.record(reg @ theta, reg)
        return stack

    def test_true_theta_is_fixed_point(self, default_system):
        plant, _, _ = default_system
        rng = np.random.default_rng(23)
        theta = plant.theta
        stack = self.make_synthetic_stack(theta, rng)
        obs = AdaptiveObserver(
            2, 2, p0=X0[:2], u0=np.zeros(2), gains=default_gains(), theta0=theta
        )
        obs.update_parameters(stack, 1e-3)
        assert np.linalg.norm(obs.theta - theta) < 1e-12
        assert np.linalg.norm(obs.theta_rate) < 1e-9

    def test_the_step_is_the_information_form_law_bitwise(self, prerecorded_stack):
        # P <- e P + c gram and z <- e z + c proj, then theta = P^-1 z and
        # the rate k_theta P^-1 (proj - gram theta), in this order
        gains, stack, dt = default_gains(), prerecorded_stack, 1e-3
        gram, proj = stack.gram, stack.rhs_projection
        e = math.exp(-gains.beta1 * dt)
        c = -gains.k_theta * math.expm1(-gains.beta1 * dt) / gains.beta1
        assert c == pytest.approx(gains.k_theta * (1.0 - e) / gains.beta1, rel=1e-12)
        obs = AdaptiveObserver(2, 2, p0=X0[:2], u0=np.zeros(2), gains=gains, gamma_scale=0.1)
        info, z = obs.info, obs.z
        assert info.tobytes() == (np.eye(12) / 0.1).tobytes()
        for _ in range(5):
            info, z = e * info + c * gram, e * z + c * proj
            obs.update_parameters(stack, dt)
            assert obs.info.tobytes() == info.tobytes()
            assert obs.z.tobytes() == z.tobytes()
            gain = np.linalg.inv(info)
            theta = gain @ z
            assert obs.theta.tobytes() == theta.tobytes()
            rate = gains.k_theta * (gain @ (proj - gram @ theta))
            assert obs.theta_rate.tobytes() == rate.tobytes()

    def test_a_copied_observer_updates_as_the_original(self, prerecorded_stack):
        # the adaptation state is plain arrays, so a deep copy or a pickle
        # round trip updates bit for bit alike
        obs = AdaptiveObserver(2, 2, p0=X0[:2], u0=np.zeros(2), gains=default_gains())
        obs.update_parameters(prerecorded_stack, 1e-3)
        copies = [copy.deepcopy(obs), pickle.loads(pickle.dumps(obs))]
        for _ in range(3):
            for o in [obs, *copies]:
                o.update_parameters(prerecorded_stack, 1e-3)
        for o in copies:
            for name in ("info", "z", "theta"):
                assert getattr(o, name).tobytes() == getattr(obs, name).tobytes()

    def test_frozen_without_full_rank(self, default_system):
        stack = ParamHistoryStack(capacity=5, dim=theta_dim(2, 2), min_eig_threshold=1e-3)
        obs = AdaptiveObserver(2, 2, p0=X0[:2], u0=np.zeros(2), gains=default_gains())
        info_before, z_before = obs.info.copy(), obs.z.copy()
        obs.update_parameters(stack, 1e-3)
        np.testing.assert_array_equal(obs.theta, np.zeros(theta_dim(2, 2)))
        np.testing.assert_array_equal(obs.info, info_before)
        np.testing.assert_array_equal(obs.z, z_before)
        np.testing.assert_array_equal(obs.theta_rate, np.zeros(theta_dim(2, 2)))

    def test_an_overflowing_adaptation_state_raises(self):
        # finite pairs whose projection regressor' residual overflows: the
        # step is refused with the state kept, and the message does not
        # blame the step size, which no longer can cause it
        rng = np.random.default_rng(25)
        dim = theta_dim(2, 2)
        stack = ParamHistoryStack(capacity=20, dim=dim, min_eig_threshold=1e-3)
        for _ in range(19):
            stack.record(rng.normal(size=2), rng.normal(size=(2, dim)))
        with np.errstate(over="ignore"):
            assert stack.record(np.full(2, 1e308), np.ones((2, dim)))
        assert stack.is_full_rank and not np.isfinite(stack.rhs_projection).all()
        obs = AdaptiveObserver(2, 2, p0=X0[:2], u0=np.zeros(2), gains=default_gains())
        before = obs.info.copy(), obs.z.copy(), obs.theta.copy()
        with pytest.raises(NumericOverflowError, match="^adaptation state became non-finite$"):
            obs.update_parameters(stack, 1e-3)
        for was, now in zip(before, (obs.info, obs.z, obs.theta)):
            assert np.array_equal(was, now)

    @adaptation_property
    def test_p_theta_error_shrinks_by_e_on_an_exact_stack(self, k_theta, beta1, gamma0, dt, seed):
        # with proj = gram theta*, P' = -beta1 P + k_theta gram and
        # z' = -beta1 z + k_theta proj give (P theta~)' = -beta1 P theta~,
        # so the exact step scales P theta~ by e, to the rounding of the
        # products and of the solve for theta
        rng = np.random.default_rng(seed)
        theta_star = rng.normal(size=theta_dim(2, 2))
        stack = self.make_synthetic_stack(theta_star, rng)
        assert stack.is_full_rank
        gains = replace(default_gains(), k_theta=k_theta, beta1=beta1)
        obs = AdaptiveObserver(2, 2, p0=X0[:2], u0=np.zeros(2), gains=gains, gamma_scale=gamma0)
        e = math.exp(-beta1 * dt)
        before = obs.info @ (theta_star - obs.theta)
        for _ in range(5):
            obs.update_parameters(stack, dt)
            after = obs.info @ (theta_star - obs.theta)
            scale = np.linalg.norm(obs.info, 2) * np.linalg.norm(theta_star) + np.linalg.norm(obs.z)
            rounding = 64 * EPS * np.linalg.cond(obs.info) * scale
            assert np.linalg.norm(after - e * before) <= rounding
            before = after

    @adaptation_property
    def test_the_information_matrix_stays_positive_definite(self, k_theta, beta1, gamma0, dt, seed):
        # e P is positive definite and c gram positive semidefinite, so no
        # step size loses definiteness
        rng = np.random.default_rng(seed)
        stack = self.make_synthetic_stack(rng.normal(size=theta_dim(2, 2)), rng)
        gains = replace(default_gains(), k_theta=k_theta, beta1=beta1)
        obs = AdaptiveObserver(2, 2, p0=X0[:2], u0=np.zeros(2), gains=gains, gamma_scale=gamma0)
        for _ in range(20):
            obs.update_parameters(stack, dt)
            np.linalg.cholesky(obs.info)
            assert np.isfinite(obs.theta).all() and np.isfinite(obs.theta_rate).all()

    def test_convergence_with_prerecorded_stack(self, default_run):
        run = default_run
        theta_err = np.linalg.norm(run.theta_tilde, axis=1)
        assert theta_err[-1] < 1e-3 * theta_err[0]
        # monotone decreasing envelope after adaptation engages
        peak_idx = int(np.argmax(theta_err))
        blocks = np.array_split(theta_err[peak_idx:], 8)
        maxima = [b.max() for b in blocks]
        assert all(m2 <= m1 * 1.01 for m1, m2 in zip(maxima, maxima[1:]))

    def test_gamma_bounds_positive(self, default_run):
        lo = default_run.gamma_eigs[:, 0].min()
        hi = default_run.gamma_eigs[:, 1].max()
        assert lo > 0.0
        assert np.isfinite(hi)


class TestObserver:
    def test_exact_model_fixed_point(self, default_system):
        # true parameters, true initial velocity: errors stay at the
        # discretization floor
        _, _, demo = default_system
        stack = ParamHistoryStack(capacity=5, dim=theta_dim(2, 2), min_eig_threshold=1e-3)
        run = drive_estimator(
            demo, duration=2.0, dt=1e-3, stack=stack,
            theta0=demo.plant.theta, q_hat0=X0[2:], update_parameters=False,
        )
        assert np.max(np.linalg.norm(run.p_tilde, axis=1)) < 1e-5
        assert np.max(np.linalg.norm(run.q_tilde, axis=1)) < 1e-5

    def test_errors_decay_on_default_run(self, default_run):
        run = default_run
        p_err = np.linalg.norm(run.p_tilde, axis=1)
        q_err = np.linalg.norm(run.q_tilde, axis=1)
        assert p_err[-1] < 1e-3 * p_err.max()
        assert q_err[-1] < 1e-3 * q_err.max()

    def test_velocity_update_matches_direct_form(self, default_run):
        # integral-by-parts form vs direct integration using the true
        # velocity (which the observer never sees)
        run = default_run
        horizon = slice(0, 2001)
        n = 2
        steps = run.theta[horizon].shape[0]
        integrand = np.empty((steps, n))
        for k in range(steps):
            a1, a2, b = theta_blocks(run.theta[horizon][k], 2, 2)
            integrand[k] = (
                a1 @ run.x_true[horizon][k, :n]
                + a2 @ run.x_true[horizon][k, n:]
                + b @ run.u[horizon][k]
                + run.nu[horizon][k]
            )
        q_direct = cumulative_trapezoid(integrand, run.dt)
        err = np.max(np.linalg.norm(q_direct - run.q_hat[horizon], axis=1))
        assert err < 1e-4

    def test_filter_form_matches_state_space_form(self, default_system, prerecorded_stack):
        # the integral filter eliminates the unmeasured velocity; against
        # the state-space form driven by the logged true velocity error the
        # difference is pure quadrature, checked on a refined grid
        _, _, demo = default_system
        stack = copy.deepcopy(prerecorded_stack)
        dt = 2e-4
        run = drive_estimator(demo, duration=1.5, dt=dt, stack=stack)
        g = run.gains
        bk, ka, kpa = g.beta + g.k, g.k * g.alpha, g.k + g.alpha
        q_til = run.q_tilde
        eta_ref = np.zeros_like(run.eta)
        for k in range(eta_ref.shape[0] - 1):
            rhs = eta_ref[k] - 0.5 * dt * (
                bk * eta_ref[k]
                + ka * (run.p_tilde[k] + run.p_tilde[k + 1])
                + kpa * (q_til[k] + q_til[k + 1])
            )
            eta_ref[k + 1] = rhs / (1.0 + 0.5 * dt * bk)
        assert np.max(np.linalg.norm(eta_ref - run.eta, axis=1)) < 1e-6

    def test_non_finite_measurement_raises(self, default_system):
        _, _, demo = default_system
        obs = AdaptiveObserver(2, 2, p0=X0[:2], u0=np.zeros(2), gains=default_gains())
        with pytest.raises(NumericOverflowError):
            obs.step(np.array([np.nan, 0.0]), np.zeros(2), 1e-3)
