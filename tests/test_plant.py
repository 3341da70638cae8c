"""Demonstrator tests: policy optimality, closed-loop trajectories, scaling."""

import numpy as np
import pytest
from scipy.linalg import expm

from irlobs.numerics import rk4_step
from irlobs.plant import (
    CostFunction,
    LinearPlant,
    make_demonstrator,
    optimal_action,
    query,
)

from conftest import DEFAULT_RDIAG, DEFAULT_WQ, X0, simulate_demonstrator


def hjb_residual(demo, x, u):
    """H(x, grad V*, u) with V* = x'Px; zero along the optimal pair."""
    plant, cost = demo.plant, demo.cost
    grad_v = 2.0 * demo.riccati_p @ x
    xdot = plant.a_prime @ x + plant.b_prime @ u
    return float(grad_v @ xdot + x @ cost.q_matrix @ x + u @ (cost.r_diag * u))


class TestLinearPlant:
    def test_block_structure(self, default_system):
        plant, _, _ = default_system
        n = plant.n
        np.testing.assert_array_equal(plant.a_prime[:n, :n], np.zeros((n, n)))
        np.testing.assert_array_equal(plant.a_prime[:n, n:], np.eye(n))
        np.testing.assert_array_equal(plant.a_prime[n:, :], plant.a)
        np.testing.assert_array_equal(plant.b_prime[:n, :], np.zeros((n, plant.m)))
        np.testing.assert_array_equal(plant.b_prime[n:, :], plant.b)
        assert not plant.a_prime.flags.writeable and not plant.b_prime.flags.writeable

    def test_theta_round_trip(self, default_system):
        plant, _, _ = default_system
        theta = plant.theta
        n, m = plant.n, plant.m
        np.testing.assert_array_equal(theta[: n * n].reshape((n, n), order="F"), plant.a1)
        np.testing.assert_array_equal(
            theta[n * n : 2 * n * n].reshape((n, n), order="F"), plant.a2
        )
        np.testing.assert_array_equal(theta[2 * n * n :].reshape((n, m), order="F"), plant.b)

    def test_uncontrollable_rejected(self):
        with pytest.raises(ValueError):
            LinearPlant(a=np.array([[1.0, 0.0]]), b=np.array([[0.0]]))

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            LinearPlant(a=np.array([[1.0, 2.0, 3.0]]), b=np.array([[1.0]]))


class TestCostFunction:
    def test_indefinite_rejected(self):
        with pytest.raises(ValueError):
            CostFunction(dim=2, w_q=[-1.0, 1.0], r_diag=[1.0])

    def test_nonpositive_r_rejected(self):
        with pytest.raises(ValueError):
            CostFunction(dim=2, w_q=[1.0, 1.0], r_diag=[0.0])

    def test_quadratic_value(self):
        cost = CostFunction(dim=2, w_q=[2.0, 3.0], r_diag=[1.0])
        x = np.array([1.5, -2.0])
        assert abs(x @ cost.q_matrix @ x - (2.0 * 1.5**2 + 3.0 * 2.0**2)) < 1e-12

    def test_cross_monomials(self):
        cost = CostFunction(
            dim=2, w_q=[2.0, 2.0, 2.0], r_diag=[1.0], q_monomials=[(0, 0), (0, 1), (1, 1)]
        )
        x = np.array([2.0, 3.0])
        assert abs(x @ cost.q_matrix @ x - (8.0 + 12.0 + 18.0)) < 1e-12


class TestMakeDemonstrator:
    def test_default_system_hurwitz(self, default_system):
        plant, _, demo = default_system
        closed = plant.a_prime - plant.b_prime @ demo.k_fb
        assert np.all(np.linalg.eigvals(closed).real < 0.0)

    def test_double_integrator_gain(self, double_integrator):
        _, _, demo = double_integrator
        np.testing.assert_allclose(demo.k_fb, [[1.0, np.sqrt(3.0)]], atol=1e-9)

    def test_scaled_cost_same_gain(self, default_system):
        plant, _, demo = default_system
        cost7 = CostFunction(dim=4, w_q=7.0 * DEFAULT_WQ, r_diag=7.0 * DEFAULT_RDIAG)
        demo7 = make_demonstrator(plant, cost7)
        np.testing.assert_allclose(demo7.k_fb, demo.k_fb, atol=1e-9)

    def test_dimension_mismatch_rejected(self, default_system):
        plant, _, _ = default_system
        with pytest.raises(ValueError):
            make_demonstrator(plant, CostFunction(dim=2, w_q=[1.0, 1.0], r_diag=[1.0]))


class TestOptimalAction:
    def test_zero_state(self, default_system):
        _, _, demo = default_system
        np.testing.assert_array_equal(optimal_action(demo, np.zeros(4)), np.zeros(2))

    def test_double_integrator_value(self, double_integrator):
        _, _, demo = double_integrator
        u = optimal_action(demo, np.array([1.0, 0.0]))
        assert abs(u[0] + 1.0) < 1e-9

    def test_hjb_residual_vanishes(self, default_system):
        _, _, demo = default_system
        rng = np.random.default_rng(10)
        for _ in range(30):
            x = rng.uniform(-3.0, 3.0, size=4)
            u = optimal_action(demo, x)
            assert abs(hjb_residual(demo, x, u)) < 1e-9 * (1.0 + x @ x)


class TestQuery:
    def test_zero(self, default_system):
        _, _, demo = default_system
        np.testing.assert_array_equal(query(demo, np.zeros(4)), np.zeros(2))

    def test_equals_optimal_action(self, default_system):
        _, _, demo = default_system
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.uniform(-2.0, 2.0, size=4)
            np.testing.assert_array_equal(query(demo, x), optimal_action(demo, x))


class TestSimulate:
    def test_equilibrium_stays_zero(self, default_system):
        _, _, demo = default_system
        p_log, u_log = simulate_demonstrator(demo, np.zeros(4), 1.0, 1e-3)
        np.testing.assert_array_equal(p_log.rows(1000)[0], np.zeros(2))
        np.testing.assert_array_equal(u_log.rows(1000)[0], np.zeros(2))

    def test_double_integrator_decay_vs_expm_oracle(self, double_integrator):
        plant, _, demo = double_integrator
        x0 = np.array([1.0, 0.0])
        p_log, _ = simulate_demonstrator(demo, x0, 10.0, 1e-3)
        a_cl = plant.a_prime - plant.b_prime @ demo.k_fb
        x_final = expm(10.0 * a_cl) @ x0
        assert np.linalg.norm(x_final) < 1e-2
        assert abs(p_log.rows(10000)[0, 0] - x_final[0]) < 1e-6

    def test_default_system_decays(self, default_system):
        _, _, demo = default_system
        p_log, _ = simulate_demonstrator(demo, X0, 15.0, 1e-3)
        assert np.linalg.norm(p_log.rows(15000)[0]) < 1e-3
        assert np.linalg.norm(p_log.rows(15000)[0]) < np.linalg.norm(p_log.rows(0)[0])

    def test_nonpositive_duration_rejected(self, default_system):
        _, _, demo = default_system
        with pytest.raises(ValueError):
            simulate_demonstrator(demo, X0, 0.0, 1e-3)

    def test_value_nonincreasing_along_trajectory(self, default_system):
        _, _, demo = default_system
        field = lambda _t, x: demo.a_cl @ x
        x = X0.copy()
        dt = 1e-3
        v_prev = x @ demo.riccati_p @ x
        for k in range(5000):
            x = rk4_step(field, k * dt, x, dt)
            v = x @ demo.riccati_p @ x
            assert v <= v_prev + 1e-6
            v_prev = v


class TestScaleInvariance:
    def test_bitwise_gain_and_trajectories(self, default_system):
        plant, _, demo = default_system
        cost5 = CostFunction(dim=4, w_q=5.0 * DEFAULT_WQ, r_diag=5.0 * DEFAULT_RDIAG)
        demo5 = make_demonstrator(plant, cost5)
        assert np.array_equal(demo5.k_fb, demo.k_fb)
        p1, u1 = simulate_demonstrator(demo, X0, 2.0, 1e-3)
        p5, u5 = simulate_demonstrator(demo5, X0, 2.0, 1e-3)
        assert np.array_equal(p1.rows(2000)[0], p5.rows(2000)[0])
        assert np.array_equal(u1.rows(2000)[0], u5.rows(2000)[0])

    def test_riccati_scales(self, default_system):
        plant, _, demo = default_system
        cost5 = CostFunction(dim=4, w_q=5.0 * DEFAULT_WQ, r_diag=5.0 * DEFAULT_RDIAG)
        demo5 = make_demonstrator(plant, cost5)
        np.testing.assert_allclose(demo5.riccati_p, 5.0 * demo.riccati_p, rtol=1e-12)

    def test_hjb_identity_along_logged_trajectory(self, default_system):
        _, _, demo = default_system
        field = lambda _t, x: demo.a_cl @ x
        x = X0.copy()
        dt = 1e-3
        for k in range(2000):
            u = optimal_action(demo, x)
            assert abs(hjb_residual(demo, x, u)) < 1e-8 * (1.0 + x @ x)
            x = rk4_step(field, k * dt, x, dt)
