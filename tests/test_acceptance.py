"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  The end-to-end runs reuse shared
session fixtures so the suite stays within the stated runtime budgets.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from irlobs.estimator import integral_regressor, integral_residual
from irlobs.experiment import (
    ExperimentConfig,
    default_config_dict,
    run_experiment,
)
from irlobs.irl import (
    FeatureBasis,
    IrlHistoryStack,
    data_select,
    eval_features,
    ideal_weights,
    solve_weights,
)
from irlobs.numerics import are_residual, least_squares, rk4_step, solve_are
from irlobs.plant import CostFunction, make_demonstrator, optimal_action

from conftest import (
    DEFAULT_RDIAG,
    DEFAULT_WQ,
    X0,
    drive_estimator,
    make_entry,
    simulate_demonstrator,
)

XI2 = 1e-3
KAPPA1_BAR = 1e6
KAPPA2_BAR = 1e6


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


@pytest.fixture(scope="session")
def c6_report():
    """The default 30 s query-mode run (criteria 6 and 8)."""
    return run_experiment(ExperimentConfig())


@pytest.fixture(scope="session")
def c7_report():
    """The same run with (5Q, 5R) and the first control weight at 100."""
    raw = default_config_dict()
    raw["cost"]["w_q"] = [5.0, 10.0, 15.0, 30.0]
    raw["cost"]["r_diag"] = [100.0, 50.0]
    return run_experiment(ExperimentConfig(raw))


@pytest.fixture(scope="session")
def c4_run(default_system, prerecorded_stack):
    """A 30 s estimator-only run at the default gains."""
    import copy

    _, _, demo = default_system
    stack = copy.deepcopy(prerecorded_stack)
    t0 = time.perf_counter()
    run = drive_estimator(demo, duration=30.0, dt=1e-3, stack=stack, record_stride=10)
    return run, time.perf_counter() - t0


def test_criterion_1_riccati_correctness(default_system, double_integrator):
    with criterion(1, "Riccati solve: default-system residual/Hurwitz, analytic gain"):
        t0 = time.perf_counter()
        plant, cost, _ = default_system
        q, r = cost.q_matrix, np.diag(cost.r_diag)
        p = solve_are(plant.a_prime, plant.b_prime, q, r)
        assert are_residual(plant.a_prime, plant.b_prime, q, r, p) < 1e-8
        closed = plant.a_prime - plant.b_prime @ np.linalg.solve(r, plant.b_prime.T @ p)
        assert np.all(np.linalg.eigvals(closed).real < 0.0)

        di_plant, di_cost, _ = double_integrator
        p_di = solve_are(
            di_plant.a_prime, di_plant.b_prime, di_cost.q_matrix, np.diag(di_cost.r_diag)
        )
        expected = np.array([[np.sqrt(3.0), 1.0], [1.0, np.sqrt(3.0)]])
        np.testing.assert_allclose(p_di, expected, atol=1e-9)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_hjb_residual_along_trajectory(default_system):
    with criterion(2, "HJB residual vanishes along the simulated optimal trajectory"):
        t0 = time.perf_counter()
        plant, cost, demo = default_system
        dt = 1e-3
        x = X0.copy()
        field = lambda _t, x: demo.a_cl @ x
        for k in range(10000):
            u = optimal_action(demo, x)
            grad_v = 2.0 * demo.riccati_p @ x
            resid = grad_v @ (plant.a_prime @ x + plant.b_prime @ u)
            resid += x @ cost.q_matrix @ x + u @ (cost.r_diag * u)
            assert abs(resid) < 1e-8 * (1.0 + x @ x)
            x = rk4_step(field, k * dt, x, dt)
        assert time.perf_counter() - t0 < 5.0


def test_criterion_3_error_system_identity(default_system):
    with criterion(3, "integral error system: residual equals regressor times truth"):
        t0 = time.perf_counter()
        plant, _, demo = default_system
        dt = 1e-3
        p_log, u_log = simulate_demonstrator(demo, X0, 6.0, dt)
        theta = plant.theta
        t1, t2 = 1000, 800  # 1.0 s and 0.8 s
        worst = 0.0
        for k in range(t1 + t2, int(round(6.0 / dt)) + 1):
            resid = integral_residual(p_log, k, t1, t2)
            reg = integral_regressor(p_log, u_log, k, t1, t2)
            worst = max(worst, float(np.linalg.norm(resid - reg @ theta)))
        assert worst < 1e-5
        assert time.perf_counter() - t0 < 10.0


def test_criterion_4_estimator_convergence(c4_run):
    with criterion(4, "state/parameter errors below 1e-3 of peak by 20 s, gain bounded"):
        run, wall = c4_run
        t_gate = np.searchsorted(run.times, 20.0)
        for series in (run.p_tilde, run.q_tilde, run.theta_tilde):
            norms = np.linalg.norm(series, axis=1)
            assert np.max(norms[t_gate:]) < 1e-3 * np.max(norms)
        assert np.min(run.gamma_eigs[:, 0]) > 0.0
        assert np.all(np.isfinite(run.gamma_eigs))
        assert wall < 60.0


def test_criterion_5_ideal_regressor_recovery(default_system):
    with criterion(5, "weights recovered exactly from true-data regression rows"):
        plant, cost, demo = default_system
        basis = FeatureBasis.quadratic(4)
        theta_true = plant.theta
        w_true = ideal_weights(basis, demo.riccati_p, cost.w_q, cost.r_diag)
        rng = np.random.default_rng(2024)
        stack = IrlHistoryStack(capacity=30, basis=basis, r1=cost.r1, m=plant.m, xi2=XI2)
        for i in range(30):
            x = rng.uniform(-2.0, 2.0, size=4)
            cand = make_entry(stack, x, optimal_action(demo, x), theta_true, t=float(i))
            data_select(stack, cand, 1.0)
        w_hat = solve_weights(stack.sigma_matrix, stack.rhs_vector)
        rel = np.linalg.norm(w_hat - w_true) / np.linalg.norm(w_true)
        assert rel < 1e-6


def test_criterion_6_end_to_end_cost_recovery(c6_report):
    with criterion(6, "30 s query run recovers the cost within 1e-2 with purging"):
        rep = c6_report
        w_norms = rep.norms("w_tilde")
        w_scale = np.linalg.norm(rep.w_true)
        assert w_norms[-1] / w_scale < 1e-2
        assert rep.purge_count >= 1
        # purging never degrades the estimate end to end: the error after
        # the last purge-and-resolve is far below the error in force when
        # purging started (per-event monotonicity does not hold at this
        # purge cadence; the improvement claim is a run-level property)
        first_purge_t = rep.trace.purges[0][0]
        i_pre = int(np.searchsorted(rep.t, first_purge_t)) - 1
        assert w_norms[-1] <= w_norms[i_pre]
        assert rep.wall_clock_seconds < 120.0


def test_criterion_7_scale_identifiability(default_system, c6_report, c7_report):
    with criterion(7, "scaling (Q, R) by 5 yields 5x weights and identical trajectories"):
        plant, _, demo = default_system
        rep5 = c7_report
        w_scale = np.linalg.norm(rep5.w_true)
        assert rep5.norms("w_tilde")[-1] / w_scale < 1e-2
        np.testing.assert_allclose(rep5.w_true, 5.0 * c6_report.w_true, rtol=1e-12)
        assert (
            np.linalg.norm(rep5.w_final - 5.0 * c6_report.w_true) / w_scale < 1e-2
        )

        cost5 = CostFunction(dim=4, w_q=5.0 * DEFAULT_WQ, r_diag=5.0 * DEFAULT_RDIAG)
        demo5 = make_demonstrator(plant, cost5)
        assert np.array_equal(demo5.k_fb, demo.k_fb)
        p1, u1 = simulate_demonstrator(demo, X0, 30.0, 1e-3)
        p5, u5 = simulate_demonstrator(demo5, X0, 30.0, 1e-3)
        assert np.array_equal(p1.rows(0, len(p1)), p5.rows(0, len(p5)))
        assert np.array_equal(u1.rows(0, len(u1)), u5.rows(0, len(u5)))


def test_criterion_8_algorithmic_gates(c6_report):
    with criterion(8, "selection, weight-update and purge gates all honored"):
        trace = c6_report.trace
        assert len(trace.stores) > 0 and len(trace.weight_updates) > 0
        for t, branch, kappa_before, kappa_after, u1_after in trace.stores:
            assert u1_after >= XI2
            if branch == "swap":
                # xi1 = 1: conditioning never degraded (tiny float slack
                # between the scan and the refreshed cache)
                assert kappa_after <= kappa_before * (1.0 + 1e-9)
        for t, varpi, kappa, u1_norm in trace.weight_updates:
            assert varpi == 1
            assert kappa < KAPPA1_BAR
            assert u1_norm >= XI2
        for t, kappa, eta_now, eta_bar_before in trace.purges:
            assert kappa < KAPPA2_BAR
            assert eta_now < eta_bar_before


def test_criterion_9_numerical_hygiene():
    with criterion(9, "integrator order, feature gradients, least-squares oracle"):
        # order-4 sweep on the exponential decay test problem
        def global_error(dt):
            x = np.array([1.0])
            for k in range(int(round(1.0 / dt))):
                x = rk4_step(lambda t, y: -y, k * dt, x, dt)
            return abs(x[0] - np.exp(-1.0))

        ratio = global_error(0.1) / global_error(0.05)
        assert 15.0 < ratio < 17.0

        basis = FeatureBasis.quadratic(4)
        rng = np.random.default_rng(99)
        h = 1e-4
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0, size=4)
            _, grad, _, _ = eval_features(basis, x, np.zeros(2))
            fd = np.zeros_like(grad)
            for d in range(4):
                xp, xm = x.copy(), x.copy()
                xp[d] += h
                xm[d] -= h
                svp, _, _, _ = eval_features(basis, xp, np.zeros(2))
                svm, _, _, _ = eval_features(basis, xm, np.zeros(2))
                fd[:, d] = (svp - svm) / (2.0 * h)
            assert np.max(np.abs(grad - fd)) < 1e-6

        a = rng.normal(size=(40, 15))
        b = rng.normal(size=40)
        assert np.max(np.abs(least_squares(a, b) - np.linalg.pinv(a) @ b)) < 1e-10
