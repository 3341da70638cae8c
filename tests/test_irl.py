"""Cost-recovery tests: features, regression rows, data selection, solve."""

import numpy as np
import pytest

from irlobs.errors import NumericOverflowError, RankDeficiencyError
from irlobs.estimator import model_matrices
from irlobs.irl import (
    Entry,
    FeatureBasis,
    IrlHistoryStack,
    data_select,
    entry_rows,
    eval_features,
    ideal_weights,
    quadratic_monomials,
    solve_weights,
)
from irlobs.plant import optimal_action

from conftest import (
    DEFAULT_RDIAG,
    DEFAULT_WQ,
    controller_rows,
    eval_features_loop,
    inverse_bellman_row,
    make_entry,
)


@pytest.fixture(scope="module")
def basis():
    return FeatureBasis.quadratic(4)


@pytest.fixture(scope="module")
def theta_true(default_system):
    plant, _, _ = default_system
    return plant.theta


@pytest.fixture(scope="module")
def w_true(default_system, basis):
    _, cost, demo = default_system
    return ideal_weights(basis, demo.riccati_p, cost.w_q, cost.r_diag)


def ideal_entry(stack, demo, theta_true, x, t=0.0, eta=0.0):
    return make_entry(stack, x, optimal_action(demo, x), theta_true, eta=eta, t=t)


def filled_ideal_stack(demo, theta_true, basis, count=30, seed=123, capacity=None):
    rng = np.random.default_rng(seed)
    stack = IrlHistoryStack(
        capacity=capacity or count, basis=basis, r1=demo.cost.r1, m=demo.plant.m
    )
    for i in range(count):
        x = rng.uniform(-2.0, 2.0, size=4)
        data_select(stack, ideal_entry(stack, demo, theta_true, x, t=float(i)), 1.0)
    return stack


class TestFeatureBasis:
    def test_full_quadratic_count(self, basis):
        assert basis.num_v == 10  # 2n(2n+1)/2 with 2n = 4
        assert basis.num_q == 4
        assert basis.width(2) == 15

    def test_duplicate_monomial_rejected(self):
        with pytest.raises(ValueError):
            FeatureBasis(dim=2, v_monomials=[(0, 0), (0, 0)], q_monomials=[(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FeatureBasis(dim=2, v_monomials=[(0, 2)], q_monomials=[(0, 0)])


class TestEvalFeatures:
    def test_zero_state(self, basis):
        sv, grad, sq, su = eval_features(basis, np.zeros(4), np.zeros(2))
        assert not sv.any() and not grad.any() and not sq.any() and not su.any()

    def test_basis_vector(self, basis):
        x = np.zeros(4)
        x[0] = 1.0
        sv, _, _, _ = eval_features(basis, x, np.zeros(2))
        idx = basis.v_monomials.index((0, 0))
        assert sv[idx] == 1.0
        others = [v for k, v in enumerate(sv) if k != idx]
        assert not any(others)

    def test_gradient_matches_finite_differences(self, basis):
        rng = np.random.default_rng(30)
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

    def test_matches_the_monomial_loop_bitwise(self):
        rng = np.random.default_rng(31)
        bases = [
            FeatureBasis.quadratic(4),
            FeatureBasis.quadratic(6, [(0, 1), (2, 2), (3, 5)]),
            FeatureBasis(dim=3, v_monomials=[(2, 2), (0, 2), (1, 1)], q_monomials=[]),
        ]
        for b in bases:
            for _ in range(50):
                x = rng.normal(size=b.dim) * rng.choice([1e-3, 1.0, 1e3])
                u = rng.normal(size=2)
                for got, want in zip(eval_features(b, x, u), eval_features_loop(b, x, u)):
                    np.testing.assert_array_equal(got, want, strict=True)

    def test_sigma_u_squares(self, basis):
        _, _, _, su = eval_features(basis, np.zeros(4), np.array([2.0, -3.0]))
        np.testing.assert_allclose(su, [4.0, 9.0])


class TestRegressionRows:
    def test_zero_point_gives_zero_row(self, basis, theta_true):
        rows, rhs = entry_rows(
            basis, np.zeros(4), np.zeros(2), *model_matrices(theta_true, 2, 2), 20.0
        )
        assert not rows[0].any() and rhs[0] == 0.0

    def test_bellman_identity_on_true_data(self, default_system, basis, theta_true, w_true):
        _, cost, demo = default_system
        rng = np.random.default_rng(31)
        for _ in range(50):
            x = rng.uniform(-2.0, 2.0, size=4)
            u = optimal_action(demo, x)
            rows, rhs = entry_rows(basis, x, u, *model_matrices(theta_true, 2, 2), cost.r1)
            assert abs(rows[0] @ w_true - rhs[0]) < 1e-8

    def test_perturbed_weight_residual_is_linear(self, default_system, basis, theta_true, w_true):
        _, cost, demo = default_system
        x = np.array([1.0, -0.5, 0.3, 0.8])
        u = optimal_action(demo, x)
        rows, rhs = entry_rows(basis, x, u, *model_matrices(theta_true, 2, 2), cost.r1)
        perturbed = w_true.copy()
        perturbed[0] += 1.0
        assert abs((rows[0] @ perturbed - rhs[0]) - rows[0, 0]) < 1e-10

    def test_controller_rows_zero_point(self, basis, theta_true):
        rows, rhs = entry_rows(
            basis, np.zeros(4), np.zeros(2), *model_matrices(theta_true, 2, 2), 20.0
        )
        assert not rows[1:].any() and not rhs[1:].any()

    def test_controller_identity_on_true_data(self, default_system, basis, theta_true, w_true):
        _, cost, demo = default_system
        rng = np.random.default_rng(32)
        for _ in range(50):
            x = rng.uniform(-2.0, 2.0, size=4)
            u = optimal_action(demo, x)
            rows, rhs = entry_rows(basis, x, u, *model_matrices(theta_true, 2, 2), cost.r1)
            assert np.max(np.abs(rows[1:] @ w_true - rhs[1:])) < 1e-8

    def test_controller_rows_single_input(self, double_integrator):
        plant, cost, demo = double_integrator
        di_basis = FeatureBasis.quadratic(2)
        rows, rhs = entry_rows(
            di_basis, np.array([1.0, 0.5]), np.array([-1.5]), *model_matrices(plant.theta, 1, 1),
            1.0
        )
        rows, rhs = rows[1:], rhs[1:]
        assert rows.shape == (1, di_basis.width(1))
        assert rhs.shape == (1,)
        assert rows.shape[1] == di_basis.num_v + di_basis.num_q  # no W_R-minus columns

    def test_entry_rows_stack_both_parts(self, default_system, basis, theta_true):
        _, cost, demo = default_system
        x = np.array([0.5, 1.0, -1.0, 0.2])
        u = optimal_action(demo, x)
        rows, rhs = entry_rows(basis, x, u, *model_matrices(theta_true, 2, 2), cost.r1)
        row_b, rhs_b = inverse_bellman_row(basis, x, u, theta_true, cost.r1)
        rows_c, rhs_c = controller_rows(basis, x, u, theta_true, cost.r1)
        np.testing.assert_allclose(rows[0], row_b, atol=1e-14)
        np.testing.assert_allclose(rows[1:], rows_c, atol=1e-14)
        np.testing.assert_allclose(rhs, np.concatenate([[rhs_b], rhs_c]), atol=1e-14)


class TestDataSelect:
    def test_append_while_not_full(self, default_system, basis, theta_true):
        _, _, demo = default_system
        stack = IrlHistoryStack(capacity=3, basis=basis, r1=20.0, m=2)
        varpi = data_select(stack, ideal_entry(stack, demo, theta_true, np.ones(4)), 1.0)
        assert varpi == 1
        assert stack.size == 1

    def test_duplicate_discarded_when_it_cannot_improve(self, default_system, basis, theta_true):
        # a stack of copies of one point: every swap with another copy
        # leaves the conditioning unchanged, so the strict xi1 = 1 test
        # must reject the duplicate
        _, _, demo = default_system
        stack = IrlHistoryStack(capacity=6, basis=basis, r1=20.0, m=2)
        cand = ideal_entry(stack, demo, theta_true, np.array([1.0, -0.5, 0.5, 2.0]))
        for _ in range(6):
            data_select(stack, cand, 1.0)
        assert stack.is_full
        kappa_before = stack.gram_kappa
        varpi = data_select(stack, cand, 1.0)
        assert varpi == 0
        assert stack.gram_kappa == kappa_before

    def test_duplicate_acceptance_still_improves_conditioning(
        self, default_system, basis, theta_true
    ):
        # duplicating one stored point while dropping another may pass the
        # gate on a spread stack, but only ever by strictly improving it
        _, _, demo = default_system
        rng = np.random.default_rng(34)
        stack = IrlHistoryStack(capacity=12, basis=basis, r1=20.0, m=2)
        points = [rng.uniform(-2.0, 2.0, size=4) for _ in range(12)]
        for i, x in enumerate(points):
            data_select(stack, ideal_entry(stack, demo, theta_true, x, t=float(i)), 1.0)
        for x in points:
            before = stack.gram_kappa
            stored = data_select(stack, ideal_entry(stack, demo, theta_true, x, t=99.0), 1.0)
            if stored:
                assert stack.gram_kappa < before
            else:
                assert stack.gram_kappa == before

    def test_rank_deficient_full_stack_takes_a_swap_to_finite_kappa(
        self, default_system, basis, theta_true
    ):
        # six distinct points plus a duplicate span only 14 of the 15
        # columns, so kappa is inf; the rounding margin must not freeze the
        # stack there when swapping out the duplicate restores full rank
        _, _, demo = default_system
        rng = np.random.default_rng(37)
        points = [rng.uniform(-2.0, 2.0, size=4) for _ in range(7)]
        stack = IrlHistoryStack(capacity=7, basis=basis, r1=20.0, m=2)
        for i, x in enumerate(points[:6] + points[:1]):
            data_select(stack, ideal_entry(stack, demo, theta_true, x, t=float(i)), 1.0)
        assert stack.is_full
        assert stack.gram_kappa == np.inf
        offered = ideal_entry(stack, demo, theta_true, points[6], t=7.0)
        varpi = data_select(stack, offered, 1.0)
        assert varpi == 1
        assert np.isfinite(stack.gram_kappa)

    def test_zero_input_candidate_discarded_when_it_kills_rhs(self, basis, theta_true):
        # one informative entry plus one zero entry: the best swap for a new
        # zero candidate removes the informative entry and drives the
        # right-hand side norm under the floor, so it must be rejected
        stack = IrlHistoryStack(capacity=2, basis=basis, r1=20.0, m=2)
        strong = make_entry(
            stack, np.array([1.0, -1.0, 0.5, 0.25]), np.array([2.0, 1.0]), theta_true, t=0.0
        )
        weak = make_entry(stack, 1e-6 * np.ones(4), 1e-6 * np.ones(2), theta_true, t=1.0)
        data_select(stack, strong, 1.0)
        data_select(stack, weak, 1.0)
        zero_cand = make_entry(stack, np.ones(4), np.zeros(2), theta_true, t=2.0)
        u1_before = stack.sigma_u1_norm
        varpi = data_select(stack, zero_cand, np.inf)
        assert varpi == 0
        assert stack.sigma_u1_norm == u1_before

    @pytest.mark.parametrize("full", [False, True])
    def test_a_malformed_candidate_changes_nothing(self, default_system, basis, theta_true, full):
        # a candidate with 2 rows where the stack keeps 3 is refused before
        # any of the stack changes, whether it would append or swap (xi1 =
        # inf passes the swap gate of a stack at finite kappa)
        _, _, demo = default_system
        stack = filled_ideal_stack(demo, theta_true, basis, count=30 if full else 1, capacity=30)
        assert stack.is_full == full and np.isfinite(stack.gram_kappa) == full
        good = ideal_entry(stack, demo, theta_true, np.array([1.0, -0.5, 0.5, 2.0]), t=9.0)
        bad = Entry.of(good.rows[:2], good.rhs[:2], 0.0, 9.0)
        before = (
            stack.size, list(stack._rhs_sq), list(stack._eta), stack.gram.copy(),
            stack.blocks.copy(), stack.sigma_matrix.copy(), stack.rhs_vector.copy(),
            stack.rhs_sq, stack.eta_min, stack.gram_kappa,
        )
        with pytest.raises(ValueError, match="do not fit"):
            data_select(stack, bad, np.inf)
        after = (
            stack.size, stack._rhs_sq, stack._eta, stack.gram, stack.blocks,
            stack.sigma_matrix, stack.rhs_vector, stack.rhs_sq, stack.eta_min, stack.gram_kappa,
        )
        for was, now in zip(before, after):
            assert np.array_equal(was, now)
        assert data_select(stack, good, np.inf) == 1

    @pytest.mark.parametrize("full", [False, True])
    def test_an_overflowing_candidate_changes_nothing(self, default_system, basis, theta_true,
                                                      full):
        # finite rows of 1e160 square to an infinite Gram block, which
        # eigvalsh used to fail on with a LinAlgError
        _, _, demo = default_system
        stack = filled_ideal_stack(demo, theta_true, basis, count=30 if full else 1, capacity=30)
        good = ideal_entry(stack, demo, theta_true, np.array([1.0, -0.5, 0.5, 2.0]), t=9.0)
        with np.errstate(over="ignore"):
            huge = Entry.of(np.full_like(good.rows, 1e160), good.rhs, 0.0, 9.0)
        assert huge.finite and not np.isfinite(huge.gram).all()
        before = (stack.size, stack.gram.copy(), stack.blocks.copy(), stack.gram_kappa)
        with pytest.raises(NumericOverflowError, match="Gram block"):
            data_select(stack, huge, np.inf)
        for was, now in zip(before, (stack.size, stack.gram, stack.blocks, stack.gram_kappa)):
            assert np.array_equal(was, now)
        assert data_select(stack, good, np.inf) == 1

    def test_rhs_floor_must_match_the_stack(self, default_system, basis, theta_true):
        # stores and weight solves gate on one right-hand-side floor, the
        # stack's: the swap that restores full rank below is refused by a
        # stack whose floor no right-hand side of these points meets
        _, _, demo = default_system
        rng = np.random.default_rng(37)
        points = [rng.uniform(-2.0, 2.0, size=4) for _ in range(7)]
        for xi2, stored in ((1e-3, 1), (1e6, 0)):
            stack = IrlHistoryStack(capacity=7, basis=basis, r1=20.0, m=2, xi2=xi2)
            for i, x in enumerate(points[:6] + points[:1]):
                data_select(stack, ideal_entry(stack, demo, theta_true, x, t=float(i)), 1.0)
            assert stack.is_full and stack.gram_kappa == np.inf
            offered = ideal_entry(stack, demo, theta_true, points[6], t=7.0)
            assert data_select(stack, offered, 1.0) == stored
            assert np.isfinite(stack.gram_kappa) == bool(stored)

    def test_replacement_never_worsens_conditioning(self, default_system, basis, theta_true):
        _, _, demo = default_system
        stack = filled_ideal_stack(demo, theta_true, basis, count=20, capacity=20)
        rng = np.random.default_rng(33)
        for i in range(100):
            before = stack.gram_kappa
            x = rng.uniform(-2.0, 2.0, size=4)
            stored = data_select(stack, ideal_entry(stack, demo, theta_true, x, t=100.0 + i), 1.0)
            if stored:
                assert stack.gram_kappa <= before
            else:
                assert stack.gram_kappa == before

    def test_rhs_norm_tracks_entries(self, default_system, basis, theta_true):
        _, _, demo = default_system
        stack = filled_ideal_stack(demo, theta_true, basis, count=12, capacity=12)
        assert abs(stack.sigma_u1_norm - np.linalg.norm(stack.rhs_vector)) < 1e-12

    def test_kappa_cache_matches_condition_number(self, default_system, basis, theta_true):
        _, _, demo = default_system
        stack = filled_ideal_stack(demo, theta_true, basis, count=20, capacity=20)
        rng = np.random.default_rng(35)
        for i in range(15):
            x = rng.uniform(-2.0, 2.0, size=4)
            data_select(stack, ideal_entry(stack, demo, theta_true, x, t=50.0 + i), 1.0)
            s = np.linalg.svd(stack.sigma_matrix, compute_uv=False)
            oracle = s[0] / s[-1]
            assert abs(stack.kappa - oracle) < 1e-6 * oracle
            assert abs(stack.gram_kappa - oracle**2) < 1e-6 * oracle**2


class TestSolveWeights:
    def test_ideal_regressor_recovery(self, default_system, basis, theta_true, w_true):
        _, _, demo = default_system
        stack = filled_ideal_stack(demo, theta_true, basis)
        w_hat = solve_weights(stack.sigma_matrix, stack.rhs_vector)
        rel = np.linalg.norm(w_hat - w_true) / np.linalg.norm(w_true)
        assert rel < 1e-6

    def test_rank_deficient_refused(self, default_system, basis, theta_true):
        _, _, demo = default_system
        stack = filled_ideal_stack(demo, theta_true, basis, count=2, capacity=30)
        with pytest.raises(RankDeficiencyError):
            solve_weights(stack.sigma_matrix, stack.rhs_vector)

    def test_empty_stack_refused(self, basis):
        stack = IrlHistoryStack(capacity=5, basis=basis, r1=20.0, m=2)
        with pytest.raises(RankDeficiencyError) as err:
            solve_weights(stack.sigma_matrix, stack.rhs_vector)
        assert err.value.rank == 0

    def test_rhs_nonzero_under_floor_guarantee(self, default_system, basis, theta_true):
        # the homogeneous form would admit the zero solution; the known-r1
        # normalization keeps the right-hand side bounded away from zero
        _, _, demo = default_system
        stack = filled_ideal_stack(demo, theta_true, basis)
        assert stack.sigma_u1_norm >= stack.xi2
        assert np.linalg.norm(stack.rhs_vector) > 0.0

    def test_scale_identifiability_on_ideal_rows(self, default_system, basis, theta_true, w_true):
        from irlobs.plant import CostFunction, make_demonstrator

        plant, _, _ = default_system
        cost5 = CostFunction(dim=4, w_q=5.0 * DEFAULT_WQ, r_diag=5.0 * DEFAULT_RDIAG)
        demo5 = make_demonstrator(plant, cost5)
        stack5 = filled_ideal_stack(demo5, theta_true, basis, seed=123)
        w5 = solve_weights(stack5.sigma_matrix, stack5.rhs_vector)
        np.testing.assert_allclose(w5, 5.0 * w_true, rtol=1e-6)


class TestWeightVector:
    # the stacked weights [W_V; W_Q; W_R-minus], one float64 array

    def test_ideal_weights_mapping(self, default_system, basis):
        _, cost, demo = default_system
        w = ideal_weights(basis, demo.riccati_p, cost.w_q, cost.r_diag)
        p = demo.riccati_p
        idx_00 = basis.v_monomials.index((0, 0))
        idx_01 = basis.v_monomials.index((0, 1))
        num_v, num_q = basis.num_v, basis.num_q
        assert w.shape == (basis.width(2),)
        assert w[idx_00] == p[0, 0]
        assert w[idx_01] == 2.0 * p[0, 1]
        np.testing.assert_array_equal(w[num_v : num_v + num_q], cost.w_q)
        np.testing.assert_array_equal(w[num_v + num_q :], cost.r_diag[1:])

    def test_quadratic_monomial_count(self):
        assert len(quadratic_monomials(4)) == 10
        assert len(set(quadratic_monomials(6))) == 21
