"""Property tests of the two history stacks' commit rules.

After every offer the stored Gram equals the sum of its blocks to rounding;
an offer to a full stack either commits a swap that strictly improves the
recomputed criterion, or leaves the stack exactly as it was.  The bounded
swap search makes every decision the exhaustive search does, and the
Rayleigh-Ritz bounds it prunes with hold on near-singular and
rank-deficient stacks.  Offers are
drawn with repeats from a small pool, since re-offered and rank-deficient
data are where a swap's predicted gain is pure rounding, and scaled copies
make ties and near-ties.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from irlobs.estimator import ParamHistoryStack, ThetaVector
from irlobs.irl import Entry, FeatureBasis, IrlHistoryStack, data_select

from conftest import (
    DEFAULT_A,
    DEFAULT_B,
    exhaustive_irl_slot,
    exhaustive_param_slot,
    gram_kappas,
    make_entry,
)

EPS = np.finfo(float).eps
COORD = st.floats(-2.0, 2.0, allow_subnormal=False)
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)

THETA = ThetaVector.from_matrices(DEFAULT_A[:, :2], DEFAULT_A[:, 2:], DEFAULT_B)
BASIS = FeatureBasis.quadratic(4)
# exact copies (ties), doubled and tiny copies, and a copy one rounding
# step off (near-ties)
SCALES = (1.0, 1.0, 2.0, 1e-3, 1.0 + 2.0**-40)


def offers(element, pool_size):
    """A sequence of up to 20 offers drawn with repeats from a small pool."""
    pool = st.lists(element, min_size=1, max_size=pool_size)
    return pool.flatmap(
        lambda items: st.lists(st.sampled_from(items), min_size=1, max_size=20)
    )


@st.composite
def scaled_offers(draw, element, pool_sizes, counts):
    """Offers, each a pool item drawn with repeats times a scale."""
    pool = draw(st.lists(element, min_size=pool_sizes[0], max_size=pool_sizes[1]))
    picks = st.tuples(st.integers(0, len(pool) - 1), st.sampled_from(SCALES))
    picked = draw(st.lists(picks, min_size=counts[0], max_size=counts[1]))
    return [(pool[i], scale) for i, scale in picked]


def assert_gram_is_block_sum(gram, blocks):
    total = np.sum(blocks, axis=0)
    scale = np.sum(np.abs(blocks), axis=0).max()
    assert np.abs(gram - total).max() <= len(blocks) * EPS * scale


@PROPERTY
@given(
    capacity=st.integers(2, 6),
    pairs=offers(
        st.tuples(arrays(float, 2, elements=COORD), arrays(float, (2, 4), elements=COORD)), 5
    ),
)
def test_param_stack_commits_only_strict_gains(capacity, pairs):
    stack = ParamHistoryStack(capacity=capacity, dim=4, min_eig_threshold=1e-6)
    for residual, regressor in pairs:
        was_full, before = stack.is_full, stack.min_eigenvalue
        old_ids, old_gram = [id(e) for e in stack.entries], stack.gram.copy()
        committed = stack.record(residual, regressor)
        assert_gram_is_block_sum(stack.gram, [reg.T @ reg for _, reg in stack.entries])
        running = np.zeros(4)
        for res, reg in stack.entries:
            running += reg.T @ res
        assert np.array_equal(stack.rhs_projection, running)
        if committed:
            if was_full:
                assert np.linalg.eigvalsh(stack.gram)[0] > before
        else:
            assert [id(e) for e in stack.entries] == old_ids
            assert np.array_equal(stack.gram, old_gram)
            assert stack.min_eigenvalue == before


@PROPERTY
@given(
    capacity=st.integers(5, 9),
    points=offers(
        st.tuples(arrays(float, 4, elements=COORD), arrays(float, 2, elements=COORD)), 10
    ),
)
def test_irl_stack_commits_only_strict_gains(capacity, points):
    stack = IrlHistoryStack(capacity=capacity, basis=BASIS, r1=20.0, m=2)
    for t, (x, u) in enumerate(points):
        was_full, before = stack.is_full, stack.gram_kappa
        old_ids, old_gram = [id(e) for e in stack.entries], stack.gram.copy()
        cand = make_entry(stack, x, u, THETA, t=float(t))
        stored = data_select(stack, cand, 1.0)
        assert_gram_is_block_sum(stack.gram, [e.gram for e in stack.entries])
        if stored:
            if was_full:
                assert stack.gram_kappa < before
        else:
            assert [id(e) for e in stack.entries] == old_ids
            assert np.array_equal(stack.gram, old_gram)
            assert stack.gram_kappa == before


@st.composite
def param_offers(draw):
    """(capacity, regressors): 4 to 16 slots at dim 4, offered 10 to 40
    scaled regressors from a pool that hypothesis draws, or the
    calibration's 150 slots at dim 12, filled and then offered 40 more
    from a pool drawn with a seed, as that much data would overrun what
    hypothesis draws an example from."""
    if draw(st.booleans()):
        picks = draw(scaled_offers(arrays(float, (2, 4), elements=COORD), (2, 8), (10, 40)))
        return draw(st.integers(4, 16)), [scale * base for base, scale in picks]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.uniform(-2.0, 2.0, (draw(st.integers(20, 80)), 2, 12))
    picks = zip(rng.integers(0, len(pool), 190), rng.choice(SCALES, 190))
    return 150, [scale * pool[i] for i, scale in picks]


@PROPERTY
@given(offered=param_offers(), deficient=st.booleans())
def test_param_stack_bounded_search_matches_exhaustive(offered, deficient):
    capacity, regressors = offered
    dim = regressors[0].shape[1]
    stack = ParamHistoryStack(capacity=capacity, dim=dim, min_eig_threshold=1e-6)
    for regressor in regressors:
        if deficient:  # every Gram misses the last direction
            regressor[:, -1] = 0.0
        expected = list(stack.entries)
        slot = exhaustive_param_slot(stack, regressor) if stack.is_full else stack.size
        committed = stack.record(regressor[:, 0], regressor)
        assert committed == (slot is not None)
        if committed:
            assert stack.entries[slot][1] is regressor
            expected[slot:slot + 1] = [stack.entries[slot]]
        assert [id(e) for e in stack.entries] == [id(e) for e in expected]
        gram = np.sum([reg.T @ reg for _, reg in expected], axis=0)
        assert np.array_equal(stack.gram, gram)
        assert stack.min_eigenvalue == float(np.linalg.eigvalsh(gram)[0])


@PROPERTY
@given(
    capacity=st.integers(5, 12),
    xi1=st.sampled_from([1.0, 1.0, 0.5, 3.0]),
    picks=scaled_offers(
        st.tuples(arrays(float, 4, elements=COORD), arrays(float, 2, elements=COORD)),
        (1, 14),
        (12, 40),
    ),
)
def test_irl_stack_bounded_search_matches_exhaustive(capacity, xi1, picks):
    # a scaled copy adds no rank, so small pools leave the stack at kappa = inf
    stack = IrlHistoryStack(capacity=capacity, basis=BASIS, r1=20.0, m=2)
    for t, ((x, u), scale) in enumerate(picks):
        cand = make_entry(stack, scale * x, scale * u, THETA, t=float(t))
        expected = list(stack.entries)
        if stack.is_full:
            slot = exhaustive_irl_slot(stack, cand, xi1)
        else:
            slot = stack.size
        stored = data_select(stack, cand, xi1)
        assert stored == (slot is not None)
        if stored:
            assert stack.entries[slot].t == float(t)
            expected[slot:slot + 1] = [stack.entries[slot]]
        assert [id(e) for e in stack.entries] == [id(e) for e in expected]
        gram = np.sum([e.gram for e in expected], axis=0)
        assert np.array_equal(stack.gram, gram)
        assert stack.gram_kappa == float(gram_kappas(np.linalg.eigvalsh(gram)))


@PROPERTY
@given(
    capacity=st.one_of(st.integers(2, 30), st.just(150)),
    irl=st.booleans(),
    dim=st.sampled_from([3, 12, 24]),
    kappa_decades=st.integers(0, 7),
    deficient=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_ritz_bounds_hold_on_near_singular_and_rank_deficient_stacks(
    capacity, irl, dim, kappa_decades, deficient, seed
):
    # the bounds best_swap rules slots out with must hold for the computed
    # spectra of every swap: on IRL stacks (3-row entries, 15 wide) whose
    # Gram kappa reaches about 1e14, as the row scales span up to 7 decades
    # of singular value, and on parameter stacks that are also rank
    # deficient, with up to 2 zero regressor columns; up to the
    # calibration's 150 slots, and with each stack's own Ritz basis
    rng = np.random.default_rng(seed)
    if irl:
        stack = IrlHistoryStack(capacity=capacity, basis=BASIS, r1=20.0, m=2)
        dim, deficient = stack.dim, 0
    else:
        stack = ParamHistoryStack(capacity=capacity, dim=dim, min_eig_threshold=1e-6)
    scales = np.logspace(0.0, -kappa_decades, dim)
    scales[dim - deficient:] = 0.0

    def offer(scale):
        rows = rng.normal(size=(3, dim)) * scales * scale
        if irl:
            return data_select(stack, Entry.of(rows, np.ones(3), 0.0, 0.0), 1.0)
        return stack.record(rows[:, 0], rows)

    while not stack.is_full:
        offer(1.0)
    for scale in (1e-3, 1.0, 1e3):
        rows = rng.normal(size=(3, dim)) * scales * scale
        block = rows.T @ rows
        lam = stack.swap_spectra(block)
        lam_min_bound, lam_max_bound = stack._ritz_bounds(block)
        assert (lam_min_bound >= lam[:, 0]).all()
        assert (lam_max_bound <= lam[:, -1]).all()
        offer(scale)  # and the bounds of the changed stack next time
