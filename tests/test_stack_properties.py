"""Property tests of the two history stacks' commit rules.

After every offer the stored Gram equals the sum of its blocks to rounding;
an offer to a full stack either commits a swap that strictly improves the
recomputed criterion, or leaves the stack exactly as it was.  The bounded
swap search, compiled (irlobs.gramkernel), makes every decision the
exhaustive reference does, numpy's search of every slot, from the same
bits, and the floors it prunes with hold on near-singular and
rank-deficient stacks.  Offers are drawn with repeats from a small pool,
since re-offered and rank-deficient data are where a swap's predicted gain
is pure rounding, and scaled copies make ties and near-ties.
"""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from irlobs.estimator import ParamHistoryStack
from irlobs.irl import Entry, FeatureBasis, IrlHistoryStack, data_select

from conftest import (
    DEFAULT_A,
    DEFAULT_B,
    SlotEntries,
    exhaustive_irl_slot,
    exhaustive_param_slot,
    gram_kappas,
    make_entry,
    swap_kernel,
)

EPS = np.finfo(float).eps
COORD = st.floats(-2.0, 2.0, allow_subnormal=False)
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)

# [vec(A1); vec(A2); vec(B)]: [A1, A2] column-major is vec(A1) followed by vec(A2)
THETA = np.concatenate([DEFAULT_A.ravel(order="F"), DEFAULT_B.ravel(order="F")])
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
    entries = SlotEntries(stack)
    for residual, regressor in pairs:
        was_full, before = stack.is_full, stack.min_eigenvalue
        old_ids, old_gram = [id(e) for e in entries()], stack.gram.copy()
        committed = stack.record(residual, regressor)
        assert_gram_is_block_sum(stack.gram, [reg.T @ reg for _, reg in entries()])
        running = np.zeros(4)
        for res, reg in entries():
            running += reg.T @ res
        assert np.array_equal(stack.rhs_projection, running)
        if committed:
            if was_full:
                assert np.linalg.eigvalsh(stack.gram)[0] > before
        else:
            assert [id(e) for e in entries()] == old_ids
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
    entries = SlotEntries(stack)
    for t, (x, u) in enumerate(points):
        was_full, before = stack.is_full, stack.gram_kappa
        old_ids, old_gram = [id(e) for e in entries()], stack.gram.copy()
        cand = make_entry(stack, x, u, THETA, t=float(t))
        stored = data_select(stack, cand, 1.0)
        assert_gram_is_block_sum(stack.gram, [e.gram for e in entries()])
        if stored:
            if was_full:
                assert stack.gram_kappa < before
        else:
            assert [id(e) for e in entries()] == old_ids
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
    entries = SlotEntries(stack)
    for regressor in regressors:
        if deficient:  # every Gram misses the last direction
            regressor[:, -1] = 0.0
        expected = entries()
        slot = exhaustive_param_slot(stack, regressor) if stack.is_full else stack.size
        committed = stack.record(regressor[:, 0], regressor)
        assert committed == (slot is not None)
        if committed:
            assert entries()[slot][1] is regressor
            expected[slot:slot + 1] = [entries()[slot]]
        assert [id(e) for e in entries()] == [id(e) for e in expected]
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
    entries = SlotEntries(stack)
    for t, ((x, u), scale) in enumerate(picks):
        cand = make_entry(stack, scale * x, scale * u, THETA, t=float(t))
        expected = entries()
        if stack.is_full:
            slot = exhaustive_irl_slot(stack, cand, xi1)
        else:
            slot = stack.size
        stored = data_select(stack, cand, xi1)
        assert stored == (slot is not None)
        if stored:
            assert entries()[slot].t == float(t)
            expected[slot:slot + 1] = [entries()[slot]]
        assert [id(e) for e in entries()] == [id(e) for e in expected]
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
    # the floors the compiled search rules slots out with must stay at most
    # the computed score of every swap: on IRL stacks (3-row entries, 15
    # wide) whose Gram kappa reaches about 1e14, as the row scales span up
    # to 7 decades of singular value, and on parameter stacks that are also
    # rank deficient, with up to 2 zero regressor columns; up to the
    # calibration's 150 slots, and with each stack's own Ritz basis.  At
    # the largest finite cut the search is bounded and keeps every slot's
    # floor
    swap_kernel()
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
        stack.best_swap(block, np.finfo(float).max, float(block.trace()))
        floors = stack._search._arrays["ritz"][4, : stack.size]
        assert (floors <= stack._score(stack.swap_spectra(block))).all()
        offer(scale)  # and the floors of the changed stack next time


@pytest.mark.parametrize("irl", [False, True])
def test_a_stored_candidate_keeps_none_of_its_arrays_alive(irl):
    # each stack copies what its decisions read into its slot arrays, so
    # the arrays of a stored candidate, a drained block's rows and
    # right-hand sides with the Gram blocks Entry.block stacks from them,
    # or a recorded pair, are freed once the caller drops them
    rng = np.random.default_rng(3)
    if irl:
        stack = IrlHistoryStack(capacity=4, basis=BASIS, r1=20.0, m=2)
        rows, rhs = rng.normal(size=(2, 1, 3, stack.dim)), rng.normal(size=(2, 1, 3))
        entries = [e for step in Entry.block([0.0, 1e-3], [1.0, 2.0], rows, rhs) for e in step]
        assert [data_select(stack, e, 1.0) for e in entries] == [1, 1]
        arrays = [rows, rhs, entries[0].gram.base]
        del rows, rhs, entries
    else:
        stack = ParamHistoryStack(capacity=4, dim=4, min_eig_threshold=1e-6)
        residual, regressor = rng.normal(size=2), rng.normal(size=(2, 4))
        assert stack.record(residual, regressor)
        arrays = [residual, regressor]
        del residual, regressor
    refs = [weakref.ref(array) for array in arrays]
    del arrays
    gc.collect()
    assert stack.size == (2 if irl else 1)
    assert [ref() is None for ref in refs] == [True] * len(refs)


def compiled_and_numpy(make):
    """Two empty stacks from make(): one that searches in compiled code and
    one held to numpy's exhaustive reference (skips where none loads)."""
    swap_kernel()
    compiled, plain = make(), make()
    plain._search = False
    return compiled, plain


def assert_same_search(compiled, plain, block, cut):
    # the same slot and spectrum bits when some slot scores below cut, or
    # when every slot is scored; otherwise None or a slot scoring at least
    # cut from the compiled search, and the reference's lowest scoring
    # slot, which no stack commits
    trace = float(block.trace())
    found = [stack.best_swap(block, cut, trace) for stack in (compiled, plain)]
    below = [f is not None and plain._score(f[1][None])[0] < cut for f in found]
    assert below[0] == below[1]
    if below[0] or not math.isfinite(cut) or plain.dim < 2:
        assert found[0][0] == found[1][0]
        assert found[0][1].tobytes() == found[1][1].tobytes()
    # the floors of the compiled search, each below its slot's computed score
    if compiled._search and math.isfinite(cut) and plain.dim >= 2:
        floors = compiled._search._arrays["ritz"][4, : plain.size]
        assert (floors <= plain._score(plain.swap_spectra(block))).all()


def assert_same_state(compiled, plain):
    assert compiled.size == plain.size
    for name in ("gram", "spectrum", "blocks"):
        assert getattr(compiled, name).tobytes() == getattr(plain, name).tobytes(), name


@PROPERTY
@given(
    dim=st.sampled_from([1, 2, 4]),
    capacity=st.integers(2, 8),
    deficient=st.booleans(),
    picks=scaled_offers(arrays(float, (2, 4), elements=COORD), (1, 6), (4, 24)),
)
def test_param_stack_searches_alike_compiled_and_in_numpy(dim, capacity, deficient, picks):
    # both paths find the same swaps and keep the same Gram, spectrum and
    # lam_min bits, on partly full and full stacks, of dim 1 to 4, rank
    # deficient or not, offered copies (ties) and scaled copies
    compiled, plain = compiled_and_numpy(
        lambda: ParamHistoryStack(capacity=capacity, dim=dim, min_eig_threshold=1e-6)
    )
    for base, scale in picks:
        regressor = scale * base[:, :dim]
        if deficient and dim > 1:
            regressor[:, -1] = 0.0
        block = regressor.T @ regressor
        if plain.size:
            for cut in (math.inf, plain.min_eigenvalue, -plain.min_eigenvalue):
                assert_same_search(compiled, plain, block, cut)
        records = [stack.record(regressor[:, 0], regressor) for stack in (compiled, plain)]
        assert records[0] == records[1]
        assert_same_state(compiled, plain)
        assert compiled.min_eigenvalue == plain.min_eigenvalue


@PROPERTY
@given(
    capacity=st.integers(2, 10),
    xi1=st.sampled_from([1.0, 0.5, 3.0]),
    picks=scaled_offers(
        st.tuples(arrays(float, 4, elements=COORD), arrays(float, 2, elements=COORD)),
        (1, 14),
        (4, 30),
    ),
)
def test_irl_stack_searches_alike_compiled_and_in_numpy(capacity, xi1, picks):
    # as above for the IRL stack, whose small pools leave it at kappa = inf,
    # so that its cut is not finite and every slot is scored
    compiled, plain = compiled_and_numpy(
        lambda: IrlHistoryStack(capacity=capacity, basis=BASIS, r1=20.0, m=2)
    )
    for t, ((x, u), scale) in enumerate(picks):
        cand = make_entry(plain, scale * x, scale * u, THETA, t=float(t))
        if plain.size:
            for cut in (xi1 * plain.gram_kappa, math.inf):
                assert_same_search(compiled, plain, cand.gram, cut)
        stored = [data_select(stack, cand, xi1) for stack in (compiled, plain)]
        assert stored[0] == stored[1]
        assert_same_state(compiled, plain)
        assert compiled.gram_kappa == plain.gram_kappa


@PROPERTY
@given(
    irl=st.booleans(),
    dim=st.sampled_from([2, 3, 12]),
    capacity=st.integers(3, 40),
    kind=st.sampled_from(["deficient", "near-singular", "tied", "scaled"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_tightened_floors_hold_and_search_alike(irl, dim, capacity, kind, seed):
    # the compiled search tightens a slot's floor with two Rayleigh
    # quotients before it solves it: on rank-deficient stacks, where the
    # Cholesky factor of the swapped Gram fails unshifted, near-singular
    # ones, tied copies and scaled copies, at cuts at, next to and between
    # the computed scores, every floor stays at most its slot's computed
    # score, and the search finds numpy's slot and spectrum bits
    rng = np.random.default_rng(seed)
    if irl:
        make = lambda: IrlHistoryStack(capacity=capacity, basis=BASIS, r1=20.0, m=2)  # noqa: E731
        dim = BASIS.width(2)
    else:
        make = lambda: ParamHistoryStack(capacity=capacity, dim=dim, min_eig_threshold=1e-6)  # noqa: E731
    compiled, plain = compiled_and_numpy(make)
    scales = np.ones(dim)
    if kind == "deficient":
        scales[-1 - (dim > 2) :] = 0.0
    elif kind == "near-singular":
        scales = np.logspace(0.0, -7.5, dim)
    pool = rng.normal(size=(3 if kind == "tied" else 60, 3, dim)) * scales
    for k in range(capacity + 12):
        rows = pool[rng.integers(len(pool))] * (rng.choice(SCALES) if kind == "scaled" else 1.0)
        block = rows.T @ rows
        if plain.is_full:
            scores = np.sort(plain._score(plain.swap_spectra(block)))
            finite = scores[np.isfinite(scores)]
            cuts = [np.nextafter(s, side) for s in finite[[0, len(finite) // 2, -1]]
                    for side in (-np.inf, np.inf)] if finite.size else []
            for cut in [*cuts, *finite[[0, -1]]] if finite.size else []:
                assert_same_search(compiled, plain, block, float(cut))
        if irl:
            entry = Entry.of(rows, np.ones(3), 0.0, float(k))
            stored = [data_select(stack, entry, 1.0) for stack in (compiled, plain)]
        else:
            stored = [stack.record(rows[:, 0], rows) for stack in (compiled, plain)]
        assert stored[0] == stored[1]
        assert_same_state(compiled, plain)


@PROPERTY
@given(irl=st.booleans(), kappa_decades=st.integers(0, 7), seed=st.integers(0, 2**32 - 1))
def test_full_stacks_search_alike_compiled_and_in_numpy(irl, kappa_decades, seed):
    # the calibration's 150 slots at dim 12, and the run's IRL stack of 30
    # slots, near-singular as the row scales span up to 7 decades
    rng = np.random.default_rng(seed)
    if irl:
        make = lambda: IrlHistoryStack(capacity=30, basis=BASIS, r1=20.0, m=2)  # noqa: E731
    else:
        make = lambda: ParamHistoryStack(capacity=150, dim=12, min_eig_threshold=1e-6)  # noqa: E731
    compiled, plain = compiled_and_numpy(make)
    scales = np.logspace(0.0, -kappa_decades, plain.dim)
    for k in range(plain.capacity + 20):
        rows = rng.normal(size=(3, plain.dim)) * scales * rng.choice(SCALES)
        if plain.is_full:
            cut = plain.gram_kappa if irl else -plain.min_eigenvalue
            assert_same_search(compiled, plain, rows.T @ rows, cut)
        if irl:
            entry = Entry.of(rows, np.ones(3), 0.0, float(k))
            stored = [data_select(stack, entry, 1.0) for stack in (compiled, plain)]
        else:
            stored = [stack.record(rows[:, 0], rows) for stack in (compiled, plain)]
        assert stored[0] == stored[1]
        assert_same_state(compiled, plain)
