"""Property tests of the per-block drain of OnlineIrl and of the entries
built from it.

drain builds, for a block of queued steps at once, the models of the
parameter estimates, the IRL rows of every candidate pair, the inputs of
the quality score's two parts and the score η itself, with stacked
operations; Entry.block then builds every candidate's Gram block and
squared right-hand side norm.  Each must be bitwise what the per-step
arithmetic gives: one feature evaluation and matrix-vector products per
point for the rows, a copied smoothing window per step for η1, copied
windows of the logs per step for η2, and one product of a candidate's
rows or right-hand side with itself for its entry.  Whether a stacked
product matches the per-step product bit for bit depends on the numpy and
BLAS build, so the oldest supported numpy runs this file too.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from irlobs.estimator import model_matrices, theta_dim
from irlobs.irl import Entry, FeatureBasis, entry_rows
from irlobs.numerics import SampledSignal
from irlobs.purge import (
    QualityConfig,
    eta2_inputs,
    quality_eta1,
    quality_eta2,
    quality_eta2_block,
    smooth_velocity,
)

from conftest import controller_rows, inverse_bellman_row

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)
VALUES = st.floats(-10.0, 10.0)


@st.composite
def blocks(draw):
    """A block of 1 to 33 consecutive steps of an n-position, m-input
    plant, n <= 3 and m <= 2, with logs of random samples, a quality config
    and, per step, a parameter estimate, an estimated state, a position
    error, a lagged velocity estimate and the same number (0 to 2) of
    random oracle pairs."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    size, pairs = draw(st.integers(1, 33)), draw(st.integers(0, 2))
    dt = draw(st.sampled_from([1e-3, 0.01]))
    stride = 2 * draw(st.integers(1, 5))
    half_width = draw(st.integers(1, 5))
    horizon = stride * draw(st.integers(-(-(2 * half_width + 1) // stride), 20))
    count = horizon + half_width + size + 1
    # logs, states and pairs from a seeded generator, as they would overrun
    # the data hypothesis draws an example from
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_log = SampledSignal.from_samples(dt, count * dt, 0.0, rng.uniform(-10, 10, (count, n)))
    u_log = SampledSignal.from_samples(dt, count * dt, 0.0, rng.uniform(-10, 10, (count, m)))
    root = draw(arrays(float, (2 * n, 2 * n), elements=st.floats(-2.0, 2.0)))
    quality = QualityConfig(
        horizon=horizon, s1=root @ root.T, s2=np.eye(n), half_width=half_width,
        rollout_stride=stride,
    )
    thetas = [draw(arrays(float, theta_dim(n, m), elements=VALUES)) for _ in range(size)]
    return {
        "p_log": p_log, "u_log": u_log, "quality": quality, "thetas": thetas,
        "first": count - size,
        "r1": draw(st.floats(0.1, 100.0)),
        "x": rng.uniform(-10, 10, (size, 1 + pairs, 2 * n)),
        "u": rng.uniform(-10, 10, (size, 1 + pairs, m)),
        "p_tilde": rng.uniform(-1, 1, (size, n)),
        "lagged": rng.uniform(-10, 10, (size, n)),
    }


def smooth_velocity_step(p_log, center, w):
    """smooth_velocity of one step on a copied window, as step by step."""
    offsets = np.arange(-w, w + 1)
    vals = np.array(p_log.rows(center - w, 2 * w + 1))
    return (offsets @ vals) / (p_log.dt * float(offsets @ offsets))


def eta1_step(p_tilde, lagged, v, s1):
    """quality_eta1 of one step, on 1-D vectors."""
    xbar = np.concatenate([p_tilde, lagged - v])
    return float(xbar @ s1 @ xbar)


def eta2_inputs_step(p_log, u_log, k, quality, v0):
    """eta2_inputs of one step, each window copied out of its log."""
    steps, stride = quality.horizon // quality.rollout_stride, quality.rollout_stride
    k0 = k - quality.horizon
    x0 = np.concatenate([p_log.rows(k0)[0], v0])
    u_half = np.array(u_log.rows(k0, 2 * steps + 1, stride // 2))
    p_meas = np.array(p_log.rows(k0, steps + 1, stride))
    return x0, u_half, p_meas


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@PROPERTY
@given(block=blocks())
def test_block_rows_equal_the_per_step_rows_bitwise(block):
    thetas, x, u, r1 = block["thetas"], block["x"], block["u"], block["r1"]
    n, m = x.shape[-1] // 2, u.shape[-1]
    basis = FeatureBasis.quadratic(2 * n)
    models = [model_matrices(theta, n, m) for theta in thetas]
    a = np.stack([a_prime for a_prime, _ in models])
    b = np.stack([b_prime for _, b_prime in models])
    stacked = model_matrices(np.stack(thetas), n, m)
    assert same_bits(stacked[0], a) and same_bits(stacked[1], b)
    rows, rhs = entry_rows(basis, x, u, a[:, None], b[:, None], r1)
    assert rows.shape == x.shape[:2] + (1 + u.shape[-1], basis.width(u.shape[-1]))
    for j, theta in enumerate(thetas):
        for c in range(x.shape[1]):
            row, rhs0 = inverse_bellman_row(basis, x[j, c], u[j, c], theta, r1)
            ctrl, ctrl_rhs = controller_rows(basis, x[j, c], u[j, c], theta, r1)
            assert same_bits(rows[j, c, 0], row) and rhs[j, c, 0] == rhs0
            assert same_bits(rows[j, c, 1:], ctrl) and same_bits(rhs[j, c, 1:], ctrl_rhs)
            one = entry_rows(basis, x[j, c], u[j, c], *models[j], r1)
            assert same_bits(one[0], rows[j, c]) and same_bits(one[1], rhs[j, c])


@PROPERTY
@given(block=blocks())
def test_block_eta_and_its_inputs_equal_the_per_step_ones_bitwise(block):
    p_log, u_log, quality = block["p_log"], block["u_log"], block["quality"]
    thetas, first, horizon = block["thetas"], block["first"], quality.horizon
    size = len(thetas)
    v = smooth_velocity(p_log, first - horizon, quality.half_width, size)
    eta1 = quality_eta1(block["p_tilde"], block["lagged"], v, quality.s1)
    inputs = eta2_inputs(p_log, u_log, first, quality, v)
    a, b = model_matrices(np.stack(thetas), p_log.dim, u_log.dim)
    eta = eta1 + quality_eta2_block(a, b, inputs, quality, p_log.dt)
    for j, theta in enumerate(thetas):
        k = first + j
        v_step = smooth_velocity_step(p_log, k - horizon, quality.half_width)
        assert same_bits(v[j], v_step)
        assert same_bits(smooth_velocity(p_log, k - horizon, quality.half_width), v_step)
        eta1_j = eta1_step(block["p_tilde"][j], block["lagged"][j], v_step, quality.s1)
        assert eta1[j] == eta1_j
        for part, want in zip(inputs, eta2_inputs_step(p_log, u_log, k, quality, v_step)):
            assert same_bits(part[j], want)
        want = eta1_j + quality_eta2(p_log, u_log, theta, k, quality, v_step)
        assert same_bits(eta[j], want) and not np.isnan(eta[j])


@PROPERTY
@given(
    shape=st.tuples(st.integers(1, 33), st.integers(1, 3), st.integers(1, 4), st.integers(1, 30)),
    decades=st.integers(0, 12),
    broken=st.sampled_from([None, np.inf, -np.inf, np.nan]),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_entries_equal_the_per_candidate_products_bitwise(shape, decades, broken, seed):
    # a block of steps x candidates x rows x width, its values spanning up
    # to 12 decades, with one non-finite value in the rows or the
    # right-hand side of some candidate when broken is set
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=shape) * 10.0 ** rng.uniform(-decades, decades, shape)
    rhs = rng.normal(size=shape[:-1]) * 10.0 ** rng.uniform(-decades, decades, shape[:-1])
    if broken is not None:
        target = rows if rng.integers(2) else rhs
        target[tuple(rng.integers(0, size) for size in target.shape)] = broken
    times, etas = rng.uniform(0, 5, shape[0]).tolist(), rng.uniform(0, 1, shape[0]).tolist()
    steps = Entry.block(times, etas, rows, rhs)
    assert [len(entries) for entries in steps] == [shape[1]] * shape[0]
    for j, entries in enumerate(steps):
        for c, entry in enumerate(entries):
            r, h = rows[j, c], rhs[j, c]
            assert same_bits(entry.rows, r) and same_bits(entry.rhs, h)
            assert (entry.t, entry.eta) == (times[j], etas[j])
            assert same_bits(entry.gram, r.T @ r)
            assert same_bits(entry.rhs_sq, float(h @ h))
            assert entry.finite == bool(np.isfinite(r).all() and np.isfinite(h).all())
            one = Entry.of(r, h, etas[j], times[j])
            assert same_bits(one.gram, entry.gram) and same_bits(one.rhs_sq, entry.rhs_sq)
            assert one.finite == entry.finite
