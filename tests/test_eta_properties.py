"""Property tests of the quality score η2 scored in blocks.

quality_eta2_block advances the rollouts of a block of steps in lockstep.
Each score must be bitwise the quality_eta2 of its own step, whatever the
block size, plant size, horizon and parameter estimate, and a rollout
that diverges must score +inf in its own entry without touching the
others.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from irlobs.estimator import model_matrices, theta_dim
from irlobs.numerics import SampledSignal
from irlobs.purge import QualityConfig, eta2_inputs, quality_eta2, quality_eta2_block

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)
VALUES = st.floats(-10.0, 10.0)


@st.composite
def blocks(draw):
    """(p_log, u_log, quality, steps, thetas, v0s): logs of random samples,
    a quality config with a full weighting s2 and a horizon of 1 to 60
    rollout steps (one step is where a stacked einsum's sums differ; the
    default config rolls out 50), and per step of a block of 1 to 33
    consecutive steps a parameter estimate, scaled up to diverge on some,
    and a smoothed velocity."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    dt = draw(st.sampled_from([1e-3, 0.01]))
    stride = 2 * draw(st.integers(2, 10))
    horizon = stride * draw(st.integers(1, 60))
    size = draw(st.integers(1, 33))
    count = horizon + size + 1
    # logs of up to 1,234 samples: drawn from a seeded generator, as they
    # would overrun the data hypothesis draws an example from
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.uniform(-10.0, 10.0, size=(count, n))
    u = rng.uniform(-10.0, 10.0, size=(count, m))
    p_log = SampledSignal.from_samples(dt, count * dt, 0.0, p)
    u_log = SampledSignal.from_samples(dt, count * dt, 0.0, u)
    root = draw(arrays(float, (n, n), elements=st.floats(-2.0, 2.0)))
    quality = QualityConfig(
        horizon=horizon, s1=np.eye(2 * n), s2=root @ root.T, half_width=1, rollout_stride=stride,
    )
    dim = theta_dim(n, m)
    thetas = [
        draw(arrays(float, dim, elements=VALUES)) * draw(st.sampled_from([0.01, 1.0, 1e3, 1e5]))
        for _ in range(size)
    ]
    v0s = [draw(arrays(float, n, elements=VALUES)) for _ in range(size)]
    first = draw(st.integers(horizon, count - size))
    return p_log, u_log, quality, range(first, first + size), thetas, v0s


@PROPERTY
@given(block=blocks())
def test_block_scores_equal_the_single_scores_bitwise(block):
    p_log, u_log, quality, steps, thetas, v0s = block
    alone = [
        quality_eta2(p_log, u_log, theta, k, quality, v0)
        for k, theta, v0 in zip(steps, thetas, v0s)
    ]
    a, b = model_matrices(np.stack(thetas), p_log.dim, u_log.dim)
    inputs = eta2_inputs(p_log, u_log, steps[0], quality, np.array(v0s))
    together = quality_eta2_block(a, b, inputs, quality, p_log.dt)
    assert together.shape == (len(steps),)
    assert np.array(alone).tobytes() == together.tobytes()
    assert not np.isnan(together).any()


def test_a_diverging_rollout_scores_inf_in_its_own_entry():
    rng = np.random.default_rng(3)
    n, m, horizon = 2, 2, 100
    count = horizon + 40
    p_log = SampledSignal.from_samples(1e-3, count * 1e-3, 0.0, rng.normal(size=(count, n)))
    u_log = SampledSignal.from_samples(1e-3, count * 1e-3, 0.0, rng.normal(size=(count, m)))
    quality = QualityConfig(horizon=horizon, s1=np.eye(4), s2=np.eye(2), half_width=1)
    thetas = np.array([rng.normal(size=theta_dim(n, m)) for _ in range(33)])
    diverging = {0, 17, 32}
    for i in diverging:
        thetas[i] *= 1e6
    steps = range(horizon + 1, horizon + 34)
    a, b = model_matrices(thetas, n, m)
    inputs = eta2_inputs(p_log, u_log, steps[0], quality, np.zeros((len(steps), n)))
    scores = quality_eta2_block(a, b, inputs, quality, p_log.dt)
    assert {i for i, s in enumerate(scores) if s == np.inf} == diverging
    assert np.isfinite(np.delete(scores, sorted(diverging))).all()
