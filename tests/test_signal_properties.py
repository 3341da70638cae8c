"""Property tests of SampledSignal reads by step index.

Signals are built by appending, with windows short enough that old samples
are pruned and the ring buffer compacts.  Strided reads return the
appended samples and the running trapezoid integral bit for bit, integrals
between steps add up to rounding, single-step reads equal the rows of
strided ones, and any read that leaves the retained steps raises, the step
just below them included.  Appending blocks of rows (extend) keeps the
samples and the running integral bitwise those of appending each row.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from irlobs.errors import WindowUnderflowError
from irlobs.numerics import SampledSignal

EPS = np.finfo(float).eps
PROPERTY = settings(derandomize=True, max_examples=80, deadline=None)
UNIT = st.floats(0.0, 1.0)


@st.composite
def logs(draw):
    """A signal built by appending, and the samples appended to it."""
    dim = draw(st.integers(1, 3))
    dt = draw(st.sampled_from([1e-3, 0.01, 0.1, 0.37]))
    count = draw(st.integers(2, 200))
    window = dt * draw(st.integers(1, 250))
    t0 = draw(st.floats(-5.0, 5.0))
    values = draw(arrays(float, (count, dim), elements=st.floats(-100.0, 100.0)))
    sig = SampledSignal(dim, dt, window, t0=t0)
    for k, value in enumerate(values):
        sig.append(t0 + k * dt, value)
    return sig, values


def running_integral(values, dt):
    """The trapezoid running integral, summed one step at a time from zero."""
    cum = [np.zeros(values.shape[1])]
    for prev, value in zip(values, values[1:]):
        cum.append(cum[-1] + (0.5 * dt) * (prev + value))
    return np.array(cum)


def retained(sig, frac):
    """The retained step at fraction frac of the retained range."""
    return sig.first_step + round(frac * (len(sig) - 1))


def integral(sig, a, b):
    return sig.rows(b, cumulative=True)[0] - sig.rows(a, cumulative=True)[0]


@PROPERTY
@given(log=logs(), fracs=st.lists(UNIT, min_size=3, max_size=3))
def test_integral_is_additive(log, fracs):
    sig, *_ = log
    a, b, c = (retained(sig, f) for f in sorted(fracs))
    lhs = integral(sig, a, b) + integral(sig, b, c)
    rhs = integral(sig, a, c)
    scale = np.abs(sig.rows(sig.first_step, len(sig), cumulative=True)).max()
    assert np.abs(lhs - rhs).max() <= 4 * EPS * scale


@PROPERTY
@given(log=logs(), start=UNIT, stride=st.integers(1, 4), count=st.integers(1, 40))
def test_strided_reads_equal_the_appended_samples(log, start, stride, count):
    sig, values = log
    count = min(count, (len(sig) - 1) // stride + 1)
    first = sig.first_step + round(start * (len(sig) - 1 - stride * (count - 1)))
    steps = first + stride * np.arange(count)
    assert np.array_equal(sig.rows(first, count, stride), values[steps])
    cum = running_integral(values, sig.dt)
    assert np.array_equal(sig.rows(first, count, stride, cumulative=True), cum[steps])


@PROPERTY
@given(log=logs(), cells=st.integers(1, 10), frac=UNIT)
def test_lookups_outside_the_window_raise(log, cells, frac):
    sig, *_ = log
    last = sig.first_step + len(sig) - 1
    inside = retained(sig, frac)
    for cumulative in (False, True):
        for step in (sig.first_step - 1, sig.first_step - cells, last + cells):
            with pytest.raises(WindowUnderflowError):
                sig.rows(step, cumulative=cumulative)
        # from inside the window to a step past it
        with pytest.raises(WindowUnderflowError):
            sig.rows(inside, last - inside + 1 + cells, cumulative=cumulative)


@PROPERTY
@given(log=logs(), start=UNIT, stride=st.integers(1, 4), count=st.integers(1, 20))
def test_scalar_lookups_match_vector_lookups_bitwise(log, start, stride, count):
    sig, *_ = log
    count = min(count, (len(sig) - 1) // stride + 1)
    first = sig.first_step + round(start * (len(sig) - 1 - stride * (count - 1)))
    for cumulative in (False, True):
        rows = sig.rows(first, count, stride, cumulative=cumulative)
        for j in range(count):
            single = sig.rows(first + j * stride, cumulative=cumulative)
            assert np.array_equal(single[0], rows[j])


@PROPERTY
@given(log=logs(), cells=st.integers(1, 5), count=st.integers(2, 6), stride=st.integers(1, 3))
def test_grid_rows_outside_the_window_raise(log, cells, count, stride):
    sig, *_ = log
    last = sig.first_step + len(sig) - 1
    span = (count - 1) * stride
    assume(span < len(sig))
    # strided reads that start below the window, or end past it, by cells steps
    for first in (sig.first_step - cells, last - span + cells):
        for cumulative in (False, True):
            with pytest.raises(WindowUnderflowError):
                sig.rows(first, count, stride, cumulative=cumulative)


@PROPERTY
@given(
    dim=st.integers(1, 3),
    dt=st.sampled_from([1e-3, 0.01, 0.1, 0.37]),
    keep=st.integers(1, 120),
    t0=st.floats(-5.0, 5.0),
    sizes=st.lists(st.integers(1, 90), min_size=1, max_size=12),
    scale=st.integers(-6, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_appending_blocks_equals_appending_samples(dim, dt, keep, t0, sizes, scale, seed):
    # blocks of random sizes, one row included, appended across pruning
    # and compaction, keep the samples and the running integral bit for bit
    values = np.random.default_rng(seed).normal(size=(sum(sizes), dim)) * 10.0**scale
    one, blocks = (SampledSignal(dim, dt, dt * keep, t0=t0) for _ in range(2))
    for k, value in enumerate(values):
        one.append(t0 + k * dt, value)
    done = 0
    for size in sizes:
        blocks.extend(t0 + done * dt, values[done : done + size])
        done += size
        assert blocks.first_step + len(blocks) == done
    assert (blocks.first_step, len(blocks)) == (one.first_step, len(one))
    first = one.first_step
    for cumulative in (False, True):
        assert np.array_equal(one.rows(first, len(one), cumulative=cumulative),
                              blocks.rows(first, len(blocks), cumulative=cumulative))
    assert np.array_equal(blocks.rows(first, len(blocks)), values[first:])
    assert np.array_equal(blocks.rows(first, len(blocks), cumulative=True),
                          running_integral(values, dt)[first:])
