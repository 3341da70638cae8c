"""Property tests of SampledSignal lookups and integrals.

Signals are built by appending, with windows short enough that old samples
are pruned and the ring buffer compacts.  Integrals over adjacent intervals
add up to rounding, lookups outside the retained window raise, and the
scalar lookups used per step and the grid-row reads agree bitwise with the
vectorised ones.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from irlobs.errors import WindowUnderflowError
from irlobs.numerics import _GRID_TOL, SampledSignal

EPS = np.finfo(float).eps
PROPERTY = settings(derandomize=True, max_examples=80, deadline=None)
UNIT = st.floats(0.0, 1.0)


@st.composite
def signals(draw):
    dim = draw(st.integers(1, 3))
    dt = draw(st.sampled_from([1e-3, 0.01, 0.1, 0.37]))
    count = draw(st.integers(2, 200))
    window = dt * draw(st.integers(1, 250))
    t0 = draw(st.floats(-5.0, 5.0))
    values = draw(arrays(float, (count, dim), elements=st.floats(-100.0, 100.0)))
    sig = SampledSignal(dim, dt, window, t0=t0)
    for k, value in enumerate(values):
        sig.append(t0 + k * dt, value)
    return sig


def inside(sig, frac):
    return sig.earliest_time + frac * (sig.latest_time - sig.earliest_time)


def grid_or_inside(sig, frac, on_grid):
    if on_grid:
        return sig.earliest_time + round(frac * (len(sig) - 1)) * sig.dt
    return inside(sig, frac)


@PROPERTY
@given(sig=signals(), fracs=st.lists(UNIT, min_size=3, max_size=3))
def test_integral_is_additive(sig, fracs):
    a, b, c = (inside(sig, f) for f in sorted(fracs))
    lhs = sig.integral(a, b) + sig.integral(b, c)
    rhs = sig.integral(a, c)
    scale = np.abs(sig.cumulative_at([a, b, c])).max()
    assert np.abs(lhs - rhs).max() <= 4 * EPS * scale


@PROPERTY
@given(sig=signals(), cells=st.floats(1e-3, 10.0), frac=UNIT)
def test_lookups_outside_the_window_raise(sig, cells, frac):
    t_in = inside(sig, frac)
    for t_out in (sig.earliest_time - cells * sig.dt, sig.latest_time + cells * sig.dt):
        with pytest.raises(WindowUnderflowError):
            sig.value_at(t_out)
        with pytest.raises(WindowUnderflowError):
            sig.values_at([t_in, t_out])
        with pytest.raises(WindowUnderflowError):
            sig.cumulative_at([t_out])
        with pytest.raises(WindowUnderflowError):
            sig.integral(*sorted((t_in, t_out)))


@PROPERTY
@given(sig=signals(), lookups=st.lists(st.tuples(UNIT, st.booleans()), min_size=1, max_size=20))
def test_scalar_lookups_match_vector_lookups_bitwise(sig, lookups):
    for frac, on_grid in lookups:
        t = grid_or_inside(sig, frac, on_grid)
        assert np.array_equal(sig.value_at(t), sig.values_at([t])[0])
        assert np.array_equal(sig._cum_at(t), sig.cumulative_at([t])[0])


# offsets from the grid, in cells, that grid_rows still reads as samples
JITTER = st.floats(-0.4 * _GRID_TOL, 0.4 * _GRID_TOL)


@PROPERTY
@given(
    sig=signals(),
    start=UNIT,
    stride=st.integers(1, 4),
    count=st.integers(2, 40),
    jitter=JITTER,
    cumulative=st.booleans(),
)
def test_grid_rows_match_vector_lookups_bitwise(sig, start, stride, count, jitter, cumulative):
    count = min(count, (len(sig) - 1) // stride + 1)
    assume(count >= 2)
    first = round(start * (len(sig) - 1 - stride * (count - 1)))
    a = sig.earliest_time + (first + jitter) * sig.dt
    spacing = stride * sig.dt
    times = a + spacing * np.arange(count)
    rows = sig.grid_rows(a, a + spacing * (count - 1), count, cumulative=cumulative)
    lookup = sig.cumulative_at if cumulative else sig.values_at
    assert np.array_equal(rows, lookup(times))


@PROPERTY
@given(sig=signals(), cells=st.integers(1, 5), count=st.integers(2, 6), jitter=JITTER)
def test_grid_rows_outside_the_window_raise(sig, cells, count, jitter):
    dt = sig.dt
    for a in (
        sig.earliest_time - (cells + jitter) * dt,
        sig.latest_time + (cells + jitter - count + 1) * dt,
    ):
        times = a + dt * np.arange(count)
        with pytest.raises(WindowUnderflowError):
            sig.values_at(times)
        with pytest.raises(WindowUnderflowError):
            sig.grid_rows(a, times[-1], count)


@PROPERTY
@given(sig=signals(), offset=st.floats(0.01, 0.99), stride=st.integers(1, 3))
def test_grid_rows_leave_off_grid_times_to_interpolation(sig, offset, stride):
    on_a = sig.earliest_time
    on_b = on_a + 2 * stride * sig.dt
    off = offset * sig.dt
    assert sig.grid_rows(on_a + off, on_b, 3) is None
    assert sig.grid_rows(on_a, on_b + off, 3) is None
    # evenly spaced samples that do not split into the requested count
    assert sig.grid_rows(on_a, on_a + 3 * sig.dt, 3) is None
