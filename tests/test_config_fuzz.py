"""Property tests: a config with one mutated field either raises ConfigError
or builds every section from finite numbers; it never raises anything else.
And a quality horizon the config accepts is a whole number of even rollout
strides of run.dt steps, on which quality_eta2 runs from its first full
horizon.

Each example takes one field of the default config and gives it a wrong
type, a wrong shape, or a negative, zero, NaN or infinite entry.  Fields
whose default is null are first filled with a valid value, so their
entries get mutated too.  Configs are only constructed here, never run.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from irlobs.errors import ConfigError
from irlobs.estimator import theta_dim
from irlobs.experiment import ExperimentConfig, default_config_dict
from irlobs.irl import quadratic_monomials
from irlobs.numerics import SampledSignal
from irlobs.purge import quality_eta2

DEFAULTS = default_config_dict()
FILLED = {
    ("gains", "k_theta"): 0.002,
    ("cost", "q_monomials"): [[i, i] for i in range(4)],
    ("irl", "v_monomials"): [list(p) for p in quadratic_monomials(4)],
    ("purge", "s1"): np.eye(4).tolist(),
    ("purge", "s2"): np.eye(2).tolist(),
    ("run", "w0"): [0.0] * 15,
}
FIELDS = [(section, name) for section, fields in DEFAULTS.items() for name in fields]
WRONG_TYPES = ["a", "nan", None, True, {}, [], [1.0, "x"], [[1.0], [2.0, 3.0]], 10**400]


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def map_numbers(value, fn):
    if isinstance(value, list):
        return [map_numbers(v, fn) for v in value]
    return fn(value) if is_number(value) else value


def with_leaf(value, index, new):
    """value with its index-th number (depth first, modulo the count) set to new."""
    slots = []
    map_numbers(value, slots.append)
    target, position = index % max(len(slots), 1), iter(range(len(slots)))
    return map_numbers(value, lambda v: new if next(position) == target else v)


@st.composite
def mutated_fields(draw):
    section, name = draw(st.sampled_from(FIELDS))
    value = FILLED.get((section, name), DEFAULTS[section][name])
    kind = draw(st.sampled_from(["type", "shape", "negative", "zero", "nan", "inf"]))
    if kind == "type":
        return section, name, draw(st.sampled_from(WRONG_TYPES))
    if kind == "shape":
        if isinstance(value, list):
            return section, name, draw(st.sampled_from([value[:-1], value + value[-1:], [value]]))
        return section, name, [value, value]
    if not isinstance(value, (list, int, float)) or isinstance(value, bool):
        value = 1.0  # a string field gets a number
    if kind == "negative":
        scale = draw(st.sampled_from([-1.0, -0.5, -1e-300]))
        return section, name, map_numbers(value, lambda v: scale * v if v else -1.0)
    if kind == "zero":
        return section, name, map_numbers(value, lambda v: 0.0)
    new = math.nan if kind == "nan" else draw(st.sampled_from([math.inf, -math.inf]))
    return section, name, with_leaf(value, draw(st.integers(0, 63)), new)


def section_numbers(cfg):
    plant, cost, gains, quality = cfg.plant(), cfg.cost(), cfg.gains(), cfg.quality()
    yield from (plant.a, plant.b, cost.w_q, cost.r_diag, quality.s1, quality.s2)
    yield np.array([quality.horizon, gains.k_theta, gains.beta1, gains.alpha, gains.beta,
                    gains.k, gains.t1, gains.t2])


@settings(derandomize=True, max_examples=400, deadline=None)
@given(mutation=mutated_fields())
def test_one_mutated_field_gives_config_error_or_finite_sections(mutation):
    section, name, value = mutation
    raw = default_config_dict()
    raw[section][name] = value
    try:
        cfg = ExperimentConfig(raw)
    except ConfigError:
        return
    assert cfg.basis().width(cfg.m) >= 1
    for numbers in section_numbers(cfg):
        assert np.all(np.isfinite(numbers)), (section, name, value)


@st.composite
def rollout_grids(draw):
    """(run.dt, purge.rollout_stride, purge.horizon) with an even stride and
    the horizon a whole number of rollout steps, or off one by up to twice
    1e-9 * horizon or twice 1e-9 s; the second covers (1e-9 * horizon, 1e-9]
    for horizons under 1 s."""
    dt = draw(st.sampled_from([1e-4, 5e-4, 1e-3, 2e-3]))
    stride = 2 * draw(st.integers(1, 20))
    whole = draw(st.integers(1, 50)) * stride * dt
    scale = draw(st.sampled_from([1e-9 * whole, 1e-9]))
    return dt, stride, whole + scale * draw(st.floats(-2.0, 2.0))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(grid=rollout_grids())
def test_accepted_horizon_passes_the_rollout_step_check(grid):
    dt, stride, horizon = grid
    raw = default_config_dict()
    raw["run"]["dt"] = dt
    raw["purge"].update(horizon=horizon, rollout_stride=stride)
    try:
        cfg = ExperimentConfig(raw)
    except ConfigError as exc:
        assert "'purge.horizon'" in str(exc)
        return
    steps = cfg.quality().horizon
    assert steps % stride == 0 and abs(steps * dt - horizon) <= 1e-9 * min(1.0, horizon)
    n, m = cfg.n, cfg.m
    count = int(np.ceil(horizon / dt)) + 2
    p_log = SampledSignal.from_samples(dt, count * dt, 0.0, np.zeros((count, n)))
    u_log = SampledSignal.from_samples(dt, count * dt, 0.0, np.zeros((count, m)))
    theta = np.zeros(theta_dim(n, m))
    assert quality_eta2(p_log, u_log, theta, steps, cfg.quality(), np.zeros(n)) == 0.0
