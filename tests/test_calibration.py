"""The streamed calibration against the whole-array one it replaced.

prerecord_param_stack simulates the dithered calibration maneuver a block
of steps at a time (closed_loop_source, which also gives the run its
undithered closed loop) and records the parameter stack from logs of
t1 + t2 steps (ParamRecorder).  Its stack must be bitwise the one
recorded from the whole maneuver simulated at once, kept here as the
reference, also when the step count would leave a one-row block, and its
memory must not grow with the maneuver's duration.
"""

import tracemalloc

import numpy as np
import pytest

from irlobs import experiment
from irlobs.errors import NumericOverflowError
from irlobs.estimator import ParamHistoryStack, integral_regressor, integral_residual, theta_dim
from irlobs.experiment import ExperimentConfig, default_config_dict, prerecord_param_stack
from irlobs.numerics import SampledSignal
from irlobs.plant import make_demonstrator

from conftest import SlotEntries, whole_array_rows

PLANTS = {
    "default": {},
    # the 3-position plant of the benchmark's query_n3 workload
    "n3": {
        "plant": {
            "a": [
                [1.0, 0.5, 0.0, 1.0, 0.0, -0.5],
                [0.0, 1.0, 1.0, 0.5, -1.0, 0.0],
                [2.0, 0.0, -1.0, 0.0, 0.5, 1.0],
            ],
            "b": [[1.0, 0.0], [0.5, 1.0], [0.0, 2.0]],
        },
        "cost": {"w_q": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], "r_diag": [20.0, 10.0]},
        "run": {"x0": [2.0, -2.0, 1.0, -1.0, 0.5, -0.5], "query_low": [-2.0] * 6,
                "query_high": [2.0] * 6},
    },
    # a double integrator: one position, one input
    "n1": {
        "plant": {"a": [[0.0, 0.0]], "b": [[1.0]]},
        "cost": {"w_q": [1.0, 1.0], "r_diag": [1.0]},
        "run": {"x0": [2.0, -1.0], "query_low": [-2.0] * 2, "query_high": [2.0] * 2},
    },
}
BLOCK = experiment._CALIBRATION_BLOCK
DT = 2e-4  # the default excitation_dt
# the steps of t1 + t2 plus one, a whole number of blocks, one and two
# steps past one, the first of which a block per BLOCK steps would leave as
# a one-row block, and the default maneuver's
STEPS = [9001, 10 * BLOCK, 10 * BLOCK + 1, 10 * BLOCK + 2, 30000]


def calibration_config(plant, steps, stride=50, capacity=150):
    raw = default_config_dict()
    for section, fields in PLANTS[plant].items():
        raw[section].update(fields)
    raw["gains"].update(excitation_duration=steps * DT, excitation_stride=stride,
                        capacity=capacity)
    cfg = ExperimentConfig(raw)
    assert cfg.excitation_steps == steps
    return cfg


def empty_stack(cfg):
    """An empty stack for cfg, whose stored pairs stack.noted() lists."""
    stack = ParamHistoryStack(cfg.param_capacity, theta_dim(cfg.n, cfg.m), cfg.min_eig_threshold)
    stack.noted = SlotEntries(stack)
    return stack


def whole_array_calibration(demo, cfg, stack):
    """The calibration simulated in one piece into logs of the whole
    maneuver, each sample appended in turn."""
    dt, steps = cfg.excitation_dt, cfg.excitation_steps
    t1, t2 = cfg.excitation_windows
    states, inputs = whole_array_rows(demo, cfg.x0, dt, steps, cfg.excitation_amplitude)
    window = cfg.excitation_duration + dt
    p_log, u_log = SampledSignal(cfg.n, dt, window), SampledSignal(cfg.m, dt, window)
    for k, (x, u) in enumerate(zip(states, inputs)):
        p_log.append(k * dt, x[: cfg.n])
        u_log.append(k * dt, u)
    for k in range(t1 + t2, steps + 1):
        if k % cfg.excitation_stride == 0:
            stack.record(
                integral_residual(p_log, k, t1, t2),
                integral_regressor(p_log, u_log, k, t1, t2),
            )
    return stack


def stack_bytes(stack):
    """Every array of the stack's state and every stored (residual,
    regressor) pair, as bytes."""
    arrays = [stack.gram, stack.rhs_projection, stack.blocks[: stack.size]]
    arrays += [array for entry in stack.noted() for array in entry]
    return [(a.shape, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("plant", sorted(PLANTS))
@pytest.mark.parametrize("steps", STEPS)
def test_the_streamed_stack_is_the_whole_array_one_bitwise(plant, steps):
    cfg = calibration_config(plant, steps)
    demo = make_demonstrator(cfg.plant(), cfg.cost())
    streamed = prerecord_param_stack(demo, cfg, empty_stack(cfg))
    reference = whole_array_calibration(demo, cfg, empty_stack(cfg))
    assert streamed.size == reference.size > 0
    assert stack_bytes(streamed) == stack_bytes(reference)


@pytest.mark.parametrize("stride", [1, 7, BLOCK + 3])
def test_any_stride_records_the_whole_array_stack(stride):
    # records at every step, off the block edges, and fewer than one per
    # block, into a stack that stores them all, so that every row read
    # shows, the last state's of a step count that leaves one row included
    steps = 10 * BLOCK + 1
    cfg = calibration_config("default", steps, stride, capacity=steps)
    demo = make_demonstrator(cfg.plant(), cfg.cost())
    streamed = prerecord_param_stack(demo, cfg, empty_stack(cfg))
    reference = whole_array_calibration(demo, cfg, empty_stack(cfg))
    assert stack_bytes(streamed) == stack_bytes(reference)


def assert_blocks_join_up(blocks, sizes, dt, states, inputs):
    """The source's blocks have sizes rows, and their times, states and
    inputs joined up are bitwise the grid times k * dt and the whole-array
    rows."""
    assert [len(t) for t, _, _ in blocks] == sizes
    assert all(len(x) == len(u) == len(t) for t, x, u in blocks)
    times, rows, actions = (np.concatenate(part) for part in zip(*blocks))
    assert times.tolist() == [k * dt for k in range(len(states))]
    assert rows.tobytes() == states.tobytes()
    assert actions.tobytes() == inputs.tobytes()


@pytest.mark.parametrize("plant", sorted(PLANTS))
def test_the_source_blocks_join_up_to_the_whole_array_rows(plant):
    # a block per BLOCK steps would leave a one-step tail here, whose drive
    # row differs in its last bit, which the next state's rounding happens
    # to absorb on these plants: so the block sizes are asserted too.  Step
    # 0 comes alone, and the block before the tail ends a step early
    steps = 10 * BLOCK + 1
    cfg = calibration_config(plant, steps)
    demo = make_demonstrator(cfg.plant(), cfg.cost())
    blocks = list(experiment.closed_loop_source(demo, cfg.x0, DT, steps, BLOCK,
                                                cfg.excitation_amplitude))
    states, inputs = whole_array_rows(demo, cfg.x0, DT, steps, cfg.excitation_amplitude)
    assert_blocks_join_up(blocks, [1] + [BLOCK] * 9 + [BLOCK - 1, 2], DT, states, inputs)
    # the run's undithered closed loop, in blocks of at most a drained
    # batch: at the fewest steps that t1 + t2 allows, 57 whole blocks, and
    # one step past them
    batch = experiment._PIPE_BATCH
    for steps, sizes in [(1801, [batch] * 56 + [9]), (1824, [batch] * 57),
                         (1825, [batch] * 56 + [batch - 1, 2])]:
        blocks = list(experiment.closed_loop_source(demo, cfg.x0, cfg.dt, steps, batch))
        states, inputs = whole_array_rows(demo, cfg.x0, cfg.dt, steps)
        assert_blocks_join_up(blocks, [1] + sizes, cfg.dt, states, inputs)


@pytest.mark.parametrize("duration", [6.0, 30.0])
def test_the_calibration_memory_does_not_grow_with_its_duration(duration):
    raw = default_config_dict()
    raw["gains"]["excitation_duration"] = duration
    cfg = ExperimentConfig(raw)
    demo = make_demonstrator(cfg.plant(), cfg.cost())
    stack = empty_stack(cfg)
    tracemalloc.start()
    try:
        prerecord_param_stack(demo, cfg, stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stack.is_full
    assert peak < 2 * 2**20


class TestParamRecorder:
    def recorder(self, stride=3, window=0.0):
        cfg = calibration_config("n1", 9001)
        return experiment.ParamRecorder(empty_stack(cfg), 1, 1, 0.1, (4, 2), stride, window)

    def test_due_steps_are_every_stride_th_from_t1_plus_t2_on(self):
        rec = self.recorder()
        assert list(rec.due(0, 16)) == [6, 9, 12, 15]
        assert list(rec.due(7, 12)) == [9]
        assert [k for k in range(20) if rec.due(k, k + 1)] == list(rec.due(0, 20))

    @pytest.mark.parametrize("window", [0.0, 0.8, 1.1, 6.0])
    def test_appends_and_blocks_of_any_size_record_the_same_stack(self, window):
        # logs that keep 1, 2, 5 and 54 steps beyond a record's window
        rng = np.random.default_rng(5)
        p, u = rng.normal(size=(80, 1)), rng.normal(size=(80, 1))
        one, blocks = self.recorder(), self.recorder(window=window)
        for k in range(80):
            one.p_log.append(0.1 * k, p[k])
            one.u_log.append(0.1 * k, u[k])
            if one.due(k, k + 1):
                one.record(k)
        for lo, hi in [(0, 1), (1, 7), (7, 8), (8, 30), (30, 80)]:
            blocks.extend(0.1 * lo, p[lo:hi], u[lo:hi])
        assert one.stack.size == blocks.stack.size == len(one.due(0, 80))
        assert stack_bytes(one.stack) == stack_bytes(blocks.stack)

    def test_a_rejected_block_changes_nothing(self):
        rec = self.recorder()
        rec.extend(0.0, np.ones((10, 1)), np.ones((10, 1)))
        size, steps = rec.stack.size, len(rec.p_log) + rec.p_log.first_step
        bad = np.ones((10, 1))
        bad[-1] = np.nan
        with pytest.raises(NumericOverflowError):
            rec.extend(1.0, np.ones((10, 1)), bad)
        with pytest.raises(ValueError):
            rec.extend(1.0, np.ones((10, 1)), np.ones((9, 1)))
        assert (rec.stack.size, len(rec.p_log) + rec.p_log.first_step) == (size, steps)
        assert len(rec.u_log) + rec.u_log.first_step == steps

    @pytest.mark.parametrize("u_rows", [np.ones((10, 2)), np.ones(10)], ids=["wide", "flat"])
    def test_a_misshapen_input_block_changes_neither_log(self, u_rows):
        # the input block's shape is checked before the positions are
        # appended, so the next good block is on the grid for both logs
        rng = np.random.default_rng(6)
        p, u = rng.normal(size=(20, 1)), rng.normal(size=(20, 1))
        rec, whole = self.recorder(), self.recorder()
        rec.extend(0.0, p[:10], u[:10])

        def state():
            return [(log.first_step, len(log), log.rows(log.first_step, len(log)).tobytes(),
                     log.rows(log.first_step, len(log), cumulative=True).tobytes())
                    for log in (rec.p_log, rec.u_log)] + stack_bytes(rec.stack)

        before = state()
        with pytest.raises(ValueError):
            rec.extend(1.0, p[10:], u_rows)
        assert state() == before
        rec.extend(1.0, p[10:], u[10:])
        whole.extend(0.0, p, u)
        assert rec.stack.size == whole.stack.size > 0
        assert stack_bytes(rec.stack) == stack_bytes(whole.stack)
