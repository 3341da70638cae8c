"""Property tests of OnlineIrl.measure on blocks of measurements.

measure takes a block of consecutive rows: it extends the logs, records
the parameter stack at the due steps, steps the adaptation law and the
observer over the block with stacked products, and queues every row.
However a run's rows are split into blocks of 1 to 32, the logs, both
history stacks, the adaptation and observer states, what measure returns
and every drained step must be bitwise those of measuring one row at a
time, and a row that is not finite or off the time grid must raise at its
own time, with the rows before it measured and queued.  The observer's
step is also checked against the per-step array arithmetic it replaced.

The rows are smooth multisines rather than a closed loop, so that the
parameter stack, empty at the start, fills within the run and certifies
full rank partway through it: the splits span the frozen rows before that
step, the step itself, the record steps and the first η-scored step.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irlobs.errors import NumericOverflowError, SampleTimeError
from irlobs.estimator import AdaptiveObserver, EstimatorGains, ParamHistoryStack, theta_blocks
from irlobs.experiment import _PIPE_BATCH, ExperimentConfig, OnlineIrl, default_config_dict
from irlobs.irl import Entry
from irlobs.purge import quality_eta1, quality_eta2, smooth_velocity

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None)
STEPS = 200


def config(mode):
    """Windows short enough that records start at step 36 and η is scored
    from step 45; with 8 slots and this threshold the stack certifies full
    rank between steps 100 and 160 on the rows of run_rows."""
    raw = default_config_dict()
    raw["gains"].update(t1=0.02, t2=0.016, capacity=8, min_eig_threshold=1e-12)
    raw["purge"].update(horizon=0.04)
    raw["run"].update(duration=STEPS * 1e-3, mode=mode)
    return ExperimentConfig(raw)


CONFIGS = {mode: config(mode) for mode in ("observed", "query")}


def run_rows(mode, seed):
    """(t, p, u, x_star, u_star) of steps 0 to STEPS: positions and inputs
    summing three sines each, of random frequencies and phases, and the
    step's oracle pairs as a (pairs, 4) and a (pairs, 2) array, one random
    pair per step in query mode and none in observed mode."""
    rng = np.random.default_rng(seed)
    t = 1e-3 * np.arange(STEPS + 1)
    freq, phase = rng.uniform(5.0, 60.0, (4, 3)), rng.uniform(0.0, 2 * math.pi, (4, 3))
    signal = np.sin(freq * t[:, None, None] + phase).sum(axis=2)
    x_star, u_star = np.empty((STEPS + 1, 0, 4)), np.empty((STEPS + 1, 0, 2))
    if mode == "query":
        draws = [(rng.uniform(-2, 2, 4), rng.uniform(-1, 1, 2)) for _ in t]
        x_star, u_star = (np.array(part)[:, None] for part in zip(*draws))
    return list(zip(t.tolist(), signal[:, :2], signal[:, 2:], x_star, u_star))


def fresh(mode, rows):
    cfg = CONFIGS[mode]
    stack = ParamHistoryStack(cfg.param_capacity, 12, cfg.min_eig_threshold)
    _, p0, u0, *_ = rows[0]
    return OnlineIrl(cfg, stack, p0, u0)


def measure(online, rows):
    times, *blocks = zip(*rows)
    return online.measure(list(times), *map(np.array, blocks))


def log_state(log):
    first, count = log.first_step, len(log)
    return (first, count, log.rows(first, count).tobytes(),
            log.rows(first, count, cumulative=True).tobytes())


OBSERVER = ("info", "z", "theta", "theta_rate", "p_hat", "q_hat", "eta", "p_tilde", "nu",
            "_acc_q", "_acc_eta", "_g_prev", "_eta_integrand_prev")


def estimator_state(online):
    """Everything measure changes but the queue, as bytes."""
    params, obs = online.param_stack, online.observer
    return (
        online.steps, *(log_state(log) for log in (online.p_log, online.u_log, online.qhat_log)),
        params.size, params.blocks[: params.size].tobytes(), params.gram.tobytes(),
        params.rhs_projection.tobytes(), params.is_full_rank,
        *(getattr(obs, name).tobytes() for name in OBSERVER),
    )


def state(online):
    """Everything measure and offer change but the queue, as bytes."""
    irl = online.irl_stack
    return (*estimator_state(online), irl.size, irl.sigma_matrix.tobytes(), irl.gram.tobytes())


def primitive_step(online, row):
    """One row measured with the single-step methods, as measure did per
    step before it took blocks (the queue left out): returns x_hat, theta
    and P after it, and the row's η scored on its own from the logs as
    they are then (inf before eta_floor_step)."""
    t, p, u, *_ = row
    online.p_log.append(t, p)
    online.u_log.append(t, u)
    online.steps += 1
    if online.recorder.due(online.steps, online.steps + 1):
        online.recorder.record(online.steps)
    obs = online.observer
    obs.update_parameters(online.param_stack, online.dt)
    obs.step(p, u, online.dt)
    online.qhat_log.append(t, obs.q_hat)
    k, quality, eta = online.steps, online.quality, math.inf
    if k >= online.eta_floor_step:
        v = smooth_velocity(online.p_log, k - quality.horizon, quality.half_width)
        lagged = online.qhat_log.rows(k - quality.horizon)[0]
        eta = quality_eta1(obs.p_tilde, lagged, v, quality.s1) + quality_eta2(
            online.p_log, online.u_log, obs.theta, k, quality, v)
    return obs.x_hat, obs.theta, obs.info, eta


def drained_bytes(*drains):
    """The times, and the bytes of the scores, rows and right-hand sides,
    of drains taken one after another."""
    times, eta, rows, rhs = (sum((list(part) for part in parts), []) for parts in zip(*drains))
    return times, *(np.array(part, dtype=float).tobytes() for part in (eta, rows, rhs))


def offer(online, drained):
    for entries in Entry.block(*drained):
        online.offer(entries)


def single_rows(mode, rows):
    """The reference: per row after step 0, x_hat, theta and P of the
    single-step methods, bitwise what measure returns for a block of one,
    what drain returns after it, and the state after offering that, one
    row at a time."""
    online, primitive, out = fresh(mode, rows), fresh(mode, rows), []
    for row in rows[1:]:
        measured = measure(online, [row])
        *want, eta = primitive_step(primitive, row)
        assert [x.tobytes() for x in measured] == [x[None].tobytes() for x in want]
        assert estimator_state(online) == estimator_state(primitive)
        drained = online.drain()
        assert np.array(drained[1]).tobytes() == np.array([eta]).tobytes()
        offer(online, drained)
        out.append((measured, drained, state(online), online.param_stack.is_full_rank))
    return online, out


@PROPERTY
@given(mode=st.sampled_from(["observed", "query"]), seed=st.integers(0, 2**32 - 1),
       sizes=st.lists(st.integers(1, _PIPE_BATCH), min_size=1, max_size=12))
def test_blocks_of_rows_equal_single_rows_bitwise(mode, seed, sizes):
    rows = run_rows(mode, seed)
    single, reference = single_rows(mode, rows)
    # the run spans frozen and full-rank rows, records and η-scored steps
    full_rank = [full for *_, full in reference]
    assert not full_rank[0] and full_rank[-1]
    assert math.isinf(reference[0][1][1][0]) and math.isfinite(reference[-1][1][1][0])
    blocked, k = fresh(mode, rows), 1
    while k <= STEPS:
        size = min(sizes[k % len(sizes)], STEPS + 1 - k)
        measured = measure(blocked, rows[k : k + size])
        expected = reference[k - 1 : k - 1 + size]
        for got, want in zip(measured, zip(*(row[0] for row in expected))):
            assert got.tobytes() == np.concatenate(want).tobytes()
        drained = blocked.drain()
        assert drained[0] == [t for t, *_ in rows[k : k + size]]
        assert drained_bytes(drained) == drained_bytes(*(row[1] for row in expected))
        offer(blocked, drained)
        assert state(blocked) == expected[-1][2]
        k += size
    assert blocked.trace == single.trace


@PROPERTY
@given(mode=st.sampled_from(["observed", "query"]), seed=st.integers(0, 2**32 - 1),
       start=st.integers(1, STEPS - _PIPE_BATCH), size=st.integers(1, _PIPE_BATCH),
       data=st.data())
def test_a_refused_row_raises_at_its_own_time_after_the_rows_before_it(
    mode, seed, start, size, data
):
    rows = run_rows(mode, seed)
    j = data.draw(st.integers(0, size - 1), label="refused row")
    kind = data.draw(st.sampled_from(
        ["p", "u", "off-grid"] + (["pair"] if mode == "query" else [])), label="kind")
    bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]), label="value")
    t, p, u, x_star, u_star = rows[start + j]
    if kind == "off-grid":  # a time repeated, skipped or half a step off
        t += data.draw(st.sampled_from([-1e-3, 1e-3, 5e-4]), label="shift")
        error, message = SampleTimeError, "sample at t={} is off-grid"
    elif kind == "pair":
        x_star = np.where(np.arange(4) == data.draw(st.integers(0, 3)), bad, x_star)
        error, message = NumericOverflowError, "non-finite oracle pair at t={}$"
    else:
        p, u = (np.array([bad, 0.5]), u) if kind == "p" else (p, np.array([0.5, bad]))
        error, message = NumericOverflowError, "non-finite sample at t={}$"
    block = rows[start : start + size]
    block[j] = (t, p, u, x_star, u_star)

    single, blocked = fresh(mode, rows), fresh(mode, rows)
    for online in (single, blocked):
        for k in range(1, start, _PIPE_BATCH):
            measure(online, rows[k : min(k + _PIPE_BATCH, start)])
            offer(online, online.drain())
    with pytest.raises(error, match="^" + message.format(re.escape(str(t)))):
        measure(blocked, block)
    for row in block[:j]:
        measure(single, [row])
    assert state(blocked) == state(single)
    drained = blocked.drain()
    assert drained[0] == [row[0] for row in block[:j]]
    assert drained_bytes(drained) == drained_bytes(single.drain())
    # the good rows from the refused one on are measured alike
    good = rows[start + j : start + size]
    measure(blocked, good)
    for row in good:
        measure(single, [row])
    assert state(blocked) == state(single)
    assert drained_bytes(blocked.drain()) == drained_bytes(single.drain())


def reference_step(obs, p_meas, u, dt):
    """The observer step as one call's array arithmetic, on a copy of the
    state of obs: returns (p_hat, q_hat, p_tilde, eta, nu, acc_q, g_prev,
    acc_eta, eta_integrand_prev) after it."""
    a1, a2, b = theta_blocks(obs.theta, obs.n, obs.m)
    a2_rate = theta_blocks(obs.theta_rate, obs.n, obs.m)[1]
    drive = b @ u + (a1 - a2_rate) @ p_meas
    g1, g2, g3, g4 = obs._g1, obs._g2, obs._g3, obs._g4
    half = 0.5 * dt
    d1 = 1.0 + half * g1
    btil = g3 + half * g2
    c3 = p_meas - obs.p_hat - half * obs.q_hat
    c2 = obs._acc_eta - half * obs._eta_integrand_prev
    c1 = obs._acc_q + half * obs._g_prev + half * drive + obs._q0 + a2 @ p_meas - obs._boundary0
    c = half * (1.0 + g4 * btil / d1)
    c1p = c1 - half * (g4 / d1) * c2
    q_hat = (c1p + c * c3) / (1.0 + c * half)
    p_tilde = c3 - half * q_hat
    eta = (c2 - btil * p_tilde) / d1
    nu = p_tilde - g4 * eta
    g_new = drive + nu
    acc_q = obs._acc_q + half * (obs._g_prev + g_new)
    eta_integrand = g1 * eta + g2 * p_tilde
    acc_eta = obs._acc_eta - half * (obs._eta_integrand_prev + eta_integrand)
    return p_meas - p_tilde, q_hat, p_tilde, eta, nu, acc_q, g_new, acc_eta, eta_integrand


@PROPERTY
@given(n=st.integers(1, 3), m=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
       dt=st.sampled_from([1e-4, 1e-3, 1e-2]), scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_observer_steps_are_the_per_step_array_arithmetic_bitwise(n, m, seed, dt, scale):
    # random gains, parameter estimates and rates, and measurements
    # spanning six decades, stepped as a block and one row at a time
    rng = np.random.default_rng(seed)
    gains = EstimatorGains(*rng.uniform(0.5, 200.0, 7))
    dim, steps = 2 * n * n + m * n, 40
    p, u = scale * rng.normal(size=(steps, n)), scale * rng.normal(size=(steps, m))
    theta, rate = rng.normal(size=(steps, dim)), rng.normal(size=(steps, dim))
    q_hat0 = rng.normal(size=n)
    single, blocked = (AdaptiveObserver(n, m, p0=p[0], u0=u[0], gains=gains, theta0=theta[0],
                                        q_hat0=q_hat0) for _ in range(2))
    want = []
    for k in range(1, steps):
        single.theta, single.theta_rate = theta[k], rate[k]
        expected = reference_step(single, p[k], u[k], dt)
        single.step(p[k], u[k], dt)
        got = (single.p_hat, single.q_hat, single.p_tilde, single.eta, single.nu,
               single._acc_q, single._g_prev, single._acc_eta, single._eta_integrand_prev)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in expected]
        want.append(expected[:3])
    p_hat, q_hat, p_tilde, error = blocked.step_block(p[1:], u[1:], theta[1:], rate[1:], dt)
    assert error is None
    for part, rows in zip((p_hat, q_hat, p_tilde), zip(*want)):
        assert part.tobytes() == np.stack(rows).tobytes()
    for name in ("p_hat", "q_hat", "eta", "nu", "_acc_q", "_acc_eta", "_g_prev"):
        assert getattr(blocked, name).tobytes() == getattr(single, name).tobytes()
