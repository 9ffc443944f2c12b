import dataclasses

import numpy as np
import pytest

from udnsim import (ConfigError, DppParams, GridSpec, MfgSolution, QueueParams, SchedulerState,
                    dpp_step)
from udnsim.phy import LN2
from udnsim.scheduler import expected_rate


def brute_force_schedule(q, r, y, penalty, v):
    best, best_val = 0, -np.inf
    for i in range(len(q)):
        val = q[i] * r[i] + y[i] - v * penalty[i]
        if val > best_val:  # strict: first (lowest) index wins ties
            best, best_val = i, val
    return best


def _one_hot_reference(virtual, q_vec, rate_vec, power_vec, phy, v_coeff, model="linear_ee"):
    """The one-hot formulation dpp_step replaced, kept as its reference:
    auxiliary and schedule as one-hot vectors along the last axis, the
    penalty from a gradient model ("zero" drops it), Y + aux - lam.
    Returns (pick, new virtual)."""
    def one_hot(index, n):
        return (np.arange(n) == np.expand_dims(index, -1)).astype(float)

    virtual = np.asarray(virtual, dtype=float)
    rate = np.asarray(rate_vec, dtype=float)
    if model == "linear_ee":
        penalty = rate / (np.asarray(power_vec, dtype=float) + phy.circuit_power_w)
    else:
        penalty = np.zeros_like(rate)
    aux = one_hot(np.argmin(virtual, axis=-1), virtual.shape[-1])
    objective = np.asarray(q_vec, dtype=float) * rate + virtual - v_coeff * penalty
    lam = one_hot(np.argmax(objective, axis=-1), objective.shape[-1])
    pick = np.argmax(lam, axis=-1)
    return (int(pick) if pick.ndim == 0 else pick), virtual + aux - lam


@pytest.mark.parametrize("shape", [(5,), (3, 4, 5)], ids=["k", "R-B-k"])
@pytest.mark.parametrize("v_coeff", [0.0, -2.0, -50.0])
def test_dpp_step_matches_one_hot_reference(phy, rng, shape, v_coeff):
    """Bit for bit on quantized draws that force ties in both the objective
    and the virtual queues, for one SBS and for an (R, B, k) batch."""
    params = DppParams(v_coeff=v_coeff)
    state = SchedulerState.fresh(shape)
    ref_y = np.zeros(shape)
    zero_y = np.zeros(shape)
    for _ in range(60):
        q = rng.integers(0, 3, shape) * 1000
        r = rng.integers(0, 3, shape) * 0.5
        p = rng.choice([0.25, 0.5], shape)
        pick = dpp_step(state, q, r, p, phy, params)
        ref_pick, ref_y = _one_hot_reference(ref_y, q, r, p, phy, v_coeff)
        assert np.array_equal(pick, ref_pick)
        assert type(pick) is type(ref_pick)
        assert np.array_equal(state.virtual, ref_y)
        if v_coeff == 0.0:
            # the removed "zero" gradient model is V = 0 exactly
            zero_pick, zero_y = _one_hot_reference(zero_y, q, r, p, phy, -2.0, model="zero")
            assert np.array_equal(zero_pick, pick)
            assert np.array_equal(zero_y, state.virtual)


def test_schedule_matches_enumeration(phy, rng):
    params = DppParams(v_coeff=-2.5)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        q = rng.uniform(0, 1, n)
        r = rng.uniform(0, 3, n)
        y = rng.normal(0, 2, n)
        p = rng.uniform(0, 1, n)
        penalty = r / (p + phy.circuit_power_w)
        pick = dpp_step(SchedulerState(virtual=y), q, r, p, phy, params)
        assert pick == brute_force_schedule(q, r, y, penalty, params.v_coeff)


def test_schedule_tie_breaks_low_index(phy):
    params = DppParams(v_coeff=-1.0)
    q = np.array([0.3, 0.3, 0.1])
    r = np.array([1.0, 1.0, 1.0])
    p = np.array([0.5, 0.5, 0.5])
    assert dpp_step(SchedulerState.fresh(3), q, r, p, phy, params) == 0


def test_auxiliary_is_argmin(phy):
    """The auxiliary UE (argmin of Y, lowest index on ties) gains one credit
    while the backlog schedules UE 2, which pays one debit."""
    q, ones = np.array([0.0, 0.0, 100.0]), np.ones(3)
    state = SchedulerState(virtual=np.array([0.5, -1.0, 2.0]))
    assert dpp_step(state, q, ones, ones, phy, DppParams()) == 2
    assert state.virtual.tolist() == [0.5, 0.0, 1.0]
    state = SchedulerState.fresh(3)
    assert dpp_step(state, q, ones, ones, phy, DppParams()) == 2
    assert state.virtual.tolist() == [1.0, 0.0, -1.0]  # tie -> lowest


def test_virtual_queue_unclamped(phy):
    """UE 0 is scheduled while UE 1 is the auxiliary: Y goes negative by design."""
    state = SchedulerState(virtual=np.array([0.0, -0.5]))
    pick = dpp_step(state, np.array([1.0, 0.0]), np.array([1.0, 1.0]),
                    np.array([0.5, 0.5]), phy, DppParams())
    assert pick == 0
    assert state.virtual.tolist() == [-1.0, 0.5]


def test_dpp_params_validation():
    with pytest.raises(ConfigError):
        DppParams(v_coeff=0.5)


def test_two_ue_alternation(phy):
    """Fixed rates, evolving backlog: serving a UE empties it, the other
    fills up, and the schedule settles into a strict alternation."""
    params = DppParams(v_coeff=-1.0)
    state = SchedulerState.fresh(2)
    rates = np.array([2.0, 1.0])
    powers = np.array([0.5, 0.5])
    q = np.array([0.5, 0.5])
    picks = []
    for _ in range(6):
        i = dpp_step(state, q, rates, powers, phy, params)
        picks.append(i)
        q[i] = 0.0
        q[1 - i] = min(q[1 - i] + 0.9, 1.0)
    assert picks == [0, 1, 0, 1, 0, 1]


def test_dpp_step_bookkeeping(phy):
    params = DppParams(v_coeff=-1.0)
    state = SchedulerState.fresh(3)
    rng = np.random.default_rng(5)
    for _ in range(40):
        dpp_step(state, rng.uniform(0, 1, 3), rng.uniform(0, 3, 3),
                 rng.uniform(0, 1, 3), phy, params)
    # each period moves Y by one +1 credit and one -1 debit
    assert state.virtual.sum() == pytest.approx(0.0, abs=1e-9)


def test_virtual_queues_stay_bounded(phy, rng):
    params = DppParams(v_coeff=-1.0)
    state = SchedulerState.fresh(4)
    worst = 0.0
    for _ in range(400):
        dpp_step(state, rng.uniform(0, 1, 4), rng.uniform(0, 3, 4),
                 rng.uniform(0, 1, 4), phy, params)
        worst = max(worst, float(np.abs(state.virtual).max()))
    assert worst <= 10.0


def test_expected_rate_formula(phy):
    grid = GridSpec(3, 3)
    sol = MfgSolution(
        grid=grid,
        value=np.zeros((3, 3)),
        density=np.ones((3, 3)),
        policy=np.full((3, 3), 0.5),
        interference=np.array([0.2, 0.9, 0.5]),
        iterations=1, residuals=[0.0], phy=dataclasses.replace(phy, sbs_density=0.25),
        queue=QueueParams(), noise_norm=0.05, mean_sq_gain=1.0, boundary="exponential",
    )
    # the period start reads the first interference slice
    p, r = expected_rate(sol, 0.7, 2.0, phy)
    assert p == 0.5
    sinr = 0.5 * 2.0 / 0.25
    assert r == pytest.approx(phy.bandwidth_hz * np.log1p(sinr) / LN2, rel=1e-12)


@pytest.mark.parametrize("v_coeff", [-2.0, 0.0])
def test_batched_dpp_step_matches_rows(phy, rng, v_coeff):
    """One (B, k) state stepped once per period equals B independent 1-D
    states: same picks, and bit-identical virtual queues."""
    params = DppParams(v_coeff=v_coeff)
    n_sbs, k = 7, 4
    batch = SchedulerState.fresh((n_sbs, k))
    rows = [SchedulerState.fresh(k) for _ in range(n_sbs)]
    for _ in range(50):
        # quantized draws make exact ties, which must break the same way
        q = rng.integers(0, 3, (n_sbs, k)) / 2.0
        r = rng.uniform(0, 3, (n_sbs, k))
        p = rng.choice([0.25, 0.5], (n_sbs, k))
        picks = dpp_step(batch, q, r, p, phy, params)
        assert picks.tolist() == [dpp_step(rows[b], q[b], r[b], p[b], phy, params)
                                  for b in range(n_sbs)]
    assert np.array_equal(batch.virtual, np.stack([s.virtual for s in rows]))
