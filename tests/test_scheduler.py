import numpy as np
import pytest

from udnsim import ConfigError, DppParams, GridSpec, MfgSolution, SchedulerState, dpp_step
from udnsim.phy import LN2
from udnsim.scheduler import (expected_rate, penalty_gradient, schedule,
                              solve_auxiliary, update_virtual_queue)


def brute_force_schedule(q, r, y, penalty, v):
    best, best_val = 0, -np.inf
    for i in range(len(q)):
        val = q[i] * r[i] + y[i] - v * penalty[i]
        if val > best_val:  # strict: first (lowest) index wins ties
            best, best_val = i, val
    return best


def test_schedule_matches_enumeration(phy, rng):
    params = DppParams(v_coeff=-2.5)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        q = rng.uniform(0, 1, n)
        r = rng.uniform(0, 3, n)
        y = rng.normal(0, 2, n)
        p = rng.uniform(0, 1, n)
        penalty = penalty_gradient(r, p, phy)
        lam = schedule(q, r, y, penalty, params)
        assert lam.sum() == 1.0
        assert int(np.argmax(lam)) == brute_force_schedule(q, r, y, penalty, params.v_coeff)


def test_schedule_tie_breaks_low_index(phy):
    params = DppParams(v_coeff=-1.0)
    q = np.array([0.3, 0.3, 0.1])
    r = np.array([1.0, 1.0, 1.0])
    y = np.zeros(3)
    penalty = np.array([0.5, 0.5, 0.5])
    lam = schedule(q, r, y, penalty, params)
    assert lam.tolist() == [1.0, 0.0, 0.0]


def test_auxiliary_is_argmin():
    assert solve_auxiliary(np.array([0.5, -1.0, 2.0])).tolist() == [0.0, 1.0, 0.0]
    assert solve_auxiliary(np.zeros(3)).tolist() == [1.0, 0.0, 0.0]  # tie -> lowest


def test_virtual_queue_unclamped():
    y = update_virtual_queue(np.array([0.0, 0.0]), np.array([0.0, 0.0]),
                             np.array([1.0, 0.0]))
    assert y.tolist() == [-1.0, 0.0]  # may go negative by design


def test_penalty_gradient_models(phy):
    r = np.array([2.0, 1.0])
    p = np.array([0.5, 0.5])
    assert penalty_gradient(r, p, phy) == pytest.approx([2 / 1.5, 1 / 1.5])
    assert penalty_gradient(r, p, phy, model="zero").tolist() == [0.0, 0.0]
    with pytest.raises(ConfigError):
        penalty_gradient(r, p, phy, model="other")


def test_dpp_params_validation():
    with pytest.raises(ConfigError):
        DppParams(v_coeff=0.5)
    with pytest.raises(ConfigError):
        DppParams(gradient_model="bogus")


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
    counts = np.zeros(3)
    rng = np.random.default_rng(5)
    for _ in range(40):
        i = dpp_step(state, rng.uniform(0, 1, 3), rng.uniform(0, 3, 3),
                     rng.uniform(0, 1, 3), phy, params)
        counts[i] += 1
    assert state.periods == 40
    assert state.lam_avg * 40 == pytest.approx(counts, abs=1e-9)
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
        interference=np.full(3, 0.2),
        iterations=1, residuals=[0.0], eta=0.25, noise_norm=0.05,
    )
    r = expected_rate(sol, 0.4, 0.7, 2.0, phy)
    sinr = 0.5 * 2.0 / 0.25
    assert r == pytest.approx(phy.bandwidth_hz * np.log1p(sinr) / LN2, rel=1e-12)


@pytest.mark.parametrize("model", ["linear_ee", "zero"])
def test_batched_dpp_step_matches_rows(phy, rng, model):
    """One (B, k) state stepped once per period equals B independent 1-D
    states: same picks, and bit-identical virtual queues and running means."""
    params = DppParams(v_coeff=-2.0, gradient_model=model)
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
    assert batch.periods == 50
    assert np.array_equal(batch.virtual, np.stack([s.virtual for s in rows]))
    assert np.array_equal(batch.lam_avg, np.stack([s.lam_avg for s in rows]))
