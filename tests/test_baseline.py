import numpy as np
import pytest

from udnsim import ConfigError, PhyParams, myopic_power, pf_schedule, update_interference_estimate
from udnsim.baseline import (BaselineState, drain_power, qos_floor_power,
                             update_rate_averages)
from udnsim.phy import LN2
from udnsim.power_opt import _phi


def grid_scan_ee(beta, p_lo, p_max, p0, n=200001):
    ps = np.linspace(p_lo, p_max, n)
    vals = _phi(ps, beta, 0.0, p0)
    return float(ps[np.argmax(vals)])


def test_myopic_matches_grid_scan(phy, rng):
    for _ in range(100):
        gain = 10.0 ** rng.uniform(-2, 1)
        interference = 10.0 ** rng.uniform(-3, 0)
        noise = 1e-3
        qos = float(rng.choice([0.0, 1e6, 5e6]))
        p, infeasible = myopic_power(gain, interference, noise, phy, qos)
        beta = gain / (interference + noise)
        p_lo = float(np.expm1(qos * LN2 / phy.bandwidth_hz) / beta)
        if p_lo > phy.max_power_w:
            assert infeasible and p == phy.max_power_w
            continue
        assert not infeasible
        ref = grid_scan_ee(beta, p_lo, phy.max_power_w, phy.circuit_power_w)
        assert abs(p - ref) <= 1e-4 * phy.max_power_w


def test_myopic_respects_qos_floor(phy):
    gain, interference, noise = 1.0, 0.1, 1e-3
    beta = gain / (interference + noise)
    # a floor between the rate at the EE optimum (~3.02 Mb/s) and the rate
    # at max power (~3.45 Mb/s): above the unconstrained optimum, yet feasible
    qos = 3.2e6
    p, infeasible = myopic_power(gain, interference, noise, phy, qos)
    assert not infeasible
    p_free, _ = myopic_power(gain, interference, noise, phy, qos_min_rate_bps=0.0)
    assert p > p_free  # the floor binds
    rate = phy.bandwidth_hz * np.log1p(beta * p) / LN2
    assert rate >= qos * (1 - 1e-9)


def test_myopic_infeasible_cases(phy):
    # dead link with a rate requirement: flag and push max power
    assert myopic_power(0.0, 0.0, 1e-3, phy, qos_min_rate_bps=1e5) == (phy.max_power_w, True)
    # dead link without a requirement: stay silent
    assert myopic_power(0.0, 0.0, 1e-3, phy, qos_min_rate_bps=0.0) == (0.0, False)
    # requirement beyond max power
    p, infeasible = myopic_power(1e-6, 1.0, 1e-3, phy, qos_min_rate_bps=50e6)
    assert infeasible and p == phy.max_power_w


def test_myopic_validation(phy):
    with pytest.raises(ConfigError):
        myopic_power(1.0, -0.1, 1e-3, phy)
    with pytest.raises(ConfigError):
        myopic_power(1.0, 0.1, 0.0, phy)


@pytest.mark.parametrize("qos", [0.0, 1e6, 50e6])
def test_myopic_array_matches_scalar_calls(phy, rng, qos):
    gain = 10.0 ** rng.uniform(-3, 1, 40)
    gain[::7] = 0.0  # dead links: silent without a floor, infeasible with one
    interference = 10.0 ** rng.uniform(-3, 0, 40)
    p, infeasible = myopic_power(gain, interference, 1e-3, phy, qos)
    ref = [myopic_power(g, i, 1e-3, phy, qos) for g, i in zip(gain, interference)]
    assert p.tolist() == [r[0] for r in ref]
    assert infeasible.tolist() == [r[1] for r in ref]
    assert infeasible.any() == (qos > 0)


def test_drain_power_cases(phy):
    """Lane 0: the cell's backlog overloads the window, so the EE argmax
    stays.  Lane 1: a small own backlog drains at the cheapest power that
    clears it by the end of the turn.  Lane 2: the same backlog under a QoS
    floor above that power transmits at the floor."""
    beta = np.full(3, 10.0)
    p_ee, _ = myopic_power(beta, 0.0, 1.0, phy)
    own = np.array([1000.0, 1000.0, 1000.0])
    cell = np.array([1e7, 1000.0, 1000.0])
    horizon, window = 0.5, 0.4
    free = drain_power(p_ee, beta, own, cell, horizon, window, phy)
    assert free[0] == p_ee[0]
    assert 0.0 < free[1] < p_ee[1]
    cleared = phy.bandwidth_hz * np.log1p(beta[1] * free[1]) / LN2 * horizon
    assert cleared == pytest.approx(own[1], rel=1e-12)
    qos = 1e5
    p_qos, _ = myopic_power(beta, 0.0, 1.0, phy, qos)
    floor_w, _ = qos_floor_power(beta, qos, phy)
    floored = drain_power(p_qos, beta, own, cell, horizon, window, phy, floor_w)
    assert floored[2] > free[2]
    assert phy.bandwidth_hz * np.log1p(beta[2] * floored[2]) / LN2 == pytest.approx(qos, rel=1e-12)


def test_pf_schedule_ratio_and_ties():
    assert pf_schedule([1.0, 2.0], [1.0, 1.0]) == 1
    assert pf_schedule([2.0, 1.0], [2.0, 1.0]) == 0  # equal ratios -> lowest
    # unserved UE (tiny average) wins on the floored ratio
    assert pf_schedule([0.5, 3.0], [0.0, 3.0]) == 0


def test_pf_schedule_batched_matches_rows(rng):
    rate = rng.integers(1, 4, (9, 3)).astype(float)
    avg = rng.choice([0.0, 1.0, 2.0], (9, 3))  # zeros hit the floor; ties occur
    assert pf_schedule(rate, avg).tolist() == [pf_schedule(r, a) for r, a in zip(rate, avg)]


@pytest.mark.parametrize("mode", ["arithmetic", "exponential"])
def test_interference_estimate_arrays_match_scalars(rng, mode):
    meas = rng.uniform(0, 1, (5, 3))
    est, n = np.zeros(3), 0
    ref = [(0.0, 0)] * 3
    for m in meas:
        est, n = update_interference_estimate(est, n, m, mode=mode)
        ref = [update_interference_estimate(e, c, x, mode=mode) for (e, c), x in zip(ref, m)]
    assert n == 5
    assert est.tolist() == [e for e, _ in ref]


def test_interference_estimate_arithmetic():
    est, n = 0.0, 0
    seq = [2.0, 4.0, 6.0]
    for m in seq:
        est, n = update_interference_estimate(est, n, m, mode="arithmetic")
    assert n == 3
    assert est == pytest.approx(np.mean(seq), rel=1e-12)


def test_interference_estimate_exponential():
    est, n = update_interference_estimate(0.0, 0, 2.0, mode="exponential")
    assert (est, n) == (2.0, 1)  # first measurement adopted outright
    est, n = update_interference_estimate(est, n, 4.0, mode="exponential", alpha=0.05)
    assert est == pytest.approx(0.95 * 2.0 + 0.05 * 4.0, rel=1e-12)
    with pytest.raises(ConfigError):
        update_interference_estimate(0.0, 0, 1.0, mode="median")


def test_rate_average_running_mean():
    state = BaselineState.fresh(2)
    update_rate_averages(state, [10.0, 0.0])
    update_rate_averages(state, [0.0, 6.0])
    assert state.rate_slots == 2
    assert state.rate_avg == pytest.approx([5.0, 3.0])
