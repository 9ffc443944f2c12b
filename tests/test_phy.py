import math

import numpy as np
import pytest

from udnsim import ConfigError, PathlossModel, PhyParams, QueueParams
from udnsim.phy import (dbm_to_watts, instantaneous_rate, pathloss_gain, queue_step, sample_arrivals)


def test_dbm_conversion():
    assert dbm_to_watts(-70.0) == pytest.approx(1e-10, rel=1e-12)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)


def test_noise_property(phy):
    assert phy.noise_w == pytest.approx(1e-10, rel=1e-12)


def test_phy_validation():
    with pytest.raises(ConfigError):
        PhyParams(bandwidth_hz=0.0)
    with pytest.raises(ConfigError):
        PhyParams(max_power_w=-1.0)
    with pytest.raises(ConfigError):
        PhyParams(circuit_power_w=0.0)
    with pytest.raises(ConfigError):
        PhyParams(sbs_density=-0.1)


def test_queue_params_validation():
    with pytest.raises(ConfigError):
        QueueParams(arrival_rate_bps=-1.0)
    with pytest.raises(ConfigError):
        QueueParams(capacity_bits=0.0)
    with pytest.raises(ConfigError):
        QueueParams(slot_duration_s=0.0)


def test_rate_known_value(phy):
    # SINR = 1 * 1 / (0 + 1e-10) scaled: pick gain = noise so SINR = power
    r = instantaneous_rate(3.0, phy.noise_w, 0.0, phy, phy.noise_w)
    assert r == pytest.approx(phy.bandwidth_hz * 2.0, rel=1e-12)  # log2(4) = 2
    assert instantaneous_rate(0.0, 1.0, 0.0, phy, phy.noise_w) == 0.0


def test_rate_monotone_in_interference(phy):
    r1 = instantaneous_rate(1.0, 1.0, 0.1, phy, phy.noise_w)
    r2 = instantaneous_rate(1.0, 1.0, 0.2, phy, phy.noise_w)
    assert r2 < r1


def test_queue_step_balance(queue):
    cap = int(queue.capacity_bits)
    q = np.array([0, 100, cap, 1000], dtype=np.int64)
    arrivals = np.array([50, 10, 100, 10], dtype=np.int64)
    offered = np.array([80, 200, 0, 300], dtype=np.int64)
    q_next, served, dropped = queue_step(q, arrivals, offered, queue)
    # service is what the buffer holds of the offer, drops only past the wall
    assert served.tolist() == [50, 110, 0, 300]
    assert q_next.tolist() == [0, 0, cap, 710]
    assert dropped.tolist() == [0, 0, 100, 0]
    assert (q + arrivals).tolist() == (q_next + served + dropped).tolist()
    assert q_next.dtype.kind == "i" and served.dtype.kind == "i"


def test_queue_step_scalar(queue):
    q_next, served, dropped = queue_step(10.0, 5.0, 3.0, queue)
    assert q_next == 12.0 and served == 3.0 and dropped == 0.0
    # an offer beyond the buffer serves the buffer
    q_next, served, dropped = queue_step(10.0, 5.0, 30.0, queue)
    assert q_next == 0.0 and served == 15.0 and dropped == 0.0


def test_sample_arrivals_mean(queue, rng):
    draws = sample_arrivals(rng, queue, 20000)
    lam = queue.arrival_rate_bps * queue.slot_duration_s
    assert draws.dtype.kind == "i"
    assert abs(draws.mean() - lam) < 4 * math.sqrt(lam / draws.size)


def test_pathloss_reference_points():
    model = PathlossModel(shadowing_std_db=0.0)
    # 140.7 + 36.7 log10(0.1) = 104.0 dB at 100 m
    assert pathloss_gain(100.0, model) == pytest.approx(10 ** -10.4, rel=1e-12)
    assert pathloss_gain(1000.0, model) == pytest.approx(10 ** -14.07, rel=1e-12)
    # doubling the distance scales the gain by 2^-exponent
    ratio = pathloss_gain(200.0, model) / pathloss_gain(100.0, model)
    assert ratio == pytest.approx(2.0 ** -3.67, rel=1e-12)


def test_pathloss_floor():
    model = PathlossModel(shadowing_std_db=0.0)
    assert pathloss_gain(1.0, model) == pathloss_gain(3.0, model)
    assert pathloss_gain(1.0, model) > pathloss_gain(3.001, model)


def test_pathloss_shadowing_spread(rng):
    model = PathlossModel()
    gains = pathloss_gain(np.full(4000, 100.0), model, rng)
    log_std = np.std(10.0 * np.log10(gains))
    assert abs(log_std - model.shadowing_std_db) < 0.4


def test_pathloss_validation():
    with pytest.raises(ConfigError):
        PathlossModel(exponent=0.0)
    with pytest.raises(ConfigError):
        PathlossModel(min_distance_m=0.0)
    with pytest.raises(ConfigError):
        PathlossModel(shadowing_std_db=-1.0)
    # non-finite fields fail as in PhyParams and QueueParams: a nan passes
    # no comparison, so each check names finiteness
    for name, bad in (("exponent", np.nan), ("exponent", np.inf), ("ref_loss_db", np.inf),
                      ("ref_loss_db", -np.inf), ("ref_loss_db", np.nan),
                      ("shadowing_std_db", np.inf), ("shadowing_std_db", np.nan),
                      ("min_distance_m", np.nan), ("min_distance_m", np.inf)):
        with pytest.raises(ConfigError, match=f"^{name} must be .*finite"):
            PathlossModel(**{name: bad})
