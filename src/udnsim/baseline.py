"""Benchmark transmission policy: proportional-fair scheduling with myopic
per-slot energy-efficiency power control against an interference estimate
built from past measurements.

Every function works elementwise on scalars or arrays; schedulers work
along the last axis, so one call serves one SBS (shape (k,)) or all of
them at once (shape (n_sbs, k)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .phy import LN2, PhyParams
from .power_opt import maximize_rate_value

PF_FLOOR = 1e-6
ESTIMATE_MODES = ("arithmetic", "exponential")
# beta floor of the power-from-rate inversions: a dead link needs unbounded
# power, so its QoS floor is infeasible and its drain keeps the myopic power
BETA_FLOOR = 1e-300
# exponent cap of the drain inversions: expm1 stays finite, far past max power
NEED_CAP = 40.0


@dataclass
class BaselineState:
    """PF rate averages (one per UE, shape (..., k)) and the interference
    estimate (one per SBS, shape (...)) carried across slots."""

    rate_avg: np.ndarray
    interference_est: np.ndarray
    rate_slots: int = 0
    meas_count: int = 0

    @classmethod
    def fresh(cls, shape):
        rate_avg = np.zeros(shape)
        return cls(rate_avg=rate_avg, interference_est=np.zeros(rate_avg.shape[:-1]))


def pf_schedule(rate_vec, rate_avg):
    """Index of the UE maximizing rate / average-rate (floored averages)
    along the last axis; ties and the cold start resolve to the lowest
    index.  An int for one SBS, an index array for a batch."""
    ratio = np.asarray(rate_vec, dtype=float) / np.maximum(np.asarray(rate_avg, dtype=float), PF_FLOOR)
    pick = np.argmax(ratio, axis=-1)
    return int(pick) if pick.ndim == 0 else pick


def qos_floor_power(beta, qos_min_rate_bps, phy: PhyParams):
    """Lowest power meeting the QoS rate at channel quality beta, capped at
    max power.  Returns (floor_w, infeasible): infeasible where even max
    power falls short of the floor (always on a dead link with a floor)."""
    with np.errstate(over="ignore"):
        p_lo = np.expm1(qos_min_rate_bps * LN2 / phy.bandwidth_hz) / np.maximum(beta, BETA_FLOOR)
    return np.minimum(p_lo, phy.max_power_w), p_lo > phy.max_power_w


def efficient_power(beta, floor_w, phy: PhyParams):
    """The EE argmax over [floor_w, max power] at channel quality beta; an
    infeasible lane (floor_w at max power) searches [max power, max power]."""
    return maximize_rate_value(beta, 0.0, floor_w, phy.max_power_w, phy)[0]


def myopic_power(gain, interference_w, noise_w, phy: PhyParams,
                 qos_min_rate_bps: float = 0.0):
    """Instantaneous EE maximizer subject to a minimum-rate floor.

    Returns (power_w, infeasible), elementwise over array inputs.  The QoS
    floor fixes the lowest power that meets qos_min_rate_bps at the
    estimated interference; when even max power cannot, the SBS transmits
    at max power and flags infeasibility.  A dead link (beta <= 0) stays
    silent without a floor and is infeasible with one.  It is
    qos_floor_power and efficient_power at beta = gain / (interference +
    noise); the simulator calls those two itself, with one beta per slot.
    """
    interference_w = np.asarray(interference_w, dtype=float)
    if np.any(interference_w < 0) or noise_w <= 0:
        raise ConfigError("interference must be nonnegative and noise positive")
    beta = np.asarray(gain, dtype=float) / (interference_w + noise_w)
    floor_w, infeasible = qos_floor_power(beta, qos_min_rate_bps, phy)
    p = efficient_power(beta, floor_w, phy)
    if p.ndim == 0:
        return float(p), bool(infeasible)
    return p, infeasible


def drain_power(power_w, beta, own_bits, cell_bits, horizon_s, window_s,
                phy: PhyParams, floor_w=0.0):
    """Finite-buffer refinement of the myopic power, with an overload override.

    power_w is the myopic EE power (max power where infeasible) at channel
    quality beta = gain / (interference + noise).  The server owns k queues
    and the rotation returns to each only after serving the others, so its
    clearing duty is the cell's aggregate backlog cell_bits: when that
    demands more rate over window_s than power_w supplies, the transmitter
    abandons efficiency and stays at power_w.  Otherwise delivered bits
    saturate once the scheduled queue (own_bits) is cleared while Joules
    keep rising, so the efficient move is to spread own_bits over the
    horizon_s left in the turn at the cheapest sufficient power, capped at
    power_w as the turn closes.  The QoS floor floor_w (from
    qos_floor_power; 0 without a floor) holds regardless, so an infeasible
    link stays at the max power that myopic_power gave it.
    """
    beta_pos = np.maximum(beta, BETA_FLOOR)
    need_cell = np.asarray(cell_bits, dtype=float) * LN2 / (phy.bandwidth_hz * window_s)
    p_emerg = np.expm1(np.minimum(need_cell, NEED_CAP)) / beta_pos
    need_own = np.asarray(own_bits, dtype=float) * LN2 / (phy.bandwidth_hz * horizon_s)
    p_own = np.expm1(np.minimum(need_own, NEED_CAP)) / beta_pos
    drain = np.minimum(np.maximum(p_own, floor_w), power_w)
    return np.where(p_emerg > power_w, power_w, drain)


def update_interference_estimate(estimate, count, measurement,
                                 mode: str = "arithmetic", alpha: float = 0.05):
    """Fold one interference measurement into the running estimate,
    elementwise over arrays that share one measurement count.

    arithmetic: exact running mean; exponential: (1-alpha) est + alpha m.
    Both start at the first measurement.  Returns (estimate, count).
    """
    if mode not in ESTIMATE_MODES:
        raise ConfigError(f"unknown estimate mode {mode!r}")
    if count == 0:
        first = np.array(measurement, dtype=float)
        return (float(first) if first.ndim == 0 else first), 1
    if mode == "arithmetic":
        return estimate + (measurement - estimate) / (count + 1), count + 1
    return (1.0 - alpha) * estimate + alpha * measurement, count + 1


def update_rate_averages(state: BaselineState, achieved_bps):
    """Per-slot arithmetic running mean of achieved rates (0 when idle)."""
    n = state.rate_slots
    state.rate_avg = (state.rate_avg * n + np.asarray(achieved_bps, dtype=float)) / (n + 1)
    state.rate_slots = n + 1
