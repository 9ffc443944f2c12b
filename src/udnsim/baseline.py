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
from .phy import LN2, PhyParams, instantaneous_rate
from .power_opt import ee_power

PF_FLOOR = 1e-6
# the users' minimum rate, the baseline's QoS floor unless a run sets another
QOS_MIN_RATE_BPS = 200e3
ESTIMATE_MODES = ("arithmetic", "exponential")
# weight of the newest measurement in the exponential interference estimate
ALPHA = 0.05
# beta floor of the power-from-rate inversions: a dead link needs unbounded
# power, so its QoS floor is infeasible and its drain keeps the myopic power
BETA_FLOOR = 1e-300
# exponent cap of the drain inversions: expm1 stays finite, far past max power
NEED_CAP = 40.0


@dataclass
class BaselineState:
    """PF rate averages (one per UE, shape (..., k)) and the interference
    estimate (one per SBS, shape (...)) carried across slots: running means
    over the `slots` so far, but for the estimate under estimate_mode
    'exponential', an exponentially weighted mean with weight ALPHA."""

    rate_avg: np.ndarray
    interference_est: np.ndarray
    slots: int = 0

    @classmethod
    def fresh(cls, shape):
        rate_avg = np.zeros(shape)
        return cls(rate_avg=rate_avg, interference_est=np.zeros(rate_avg.shape[:-1]))

    def observe(self, interference, achieved_bps, mode: str = "arithmetic"):
        """Fold one slot into the state: the interference each SBS measured
        and the rate each UE achieved (0 when idle).

        The rate averages are arithmetic running means.  The interference
        estimate starts at the first measurement; then 'arithmetic' keeps
        the exact running mean and 'exponential' takes (1 - ALPHA) est +
        ALPHA m.
        """
        if mode not in ESTIMATE_MODES:
            raise ConfigError(f"unknown estimate mode {mode!r}")
        n = self.slots
        est = self.interference_est
        if n == 0:
            self.interference_est = np.array(interference, dtype=float)
        elif mode == "arithmetic":
            self.interference_est = est + (interference - est) / (n + 1)
        else:
            self.interference_est = (1.0 - ALPHA) * est + ALPHA * interference
        self.rate_avg = (self.rate_avg * n + np.asarray(achieved_bps, dtype=float)) / (n + 1)
        self.slots = n + 1


def pf_schedule(rate_vec, rate_avg):
    """Index of the UE maximizing rate / average-rate (floored averages)
    along the last axis; ties and the cold start resolve to the lowest
    index.  An int for one SBS, an index array for a batch."""
    ratio = np.asarray(rate_vec, dtype=float) / np.maximum(np.asarray(rate_avg, dtype=float), PF_FLOOR)
    pick = np.argmax(ratio, axis=-1)
    return int(pick) if pick.ndim == 0 else pick


def myopic_power(beta, qos_min_rate_bps, phy: PhyParams):
    """Instantaneous EE maximizer subject to a minimum-rate floor, at channel
    quality beta = gain / (interference + noise), elementwise.

    Returns (power_w, rate_bps, floor_w, infeasible).  floor_w is the lowest
    power that meets qos_min_rate_bps, capped at max power; power_w is the
    EE argmax over [floor_w, max power] and rate_bps the Shannon rate it
    gives.  Where even max power falls short of the floor, the SBS transmits
    at max power and infeasible is set.  A dead link (beta <= 0) stays
    silent without a floor and is infeasible with one.
    """
    # ee_power takes the log of beta <= 0 too; np.where drops those lanes
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        p_lo = np.expm1(qos_min_rate_bps * LN2 / phy.bandwidth_hz) / np.maximum(beta, BETA_FLOOR)
        floor_w = np.minimum(p_lo, phy.max_power_w)
        power_w = np.where(beta > 0.0, ee_power(beta, phy, floor_w), floor_w)
    # beta is an SINR per Watt, so the rate takes it as the gain over a
    # unit noise floor
    rate_bps = instantaneous_rate(power_w, beta, 0.0, phy, 1.0)
    return power_w, rate_bps, floor_w, p_lo > phy.max_power_w


def drain_power(beta, qos_min_rate_bps, own_bits, cell_bits, horizon_s, window_s,
                phy: PhyParams):
    """The baseline's slot power: myopic_power at channel quality beta =
    gain / (interference + noise) under the floor qos_min_rate_bps, refined
    for a finite buffer, with an overload override.

    Returns (power_w, rate_bps, infeasible); the last two are myopic_power's:
    the rate PF tracks, and where the floor is out of reach.  The server
    owns k queues and the rotation returns to each only after serving the
    others, so its clearing duty is the cell's aggregate backlog cell_bits:
    when that demands more rate over window_s than the myopic power
    supplies, the transmitter abandons efficiency and stays at it.
    Otherwise delivered bits saturate once the scheduled queue (own_bits) is
    cleared while Joules keep rising, so the efficient move is to spread
    own_bits over the horizon_s left in the turn at the cheapest sufficient
    power, capped at the myopic power as the turn closes.  The floor holds
    regardless, so an infeasible link stays at max power.
    """
    power_w, rate_bps, floor_w, infeasible = myopic_power(beta, qos_min_rate_bps, phy)
    beta_pos = np.maximum(beta, BETA_FLOOR)
    need_cell = np.asarray(cell_bits, dtype=float) * LN2 / (phy.bandwidth_hz * window_s)
    p_emerg = np.expm1(np.minimum(need_cell, NEED_CAP)) / beta_pos
    need_own = np.asarray(own_bits, dtype=float) * LN2 / (phy.bandwidth_hz * horizon_s)
    p_own = np.expm1(np.minimum(need_own, NEED_CAP)) / beta_pos
    drain = np.minimum(np.maximum(p_own, floor_w), power_w)
    return np.where(p_emerg > power_w, power_w, drain), rate_bps, infeasible
