"""Drift-plus-penalty UE scheduling on the slow timescale.

Once per period each SBS picks the auxiliary UE a (the argmin of its
virtual queues Y) and schedules the UE maximizing

    backlog * rate + Y - V * rate / (power + p0)

with the backlog in bits and the expected rate in bits/s, then moves Y by
one credit to a and one debit from the scheduled UE.  Y is unclamped, and
ties break toward the lowest UE index.  The backlog-rate product dominates
whenever queues hold real work; the virtual-queue and energy-efficiency
terms settle ties among near-empty queues.  Every step works along the last
axis, so one state and one call per period serve one SBS (shape (k,)) or
all of them at once (shape (..., k)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fields import MfgSolution, bilinear
from .phy import PhyParams, instantaneous_rate


@dataclass(frozen=True)
class DppParams:
    """Tradeoff coefficient V <= 0.

    The objective subtracts V times each UE's bits per joule, rate / (power
    + p0): a more-negative V favours efficiency over backlog, but beside
    backlog * rate it settles only near-empty queues.  V = 0 drops it.
    v_coeff may also be an array that broadcasts against the scheduler's
    (..., k) arrays, such as one V per lane of a batch as a (lanes, 1, 1)
    column.
    """

    v_coeff: float = -1.0

    def __post_init__(self):
        # not all(<= 0) also rejects nan
        if not np.all(np.asarray(self.v_coeff) <= 0):
            raise ConfigError("v_coeff must be nonpositive")


@dataclass
class SchedulerState:
    """Virtual queues (shape (..., k)) carried across periods."""

    virtual: np.ndarray

    @classmethod
    def fresh(cls, shape):
        return cls(virtual=np.zeros(shape))


def expected_rate(sol: MfgSolution, q_norm, gain, phy: PhyParams):
    """(power W, rate bits/s) of a candidate UE if scheduled at the period
    start: the equilibrium policy at t = 0 is looked up bilinearly at q_norm
    and combined with the UE's own normalized gain and the mean-field
    interference of the first slice."""
    p = bilinear(sol.grid, sol.policy, 0.0, q_norm)
    return p, instantaneous_rate(p, gain, sol.interference[0], phy, sol.noise_norm)


def dpp_step(state: SchedulerState, backlog_bits, rate_bps, power_w,
             phy: PhyParams, params: DppParams):
    """One period of the scheduler: pick the UE and update the virtual queues.

    Mutates state.virtual and returns the scheduled UE index along the last
    axis: an int for one SBS, an index array for a batch.
    """
    y = state.virtual
    aux = np.argmin(y, axis=-1)
    objective = (backlog_bits * rate_bps + y
                 - params.v_coeff * (rate_bps / (power_w + phy.circuit_power_w)))
    pick = np.argmax(objective, axis=-1)
    ue = np.arange(y.shape[-1])
    state.virtual = (y + (ue == np.expand_dims(aux, -1))) - (ue == np.expand_dims(pick, -1))
    return int(pick) if pick.ndim == 0 else pick
