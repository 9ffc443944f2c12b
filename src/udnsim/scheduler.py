"""Drift-plus-penalty UE scheduling on the slow timescale.

Once per period each SBS observes backlogs and expected rates, picks the
auxiliary one-hot (argmin of the virtual queues), schedules the UE maximizing
``q * r + Y - V * df/dlambda`` over one-hot vectors, then updates the virtual
queues by the auxiliary-minus-schedule difference and folds the schedule into
an exact running mean.  Ties break toward the lowest UE index everywhere.
Every step works along the last axis, so one state and one call per period
serve one SBS (shape (k,)) or all of them at once (shape (n_sbs, k)).

The op-level vectors are unit-agnostic; the simulator feeds backlog in
bits and rates in bits/s, so the backlog-rate product dominates whenever
queues hold real work and the virtual-queue and penalty terms settle ties
among near-empty queues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fields import MfgSolution, bilinear, interp_trajectory
from .phy import PhyParams, instantaneous_rate

GRADIENT_MODELS = ("linear_ee", "zero")


@dataclass(frozen=True)
class DppParams:
    """Tradeoff coefficient V <= 0 and the utility-gradient model.

    More-negative V weighs the energy-efficiency penalty harder at the
    expense of backlog pressure; V sweeps of {-1, -10, -100} cover the
    tradeoff study.
    """

    v_coeff: float = -1.0
    gradient_model: str = "linear_ee"

    def __post_init__(self):
        if self.v_coeff > 0:
            raise ConfigError("v_coeff must be nonpositive")
        if self.gradient_model not in GRADIENT_MODELS:
            raise ConfigError(f"unknown gradient model {self.gradient_model!r}")


@dataclass
class SchedulerState:
    """Virtual queues and schedule running means (shape (..., k)) carried
    across periods."""

    virtual: np.ndarray
    lam_avg: np.ndarray
    periods: int = 0

    @classmethod
    def fresh(cls, shape):
        return cls(virtual=np.zeros(shape), lam_avg=np.zeros(shape))


def expected_rate(sol: MfgSolution, t_in_period, q_norm, gain, phy: PhyParams):
    """Expected rate (bits/s) of a candidate UE if scheduled now: the
    equilibrium policy is looked up bilinearly at (t, q_norm) and combined
    with the UE's own normalized gain and the mean-field interference."""
    p = bilinear(sol.grid, sol.policy, t_in_period, q_norm)
    i_t = interp_trajectory(sol.grid, sol.interference, t_in_period)
    return instantaneous_rate(p, gain, i_t, phy, sol.noise_norm)


def penalty_gradient(rate_hz, power_w, phy: PhyParams, model: str = "linear_ee"):
    """d(utility)/d(schedule share) per UE under the selected utility model."""
    if model == "linear_ee":
        return np.asarray(rate_hz, dtype=float) / (np.asarray(power_w, dtype=float) + phy.circuit_power_w)
    if model == "zero":
        return np.zeros_like(np.asarray(rate_hz, dtype=float))
    raise ConfigError(f"unknown gradient model {model!r}")


def _one_hot(index, n: int) -> np.ndarray:
    return (np.arange(n) == np.expand_dims(index, -1)).astype(float)


def solve_auxiliary(virtual: np.ndarray) -> np.ndarray:
    """One-hot minimizer of the virtual queues along the last axis (lowest
    index on ties)."""
    return _one_hot(np.argmin(virtual, axis=-1), virtual.shape[-1])


def schedule(q_vec, rate_vec, virtual, penalty, params: DppParams) -> np.ndarray:
    """One-hot argmax of q*r + Y - V * penalty along the last axis (lowest
    index on ties); the caller precomputes penalty via penalty_gradient."""
    objective = (np.asarray(q_vec, dtype=float) * np.asarray(rate_vec, dtype=float)
                 + np.asarray(virtual, dtype=float)
                 - params.v_coeff * np.asarray(penalty, dtype=float))
    return _one_hot(np.argmax(objective, axis=-1), objective.shape[-1])


def update_virtual_queue(virtual, aux, lam) -> np.ndarray:
    """Y <- Y + aux - lam, unclamped by design."""
    return np.asarray(virtual, dtype=float) + np.asarray(aux, dtype=float) - np.asarray(lam, dtype=float)


def dpp_step(state: SchedulerState, q_norm_vec, rate_hz_vec, power_vec,
             phy: PhyParams, params: DppParams):
    """One period of the scheduler: auxiliary, schedule, bookkeeping.

    Mutates state (virtual queues, exact running mean of schedules, period
    counter) and returns the scheduled UE index along the last axis: an int
    for one SBS, an index array for a batch.
    """
    aux = solve_auxiliary(state.virtual)
    penalty = penalty_gradient(rate_hz_vec, power_vec, phy, params.gradient_model)
    lam = schedule(q_norm_vec, rate_hz_vec, state.virtual, penalty, params)
    state.virtual = update_virtual_queue(state.virtual, aux, lam)
    state.lam_avg = (state.lam_avg * state.periods + lam) / (state.periods + 1)
    state.periods += 1
    pick = np.argmax(lam, axis=-1)
    return int(pick) if pick.ndim == 0 else pick
