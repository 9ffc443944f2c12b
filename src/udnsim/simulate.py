"""Two-timescale episode simulation.

Scheduling decisions happen once per period; power, transmission,
interference and queue dynamics run every slot (100 slots per period in the
reference setup).  All SBSs move simultaneously within a slot: powers are
fixed first, then every scheduled UE sees the interference of that joint
choice.  Bits are integers end to end, so arrivals, service, drops and
backlog balance exactly.

The slot kernel holds no physics of its own; it calls the tested functions
once per slot or period on arrays batched over SBSs, with the UEs of SBS b
in row b of an (n_sbs, k) view:

- every slot: ``phy.instantaneous_rate`` (in the deployment's normalized
  units), ``phy.sample_arrivals`` and ``phy.queue_step``;
- mfg: ``fields.bilinear`` for the slot power, and once per period
  ``scheduler.expected_rate``, ``fields.bilinear`` and ``scheduler.dpp_step``;
- baseline: ``baseline.myopic_power`` and ``baseline.drain_power`` for the
  slot power, ``baseline.update_interference_estimate`` and
  ``baseline.update_rate_averages`` after it, and once per period
  ``baseline.myopic_power`` and ``baseline.pf_schedule``.

Energy accounting matches the solver's utility ln(1 + beta p) / (p + p0):
every scheduled SBS radiates its chosen power p for the whole slot, so a
slot costs (p + p0) * dt per SBS whatever the buffer delivers.  Circuit
power accrues every second whether or not anything is sent, so an episode
costs at least n_sbs * p0 * duration Joules.  Rates and the interference
measurements take the same view: all concurrent transmissions overlap for
the full slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.stats

from .baseline import (ESTIMATE_MODES, BaselineState, drain_power, myopic_power,
                       pf_schedule, update_interference_estimate, update_rate_averages)
from .deployment import Deployment
from .errors import ConfigError
from .fields import MfgSolution, bilinear
from .phy import PhyParams, QueueParams, instantaneous_rate, queue_step, sample_arrivals
from .scheduler import DppParams, SchedulerState, dpp_step, expected_rate

METHODS = ("mfg", "baseline")


@dataclass
class EpisodeMetrics:
    method: str
    seed: int
    n_periods: int
    n_sbs: int
    n_ue: int
    arrived_bits: int = 0
    delivered_bits: int = 0
    dropped_bits: int = 0
    backlog_delta_bits: int = 0
    energy_j: float = 0.0
    ee_bits_per_j: float = 0.0
    outage_fraction: float = 0.0
    dropped_ratio: float = 0.0
    mean_power_w: float = 0.0
    interference_mean: float = 0.0
    utility: float = 0.0
    infeasible_slots: int = 0


def derived_rng(seed, replicate: int, stream: int) -> np.random.Generator:
    """Deterministic child stream: (base seed, replicate index, stream tag)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(replicate, stream)))


def _sample_initial_backlog(solution: MfgSolution, n_ue: int, cap: int,
                            rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF draw of per-UE backlog from the solver's initial density."""
    grid = solution.grid
    rho = solution.density[0]
    # piecewise-linear CDF from the trapezoid masses between nodes
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (rho[:-1] + rho[1:]) * grid.dq)))
    cdf /= cdf[-1]
    u = rng.uniform(size=n_ue)
    return (np.interp(u, cdf, grid.queues) * cap).astype(np.int64)


def run_episode(deploy: Deployment, method: str, phy: PhyParams, queue: QueueParams,
                *, n_periods: int, seed: int, solution: MfgSolution | None = None,
                dpp: DppParams = DppParams(), qos_min_rate_bps: float | None = None,
                slots_per_period: int = 100, initial_backlog: str = "empty",
                estimate_mode: str = "arithmetic", drain_window_slots: int = 40,
                replicate: int = 0) -> EpisodeMetrics:
    """Simulate one episode and return its aggregate metrics.

    initial_backlog: 'empty' starts all queues at zero; 'density' samples
    each UE's backlog from the solution's initial density (mean-field
    consistency checks want the simulated population to start where the
    solver's density starts).
    """
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}")
    if method == "mfg" and solution is None:
        raise ConfigError("the mfg method needs a solved policy")
    if estimate_mode not in ESTIMATE_MODES:
        raise ConfigError(f"unknown estimate mode {estimate_mode!r}")
    if drain_window_slots < 1:
        raise ConfigError("drain_window_slots must be at least 1")
    if qos_min_rate_bps is None:
        qos_min_rate_bps = queue.arrival_rate_bps

    n_sbs, n_ue, k = deploy.n_sbs, deploy.n_ue, deploy.k
    serving_gain = deploy.serving_gains().reshape(n_sbs, k)
    noise = deploy.noise_norm
    cap = int(queue.capacity_bits)
    dt = queue.slot_duration_s
    rows = np.arange(n_sbs)

    traffic = derived_rng(seed, replicate, 1)
    if initial_backlog == "density":
        if solution is None:
            raise ConfigError("density-initialized backlog needs a solution")
        queues = _sample_initial_backlog(solution, n_ue, cap, traffic)
    elif initial_backlog == "empty":
        queues = np.zeros(n_ue, dtype=np.int64)
    else:
        raise ConfigError("initial_backlog must be 'empty' or 'density'")
    backlog_start = int(queues.sum())
    dropped_per_ue = np.zeros(n_ue, dtype=np.int64)

    if method == "mfg":
        dpp_state = SchedulerState.fresh((n_sbs, k))
    else:
        pf_state = BaselineState.fresh((n_sbs, k))

    arrived = 0
    delivered = 0
    energy = 0.0
    power_sum = 0.0
    interference_sum = 0.0
    infeasible = 0
    sched_rate_hz = np.zeros(n_ue)                  # per-Hz achieved rate sum
    sched_power = np.zeros(n_ue)                    # power sum while scheduled
    sched_periods = np.zeros(n_ue, dtype=np.int64)  # periods scheduled

    for _ in range(n_periods):
        # --- slow timescale: pick one UE per SBS for the whole period
        cells = queues.reshape(n_sbs, k)
        if method == "mfg":
            q_norm = cells / cap
            r_bps = expected_rate(solution, 0.0, q_norm, serving_gain, phy)
            p_cand = bilinear(solution.grid, solution.policy, 0.0, q_norm)
            local = dpp_step(dpp_state, cells.astype(float), r_bps, p_cand, phy, dpp)
        else:
            i_cell = pf_state.interference_est[:, None]
            p_cand, _ = myopic_power(serving_gain, i_cell, noise, phy, qos_min_rate_bps)
            # beta = gain / (interference + noise) is an SINR per Watt, so
            # the rate takes it as the gain over a unit noise floor
            cand = instantaneous_rate(p_cand, serving_gain / (i_cell + noise), 0.0, phy, 1.0)
            local = pf_schedule(cand, pf_state.rate_avg)
        scheduled = rows * k + local
        sched_periods[scheduled] += 1
        g_cross = deploy.gains[scheduled]     # (B, B): row b = gains at b's UE
        g_own = g_cross[rows, rows]

        # --- fast timescale
        for s in range(slots_per_period):
            own_bits = queues[scheduled]
            if method == "mfg":
                powers = bilinear(solution.grid, solution.policy, s * dt, own_bits / cap)
            else:
                i_est = pf_state.interference_est
                powers, bad = myopic_power(g_own, i_est, noise, phy, qos_min_rate_bps)
                infeasible += int(bad.sum())
                beta = g_own / (i_est + noise)
                # PF averaging tracks the rate the channel would support at the
                # myopic power, not the buffer-limited served rate; otherwise a
                # freshly drained UE looks starved and the rotation collapses.
                pot_rate = instantaneous_rate(powers, beta, 0.0, phy, 1.0)
                powers = drain_power(powers, beta, own_bits,
                                     queues.reshape(n_sbs, k).sum(axis=1),
                                     (slots_per_period - s) * dt, drain_window_slots * dt,
                                     phy, qos_min_rate_bps)

            interference = g_cross @ powers - g_own * powers
            rate = instantaneous_rate(powers, g_own, interference, phy, noise)
            arrivals = sample_arrivals(traffic, queue, n_ue)
            served_own = np.minimum(own_bits + arrivals[scheduled],
                                    (rate * dt).astype(np.int64))
            served = np.zeros(n_ue, dtype=np.int64)
            served[scheduled] = served_own
            queues, dropped = queue_step(queues, arrivals, served, queue)

            # every scheduled SBS radiates its power for the full slot
            radiated_w = float(powers.sum())

            arrived += int(arrivals.sum())
            delivered += int(served_own.sum())
            dropped_per_ue += dropped
            energy += (radiated_w + n_sbs * phy.circuit_power_w) * dt
            power_sum += radiated_w
            interference_sum += float(interference.mean())
            sched_rate_hz[scheduled] += served_own / (dt * phy.bandwidth_hz)
            sched_power[scheduled] += powers

            if method == "baseline":
                pf_state.interference_est, pf_state.meas_count = update_interference_estimate(
                    pf_state.interference_est, pf_state.meas_count, interference, estimate_mode)
                achieved = np.zeros((n_sbs, k))
                achieved[rows, local] = pot_rate
                update_rate_averages(pf_state, achieved)

    n_slots_total = n_periods * slots_per_period
    sched_slots = sched_periods * slots_per_period
    dropped_total = int(dropped_per_ue.sum())
    share = sched_periods / n_periods
    mean_rate = np.where(sched_slots > 0, sched_rate_hz / np.maximum(sched_slots, 1), 0.0)
    mean_pow = np.where(sched_slots > 0, sched_power / np.maximum(sched_slots, 1), 0.0)
    utility = float((share * mean_rate / (mean_pow + phy.circuit_power_w)).sum() / n_sbs)

    return EpisodeMetrics(
        method=method, seed=seed, n_periods=n_periods, n_sbs=n_sbs, n_ue=n_ue,
        arrived_bits=arrived, delivered_bits=delivered, dropped_bits=dropped_total,
        backlog_delta_bits=int(queues.sum()) - backlog_start, energy_j=energy,
        ee_bits_per_j=delivered / energy if energy > 0 else 0.0,
        outage_fraction=float((dropped_per_ue > 0).mean()),
        dropped_ratio=dropped_total / arrived if arrived > 0 else 0.0,
        mean_power_w=power_sum / (n_slots_total * n_sbs),
        interference_mean=interference_sum / n_slots_total,
        utility=utility, infeasible_slots=infeasible,
    )


METRIC_FIELDS = ("ee_bits_per_j", "outage_fraction", "dropped_ratio",
                 "mean_power_w", "interference_mean", "utility", "energy_j",
                 "delivered_bits")


@dataclass
class ReplicationSummary:
    """Per-metric mean and 95% confidence half-width over seeded replicates."""

    n: int
    mean: dict = field(default_factory=dict)
    ci_half: dict = field(default_factory=dict)

    def lo(self, key):
        return self.mean[key] - self.ci_half[key]

    def hi(self, key):
        return self.mean[key] + self.ci_half[key]


def summarize_replications(metrics: list[EpisodeMetrics]) -> ReplicationSummary:
    if not metrics:
        raise ConfigError("no replicates to summarize")
    n = len(metrics)
    out = ReplicationSummary(n=n)
    tcrit = float(scipy.stats.t.ppf(0.975, n - 1)) if n > 1 else 0.0
    for key in METRIC_FIELDS:
        vals = np.array([float(getattr(m, key)) for m in metrics])
        out.mean[key] = float(vals.mean())
        out.ci_half[key] = float(tcrit * vals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return out


def run_replications(deploy_fn, episode_fn, n_replicates: int, base_seed: int):
    """Run paired replicates: replicate i gets a deployment from
    deploy_fn(seed_i) and metrics from episode_fn(deployment, base_seed, i).

    Seeds derive deterministically from base_seed so reruns are identical.
    Returns (metrics list, summary).
    """
    if n_replicates < 1:
        raise ConfigError("n_replicates must be at least 1")
    metrics = [episode_fn(deploy_fn(np.random.SeedSequence(base_seed, spawn_key=(i, 0))),
                          base_seed, i)
               for i in range(n_replicates)]
    return metrics, summarize_replications(metrics)
