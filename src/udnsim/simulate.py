"""Two-timescale episode simulation.

Scheduling decisions happen once per period; power, transmission,
interference and queue dynamics run every slot (100 slots per period in the
reference setup).  All SBSs move simultaneously within a slot: powers are
fixed first, then every scheduled UE sees the interference of that joint
choice.  Bits are integers end to end, so arrivals, service, drops and
backlog balance exactly.

The slot kernel runs L lanes in lockstep.  A lane is an (arm, replicate)
pair: an arm is a method with its scheduler parameters, and a replicate is
one of R deployments of one (n_sbs, k) shape, with its own normalized noise
and its own traffic stream.  Lane a * R + r runs arm a on replicate r, the
mfg arms first, so each method's lanes are one slice.  Each replicate's
arrivals are drawn once per period into one (slots, R * n_ue) block, held
once and broadcast to every arm, and every arm runs on the same gains.
Per-UE state is one flat vector in which UE u of lane l sits at l * n_ue +
u, and the UEs of SBS b are u = b * k .. b * k + k - 1, so reshaping it
gives the (L, n_sbs, k) view that the period step works on; the queues are
kept as its (arms, R * n_ue) view, against which a slot's arrival row
broadcasts.  The UEs scheduled for a period are one (L, n_sbs) array of
flat indices l * n_ue + b * k + local, which gathers and scatters every
per-lane slot value with one index, and modulo R * n_ue they index the
replicate's own arrivals and gains.  The cross gains of a period are an
(L, n_sbs, n_sbs) stack whose row b holds the gains at b's scheduled UE,
and the interference is one batched matrix-vector product over it.

The kernel holds no physics of its own; it calls the tested functions
once per slot or period on these batched arrays, each method on its own
slice of lanes and everything else once over all of them:

- every slot: ``phy.instantaneous_rate`` (in each deployment's normalized
  units) and ``phy.queue_step``; once per period ``phy.sample_arrivals``
  draws each replicate's arrivals, one row per slot, which is the same
  stream as one draw per slot;
- mfg: ``fields.bilinear`` for the slot power, and once per period
  ``scheduler.expected_rate`` (the candidates' policy power and rate) and
  ``scheduler.dpp_step``, which reads one V per lane;
- baseline: ``baseline.myopic_power`` and ``baseline.drain_power`` for the
  slot power and ``BaselineState.observe`` after it, and once per period
  ``baseline.myopic_power`` (the candidates' rates) and
  ``baseline.pf_schedule``.

Every lane's metrics equal those of running its arm and replicate alone,
bit for bit.  Elementwise steps and the per-lane matrix-vector products do
not mix lanes, and float sums keep the order of a slot-by-slot loop: slot
values go into per-period rows, and ``np.add.accumulate`` (which adds
strictly in row order, unlike the pairwise ``sum``) folds them into the
per-UE and per-episode totals.  Integer ledgers are exact in any order.

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
from typing import NamedTuple

import numpy as np

from .baseline import ESTIMATE_MODES, BaselineState, drain_power, myopic_power, pf_schedule
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


def _fold_in_order(total: np.ndarray, index, rows: np.ndarray, divisor: float = 1.0):
    """total[index] += rows[0] / divisor; total[index] += rows[1] / divisor;
    ... in row order, so the float sums round as a slot-by-slot loop rounds
    them.  The running sums fill one buffer of the rows' size."""
    acc = np.empty((len(rows) + 1,) + rows.shape[1:])
    acc[0] = total[index]
    np.divide(rows, divisor, out=acc[1:])
    np.add.accumulate(acc, axis=0, out=acc)
    total[index] = acc[-1]


class Arm(NamedTuple):
    """One policy of a batch: a method and its scheduler parameters, which
    only the mfg method reads."""

    method: str
    dpp: DppParams = DppParams()


def run_episodes(deploys: list[Deployment], arms, phy: PhyParams, queue: QueueParams,
                 *, n_periods: int, seed: int, replicates,
                 solution: MfgSolution | None = None, qos_min_rate_bps: float | None = None,
                 slots_per_period: int = 100, initial_backlog: str = "empty",
                 estimate_mode: str = "arithmetic",
                 drain_window_slots: int = 40) -> list[list[EpisodeMetrics]]:
    """Simulate every arm on every deployment, all in lockstep, and return
    one list of metrics per arm, in the order of arms and deploys.

    deploys[i] runs as replicate replicates[i], whose traffic (and density
    draw) comes from derived_rng(seed, replicates[i], 1) and is drawn once
    for all arms; every deployment must have the same n_sbs and k.  Every
    arm shares the solution.  Each episode's metrics equal those of running
    its arm and replicate alone.

    initial_backlog: 'empty' starts all queues at zero; 'density' samples
    each UE's backlog from the solution's initial density (mean-field
    consistency checks want the simulated population to start where the
    solver's density starts).
    """
    arms = list(arms)
    if not arms:
        raise ConfigError("a batch needs at least one arm")
    for arm in arms:
        if arm.method not in METHODS:
            raise ConfigError(f"unknown method {arm.method!r}")
        if arm.method == "mfg" and solution is None:
            raise ConfigError("the mfg method needs a solved policy")
    if estimate_mode not in ESTIMATE_MODES:
        raise ConfigError(f"unknown estimate mode {estimate_mode!r}")
    if drain_window_slots < 1:
        raise ConfigError("drain_window_slots must be at least 1")
    if n_periods < 1 or slots_per_period < 1:
        raise ConfigError("an episode needs at least one period of at least one slot")
    replicates = list(replicates)
    if not deploys or len(replicates) != len(deploys):
        raise ConfigError("give one replicate index per deployment, at least one")
    n_sbs, k = deploys[0].n_sbs, deploys[0].k
    if any((d.n_sbs, d.k) != (n_sbs, k) for d in deploys):
        raise ConfigError("the deployments of one batch must share n_sbs and k")
    if qos_min_rate_bps is None:
        qos_min_rate_bps = queue.arrival_rate_bps

    n_rep, n_ue, spp = len(deploys), n_sbs * k, slots_per_period
    n_arm, n_rep_ue = len(arms), n_rep * n_ue
    # lane a * n_rep + r runs arm order[a] on replicate r: the mfg arms come
    # first, so each method's lanes are one slice
    order = sorted(range(n_arm), key=lambda a: arms[a].method != "mfg")
    n_lane = n_arm * n_rep
    n_mfg = n_rep * sum(arm.method == "mfg" for arm in arms)
    n_base = n_lane - n_mfg
    mfg, base = slice(0, n_mfg), slice(n_mfg, n_lane)
    serving_gain = np.tile(np.stack([d.serving_gains() for d in deploys]),
                           (n_arm, 1)).reshape(n_lane, n_sbs, k)
    gains = np.concatenate([d.gains for d in deploys])       # (n_rep_ue, n_sbs)
    noise = np.tile([d.noise_norm for d in deploys], n_arm)[:, None]
    cap = int(queue.capacity_bits)
    dt = queue.slot_duration_s
    # flat index of UE (b, 0) of lane l, shape (n_lane, n_sbs)
    lane_base = np.arange(n_lane)[:, None] * n_ue + np.arange(n_sbs) * k

    traffic = [derived_rng(seed, r, 1) for r in replicates]
    if initial_backlog == "density":
        if solution is None:
            raise ConfigError("density-initialized backlog needs a solution")
        queues = np.tile(np.concatenate([_sample_initial_backlog(solution, n_ue, cap, rng)
                                         for rng in traffic]), (n_arm, 1))
    elif initial_backlog == "empty":
        queues = np.zeros((n_arm, n_rep_ue), dtype=np.int64)
    else:
        raise ConfigError("initial_backlog must be 'empty' or 'density'")
    backlog_start = queues.reshape(n_lane, n_ue).sum(axis=1)

    if n_mfg:
        dpp_state = SchedulerState.fresh((n_mfg, n_sbs, k))
        # one V per lane, a column against (lanes, n_sbs, k)
        v = np.repeat([arms[a].dpp.v_coeff for a in order[:n_mfg // n_rep]], n_rep)
        dpp = DppParams(v_coeff=v[:, None, None])
    if n_base:
        pf_state = BaselineState.fresh((n_base, n_sbs, k))
        base_noise = noise[base]
        achieved = np.zeros(n_lane * n_ue)
        base_achieved = achieved.reshape(n_lane, n_sbs, k)[base]

    arrived = np.zeros(n_lane, dtype=np.int64)
    delivered = np.zeros(n_lane, dtype=np.int64)
    infeasible = np.zeros(n_lane, dtype=np.int64)
    dropped_per_ue = np.zeros((n_arm, n_rep_ue), dtype=np.int64)
    sched_rate_hz = np.zeros(n_lane * n_ue)                  # per-Hz achieved rate sum
    sched_power = np.zeros(n_lane * n_ue)                    # power sum while scheduled
    sched_periods = np.zeros(n_lane * n_ue, dtype=np.int64)  # periods scheduled
    served = np.zeros(n_lane * n_ue, dtype=np.int64)         # nonzero on lanes only
    served_by_arm = served.reshape(n_arm, n_rep_ue)
    local = np.empty((n_lane, n_sbs), dtype=np.intp)         # scheduled UE per SBS
    # per-slot values: one row per slot of the period, or of the episode
    power_rows = np.empty((spp, n_lane, n_sbs))
    interference_rows = np.empty((spp, n_lane, n_sbs))
    served_rows = np.empty((spp, n_lane, n_sbs), dtype=np.int64)
    infeasible_rows = np.zeros((spp, n_lane, n_sbs), dtype=bool)
    radiated = np.empty((n_periods * spp, n_lane))
    interference_mean = np.empty((n_periods * spp, n_lane))
    # per-period inputs, refilled in place: the cross gains, row b of lane l
    # holding the gains at b's scheduled UE, and each replicate's arrivals
    g_cross = np.empty((n_lane, n_sbs, n_sbs))
    arrivals = np.empty((spp, n_rep_ue), dtype=np.int64)
    arrival_blocks = arrivals.reshape(spp, n_rep, n_ue)

    for period in range(n_periods):
        # --- slow timescale: pick one UE per SBS for the whole period
        cells = queues.reshape(n_lane, n_sbs, k)
        if n_mfg:
            q_norm = cells[mfg] / cap
            p_cand, r_bps = expected_rate(solution, 0.0, q_norm, serving_gain[mfg], phy)
            local[mfg] = dpp_step(dpp_state, cells[mfg], r_bps, p_cand, phy, dpp)
        if n_base:
            beta = serving_gain[base] / (pf_state.interference_est[..., None]
                                         + base_noise[..., None])
            cand = myopic_power(beta, qos_min_rate_bps, phy)[1]
            local[base] = pf_schedule(cand, pf_state.rate_avg)
        lanes = lane_base + local
        sched_periods[lanes] += 1
        rep_lanes = lanes % n_rep_ue  # the same UEs in the replicate's own numbering
        gains.take(rep_lanes, axis=0, out=g_cross)
        g_own = np.diagonal(g_cross, axis1=1, axis2=2).copy()
        # each replicate's arrivals, drawn once and broadcast to every arm
        for r, rng in enumerate(traffic):
            arrival_blocks[:, r] = sample_arrivals(rng, queue, (spp, n_ue))
        if n_base:
            base_lanes, base_g_own = lanes[base], g_own[base]

        # --- fast timescale
        for s in range(spp):
            own_bits = queues.take(lanes)
            # every scheduled SBS radiates its power for the full slot
            powers = power_rows[s]
            if n_mfg:
                powers[mfg] = bilinear(solution.grid, solution.policy, s * dt,
                                       own_bits[mfg] / cap)
            if n_base:
                beta = base_g_own / (pf_state.interference_est + base_noise)
                # PF averaging tracks the rate the channel would support at the
                # myopic power, not the buffer-limited served rate; otherwise a
                # freshly drained UE looks starved and the rotation collapses.
                p_ee, pot_rate, floor_w, infeasible_rows[s, base] = myopic_power(
                    beta, qos_min_rate_bps, phy)
                powers[base] = drain_power(
                    p_ee, beta, own_bits[base],
                    queues.reshape(n_lane, n_sbs, k)[base].sum(axis=2),
                    (spp - s) * dt, drain_window_slots * dt, phy, floor_w)

            interference = np.subtract((g_cross @ powers[..., None])[..., 0], g_own * powers,
                                       out=interference_rows[s])
            rate = instantaneous_rate(powers, g_own, interference, phy, noise)
            slot_arrivals = arrivals[s]
            served[lanes] = np.minimum(own_bits + slot_arrivals[rep_lanes],
                                       (rate * dt).astype(np.int64), out=served_rows[s])
            # (arms, replicate UEs) against the replicates' arrivals
            queues, dropped = queue_step(queues, slot_arrivals, served_by_arm, queue)
            dropped_per_ue += dropped

            if n_base:
                achieved[base_lanes] = pot_rate
                pf_state.observe(interference[base], base_achieved, estimate_mode)

        served[lanes] = 0
        if n_base:
            achieved[base_lanes] = 0
        slots = slice(period * spp, (period + 1) * spp)
        radiated[slots] = power_rows.sum(axis=2)
        interference_mean[slots] = interference_rows.mean(axis=2)
        arrived += np.tile(arrival_blocks.sum(axis=(0, 2)), n_arm)
        delivered += served_rows.sum(axis=(0, 2))
        infeasible += infeasible_rows.sum(axis=(0, 2))
        _fold_in_order(sched_rate_hz, lanes, served_rows, dt * phy.bandwidth_hz)
        _fold_in_order(sched_power, lanes, power_rows)

    n_slots_total = n_periods * spp
    energy = np.add.accumulate((radiated + n_sbs * phy.circuit_power_w) * dt)[-1]
    power_sum = np.add.accumulate(radiated)[-1]
    interference_sum = np.add.accumulate(interference_mean)[-1]
    sched_slots = sched_periods * spp
    share = sched_periods / n_periods
    mean_rate = np.where(sched_slots > 0, sched_rate_hz / np.maximum(sched_slots, 1), 0.0)
    mean_pow = np.where(sched_slots > 0, sched_power / np.maximum(sched_slots, 1), 0.0)
    utility = (share * mean_rate / (mean_pow + phy.circuit_power_w)).reshape(n_lane, n_ue)
    utility = utility.sum(axis=1) / n_sbs
    dropped_per_ue = dropped_per_ue.reshape(n_lane, n_ue)
    dropped_total = dropped_per_ue.sum(axis=1)
    outage = (dropped_per_ue > 0).mean(axis=1)
    backlog_delta = queues.reshape(n_lane, n_ue).sum(axis=1) - backlog_start

    out = [[] for _ in arms]
    for lane in range(n_lane):
        arm = order[lane // n_rep]
        arrived_l, delivered_l = int(arrived[lane]), int(delivered[lane])
        dropped_l, energy_l = int(dropped_total[lane]), float(energy[lane])
        out[arm].append(EpisodeMetrics(
            method=arms[arm].method, seed=seed, n_periods=n_periods, n_sbs=n_sbs, n_ue=n_ue,
            arrived_bits=arrived_l, delivered_bits=delivered_l, dropped_bits=dropped_l,
            backlog_delta_bits=int(backlog_delta[lane]), energy_j=energy_l,
            ee_bits_per_j=delivered_l / energy_l if energy_l > 0 else 0.0,
            outage_fraction=float(outage[lane]),
            dropped_ratio=dropped_l / arrived_l if arrived_l > 0 else 0.0,
            mean_power_w=float(power_sum[lane]) / (n_slots_total * n_sbs),
            interference_mean=float(interference_sum[lane]) / n_slots_total,
            utility=float(utility[lane]), infeasible_slots=int(infeasible[lane]),
        ))
    return out


def run_episode(deploy: Deployment, method: str, phy: PhyParams, queue: QueueParams,
                *, n_periods: int, seed: int, solution: MfgSolution | None = None,
                dpp: DppParams = DppParams(), qos_min_rate_bps: float | None = None,
                slots_per_period: int = 100, initial_backlog: str = "empty",
                estimate_mode: str = "arithmetic", drain_window_slots: int = 40,
                replicate: int = 0) -> EpisodeMetrics:
    """Simulate one episode (replicate `replicate`) and return its metrics;
    run_episodes with one arm on one deployment."""
    return run_episodes(
        [deploy], [Arm(method, dpp)], phy, queue, n_periods=n_periods, seed=seed,
        replicates=[replicate], solution=solution,
        qos_min_rate_bps=qos_min_rate_bps, slots_per_period=slots_per_period,
        initial_backlog=initial_backlog, estimate_mode=estimate_mode,
        drain_window_slots=drain_window_slots)[0][0]


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
    """Mean and Student-t 95% half-width of each metric over the replicates.

    The t quantile comes from ``scipy.special.stdtrit``, the same function
    ``scipy.stats.t.ppf`` evaluates, so ``summary.csv`` keeps its bits
    without importing ``scipy.stats``.  It is imported here, where it runs:
    only ``simulate`` and ``sweep`` summarize, and importing
    ``scipy.special`` costs about 0.3 s and 25 MB that the solver, the
    episodes and the other commands do not need.
    """
    from scipy.special import stdtrit

    if not metrics:
        raise ConfigError("no replicates to summarize")
    n = len(metrics)
    out = ReplicationSummary(n=n)
    tcrit = float(stdtrit(n - 1, 0.975)) if n > 1 else 0.0
    for key in METRIC_FIELDS:
        vals = np.array([float(getattr(m, key)) for m in metrics])
        out.mean[key] = float(vals.mean())
        out.ci_half[key] = float(tcrit * vals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return out
