"""Two-timescale episode simulation: one EpisodeMetrics per episode.

Scheduling decisions happen once per period; power, transmission,
interference and queue dynamics run every slot.  An ``EpisodeParams`` (the
[simulate] section) sets an episode's periods and slots per period, its base
seed, the baseline's estimate and drain window, and how the queues start.
All SBSs move simultaneously within a slot: powers are fixed first, then
every scheduled UE sees the interference of that joint choice.  Bits are
integers end to end, so arrivals, service, drops and backlog balance exactly.

The slot kernel runs L lanes in lockstep.  A lane is an (arm, replicate)
pair: an arm is a method with its scheduler parameters, and a replicate is
one of R deployments of one (n_sbs, k) shape, with its own normalized noise
and its own traffic stream.  Lane a * R + r runs arm a on replicate r, the
mfg arms first, so each method's lanes are one slice.  Each replicate's
arrivals are drawn once per period into a (slots, R * n_ue) block that every
arm reads by broadcast, and every arm reads its link gains from the
replicate's own deployment, so no gain matrix is copied.
Per-UE state is one flat vector in which UE u of lane l sits at l * n_ue +
u, and the UEs of SBS b are u = b * k .. b * k + k - 1, so reshaping it
gives the (L, n_sbs, k) view that the period step works on; the queues are
kept as its (arms, R * n_ue) view, against which a slot's arrival row
broadcasts.  The UEs scheduled for a period are one (L, n_sbs) array of
flat indices l * n_ue + b * k + local, which gathers and scatters every
per-lane slot value with one index; modulo n_ue they are the UEs' numbers
in their own deployment.  The cross gains of a period are an (L, n_sbs,
n_sbs) stack whose row b holds the gains at b's scheduled UE, filled one
replicate at a time from that replicate's gain matrix, and the interference
is one batched matrix-vector product over it.

The kernel holds no physics of its own; it calls the tested functions
once per slot or period on these batched arrays, each method on its own
slice of lanes and everything else once over all of them:

- every slot: ``phy.instantaneous_rate`` (in each deployment's normalized
  units) and ``phy.queue_step``, which serves the bits a link offers,
  floor(rate * dt) for a scheduled UE and 0 for the others; once per period
  ``phy.sample_arrivals`` draws each replicate's arrivals, one row per
  slot, the same stream as one draw per slot (see below for the thread);
- mfg: ``fields.bilinear`` for the slot power and, once per period,
  ``scheduler.expected_rate`` at the period start, each once per run of
  arms that play one solution, and ``scheduler.dpp_step`` (one V per lane);
- baseline: ``baseline.myopic_power`` and ``baseline.drain_power`` for the
  slot power and ``BaselineState.observe`` after it, and once per period
  ``baseline.myopic_power`` (the candidates' rates) and
  ``baseline.pf_schedule``.

Every lane's metrics equal those of running its arm and replicate alone,
bit for bit.  Elementwise steps and the per-lane matrix-vector products do
not mix lanes, and float sums keep the order of a slot-by-slot loop: slot
values go into per-period rows, and ``np.add.accumulate`` (which adds
strictly in row order, unlike the pairwise ``sum``) folds each period into
running per-UE and per-lane totals.  Integer ledgers are exact in any order.

Where a replicate's period of arrivals, slots_per_period * n_ue draws, is
at least PREFETCH_MIN_DRAWS (20 000), one worker thread draws period p + 1's
block while the slots of period p run: two blocks take turns, and at the
start of period p the kernel collects block p and submits block p + 1.
``Generator.poisson`` releases the GIL while it fills its array, so the
draws take a second core.  Below the constant the thread's handoffs cost
more than the overlap saves, and one block is drawn inline at each period's
start.  Either way each replicate's block comes from its own generator, the
replicates in order, and the first block is drawn only after the initial
backlogs have drawn from those generators, so every output is the same on
both sides.  The worker's pool lives inside run_episodes: an error on either
thread reaches the caller, and no thread outlives the call.  The worker calls
only ``phy.sample_arrivals``; no layer that ``bench/tracer.py`` wraps may run
on it, because the tracer takes calls to be strictly nested on one thread.

Energy accounting matches the solver's utility ln(1 + beta p) / (p + p0):
every scheduled SBS radiates its chosen power p for the whole slot, so a
slot costs (p + p0) * dt per SBS whatever the buffer delivers.  Circuit
power accrues every second whether or not anything is sent, so an episode
costs at least n_sbs * p0 * duration Joules.  Rates and the interference
measurements take the same view: all concurrent transmissions overlap for
the full slot.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .baseline import ESTIMATE_MODES, BaselineState, drain_power, myopic_power, pf_schedule
from .deployment import Deployment
from .errors import ConfigError
from .fields import MfgSolution, bilinear
from .phy import PhyParams, QueueParams, instantaneous_rate, queue_step, sample_arrivals
from .scheduler import DppParams, SchedulerState, dpp_step, expected_rate

METHODS = ("mfg", "baseline")
INITIAL_BACKLOGS = ("empty", "density")
# a replicate's period of arrivals, slots_per_period * n_ue Poisson draws,
# is drawn on a worker thread from this many up: below about 1e4 the
# thread's handoffs cost more than the overlap saves, from 6e4 it wins, and
# in between the two are even (the sweep in BENCH_arrival_prefetch.json)
PREFETCH_MIN_DRAWS = 20_000


@dataclass(frozen=True)
class EpisodeParams:
    """The [simulate] section: episode length, replicates and base seed, the
    baseline's interference estimate and drain window, the queues' start."""

    n_periods: int = 30
    slots_per_period: int = 100
    n_replicates: int = 20
    base_seed: int = 20240
    estimate_mode: str = "arithmetic"
    initial_backlog: str = "empty"
    drain_window_slots: int = 40

    def __post_init__(self):
        if min(self.n_periods, self.slots_per_period, self.n_replicates,
               self.drain_window_slots) < 1 or self.base_seed < 0:
            raise ConfigError("n_periods, slots_per_period, n_replicates and "
                              "drain_window_slots must be at least 1 and base_seed nonnegative")
        for name, choices in (("estimate_mode", ESTIMATE_MODES),
                              ("initial_backlog", INITIAL_BACKLOGS)):
            if getattr(self, name) not in choices:
                raise ConfigError(f"{name} must be one of {choices}, got {getattr(self, name)!r}")


@dataclass
class EpisodeMetrics:
    method: str
    seed: int
    n_periods: int
    n_sbs: int
    n_ue: int
    replicate: int = 0
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
    """Deterministic child stream: (base seed, replicate index, stream tag).
    Stream 0 draws a replicate's deployment, stream 1 its traffic."""
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


def _draw_arrivals(traffic: list[np.random.Generator], queue: QueueParams,
                   block: np.ndarray) -> np.ndarray:
    """Fill block, (slots, R * n_ue), with one period of arrivals: replicate
    r's UEs from traffic[r], the replicates in order, each the same stream
    as one draw per slot."""
    per_replicate = block.reshape(len(block), len(traffic), -1)
    for r, rng in enumerate(traffic):
        per_replicate[:, r] = sample_arrivals(rng, queue, per_replicate[:, r].shape)
    return block


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
    """One policy of a batch: a method and, for mfg, its scheduler
    parameters and the solution it plays (any arm's seeds a density start)."""

    method: str
    dpp: DppParams = DppParams()
    solution: MfgSolution | None = None


def run_episodes(deploys: list[Deployment], arms, phy: PhyParams, queue: QueueParams,
                 episode: EpisodeParams, *, replicates,
                 qos_min_rate_bps: float | None = None) -> list[list[EpisodeMetrics]]:
    """Simulate every arm on every deployment, all in lockstep, and return
    one list of metrics per arm, in the order of arms and deploys.

    deploys[i] runs as replicate replicates[i], whose traffic (and density
    draw) comes from derived_rng(episode.base_seed, replicates[i], 1) and is
    drawn once for all arms; every deployment must have the same n_sbs and
    k.  Each mfg arm plays its own solution.  Each episode's metrics equal
    those of running its arm and replicate alone.  episode.n_replicates is
    not read: the caller draws the deployments.

    With episode.initial_backlog 'density' each UE's backlog is sampled
    from the initial density of the arms' solutions, which must share it and
    the grid (mean-field consistency checks want the simulated population to
    start where the solver's density starts).
    """
    arms = list(arms)
    if not arms:
        raise ConfigError("a batch needs at least one arm")
    for arm in arms:
        if arm.method not in METHODS:
            raise ConfigError(f"unknown method {arm.method!r}")
        if arm.method == "mfg" and arm.solution is None:
            raise ConfigError("the mfg method needs a solved policy")
    replicates = list(replicates)
    if not deploys or len(replicates) != len(deploys):
        raise ConfigError("give one replicate index per deployment, at least one")
    n_sbs, k = deploys[0].n_sbs, deploys[0].k
    if any((d.n_sbs, d.k) != (n_sbs, k) for d in deploys):
        raise ConfigError("the deployments of one batch must share n_sbs and k")
    if qos_min_rate_bps is None:
        qos_min_rate_bps = queue.arrival_rate_bps

    n_rep, n_ue, spp = len(deploys), n_sbs * k, episode.slots_per_period
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
    noise = np.tile([d.noise_norm for d in deploys], n_arm)[:, None]
    cap = int(queue.capacity_bits)
    dt = queue.slot_duration_s
    # flat index of UE (b, 0) of lane l, shape (n_lane, n_sbs)
    lane_base = np.arange(n_lane)[:, None] * n_ue + np.arange(n_sbs) * k

    traffic = [derived_rng(episode.base_seed, r, 1) for r in replicates]
    if episode.initial_backlog == "density":
        sols = [arm.solution for arm in arms if arm.solution is not None]
        if not sols or any(s.grid != sols[0].grid
                           or not np.array_equal(s.density[0], sols[0].density[0]) for s in sols):
            raise ConfigError("initial_backlog=density needs solutions of one grid and density[0]")
        queues = np.tile(np.concatenate([_sample_initial_backlog(sols[0], n_ue, cap, rng)
                                         for rng in traffic]), (n_arm, 1))
    else:
        queues = np.zeros((n_arm, n_rep_ue), dtype=np.int64)
    backlog_start = queues.reshape(n_lane, n_ue).sum(axis=1)

    runs, stop = [], 0   # (lanes, solution) per run of adjacent mfg arms on one solution
    for _, run in groupby([arms[a].solution for a in order[:n_mfg // n_rep]], key=id):
        run = list(run)
        runs.append((slice(stop, stop + len(run) * n_rep), run[0]))
        stop += len(run) * n_rep
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
    offered = np.zeros(n_lane * n_ue, dtype=np.int64)        # nonzero on lanes only
    offered_by_arm = offered.reshape(n_arm, n_rep_ue)
    local = np.empty((n_lane, n_sbs), dtype=np.intp)         # scheduled UE per SBS
    # per-slot values: one row per slot of the period, or of the episode
    power_rows = np.empty((spp, n_lane, n_sbs))
    interference_rows = np.empty((spp, n_lane, n_sbs))
    served_rows = np.empty((spp, n_lane, n_sbs), dtype=np.int64)
    infeasible_rows = np.zeros((spp, n_lane, n_sbs), dtype=bool)
    energy, power_sum, interference_sum = np.zeros((3, n_lane))  # per-lane running totals
    # the cross gains of a period, refilled in place: row b of lane l holds
    # the gains at b's scheduled UE
    g_cross = np.empty((n_lane, n_sbs, n_sbs))

    # each period's arrivals, drawn once for every arm: inline, or on the
    # worker into the block that the period before did not read
    prefetch = spp * n_ue >= PREFETCH_MIN_DRAWS
    blocks = np.empty((1 + prefetch, spp, n_rep_ue), dtype=np.int64)
    with ThreadPoolExecutor(max_workers=1) if prefetch else nullcontext() as pool:
        if pool:
            pending = pool.submit(_draw_arrivals, traffic, queue, blocks[0])
        for period in range(episode.n_periods):
            if pool:
                arrivals = pending.result()
                if period + 1 < episode.n_periods:
                    pending = pool.submit(_draw_arrivals, traffic, queue, blocks[(period + 1) % 2])
            else:
                arrivals = _draw_arrivals(traffic, queue, blocks[0])
            # --- slow timescale: pick one UE per SBS for the whole period
            cells = queues.reshape(n_lane, n_sbs, k)
            if n_mfg:
                p_cand, r_bps = map(np.concatenate, zip(*(
                    expected_rate(sol, cells[run] / cap, serving_gain[run], phy)
                    for run, sol in runs)))
                local[mfg] = dpp_step(dpp_state, cells[mfg], r_bps, p_cand, phy, dpp)
            if n_base:
                beta = serving_gain[base] / (pf_state.interference_est[..., None]
                                             + base_noise[..., None])
                cand = myopic_power(beta, qos_min_rate_bps, phy)[1]
                local[base] = pf_schedule(cand, pf_state.rate_avg)
            lanes = lane_base + local
            sched_periods[lanes] += 1
            # lane a * n_rep + r reads replicate r's gains, at its UEs' own numbers
            for r, d in enumerate(deploys):
                d.gains.take(lanes[r::n_rep] % n_ue, axis=0, out=g_cross[r::n_rep])
            g_own = np.diagonal(g_cross, axis1=1, axis2=2).copy()
            if n_base:
                base_lanes, base_g_own = lanes[base], g_own[base]

            # --- fast timescale
            for s in range(spp):
                own_bits = queues.take(lanes)
                # every scheduled SBS radiates its power for the full slot
                powers = power_rows[s]
                for run, sol in runs:
                    powers[run] = bilinear(sol.grid, sol.policy, s * dt, own_bits[run] / cap)
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
                        (spp - s) * dt, episode.drain_window_slots * dt, phy, floor_w)

                interference = np.subtract((g_cross @ powers[..., None])[..., 0], g_own * powers,
                                           out=interference_rows[s])
                rate = instantaneous_rate(powers, g_own, interference, phy, noise)
                offered[lanes] = (rate * dt).astype(np.int64)
                # (arms, replicate UEs) against the replicates' arrivals
                queues, served, dropped = queue_step(queues, arrivals[s], offered_by_arm, queue)
                served.take(lanes, out=served_rows[s])
                dropped_per_ue += dropped

                if n_base:
                    achieved[base_lanes] = pot_rate
                    pf_state.observe(interference[base], base_achieved, episode.estimate_mode)

            offered[lanes] = 0
            if n_base:
                achieved[base_lanes] = 0
            radiated = power_rows.sum(axis=2)
            _fold_in_order(energy, ..., (radiated + n_sbs * phy.circuit_power_w) * dt)
            _fold_in_order(power_sum, ..., radiated)
            _fold_in_order(interference_sum, ..., interference_rows.mean(axis=2))
            arrived += np.tile(arrivals.reshape(spp, n_rep, n_ue).sum(axis=(0, 2)), n_arm)
            delivered += served_rows.sum(axis=(0, 2))
            infeasible += infeasible_rows.sum(axis=(0, 2))
            _fold_in_order(sched_rate_hz, lanes, served_rows, dt * phy.bandwidth_hz)
            _fold_in_order(sched_power, lanes, power_rows)

    n_slots_total = episode.n_periods * spp
    sched_slots = sched_periods * spp
    share = sched_periods / episode.n_periods
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
            method=arms[arm].method, seed=episode.base_seed, replicate=replicates[lane % n_rep],
            n_periods=episode.n_periods, n_sbs=n_sbs, n_ue=n_ue,
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
                slots_per_period: int = EpisodeParams.slots_per_period,
                initial_backlog: str = EpisodeParams.initial_backlog,
                estimate_mode: str = EpisodeParams.estimate_mode,
                drain_window_slots: int = EpisodeParams.drain_window_slots,
                replicate: int = 0) -> EpisodeMetrics:
    """Simulate one episode (replicate `replicate`) and return its metrics;
    run_episodes with one arm on one deployment, seed as the base seed."""
    episode = EpisodeParams(n_periods, slots_per_period, base_seed=seed,
                            estimate_mode=estimate_mode, initial_backlog=initial_backlog,
                            drain_window_slots=drain_window_slots)
    return run_episodes([deploy], [Arm(method, dpp, solution)], phy, queue, episode,
                        replicates=[replicate], qos_min_rate_bps=qos_min_rate_bps)[0][0]


METRIC_FIELDS = ("ee_bits_per_j", "outage_fraction", "dropped_ratio",
                 "mean_power_w", "interference_mean", "utility", "energy_j",
                 "delivered_bits")

