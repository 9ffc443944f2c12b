import dataclasses
import itertools
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import udnsim.simulate
from udnsim import (Arm, BaselineState, ConfigError, Deployment, DppParams, EpisodeMetrics,
                    EpisodeParams, GridSpec, PhyParams, QueueParams, generate_deployment,
                    load_config, run_episode, run_episodes, solve_mfg)
from udnsim.fields import initial_density
from udnsim.simulate import _fold_in_order, _sample_initial_backlog, derived_rng


def synthetic_deployment(n_sbs, k, gain_scale, noise=0.05, eta=0.0):
    n_ue = n_sbs * k
    gains = np.full((n_ue, n_sbs), gain_scale)
    return Deployment(
        sbs_xy=np.zeros((n_sbs, 2)), ue_xy=np.zeros((n_ue, 2)), gains=gains, eta=eta,
        noise_norm=noise, mean_serving_gain=1.0, k=k)


def metrics_tuple(m: EpisodeMetrics):
    return tuple(dataclasses.asdict(m).values())


def episode_of(n_periods, seed, **kw):
    """The EpisodeParams that run_episode builds from these keywords."""
    return EpisodeParams(n_periods=n_periods, base_seed=seed, **kw)


@pytest.fixture(scope="module")
def small_deploy(phy):
    return generate_deployment(12.5, 2, phy, seed=99)


@pytest.fixture(scope="module")
def uniform_solution(queue, small_solution):
    """An equilibrium on small_solution's grid and initial density under the
    uniform terminal, weakly coupled so that its policy is interior where
    small_solution's sits at the power cap."""
    sol = solve_mfg(small_solution.grid, PhyParams(sbs_density=0.05), queue, noise_norm=0.1,
                    boundary="uniform")
    assert sol.policy.max() < 1.0
    return sol


@pytest.mark.parametrize("method", ["mfg", "baseline"])
def test_bit_conservation_is_exact(small_deploy, phy, queue, small_solution, method):
    m = run_episode(small_deploy, method, phy, queue, n_periods=3, seed=11,
                    solution=small_solution, slots_per_period=20)
    assert m.arrived_bits - m.delivered_bits - m.dropped_bits == m.backlog_delta_bits
    assert m.arrived_bits > 0
    assert m.energy_j > 0
    assert 0.0 <= m.outage_fraction <= 1.0


def test_episode_determinism(small_deploy, phy, queue, small_solution):
    kw = dict(n_periods=2, seed=21, solution=small_solution, slots_per_period=10)
    a = run_episode(small_deploy, "mfg", phy, queue, **kw)
    b = run_episode(small_deploy, "mfg", phy, queue, **kw)
    c = run_episode(small_deploy, "mfg", phy, queue, replicate=1, **kw)
    assert metrics_tuple(a) == metrics_tuple(b)
    assert metrics_tuple(a) != metrics_tuple(c)


@pytest.mark.parametrize("method, bits, infeasible, energy", [
    ("baseline", (3600311, 2216299, 670639, 713373), 300, 13.130068521912682),
    ("mfg", (3600311, 2359585, 431325, 809401), 0, 17.999999999999982),
], ids=["baseline", "mfg"])
def test_episode_ledger_is_pinned(small_deploy, phy, small_solution, method, bits,
                                  infeasible, energy):
    """Exact ledgers of one small episode per method; the small buffer makes
    drops happen.  A change to the simulator's arithmetic or draw order
    shows here."""
    m = run_episode(small_deploy, method, phy, QueueParams(capacity_bits=60_000),
                    n_periods=4, seed=2024, solution=small_solution, slots_per_period=25)
    assert (m.arrived_bits, m.delivered_bits, m.dropped_bits, m.backlog_delta_bits) == bits
    assert m.infeasible_slots == infeasible
    assert m.energy_j == pytest.approx(energy, rel=1e-12)


def test_worker_side_batch_ledger_is_pinned(phy, small_solution):
    """Exact ledgers of a batch whose arrivals are drawn on the worker thread
    (605 UEs times 100 slots per replicate and period): three replicates, an
    mfg and a baseline arm, backlogs drawn from the density first.  A change
    to which generator feeds which replicate, or to the order of the draws,
    shows here."""
    deploys = [generate_deployment(3.5, 5, phy, seed=s) for s in (99, 100, 101)]
    episode = EpisodeParams(n_periods=3, slots_per_period=100, base_seed=2024,
                            initial_backlog="density")
    batch = run_episodes(deploys, [Arm("mfg", solution=small_solution), Arm("baseline")],
                         phy, QueueParams(capacity_bits=60_000), episode, replicates=[2, 0, 5])
    ledgers = [[(m.arrived_bits, m.delivered_bits, m.dropped_bits, m.backlog_delta_bits,
                 m.infeasible_slots) for m in metrics] for metrics in batch]
    assert ledgers == [
        [(362989891, 91162285, 260979844, 10847762, 0),
         (363003612, 91366758, 260643086, 10993768, 0),
         (363009015, 91211322, 261105760, 10691933, 0)],
        [(362989891, 89521436, 262288548, 11179907, 0),
         (363003612, 89576326, 262073593, 11353693, 0),
         (363009015, 89640672, 262349015, 11019328, 0)]]
    assert [m.energy_j for metrics in batch for m in metrics] == pytest.approx(
        [725.9999999999975] * 3 + [364.188694475717, 364.1206634678901, 364.45486722603624],
        rel=1e-12)


class Fault(Exception):
    pass


def _fail_on_call(fn, n, threads):
    """fn, raising Fault on its n-th call; each call's thread goes to threads."""
    calls = itertools.count(1)

    def wrapper(*args, **kwargs):
        threads.append(threading.current_thread())
        if next(calls) == n:
            raise Fault(f"call {n}")
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("fault", [None, "sample_arrivals", "queue_step"])
def test_arrival_worker_ends_with_the_call(phy, queue, monkeypatch, fault):
    """Above the threshold one worker thread draws the arrivals, and it is
    gone when run_episodes returns or raises: whether the second block's
    draw fails on the worker or a slot of period 2 fails on the caller, the
    call re-raises that error."""
    dep = synthetic_deployment(100, 1, gain_scale=0.5)
    spp = 250
    assert spp * dep.n_ue >= udnsim.simulate.PREFETCH_MIN_DRAWS
    fail_at = {"sample_arrivals": 2, "queue_step": 2 * spp + 1}
    threads = {name: [] for name in fail_at}
    for name, n in fail_at.items():
        monkeypatch.setattr(udnsim.simulate, name, _fail_on_call(
            getattr(udnsim.simulate, name), n if name == fault else 0, threads[name]))
    episode = EpisodeParams(n_periods=4, base_seed=1, slots_per_period=spp)
    before = threading.active_count()
    if fault:
        with pytest.raises(Fault, match=f"call {fail_at[fault]}"):
            run_episodes([dep], [Arm("baseline")], phy, queue, episode, replicates=[0])
    else:
        run_episodes([dep], [Arm("baseline")], phy, queue, episode, replicates=[0])
    assert threading.active_count() == before
    # every draw ran on the one worker, every slot on the caller's thread
    draws = threads["sample_arrivals"]
    assert len(set(draws)) == 1 and draws[0] is not threading.current_thread()
    assert set(threads["queue_step"]) == {threading.current_thread()}
    assert len(draws) == {None: 4, "sample_arrivals": 2, "queue_step": 4}[fault]


def test_validation_errors(small_deploy, phy, queue, small_solution):
    with pytest.raises(ConfigError):
        run_episode(small_deploy, "greedy", phy, queue, n_periods=1, seed=0)
    with pytest.raises(ConfigError):
        run_episode(small_deploy, "mfg", phy, queue, n_periods=1, seed=0)  # no solution
    with pytest.raises(ConfigError):
        run_episode(small_deploy, "baseline", phy, queue, n_periods=1, seed=0,
                    estimate_mode="kalman")
    with pytest.raises(ConfigError):
        run_episode(small_deploy, "baseline", phy, queue, n_periods=1, seed=0,
                    initial_backlog="full")


def test_dead_links_fill_to_capacity_exactly(phy):
    """Zero service: every queue fills to the wall and then drops the rest,
    so the bit ledger is known in closed form."""
    queue = QueueParams(capacity_bits=10_000)
    dep = synthetic_deployment(2, 1, gain_scale=1e-12)
    m = run_episode(dep, "baseline", phy, queue, n_periods=2, seed=5,
                    slots_per_period=25, qos_min_rate_bps=0.0)
    cap = 10_000
    assert m.delivered_bits == 0
    assert m.dropped_bits == m.arrived_bits - 2 * cap
    assert m.backlog_delta_bits == 2 * cap
    assert m.outage_fraction == 1.0
    assert m.ee_bits_per_j == 0.0


def test_infeasible_qos_counts_every_slot(phy, queue):
    dep = synthetic_deployment(1, 1, gain_scale=1e-12)
    m = run_episode(dep, "baseline", phy, queue, n_periods=2, seed=5,
                    slots_per_period=10, qos_min_rate_bps=50e6)
    assert m.infeasible_slots == 20
    assert m.mean_power_w == pytest.approx(phy.max_power_w)


def test_baseline_floor_has_one_rule_off_the_default_load():
    """At a rate sweep's 1e5 b/s, a run_episodes call that sets no QoS floor
    simulates the baseline that the config's qos_min_rate_bps, the floor the
    CLI passes, gives: the floor does not follow the arrival rate."""
    cfg = load_config(Path(__file__).parents[1] / "configs" / "smoke.cfg").with_value("rate", 1e5)
    assert cfg.queue.arrival_rate_bps != cfg.raw["scheduler"]["qos_min_rate_bps"]
    deploys = [generate_deployment(**cfg.raw["deployment"], phy=cfg.phy, pathloss=cfg.pathloss,
                                   seed=derived_rng(cfg.episode.base_seed, i, 0))
               for i in range(cfg.episode.n_replicates)]
    args = (deploys, [Arm("baseline")], cfg.phy, cfg.queue, cfg.episode)
    replicates = range(len(deploys))
    default = run_episodes(*args, replicates=replicates)[0]
    configured = run_episodes(*args, replicates=replicates,
                              qos_min_rate_bps=cfg.raw["scheduler"]["qos_min_rate_bps"])[0]
    assert [metrics_tuple(m) for m in default] == [metrics_tuple(m) for m in configured]


def test_corner_policy_energy_is_exact(phy, queue, small_solution):
    """The shared equilibrium pins power at the cap, so drawn energy is
    (p_max + circuit) per SBS per slot exactly."""
    assert small_solution.policy.min() == small_solution.policy.max() == 1.0
    dep = synthetic_deployment(3, 2, gain_scale=0.5, noise=0.1)
    n_periods, spp = 2, 15
    m = run_episode(dep, "mfg", phy, queue, n_periods=n_periods, seed=3,
                    solution=small_solution, slots_per_period=spp)
    expected = n_periods * spp * queue.slot_duration_s * 3 * (1.0 + 1.0)
    assert m.energy_j == pytest.approx(expected, rel=1e-12)
    assert m.mean_power_w == pytest.approx(1.0, rel=1e-12)


def test_density_initial_backlog(small_solution, rng):
    cap = 2_000_000
    draws = _sample_initial_backlog(small_solution, 4000, cap, rng)
    assert draws.dtype == np.int64
    assert draws.min() >= 0 and draws.max() <= cap
    grid = small_solution.grid
    target = float(np.trapezoid(grid.queues * small_solution.density[0], dx=grid.dq))
    assert draws.mean() / cap == pytest.approx(target, abs=0.02)


def test_derived_rng_streams_are_stable():
    a = derived_rng(7, 0, 1).integers(0, 1 << 30, 4)
    b = derived_rng(7, 0, 1).integers(0, 1 << 30, 4)
    c = derived_rng(7, 1, 1).integers(0, 1 << 30, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("start", ["empty", "density"])
@pytest.mark.parametrize("estimate_mode", ["arithmetic", "exponential"])
@pytest.mark.parametrize("method", ["mfg", "baseline"])
def test_batch_equals_single_episodes(phy, small_solution, method, estimate_mode, start):
    """A batch of three deployments gives each one exactly the metrics it
    gets alone; the small buffer makes drops happen."""
    deploys = [generate_deployment(12.5, 2, phy, seed=s) for s in (99, 100, 101)]
    assert len({d.noise_norm for d in deploys}) == 3
    queue = QueueParams(capacity_bits=60_000)
    kw = dict(n_periods=3, seed=2024, slots_per_period=15,
              estimate_mode=estimate_mode, initial_backlog=start)
    [batch] = run_episodes(deploys, [Arm(method, solution=small_solution)], phy, queue,
                           episode_of(**kw), replicates=[2, 0, 5])
    alone = [run_episode(d, method, phy, queue, solution=small_solution, replicate=r, **kw)
             for d, r in zip(deploys, (2, 0, 5))]
    assert batch == alone
    assert all(m.dropped_bits > 0 for m in batch)
    assert len({m.delivered_bits for m in batch}) == 3


@pytest.mark.parametrize("estimate_mode, start, isd, spp, worker", [
    *(pytest.param(mode, start, 12.5, 15, False, id=f"{mode}-{start}")
      for mode in ("arithmetic", "exponential") for start in ("empty", "density")),
    pytest.param("exponential", "density", 3.5, 100, True, id="exponential-density-worker"),
])
def test_arms_batch_equals_each_arm_alone(phy, small_solution, uniform_solution,
                                         estimate_mode, start, isd, spp, worker):
    """Two mfg arms at different V, an mfg arm on a second solution and the
    baseline share one lockstep batch: the baseline sits between mfg arms,
    and the second solution splits the first one's arms into two groups.
    Each (arm, replicate) lane gets exactly the metrics of running it alone,
    with the arrivals drawn inline or, for 121 SBSs, on the worker thread."""
    deploys = [generate_deployment(isd, 2, phy, seed=s) for s in (99, 100, 101)]
    assert (spp * deploys[0].n_ue >= udnsim.simulate.PREFETCH_MIN_DRAWS) == worker
    queue = QueueParams(capacity_bits=60_000)
    kw = dict(n_periods=3, seed=2024, slots_per_period=spp,
              estimate_mode=estimate_mode, initial_backlog=start)
    arms = [Arm("mfg", DppParams(-1.0), small_solution), Arm("baseline", solution=small_solution),
            Arm("mfg", DppParams(-1.0), uniform_solution),
            Arm("mfg", DppParams(-1e5), small_solution)]
    batch = run_episodes(deploys, arms, phy, queue, episode_of(**kw), replicates=[2, 0, 5])
    assert len(batch) == len(arms)
    for arm, metrics in zip(arms, batch):
        alone = [run_episode(d, arm.method, phy, queue, dpp=arm.dpp, solution=arm.solution,
                             replicate=r, **kw)
                 for d, r in zip(deploys, (2, 0, 5))]
        assert metrics == alone
    # the second solution reaches its lanes
    assert batch[2] != batch[0]
    # the arms differ, so a lane that read another arm's state would show
    assert len({tuple(metrics_tuple(m) for m in metrics) for metrics in batch}) == 4


@pytest.mark.parametrize("differ", ["initial density", "grid"])
def test_density_batch_needs_one_initial_density(small_deploy, phy, queue, small_solution,
                                                 differ):
    """A density-initialized batch draws every lane's backlog once, so the
    arms' solutions must share the grid and density[0]; an empty start
    reads neither."""
    if differ == "grid":
        other = dataclasses.replace(small_solution, grid=GridSpec(601, 21, horizon_s=0.5))
    else:
        density = small_solution.density.copy()
        density[0] = initial_density(small_solution.grid, 0.3, 0.1)
        other = dataclasses.replace(small_solution, density=density)
    arms = [Arm("mfg", solution=small_solution), Arm("mfg", solution=other)]
    kw = dict(n_periods=1, base_seed=0, slots_per_period=5)
    with pytest.raises(ConfigError, match="needs solutions of one grid"):
        run_episodes([small_deploy], arms, phy, queue,
                     EpisodeParams(initial_backlog="density", **kw), replicates=[0])
    run_episodes([small_deploy], arms, phy, queue,
                 EpisodeParams(initial_backlog="empty", **kw), replicates=[0])


def test_batch_reads_gains_from_each_deployment(phy, queue):
    """The kernel reads every replicate's gains from its own deployment and
    holds no stacked copy: a batch of four 121-SBS deployments allocates
    less than their gain matrices together (a copy alone would fill it)."""
    deploys = [generate_deployment(3.5, 5, phy, seed=s) for s in range(4)]
    episode = EpisodeParams(n_periods=1, base_seed=3, slots_per_period=2)
    run_episodes(deploys[:1], [Arm("baseline")], phy, queue, episode, replicates=[0])
    tracemalloc.start()
    try:
        run_episodes(deploys, [Arm("baseline")], phy, queue, episode, replicates=range(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sum(d.gains.nbytes for d in deploys)


def test_baseline_kernel_runs_the_tested_functions(small_deploy, phy, queue, small_solution,
                                                  uniform_solution, monkeypatch):
    """Per baseline group, the slot kernel takes the PF candidates' rates
    from baseline.myopic_power once per period and its power from
    baseline.drain_power once per slot; per mfg group, its power from
    fields.bilinear once per slot, whose candidates come from one
    scheduler.expected_rate per period.  It folds each slot into the
    baseline state with one BaselineState.observe, and every lane's queues
    move by one phy.queue_step per slot.  A mixed batch makes no more calls
    than its groups need."""
    calls = dict.fromkeys(("myopic_power", "drain_power", "bilinear", "expected_rate",
                           "observe", "queue_step"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("myopic_power", "drain_power", "bilinear", "expected_rate", "queue_step"):
        monkeypatch.setattr(udnsim.simulate, name, counted(name, getattr(udnsim.simulate, name)))
    monkeypatch.setattr(BaselineState, "observe", counted("observe", BaselineState.observe))
    n_periods, spp = 3, 7
    episode = EpisodeParams(n_periods=n_periods, base_seed=5, slots_per_period=spp)
    # the second solution splits the mfg arms into two groups
    mixed = [Arm("mfg", solution=small_solution), Arm("baseline"),
             Arm("mfg", solution=uniform_solution)]
    for arms, n_mfg_groups in (([Arm("baseline")], 0), (mixed, 2)):
        calls.update(dict.fromkeys(calls, 0))
        run_episodes([small_deploy] * 2, arms, phy, queue, episode, replicates=[0, 1])
        assert calls == {"myopic_power": n_periods, "drain_power": n_periods * spp,
                         "bilinear": n_mfg_groups * n_periods * spp,
                         "expected_rate": n_mfg_groups * n_periods,
                         "observe": n_periods * spp, "queue_step": n_periods * spp}


def test_fold_in_order_matches_slot_loop(rng):
    """Per-UE float sums round as one += per slot does; the values span 16
    decades, so any other order of the adds rounds differently."""
    start = 10.0 ** rng.uniform(-8, 8, 40)
    index = rng.permutation(40)[:12].reshape(3, 4)
    rows = 10.0 ** rng.uniform(-8, 8, (25, 3, 4))
    loop, backwards = start.copy(), start.copy()
    for row in rows:
        loop[index] += row
    for row in rows[::-1]:
        backwards[index] += row
    assert not np.array_equal(backwards, loop)
    total = start.copy()
    _fold_in_order(total, index, rows)
    assert total.tolist() == loop.tolist()


@pytest.mark.parametrize("field, value", [
    ("n_periods", 0), ("slots_per_period", 0), ("n_replicates", 0), ("drain_window_slots", 0),
    ("base_seed", -1), ("estimate_mode", "kalman"), ("initial_backlog", "full"),
])
def test_episode_params_checks(field, value):
    """The record holds every range and choice check of its settings, so a
    batch never sees a bad one."""
    with pytest.raises(ConfigError, match=field):
        EpisodeParams(**{field: value})


def test_batch_validation(small_deploy, phy, queue):
    episode, base = EpisodeParams(n_periods=1, base_seed=0), [Arm("baseline")]
    with pytest.raises(ConfigError):
        run_episode(small_deploy, "baseline", phy, queue, n_periods=0, seed=0)
    with pytest.raises(ConfigError):
        run_episode(small_deploy, "baseline", phy, queue, n_periods=1, seed=0,
                    slots_per_period=0)
    with pytest.raises(ConfigError):
        run_episode(small_deploy, "baseline", phy, queue, n_periods=1, seed=0,
                    drain_window_slots=0)
    with pytest.raises(ConfigError):  # one replicate index per deployment
        run_episodes([small_deploy] * 2, base, phy, queue, episode, replicates=[0])
    with pytest.raises(ConfigError):  # one shape per batch
        run_episodes([small_deploy, synthetic_deployment(2, 2, gain_scale=0.5)],
                     base, phy, queue, episode, replicates=[0, 1])
    with pytest.raises(ConfigError):  # at least one arm
        run_episodes([small_deploy], [], phy, queue, episode, replicates=[0])
    with pytest.raises(ConfigError):  # every arm is checked, not only the first
        run_episodes([small_deploy], base + [Arm("mfg")], phy, queue, episode, replicates=[0])
