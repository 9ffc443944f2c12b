import dataclasses

import numpy as np
import pytest
import scipy.stats

import udnsim.simulate
from udnsim import (Arm, BaselineState, ConfigError, Deployment, DppParams, EpisodeMetrics,
                    PhyParams, QueueParams, generate_deployment, run_episode, run_episodes)
from udnsim.simulate import (METRIC_FIELDS, _fold_in_order, _sample_initial_backlog,
                             derived_rng, summarize_replications)


def synthetic_deployment(n_sbs, k, gain_scale, noise=0.05, eta=0.0):
    n_ue = n_sbs * k
    gains = np.full((n_ue, n_sbs), gain_scale)
    return Deployment(
        sbs_xy=np.zeros((n_sbs, 2)), ue_xy=np.zeros((n_ue, 2)),
        serving=np.repeat(np.arange(n_sbs), k), gains=gains, eta=eta,
        noise_norm=noise, mean_serving_gain=1.0, isd_units=1.0, k=k,
        area_km2=1.0)


def metrics_tuple(m: EpisodeMetrics):
    return tuple(dataclasses.asdict(m).values())


@pytest.fixture(scope="module")
def small_deploy(phy):
    return generate_deployment(12.5, 2, phy, seed=99)


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
    kw = dict(n_periods=3, seed=2024, solution=small_solution, slots_per_period=15,
              estimate_mode=estimate_mode, initial_backlog=start)
    [batch] = run_episodes(deploys, [Arm(method)], phy, queue, replicates=[2, 0, 5], **kw)
    alone = [run_episode(d, method, phy, queue, replicate=r, **kw)
             for d, r in zip(deploys, (2, 0, 5))]
    assert batch == alone
    assert all(m.dropped_bits > 0 for m in batch)
    assert len({m.delivered_bits for m in batch}) == 3


@pytest.mark.parametrize("start", ["empty", "density"])
@pytest.mark.parametrize("estimate_mode", ["arithmetic", "exponential"])
def test_arms_batch_equals_each_arm_alone(phy, small_solution, estimate_mode, start):
    """Two mfg arms at different V and the baseline share one lockstep
    batch (the baseline between them, so the lanes are reordered), and each
    (arm, replicate) lane gets exactly the metrics of running it alone."""
    deploys = [generate_deployment(12.5, 2, phy, seed=s) for s in (99, 100, 101)]
    queue = QueueParams(capacity_bits=60_000)
    kw = dict(n_periods=3, seed=2024, solution=small_solution, slots_per_period=15,
              estimate_mode=estimate_mode, initial_backlog=start)
    arms = [Arm("mfg", DppParams(-1.0)), Arm("baseline"), Arm("mfg", DppParams(-1e5))]
    batch = run_episodes(deploys, arms, phy, queue, replicates=[2, 0, 5], **kw)
    assert len(batch) == len(arms)
    for arm, metrics in zip(arms, batch):
        alone = [run_episode(d, arm.method, phy, queue, dpp=arm.dpp, replicate=r, **kw)
                 for d, r in zip(deploys, (2, 0, 5))]
        assert metrics == alone
    # the arms differ, so a lane that read another arm's state would show
    assert len({tuple(metrics_tuple(m) for m in metrics) for metrics in batch}) == 3


def test_baseline_kernel_runs_the_tested_functions(small_deploy, phy, queue, monkeypatch):
    """The slot kernel's baseline takes its power from baseline.myopic_power,
    once per period for the PF candidates and once per slot, and folds each
    slot into its state with one BaselineState.observe."""
    calls = {"myopic_power": 0, "observe": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(udnsim.simulate, "myopic_power",
                        counted("myopic_power", udnsim.simulate.myopic_power))
    monkeypatch.setattr(BaselineState, "observe", counted("observe", BaselineState.observe))
    n_periods, spp = 3, 7
    run_episodes([small_deploy] * 2, [Arm("baseline")], phy, queue, n_periods=n_periods,
                 seed=5, replicates=[0, 1], slots_per_period=spp)
    assert calls == {"myopic_power": n_periods + n_periods * spp,
                     "observe": n_periods * spp}


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


def test_batch_validation(small_deploy, phy, queue):
    kw = dict(seed=0, replicates=[0])
    base = [Arm("baseline")]
    with pytest.raises(ConfigError):
        run_episodes([small_deploy], base, phy, queue, n_periods=0, **kw)
    with pytest.raises(ConfigError):
        run_episodes([small_deploy], base, phy, queue, n_periods=1,
                     slots_per_period=0, **kw)
    with pytest.raises(ConfigError):
        run_episode(small_deploy, "baseline", phy, queue, n_periods=1, seed=0,
                    slots_per_period=0)
    with pytest.raises(ConfigError):  # one replicate index per deployment
        run_episodes([small_deploy] * 2, base, phy, queue, n_periods=1, **kw)
    with pytest.raises(ConfigError):  # one shape per batch
        run_episodes([small_deploy, synthetic_deployment(2, 2, gain_scale=0.5)],
                     base, phy, queue, n_periods=1, seed=0, replicates=[0, 1])
    with pytest.raises(ConfigError):  # at least one arm
        run_episodes([small_deploy], [], phy, queue, n_periods=1, **kw)
    with pytest.raises(ConfigError):  # every arm is checked, not only the first
        run_episodes([small_deploy], base + [Arm("mfg")], phy, queue, n_periods=1, **kw)


@pytest.mark.parametrize("n", [2, 3, 20, 1000])
def test_summary_confidence_interval(n):
    vals = 1.0 + np.arange(n) ** 1.5 / n
    rows = []
    for v in vals:
        m = EpisodeMetrics(method="x", seed=0, n_periods=1, n_sbs=1, n_ue=1)
        for key in METRIC_FIELDS:
            setattr(m, key, float(v))
        rows.append(m)
    s = summarize_replications(rows)
    # summary.csv carries this value, so it must equal the t.ppf expression
    tcrit = float(scipy.stats.t.ppf(0.975, n - 1))
    ci_half = float(tcrit * vals.std(ddof=1) / np.sqrt(n))
    for key in METRIC_FIELDS:
        assert s.mean[key] == pytest.approx(vals.mean(), rel=1e-12)
        assert s.ci_half[key] == ci_half
        assert s.lo(key) == pytest.approx(s.mean[key] - ci_half)
        assert s.hi(key) == pytest.approx(s.mean[key] + ci_half)
    with pytest.raises(ConfigError):
        summarize_replications([])
