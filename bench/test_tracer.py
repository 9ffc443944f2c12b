"""Tests of the benchmark's span accounting and layer patching.

Run from the repository root:  python -m pytest bench
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Layer, Tracer, totals, wrapped_names  # noqa: E402

import udnsim  # noqa: E402

TOL = 1e-9


class StepClock:
    """A clock that advances by one unit on every read."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def assert_accounting(tracer):
    for idx, span in enumerate(tracer.spans):
        children = [s for s in tracer.spans if s.parent == idx]
        assert span.self_s >= -TOL, span
        assert sum(c.duration for c in children) <= span.duration + TOL, span
        assert span.self_s == pytest.approx(span.duration - sum(c.duration for c in children))
        for c in children:
            assert span.start <= c.start and c.end <= span.end


@pytest.fixture()
def fakepkg(monkeypatch):
    """fakepkg.inner defines leaf(); fakepkg.outer imports it by name."""
    pkg = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")
    outer = types.ModuleType("fakepkg.outer")

    exec("def leaf(x):\n"
         "    if x < 0:\n"
         "        raise ValueError('negative')\n"
         "    return 2 * x\n", vars(inner))
    outer.leaf = inner.leaf
    exec("def mid(x):\n    return leaf(x) + leaf(x + 1)\n", vars(outer))
    for mod in (pkg, inner, outer):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return pkg, inner, outer


FAKE_LAYERS = (
    Layer("fakepkg.inner", "leaf", "leaf", before=lambda a, k: {"elements": a[0]}),
    Layer("fakepkg.outer", "mid", "mid"),
)


def test_self_times_nonnegative_and_children_within_parent(fakepkg):
    _, inner, outer = fakepkg
    tr = Tracer(clock=StepClock())
    with tr.installed(FAKE_LAYERS, package="fakepkg"):
        assert outer.mid(3) == 14
    names = [s.name for s in tr.spans]
    assert names == ["mid", "leaf", "leaf"]
    assert [s.parent for s in tr.spans] == [-1, 0, 0]
    assert tr.spans[0].duration == 5.0 and tr.spans[0].self_s == 3.0
    assert_accounting(tr)
    t = totals(tr, "mid")
    assert t["leaf"].calls == 2 and t["leaf"].counts["elements"] == 7


def test_uninstall_restores_every_importer(fakepkg):
    _, inner, outer = fakepkg
    original = inner.leaf
    tr = Tracer()
    tr.install(FAKE_LAYERS, package="fakepkg")
    assert inner.leaf is not original and outer.leaf is inner.leaf
    assert wrapped_names("fakepkg") == ["fakepkg.inner.leaf", "fakepkg.outer.leaf",
                                        "fakepkg.outer.mid"]
    with pytest.raises(RuntimeError):
        tr.install(FAKE_LAYERS, package="fakepkg")
    tr.uninstall(package="fakepkg")
    assert inner.leaf is original and outer.leaf is original
    assert wrapped_names("fakepkg") == []


def test_raising_call_still_closes_its_span(fakepkg):
    _, _, outer = fakepkg
    tr = Tracer(clock=StepClock())
    with tr.installed(FAKE_LAYERS, package="fakepkg"):
        with pytest.raises(ValueError):
            outer.mid(-5)
        assert outer.mid(1) == 6
    assert all(s.end == s.end for s in tr.spans)  # no span left open (nan)
    assert [s.parent for s in tr.spans] == [-1, 0, -1, 2, 2]
    assert_accounting(tr)


def test_out_of_order_close_is_an_error():
    tr = Tracer()
    a = tr.open("a")
    tr.open("b")
    with pytest.raises(RuntimeError):
        tr.close(a)


def test_per_pass_figures_add_setup_to_the_mean_pass(fakepkg):
    _, _, outer = fakepkg
    tr = Tracer(clock=StepClock())
    with tr.installed(FAKE_LAYERS, package="fakepkg"):
        with tr.span(layers.SETUP):
            outer.mid(1)
        for _ in range(2):
            with tr.span(layers.PASS):
                outer.mid(1)
                outer.mid(1)
    t_setup = totals(tr, layers.SETUP)
    t_pass = totals(tr, layers.PASS)
    assert t_setup["mid"].calls == 1 and t_pass["mid"].calls == 4
    assert t_pass["leaf"].self_s == 8.0  # each leaf span opens and closes: 1 unit


def test_udnsim_layers_nest_and_account():
    """A small solve and one short MFG episode: power_opt runs inside
    hjb_backward, bilinear inside expected_rate, and no time is lost."""
    phy, queue = udnsim.PhyParams(), udnsim.QueueParams()
    tr = Tracer()
    with tr.installed(layers.LAYERS):
        sol = udnsim.solve_mfg(udnsim.GridSpec(601, 21), phy, queue, noise_norm=0.1)
        dep = udnsim.generate_deployment(12.5, 2, phy, seed=3)
        m = udnsim.run_episode(dep, "mfg", phy, queue, n_periods=1, seed=3,
                               solution=sol, slots_per_period=5)
        b = udnsim.run_episode(dep, "baseline", phy, queue, n_periods=1, seed=3,
                               slots_per_period=5)
    assert wrapped_names() == []
    assert udnsim.solver.maximize_rate_value is udnsim.power_opt.maximize_rate_value
    assert_accounting(tr)
    by_name = {}
    for s in tr.spans:
        by_name.setdefault(s.name, []).append(s)
    parent = {name: {tr.spans[s.parent].name for s in spans}
              for name, spans in by_name.items() if all(s.parent >= 0 for s in spans)}
    assert parent["power_opt.hjb"] == {"solver.hjb_backward"}
    assert parent["solver.hjb_backward"] == {"solver.solve_mfg"}
    assert parent["power_opt.ee"] == {"simulate.run_episode"}
    assert parent["scheduler.dpp_step"] == {"simulate.run_episode"}
    assert {"scheduler.expected_rate", "simulate.run_episode"} <= parent["fields.bilinear"]
    assert len(by_name["solver.hjb_backward"]) == sol.iterations
    assert by_name["simulate.run_episode"][0].attrs["sbs_slots"] == 5 * dep.n_sbs
    assert workloads.check_episode(m, phy, queue, 5) == []
    assert workloads.check_episode(b, phy, queue, 5) == []
    assert workloads.check_solution(sol, 1e-4) == []


def test_benchmark_json_matches_the_definitions():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        committed = json.load(fh)
    assert committed == run.spec(workloads.WORKLOADS.values(), layers.UNITS)


def test_broken_episode_fails_its_check():
    phy, queue = udnsim.PhyParams(), udnsim.QueueParams()
    m = udnsim.simulate.EpisodeMetrics(method="baseline", seed=0, n_periods=1, n_sbs=2,
                                       n_ue=2, arrived_bits=10, delivered_bits=4,
                                       dropped_bits=0, backlog_delta_bits=5,
                                       energy_j=0.01, outage_fraction=1.5,
                                       ee_bits_per_j=np.inf)
    problems = workloads.check_episode(m, phy, queue, 100)
    assert len(problems) == 4


def test_probe_rescales_by_the_median_kernel_time_in_the_interval():
    p = probe.SpeedProbe()
    p.times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    p.kernel_s = [probe.REF_S * f for f in (1.0, 2.0, 2.0, 2.0, 9.0, 1.0, 1.0)]
    assert p.slowdown(0.5, 4.5) == pytest.approx(2.0)
    assert p.corrected(0.5, 4.5) == pytest.approx(2.0)
    # fewer than three samples inside: the two nearest on each side join
    assert p.slowdown(5.5, 5.6) == pytest.approx(1.0)
    with pytest.raises(RuntimeError):
        probe.SpeedProbe().slowdown(0.0, 1.0)


def test_probe_samples_while_running_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    p = probe.SpeedProbe()
    p.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
    finally:
        p.stop()
    assert len(p.times) >= 3 and p.times == sorted(p.times)
    assert signal.getsignal(signal.SIGALRM) == before
