"""The udnsim layers the traced run times, and the per-layer metrics.

Each layer is a public function; see tracer.py for how it is wrapped.  The
per-layer figures describe one run made of the set-up plus one pass: span
totals under the set-up are taken as they are, and span totals under the
traced passes are divided by the number of traced passes.  Every pass of a
workload does the same amount of work, so call and element counts come out
exact.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import statistics

import numpy as np

from tracer import Layer, Tracer, totals

SETUP = "bench.setup"
PASS = "bench.pass"


def _power_opt_name(args, kwargs):
    # vgrad = 0 is the pure energy-efficiency case (baseline and myopic
    # power); any nonzero value gradient is the HJB case.
    vgrad = args[1] if len(args) > 1 else kwargs["vgrad"]
    return "power_opt.ee" if not np.any(vgrad) else "power_opt.hjb"


def _power_opt_elements(args, kwargs):
    names = ("beta", "vgrad", "lo", "hi")
    vals = [args[i] if i < len(args) else kwargs[n] for i, n in enumerate(names)]
    return {"elements": np.broadcast(*vals).size}


def _bind(module: str, func: str, args, kwargs):
    fn = getattr(importlib.import_module(module), func)
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _solve_inputs(args, kwargs):
    """A digest of every solve input: equal digests mean one geometry."""
    a = _bind("udnsim.solver", "solve_mfg", args, kwargs)
    h = hashlib.sha256()
    for key in sorted(a):
        val = a[key]
        h.update(key.encode())
        h.update(np.asarray(val).tobytes() if isinstance(val, np.ndarray) else repr(val).encode())
    return {"geometry": h.hexdigest()}


def _solve_result(args, kwargs, sol):
    return {"fp_iters": sol.iterations, "residual": sol.residual}


def _episode_slots(args, kwargs):
    a = _bind("udnsim.simulate", "run_episode", args, kwargs)
    slots = a["n_periods"] * a["slots_per_period"]
    return {"slots": slots, "sbs_slots": slots * a["deploy"].n_sbs}


LAYERS = (
    Layer("udnsim.power_opt", "maximize_rate_value", _power_opt_name,
          before=_power_opt_elements),
    Layer("udnsim.solver", "solve_mfg", "solver.solve_mfg",
          before=_solve_inputs, after=_solve_result),
    Layer("udnsim.solver", "hjb_backward", "solver.hjb_backward"),
    Layer("udnsim.solver", "fpk_forward", "solver.fpk_forward"),
    Layer("udnsim.solver", "mf_interference", "solver.mf_interference"),
    Layer("udnsim.simulate", "run_episode", "simulate.run_episode",
          before=_episode_slots),
    Layer("udnsim.scheduler", "dpp_step", "scheduler.dpp_step"),
    Layer("udnsim.scheduler", "expected_rate", "scheduler.expected_rate"),
    Layer("udnsim.fields", "bilinear", "fields.bilinear"),
    Layer("udnsim.baseline", "pf_schedule", "baseline.pf_schedule"),
    Layer("udnsim.deployment", "generate_deployment", "deployment.generate_deployment"),
    Layer("udnsim.cli", "main", "cli.main"),
)

# per-layer metric name -> unit, in the order they are reported
UNITS = {
    "solve_s": "s",
    "sbs_slots_per_s": "1/s",
    "failed_frac": "fraction",
    **{f"power_opt.{case}.{key}": unit
       for case in ("hjb", "ee")
       for key, unit in (("calls", "count"), ("elements", "count"),
                         ("self_s", "s"), ("ns_per_elem", "ns"))},
    "solver.solve_mfg.calls": "count",
    "solver.solve_mfg.self_s": "s",
    "solver.hjb_backward.self_s": "s",
    "solver.fpk_forward.self_s": "s",
    "solver.mf_interference.self_s": "s",
    "solver.fp_iters": "count",
    "solver.final_residual": "1",
    "simulate.run_episode.calls": "count",
    "simulate.run_episode.self_s": "s",
    "simulate.slots": "count",
    "simulate.sbs_slots": "count",
    "scheduler.dpp_step.calls": "count",
    "scheduler.dpp_step.self_s": "s",
    "scheduler.expected_rate.calls": "count",
    "scheduler.expected_rate.self_s": "s",
    "fields.bilinear.calls": "count",
    "fields.bilinear.self_s": "s",
    "baseline.pf_schedule.calls": "count",
    "baseline.pf_schedule.self_s": "s",
    "deployment.generate_deployment.calls": "count",
    "deployment.generate_deployment.self_s": "s",
    "cli.solves": "count",
    "cli.distinct_geometries": "count",
    "cli.solves_per_geometry": "ratio",
    "trace.passes": "count",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "fraction",
    "probe.slowdown": "ratio",
}


def layer_metrics(tracer: Tracer, n_passes: int) -> dict[str, float]:
    """Per-layer figures for the set-up plus one traced pass (see module doc)."""
    setup = totals(tracer, SETUP)
    run = totals(tracer, PASS)

    def get(name: str, what: str) -> float:
        def one(t):
            if what == "calls":
                return t.calls
            if what == "self_s":
                return t.self_s
            return t.counts.get(what, 0)
        s = one(setup[name]) if name in setup else 0
        r = one(run[name]) / n_passes if name in run else 0
        return s + r

    out: dict[str, float] = {}
    for case in ("hjb", "ee"):
        name = f"power_opt.{case}"
        elements = get(name, "elements")
        self_s = get(name, "self_s")
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.elements"] = elements
        out[f"{name}.self_s"] = self_s
        out[f"{name}.ns_per_elem"] = 1e9 * self_s / elements if elements else 0.0
    for name in ("solver.solve_mfg", "simulate.run_episode", "scheduler.dpp_step",
                 "scheduler.expected_rate", "fields.bilinear", "baseline.pf_schedule",
                 "deployment.generate_deployment"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name, "self_s")
    for name in ("solver.hjb_backward", "solver.fpk_forward", "solver.mf_interference"):
        out[f"{name}.self_s"] = get(name, "self_s")
    out["simulate.slots"] = get("simulate.run_episode", "slots")
    out["simulate.sbs_slots"] = get("simulate.run_episode", "sbs_slots")

    solves = [i for i, s in enumerate(tracer.spans) if s.name == "solver.solve_mfg"]
    done = [i for i in solves if "fp_iters" in tracer.spans[i].attrs]
    out["solve_s"] = statistics.median(tracer.spans[i].duration for i in solves) if solves else 0.0
    out["solver.fp_iters"] = statistics.median(
        tracer.spans[i].attrs["fp_iters"] for i in done) if done else 0
    out["solver.final_residual"] = tracer.spans[done[-1]].attrs["residual"] if done else 0.0

    episodes = [s for s in tracer.spans if s.name == "simulate.run_episode"]
    ep_s = sum(s.duration for s in episodes)
    out["sbs_slots_per_s"] = sum(s.attrs["sbs_slots"] for s in episodes) / ep_s if ep_s else 0.0

    # solves made by the CLI, and how many distinct solve inputs they had
    cli_solves = cli_geoms = 0
    for span in tracer.spans:
        if span.name != "cli.main":
            continue
        keys = [s.attrs["geometry"] for i in solves
                for s in [tracer.spans[i]] if any(a is span for a in tracer.ancestors(i))]
        cli_solves += len(keys)
        cli_geoms += len(set(keys))
    n_cli = sum(1 for s in tracer.spans if s.name == "cli.main")
    out["cli.solves"] = cli_solves / n_cli if n_cli else 0
    out["cli.distinct_geometries"] = cli_geoms / n_cli if n_cli else 0
    out["cli.solves_per_geometry"] = cli_solves / cli_geoms if cli_geoms else 0.0
    return out
