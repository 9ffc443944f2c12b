"""Command line front end.

Subcommands: solve, simulate, sweep, report, validate.  Exit codes: 0 on
success, 2 for configuration problems, 3 when the equilibrium iteration does
not converge, 4 when a solution or scheme invariant fails.

Every solve calibrates from replicate 0's deployment: the coupling strength
eta and the normalized noise are that network's, so `solve`, `simulate` and
`sweep` produce the same equilibrium for the same config.  A stored solution
is accepted (`validate`, `simulate --solution`) only when it is that
equilibrium: same grid, terminal condition, calibration, power cap and
mean-square gain, converged below the config's tolerance.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace

import numpy as np

from .config import RunConfig, load_config
from .deployment import generate_deployment
from .errors import ConfigError, ConvergenceError, InvariantError, SchemeError
from .fields import MfgSolution, initial_density, terminal_value
from .reporting import build_cdf, cdf_table, csv_to_dat, metrics_csv, sweep_report
from .simulate import METRIC_FIELDS, Arm, run_episodes, summarize_replications
from .solution_io import load_solution, save_solution
from .solver import solve_mfg


def _ensure_outdir(cfg: RunConfig) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    return cfg.output_dir


def _write(path: str, text: str):
    with open(path, "w", newline="") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _deployment(cfg: RunConfig, isd_units: float, k: int, i: int):
    """Replicate i's deployment of one geometry, drawn from
    SeedSequence(base_seed, spawn_key=(i, 0)), so every method, every swept
    value that shares the geometry and every solve runs on the same networks."""
    d = cfg.raw["deployment"]
    seed = np.random.SeedSequence(cfg.raw["simulate"]["base_seed"], spawn_key=(i, 0))
    return generate_deployment(isd_units, k, cfg.phy, cfg.pathloss, seed=seed,
                               area_km2=d["area_km2"], jitter_frac=d["jitter_frac"],
                               fading=d["fading"],
                               cross_isolation_db=d["cross_isolation_db"],
                               rician_k_db=d["rician_k_db"])


def _deployments(cfg: RunConfig, isd_units: float, k: int) -> list:
    """The replicates' deployments of one geometry."""
    return [_deployment(cfg, isd_units, k, i)
            for i in range(cfg.raw["simulate"]["n_replicates"])]


def _reference_deployment(cfg: RunConfig):
    """Replicate 0's deployment of the config's geometry: the calibration."""
    d = cfg.raw["deployment"]
    return _deployment(cfg, d["isd_units"], d["k"], 0)


def _calibrate_and_solve(cfg: RunConfig, dep, boundary: str | None = None) -> MfgSolution:
    """The one equilibrium solve: the coupling strength and the normalized
    noise come from a reference deployment (replicate 0's); the terminal
    condition is the config's unless a sweep passes its own."""
    s = cfg.raw["solver"]
    rho0 = initial_density(cfg.grid, s["rho0_mean"], s["rho0_variance"])
    return solve_mfg(
        cfg.grid, replace(cfg.phy, sbs_density=dep.eta), cfg.queue,
        cfg.boundary if boundary is None else boundary,
        noise_norm=dep.noise_norm, mean_sq_gain=s["mean_sq_gain"], rho0=rho0,
        damping=s["damping"], tol=s["tol"], max_iters=s["max_iters"], init=s["init"],
    )


def _check_solution(cfg: RunConfig, sol: MfgSolution, dep):
    """Raise InvariantError unless a stored solution is valid and is the
    equilibrium `_calibrate_and_solve(cfg, dep)` solves.  The calibration is
    compared exactly: the solution header round-trips floats bit for bit."""
    sol.validate()
    g = sol.grid
    if g != cfg.grid:
        raise InvariantError(
            f"solution grid {g.n_t}x{g.n_q} over {g.horizon_s} s does not match "
            f"config {cfg.grid.n_t}x{cfg.grid.n_q} over {cfg.grid.horizon_s} s")
    if sol.boundary != cfg.boundary:
        raise InvariantError(
            f"solution terminal condition {sol.boundary!r} does not match "
            f"config {cfg.boundary!r}")
    expected = terminal_value(sol.boundary, g.queues)
    if not np.allclose(sol.value[-1], expected, rtol=0, atol=1e-9):
        raise InvariantError("stored terminal values do not match their kind")
    # not below: an empty residual list reads nan
    if not sol.residual < cfg.raw["solver"]["tol"]:
        raise InvariantError(
            f"stored residual {sol.residual:.3e} is not below the config tolerance")
    if (sol.eta, sol.noise_norm) != (dep.eta, dep.noise_norm):
        raise InvariantError(
            f"solution calibration eta={sol.eta!r}, noise_norm={sol.noise_norm!r} "
            f"does not match replicate 0's deployment eta={dep.eta!r}, "
            f"noise_norm={dep.noise_norm!r}")
    p_max, msg = cfg.phy.max_power_w, cfg.raw["solver"]["mean_sq_gain"]
    if (sol.max_power_w, sol.mean_sq_gain) != (p_max, msg):
        raise InvariantError(
            f"solution max_power_w={sol.max_power_w!r}, mean_sq_gain={sol.mean_sq_gain!r} "
            f"does not match config max_power_w={p_max!r}, mean_sq_gain={msg!r}")


def _run_arms(cfg: RunConfig, arms: list, sol: MfgSolution | None, deploys: list) -> list:
    """Every replicate of every arm as one lockstep batch: each arm's
    (metrics, summary), in the order of arms."""
    sim = cfg.raw["simulate"]
    runs = run_episodes(
        deploys, arms, cfg.phy, cfg.queue, n_periods=sim["n_periods"],
        seed=sim["base_seed"], replicates=range(len(deploys)), solution=sol,
        qos_min_rate_bps=cfg.raw["scheduler"]["qos_min_rate_bps"],
        slots_per_period=sim["slots_per_period"],
        initial_backlog=sim["initial_backlog"],
        estimate_mode=sim["estimate_mode"],
        drain_window_slots=sim["drain_window_slots"])
    return [(metrics, summarize_replications(metrics)) for metrics in runs]


def _summary_csv(results: dict) -> str:
    lines = ["method,metric,n,mean,ci_lo,ci_hi"]
    for method in sorted(results):
        _, summary = results[method]
        for key in METRIC_FIELDS:
            lines.append(",".join([
                method, key, str(summary.n), "%.12g" % summary.mean[key],
                "%.12g" % summary.lo(key), "%.12g" % summary.hi(key)]))
    return "\n".join(lines) + "\n"


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    outdir = _ensure_outdir(cfg)
    sol = _calibrate_and_solve(cfg, _reference_deployment(cfg))
    out = args.out or os.path.join(outdir, "solution.mfg")
    save_solution(out, sol)
    print(f"wrote {out}")
    log_path = os.path.splitext(out)[0] + ".log"
    log_lines = [f"{i + 1} {r:.6e}" for i, r in enumerate(sol.residuals)]
    _write(log_path, "\n".join(log_lines) + "\n")
    print(f"converged in {sol.iterations} iterations, residual {sol.residual:.3e}")
    return 0


def cmd_simulate(args) -> int:
    """Run the chosen methods on the config's replicates, all in one
    lockstep batch, so every method sees the same deployments and the same
    arrivals; write each method's metrics and the summary."""
    cfg = load_config(args.config)
    outdir = _ensure_outdir(cfg)
    methods = ("mfg", "baseline") if args.method == "both" else (args.method,)
    dep_cfg = cfg.raw["deployment"]
    deploys = _deployments(cfg, dep_cfg["isd_units"], dep_cfg["k"])

    # a given solution is always checked; otherwise one is solved when the
    # mfg policy or a density-initialized backlog needs it
    sol = None
    if args.solution:
        sol = load_solution(args.solution)
        _check_solution(cfg, sol, deploys[0])
    elif "mfg" in methods or cfg.raw["simulate"]["initial_backlog"] == "density":
        sol = _calibrate_and_solve(cfg, deploys[0])
        save_solution(os.path.join(outdir, "solution.mfg"), sol)

    arms = [Arm(method, cfg.dpp) for method in methods]
    results = dict(zip(methods, _run_arms(cfg, arms, sol, deploys)))
    for method, (metrics, _) in results.items():
        _write(os.path.join(outdir, f"metrics_{method}.csv"), metrics_csv(metrics))
    _write(os.path.join(outdir, "summary.csv"), _summary_csv(results))
    return 0


def cmd_sweep(args) -> int:
    """Run both methods at each value of the swept key.

    The replicates' deployments depend on the geometry (isd, k) alone, so
    each geometry draws them once.  The equilibrium depends on the geometry
    and the terminal condition only; v enters the scheduler alone.  So the
    values are grouped by (isd, k, boundary): each group solves once and
    runs one lockstep batch, whose arms are the mfg policy at each of its
    values and, in the first group of a geometry, the baseline.  A v sweep
    therefore solves once and runs one batch.  The baseline reads neither v
    nor the terminal condition (its density start reads the solution's
    initial slice, which is rho0 whatever the boundary), so it runs once
    per (isd, k) and its rows repeat at every value that shares the geometry.
    Each value prints `swept key=value` when its group's batch returns.
    """
    cfg = load_config(args.config)
    outdir = _ensure_outdir(cfg)
    key, values = cfg.sweep_values()
    dep_cfg = cfg.raw["deployment"]

    # (isd, k) -> boundary -> [(index of the value, its scheduler parameters)]
    groups = {}
    for i, value in enumerate(values):
        isd, k = dep_cfg["isd_units"], dep_cfg["k"]
        boundary, dpp = None, cfg.dpp
        if key == "isd":
            isd = value
        elif key == "k":
            k = value
        elif key == "boundary":
            boundary = value
        elif key == "v":
            dpp = replace(cfg.dpp, v_coeff=-abs(value))
        groups.setdefault((isd, k), {}).setdefault(boundary, []).append((i, dpp))

    results = [None] * len(values)   # per value: {method: (metrics, summary)}
    for (isd, k), by_boundary in groups.items():
        deploys = _deployments(cfg, isd, k)
        baseline = None
        for boundary, members in by_boundary.items():
            sol = _calibrate_and_solve(cfg, deploys[0], boundary)
            arms = [Arm("mfg", dpp) for _, dpp in members]
            runs = _run_arms(cfg, arms if baseline else arms + [Arm("baseline")], sol, deploys)
            baseline = baseline or runs[-1]
            for (i, _), mfg in zip(members, runs):
                results[i] = {"mfg": mfg, "baseline": baseline}
                print(f"swept {key}={values[i]}")

    points = []
    all_rows = []
    for value, by_method in zip(values, results):
        points.append((value, {m: r[1] for m, r in by_method.items()}))
        for metrics, _ in by_method.values():
            all_rows.extend(metrics)

    _write(os.path.join(outdir, "sweep_metrics.csv"), metrics_csv(all_rows))
    for metric in args.metrics:
        table = sweep_report(key, points, metric)
        path = os.path.join(outdir, f"sweep_{metric}.csv")
        _write(path, table)
        _write(os.path.splitext(path)[0] + ".dat", csv_to_dat(table))
    return 0


def _read_metrics_rows(path: str):
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read metrics file {path} ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"metrics file {path} is not UTF-8 text ({exc.reason})") from exc
    if not rows:
        raise ConfigError(f"no metric rows in {path}")
    return rows


def cmd_report(args) -> int:
    if args.metric not in METRIC_FIELDS:
        raise ConfigError(f"unknown metric {args.metric!r}")
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    by_method = {}
    for path in args.metrics:
        for row in _read_metrics_rows(path):
            try:
                by_method.setdefault(row["method"], []).append(float(row[args.metric]))
            except (KeyError, TypeError) as exc:
                raise ConfigError(f"{path} lacks a {args.metric!r} column") from exc
            except ValueError as exc:
                raise ConfigError(f"{path}: non-numeric {args.metric!r} value ({exc})") from exc

    for method, vals in sorted(by_method.items()):
        cdf = build_cdf(vals)
        _write(os.path.join(outdir, f"cdf_{args.metric}_{method}.csv"), cdf_table(cdf))
    lines = ["method,n,mean,median"]
    for method, vals in sorted(by_method.items()):
        arr = np.asarray(vals)
        lines.append(f"{method},{arr.size},{'%.12g' % arr.mean()},{'%.12g' % np.median(arr)}")
    _write(os.path.join(outdir, f"report_{args.metric}.csv"), "\n".join(lines) + "\n")

    return 0


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    sol = load_solution(args.solution)
    _check_solution(cfg, sol, _reference_deployment(cfg))
    g = sol.grid
    print(f"ok: {args.solution} ({g.n_t}x{g.n_q}, {sol.iterations} iterations, "
          f"residual {sol.residual:.3e})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udnsim",
        description="Mean-field power control and scheduling for ultra-dense"
                    " small-cell networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the coupled equilibrium equations")
    p.add_argument("--config", help="configuration file (defaults apply if omitted)")
    p.add_argument("--out", help="solution file path (default <outdir>/solution.mfg)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="run seeded episodes and write metrics")
    p.add_argument("--config", help="configuration file")
    p.add_argument("--method", choices=("mfg", "baseline", "both"), default="both")
    p.add_argument("--solution", help="reuse a saved solution instead of solving")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="sweep one parameter and summarize both methods")
    p.add_argument("--config", required=True, help="configuration file with a [sweep] section")
    p.add_argument("--metrics", nargs="+", default=["ee_bits_per_j", "outage_fraction"],
                   help="summary metrics to tabulate")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="aggregate per-episode metric files")
    p.add_argument("--metrics", nargs="+", required=True, help="metrics CSV files")
    p.add_argument("--metric", default="ee_bits_per_j")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("validate", help="check a stored solution against a config")
    p.add_argument("--config", help="configuration file")
    p.add_argument("--solution", required=True, help="solution file to check")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3
    except (SchemeError, InvariantError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
