"""Command line front end.

Subcommands: solve, simulate, sweep, report, validate.  Exit codes: 0 on
success, 2 for configuration problems, 3 when the equilibrium iteration does
not converge, 4 when a solution or scheme invariant fails.  Every table the
commands write, and every statistic in one, comes from ``reporting``.

Every solve calibrates from replicate 0's deployment: the coupling strength
eta and the normalized noise are that network's, so `solve`, `simulate` and
`sweep` produce the same equilibrium for the same config.  A stored solution
is accepted (`validate`, `simulate --solution`) only when solved under every
input `_solve_inputs` lists for the config, each equal bit for bit, and
converged below the config's tolerance.

A sweep makes each swept value a config of its own (`RunConfig.with_value`),
built and checked before any work.  [solver] and [scheduler] v_coeff reach
only the solve and the mfg arm, so adjacent values whose configs differ in
nothing else run as one lockstep batch, as `simulate` runs a config: one
draw of the deployments and the traffic, one baseline arm, one calibrated
solve per distinct [solver] section and each value's mfg arm.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from itertools import groupby

import numpy as np

from .config import RunConfig, load_config
from .deployment import generate_deployment
from .errors import ConfigError, ConvergenceError, InvariantError, SchemeError
from .fields import MfgSolution, initial_density, terminal_value
from .reporting import (cdf_table, check_metric, csv_to_dat, metrics_csv, read_metric,
                        report_table, summary_csv, sweep_report)
from .simulate import METHODS, Arm, derived_rng, run_episodes
from .solution_io import load_solution, save_solution
from .solver import solve_mfg


def _ensure_outdir(cfg: RunConfig) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    return cfg.output_dir


def _write(path: str, text: str):
    with open(path, "w", newline="") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _deployment(cfg: RunConfig, i: int):
    """Replicate i's deployment of the config's geometry, drawn from
    derived_rng's stream 0, so every method and every solve of a config
    runs on the same networks; replicate 0's is the calibration."""
    return generate_deployment(**cfg.raw["deployment"], phy=cfg.phy, pathloss=cfg.pathloss,
                               seed=derived_rng(cfg.episode.base_seed, i, 0))


def _deployments(cfg: RunConfig) -> list:
    """The replicates' deployments of the config's geometry."""
    return [_deployment(cfg, i) for i in range(cfg.episode.n_replicates)]


def _solve_inputs(cfg: RunConfig, dep) -> dict:
    """Everything the config's equilibrium is solved under, as solve_mfg's
    keyword arguments: the coupling strength and the normalized noise come
    from a reference deployment (replicate 0's)."""
    s = cfg.raw["solver"]
    return dict(grid=cfg.grid, phy=replace(cfg.phy, sbs_density=dep.eta), queue=cfg.queue,
                boundary=cfg.boundary, noise_norm=dep.noise_norm, mean_sq_gain=s["mean_sq_gain"],
                rho0=initial_density(cfg.grid, s["rho0_mean"], s["rho0_variance"]))


def _calibrate_and_solve(cfg: RunConfig, dep) -> MfgSolution:
    """The one equilibrium solve, under `_solve_inputs(cfg, dep)`."""
    s = cfg.raw["solver"]
    return solve_mfg(**_solve_inputs(cfg, dep), damping=s["damping"],
                     tol=s["tol"], max_iters=s["max_iters"], init=s["init"])


def _check_solution(cfg: RunConfig, sol: MfgSolution, dep):
    """Raise InvariantError unless a stored solution is valid and is the
    equilibrium `_calibrate_and_solve(cfg, dep)` solves.  Every input is
    compared exactly, the initial density with density[0] and the terminal
    condition with value[-1]: the solution file round-trips bits."""
    sol.validate()
    for name, want in _solve_inputs(cfg, dep).items():
        if name == "rho0":
            if not np.array_equal(sol.density[0], want):
                raise InvariantError("solution initial density does not match the config's rho0")
        elif getattr(sol, name) != want:
            raise InvariantError(f"solution {name}={getattr(sol, name)!r} does not match "
                                 f"{want!r}, the config's with replicate 0's calibration")
    if not np.array_equal(sol.value[-1], terminal_value(sol.boundary, sol.grid.queues)):
        raise InvariantError("stored terminal values do not match their kind")
    # not below: a nan residual fails too
    if not sol.residual < cfg.raw["solver"]["tol"]:
        raise InvariantError(
            f"stored residual {sol.residual:.3e} is not below the config tolerance")


def _run_arms(cfg: RunConfig, arms: list, deploys: list) -> list:
    """Every replicate of every arm as one lockstep batch: each arm's
    metrics, in the order of arms."""
    return run_episodes(deploys, arms, cfg.phy, cfg.queue, cfg.episode,
                        replicates=range(len(deploys)),
                        qos_min_rate_bps=cfg.raw["scheduler"]["qos_min_rate_bps"])


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    # the targets are checked before the solve; only the default one makes the output dir
    out = args.out or os.path.join(_ensure_outdir(cfg), "solution.mfg")
    log_path = os.path.splitext(out)[0] + ".log"
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise ConfigError(f"the directory of {out!r} does not exist or is not a directory")
    if os.path.isdir(out) or os.path.isdir(log_path):
        raise ConfigError(f"{out!r} or its residual log {log_path!r} is a directory")
    if log_path == out:
        raise ConfigError(f"{out!r} is its residual log's path: give it another extension")
    sol = _calibrate_and_solve(cfg, _deployment(cfg, 0))
    save_solution(out, sol)
    print(f"wrote {out}")
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
    methods = METHODS if args.method == "both" else (args.method,)
    deploys = _deployments(cfg)

    # a given solution is always checked; otherwise one is solved when the
    # mfg policy or a density-initialized backlog needs it
    sol = None
    if args.solution:
        sol = load_solution(args.solution)
        _check_solution(cfg, sol, deploys[0])
    elif "mfg" in methods or cfg.episode.initial_backlog == "density":
        sol = _calibrate_and_solve(cfg, deploys[0])
        save_solution(os.path.join(outdir, "solution.mfg"), sol)

    arms = [Arm(method, cfg.dpp, sol) for method in methods]
    runs = dict(zip(methods, _run_arms(cfg, arms, deploys)))
    for method, metrics in runs.items():
        _write(os.path.join(outdir, f"metrics_{method}.csv"), metrics_csv(metrics))
    _write(os.path.join(outdir, "summary.csv"), summary_csv(runs))
    return 0


def _batch_inputs(cfg: RunConfig) -> dict:
    """The config outside [solver] and [scheduler] v_coeff."""
    return {**cfg.raw, "solver": None, "scheduler": {**cfg.raw["scheduler"], "v_coeff": None}}


def cmd_sweep(args) -> int:
    """Run both methods at each value of the swept key, a batch per run of
    equal `_batch_inputs`; each value prints `swept key=value` once its batch returns."""
    cfg = load_config(args.config)
    key, values = cfg.sweep_values()
    for metric in args.metrics:
        check_metric(metric)
    outdir = _ensure_outdir(cfg)
    swept = [(value, cfg.with_value(key, value)) for value in values]

    points = []   # per value: (value, {method: its replicates' metrics})
    for _, batch in groupby(swept, key=lambda point: _batch_inputs(point[1])):
        batch = list(batch)
        head = batch[0][1]
        deploys = _deployments(head)
        sols, arms = {}, []   # one solve per distinct [solver] section
        for _, point in batch:
            solver = repr(point.raw["solver"])
            sols[solver] = sols.get(solver) or _calibrate_and_solve(point, deploys[0])
            arms.append(Arm("mfg", point.dpp, sols[solver]))
        *mfg_runs, base_rows = _run_arms(head, arms + [Arm("baseline")], deploys)
        for (value, _), mfg_rows in zip(batch, mfg_runs):
            points.append((value, {"mfg": mfg_rows, "baseline": base_rows}))
            print(f"swept {key}={value}")

    rows = [row for _, runs in points for method_rows in runs.values() for row in method_rows]
    _write(os.path.join(outdir, "sweep_metrics.csv"), metrics_csv(rows))
    for metric in args.metrics:
        table = sweep_report(key, points, metric)
        _write(os.path.join(outdir, f"sweep_{metric}.csv"), table)
        _write(os.path.join(outdir, f"sweep_{metric}.dat"), csv_to_dat(table))
    return 0


def cmd_report(args) -> int:
    by_method = read_metric(args.metrics, args.metric)
    os.makedirs(args.out, exist_ok=True)
    for method, vals in sorted(by_method.items()):
        _write(os.path.join(args.out, f"cdf_{args.metric}_{method}.csv"), cdf_table(vals))
    _write(os.path.join(args.out, f"report_{args.metric}.csv"), report_table(by_method))
    return 0


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    sol = load_solution(args.solution)
    _check_solution(cfg, sol, _deployment(cfg, 0))
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
    p.add_argument("--method", choices=(*METHODS, "both"), default="both")
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
    # reads map their OSErrors to ConfigError: an OSError is a failed write
    except (ConfigError, OSError) as exc:
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
