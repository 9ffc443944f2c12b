import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import udnsim.cli
from udnsim.cli import main
from udnsim.solution_io import load_solution, save_solution

SOLVE_CFG = """
[solver]
n_t = 601
n_q = 21
[output]
dir = {out}
"""

SIM_CFG = """
[solver]
n_t = 301
n_q = 11
[deployment]
isd_units = 37.5
k = 2
[simulate]
n_periods = 2
slots_per_period = 10
n_replicates = 2
base_seed = 11
[output]
dir = {out}
"""


def write_cfg(tmp_path, template, name="run.cfg", **extra):
    out = extra.pop("out", tmp_path / "out")
    path = tmp_path / name
    path.write_text(template.format(out=out, **extra))
    return str(path), str(out)


def test_solve_writes_solution_and_log(tmp_path, capsys):
    cfg, out = write_cfg(tmp_path, SOLVE_CFG)
    assert main(["solve", "--config", cfg]) == 0
    sol = load_solution(os.path.join(out, "solution.mfg"))
    assert sol.grid.n_t == 601 and sol.grid.n_q == 21
    log = open(os.path.join(out, "solution.log")).read().strip().split("\n")
    assert len(log) == sol.iterations
    assert float(log[-1].split()[1]) == pytest.approx(sol.residual, rel=1e-5)
    assert "converged" in capsys.readouterr().out


def test_solve_custom_out_path(tmp_path):
    cfg, _ = write_cfg(tmp_path, SOLVE_CFG)
    target = str(tmp_path / "custom.mfg")
    assert main(["solve", "--config", cfg, "--out", target]) == 0
    assert os.path.exists(target)
    assert os.path.exists(str(tmp_path / "custom.log"))


def test_outdir_env_override(tmp_path, monkeypatch):
    cfg, _ = write_cfg(tmp_path, SOLVE_CFG)
    env_out = tmp_path / "env-out"
    monkeypatch.setenv("UDNSIM_OUTDIR", str(env_out))
    assert main(["solve", "--config", cfg]) == 0
    assert (env_out / "solution.mfg").exists()


def test_bad_config_exits_2(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[phy]\nwattage = 3\n")
    assert main(["solve", "--config", str(path)]) == 2


def test_nonconvergence_exits_3(tmp_path):
    cfg, _ = write_cfg(tmp_path,
                       SOLVE_CFG.replace("[solver]", "[solver]\nmax_iters = 1"))
    assert main(["solve", "--config", cfg]) == 3


def test_validate_roundtrip_and_mismatches(tmp_path):
    cfg, out = write_cfg(tmp_path, SOLVE_CFG)
    assert main(["solve", "--config", cfg]) == 0
    sol_path = os.path.join(out, "solution.mfg")
    assert main(["validate", "--config", cfg, "--solution", sol_path]) == 0

    other_cfg, _ = write_cfg(tmp_path, SOLVE_CFG.replace("n_q = 21", "n_q = 31"),
                             name="other.cfg")
    assert main(["validate", "--config", other_cfg, "--solution", sol_path]) == 4

    lin_cfg, _ = write_cfg(tmp_path,
                           SOLVE_CFG.replace("[solver]",
                                             "[solver]\nboundary = linear"),
                           name="lin.cfg")
    assert main(["validate", "--config", lin_cfg, "--solution", sol_path]) == 4

    truncated = tmp_path / "broken.mfg"
    blob = open(sol_path, "rb").read()
    truncated.write_bytes(blob[:-16])
    assert main(["validate", "--config", cfg, "--solution", str(truncated)]) == 2


def test_simulate_with_saved_solution(tmp_path):
    cfg, out = write_cfg(tmp_path, SIM_CFG)
    assert main(["simulate", "--config", cfg]) == 0
    for name in ("solution.mfg", "metrics_mfg.csv", "metrics_baseline.csv",
                 "summary.csv"):
        assert os.path.exists(os.path.join(out, name)), name

    lines = open(os.path.join(out, "metrics_mfg.csv")).read().strip().split("\n")
    assert len(lines) == 3  # header + 2 replicates
    summary = open(os.path.join(out, "summary.csv")).read()
    assert summary.startswith("method,metric,n,mean,ci_lo,ci_hi\n")
    assert "baseline,ee_bits_per_j,2," in summary

    # reusing the stored solution skips the solve and reproduces the rows
    reuse_out = tmp_path / "reuse"
    cfg2, _ = write_cfg(tmp_path, SIM_CFG, name="reuse.cfg", out=reuse_out)
    sol_path = os.path.join(out, "solution.mfg")
    assert main(["simulate", "--config", cfg2, "--method", "mfg",
                 "--solution", sol_path]) == 0
    assert not (reuse_out / "metrics_baseline.csv").exists()
    assert (open(os.path.join(out, "metrics_mfg.csv")).read()
            == (reuse_out / "metrics_mfg.csv").read_text())


def test_baseline_checks_a_given_solution(tmp_path):
    # the baseline reads no policy, but a --solution given to it is still
    # loaded and checked against the config
    cfg, out = write_cfg(tmp_path, SIM_CFG)
    missing = str(tmp_path / "missing.mfg")
    assert main(["simulate", "--config", cfg, "--method", "baseline",
                 "--solution", missing]) == 2
    other_cfg, other_out = write_cfg(tmp_path, SIM_CFG.replace("n_q = 11", "n_q = 21"),
                                     name="other.cfg", out=tmp_path / "other")
    assert main(["solve", "--config", other_cfg]) == 0
    assert main(["simulate", "--config", cfg, "--method", "baseline",
                 "--solution", os.path.join(other_out, "solution.mfg")]) == 4
    assert not os.path.exists(os.path.join(out, "metrics_baseline.csv"))


def test_baseline_with_density_backlog_solves_as_both_does(tmp_path):
    density = SIM_CFG.replace("[simulate]", "[simulate]\ninitial_backlog = density")
    cfg, out = write_cfg(tmp_path, density)
    both_cfg, both_out = write_cfg(tmp_path, density, name="both.cfg",
                                   out=tmp_path / "both")
    assert main(["simulate", "--config", cfg, "--method", "baseline"]) == 0
    assert main(["simulate", "--config", both_cfg]) == 0
    for name in ("solution.mfg", "metrics_baseline.csv"):
        assert (open(os.path.join(out, name), "rb").read()
                == open(os.path.join(both_out, name), "rb").read()), name


def test_unreadable_solution_path_exits_2(tmp_path):
    cfg, _ = write_cfg(tmp_path, SIM_CFG)
    for path in (str(tmp_path / "missing.mfg"), str(tmp_path)):
        assert main(["validate", "--config", cfg, "--solution", path]) == 2
        assert main(["simulate", "--config", cfg, "--method", "mfg",
                     "--solution", path]) == 2


def test_solve_then_simulate_matches_simulate(tmp_path):
    """`solve` calibrates from replicate 0's deployment as `simulate` does:
    it writes the solution simulate writes, and simulating from that file
    writes the metrics simulate writes alone."""
    cfg, out = write_cfg(tmp_path, SIM_CFG)
    solved = str(tmp_path / "solved.mfg")
    assert main(["solve", "--config", cfg, "--out", solved]) == 0
    reuse_out = tmp_path / "reuse"
    reuse_cfg, _ = write_cfg(tmp_path, SIM_CFG, name="reuse.cfg", out=reuse_out)
    assert main(["simulate", "--config", reuse_cfg, "--method", "mfg",
                 "--solution", solved]) == 0
    assert main(["simulate", "--config", cfg]) == 0
    assert open(solved, "rb").read() == open(os.path.join(out, "solution.mfg"), "rb").read()
    assert ((reuse_out / "metrics_mfg.csv").read_bytes()
            == open(os.path.join(out, "metrics_mfg.csv"), "rb").read())


def test_miscalibrated_solution_exits_4(tmp_path):
    """A solution solved for another network (another base_seed: same grid
    and terminal condition, other eta and noise) is rejected by both
    `validate` and `simulate --solution`."""
    nine_cells = SIM_CFG.replace("isd_units = 37.5", "isd_units = 12.5")  # eta > 0
    cfg, out = write_cfg(tmp_path, nine_cells)
    other_out = tmp_path / "other"
    other_cfg, _ = write_cfg(tmp_path, nine_cells.replace("base_seed = 11", "base_seed = 12"),
                             name="other.cfg", out=other_out)
    assert main(["solve", "--config", cfg]) == 0
    assert main(["solve", "--config", other_cfg]) == 0
    own_path = os.path.join(out, "solution.mfg")
    foreign_path = str(other_out / "solution.mfg")
    own, foreign = load_solution(own_path), load_solution(foreign_path)
    assert (foreign.grid, foreign.boundary) == (own.grid, own.boundary)
    assert foreign.eta != own.eta and foreign.noise_norm != own.noise_norm

    assert main(["validate", "--config", cfg, "--solution", own_path]) == 0
    assert main(["validate", "--config", cfg, "--solution", foreign_path]) == 4
    assert main(["simulate", "--config", cfg, "--method", "mfg",
                 "--solution", foreign_path]) == 4
    assert not os.path.exists(os.path.join(out, "metrics_mfg.csv"))
    # each calibration value is compared on its own
    for name in ("eta", "noise_norm"):
        path = str(tmp_path / f"{name}.mfg")
        save_solution(path, dataclasses.replace(own, **{name: getattr(foreign, name)}))
        assert main(["validate", "--config", cfg, "--solution", path]) == 4


def test_sweep_outputs_and_determinism(tmp_path):
    sweep_tail = "[sweep]\nkey = k\nvalues = 1, 2\n"
    names = ("sweep_metrics.csv", "sweep_ee_bits_per_j.csv",
             "sweep_ee_bits_per_j.dat", "sweep_outage_fraction.csv")
    blobs = []
    for run in ("a", "b"):
        cfg, out = write_cfg(tmp_path, SIM_CFG + sweep_tail,
                             name=f"sweep-{run}.cfg", out=tmp_path / f"out-{run}")
        assert main(["sweep", "--config", cfg]) == 0
        blobs.append({n: open(os.path.join(out, n), "rb").read() for n in names})
    assert blobs[0] == blobs[1]

    table = blobs[0]["sweep_ee_bits_per_j.csv"].decode()
    assert table.split("\n")[0].startswith("k,baseline_mean")
    assert len(table.strip().split("\n")) == 3
    dat = blobs[0]["sweep_ee_bits_per_j.dat"].decode()
    assert dat.startswith("# k baseline_mean")


@pytest.mark.parametrize("key, values, solves",
                         [("v", "1, 10, 100", 1), ("k", "1, 2", 2)])
def test_sweep_solves_once_per_geometry(tmp_path, monkeypatch, key, values, solves):
    solve = udnsim.cli.solve_mfg
    calls = []

    def counting_solve(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(udnsim.cli, "solve_mfg", counting_solve)
    cfg, out = write_cfg(tmp_path, SIM_CFG + f"[sweep]\nkey = {key}\nvalues = {values}\n")
    assert main(["sweep", "--config", cfg]) == 0
    assert len(calls) == solves
    table = open(os.path.join(out, "sweep_ee_bits_per_j.csv")).read()
    assert len(table.strip().split("\n")) == 1 + len(values.split(","))


def record_episodes(monkeypatch):
    """Wrap the CLI's run_episodes; returns the list of (method, deploys)."""
    run = udnsim.cli.run_episodes
    calls = []

    def recording(deploys, method, *args, **kwargs):
        calls.append((method, deploys))
        return run(deploys, method, *args, **kwargs)

    monkeypatch.setattr(udnsim.cli, "run_episodes", recording)
    return calls


def count_deployments(monkeypatch):
    draw = udnsim.cli.generate_deployment
    seeds = []

    def counting(*args, seed, **kwargs):
        seeds.append(seed.spawn_key)
        return draw(*args, seed=seed, **kwargs)

    monkeypatch.setattr(udnsim.cli, "generate_deployment", counting)
    return seeds


def test_simulate_pairs_deployments_across_methods(tmp_path, monkeypatch):
    """Both methods run on the same deployment objects, drawn once; the
    calibration solve reuses replicate 0's."""
    calls = record_episodes(monkeypatch)
    seeds = count_deployments(monkeypatch)
    cfg, _ = write_cfg(tmp_path, SIM_CFG)
    assert main(["simulate", "--config", cfg]) == 0
    assert [method for method, _ in calls] == ["mfg", "baseline"]
    (_, mfg), (_, base) = calls
    assert len(mfg) == 2
    assert all(a is b for a, b in zip(mfg, base))  # paired deployments across methods
    assert seeds == [(0, 0), (1, 0)]


@pytest.mark.parametrize("key, values, mfg_runs, baseline_runs, draws",
                         [("v", "1, 10, 100", 3, 1, 2), ("k", "1, 2", 2, 2, 4)])
def test_sweep_runs_baseline_once_per_geometry(tmp_path, monkeypatch, key, values,
                                               mfg_runs, baseline_runs, draws):
    calls = record_episodes(monkeypatch)
    seeds = count_deployments(monkeypatch)
    cfg, out = write_cfg(tmp_path, SIM_CFG + f"[sweep]\nkey = {key}\nvalues = {values}\n")
    assert main(["sweep", "--config", cfg]) == 0
    methods = [method for method, _ in calls]
    assert (methods.count("mfg"), methods.count("baseline")) == (mfg_runs, baseline_runs)
    assert len(seeds) == draws
    rows = open(os.path.join(out, "sweep_metrics.csv")).read().strip().split("\n")
    assert len(rows) == 1 + 2 * 2 * len(values.split(","))  # 2 methods x 2 replicates


def test_zero_slots_per_period_exits_2(tmp_path):
    cfg, _ = write_cfg(tmp_path, SIM_CFG.replace("slots_per_period = 10",
                                                 "slots_per_period = 0"))
    assert main(["simulate", "--config", cfg]) == 2


def test_sweep_requires_sweep_section(tmp_path):
    cfg, _ = write_cfg(tmp_path, SIM_CFG)
    assert main(["sweep", "--config", cfg]) == 2


def test_report_from_metrics(tmp_path):
    cfg, out = write_cfg(tmp_path, SIM_CFG)
    assert main(["simulate", "--config", cfg, "--method", "baseline"]) == 0
    metrics = os.path.join(out, "metrics_baseline.csv")
    rep = str(tmp_path / "rep")
    assert main(["report", "--metrics", metrics, "--metric", "mean_power_w",
                 "--out", rep]) == 0
    cdf_text = open(os.path.join(rep, "cdf_mean_power_w_baseline.csv")).read()
    assert cdf_text.startswith("value,cum_fraction\n")
    rep_text = open(os.path.join(rep, "report_mean_power_w.csv")).read()
    assert rep_text.startswith("method,n,mean,median\n")
    assert rep_text.count("\n") == 2

    assert main(["report", "--metrics", metrics, "--metric", "nonsense",
                 "--out", rep]) == 2
    empty = tmp_path / "empty.csv"
    empty.write_text("method,seed\n")
    assert main(["report", "--metrics", str(empty), "--out", rep]) == 2


SCIPY_FREE_RUN = """
import sys
import udnsim, udnsim.cli
from udnsim.cli import _reference_deployment, main
from udnsim.reporting import metrics_csv

cfg_path, out = sys.argv[1:]
assert main(["solve", "--config", cfg_path]) == 0
assert main(["validate", "--config", cfg_path, "--solution", out + "/solution.mfg"]) == 0
cfg = udnsim.load_config(cfg_path)
m = udnsim.run_episode(_reference_deployment(cfg), "baseline", cfg.phy, cfg.queue,
                       n_periods=1, seed=1, slots_per_period=10)
with open(out + "/metrics_baseline.csv", "w") as fh:
    fh.write(metrics_csv([m]))
assert main(["report", "--metrics", out + "/metrics_baseline.csv",
             "--out", out + "/report"]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_solve_validate_report_and_episode_leave_scipy_out(tmp_path):
    # scipy.special alone costs most of the package's import time and memory;
    # only simulate and sweep summarize, and only they may load it.  Checked
    # in a fresh interpreter on the smoke config.
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(root / "src"), UDNSIM_OUTDIR=str(out))
    run = subprocess.run([sys.executable, "-c", SCIPY_FREE_RUN,
                          str(root / "configs" / "smoke.cfg"), str(out)],
                         env=env, check=True, capture_output=True, text=True,
                         timeout=300)
    assert run.stdout.strip().splitlines()[-1] == "[]"
