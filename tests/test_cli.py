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
    log = Path(out, "solution.log").read_text().strip().split("\n")
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


def test_non_utf8_inputs_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xff\xfe[solver]\nn_q = 21\n")
    assert main(["solve", "--config", str(cfg)]) == 2
    metrics = tmp_path / "bom.csv"
    metrics.write_bytes(b"\xff\xfemethod,ee_bits_per_j\nmfg,1\n")
    assert main(["report", "--metrics", str(metrics), "--out", str(tmp_path / "rep")]) == 2
    err = capsys.readouterr().err
    assert err.count("configuration error:") == 2


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
    blob = Path(sol_path).read_bytes()
    truncated.write_bytes(blob[:-16])
    assert main(["validate", "--config", cfg, "--solution", str(truncated)]) == 2

    # no residuals: the stored residual reads nan, which is not below tol
    no_residuals = tmp_path / "no-residuals.mfg"
    sol = dataclasses.replace(load_solution(sol_path), residuals=[])
    save_solution(no_residuals, sol)
    assert main(["validate", "--config", cfg, "--solution", str(no_residuals)]) == 4


def test_simulate_with_saved_solution(tmp_path):
    cfg, out = write_cfg(tmp_path, SIM_CFG)
    assert main(["simulate", "--config", cfg]) == 0
    for name in ("solution.mfg", "metrics_mfg.csv", "metrics_baseline.csv",
                 "summary.csv"):
        assert os.path.exists(os.path.join(out, name)), name

    lines = Path(out, "metrics_mfg.csv").read_text().strip().split("\n")
    assert len(lines) == 3  # header + 2 replicates
    summary = Path(out, "summary.csv").read_text()
    assert summary.startswith("method,metric,n,mean,ci_lo,ci_hi\n")
    assert "baseline,ee_bits_per_j,2," in summary

    # reusing the stored solution skips the solve and reproduces the rows
    reuse_out = tmp_path / "reuse"
    cfg2, _ = write_cfg(tmp_path, SIM_CFG, name="reuse.cfg", out=reuse_out)
    sol_path = os.path.join(out, "solution.mfg")
    assert main(["simulate", "--config", cfg2, "--method", "mfg",
                 "--solution", sol_path]) == 0
    assert not (reuse_out / "metrics_baseline.csv").exists()
    assert (Path(out, "metrics_mfg.csv").read_text()
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
        assert (Path(out, name).read_bytes()
                == Path(both_out, name).read_bytes()), name


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
    assert Path(solved).read_bytes() == Path(out, "solution.mfg").read_bytes()
    assert ((reuse_out / "metrics_mfg.csv").read_bytes()
            == Path(out, "metrics_mfg.csv").read_bytes())


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


def test_solution_for_another_power_cap_exits_4(tmp_path):
    """A solution solved under another power cap or mean-square gain shares
    the config's grid, terminal condition and calibration, yet is another
    equilibrium: `validate` and `simulate --solution` reject it."""
    cfg, out = write_cfg(tmp_path, SIM_CFG)
    assert main(["solve", "--config", cfg]) == 0
    sol_path = os.path.join(out, "solution.mfg")
    assert main(["validate", "--config", cfg, "--solution", sol_path]) == 0
    capped_out = tmp_path / "capped"
    capped_cfg, _ = write_cfg(tmp_path, SIM_CFG + "[phy]\nmax_power_w = 0.25\n",
                              name="capped.cfg", out=capped_out)
    assert main(["validate", "--config", capped_cfg, "--solution", sol_path]) == 4
    assert main(["simulate", "--config", capped_cfg, "--method", "mfg",
                 "--solution", sol_path]) == 4
    assert not (capped_out / "metrics_mfg.csv").exists()
    gain_cfg, _ = write_cfg(tmp_path, SIM_CFG.replace("[solver]", "[solver]\nmean_sq_gain = 2.0"),
                            name="gain.cfg", out=tmp_path / "gain")
    assert main(["validate", "--config", gain_cfg, "--solution", sol_path]) == 4
    assert main(["simulate", "--config", gain_cfg, "--method", "mfg",
                 "--solution", sol_path]) == 4


def test_sweep_outputs_and_determinism(tmp_path):
    sweep_tail = "[sweep]\nkey = k\nvalues = 1, 2\n"
    names = ("sweep_metrics.csv", "sweep_ee_bits_per_j.csv",
             "sweep_ee_bits_per_j.dat", "sweep_outage_fraction.csv")
    blobs = []
    for run in ("a", "b"):
        cfg, out = write_cfg(tmp_path, SIM_CFG + sweep_tail,
                             name=f"sweep-{run}.cfg", out=tmp_path / f"out-{run}")
        assert main(["sweep", "--config", cfg]) == 0
        blobs.append({n: Path(out, n).read_bytes() for n in names})
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
    table = Path(out, "sweep_ee_bits_per_j.csv").read_text()
    assert len(table.strip().split("\n")) == 1 + len(values.split(","))


def record_episodes(monkeypatch):
    """Wrap the CLI's run_episodes; returns one (methods of its arms,
    deploys) per call."""
    run = udnsim.cli.run_episodes
    calls = []

    def recording(deploys, arms, *args, **kwargs):
        calls.append(([arm.method for arm in arms], deploys))
        return run(deploys, arms, *args, **kwargs)

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
    """Both methods run as arms of one batch on the same deployments, drawn
    once; the calibration solve reuses replicate 0's."""
    calls = record_episodes(monkeypatch)
    seeds = count_deployments(monkeypatch)
    cfg, _ = write_cfg(tmp_path, SIM_CFG)
    assert main(["simulate", "--config", cfg]) == 0
    [(methods, deploys)] = calls  # one call: paired deployments across methods
    assert methods == ["mfg", "baseline"]
    assert len(deploys) == 2
    assert seeds == [(0, 0), (1, 0)]


@pytest.mark.parametrize("key, values, mfg_runs, baseline_runs, draws",
                         [("v", "1, 10, 100", 3, 1, 2), ("k", "1, 2", 2, 2, 4)])
def test_sweep_runs_baseline_once_per_geometry(tmp_path, monkeypatch, key, values,
                                               mfg_runs, baseline_runs, draws):
    """One batch per geometry, holding the mfg arm of each of its values
    and the baseline once."""
    calls = record_episodes(monkeypatch)
    seeds = count_deployments(monkeypatch)
    cfg, out = write_cfg(tmp_path, SIM_CFG + f"[sweep]\nkey = {key}\nvalues = {values}\n")
    assert main(["sweep", "--config", cfg]) == 0
    assert len(calls) == baseline_runs  # one call per geometry
    assert all(methods.count("baseline") == 1 for methods, _ in calls)
    methods = [m for arms, _ in calls for m in arms]
    assert (methods.count("mfg"), methods.count("baseline")) == (mfg_runs, baseline_runs)
    assert len(seeds) == draws
    rows = Path(out, "sweep_metrics.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + 2 * 2 * len(values.split(","))  # 2 methods x 2 replicates


def test_sweep_reports_each_value_as_its_batch_returns(tmp_path, monkeypatch, capsys):
    """A value's `swept` line is printed before the next geometry's batch
    starts, not after the whole sweep."""
    run = udnsim.cli.run_episodes
    printed = []

    def reading(*args, **kwargs):
        printed.append(capsys.readouterr().out)
        return run(*args, **kwargs)

    monkeypatch.setattr(udnsim.cli, "run_episodes", reading)
    cfg, _ = write_cfg(tmp_path, SIM_CFG + "[sweep]\nkey = k\nvalues = 1, 2\n")
    assert main(["sweep", "--config", cfg]) == 0
    assert printed == ["", "swept k=1\n"]
    assert capsys.readouterr().out.startswith("swept k=2\nwrote ")


def test_v_sweep_rows_equal_simulate_at_each_v(tmp_path):
    """A v sweep runs every value in one batch; each value's rows are the
    rows `udnsim simulate` writes with v_coeff = -v, and the baseline's."""
    cfg, out = write_cfg(tmp_path, SIM_CFG + "[sweep]\nkey = v\nvalues = 1, 1000\n")
    assert main(["sweep", "--config", cfg]) == 0
    lines = Path(out, "sweep_metrics.csv").read_text().splitlines()
    header, rows = lines[0], lines[1:]
    assert len(rows) == 2 * 2 * 2  # 2 values x 2 methods x 2 replicates
    mfg_rows = []
    for i, v in enumerate((1, 1000)):
        sim_cfg, sim_out = write_cfg(tmp_path, SIM_CFG + f"[scheduler]\nv_coeff = {-v}\n",
                                     name=f"v{v}.cfg", out=tmp_path / f"v{v}")
        assert main(["simulate", "--config", sim_cfg]) == 0
        want = []
        for method in ("mfg", "baseline"):
            text = Path(sim_out, f"metrics_{method}.csv").read_text().splitlines()
            assert text[0] == header
            want += text[1:]
        assert rows[4 * i:4 * i + 4] == want
        mfg_rows.append(want[:2])
    assert mfg_rows[0] != mfg_rows[1]  # v reaches the schedule


@pytest.mark.parametrize("command, extra", [
    ("simulate", "[scheduler]\nv_coeff = nan\n"),
    ("sweep", "[sweep]\nkey = v\nvalues = nan\n"),
    ("sweep", "[sweep]\nkey = isd\nvalues = nan\n"),
])
def test_non_finite_values_exit_2(tmp_path, capsys, command, extra):
    cfg, _ = write_cfg(tmp_path, SIM_CFG + extra)
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("configuration error:")


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
    cdf_text = Path(rep, "cdf_mean_power_w_baseline.csv").read_text()
    assert cdf_text.startswith("value,cum_fraction\n")
    rep_text = Path(rep, "report_mean_power_w.csv").read_text()
    assert rep_text.startswith("method,n,mean,median\n")
    assert rep_text.count("\n") == 2

    assert main(["report", "--metrics", metrics, "--metric", "nonsense",
                 "--out", rep]) == 2
    empty = tmp_path / "empty.csv"
    empty.write_text("method,seed\n")
    assert main(["report", "--metrics", str(empty), "--out", rep]) == 2
    assert main(["report", "--metrics", str(tmp_path / "absent.csv"), "--out", rep]) == 2
    garbled = tmp_path / "garbled.csv"
    garbled.write_text("method,ee_bits_per_j\nmfg,lots\n")
    assert main(["report", "--metrics", str(garbled), "--out", rep]) == 2


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
