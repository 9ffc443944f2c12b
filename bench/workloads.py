"""The four benchmark workloads and the checks run on their outputs.

A workload has a set-up, split into ``draw`` (deployment draws and config
files; cheap, so it is repeated to take a median) and ``prepare`` (an input
solve, run once), and a ``run_pass`` that does one fixed unit of work and
returns the start and end clock readings of its timed part.  Passes repeat until the run's time is spent.
Every operation (one solve or one episode) is counted as attempted, and as
failed when it raises ConvergenceError, SchemeError or InvariantError or
fails a check.  Outputs are never timed while they are checked.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
import math
import shutil
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import udnsim
import udnsim.cli
import udnsim.reporting

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
FAILURES = (udnsim.ConvergenceError, udnsim.SchemeError, udnsim.InvariantError)
# energy is summed slot by slot, so allow rounding below the exact product
ENERGY_RTOL = 1e-9
# reference deployments drawn per run; passes cycle through them
N_DEPLOYMENTS = 4


@dataclass
class Outcome:
    """Operations, failures and the science outputs of one run."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    ee: dict = field(default_factory=dict)        # method -> list of bit/J
    outage: dict = field(default_factory=dict)    # method -> list of fractions
    fp_iters: list = field(default_factory=list)
    digest: str = ""                              # sha256 of the first pass's output

    def op(self, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def episode(self, method: str, ee: float, outage: float):
        self.ee.setdefault(method, []).append(ee)
        self.outage.setdefault(method, []).append(outage)


def check_solution(sol, tol: float) -> list[str]:
    try:
        sol.validate()
    except udnsim.InvariantError as exc:
        return [f"solution invalid: {exc}"]
    if not sol.residual < tol:
        return [f"solution residual {sol.residual:.3e} is not below tol {tol:g}"]
    return []


def check_episode(m, phy, queue, slots_per_period: int) -> list[str]:
    out = []
    tag = f"{m.method} episode seed {m.seed}"
    if m.arrived_bits != m.delivered_bits + m.dropped_bits + m.backlog_delta_bits:
        out.append(f"{tag}: bit ledger does not balance")
    duration = m.n_periods * slots_per_period * queue.slot_duration_s
    floor = m.n_sbs * phy.circuit_power_w * duration
    if not m.energy_j >= floor * (1.0 - ENERGY_RTOL):
        out.append(f"{tag}: energy {m.energy_j} J below the circuit floor {floor} J")
    for key in udnsim.simulate.METRIC_FIELDS:
        if not math.isfinite(float(getattr(m, key))):
            out.append(f"{tag}: {key} is not finite")
    if not 0.0 <= m.outage_fraction <= 1.0:
        out.append(f"{tag}: outage {m.outage_fraction} outside [0, 1]")
    return out


def _deployment(cfg, seed: int, index: int):
    d = cfg.raw["deployment"]
    return udnsim.generate_deployment(
        d["isd_units"], d["k"], cfg.phy, cfg.pathloss, seed=np.random.SeedSequence(seed, spawn_key=(index, 0)),
        area_km2=d["area_km2"], jitter_frac=d["jitter_frac"], fading=d["fading"],
        cross_isolation_db=d["cross_isolation_db"], rician_k_db=d["rician_k_db"])


def _solve(cfg, dep):
    """Solve the equilibrium calibrated to one deployment, as `udnsim solve`
    does after calibration."""
    s = cfg.raw["solver"]
    rho0 = udnsim.initial_density(cfg.grid, s["rho0_mean"], s["rho0_variance"])
    return udnsim.solve_mfg(
        cfg.grid, replace(cfg.phy, sbs_density=dep.eta), cfg.queue, cfg.boundary,
        noise_norm=dep.noise_norm, mean_sq_gain=s["mean_sq_gain"], rho0=rho0,
        damping=s["damping"], tol=s["tol"], max_iters=s["max_iters"], init=s["init"])


def _solution_digest(sol) -> str:
    return hashlib.sha256(sol.policy.tobytes() + sol.interference.tobytes()).hexdigest()


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.outcome = Outcome()

    def draw(self):
        """Draw deployments and write configs; may run several times."""

    def prepare(self):
        """Input solves that the timed passes need; runs once."""

    def run_pass(self, i: int) -> tuple[float, float]:
        raise NotImplementedError

    def sizes(self) -> dict:
        return {}


class SolveRef(Workload):
    name = "solve-ref"
    why = ("one solve_mfg at reference physics (121 SBS, k=5) on a 51x651 grid: "
           "the solver and the HJB case of power_opt do the work, nothing is simulated")

    def draw(self):
        self.cfg = udnsim.load_config(CONFIGS / "reference.cfg")
        self.dep = _deployment(self.cfg, self.seed, 0)

    def run_pass(self, i: int) -> tuple[float, float]:
        tol = self.cfg.raw["solver"]["tol"]
        t0 = time.perf_counter()
        try:
            sol = _solve(self.cfg, self.dep)
        except FAILURES as exc:
            self.outcome.op([f"solve failed: {exc!r}"])
            return t0, time.perf_counter()
        t1 = time.perf_counter()
        self.outcome.op(check_solution(sol, tol))
        self.outcome.fp_iters.append(sol.iterations)
        if i == 0:
            self.outcome.digest = _solution_digest(sol)
        return t0, t1

    def sizes(self):
        g = self.cfg.grid
        return {"n_sbs": self.dep.n_sbs, "n_ue": self.dep.n_ue, "n_q": g.n_q, "n_t": g.n_t}


class EpisodesRef(Workload):
    """One episode per pass on reference deployments, cycling through a pool
    drawn from the seed; replicate i of the seed's traffic streams."""

    method = ""
    sol = None

    def draw(self):
        self.cfg = udnsim.load_config(CONFIGS / "reference.cfg")
        self.deps = [_deployment(self.cfg, self.seed, i) for i in range(N_DEPLOYMENTS)]

    def run_pass(self, i: int) -> tuple[float, float]:
        cfg = self.cfg
        sim = cfg.raw["simulate"]
        t0 = time.perf_counter()
        try:
            m = udnsim.run_episode(
                self.deps[i % len(self.deps)], self.method, cfg.phy, cfg.queue,
                n_periods=sim["n_periods"], seed=self.seed, solution=self.sol,
                dpp=cfg.dpp, qos_min_rate_bps=cfg.raw["scheduler"]["qos_min_rate_bps"],
                slots_per_period=sim["slots_per_period"],
                initial_backlog=sim["initial_backlog"],
                estimate_mode=sim["estimate_mode"],
                drain_window_slots=sim["drain_window_slots"], replicate=i)
        except FAILURES as exc:
            self.outcome.op([f"episode failed: {exc!r}"])
            return t0, time.perf_counter()
        t1 = time.perf_counter()
        self.outcome.op(check_episode(m, cfg.phy, cfg.queue, sim["slots_per_period"]))
        self.outcome.episode(m.method, m.ee_bits_per_j, m.outage_fraction)
        if i == 0:
            csv_text = udnsim.reporting.metrics_csv([m])
            self.outcome.digest = hashlib.sha256(csv_text.encode()).hexdigest()
        return t0, t1

    def sizes(self):
        sim = self.cfg.raw["simulate"]
        g = self.cfg.grid
        return {"n_sbs": self.deps[0].n_sbs, "n_ue": self.deps[0].n_ue,
                "n_periods": sim["n_periods"], "slots_per_period": sim["slots_per_period"],
                "deployments": len(self.deps), "n_q": g.n_q, "n_t": g.n_t}


class EpisodesBaselineRef(EpisodesRef):
    name = "episodes-baseline-ref"
    why = ("PF + myopic-EE baseline episodes (121 SBS, 30x100 slots): the simulate slot "
           "loop, the pure-EE case of power_opt and pf_schedule do the work, no solve")
    method = "baseline"


class EpisodesMfgRef(EpisodesRef):
    name = "episodes-mfg-ref"
    why = ("MFG episodes on the same deployments, policy solved in set-up: simulate uses "
           "bilinear, expected_rate and dpp_step and never calls power_opt")
    method = "mfg"

    def prepare(self):
        # the policy is calibrated to the first deployment, as `udnsim
        # simulate` calibrates to replicate 0; without a policy no episode
        # can run, so a failed solve ends the run
        sol = _solve(self.cfg, self.deps[0])
        self.outcome.op(check_solution(sol, self.cfg.raw["solver"]["tol"]))
        self.outcome.fp_iters.append(sol.iterations)
        self.sol = sol


class SweepVSmoke(Workload):
    name = "sweep-v-smoke"
    why = ("`udnsim sweep` in-process over v in {1, 10, 100} on the smoke geometry "
           "(9 SBS, k=2): the only CLI workload, three solves of one geometry")

    METRICS = ("ee_bits_per_j", "outage_fraction")  # the CLI's default --metrics

    def draw(self):
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.read(CONFIGS / "smoke-v.cfg")
        parser["simulate"]["base_seed"] = str(self.seed)
        parser["output"] = {"dir": str(self.work_dir / "sweep")}
        self.cfg_path = self.work_dir / "sweep.cfg"
        with open(self.cfg_path, "w") as fh:
            parser.write(fh)
        self.cfg = udnsim.load_config(self.cfg_path)
        _, self.values = self.cfg.sweep_values()

    def run_pass(self, i: int) -> tuple[float, float]:
        out_dir = Path(self.cfg.output_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        n_rep = self.cfg.raw["simulate"]["n_replicates"]
        n_ops = len(self.values) * (1 + 2 * n_rep)   # solves + episodes of both methods
        t0 = time.perf_counter()
        with redirect_stdout(io.StringIO()):
            rc = udnsim.cli.main(["sweep", "--config", str(self.cfg_path)])
        t1 = time.perf_counter()
        if rc == 2:
            raise RuntimeError("the benchmark's sweep config was rejected")
        problems = [f"sweep exited with code {rc}"] if rc else self._check(out_dir)
        self.outcome.attempted += n_ops
        if problems:
            self.outcome.failed += n_ops
            self.outcome.problems.extend(problems)
        if i == 0 and not rc:
            self.outcome.digest = hashlib.sha256(
                (out_dir / "sweep_metrics.csv").read_bytes()).hexdigest()
        return t0, t1

    def _check(self, out_dir: Path) -> list[str]:
        """Every expected output file exists and parses; episode rows hold."""
        cfg = self.cfg
        sim = cfg.raw["simulate"]
        problems = []
        try:
            with open(out_dir / "sweep_metrics.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            want = len(self.values) * 2 * sim["n_replicates"]
            if len(rows) != want:
                problems.append(f"sweep_metrics.csv has {len(rows)} rows, expected {want}")
            for row in rows:
                problems += self._check_row(row)
            for metric in self.METRICS:
                with open(out_dir / f"sweep_{metric}.csv", newline="") as fh:
                    table = list(csv.reader(fh))
                with open(out_dir / f"sweep_{metric}.dat") as fh:
                    dat = [line.split() for line in fh if not line.startswith("#")]
                if len(table) != len(self.values) + 1 or len(dat) != len(self.values):
                    problems.append(f"sweep_{metric} tables do not have one row per value")
                # relative_gain is nan by design where the baseline mean is 0
                keep = [j for j, col in enumerate(table[0]) if col != "relative_gain"]
                cells = [float(r[j]) for part in (table[1:], dat) for r in part for j in keep]
                if not all(math.isfinite(c) for c in cells):
                    problems.append(f"sweep_{metric} tables hold non-finite values")
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"sweep outputs unreadable: {exc!r}")
        return problems

    def _check_row(self, row) -> list[str]:
        """The CSV lacks the backlog change, so the ledger check is that the
        bits left queued lie between zero and the buffers' total capacity."""
        cfg = self.cfg
        tag = f"sweep {row['method']} row"
        n_sbs, n_ue = int(row["n_sbs"]), int(row["n_ue"])
        left = int(row["arrived_bits"]) - int(float(row["delivered_bits"])) - int(row["dropped_bits"])
        out = []
        if not 0 <= left <= n_ue * cfg.queue.capacity_bits:
            out.append(f"{tag}: {left} bits unaccounted for")
        duration = (int(row["replicate_periods"]) * cfg.raw["simulate"]["slots_per_period"]
                    * cfg.queue.slot_duration_s)
        floor = n_sbs * cfg.phy.circuit_power_w * duration
        if not float(row["energy_j"]) >= floor * (1.0 - ENERGY_RTOL):
            out.append(f"{tag}: energy below the circuit floor")
        if not all(math.isfinite(float(row[k])) for k in udnsim.simulate.METRIC_FIELDS):
            out.append(f"{tag}: non-finite metric")
        if not 0.0 <= float(row["outage_fraction"]) <= 1.0:
            out.append(f"{tag}: outage outside [0, 1]")
        self.outcome.episode(row["method"], float(row["ee_bits_per_j"]),
                             float(row["outage_fraction"]))
        return out

    def sizes(self):
        g = self.cfg.grid
        d = self.cfg.raw["deployment"]
        side = udnsim.grid_side(d["isd_units"], d["area_km2"])
        return {"n_sbs": side * side, "k": d["k"], "n_q": g.n_q, "n_t": g.n_t,
                "v_values": list(self.values),
                "n_replicates": self.cfg.raw["simulate"]["n_replicates"],
                "n_periods": self.cfg.raw["simulate"]["n_periods"]}


WORKLOADS = {w.name: w for w in (SolveRef, EpisodesBaselineRef, EpisodesMfgRef, SweepVSmoke)}
