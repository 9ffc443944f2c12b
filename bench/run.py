"""udnsim benchmark: one workload per run, metrics as one JSON line.

    python3 bench/run.py --workload solve-ref --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --write-spec      # regenerate BENCHMARK.json

Run from the repository root.  The package is imported from ``src/`` next to
this directory and nowhere else, so a tree without the package fails.  The
workload's inputs come from ``--seed`` only; it runs single-process with the
shipped defaults (UDNSIM_JOBS and UDNSIM_OUTDIR are removed from the
environment).

--trace 0 reports the end-to-end metrics: ``setup_s`` (imports, the median
of three draws of the deployments and configs, and any input solve, which
runs once), ``wall_s`` (the median time of one pass: one solve, one episode
or one sweep) and ``peak_rss_mb``.  Passes repeat until ``--seconds`` have
been spent, and at least once.  Both times are corrected for the machine's
speed while they were taken (see probe.py); the raw times go to the record.

--trace 1 reports the per-layer metrics (see layers.py).  The set-up runs
traced, then untraced and traced passes alternate on the same inputs; the
difference of their medians is the tracing overhead.  Removing the wrappers
after each traced pass fails the run if any wrapper is left, so every
untraced pass runs the package's own code.  Span times are raw; the
``probe.slowdown`` metric gives the machine's speed factor for them.

Every run checks every output (see workloads.py).  The human-readable lines
go first; the last line of standard output is the JSON result.  A full
record with the run environment, raw times and the science outputs is
written to ``bench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

RUN_SECONDS = 10
SETUP_REPS = 3

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("wall_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

# per-layer metrics where more is better; all others read better when lower
HIGHER = {"sbs_slots_per_s", "simulate.slots", "simulate.sbs_slots", "trace.passes"}


def spec(workload_classes, per_layer_units: dict) -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workload_classes],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u,
                       "better": "higher" if n in HIGHER else "lower"}
                      for n, u in per_layer_units.items()],
    }


def git_rev() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, workload) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_rev": git_rev(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes(),
    }


def run_passes(wl, seconds: float, traced_pass=None):
    """Passes until `seconds` have gone, at least one.  Returns the timed
    intervals of the plain passes and, with traced_pass, of traced passes
    that alternate with them on the same inputs."""
    plain, traced = [], []
    t0 = time.perf_counter()
    while not plain or time.perf_counter() - t0 < seconds:
        i = len(plain)
        plain.append(wl.run_pass(i))
        if traced_pass is not None:
            traced.append(traced_pass(i))
    return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from the definitions here and exit")
    args = parser.parse_args(argv)

    if not (SRC / "udnsim" / "__init__.py").is_file():
        print(f"error: no udnsim package under {SRC}", file=sys.stderr)
        return 2
    t_import = time.perf_counter()
    from probe import SpeedProbe  # imports numpy, so it counts as set-up
    probe = SpeedProbe()
    probe.start()
    try:
        return measure(args, parser, probe, t_import)
    finally:
        probe.stop()


def measure(args, parser, probe, t_import: float) -> int:
    sys.path.insert(0, str(SRC))
    for var in ("UDNSIM_JOBS", "UDNSIM_OUTDIR"):
        os.environ.pop(var, None)
    import layers
    import tracer
    import workloads
    import udnsim
    if Path(udnsim.__file__).resolve().parent != SRC / "udnsim":
        print(f"error: udnsim was imported from {udnsim.__file__}", file=sys.stderr)
        return 2
    import_iv = (t_import, time.perf_counter())

    if args.write_spec:
        text = json.dumps(spec(workloads.WORKLOADS.values(), layers.UNITS), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text)
        print(f"wrote {ROOT / 'BENCHMARK.json'}")
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    work_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, work_dir)

    def timed(fn):
        t0 = time.perf_counter()
        fn()
        return t0, time.perf_counter()

    def seconds(intervals, correct=True):
        return [probe.corrected(*iv) if correct else iv[1] - iv[0] for iv in intervals]

    if args.trace == 0:
        draws = [timed(wl.draw) for _ in range(SETUP_REPS)]
        prep = timed(wl.prepare)
        passes, _ = run_passes(wl, args.seconds)
        setup_parts = seconds([import_iv]) + [statistics.median(seconds(draws))] + seconds([prep])
        values = {
            "wall_s": statistics.median(seconds(passes)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": sum(setup_parts),
        }
        units = {n: u for n, u, _, _ in END_TO_END}
        extra = {"pass_s": seconds(passes), "raw_pass_s": seconds(passes, False),
                 "raw_setup_s": (import_iv[1] - import_iv[0]
                                 + statistics.median(seconds(draws, False))
                                 + prep[1] - prep[0]),
                 "slowdown": probe.slowdown(import_iv[0], time.perf_counter())}
    else:
        tr = tracer.Tracer()
        with tr.installed(layers.LAYERS), tr.span(layers.SETUP):
            wl.draw()
            wl.prepare()

        def traced_pass(i):
            # leaving installed() restores the originals and raises if any
            # wrapper survives, so the next untraced pass runs plain code
            with tr.installed(layers.LAYERS), tr.span(layers.PASS):
                return wl.run_pass(i)

        plain, traced = run_passes(wl, args.seconds, traced_pass)
        values = layers.layer_metrics(tr, len(traced))
        base = statistics.median(seconds(plain))
        overhead = statistics.median(seconds(traced)) - base
        values["trace.passes"] = len(traced)
        values["trace.overhead_s"] = overhead
        values["trace.overhead_frac"] = overhead / base
        values["probe.slowdown"] = probe.slowdown(import_iv[0], time.perf_counter())
        units = layers.UNITS
        extra = {"untraced_pass_s": seconds(plain), "traced_pass_s": seconds(traced)}
    oc = wl.outcome
    values["failed_frac"] = oc.failed / oc.attempted if oc.attempted else 1.0
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()}
    science = {
        "mean_ee_bits_per_j": {m: statistics.fmean(v) for m, v in sorted(oc.ee.items())},
        "mean_outage_fraction": {m: statistics.fmean(v) for m, v in sorted(oc.outage.items())},
        "solver.fp_iters": oc.fp_iters,
        "first_pass_sha256": oc.digest,
    }
    env = environment(args, wl)
    for key, val in env.items():
        print(f"env {key} = {val}")
    for key, val in science.items():
        print(f"science {key} = {val}")
    for problem in oc.problems:
        print(f"check failed: {problem}")
    print(f"failed_frac = {values['failed_frac']} ({oc.failed} of {oc.attempted} operations)")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")

    result = {"correct": oc.failed == 0, "attempted": oc.attempted,
              "failed": oc.failed, "metrics": metrics}
    record = {"env": env, "science": science, "problems": oc.problems, **extra, **result}
    (work_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
