"""Result aggregation: empirical CDFs, metric tables, sweep summaries.

All writers emit deterministic text: fixed column order, fixed float
formatting, newline-terminated rows, so identical runs produce identical
bytes.
"""

from __future__ import annotations

import io

import numpy as np

from .errors import ConfigError
from .simulate import METRIC_FIELDS, EpisodeMetrics, ReplicationSummary

FMT = "%.12g"


def build_cdf(samples) -> np.ndarray:
    """The empirical distribution of a sample set: its values sorted
    ascending; the i-th (from 1) has cumulative fraction i / n."""
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size == 0:
        raise ConfigError("cannot build a CDF from an empty sample set")
    if not np.isfinite(samples).all():
        raise ConfigError("CDF samples must be finite")
    return np.sort(samples)


def cdf_table(cdf: np.ndarray) -> str:
    """Two-column plot-ready table of a build_cdf result: value, cumulative
    fraction."""
    out = io.StringIO()
    out.write("value,cum_fraction\n")
    frac = np.arange(1, cdf.size + 1) / cdf.size
    for v, f in zip(cdf, frac):
        out.write(f"{FMT % v},{FMT % f}\n")
    return out.getvalue()


def metrics_csv(metrics: list[EpisodeMetrics]) -> str:
    """Per-episode rows, one line per replicate, named by the base seed
    and the replicate index."""
    cols = ["method", "seed", "replicate", "replicate_periods", "n_sbs", "n_ue"] + list(
        METRIC_FIELDS) + ["arrived_bits", "dropped_bits", "infeasible_slots"]
    out = io.StringIO()
    out.write(",".join(cols) + "\n")
    for m in metrics:
        row = [m.method, str(m.seed), str(m.replicate), str(m.n_periods), str(m.n_sbs),
               str(m.n_ue)]
        row += [FMT % float(getattr(m, k)) for k in METRIC_FIELDS]
        row += [str(m.arrived_bits), str(m.dropped_bits), str(m.infeasible_slots)]
        out.write(",".join(row) + "\n")
    return out.getvalue()


def sweep_report(sweep_key: str, points: list, metric: str) -> str:
    """Summary CSV over a sweep.

    points: list of (sweep_value, {method: ReplicationSummary}).  Every point
    must carry the same method set; when both 'mfg' and 'baseline' are
    present a relative-gain column (mfg - baseline) / baseline is added.
    """
    if not points:
        raise ConfigError("sweep_report needs at least one point")
    if metric not in METRIC_FIELDS:
        raise ConfigError(f"unknown metric {metric!r}")
    methods = sorted(points[0][1])
    for value, by_method in points:
        if sorted(by_method) != methods:
            raise ConfigError(
                f"sweep point {value!r} carries methods {sorted(by_method)}, "
                f"expected {methods}")
    with_gain = "mfg" in methods and "baseline" in methods

    cols = [sweep_key]
    for meth in methods:
        cols += [f"{meth}_mean", f"{meth}_ci_lo", f"{meth}_ci_hi"]
    if with_gain:
        cols.append("relative_gain")
    out = io.StringIO()
    out.write(",".join(cols) + "\n")
    for value, by_method in points:
        row = [FMT % value if isinstance(value, (int, float)) else str(value)]
        for meth in methods:
            s: ReplicationSummary = by_method[meth]
            row += [FMT % s.mean[metric], FMT % s.lo(metric), FMT % s.hi(metric)]
        if with_gain:
            base = by_method["baseline"].mean[metric]
            prop = by_method["mfg"].mean[metric]
            gain = (prop - base) / base if base != 0 else float("nan")
            row.append(FMT % gain)
        out.write(",".join(row) + "\n")
    return out.getvalue()


def csv_to_dat(csv_text: str) -> str:
    """Whitespace-separated copy of a CSV table with a commented header,
    ready for external plotting tools."""
    lines = csv_text.strip().split("\n")
    out = ["# " + " ".join(lines[0].split(","))]
    for line in lines[1:]:
        out.append(" ".join(line.split(",")))
    return "\n".join(out) + "\n"
