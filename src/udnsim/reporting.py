"""Output layer: every table udnsim writes and the replicate statistics in it.

The metrics CSV (``metrics_csv``, read back by ``read_metric``), the
replicate summaries (``summarize_replications``) and their tables
(``summary_csv``, ``sweep_report``), and the ``report`` command's CDFs and
mean/median table all go through one row writer, ``_csv``: fixed column
order, floats as ``%.12g``, newline-terminated rows, so identical runs
produce identical bytes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .simulate import METRIC_FIELDS, EpisodeMetrics

# scipy.special.stdtrit(df, 0.975) for df = 1 .. 30 (2 to 31 replicates),
# as scipy 1.17.1 returns it: summarize_replications reads these bits
T_975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378,
)


@dataclass
class ReplicationSummary:
    """Per-metric mean and 95% confidence half-width over seeded replicates."""

    n: int
    mean: dict = field(default_factory=dict)
    ci_half: dict = field(default_factory=dict)

    def lo(self, key):
        return self.mean[key] - self.ci_half[key]

    def hi(self, key):
        return self.mean[key] + self.ci_half[key]


def summarize_replications(metrics: list[EpisodeMetrics]) -> ReplicationSummary:
    """Mean and Student-t 95% half-width of each metric over the replicates.

    The t quantile is ``scipy.special.stdtrit(n - 1, 0.975)``, the function
    ``scipy.stats.t.ppf`` evaluates, so ``summary.csv`` keeps its bits.  Up
    to 31 replicates (every shipped config: 3 at smoke, 20 at reference) it
    is read from T_975, which holds stdtrit's own values, and scipy is not
    imported.  Above that stdtrit is imported here, where it runs: importing
    ``scipy.special`` costs about 0.3 s and 25 MB that no other step needs.
    No NumPy quantile can stand in for it: against a 50-digit mpmath root,
    stdtrit is off from the correctly rounded quantile by up to 19 ulp at
    185 of 203 df checked (1 to 199, 499, 999, 1999 and 4999), so no
    independent algorithm reproduces its bits.
    """
    if not metrics:
        raise ConfigError("no replicates to summarize")
    n = len(metrics)
    out = ReplicationSummary(n=n)
    if n == 1:
        tcrit = 0.0
    elif n - 1 <= len(T_975):
        tcrit = T_975[n - 2]
    else:
        from scipy.special import stdtrit

        tcrit = float(stdtrit(n - 1, 0.975))
    for key in METRIC_FIELDS:
        vals = np.array([float(getattr(m, key)) for m in metrics])
        out.mean[key] = float(vals.mean())
        out.ci_half[key] = float(tcrit * vals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return out


def _csv(header, rows) -> str:
    """The one row writer: a header line, then one line per row."""
    return "".join(",".join("%.12g" % v if isinstance(v, float) else str(v) for v in row) + "\n"
                   for row in [header, *rows])


def metrics_csv(metrics: list[EpisodeMetrics]) -> str:
    """Per-episode rows, one line per replicate, named by the base seed
    and the replicate index."""
    header = ["method", "seed", "replicate", "replicate_periods", "n_sbs", "n_ue",
              *METRIC_FIELDS, "arrived_bits", "dropped_bits", "infeasible_slots"]
    return _csv(header, ([m.method, m.seed, m.replicate, m.n_periods, m.n_sbs, m.n_ue,
                          *(float(getattr(m, k)) for k in METRIC_FIELDS),
                          m.arrived_bits, m.dropped_bits, m.infeasible_slots]
                         for m in metrics))


def check_metric(metric: str):
    """ConfigError unless metric names one of METRIC_FIELDS."""
    if metric not in METRIC_FIELDS:
        raise ConfigError(f"unknown metric {metric!r}")


def read_metric(paths, metric: str) -> dict[str, list[float]]:
    """One metric's values per method from metrics CSV files, in file and
    row order; ConfigError for anything that is not such a file."""
    check_metric(metric)
    by_method = {}
    for path in paths:
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                reader = csv.DictReader(fh)
                rows = [(reader.line_num, row) for row in reader]
        except OSError as exc:
            raise ConfigError(f"cannot read metrics file {path} ({exc.strerror})") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"metrics file {path} is not UTF-8 text ({exc.reason})") from exc
        if not rows:
            raise ConfigError(f"no metric rows in {path}")
        if len(set(reader.fieldnames)) < len(reader.fieldnames):
            raise ConfigError(f"{path} names a column twice")
        for column in ("method", metric):
            if column not in reader.fieldnames:
                raise ConfigError(f"{path} lacks a {column!r} column")
        for line, row in rows:
            if None in row:  # DictReader's key for the fields past the header
                raise ConfigError(f"{path}, line {line}: more fields than the header")
            if None in (row["method"], row[metric]):  # DictReader's fill for a short row
                raise ConfigError(f"{path}, line {line}: fewer fields than the header")
            try:
                by_method.setdefault(row["method"], []).append(float(row[metric]))
            except ValueError as exc:
                raise ConfigError(f"{path}: non-numeric {metric!r} value ({exc})") from exc
    return by_method


def summary_csv(runs: dict[str, list[EpisodeMetrics]]) -> str:
    """``summary.csv``: one row per method (sorted) and metric."""
    summaries = {method: summarize_replications(runs[method]) for method in sorted(runs)}
    return _csv(["method", "metric", "n", "mean", "ci_lo", "ci_hi"],
                ([method, key, s.n, s.mean[key], s.lo(key), s.hi(key)]
                 for method, s in summaries.items() for key in METRIC_FIELDS))


def cdf_table(samples) -> str:
    """The empirical distribution of a sample set as a two-column table:
    the values sorted ascending, the i-th (from 1) at cumulative fraction
    i / n."""
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size == 0:
        raise ConfigError("cannot build a CDF from an empty sample set")
    if not np.isfinite(samples).all():
        raise ConfigError("CDF samples must be finite")
    frac = np.arange(1, samples.size + 1) / samples.size
    return _csv(["value", "cum_fraction"], zip(np.sort(samples), frac))


def report_table(by_method: dict[str, list[float]]) -> str:
    """Sample count, mean and median of one metric per method, methods in
    sorted order."""
    rows = ([method, len(vals), np.mean(vals), np.median(vals)]
            for method, vals in sorted(by_method.items()))
    return _csv(["method", "n", "mean", "median"], rows)


def sweep_report(sweep_key: str, points: list, metric: str) -> str:
    """Summary CSV over a sweep: per point (sweep_value, {"mfg": [...],
    "baseline": [...]}), each method's replicates at that value, the
    baseline's and then the mfg arm's mean and 95% interval, and the
    relative gain (mfg - baseline) / baseline of the means."""
    if not points:
        raise ConfigError("sweep_report needs at least one point")
    check_metric(metric)
    methods = ("baseline", "mfg")
    header = [sweep_key, *(f"{m}_{c}" for m in methods for c in ("mean", "ci_lo", "ci_hi")),
              "relative_gain"]
    rows = []
    for value, runs in points:
        base, mfg = (summarize_replications(runs[m]) for m in methods)
        row = [float(value) if isinstance(value, (int, float)) else value]
        for s in (base, mfg):
            row += [s.mean[metric], s.lo(metric), s.hi(metric)]
        ref = base.mean[metric]
        row.append((mfg.mean[metric] - ref) / ref if ref != 0 else float("nan"))
        rows.append(row)
    return _csv(header, rows)


def csv_to_dat(csv_text: str) -> str:
    """Whitespace-separated copy of a CSV table with a commented header,
    ready for external plotting tools."""
    return "# " + csv_text.strip().replace(",", " ") + "\n"
