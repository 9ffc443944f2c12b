import numpy as np
import pytest
import scipy.stats

from udnsim import ConfigError, EpisodeMetrics
from udnsim.cli import main
from udnsim.reporting import (T_975, cdf_table, csv_to_dat, metrics_csv, read_metric,
                              report_table, summarize_replications, summary_csv, sweep_report)
from udnsim.simulate import METRIC_FIELDS


def cdf_values(table):
    """The value column of a cdf_table."""
    return [float(line.split(",")[0]) for line in table.splitlines()[1:]]


def test_build_cdf_sorts_samples():
    # cdf_table builds the CDF: its value column is the samples sorted
    assert cdf_values(cdf_table([3.0, 1.0, 2.0, 2.0])) == [1.0, 2.0, 2.0, 3.0]
    assert cdf_values(cdf_table([[2.0, -1.0], [0.5, 4.0]])) == [-1.0, 0.5, 2.0, 4.0]


def test_build_cdf_validation():
    with pytest.raises(ConfigError):
        cdf_table([])
    with pytest.raises(ConfigError):
        cdf_table([1.0, float("nan")])


def test_cdf_table_format():
    table = cdf_table([2.0, 1.0])
    assert table == "value,cum_fraction\n1,0.5\n2,1\n"


def make_metrics(method, seed, ee):
    m = EpisodeMetrics(method=method, seed=seed, n_periods=2, n_sbs=3, n_ue=6,
                       arrived_bits=100, dropped_bits=1, infeasible_slots=0)
    m.ee_bits_per_j = ee
    return m


def test_metrics_csv_layout():
    m = make_metrics("mfg", 7, 1.5)
    m.replicate = 3
    text = metrics_csv([m])
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert header[:6] == ["method", "seed", "replicate", "replicate_periods", "n_sbs", "n_ue"]
    assert set(METRIC_FIELDS) <= set(header)
    row = dict(zip(header, lines[1].split(",")))
    assert row["method"] == "mfg"
    assert (row["seed"], row["replicate"], row["replicate_periods"]) == ("7", "3", "2")
    assert row["ee_bits_per_j"] == "1.5"
    assert row["arrived_bits"] == "100"


def hand_metrics(method, replicate, ee, outage, power):
    """An episode whose every metric has at most 12 significant digits, so
    the metrics CSV holds it exactly."""
    m = EpisodeMetrics(method=method, seed=11, n_periods=4, n_sbs=2, n_ue=6,
                       replicate=replicate, arrived_bits=1000 + replicate,
                       dropped_bits=replicate, infeasible_slots=0)
    m.ee_bits_per_j, m.outage_fraction, m.mean_power_w = ee, outage, power
    m.dropped_ratio = replicate / 1000
    m.interference_mean, m.utility = 0.25 * replicate, 0.1 + replicate
    m.energy_j, m.delivered_bits = 40.0 + replicate / 4, 900 + 7 * replicate
    return m


HAND_RUNS = {
    "mfg": [hand_metrics("mfg", r, ee, o, p) for r, (ee, o, p) in
            enumerate([(1.5e5, 0.0, 0.5), (1.25e5, 0.375, 0.75), (2e5, 0.5, 0.625)])],
    "baseline": [hand_metrics("baseline", r, ee, o, p) for r, (ee, o, p) in
                 enumerate([(1e5, 0.25, 1.0), (1.75e5, 0.0, 0.875)])],
}


def test_summary_csv_bytes():
    assert summary_csv(HAND_RUNS) == (
        "method,metric,n,mean,ci_lo,ci_hi\n"
        "baseline,ee_bits_per_j,2,137500,-338982.677607,613982.677607\n"
        "baseline,outage_fraction,2,0.125,-1.46327559202,1.71327559202\n"
        "baseline,dropped_ratio,2,0.0005,-0.00585310236809,0.00685310236809\n"
        "baseline,mean_power_w,2,0.9375,0.143362203989,1.73163779601\n"
        "baseline,interference_mean,2,0.125,-1.46327559202,1.71327559202\n"
        "baseline,utility,2,0.6,-5.75310236809,6.95310236809\n"
        "baseline,energy_j,2,40.125,38.536724408,41.713275592\n"
        "baseline,delivered_bits,2,903.5,859.028283423,947.971716577\n"
        "mfg,ee_bits_per_j,3,158333.333333,63468.7574934,253197.909173\n"
        "mfg,outage_fraction,3,0.291666666667,-0.354726459901,0.938059793234\n"
        "mfg,dropped_ratio,3,0.001,-0.00148413771175,0.00348413771175\n"
        "mfg,mean_power_w,3,0.625,0.314482786031,0.935517213969\n"
        "mfg,interference_mean,3,0.25,-0.371034427938,0.871034427938\n"
        "mfg,utility,3,1.1,-1.38413771175,3.58413771175\n"
        "mfg,energy_j,3,40.25,39.6289655721,40.8710344279\n"
        "mfg,delivered_bits,3,907,889.611036018,924.388963982\n")


def write_hand_metrics(tmp_path):
    paths = []
    for method, metrics in HAND_RUNS.items():
        path = tmp_path / f"metrics_{method}.csv"
        path.write_text(metrics_csv(metrics))
        paths.append(str(path))
    return paths


def test_metrics_csv_round_trips_through_read_metric(tmp_path):
    paths = write_hand_metrics(tmp_path)
    for key in METRIC_FIELDS:
        assert read_metric(paths, key) == {
            method: [float(getattr(m, key)) for m in metrics]
            for method, metrics in HAND_RUNS.items()}, key


def test_read_metric_names_what_is_missing(tmp_path):
    cases = [("method,ee_bits_per_j\nmfg,1\n", "outage_fraction",
              "lacks a 'outage_fraction' column"),
             ("replicate,ee_bits_per_j\n0,1\n", "ee_bits_per_j", "lacks a 'method' column"),
             # DictReader skips the blank line, but the line number counts it
             ("method,ee_bits_per_j\n\nmfg,1\nmfg\n", "ee_bits_per_j",
              "line 4: fewer fields than the header"),
             # a longer row used to drop its extra fields, and a column
             # named twice to keep its last value
             ("method,ee_bits_per_j\nmfg,1\nmfg,1,7\n", "ee_bits_per_j",
              "line 3: more fields than the header"),
             ("method,ee_bits_per_j,method\nmfg,1,baseline\n", "ee_bits_per_j",
              "names a column twice")]
    for text, metric, message in cases:
        path = tmp_path / "metrics.csv"
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            read_metric([str(path)], metric)
        assert str(err.value).startswith(str(path)) and str(err.value).endswith(message)


@pytest.mark.parametrize("metric, report, cdfs", [
    ("ee_bits_per_j",
     "method,n,mean,median\nbaseline,2,137500,137500\nmfg,3,158333.333333,150000\n",
     {"mfg": "value,cum_fraction\n125000,0.333333333333\n150000,0.666666666667\n200000,1\n",
      "baseline": "value,cum_fraction\n100000,0.5\n175000,1\n"}),
    ("outage_fraction",
     "method,n,mean,median\nbaseline,2,0.125,0.125\nmfg,3,0.291666666667,0.375\n",
     {"mfg": "value,cum_fraction\n0,0.333333333333\n0.375,0.666666666667\n0.5,1\n",
      "baseline": "value,cum_fraction\n0,0.5\n0.25,1\n"}),
])
def test_report_files_bytes(tmp_path, metric, report, cdfs):
    paths, rep = write_hand_metrics(tmp_path), tmp_path / "rep"
    assert main(["report", "--metrics", *paths, "--metric", metric, "--out", str(rep)]) == 0
    assert (rep / f"report_{metric}.csv").read_text() == report
    for method, cdf in cdfs.items():
        assert (rep / f"cdf_{metric}_{method}.csv").read_text() == cdf
    assert report_table(read_metric(paths, metric)) == report


def test_t_quantile_table_holds_scipy_bits():
    # summarize_replications reads T_975 up to 31 replicates in place of
    # scipy, so each entry must be the bits t.ppf gives
    assert len(T_975) == 30
    for df, t in enumerate(T_975, start=1):
        assert t == float(scipy.stats.t.ppf(0.975, df)), df


@pytest.mark.parametrize("n", [2, 3, 20, 1000])
def test_summary_confidence_interval(n):
    vals = 1.0 + np.arange(n) ** 1.5 / n
    rows = []
    for v in vals:
        m = EpisodeMetrics(method="x", seed=0, n_periods=1, n_sbs=1, n_ue=1)
        for key in METRIC_FIELDS:
            setattr(m, key, float(v))
        rows.append(m)
    s = summarize_replications(rows)
    # summary.csv carries this value, so it must equal the t.ppf expression
    tcrit = float(scipy.stats.t.ppf(0.975, n - 1))
    ci_half = float(tcrit * vals.std(ddof=1) / np.sqrt(n))
    for key in METRIC_FIELDS:
        assert s.mean[key] == pytest.approx(vals.mean(), rel=1e-12)
        assert s.ci_half[key] == ci_half
        assert s.lo(key) == pytest.approx(s.mean[key] - ci_half)
        assert s.hi(key) == pytest.approx(s.mean[key] + ci_half)
    with pytest.raises(ConfigError):
        summarize_replications([])


def replicates_at(value):
    """Two replicates whose every metric has mean value and 95% half-width
    0.25, to the 12 digits a table prints."""
    rows = []
    for v in (value - 0.25 / T_975[0], value + 0.25 / T_975[0]):
        m = EpisodeMetrics(method="x", seed=0, n_periods=1, n_sbs=1, n_ue=1)
        for key in METRIC_FIELDS:
            setattr(m, key, v)
        rows.append(m)
    return rows


def test_sweep_report_table():
    points = [(3.5, {"mfg": replicates_at(2.0), "baseline": replicates_at(1.0)}),
              (6.5, {"mfg": replicates_at(3.0), "baseline": replicates_at(4.0)})]
    table = sweep_report("isd", points, "ee_bits_per_j")
    lines = table.strip().split("\n")
    assert lines[0] == ("isd,baseline_mean,baseline_ci_lo,baseline_ci_hi,"
                        "mfg_mean,mfg_ci_lo,mfg_ci_hi,relative_gain")
    assert lines[1] == "3.5,1,0.75,1.25,2,1.75,2.25,1"
    assert lines[2] == "6.5,4,3.75,4.25,3,2.75,3.25,-0.25"


def test_sweep_report_validation():
    with pytest.raises(ConfigError):
        sweep_report("isd", [], "ee_bits_per_j")
    with pytest.raises(ConfigError):
        sweep_report("isd", [(1.0, {"mfg": replicates_at(1.0),
                                    "baseline": replicates_at(1.0)})], "nonsense")


def test_csv_to_dat():
    assert csv_to_dat("a,b\n1,2\n3,4\n") == "# a b\n1 2\n3 4\n"
