import numpy as np
import pytest

from udnsim import ConfigError, EpisodeMetrics
from udnsim.reporting import build_cdf, cdf_table, csv_to_dat, metrics_csv, sweep_report
from udnsim.simulate import METRIC_FIELDS, ReplicationSummary


def test_build_cdf_sorts_samples():
    assert np.array_equal(build_cdf([3.0, 1.0, 2.0, 2.0]), [1.0, 2.0, 2.0, 3.0])
    assert np.array_equal(build_cdf([[2.0, -1.0], [0.5, 4.0]]), [-1.0, 0.5, 2.0, 4.0])


def test_build_cdf_validation():
    with pytest.raises(ConfigError):
        build_cdf([])
    with pytest.raises(ConfigError):
        build_cdf([1.0, float("nan")])


def test_cdf_table_format():
    table = cdf_table(build_cdf([2.0, 1.0]))
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


def summary_of(value):
    s = ReplicationSummary(n=4)
    for key in METRIC_FIELDS:
        s.mean[key] = value
        s.ci_half[key] = 0.25
    return s


def test_sweep_report_table():
    points = [(3.5, {"mfg": summary_of(2.0), "baseline": summary_of(1.0)}),
              (6.5, {"mfg": summary_of(3.0), "baseline": summary_of(4.0)})]
    table = sweep_report("isd", points, "ee_bits_per_j")
    lines = table.strip().split("\n")
    assert lines[0] == ("isd,baseline_mean,baseline_ci_lo,baseline_ci_hi,"
                        "mfg_mean,mfg_ci_lo,mfg_ci_hi,relative_gain")
    assert lines[1] == "3.5,1,0.75,1.25,2,1.75,2.25,1"
    assert lines[2] == "6.5,4,3.75,4.25,3,2.75,3.25,-0.25"


def test_sweep_report_single_method_has_no_gain_column():
    table = sweep_report("k", [(2, {"mfg": summary_of(1.0)})], "utility")
    assert "relative_gain" not in table.split("\n")[0]


def test_sweep_report_validation():
    with pytest.raises(ConfigError):
        sweep_report("isd", [], "ee_bits_per_j")
    with pytest.raises(ConfigError):
        sweep_report("isd", [(1.0, {"mfg": summary_of(1.0)})], "nonsense")
    points = [(1.0, {"mfg": summary_of(1.0)}),
              (2.0, {"mfg": summary_of(1.0), "baseline": summary_of(1.0)})]
    with pytest.raises(ConfigError):
        sweep_report("isd", points, "ee_bits_per_j")


def test_csv_to_dat():
    assert csv_to_dat("a,b\n1,2\n3,4\n") == "# a b\n1 2\n3 4\n"
