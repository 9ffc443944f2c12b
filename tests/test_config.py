import dataclasses
import inspect
from pathlib import Path

import pytest

from udnsim import (ConfigError, DppParams, EpisodeParams, GridSpec, PathlossModel, PhyParams,
                    QueueParams, generate_deployment, initial_density, run_episodes, solve_mfg)
from udnsim.config import SCHEMA, _bool, _float, load_config


ROOT = Path(__file__).parents[1]


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_every_shipped_and_benchmark_config_loads():
    paths = sorted(ROOT.glob("configs/*.cfg")) + sorted(ROOT.glob("bench/configs/*.cfg"))
    assert len(paths) >= 4
    for path in paths:
        load_config(path)


def test_defaults_without_file():
    cfg = load_config(None)
    assert cfg.phy.bandwidth_hz == 1e6
    assert cfg.phy.max_power_w == 1.0
    assert cfg.queue.capacity_bits == 2_000_000
    assert cfg.grid.n_t == 2601
    assert cfg.grid.n_q == 101
    assert cfg.boundary == "exponential"
    assert cfg.raw["solver"]["noise_norm"] == 0.03
    assert cfg.dpp.v_coeff == -1.0
    assert cfg.raw["deployment"]["isd_units"] == 3.5
    assert cfg.output_dir == "out"


def test_file_overrides_and_inline_comments(tmp_path):
    cfg = load_config(write(tmp_path, """
[phy]
bandwidth_hz = 5e6   # half the default band
[solver]
n_t = 401 ; coarse
n_q = 11
boundary = linear
[deployment]
k = 3
[output]
dir = results
"""))
    assert cfg.phy.bandwidth_hz == 5e6
    assert cfg.grid.n_t == 401
    assert cfg.grid.n_q == 11
    assert cfg.boundary == "linear"
    assert cfg.raw["deployment"]["k"] == 3
    assert cfg.output_dir == "results"


RECORDS = {"phy": PhyParams, "traffic": QueueParams, "pathloss": PathlossModel}
# every key of the three sections off its default; a 20 ms slot needs 50
# slots for the 1 s solved period
OTHER_VALUES = {
    "phy": dict(bandwidth_hz=2e6, noise_dbm=-80.0, max_power_w=0.5,
                circuit_power_w=0.7, sbs_density=0.1),
    "traffic": dict(arrival_rate_bps=100e3, capacity_bits=1e6, slot_duration_s=0.02),
    "pathloss": dict(ref_loss_db=128.1, exponent=3.76, shadowing_std_db=6.0,
                     min_distance_m=5.0),
}


def test_radio_traffic_and_pathloss_sections_are_their_records(tmp_path):
    for section, record in RECORDS.items():
        assert list(SCHEMA[section]) == [f.name for f in dataclasses.fields(record)]
        assert list(OTHER_VALUES[section]) == list(SCHEMA[section])
        assert all(value != SCHEMA[section][key][1]
                   for key, value in OTHER_VALUES[section].items())
    cfg = load_config(None)
    assert (cfg.phy, cfg.queue, cfg.pathloss) == (PhyParams(), QueueParams(), PathlossModel())

    text = "[simulate]\nslots_per_period = 50\n" + "".join(
        f"[{section}]\n" + "".join(f"{key} = {value!r}\n" for key, value in values.items())
        for section, values in OTHER_VALUES.items())
    cfg = load_config(write(tmp_path, text))
    assert cfg.phy == PhyParams(**OTHER_VALUES["phy"])
    assert cfg.queue == QueueParams(**OTHER_VALUES["traffic"])
    assert cfg.pathloss == PathlossModel(**OTHER_VALUES["pathloss"])


def test_simulate_section_is_its_record(tmp_path):
    """[simulate] keeps its seven keys, their order and their defaults, and
    builds the record EpisodeParams whole."""
    assert list(SCHEMA["simulate"]) == [
        "n_periods", "slots_per_period", "n_replicates", "base_seed", "estimate_mode",
        "initial_backlog", "drain_window_slots"]
    assert list(SCHEMA["simulate"]) == [f.name for f in dataclasses.fields(EpisodeParams)]
    assert [default for _, default in SCHEMA["simulate"].values()] == [
        30, 100, 20, 20240, "arithmetic", "empty", 40]
    assert load_config(None).episode == EpisodeParams()

    # every key off its default; 50 slots of 20 ms fill the solved 1 s period
    values = dict(n_periods=3, slots_per_period=50, n_replicates=2, base_seed=5,
                  estimate_mode="exponential", initial_backlog="density", drain_window_slots=7)
    assert all(value != SCHEMA["simulate"][key][1] for key, value in values.items())
    text = "[traffic]\nslot_duration_s = 0.02\n[simulate]\n" + "".join(
        f"{key} = {value}\n" for key, value in values.items())
    cfg = load_config(write(tmp_path, text))
    assert cfg.episode == EpisodeParams(**values)
    assert [type(getattr(cfg.episode, key)) for key in values] == [type(v) for v in values.values()]
    assert cfg.raw["simulate"] == values


def test_solver_scheduler_and_deployment_defaults_are_their_owners():
    """[solver], [scheduler] and [deployment] keep their keys, their order,
    their defaults and their parsers, and a key that some code takes as a
    parameter has that parameter's default."""
    assert {section: [(key, parse, default, type(default))
                      for key, (parse, default) in SCHEMA[section].items()]
            for section in ("solver", "scheduler", "deployment")} == {
        "solver": [("n_t", int, 2601, int), ("n_q", int, 101, int),
                   ("horizon_s", _float, 1.0, float), ("boundary", str, "exponential", str),
                   ("damping", _float, 0.5, float), ("tol", _float, 1e-4, float),
                   ("max_iters", int, 200, int), ("init", str, "half", str),
                   ("noise_norm", _float, 0.03, float), ("mean_sq_gain", _float, 1.0, float),
                   ("rho0_mean", _float, 0.5, float), ("rho0_variance", _float, 0.1, float)],
        "scheduler": [("v_coeff", _float, -1.0, float),
                      ("gradient_model", str, "linear_ee", str),
                      ("qos_min_rate_bps", _float, 200e3, float)],
        "deployment": [("isd_units", _float, 3.5, float), ("k", int, 5, int),
                       ("area_km2", _float, 0.5625, float), ("jitter_frac", _float, 0.15, float),
                       ("fading", _bool, True, bool), ("cross_isolation_db", _float, 15.0, float),
                       ("rician_k_db", _float, 10.0, float)],
    }
    owned = [(GridSpec, "solver", ["n_t", "n_q", "horizon_s"]),
             (solve_mfg, "solver", ["boundary", "damping", "tol", "max_iters", "init",
                                    "mean_sq_gain"]),
             (initial_density, "solver", ["rho0_mean", "rho0_variance"]),
             (DppParams, "scheduler", ["v_coeff"]),
             (run_episodes, "scheduler", ["qos_min_rate_bps"]),
             (generate_deployment, "deployment", ["area_km2", "jitter_frac", "fading",
                                                  "cross_isolation_db", "rician_k_db"])]
    for owner, section, names in owned:
        params = inspect.signature(owner).parameters
        for name in names:
            assert SCHEMA[section][name][1] == params[name].default, (owner, name)


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="section"):
        load_config(write(tmp_path, "[nonsense]\nx = 1\n"))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="key"):
        load_config(write(tmp_path, "[phy]\nwattage = 3\n"))


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")


@pytest.mark.parametrize("body", [
    "[phy]\nbandwidth_hz = lots\n",
    "[solver]\nboundary = parabolic\n",
    "[solver]\ninit = warm\n",
    "[solver]\nnoise_norm = 0\n",
    "[solver]\ndamping = 0\n",
    "[solver]\ndamping = 1.5\n",
    "[solver]\nmax_iters = 0\n",
    "[solver]\nmean_sq_gain = 0\n",
    "[solver]\nmean_sq_gain = -1\n",
    "[solver]\nmean_sq_gain = inf\n",
    "[solver]\nmean_sq_gain = nan\n",
    "[scheduler]\nv_coeff = nan\n",               # every float key is finite
    "[scheduler]\nv_coeff = -inf\n",
    "[phy]\nmax_power_w = inf\n",
    "[traffic]\narrival_rate_bps = nan\n",
    "[deployment]\nisd_units = nan\n",
    "[deployment]\nk = 0\n",
    "[deployment]\nisd_units = -1\n",
    "[deployment]\narea_km2 = -1\n",
    "[deployment]\narea_km2 = 0\n",
    "[deployment]\njitter_frac = -0.3\n",
    "[deployment]\ncross_isolation_db = -1\n",     # generate_deployment would reject it
    "[deployment]\nrician_k_db = 1e6\n",
    "[deployment]\nrician_k_db = 3083\n",            # 10^308.3 overflows
    "[phy]\nnoise_dbm = 4000\n",                  # 1e397 W overflows
    "[phy]\nsbs_density = -1\n",                  # PhyParams checks it
    "[pathloss]\nexponent = 0\n",
    "[traffic]\ncapacity_bits = 1e300\n",          # past int64
    "[traffic]\ncapacity_bits = 7.7e15\n",         # 605 full buffers pass 2**62
    "[traffic]\narrival_rate_bps = 1e21\n",        # past Poisson's range
    "[simulate]\nbase_seed = -1\n",
    "[simulate]\nn_replicates = 0\n",
    "[simulate]\nslots_per_period = 0\n",
    "[simulate]\nestimate_mode = kalman\n",
    "[simulate]\ninitial_backlog = full\n",
    "[simulate]\ndrain_window_slots = 0\n",
    "[simulate]\nn_periods = 2.5\n",             # an int key
    "[solver]\nrho0_variance = 0\n",              # the solve's initial density
    "[solver]\nrho0_variance = -0.1\n",
    "[solver]\nrho0_mean = 1e300\n",              # no mass on [0, 1]
    "[sweep]\nkey = frequency\n",
    "[scheduler]\ngradient_model = zero\n",
    "bandwidth_hz = 1e6\n",                       # no section header
    "[phy]\nmax_power_w = 1\nmax_power_w = 2\n",  # duplicate key
    "[phy]\nbandwidth_hz = 5%\n",                  # not a float
    "[output]\ndir =\n",                          # os.makedirs("") fails
])
def test_bad_values_rejected(tmp_path, body):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, body))


@pytest.mark.parametrize("body, message", [
    ("[phy]\nsbs_density = -1\n", "[phy] sbs_density must be nonnegative and finite"),
    ("[phy]\nmax_power_w = 0\n", "[phy] max_power_w must be positive"),
    ("[traffic]\ncapacity_bits = 0\n", "[traffic] capacity_bits must be positive"),
    ("[pathloss]\nexponent = 0\n", "[pathloss] exponent must be positive"),
    ("[solver]\nn_q = 1\n", "[solver] grid needs at least 2 nodes per axis"),
    ("[solver]\nhorizon_s = 0\n", "[solver] horizon_s must be positive"),
    ("[scheduler]\nv_coeff = 1\n", "[scheduler] v_coeff must be nonpositive"),
    ("[simulate]\nn_periods = 0\n", "[simulate] n_periods, slots_per_period"),
    ("[simulate]\nestimate_mode = kalman\n", "[simulate] estimate_mode must be one of"),
    ("[solver]\nrho0_variance = 0\n", "[solver] initial density variance must be positive"),
    ("[solver]\nrho0_mean = 1e300\n", "[solver] initial density has no mass"),
    # the solve's and the draw's own checks, run at load
    ("[solver]\ndamping = 0\n", "[solver] damping must lie in (0, 1]"),
    ("[solver]\ninit = warm\n", "[solver] interference init must be one of"),
    ("[solver]\nboundary = parabolic\n", "[solver] unknown boundary kind 'parabolic'"),
    ("[solver]\nmean_sq_gain = 0\n", "[solver] mean_sq_gain must be positive"),
    ("[deployment]\nk = 0\n", "[deployment] k must be at least 1"),
    ("[deployment]\nrician_k_db = 3083\n", "[deployment] rician_k_db must be below 3080"),
])
def test_record_range_errors_name_their_section(tmp_path, body, message):
    # each record checks its own ranges, and the config names the section
    # that set the value, as its own checks do
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, body))
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("body, refusal", [
    ("[DEFAULT]\nn_q = 21\n", r"unknown config section \[DEFAULT\]"),     # no default section
    ("[DEFAULT]\nk = 2\n[deployment]\n", r"unknown config section \[DEFAULT\]"),
    ("[solver]\nn_q = 21\nn_t = %(n_q)s01\n", r"bad value for \[solver\] n_t"),  # no interpolation
    ("[solver]\nN_Q = 21\n", "unknown config key 'N_Q' in section"),     # no case folding
    ("[solver]\nn_q: 21\n", "malformed config file"),                   # '=' the only delimiter
    ("[output]\ndir = out%d\n", None),                                   # '%' is a character
], ids=["default-only", "default-and-deployment", "interpolation", "key-case", "colon",
        "percent"])
def test_a_file_is_read_by_its_schema_alone(tmp_path, body, refusal):
    """The schema is the whole language: no value is set but by a key = value
    line of a section and key spelled as SCHEMA spells them."""
    path = write(tmp_path, body)
    if refusal is None:
        assert load_config(path).raw["output"]["dir"] == "out%d"
    else:
        with pytest.raises(ConfigError, match=refusal):
            load_config(path)


def test_capacity_is_whole_bits(tmp_path):
    # the simulator's queues are int64 bits: half a bit would be a wall of 0
    for capacity in (0.5, 1.5, 2e6 + 0.25):
        with pytest.raises(ConfigError, match="^capacity_bits must be a whole number of bits$"):
            QueueParams(capacity_bits=capacity)
    with pytest.raises(ConfigError, match=r"^\[traffic\] capacity_bits must be a whole number"):
        load_config(write(tmp_path, "[traffic]\ncapacity_bits = 0.5\n"))
    assert QueueParams(capacity_bits=1).capacity_bits == 1
    assert load_config(write(tmp_path, "[traffic]\ncapacity_bits = 1e6\n")).queue == \
        QueueParams(capacity_bits=1e6)


def test_non_utf8_file_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"\xff\xfe[phy]\nbandwidth_hz = 1e6\n")
    with pytest.raises(ConfigError, match="malformed config file"):
        load_config(path)


def test_bool_parsing(tmp_path):
    cfg = load_config(write(tmp_path, "[deployment]\nfading = no\n"))
    assert cfg.raw["deployment"]["fading"] is False
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "[deployment]\nfading = maybe\n"))


def test_env_overrides(tmp_path, monkeypatch):
    monkeypatch.setenv("UDNSIM_OUTDIR", str(tmp_path / "env-out"))
    cfg = load_config(None)
    assert cfg.output_dir == str(tmp_path / "env-out")
    monkeypatch.setenv("UDNSIM_OUTDIR", "")  # os.makedirs("") fails
    with pytest.raises(ConfigError, match="output directory"):
        load_config(None)


def test_sweep_values_typed(tmp_path):
    cfg = load_config(write(tmp_path, "[sweep]\nkey = k\nvalues = 1, 2, 5\n"))
    key, values = cfg.sweep_values()
    assert key == "k"
    assert values == [1, 2, 5]
    assert all(isinstance(v, int) for v in values)

    cfg = load_config(write(tmp_path, "[sweep]\nkey = isd\nvalues = 3.5,6.5\n"))
    _, values = cfg.sweep_values()
    assert values == [3.5, 6.5]

    cfg = load_config(write(tmp_path, "[sweep]\nkey = boundary\nvalues = exponential, linear\n"))
    _, values = cfg.sweep_values()
    assert values == ["exponential", "linear"]

    # a value may continue on indented lines
    cfg = load_config(write(tmp_path, "[sweep]\nkey = k\nvalues = 1,\n    2, 5\n"))
    assert cfg.sweep_values() == ("k", [1, 2, 5])


def test_sweep_values_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(None).sweep_values()
    cfg = load_config(write(tmp_path, "[sweep]\nkey = k\n"))
    with pytest.raises(ConfigError):
        cfg.sweep_values()
    cfg = load_config(write(tmp_path, "[sweep]\nkey = k\nvalues = 1, two\n"))
    with pytest.raises(ConfigError):
        cfg.sweep_values()
    cfg = load_config(write(tmp_path, "[sweep]\nkey = boundary\nvalues = exponential, weird\n"))
    with pytest.raises(ConfigError):
        cfg.sweep_values()
    # every swept config is built, so a value out of its key's range fails too
    cfg = load_config(write(tmp_path, "[sweep]\nkey = k\nvalues = 2, 0\n"))
    with pytest.raises(ConfigError,
                       match=r"^\[sweep\] k = 0: \[deployment\] k must be at least 1$"):
        cfg.sweep_values()
    cfg = load_config(write(tmp_path, "[sweep]\nkey = isd\nvalues = 12.5, -1\n"))
    with pytest.raises(ConfigError, match=r"^\[sweep\] isd = -1.0: "):
        cfg.sweep_values()


@pytest.mark.parametrize("key, values", [("v", "1, nan"), ("v", "inf"), ("isd", "nan"),
                                         ("isd", "12.5, -inf"), ("k", "nan")])
def test_non_finite_sweep_values_rejected(tmp_path, key, values):
    cfg = load_config(write(tmp_path, f"[sweep]\nkey = {key}\nvalues = {values}\n"))
    with pytest.raises(ConfigError, match="finite numbers"):
        cfg.sweep_values()


@pytest.mark.parametrize("key, value, line", [
    ("isd", 6.5, "[deployment]\nisd_units = 6.5\n"),
    ("k", 3, "[deployment]\nk = 3\n"),
    ("v", 20.0, "[scheduler]\nv_coeff = -20\n"),
    ("boundary", "linear", "[solver]\nboundary = linear\n"),
    ("rate", 1e5, "[traffic]\narrival_rate_bps = 1e5\n"),
])
def test_swept_config_equals_the_file_that_sets_it(tmp_path, key, value, line):
    sweep = f"[sweep]\nkey = {key}\nvalues = {value}\n"
    cfg = load_config(write(tmp_path, sweep))
    assert cfg.sweep_values() == (key, [value])
    assert cfg.with_value(key, value) == load_config(write(tmp_path, sweep + line))
