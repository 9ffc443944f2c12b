import json

import numpy as np
import pytest

from udnsim import ConfigError, load_solution, save_solution
from udnsim.solution_io import MAGIC, VERSION


def test_round_trip_is_bit_exact(tmp_path, small_solution):
    path = tmp_path / "sol.mfg"
    save_solution(path, small_solution)
    back = load_solution(path)
    assert back.grid == small_solution.grid
    for name in ("value", "density", "policy", "interference"):
        a, b = getattr(back, name), getattr(small_solution, name)
        assert a.dtype == np.float64
        assert np.array_equal(a, b)  # exact, not approximate
    assert back.iterations == small_solution.iterations
    assert back.residuals == pytest.approx(small_solution.residuals)
    assert back.phy == small_solution.phy
    assert back.queue == small_solution.queue
    assert back.noise_norm == small_solution.noise_norm
    assert back.mean_sq_gain == small_solution.mean_sq_gain
    assert back.boundary == small_solution.boundary
    back.validate()


def test_rewrite_is_deterministic(tmp_path, small_solution):
    p1, p2 = tmp_path / "a.mfg", tmp_path / "b.mfg"
    save_solution(p1, small_solution)
    save_solution(p2, small_solution)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_keys_are_pinned(tmp_path, small_solution):
    # the header is the grid's fields plus every other non-block field of
    # MfgSolution: a change to this list is a format change and needs a
    # VERSION bump
    path = tmp_path / "sol.mfg"
    save_solution(path, small_solution)
    header = json.loads(path.read_bytes().split(b"\n")[1])
    assert VERSION == 2
    assert sorted(header) == sorted([
        "n_t", "n_q", "horizon_s", "iterations", "residuals", "phy", "queue",
        "noise_norm", "mean_sq_gain", "boundary"])


def test_bad_magic_rejected(tmp_path, small_solution):
    path = tmp_path / "sol.mfg"
    save_solution(path, small_solution)
    blob = path.read_bytes()
    path.write_bytes(b"X" + blob[1:])
    with pytest.raises(ConfigError):
        load_solution(path)


def test_bad_version_rejected(tmp_path, small_solution):
    path = tmp_path / "sol.mfg"
    save_solution(path, small_solution)
    blob = path.read_bytes()
    old = f"{MAGIC} {VERSION}".encode()
    new = f"{MAGIC} {VERSION + 1}".encode()
    path.write_bytes(blob.replace(old, new, 1))
    with pytest.raises(ConfigError):
        load_solution(path)


def test_truncated_payload_rejected(tmp_path, small_solution):
    path = tmp_path / "sol.mfg"
    save_solution(path, small_solution)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(ConfigError):
        load_solution(path)


@pytest.mark.parametrize("old, new", [
    (f"{MAGIC} {VERSION}\n", f"{MAGIC} x\n"),     # version not an integer
    ('{"boundary"', '{boundary'),                  # header line not JSON
    ('"queue": ', '"queuf": '),                    # header lacks a key
    ('"phy": {', '"phy": {"wattage": 1.0, '),      # phy field the class lacks
    ('"capacity_bits": 2000000.0', '"capacity_bits": 0.0'),  # queue value out of range
    ('"noise_dbm": -70.0', '"noise_dbm": "loud"'),  # phy value not a number
    ('"noise_norm": 0.1', '"noise_norm": "low"'),   # solve scalar not a number
    ('"mean_sq_gain": 1.0', '"mean_sq_gain": "one"'),
    ('"noise_norm": 0.1', '"noise_norm": -0.1'),    # solve scalar out of range
    ('"boundary": "exponential"', '"boundary": "parabolic"'),  # unknown kind
    ('"n_t": 601', '"n_t": 601.0'),                # node count not an integer
    ('"horizon_s": 1.0', '"horizon_s": NaN'),      # horizon not finite
    ('"iterations": ', '"iterations": "x", "was": '),  # iteration count not a number
    (']}\n', ', "a"]}\n'),                         # last residual not a number
    # every phy and queue float must be finite
    ('"bandwidth_hz": 1000000.0', '"bandwidth_hz": Infinity'),
    ('"noise_dbm": -70.0', '"noise_dbm": NaN'),
    ('"max_power_w": 1.0', '"max_power_w": NaN'),
    ('"circuit_power_w": 1.0', '"circuit_power_w": NaN'),
    ('"sbs_density": 0.25', '"sbs_density": Infinity'),
    ('"arrival_rate_bps": 200000.0', '"arrival_rate_bps": NaN'),
    ('"capacity_bits": 2000000.0', '"capacity_bits": Infinity'),
    ('"slot_duration_s": 0.01', '"slot_duration_s": NaN'),
    ('"noise_dbm": -70.0', '"noise_dbm": 4000.0'),  # 1e397 W overflows
    ('"iterations": ', '"eta": 0.25, "iterations": '),  # key the record lacks
], ids=["version", "json", "key", "phy-key", "queue-value", "noise-dbm-type",
        "noise-norm-type", "mean-sq-gain-type", "noise-norm-value", "boundary",
        "n-t-float", "horizon-nan", "iterations-type", "residual-type",
        "bandwidth-inf", "noise-dbm-nan", "max-power-nan", "circuit-power-nan",
        "sbs-density-inf", "arrival-rate-nan", "capacity-inf", "slot-duration-nan",
        "noise-dbm-overflow", "unknown-key"])
def test_corrupt_header_rejected(tmp_path, small_solution, old, new):
    path = tmp_path / "sol.mfg"
    save_solution(path, small_solution)
    blob = path.read_bytes()
    assert old.encode() in blob
    path.write_bytes(blob.replace(old.encode(), new.encode(), 1))
    with pytest.raises(ConfigError):
        load_solution(path)


@pytest.mark.parametrize("edit", ["iterations", "residuals"])
def test_residual_count_must_equal_iterations(tmp_path, small_solution, edit):
    """A solve writes one residual per iteration, so a header edited to
    claim more iterations, or to hold one more residual, is refused."""
    n = small_solution.iterations
    assert len(small_solution.residuals) == n
    path = tmp_path / "sol.mfg"
    save_solution(path, small_solution)
    blob = path.read_bytes()
    old, new = {"iterations": (f'"iterations": {n},', f'"iterations": {n + 6},'),
                "residuals": (']}\n', ', 0.5]}\n')}[edit]
    assert blob.count(old.encode()) == 1
    path.write_bytes(blob.replace(old.encode(), new.encode()))
    with pytest.raises(ConfigError, match="one number per iteration"):
        load_solution(path)


def test_version_1_rejected(tmp_path, small_solution):
    """A version-1 file (its header has eta and max_power_w, no phy or
    queue) names too few of its solve's inputs to be checked: it is refused
    as an unsupported version, to be solved again."""
    sol = small_solution
    header = {"n_t": sol.grid.n_t, "n_q": sol.grid.n_q, "horizon_s": sol.grid.horizon_s,
              "eta": sol.phy.sbs_density, "noise_norm": sol.noise_norm,
              "mean_sq_gain": sol.mean_sq_gain, "boundary": sol.boundary,
              "max_power_w": sol.phy.max_power_w, "iterations": sol.iterations,
              "residuals": sol.residuals}
    blocks = (sol.value, sol.density, sol.policy, sol.interference)
    path = tmp_path / "v1.mfg"
    path.write_bytes(f"{MAGIC} 1\n{json.dumps(header, sort_keys=True)}\n".encode("ascii")
                     + b"".join(np.asarray(b, dtype="<f8").tobytes() for b in blocks))
    with pytest.raises(ConfigError, match="unsupported solution format version 1"):
        load_solution(path)
