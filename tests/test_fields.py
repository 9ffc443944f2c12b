import dataclasses
import math

import numpy as np
import pytest

from udnsim import (ConfigError, GridSpec, InvariantError, MfgSolution, PhyParams,
                    QueueParams, initial_density, terminal_value)
from udnsim.fields import bilinear, density_from_samples, density_mass


def test_grid_spacing():
    grid = GridSpec(101, 51, 2.0)
    assert grid.dt == pytest.approx(0.02)
    assert grid.dq == pytest.approx(0.02)
    assert grid.times[0] == 0.0 and grid.times[-1] == 2.0
    assert grid.queues[0] == 0.0 and grid.queues[-1] == 1.0
    assert grid.cell_widths().sum() == pytest.approx(1.0, abs=1e-15)


def test_grid_validation():
    with pytest.raises(ConfigError):
        GridSpec(1, 10)
    with pytest.raises(ConfigError):
        GridSpec(10, 10, horizon_s=0.0)
    with pytest.raises(ConfigError):  # node counts are integers
        GridSpec(10.0, 10)
    with pytest.raises(ConfigError):  # the horizon is finite
        GridSpec(10, 10, horizon_s=math.nan)
    with pytest.raises(ConfigError):
        GridSpec(10, 10, horizon_s=math.inf)


def test_terminal_values():
    y = np.array([0.0, 0.5, 1.0])
    exp = terminal_value("exponential", y)
    assert exp == pytest.approx([-4.0, -4.0 * math.exp(0.5), -4.0 * math.e], rel=1e-12)
    assert terminal_value("uniform", y) == pytest.approx([-4.0, -4.0, -4.0])
    lin = terminal_value("linear", y)
    assert lin[0] == pytest.approx(-4.0)
    assert lin[-1] == pytest.approx(-4.0 * math.e)  # matches the exponential wall
    with pytest.raises(ConfigError):
        terminal_value("quadratic", y)


def test_initial_density_normalized():
    grid = GridSpec(11, 101)
    rho = initial_density(grid, rho0_mean=0.5, rho0_variance=0.1)
    assert np.trapezoid(rho, dx=grid.dq) == pytest.approx(1.0, abs=1e-12)
    assert rho.min() >= 0.0
    assert grid.queues[np.argmax(rho)] == pytest.approx(0.5, abs=grid.dq)
    with pytest.raises(ConfigError):
        initial_density(grid, rho0_variance=0.0)
    # a nan mean or variance made every node nan, and an infinite variance a
    # flat density
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="mean must be finite"):
            initial_density(grid, bad, 0.1)
        with pytest.raises(ConfigError, match="variance must be positive and finite"):
            initial_density(grid, 0.5, bad)


def test_density_mass_rows():
    grid = GridSpec(3, 51)
    rho = np.tile(initial_density(grid), (3, 1))
    assert density_mass(grid, rho) == pytest.approx([1.0, 1.0, 1.0])


def test_density_from_samples_mass(rng):
    grid = GridSpec(3, 41)
    rho = density_from_samples(grid, rng.uniform(0, 1, 5000))
    assert np.trapezoid(rho, dx=grid.dq) == pytest.approx(1.0, abs=1e-12)
    assert rho.min() >= 0.0


def test_bilinear_reproduces_nodes_and_planes():
    grid = GridSpec(5, 9, 1.0)
    tt, qq = np.meshgrid(grid.times, grid.queues, indexing="ij")
    values = 2.0 * tt - 3.0 * qq + 0.25
    # exact at the nodes
    assert bilinear(grid, values, grid.times[2], grid.queues[4]) == pytest.approx(
        values[2, 4], rel=1e-14)
    # exact for affine fields anywhere
    t, y = 0.37, 0.81
    assert bilinear(grid, values, t, y) == pytest.approx(2 * t - 3 * y + 0.25, rel=1e-12)
    # clamped outside the domain
    assert bilinear(grid, values, -1.0, 2.0) == pytest.approx(values[0, -1], rel=1e-12)


def _bilinear_reference(grid, values, t, q_norm):
    """The array formula bilinear replaced: t clamped and split as a NumPy
    array, the four corners gathered by 2-D fancy indexing."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, grid.horizon_s)
    y = np.clip(np.asarray(q_norm, dtype=float), 0.0, 1.0)
    ft = np.minimum(t / grid.dt, grid.n_t - 1 - 1e-12)
    fy = np.minimum(y / grid.dq, grid.n_q - 1 - 1e-12)
    it = ft.astype(int)
    iy = fy.astype(int)
    at = ft - it
    ay = fy - iy
    v00 = values[it, iy]
    v01 = values[it, iy + 1]
    v10 = values[it + 1, iy]
    v11 = values[it + 1, iy + 1]
    return (1 - at) * ((1 - ay) * v00 + ay * v01) + at * ((1 - ay) * v10 + ay * v11)


def test_bilinear_matches_array_formula_bitwise(rng):
    grid = GridSpec(41, 26, 0.5)
    values = rng.normal(size=(grid.n_t, grid.n_q))
    # y inside, at both walls, outside; scalar, (B,) and (R, B, k) shapes
    y = np.concatenate([rng.uniform(0.0, 1.0, 60), [0.0, 1.0, -0.3, 1.7],
                        grid.queues])
    times = [*grid.times[[0, 1, 17, -2, -1]], 0.0, grid.horizon_s,
             *rng.uniform(0.0, grid.horizon_s, 5), -0.2, 0.5 + 1e-9, 3.0,
             np.float64(0.1234), 7 * grid.dt, 0.3 * grid.dt, 0.6 * grid.dt]
    for t in times:
        for q in (y, y[:80].reshape(2, 8, 5), 0.42, 1.0, -1.0):
            got = bilinear(grid, values, t, q)
            ref = _bilinear_reference(grid, values, t, q)
            assert np.shape(got) == np.shape(ref)
            assert np.array_equal(got, ref), (t, q)


def _nan_at_origin(field):
    bad = field.copy()
    bad[0, 0] = np.nan
    return bad


def test_field_validation():
    grid = GridSpec(4, 6)
    rho = np.tile(initial_density(grid), (4, 1))
    good = MfgSolution(grid=grid, value=np.zeros((4, 6)), density=rho,
                       policy=np.full((4, 6), 0.5), interference=np.zeros(4),
                       iterations=1, residuals=[0.0], phy=PhyParams(max_power_w=1.0),
                       queue=QueueParams(), noise_norm=0.1, mean_sq_gain=1.0,
                       boundary="exponential")
    good.validate()
    negative = rho.copy()
    negative[0, 0] = -1e-6
    cases = [
        ("value", np.zeros((4, 5)), "value field shape"),
        ("value", np.full((4, 6), np.nan), "value field has non-finite"),
        ("density", rho[:, :-1], "density field shape"),
        ("density", _nan_at_origin(rho), "density field has non-finite"),
        ("density", rho * 1.01, "mass drifts"),  # mass off by 1%
        ("density", negative, "negative entries"),
        ("policy", np.zeros((3, 6)), "policy field shape"),
        ("policy", _nan_at_origin(good.policy), "policy field has non-finite"),
        ("policy", np.full((4, 6), 1.5), r"\[0, max_power\] box"),
        ("policy", np.full((4, 6), -0.1), r"\[0, max_power\] box"),
        ("interference", np.zeros(3), "interference trajectory length"),
        ("interference", np.full(4, -0.1), "interference trajectory has negative"),
    ]
    for name, values, message in cases:
        with pytest.raises(InvariantError, match=message):
            dataclasses.replace(good, **{name: values}).validate()
