import numpy as np
import pytest

from udnsim import ConfigError, PathlossModel, generate_deployment, grid_side
from udnsim.deployment import DEFAULT_AREA_KM2, ISD_UNIT_M


def test_grid_side_reference_points():
    # 750 m square side over 20 m distance units
    assert grid_side(3.5) == 11    # 70 m spacing
    assert grid_side(6.5) == 6     # 130 m spacing
    assert grid_side(12.5) == 3
    assert grid_side(37.5) == 1    # one cell fills the area
    assert grid_side(100.0) == 1   # never below one
    with pytest.raises(ConfigError):
        grid_side(0.0)
    with pytest.raises(ConfigError, match="isd_units"):
        grid_side(np.nan)
    for area in (0.0, -1.0, np.nan):
        with pytest.raises(ConfigError, match="area_km2"):
            grid_side(3.5, area)


def test_deployment_shapes(phy):
    dep = generate_deployment(3.5, 2, phy, seed=3)
    assert dep.n_sbs == 121
    assert dep.n_ue == 242
    assert dep.gains.shape == (242, 121)
    assert dep.serving.tolist() == np.repeat(np.arange(121), 2).tolist()
    assert dep.isd_units == 3.5 and dep.k == 2


def test_positions_inside_area(phy):
    dep = generate_deployment(6.5, 3, phy, seed=11)
    side_m = np.sqrt(DEFAULT_AREA_KM2) * 1e3
    cell = side_m / grid_side(6.5)
    assert dep.ue_xy.min() >= 0.0 and dep.ue_xy.max() <= side_m
    # each UE is drawn inside its own (un-jittered) cell
    n = grid_side(6.5)
    centers = (np.arange(n) + 0.5) * cell
    gx, gy = np.meshgrid(centers, centers, indexing="ij")
    own = np.column_stack([gx.ravel(), gy.ravel()])[dep.serving]
    assert np.abs(dep.ue_xy - own).max() <= 0.5 * cell + 1e-9


def test_normalization_invariants(phy):
    dep = generate_deployment(3.5, 2, phy, seed=7)
    rows = np.arange(dep.n_ue)
    serving = dep.gains[rows, dep.serving]
    assert serving.mean() == pytest.approx(1.0, abs=1e-12)
    assert (serving > 0).all()
    cross = dep.gains.sum(axis=1) - serving
    assert dep.eta == pytest.approx(cross.mean(), rel=1e-12)
    assert dep.noise_norm == pytest.approx(phy.noise_w / dep.mean_serving_gain, rel=1e-12)
    assert dep.serving_gains() == pytest.approx(serving)


def test_deployment_determinism(phy):
    a = generate_deployment(3.5, 2, phy, seed=42)
    b = generate_deployment(3.5, 2, phy, seed=42)
    c = generate_deployment(3.5, 2, phy, seed=43)
    assert np.array_equal(a.gains, b.gains)
    assert np.array_equal(a.ue_xy, b.ue_xy)
    assert not np.array_equal(a.gains, c.gains)


def test_fading_toggle_changes_gains(phy):
    a = generate_deployment(3.5, 2, phy, seed=42, fading=True)
    b = generate_deployment(3.5, 2, phy, seed=42, fading=False)
    assert not np.array_equal(a.gains * a.mean_serving_gain,
                              b.gains * b.mean_serving_gain)


def test_single_cell_has_no_interference(phy):
    dep = generate_deployment(37.5, 4, phy, seed=1)
    assert dep.n_sbs == 1
    assert dep.eta == 0.0


def test_k_validation(phy):
    with pytest.raises(ConfigError):
        generate_deployment(3.5, 0, phy, seed=1)


@pytest.mark.parametrize("kw", [dict(area_km2=0.0), dict(area_km2=-1.0),
                                dict(area_km2=np.nan), dict(jitter_frac=-0.3),
                                dict(jitter_frac=np.nan), dict(cross_isolation_db=np.nan),
                                # each sends every serving gain to 0
                                dict(jitter_frac=1e300),
                                dict(pathloss=PathlossModel(ref_loss_db=4000.0)),
                                dict(pathloss=PathlossModel(min_distance_m=1e300))])
def test_geometry_validation(phy, kw):
    with pytest.raises(ConfigError):
        generate_deployment(3.5, 2, phy, seed=1, **kw)
