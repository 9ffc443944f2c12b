import tracemalloc

import numpy as np
import pytest

from udnsim import ConfigError, PathlossModel, generate_deployment, grid_side
from udnsim.deployment import DEFAULT_AREA_KM2, ISD_UNIT_M
from udnsim.phy import pathloss_gain


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
    assert dep.k == 2


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


def test_serving_gains_follow_the_cells(phy):
    """UE u is served by SBS u // k, the map the slot kernel's lanes assume."""
    dep = generate_deployment(12.5, 3, phy, seed=5)
    u = np.arange(dep.n_ue)
    assert dep.serving_gains().tobytes() == dep.gains[u, u // dep.k].tobytes()


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
                                dict(pathloss=PathlossModel(min_distance_m=1e300)),
                                dict(rician_k_db=3083.0)])  # 10^308.3 overflows
def test_geometry_validation(phy, kw):
    with pytest.raises(ConfigError):
        generate_deployment(3.5, 2, phy, seed=1, **kw)


def reference_deployment(isd_units, k, phy, pathloss, seed, fading, cross_isolation_db,
                         rician_k_db=10.0, jitter_frac=0.15, area_km2=DEFAULT_AREA_KM2):
    """generate_deployment written out of place, one new array per step: the
    norm of the 3-D difference, pathloss and Rician fading as expressions,
    a full isolation scale and a normalizing division.  The same draws in
    the same order."""
    rng = np.random.default_rng(seed)
    n_side = grid_side(isd_units, area_km2)
    cell = np.sqrt(area_km2) * 1e3 / n_side
    centers = (np.arange(n_side) + 0.5) * cell
    gx, gy = np.meshgrid(centers, centers, indexing="ij")
    sbs = np.column_stack([gx.ravel(), gy.ravel()])
    sbs = sbs + rng.uniform(-jitter_frac * cell, jitter_frac * cell, size=sbs.shape)
    n_sbs = sbs.shape[0]
    base = np.repeat(np.column_stack([gx.ravel(), gy.ravel()]), k, axis=0)
    ue = base + rng.uniform(-0.5 * cell, 0.5 * cell, size=(n_sbs * k, 2))
    serving = np.repeat(np.arange(n_sbs), k)

    d = np.maximum(np.linalg.norm(ue[:, None, :] - sbs[None, :, :], axis=2),
                   pathloss.min_distance_m)
    pl_db = pathloss.ref_loss_db + 10.0 * pathloss.exponent * np.log10(d / 1e3)
    pl_db = pl_db + rng.normal(0.0, pathloss.shadowing_std_db, size=pl_db.shape)
    gains = 10.0 ** (-pl_db / 10.0)
    if fading:
        k_lin = 10.0 ** (rician_k_db / 10.0)
        sigma = np.sqrt(1.0 / (2.0 * (k_lin + 1.0)))
        re = np.sqrt(k_lin / (k_lin + 1.0)) + rng.normal(0.0, sigma, size=gains.shape)
        im = rng.normal(0.0, sigma, size=gains.shape)
        gains = gains * (re * re + im * im)
    rows = np.arange(n_sbs * k)
    scale = np.full_like(gains, 10.0 ** (-cross_isolation_db / 10.0))
    scale[rows, serving] = 1.0
    gains = gains * scale
    ref_serving = float(gains[rows, serving].mean())
    gains_norm = gains / ref_serving
    cross = gains_norm.sum(axis=1) - gains_norm[rows, serving]
    return dict(sbs_xy=sbs, ue_xy=ue, gains=gains_norm,
                eta=float(cross.mean()), noise_norm=phy.noise_w / ref_serving,
                mean_serving_gain=ref_serving)


@pytest.mark.parametrize("isd_units, k", [(12.5, 2), (3.5, 5)])  # 9 and 121 SBSs
@pytest.mark.parametrize("cross_isolation_db", [0.0, 15.0])
@pytest.mark.parametrize("fading", [True, False])
def test_in_place_gains_equal_the_out_of_place_reference(phy, isd_units, k,
                                                         cross_isolation_db, fading):
    model = PathlossModel()
    for seed in (0, 7):
        dep = generate_deployment(isd_units, k, phy, model, seed=seed, fading=fading,
                                  cross_isolation_db=cross_isolation_db)
        ref = reference_deployment(isd_units, k, phy, model, seed, fading, cross_isolation_db)
        for name, value in ref.items():
            got = getattr(dep, name)
            # bit for bit: the same bytes, not just equal values
            assert np.asarray(got).tobytes() == np.asarray(value).tobytes(), name


def test_pathloss_gain_keeps_scalars_and_its_input(rng):
    model = PathlossModel()
    gain = pathloss_gain(100.0, model)
    assert np.ndim(gain) == 0 and not isinstance(gain, np.ndarray)
    distance = np.array([1.0, 100.0, 1000.0])
    kept = distance.copy()
    pathloss_gain(distance, model, rng)
    assert np.array_equal(distance, kept)


def test_deployment_draw_holds_under_four_gain_matrices(phy):
    """The in-place build peaks near three gain-sized arrays (the distances,
    their pathloss copy and one draw of normals); out of place it held six."""
    generate_deployment(3.5, 5, phy, seed=1)  # imports and caches warm
    tracemalloc.start()
    try:
        dep = generate_deployment(3.5, 5, phy, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dep.n_sbs == 121
    assert peak < 4 * dep.gains.nbytes
