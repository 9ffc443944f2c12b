"""Network geometry: jittered square SBS grid with k UEs per cell.

All link gains are normalized by the arithmetic mean of the serving gains, so
normalized serving gains have unit mean, the noise floor becomes
noise / mean-serving-gain, and the interference coupling constant eta is the
mean total normalized cross gain seen at a UE.  This is the normalization the
solver assumes: its mean_sq_gain = 1 is the mean serving gain, and its
mean-field interference eta * E|h|^2 * integral of p * rho averages gains
arithmetically, so measured and solved interference stay directly comparable.

Cross links (UE to a non-serving SBS) carry an extra flat isolation loss on
top of distance pathloss, the usual small-cell wall/penetration term: serving
links terminate inside the cell while interference arrives from outside it.
Without it a grid this dense is interference-limited to the point where no
power policy can carry the offered load.

The (n_ue, n_sbs) gain matrix is built in place: pathloss, shadowing, fading,
isolation and normalization each rewrite one array, so a draw holds about
three gain-sized arrays at its peak (the distances, their pathloss and one
block of normal draws), not one per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .phy import PathlossModel, PhyParams, pathloss_gain

ISD_UNIT_M = 20.0
DEFAULT_AREA_KM2 = 0.5625


@dataclass
class Deployment:
    sbs_xy: np.ndarray        # (B, 2) meters
    ue_xy: np.ndarray         # (M, 2) meters
    gains: np.ndarray         # (M, B) normalized link gains
    eta: float                # mean total normalized cross gain at a UE
    noise_norm: float         # noise power / mean serving gain
    mean_serving_gain: float  # physical linear mean serving gain (gains * this)
    k: int

    @property
    def n_sbs(self) -> int:
        return self.sbs_xy.shape[0]

    @property
    def n_ue(self) -> int:
        return self.ue_xy.shape[0]

    @property
    def serving(self) -> np.ndarray:
        return np.arange(self.n_ue) // self.k

    def serving_gains(self) -> np.ndarray:
        return self.gains[np.arange(self.n_ue), self.serving]


def rician_power_fading(rng: np.random.Generator, shape, k_db: float) -> np.ndarray:
    """Unit-mean Rician power fading draws: |sqrt(K/(K+1)) + CN(0, 1/(K+1))|^2
    with K the linear line-of-sight factor.  K=0 (k_db -> -inf) is Rayleigh."""
    k_lin = 10.0 ** (k_db / 10.0)
    los = np.sqrt(k_lin / (k_lin + 1.0))
    sigma = np.sqrt(1.0 / (2.0 * (k_lin + 1.0)))
    re = rng.normal(0.0, sigma, size=shape)
    re += los
    re *= re
    im = rng.normal(0.0, sigma, size=shape)
    re += np.square(im, out=im)
    return re


def grid_side(isd_units: float, area_km2: float = DEFAULT_AREA_KM2) -> int:
    """Number of SBS rows/columns: the square side divided by the inter-site
    distance, rounded to the nearest whole grid."""
    if not isd_units > 0:
        raise ConfigError("isd_units must be positive")
    if not area_km2 > 0:
        raise ConfigError("area_km2 must be positive")
    side_m = np.sqrt(area_km2) * 1e3
    return max(1, round(side_m / (isd_units * ISD_UNIT_M)))


def check_deployment(isd_units, k, area_km2, jitter_frac, fading, cross_isolation_db,
                     rician_k_db) -> int:
    """The grid side of a draw with these settings (the [deployment] keys;
    fading needs no check); ConfigError unless each is in range."""
    if k < 1:
        raise ConfigError("k must be at least 1")
    if not jitter_frac >= 0:
        raise ConfigError("jitter_frac must be nonnegative")
    if not cross_isolation_db >= 0:
        raise ConfigError("cross_isolation_db must be nonnegative")
    if not rician_k_db < 3080:
        raise ConfigError("rician_k_db must be below 3080 (a K-factor below 1e308)")
    return grid_side(isd_units, area_km2)


def generate_deployment(isd_units: float, k: int, phy: PhyParams,
                        pathloss: PathlossModel = PathlossModel(),
                        seed=0, area_km2: float = DEFAULT_AREA_KM2,
                        jitter_frac: float = 0.15, fading: bool = True,
                        cross_isolation_db: float = 15.0,
                        rician_k_db: float = 10.0) -> Deployment:
    """Draw one deployment: SBSs near the square-grid points, k UEs uniform
    in each cell, every UE served by its cell's SBS, one shadowing (and
    optionally Rician fading) draw per link, fixed for the episode.
    Non-serving links are attenuated by cross_isolation_db.  rician_k_db
    sets the fading K-factor (line-of-sight to scattered power ratio);
    K -> -inf dB recovers Rayleigh fading."""
    n_side = check_deployment(isd_units, k, area_km2, jitter_frac, fading,
                              cross_isolation_db, rician_k_db)
    rng = np.random.default_rng(seed)
    side_m = np.sqrt(area_km2) * 1e3
    cell = side_m / n_side

    centers = (np.arange(n_side) + 0.5) * cell
    gx, gy = np.meshgrid(centers, centers, indexing="ij")
    sbs = np.column_stack([gx.ravel(), gy.ravel()])
    sbs = sbs + rng.uniform(-jitter_frac * cell, jitter_frac * cell, size=sbs.shape)
    n_sbs = sbs.shape[0]

    # k UEs uniform in each (un-jittered) cell, served by that cell's SBS
    base = np.repeat(np.column_stack([gx.ravel(), gy.ravel()]), k, axis=0)
    ue = base + rng.uniform(-0.5 * cell, 0.5 * cell, size=(n_sbs * k, 2))
    serving = np.repeat(np.arange(n_sbs), k)

    # UE-to-SBS distances sqrt(dx * dx + dy * dy): the bits of the 2-norm of
    # the (n_ue, n_sbs, 2) difference, built in the dx array
    with np.errstate(over="ignore"):  # a distance past the float range is inf: no gain
        d = np.subtract.outer(ue[:, 0], sbs[:, 0])
        dy = np.subtract.outer(ue[:, 1], sbs[:, 1])
        d *= d
        dy *= dy
        d += dy
        del dy
        np.sqrt(d, out=d)
    gains = pathloss_gain(d, pathloss, rng)
    del d
    if fading:
        gains *= rician_power_fading(rng, gains.shape, rician_k_db)

    # cross links lose the isolation; serving links keep their gain exactly
    rows = np.arange(n_sbs * k)
    serving_gains = gains[rows, serving]
    gains *= 10.0 ** (-cross_isolation_db / 10.0)
    gains[rows, serving] = serving_gains

    ref_serving = float(serving_gains.mean())
    if not 0 < ref_serving < np.inf:
        raise ConfigError(f"mean serving gain {ref_serving!r} is not positive and finite "
                          "(check ref_loss_db, min_distance_m and jitter_frac)")
    gains /= ref_serving
    cross = gains.sum(axis=1) - gains[rows, serving]
    return Deployment(
        sbs_xy=sbs, ue_xy=ue, gains=gains,
        eta=float(cross.mean()), noise_norm=phy.noise_w / ref_serving,
        mean_serving_gain=ref_serving, k=k,
    )
