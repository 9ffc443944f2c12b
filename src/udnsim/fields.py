"""Grid, terminal conditions, initial density and solution containers.

The state space is the normalized queue y = q / capacity on [0, 1]; the time
axis covers one scheduling period [0, horizon].  All fields are stored
row-major as (n_t, n_q) arrays on a uniform node grid.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvariantError
from .phy import PhyParams, QueueParams

BOUNDARY_KINDS = ("exponential", "uniform", "linear")

MASS_TOL = 1e-3
DENSITY_FLOOR = -1e-9


@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time grid over [0, horizon] x [0, 1]."""

    n_t: int = 2601
    n_q: int = 101
    horizon_s: float = 1.0

    def __post_init__(self):
        if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool)
                   for n in (self.n_t, self.n_q)):
            raise ConfigError("grid node counts must be integers")
        if self.n_t < 2 or self.n_q < 2:
            raise ConfigError("grid needs at least 2 nodes per axis")
        if not 0 < self.horizon_s < math.inf:
            raise ConfigError("horizon_s must be positive and finite")

    @property
    def dt(self) -> float:
        return self.horizon_s / (self.n_t - 1)

    @property
    def dq(self) -> float:
        return 1.0 / (self.n_q - 1)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon_s, self.n_t)

    @property
    def queues(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_q)

    def cell_widths(self) -> np.ndarray:
        """Finite-volume cell widths (half cells at the walls); they sum to 1
        and make the trapezoid rule the exact conserved mass."""
        w = np.full(self.n_q, self.dq)
        w[0] = w[-1] = 0.5 * self.dq
        return w


def terminal_value(kind: str, q_norm) -> np.ndarray:
    """Terminal value of backlog y at the end of the period.

    exponential: -4 exp(y);  uniform: -4;  linear: -4 (e - 1) y - 4.
    All three agree at y=0 and penalize leftover backlog increasingly hard.
    """
    y = np.asarray(q_norm, dtype=float)
    if kind == "exponential":
        return -4.0 * np.exp(y)
    if kind == "uniform":
        return np.full_like(y, -4.0)
    if kind == "linear":
        return -4.0 * (math.e - 1.0) * y - 4.0
    raise ConfigError(f"unknown boundary kind {kind!r}; choose from {BOUNDARY_KINDS}")


def initial_density(grid: GridSpec, rho0_mean: float = 0.5,
                    rho0_variance: float = 0.1) -> np.ndarray:
    """Truncated Gaussian backlog density on the grid nodes, renormalized so
    the trapezoid mass is exactly 1."""
    if not math.isfinite(rho0_mean):
        raise ConfigError("initial density mean must be finite")
    if not (math.isfinite(rho0_variance) and rho0_variance > 0):
        raise ConfigError("initial density variance must be positive and finite")
    with np.errstate(over="ignore"):  # far off [0, 1]: exp(-inf), no mass, refused below
        rho = np.exp(-0.5 * (grid.queues - rho0_mean) ** 2 / rho0_variance)
    mass = np.trapezoid(rho, dx=grid.dq)
    if mass <= 0:
        raise ConfigError("initial density has no mass on [0, 1]")
    return rho / mass


def density_mass(grid: GridSpec, rho: np.ndarray) -> np.ndarray:
    """Trapezoid mass of one slice or of every row of a (n_t, n_q) field."""
    return np.trapezoid(rho, dx=grid.dq, axis=-1)


def density_from_samples(grid: GridSpec, q_norm_samples) -> np.ndarray:
    """Empirical density of finite-population backlog samples on the grid
    nodes (diagnostic companion to the mean-field density)."""
    samples = np.clip(np.asarray(q_norm_samples, dtype=float), 0.0, 1.0)
    edges = np.concatenate(([0.0], grid.queues[:-1] + 0.5 * grid.dq, [1.0]))
    counts, _ = np.histogram(samples, bins=edges)
    rho = counts / (samples.size * grid.cell_widths())
    # renormalize so the trapezoid mass is exactly 1 despite half-width walls
    mass = np.trapezoid(rho, dx=grid.dq)
    return rho / mass if mass > 0 else rho


def bilinear(grid: GridSpec, values: np.ndarray, t, q_norm):
    """Bilinear interpolation of a (n_t, n_q) field at one time t (a scalar)
    and the backlogs q_norm, clamped to the domain."""
    ft = min(min(max(float(t), 0.0), grid.horizon_s) / grid.dt, grid.n_t - 1 - 1e-12)
    it = int(ft)
    at = ft - it
    y = np.minimum(np.maximum(q_norm, 0.0), 1.0)
    fy = np.minimum(y / grid.dq, grid.n_q - 1 - 1e-12)
    iy = fy.astype(int)
    ay = fy - iy
    # the two time rows bracketing t, then the two backlog nodes in each
    row0, row1 = values[it], values[it + 1]
    v00, v01 = row0[iy], row0[iy + 1]
    v10, v11 = row1[iy], row1[iy + 1]
    return (1 - at) * ((1 - ay) * v00 + ay * v01) + at * ((1 - ay) * v10 + ay * v11)


@dataclass
class MfgSolution:
    """Converged equilibrium bundle for one scheduling period, with every
    input it was solved under: grid, phy (sbs_density is the calibrated eta),
    queue, boundary, noise_norm and mean_sq_gain; density[0] is the initial
    density and value[-1] the terminal condition, both as given.  A solution
    file's header is the grid's fields plus every field but grid and the four
    arrays (solution_io), so a new field is a format change."""

    grid: GridSpec
    value: np.ndarray         # (n_t, n_q)
    density: np.ndarray       # (n_t, n_q)
    policy: np.ndarray        # (n_t, n_q), Watts
    interference: np.ndarray  # (n_t,), normalized Watts
    iterations: int
    residuals: list
    phy: PhyParams
    queue: QueueParams
    noise_norm: float
    mean_sq_gain: float
    boundary: str

    @property
    def residual(self) -> float:
        return self.residuals[-1] if self.residuals else float("nan")

    def validate(self):
        """Raise InvariantError unless the fields fit the grid and are
        finite, the density is nonnegative with unit mass in every slice and
        the policy stays in [0, max_power]."""
        for name, values in (("value", self.value), ("density", self.density),
                             ("policy", self.policy)):
            if values.shape != (self.grid.n_t, self.grid.n_q):
                raise InvariantError(f"{name} field shape does not match grid")
            if not np.isfinite(values).all():
                raise InvariantError(f"{name} field has non-finite entries")
        if self.density.min() < DENSITY_FLOOR:
            raise InvariantError(f"density has negative entries below {DENSITY_FLOOR}")
        err = np.abs(density_mass(self.grid, self.density) - 1.0).max()
        if err > MASS_TOL:
            raise InvariantError(f"density mass drifts by {err:.3e} (> {MASS_TOL})")
        if self.policy.min() < 0.0 or self.policy.max() > self.phy.max_power_w + 1e-12:
            raise InvariantError("policy leaves the [0, max_power] box")
        if self.interference.shape != (self.grid.n_t,):
            raise InvariantError("interference trajectory length does not match grid")
        if self.interference.min() < 0:
            raise InvariantError("interference trajectory has negative entries")
