"""Coupled backward value sweep, forward density transport and the
interference fixed point.

The backward sweep is an explicit monotone upwind scheme: the queue drift
d(t, y, p) = (arrivals - rate(p)) / capacity is strictly decreasing in p, so
the power range splits at the balance power (rate = arrivals) into a fill
branch (drift >= 0, upwinded on the forward difference) and a drain branch
(drift <= 0, upwinded on the backward difference); each branch maximum is the
pointwise power optimum on its interval and the larger branch Hamiltonian
wins, the fill branch on a tie.  The Hamiltonian is phi + abar * dV/dy with
phi the pointwise utility of power_opt in nats and vgrad = rcoef * dV/dy its
marginal value of rate, the same units that _existence_violations uses.  At
the walls the upwinded gradient is clamped to zero, the drain gradient at
y=0 and the fill gradient at y=1: backlog cannot leave [0, capacity].

Each step makes one maximize_rate_value call on 2 n_q lanes.  The balance
power, and with it both boxes, depends on beta alone, and so does what
power_opt.step_terms builds from beta and the boxes (the EE power and its
phi in each box, the g table and the bracket table of its counts, and their
companion terms).  Steps of a run of equal betas share them: the sweep
builds them once per run, for G_BLOCK runs at a time, so memory does not
grow with n_t, and a constant trajectory (the first sweep of every solve)
builds one set.  The call's n_q gradients are 0 and the n_q - 1
differences of the later value slice, against the fill and the drain box:
the fill lane at node j and the drain lane at node j + 1 upwind onto the
same difference, so one search serves both, and the zero lane gives both
walls.  The sweep's scalars abar, rcoef, dq and dt are 0-d arrays, like
the terms' own, so a step runs only array-array NumPy calls on what changes
per step: the differences, one binary search and one gather for the
brackets, the Cauchy steps, the selection and the Hamiltonian (power_opt
docstring).  The result equals, bit for bit, a sweep that hands each
step's 2 n_q lanes to maximize_rate_value with its terms built per call.

The forward sweep is the transpose of the backward step at a fixed policy
(Achdou & Capuzzo-Dolcetta 2010; Gomes, Mohr & Souza 2010).  A step reads
value[i] = A_i value[i + 1] + dt * utility, where node k keeps 1 - c,
c = dt * |drift| / dq, and reads c from its upwind node, none at a clamped
wall; the node masses m = w * rho move by m[i + 1] = A_i^T m[i].  So mass is
conserved, stays nonnegative and is the population the sweep's control
moves.  Both sweeps check one CFL bound, c <= 1 (_check_cfl), the backward
one for every power in [0, p_max].
solve_mfg builds beta_trajectory once per fixed-point iteration for the
sweep, the drift of its policy and the uniqueness diagnostic.

The interference fixed point x = F(x), F one backward and one forward
sweep, starts at the interference of the queue-blind game, in which every
SBS plays the EE power p*(beta) of the zero-gradient lane (Zappone &
Jorswieck 2015): the scalar x = eta * mean_sq_gain * p*(mean_sq_gain /
(x + noise_norm)).  Where the value is flat in backlog the sweep plays that
power, so the start is the equilibrium up to the queue-aware part of the
policy.  p* falls with beta, so the scalar map is increasing and bounded by
eta * mean_sq_gain * p_max, and its iterates from the init value converge
monotonically.  The loop then steps from x to x + damping * (F(x) - x), a
mix of two nonnegative trajectories that needs no clip.  From the second
iteration a secant (depth-1 Anderson) step replaces it when finite and
nonnegative; one outside the cone is rejected, not projected back
(safeguarded Anderson acceleration, Walker & Ni 2011).
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .errors import CflError, ConfigError, ConvergenceError, SchemeError
from .fields import (
    DENSITY_FLOOR,
    MASS_TOL,
    GridSpec,
    MfgSolution,
    density_mass,
    initial_density,
    terminal_value,
)
from .phy import LN2, PhyParams, QueueParams
from .power_opt import ee_power, maximize_rate_value, step_terms

log = logging.getLogger(__name__)

FP_TOL = 1e-4
# scalar steps of the queue-blind start; reference physics takes 12 to 15
START_MAX_ITERS = 1000
INIT_MODES = ("zero", "half")  # the queue-blind start's seed: 0 or 0.5 * eta * p_max
EXISTENCE_TOL = 1e-12
# runs of equal beta per block of the backward sweep's step_terms, whose
# bracket tables take about 400 KB: on sweep-v-smoke's seeds 7, 10 and 13,
# which solve queue-aware, peak RSS read 40.8-41.4 MB (40.7-41.2 MB before
# the tables), and all runs at once 48.8-50.4 MB (2-core Xeon)
G_BLOCK = 64


def _rate_coeffs(phy: PhyParams, queue: QueueParams):
    """(arrival speed, rate speed per nat) in normalized-queue units, 1/s."""
    abar = queue.arrival_rate_bps / queue.capacity_bits
    rcoef = phy.bandwidth_hz / (LN2 * queue.capacity_bits)
    return abar, rcoef


def check_iteration(damping, tol, max_iters, init):
    """ConfigError unless solve_mfg's fixed-point loop settings are in range."""
    if not (0.0 < damping <= 1.0 and tol > 0.0 and max_iters >= 1):
        raise ConfigError("damping must lie in (0, 1], tol be positive and max_iters >= 1")
    if init not in INIT_MODES:
        raise ConfigError(f"interference init must be one of {INIT_MODES}")


def check_noise_and_gain(noise_norm, mean_sq_gain):
    if not (math.isfinite(noise_norm) and noise_norm > 0):
        raise ConfigError("noise_norm must be positive and finite")
    if not (math.isfinite(mean_sq_gain) and mean_sq_gain > 0):
        raise ConfigError("mean_sq_gain must be positive and finite")


def _check_cfl(speed, grid: GridSpec):
    """CflError unless speed moves backlog at most one node per time step
    (relative slack 1e-12, for a speed of exactly one node per step)."""
    if speed * grid.dt > grid.dq * (1.0 + 1e-12):
        raise CflError(speed, grid.dt, grid.dq)


def beta_trajectory(interference, noise_norm, mean_sq_gain):
    """Gain-to-noise ratio mean_sq_gain / (interference + noise_norm) per
    slice; ConfigError unless it is positive and finite."""
    interference = np.asarray(interference, dtype=float)
    check_noise_and_gain(noise_norm, mean_sq_gain)
    if interference.min() < 0:
        raise ConfigError("interference trajectory must be nonnegative")
    with np.errstate(over="ignore"):  # an overflow fails the test below
        beta = mean_sq_gain / (interference + noise_norm)
    if not np.all((beta > 0) & (beta < np.inf)):
        raise ConfigError("interference trajectory gives a gain-to-noise ratio "
                          "that is not positive and finite")
    return beta


def hjb_backward(grid: GridSpec, terminal, beta, phy: PhyParams, queue: QueueParams):
    """Backward sweep; returns (value, policy) as (n_t, n_q) arrays.

    terminal: value at the period end, shape (n_q,).
    beta: per-slice gain-to-noise ratio, shape (n_t,) (beta_trajectory).
    """
    terminal = np.asarray(terminal, dtype=float)
    if terminal.shape != (grid.n_q,):
        raise ConfigError("terminal slice length does not match grid")
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (grid.n_t,) or not np.all((beta > 0) & (beta < np.inf)):
        raise ConfigError("gain-to-noise trajectory must be positive and finite, "
                          "one value per time node")
    # the worst-case advection speed over the whole power box must fit the grid
    abar, rcoef = _rate_coeffs(phy, queue)
    _check_cfl(max(abar, rcoef * np.log1p(float(beta.max()) * phy.max_power_w) - abar), grid)

    n_t, n_q = grid.n_t, grid.n_q
    # the step's scalars as 0-d float64 arrays (power_opt docstring)
    abar, rcoef, dq, dt = (np.array(x) for x in (abar, rcoef, grid.dq, grid.dt))
    p_max = phy.max_power_w
    value = np.empty((n_t, n_q))
    policy = np.empty((n_t, n_q))
    value[-1] = terminal

    # a run of equal betas shares one BoxTerms: step i belongs to run
    # runs[i], whose beta is b[runs[i]]
    new_run = np.r_[True, beta[1:] != beta[:-1]]
    runs = (np.cumsum(new_run) - 1).tolist()
    b = beta[new_run]
    # the fill box [0, p_bal] and the drain box [p_bal, p_max] split at the
    # balance power (rate = arrivals), as (n_runs, 2, 1) columns against the
    # lanes; a subnormal beta sends p_bal to inf, which clips to p_max
    with np.errstate(over="ignore"):
        p_bal = np.minimum(np.expm1(abar / rcoef) / b, p_max)
    lo = np.stack([np.zeros(b.size), p_bal], axis=1)[:, :, None]
    hi = np.stack([p_bal, np.full(b.size, p_max)], axis=1)[:, :, None]
    dead = (p_bal >= p_max).tolist()  # no drain region anywhere in the box
    # a step's n_q gradients: lane 0 is zero, lane k >= 1 the difference
    # between nodes k - 1 and k.  The drain lane at node k reads lane k and
    # the fill lane at node k lane k + 1; both walls read lane 0
    grad = np.zeros(n_q)
    lanes = np.concatenate([np.roll(np.arange(n_q), -1), n_q + np.arange(n_q)]).reshape(2, n_q)

    # a step reads the later slice; the terminal slice's policy reads itself.
    # Runs' terms are built G_BLOCK runs at a time, the block that ends at
    # the run the sweep has reached
    first = b.size
    for i in range(n_t - 1, -1, -1):
        r = runs[i]
        if r < first:
            first = max(r + 1 - G_BLOCK, 0)
            steps = step_terms(b[first:r + 1], lo[first:r + 1], hi[first:r + 1], phy)
        t = steps[r - first]
        v_next = value[min(i + 1, n_t - 1)]
        np.divide(v_next[1:] - v_next[:-1], dq, out=grad[1:])
        # the drift's rate term -rcoef*ln(1+beta*p)*dV/dy is the
        # -vgrad*rate part of phi, so vgrad = rcoef*dV/dy and the arrival
        # term remains
        p, phi = maximize_rate_value(t.beta, rcoef * grad, t.lo, t.hi, phy, terms=t)
        ham = (phi + abar * grad).take(lanes)
        p = p.take(lanes)
        if dead[r]:
            ham[1] = -np.inf
        # argmax's pick of a branch: fill on a tie, and the first nan
        fill = (ham[0] >= ham[1]) | np.isnan(ham[0])
        policy[i] = np.where(fill, p[0], p[1])
        if i < n_t - 1:
            value[i] = v_next + dt * np.where(fill, ham[0], ham[1])
    if not np.isfinite(value).all():
        raise SchemeError("backward sweep produced non-finite values")
    return value, policy


def drift_field(policy, beta, phy: PhyParams, queue: QueueParams):
    """Normalized queue drift (n_t, n_q) realized by a power policy
    (n_t, n_q) against the gain-to-noise trajectory beta (n_t,)."""
    abar, rcoef = _rate_coeffs(phy, queue)
    return abar - rcoef * np.log1p(np.asarray(beta)[:, None] * policy)


def fpk_forward(grid: GridSpec, rho0, drift):
    """Forward transport of the backlog density along a queue drift field.

    drift: finite (n_t, n_q) field, such as drift_field of a policy, that
    moves backlog by at most one node per time step (_check_cfl).
    Returns the (n_t, n_q) density field with rho0 reproduced at slice 0.
    """
    rho0 = np.asarray(rho0, dtype=float)
    if rho0.shape != (grid.n_q,):
        raise ConfigError("initial density length does not match grid")
    if not np.all((rho0 >= 0) & (rho0 < np.inf)):
        raise ConfigError("initial density must be nonnegative and finite")
    drift = np.asarray(drift, dtype=float)
    if drift.shape != (grid.n_t, grid.n_q) or not np.isfinite(drift).all():
        raise ConfigError("drift must be a finite field on the grid")
    _check_cfl(float(np.abs(drift[:-1]).max()), grid)

    # node masses by the transposed sweep step; clamped walls move none out
    w = grid.cell_widths()
    c = drift[:-1] * (grid.dt / grid.dq)
    up, down = np.maximum(c, 0.0), np.maximum(-c, 0.0)
    up[:, -1] = down[:, 0] = 0.0
    stay = 1.0 - up - down
    m = np.empty((grid.n_t, grid.n_q))
    m[0] = w * rho0
    for i in range(grid.n_t - 1):
        np.multiply(stay[i], m[i], out=m[i + 1])
        m[i + 1, 1:] += up[i, :-1] * m[i, :-1]
        m[i + 1, :-1] += down[i, 1:] * m[i, 1:]
    rho = m / w
    rho[0] = rho0

    if rho.min() < DENSITY_FLOOR:
        raise SchemeError(f"density went negative ({rho.min():.3e})")
    np.clip(rho, 0.0, None, out=rho)
    err = np.abs(density_mass(grid, rho) - density_mass(grid, rho0)).max()
    if err > MASS_TOL:
        raise SchemeError(f"density mass drifted by {err:.3e} (> {MASS_TOL})")
    return rho


def mf_interference(grid: GridSpec, policy, rho, eta: float, mean_sq_gain: float = 1.0):
    """Mean-field interference eta * E[|h|^2] * integral of p * rho, per slice."""
    return eta * mean_sq_gain * np.trapezoid(np.asarray(policy) * np.asarray(rho),
                                         dx=grid.dq, axis=-1)


def _queue_blind_interference(x, noise_norm, mean_sq_gain, phy: PhyParams, tol):
    """Fixed point of x -> eta * mean_sq_gain * p*(mean_sq_gain / (x + noise_norm)),
    eta = phy.sbs_density and p* = power_opt.ee_power, the EE power on
    [0, p_max], iterated from x until a step moves it by at most
    1e-3 * tol * max(noise_norm, x), or for START_MAX_ITERS steps."""
    check_noise_and_gain(noise_norm, mean_sq_gain)
    noise, gain = float(noise_norm), float(mean_sq_gain)
    for _ in range(START_MAX_ITERS):
        nxt = phy.sbs_density * gain * float(ee_power(gain / (x + noise), phy))
        if abs(nxt - x) <= 1e-3 * tol * max(noise, nxt):
            return nxt
        x = nxt
    return x


def _existence_violations(grid, value, policy, beta, phy, queue):
    """Count grid nodes where the stationarity root is degenerate (Eq.-style
    uniqueness diagnostic evaluated at the converged policy)."""
    _, rcoef = _rate_coeffs(phy, queue)
    grad = np.gradient(value, grid.dq, axis=1)
    v = beta[:, None] * rcoef * grad
    expr = 2.0 * v * (policy + phy.circuit_power_w) + beta[:, None] * np.log1p(beta[:, None] * policy)
    return int((np.abs(expr) <= EXISTENCE_TOL).sum())


def solve_mfg(grid: GridSpec, phy: PhyParams, queue: QueueParams,
              boundary: str = "exponential", *, noise_norm: float,
              mean_sq_gain: float = 1.0, rho0=None,
              damping: float = 0.5, tol: float = FP_TOL,
              max_iters: int = 200, init: str = "half") -> MfgSolution:
    """Damped fixed-point iteration over the interference trajectory.

    The iteration starts from the constant trajectory at the queue-blind
    game's interference (_queue_blind_interference, seeded with 0 for
    init="zero" and 0.5 * eta * p_max for "half"; both reach it within the
    scalar stop tolerance).
    Where the equilibrium policy is the EE power at every node that carries
    mass, that start is the fixed point, and the first sweep confirms it.
    F(x) is the interference that the best response to x radiates.  With
    r = F(x) - x, the damped step x + damping * r mixes x and F(x), both
    nonnegative, so it needs no clip.  From the second iteration, with dx
    and dr the changes of x and r, the secant step
    x + damping * r - gamma * (dx + damping * dr), gamma = r.dr / dr.dr,
    replaces it when dr.dr > 0 and the step is finite and nonnegative.

    The residual is the sup-norm change of the interference trajectory
    relative to the (normalized) noise power.  Raises ConvergenceError with
    the residual history when max_iters is exhausted.
    """
    check_iteration(damping, tol, max_iters, init)
    eta = phy.sbs_density
    terminal = terminal_value(boundary, grid.queues)
    rho0 = initial_density(grid) if rho0 is None else np.asarray(rho0, dtype=float)
    if rho0.shape != (grid.n_q,) or not abs(density_mass(grid, rho0) - 1.0) <= MASS_TOL:
        raise ConfigError(f"initial density must be {grid.n_q} nodes of unit mass")

    x0 = 0.0 if init == "zero" else 0.5 * eta * phy.max_power_w
    interference = np.full(grid.n_t, _queue_blind_interference(
        x0, noise_norm, mean_sq_gain, phy, tol))

    residuals = []
    dx = prev_r = None
    for iteration in range(1, max_iters + 1):
        beta = beta_trajectory(interference, noise_norm, mean_sq_gain)
        value, policy = hjb_backward(grid, terminal, beta, phy, queue)
        rho = fpk_forward(grid, rho0, drift_field(policy, beta, phy, queue))
        i_new = mf_interference(grid, policy, rho, eta, mean_sq_gain)
        scale = max(noise_norm, float(np.abs(i_new).max()))
        residual = float(np.abs(i_new - interference).max() / scale)
        residuals.append(residual)
        if residual < tol:
            bad = _existence_violations(grid, value, policy, beta, phy, queue)
            if bad:
                log.warning("stationarity uniqueness diagnostic failed at %d grid nodes", bad)
            return MfgSolution(
                grid=grid, value=value, density=rho, policy=policy, interference=i_new,
                iterations=iteration, residuals=residuals, phy=phy, queue=queue,
                noise_norm=noise_norm, mean_sq_gain=mean_sq_gain, boundary=boundary)
        r = i_new - interference
        nxt = interference + damping * r
        if dx is not None:
            dr = r - prev_r
            denom = float(dr @ dr)
            if denom > 0:
                cand = nxt - float(r @ dr) / denom * (dx + damping * dr)
                if np.all((cand >= 0) & (cand < np.inf)):
                    nxt = cand
        dx, prev_r = nxt - interference, r
        interference = nxt

    raise ConvergenceError(
        f"interference fixed point missed tol={tol} after {max_iters} iterations "
        f"(last residual {residuals[-1]:.3e})", residuals)
