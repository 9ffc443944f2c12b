import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from udnsim import (CflError, ConfigError, ConvergenceError, GridSpec, PhyParams,
                    QueueParams, fpk_forward, hjb_backward, initial_density,
                    mf_interference, solve_mfg, terminal_value)
from udnsim.fields import density_mass
from udnsim.power_opt import _phi, maximize_rate_value, step_terms
from udnsim.solver import (FP_TOL, G_BLOCK, _queue_blind_interference, _rate_coeffs,
                           beta_trajectory, drift_field)
from test_power_opt import _bisect_reference


def ee_max(beta, p0, p_max):
    res = minimize_scalar(lambda p: -_phi(p, beta, 0.0, p0),
                          bounds=(0.0, p_max), method="bounded",
                          options={"xatol": 1e-12})
    cand = [0.0, p_max, float(res.x)]
    return max(cand, key=lambda p: _phi(p, beta, 0.0, p0))


def test_cfl_guard(phy, queue):
    grid = GridSpec(101, 101)  # dt = dq = 0.01: too coarse in time for beta ~ 33
    beta = beta_trajectory(np.zeros(grid.n_t), 0.03, 1.0)
    with pytest.raises(CflError) as err:
        hjb_backward(grid, terminal_value("uniform", grid.queues), beta, phy, queue)
    assert isinstance(err.value, ConfigError)
    assert "dt" in str(err.value) and "speed" in str(err.value)


def test_hjb_input_validation(phy, queue):
    grid = GridSpec(601, 21)
    flat = np.zeros(grid.n_t)
    beta = beta_trajectory(flat, 0.1, 1.0)
    with pytest.raises(ConfigError):
        hjb_backward(grid, np.zeros(grid.n_q + 1), beta, phy, queue)
    with pytest.raises(ConfigError):
        hjb_backward(grid, np.zeros(grid.n_q), beta[:-1], phy, queue)
    with pytest.raises(ConfigError):
        beta_trajectory(flat - 1.0, 0.1, 1.0)
    with pytest.raises(ConfigError):
        beta_trajectory(flat, 0.0, 1.0)
    # a nan or infinite noise is named, not reported as a bad trajectory
    for noise in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="noise_norm must be positive and finite"):
            beta_trajectory(flat, noise, 1.0)


def test_hjb_uniform_terminal_is_exact(phy, queue):
    """Flat terminal slice: the value stays flat and grows linearly backward
    at the best efficiency rate, and the policy is the pure efficiency
    optimum; both are known independently of the scheme."""
    grid = GridSpec(601, 21)
    interference = np.full(grid.n_t, 0.1)
    noise = 0.05
    value, policy = hjb_backward(grid, terminal_value("uniform", grid.queues),
                                 beta_trajectory(interference, noise, 1.0), phy, queue)
    beta = 1.0 / (0.1 + noise)
    p_star = ee_max(beta, phy.circuit_power_w, phy.max_power_w)
    h_star = _phi(p_star, beta, 0.0, phy.circuit_power_w)
    assert 0.0 < p_star < phy.max_power_w  # interior case, not a wall artifact
    assert np.abs(policy - p_star).max() < 1e-4 * phy.max_power_w
    expected = -4.0 + (grid.horizon_s - grid.times)[:, None] * h_star
    assert np.abs(value - expected).max() < 1e-6


def test_hjb_value_monotone_in_backlog(small_solution):
    dv = np.diff(small_solution.value, axis=1)
    assert dv.max() <= 1e-9  # more backlog is never better


def _sweep_reference(grid, terminal, beta, phy, queue, optimizer=maximize_rate_value):
    """hjb_backward with each step's branch gradients and bounds built afresh
    by concatenation, then handed to one optimizer call (maximize_rate_value
    or a reference with its contract)."""
    abar, rcoef = _rate_coeffs(phy, queue)
    n_q, dq = grid.n_q, grid.dq
    value = np.empty((grid.n_t, n_q))
    policy = np.empty((grid.n_t, n_q))
    value[-1] = terminal

    def step(v_next, beta_i):
        dplus = np.zeros(n_q)
        dminus = np.zeros(n_q)
        dplus[:-1] = (v_next[1:] - v_next[:-1]) / dq
        dminus[1:] = (v_next[1:] - v_next[:-1]) / dq
        if beta_i > 0:
            p_bal = min(np.expm1(abar / rcoef) / beta_i, phy.max_power_w)
        else:
            p_bal = phy.max_power_w
        grad_fill = dplus.copy()
        grad_fill[-1] = 0.0
        grad_drain = dminus.copy()
        grad_drain[0] = 0.0
        vgrads = np.concatenate([grad_fill, grad_drain])
        lo = np.concatenate([np.zeros(n_q), np.full(n_q, p_bal)])
        hi = np.concatenate([np.full(n_q, p_bal), np.full(n_q, phy.max_power_w)])
        p_all, phi_all = optimizer(beta_i, rcoef * vgrads, lo, hi, phy)
        ham = (phi_all + abar * vgrads).reshape(2, n_q)
        p_all = p_all.reshape(2, n_q)
        if p_bal >= phy.max_power_w:
            ham[1] = -np.inf
        pick = np.argmax(ham, axis=0)
        cols = np.arange(n_q)
        return p_all[pick, cols], ham[pick, cols]

    policy[-1], _ = step(terminal, float(beta[-1]))
    for i in range(grid.n_t - 2, -1, -1):
        p_i, ham_i = step(value[i + 1], float(beta[i]))
        value[i] = value[i + 1] + grid.dt * ham_i
        policy[i] = p_i
    return value, policy


@pytest.mark.parametrize("boundary", ["exponential", "uniform"])
@pytest.mark.parametrize("trajectory", ["zero", "varying"])
def test_hjb_matches_sweep_reference_bitwise(phy, queue, boundary, trajectory):
    # the varying trajectory also reaches beta below the balance threshold,
    # where the drain branch is empty (p_bal = p_max)
    grid = GridSpec(601, 21)
    interference = np.zeros(grid.n_t)
    if trajectory == "varying":
        interference = 4.0 * (1.0 + np.sin(9.0 * grid.times))
    terminal = terminal_value(boundary, grid.queues)
    beta = beta_trajectory(interference, 0.1, 1.0)
    value, policy = hjb_backward(grid, terminal, beta, phy, queue)
    ref_value, ref_policy = _sweep_reference(grid, terminal, beta, phy, queue)
    assert np.array_equal(value, ref_value)
    assert np.array_equal(policy, ref_policy)


@pytest.mark.parametrize("case", ["interior_phy", "bench_grid", "dead_drain",
                                  "uniform_flat", "two_nodes", "subnormal_gain"])
def test_hjb_edge_cases_match_sweep_reference_bitwise(phy, interior_phy, queue, case):
    # bench_grid: the 51 x 651 grid of bench/configs/reference.cfg; two_nodes:
    # a single difference per step
    grid = {"bench_grid": GridSpec(651, 51), "two_nodes": GridSpec(11, 2)}.get(
        case, GridSpec(601, 21))
    # uniform_flat: every interior gradient is exactly 0, so the zero-gradient
    # lanes carry the whole sweep
    terminal = terminal_value("uniform" if case == "uniform_flat" else "exponential",
                              grid.queues)
    model = interior_phy if case == "interior_phy" else phy
    # subnormal_gain: p_bal and the EE power overflow to inf and clip to p_max
    gain = 1e-310 if case == "subnormal_gain" else 1.0
    noise = 0.1
    interference = 0.4 * (1.0 + np.cos(5.0 * grid.times))
    if case == "dead_drain":
        # beta crosses the balance threshold b_bal both ways: the drain
        # branch is empty (p_bal >= p_max) on part of the sweep
        abar, rcoef = _rate_coeffs(phy, queue)
        b_bal = np.expm1(abar / rcoef) / phy.max_power_w
        interference = 1.0 / (b_bal * np.exp(2.0 * np.sin(11.0 * grid.times))) - noise
    beta = beta_trajectory(interference, noise, gain)
    if case == "dead_drain":
        assert 0 < (beta <= b_bal).sum() < grid.n_t
    value, policy = hjb_backward(grid, terminal, beta, model, queue)
    # the reference's scalar p_bal warns where the sweep's errstate is quiet
    with np.errstate(over="ignore", divide="ignore"):
        ref_value, ref_policy = _sweep_reference(grid, terminal, beta, model, queue)
    if case == "uniform_flat":
        assert np.all(np.diff(value, axis=1) == 0.0)
    assert np.array_equal(value, ref_value)
    assert np.array_equal(policy, ref_policy)


@pytest.mark.parametrize("trajectory", ["constant", "varying"])
def test_sweep_builds_terms_once_per_distinct_beta(phy, queue, monkeypatch, trajectory):
    # a run of equal betas shares one set of terms: a constant trajectory
    # (every solve's first sweep) builds one, a strictly varying one builds
    # one per step, at most G_BLOCK at a time; either way each step is
    # exactly one optimizer call
    grid = GridSpec(601, 21)
    interference = np.full(grid.n_t, 0.2)
    if trajectory == "varying":
        interference = np.linspace(0.0, 0.4, grid.n_t)
    beta = beta_trajectory(interference, 0.1, 1.0)
    built, blocks, calls = [], [], []

    def count_terms(b, lo, hi, model):
        built.extend(np.asarray(b).tolist())
        blocks.append(np.size(b))
        return step_terms(b, lo, hi, model)

    def count_calls(*args, **kwargs):
        calls.append(1)
        return maximize_rate_value(*args, **kwargs)

    monkeypatch.setattr("udnsim.solver.step_terms", count_terms)
    monkeypatch.setattr("udnsim.solver.maximize_rate_value", count_calls)
    hjb_backward(grid, terminal_value("exponential", grid.queues), beta, phy, queue)
    assert len(calls) == grid.n_t
    assert len(built) == (1 if trajectory == "constant" else grid.n_t)
    assert sorted(built) == sorted(set(beta.tolist()))
    assert max(blocks) <= G_BLOCK


def test_hjb_rejects_bad_gain(phy, queue):
    # a gain-to-noise ratio must be positive and finite, or the CFL bound and
    # the kernel read nan
    grid = GridSpec(601, 21)
    terminal = terminal_value("exponential", grid.queues)
    flat = np.zeros(grid.n_t)
    for gain in (-1.0, 0.0, np.inf, np.nan):
        with pytest.raises(ConfigError, match="mean_sq_gain"):
            beta_trajectory(flat, 0.1, gain)
        with pytest.raises(ConfigError, match="mean_sq_gain"):
            solve_mfg(grid, phy, queue, noise_norm=0.1, mean_sq_gain=gain)
    for bad in (np.inf, np.nan):
        traj = flat.copy()
        traj[7] = bad
        with pytest.raises(ConfigError, match="positive and finite"):
            beta_trajectory(traj, 0.1, 1.0)
    with pytest.raises(ConfigError, match="positive and finite"):
        beta_trajectory(flat, 1e-320, 1.0)
    # the sweep checks a beta it is handed as beta_trajectory checks its own
    for bad in (-1.0, 0.0, np.inf, np.nan):
        beta = beta_trajectory(flat, 0.1, 1.0)
        beta[7] = bad
        with pytest.raises(ConfigError, match="positive and finite"):
            hjb_backward(grid, terminal, beta, phy, queue)


def test_drift_field_formula(phy, queue):
    grid = GridSpec(11, 5)
    interference = np.full(grid.n_t, 0.2)
    policy = np.full((grid.n_t, grid.n_q), 0.5)
    d = drift_field(policy, beta_trajectory(interference, 0.05, 1.0), phy, queue)
    abar, rcoef = _rate_coeffs(phy, queue)
    beta = 1.0 / 0.25
    assert d == pytest.approx(abar - rcoef * np.log1p(beta * 0.5))
    assert abar == pytest.approx(0.1)
    assert rcoef == pytest.approx(0.7213475204444817, rel=1e-12)


def constant_drift_policy(grid, phy, queue, beta, c):
    """Invert the drift for a constant advection speed c."""
    abar, rcoef = _rate_coeffs(phy, queue)
    p = np.expm1((abar - c) / rcoef) / beta
    assert 0 <= p <= phy.max_power_w
    return np.full((grid.n_t, grid.n_q), p)


@pytest.mark.parametrize("c,start", [(0.08, 0.3), (-0.2, 0.6)])
def test_fpk_transports_at_known_speed(phy, queue, c, start):
    grid = GridSpec(2001, 101)
    noise = 0.05
    interference = np.full(grid.n_t, 0.1)
    beta = 1.0 / (0.1 + noise)
    policy = constant_drift_policy(grid, phy, queue, beta, c)
    rho0 = np.exp(-0.5 * (grid.queues - start) ** 2 / 0.003)
    rho0 /= np.trapezoid(rho0, dx=grid.dq)
    rho = fpk_forward(grid, rho0,
                      drift_field(policy, beta_trajectory(interference, noise, 1.0), phy, queue))

    mass = density_mass(grid, rho)
    assert np.abs(mass - 1.0).max() < 1e-10  # conservative by construction
    mean_T = np.trapezoid(grid.queues * rho[-1], dx=grid.dq)
    assert mean_T == pytest.approx(start + c * grid.horizon_s, abs=2 * grid.dq)
    assert rho.min() >= 0.0


def test_fpk_pools_at_wall(phy, queue):
    grid = GridSpec(2001, 101)
    noise = 0.05
    interference = np.full(grid.n_t, 0.1)
    policy = np.full((grid.n_t, grid.n_q), phy.max_power_w)  # hard drain
    drift = drift_field(policy, beta_trajectory(interference, noise, 1.0), phy, queue)
    rho = fpk_forward(grid, initial_density(grid), drift)
    w = grid.cell_widths()
    assert rho[-1, 0] * w[0] > 0.99  # everything pooled in the empty-queue cell
    assert np.abs(density_mass(grid, rho) - 1.0).max() < 1e-10


def _sweep_matrix(grid, drift_row):
    """The backward sweep's linear step at one time, value[i] = A value[i + 1]
    + dt * utility: node k reads the upwind neighbour along its drift with
    weight c = dt * |drift| / dq, and the wall nodes' clamped gradients read
    nothing outside [0, 1]."""
    n = grid.n_q
    a = np.eye(n)
    for k, d in enumerate(drift_row):
        c = abs(d * (grid.dt / grid.dq))
        j = k + 1 if d > 0 else k - 1
        if d != 0 and 0 <= j < n:
            a[k, k], a[k, j] = 1.0 - c, c
    return a


def _fpk_reference(grid, rho0, drift):
    """The node masses w * rho moved by each step's explicit transposed
    sweep matrix, row by row: row j of A_i is where node j's mass goes."""
    w = grid.cell_widths()
    m = w * rho0
    rho = [rho0]
    for i in range(grid.n_t - 1):
        a = _sweep_matrix(grid, drift[i])
        nxt = np.zeros(grid.n_q)
        for j in range(grid.n_q):
            nxt += a[j] * m[j]
        m = nxt
        rho.append(m / w)
    return np.clip(np.array(rho), 0.0, None)


@pytest.mark.parametrize("nan_row", [None, 150])
def test_fpk_matches_per_row_reference_bitwise(rng, nan_row):
    """Drift rows of both signs up to one node per step, rows at rest and
    rows at exactly one node per step; a drift with one nan entry is
    refused, where the transport would have turned the density nan from
    that row on."""
    grid = GridSpec(201, 21)
    node_speed = grid.dq / grid.dt
    drift = rng.uniform(-1.0, 1.0, (grid.n_t, grid.n_q)) * rng.uniform(0.0, node_speed,
                                                                        (grid.n_t, 1))
    drift[::7] = 0.0
    drift[3::11] = node_speed * np.sign(drift[3::11])
    assert (drift < 0).any() and (drift > 0).any()
    rho0 = initial_density(grid)
    if nan_row is not None:
        drift[nan_row, 4] = np.nan
        with pytest.raises(ConfigError, match="finite field"):
            fpk_forward(grid, rho0, drift)
        return
    rho = fpk_forward(grid, rho0, drift)
    assert np.array_equal(rho, _fpk_reference(grid, rho0, drift))


def test_fpk_refuses_the_drift_the_hjb_refuses(phy, queue):
    """A full-power drain at a gain-to-noise ratio of 33 moves backlog 2.4
    nodes per time step on this grid: both sweeps refuse it with one bound,
    at one speed."""
    grid = GridSpec(101, 101)
    beta = beta_trajectory(np.zeros(grid.n_t), 0.03, 1.0)
    policy = np.full((grid.n_t, grid.n_q), phy.max_power_w)
    with pytest.raises(CflError) as hjb_err:
        hjb_backward(grid, terminal_value("uniform", grid.queues), beta, phy, queue)
    drift = drift_field(policy, beta, phy, queue)
    assert np.abs(drift).max() * grid.dt / grid.dq > 2.0
    with pytest.raises(CflError) as fpk_err:
        fpk_forward(grid, initial_density(grid), drift)
    assert fpk_err.value.speed == hjb_err.value.speed


def test_fpk_input_validation():
    grid = GridSpec(601, 21)
    rho0 = initial_density(grid)
    drift = np.zeros((grid.n_t, grid.n_q))
    with pytest.raises(ConfigError):
        fpk_forward(grid, np.zeros(grid.n_q + 2), drift)
    bad = rho0.copy()
    bad[3] = -0.1
    with pytest.raises(ConfigError):
        fpk_forward(grid, bad, drift)
    # a nan entry spread to the whole density with no error
    for value in (np.nan, np.inf):
        bad = rho0.copy()
        bad[3] = value
        with pytest.raises(ConfigError, match="nonnegative and finite"):
            fpk_forward(grid, bad, drift)
    with pytest.raises(ConfigError, match="finite field"):
        fpk_forward(grid, rho0, drift[:-1])
    for value in (np.inf, -np.inf):
        bad_drift = drift.copy()
        bad_drift[9, 3] = value
        with pytest.raises(ConfigError, match="finite field"):
            fpk_forward(grid, rho0, bad_drift)



def test_fpk_rejects_a_drift_faster_than_the_time_grid():
    """A drift that moves backlog by more than one node per time step
    raises; one of exactly one node per step still runs, keeps its mass and
    stays nonnegative (dt = 0.1, dq = 0.25)."""
    grid = GridSpec(11, 5)
    node_speed = grid.dq / grid.dt
    for speed in (1e4, 1.01 * node_speed):
        for sign in (1.0, -1.0):
            drift = np.full((grid.n_t, grid.n_q), sign * speed)
            with pytest.raises(CflError):
                fpk_forward(grid, initial_density(grid), drift)
    for sign in (1.0, -1.0):
        drift = np.full((grid.n_t, grid.n_q), sign * node_speed)
        rho = fpk_forward(grid, initial_density(grid), drift)
        assert rho.min() >= 0.0
        assert np.abs(density_mass(grid, rho) - 1.0).max() < 1e-12
        # every node moves one node per step: after n_q - 1 steps all the
        # mass sits at the wall the drift points to
        wall = -1 if sign > 0 else 0
        assert rho[-1, wall] * grid.cell_widths()[wall] == pytest.approx(1.0, abs=1e-12)


def _duality_case(name, request, queue):
    """(grid, phy, beta, boundary) of one duality case: a solved
    equilibrium's gain-to-noise trajectory, or one set by hand."""
    solved = {"default-601x21": (GridSpec(601, 21), PhyParams(), 0.1),
              "interior-801x21": (GridSpec(801, 21), PhyParams(sbs_density=0.05), 0.05),
              "interior-201x11": (GridSpec(201, 11), PhyParams(sbs_density=0.05), 0.05),
              "reference-like-101x11": (GridSpec(101, 11), PhyParams(sbs_density=0.056), 1e-4)}
    fixtures = {"default-601x21": "small_solution", "interior-801x21": "interior_solution"}
    if name in solved:
        grid, phy, noise = solved[name]
        if name in fixtures:
            sol = request.getfixturevalue(fixtures[name])
        else:
            sol = solve_mfg(grid, phy, queue, noise_norm=noise, max_iters=30)
        return grid, phy, beta_trajectory(sol.interference, noise, 1.0), "exponential"
    grid = GridSpec(601, 21)
    if name == "no-drain":
        # the balance power exceeds p_max: every node fills
        return grid, PhyParams(), np.full(grid.n_t, 0.05), "exponential"
    beta = 8.0 + 4.0 * np.sin(2.0 * np.pi * grid.times)
    return grid, PhyParams(), beta, name.removeprefix("time-varying-")


@pytest.mark.parametrize("name", [
    "default-601x21", "interior-801x21", "interior-201x11", "reference-like-101x11",
    "time-varying-exponential", "time-varying-linear", "no-drain"])
def test_fpk_is_the_adjoint_of_the_hjb_step(name, request, queue):
    """The discrete verification identity <rho_0, V_0> = <rho_T, V_T> +
    dt * sum_i <rho_i, u_i> over steps 0 .. n_t - 2, with trapezoid weights
    and u_i the utility at the chosen power: the density is the population
    that the sweep's own step moves."""
    grid, phy, beta, boundary = _duality_case(name, request, queue)
    value, policy = hjb_backward(grid, terminal_value(boundary, grid.queues), beta, phy, queue)
    rho = fpk_forward(grid, initial_density(grid), drift_field(policy, beta, phy, queue))
    w = grid.cell_widths()
    utility = _phi(policy[:-1], beta[:-1, None], 0.0, phy.circuit_power_w)
    start = w @ (rho[0] * value[0])
    end = w @ (rho[-1] * value[-1]) + grid.dt * ((rho[:-1] * utility) @ w).sum()
    assert abs(start - end) <= 1e-12 * abs(start)


def test_mf_interference_quadrature():
    grid = GridSpec(3, 11)
    policy = np.tile(grid.queues, (3, 1))
    rho = np.ones((3, 11))
    out = mf_interference(grid, policy, rho, eta=0.25)
    assert out == pytest.approx([0.125, 0.125, 0.125], rel=1e-12)
    assert mf_interference(grid, policy, rho, eta=0.25, mean_sq_gain=2.0) == (
        pytest.approx([0.25, 0.25, 0.25], rel=1e-12))


def test_solve_converges(small_solution, phy):
    sol = small_solution
    assert sol.residual < 1e-4
    assert sol.iterations <= 200
    assert len(sol.residuals) == sol.iterations
    assert sol.interference.min() >= 0.0
    assert sol.policy.min() >= 0.0 and sol.policy.max() <= phy.max_power_w + 1e-12
    assert np.abs(density_mass(sol.grid, sol.density) - 1.0).max() < 1e-9
    sol.validate()


def test_solve_builds_beta_once_per_iteration(interior_phy, queue, monkeypatch):
    """The backward sweep, the drift and the final diagnostic share one
    gain-to-noise trajectory per fixed-point iteration, and the queue-blind
    start builds none.  The interior equilibrium is queue-aware: it takes 3
    iterations from that start."""
    calls = []

    def counted(*args):
        calls.append(1)
        return beta_trajectory(*args)

    monkeypatch.setattr("udnsim.solver.beta_trajectory", counted)
    sol = solve_mfg(GridSpec(601, 21), interior_phy, queue, noise_norm=0.05)
    assert sol.iterations > 1
    assert len(calls) == sol.iterations


def _bisection_sweep(monkeypatch):
    """Make solve_mfg sweep with _sweep_reference around the scan-and-bisection
    optimizer; returns the list its calls are counted in."""
    calls = []

    def optimizer(*args):
        calls.append(1)
        return _bisect_reference(*args)

    def sweep(*args):
        return _sweep_reference(*args, optimizer=optimizer)

    monkeypatch.setattr("udnsim.solver.hjb_backward", sweep)
    return calls


def test_solve_matches_bisection_reference(small_solution, phy, queue, monkeypatch):
    # the same fixed point as with the scan-and-bisection optimizer
    calls = _bisection_sweep(monkeypatch)
    ref = solve_mfg(small_solution.grid, phy, queue, noise_norm=0.1)
    assert len(calls) == ref.iterations * small_solution.grid.n_t
    assert small_solution.iterations == ref.iterations
    # a residual is max|i_new - I| / scale with i_new and I of size up to
    # scale: each carries a rounding error of about eps * scale, so the
    # difference has an absolute floor of a few eps in residual units
    # however small the residual is; rtol alone asks for 1e-12 of the final
    # ~1e-4, i.e. 1e-16, below that floor
    np.testing.assert_allclose(small_solution.residuals, ref.residuals,
                               rtol=1e-12, atol=4 * np.finfo(float).eps)
    np.testing.assert_allclose(small_solution.policy, ref.policy, rtol=0.0, atol=1e-10)


def test_interior_solve_matches_bisection_reference(interior_phy, queue, monkeypatch):
    # the table search and the bisection reach one fixed point: the same
    # iteration count, and policy, value and interference equal to 1e-12 on
    # an equilibrium whose policy is mostly interior
    grid = GridSpec(201, 11)
    sol = solve_mfg(grid, interior_phy, queue, noise_norm=0.05)
    calls = _bisection_sweep(monkeypatch)
    ref = solve_mfg(grid, interior_phy, queue, noise_norm=0.05)
    assert len(calls) == ref.iterations * grid.n_t
    interior = (ref.policy > 1e-6) & (ref.policy < interior_phy.max_power_w - 1e-6)
    assert interior.mean() > 0.4
    assert sol.iterations == ref.iterations
    np.testing.assert_allclose(sol.policy, ref.policy, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(sol.value, ref.value, rtol=0.0, atol=1e-12)
    scale = ref.interference.max()
    assert np.abs(sol.interference - ref.interference).max() <= 1e-12 * scale


def test_solve_reproduces_anchor_slices(small_solution, queue):
    grid = small_solution.grid
    assert small_solution.value[-1] == pytest.approx(
        terminal_value("exponential", grid.queues), rel=1e-12)
    assert small_solution.density[0] == pytest.approx(initial_density(grid), rel=1e-12)


def test_interior_equilibrium_shape(interior_solution, interior_phy):
    sol = interior_solution
    p = sol.policy
    # genuinely interior policy over most of the grid
    interior = (p > 0.05) & (p < interior_phy.max_power_w - 0.05)
    assert interior.mean() > 0.5
    # more backlog never lowers the equilibrium transmit power
    assert np.diff(p, axis=1).min() > -1e-6
    # interference stays positive and bounded by the coupling ceiling
    assert sol.interference.min() > 0.0
    assert sol.interference.max() <= interior_phy.sbs_density * interior_phy.max_power_w + 1e-12


# iters: the iteration count measured from the queue-blind start, from
# either init (the flat starts took 4 and 9, 5 and 7, 4 and 7 from half and zero)
@pytest.mark.parametrize("grid, phy, kw, iters", [
    (GridSpec(601, 21), PhyParams(), dict(noise_norm=0.1, tol=1e-5), 1),
    (GridSpec(601, 21), PhyParams(sbs_density=0.05), dict(noise_norm=0.05), 3),
    # reference-like coupling and noise, where a step from the zero start
    # overshoots below zero
    (GridSpec(101, 11), PhyParams(sbs_density=0.056), dict(noise_norm=1e-4, max_iters=30), 3),
], ids=["601x21", "interior", "reference-like"])
def test_damping_and_init_reach_same_fixed_point(grid, phy, kw, iters, queue):
    a = solve_mfg(grid, phy, queue, **kw)
    b = solve_mfg(grid, phy, queue, damping=1.0, **kw)
    c = solve_mfg(grid, phy, queue, init="zero", **kw)
    scale = max(a.interference.max(), 1e-12)
    assert np.abs(a.interference - b.interference).max() / scale < 1e-3
    assert np.abs(a.interference - c.interference).max() / scale < 1e-3
    assert a.iterations <= iters and c.iterations <= iters


@pytest.mark.parametrize("phy, noise", [
    (PhyParams(), 0.1), (PhyParams(sbs_density=0.05), 0.05),
    (PhyParams(sbs_density=0.056), 1e-4),
], ids=["default", "interior", "reference-like"])
def test_queue_blind_start_is_the_static_fixed_point(phy, noise):
    """From either init the start is a fixed point of the queue-blind map
    x -> eta * p*(1 / (x + noise)), p* the zero-gradient lane's power, to
    its stop tolerance, and stays in [0, eta * p_max]."""
    eta, p_max = phy.sbs_density, phy.max_power_w
    bound = 1e-3 * FP_TOL
    starts = {}
    for x0 in (0.0, 0.5 * eta * p_max):
        x = _queue_blind_interference(x0, noise, 1.0, phy, FP_TOL)
        p = maximize_rate_value(1.0 / (x + noise), 0.0, 0.0, p_max, phy)[0]
        assert 0.0 <= x <= eta * p_max
        assert abs(eta * float(p) - x) <= bound * max(noise, x)
        starts[x0] = x
    zero, half = starts.values()
    assert abs(zero - half) <= bound * max(noise, half)


def test_queue_blind_equilibrium_converges_in_one_sweep(small_solution, phy):
    """Default physics: the equilibrium plays the EE power wherever mass
    lies (full power, here), so the first sweep returns the start."""
    x = _queue_blind_interference(0.5 * phy.sbs_density * phy.max_power_w, 0.1, 1.0, phy,
                                  FP_TOL)
    assert small_solution.iterations == 1
    assert np.abs(small_solution.interference - x).max() <= 1e-12 * x


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("name", ["noise_norm", "mean_sq_gain"])
def test_bad_noise_or_gain_fails_before_the_start(phy, queue, monkeypatch, name, bad):
    def no_step(*args, **kwargs):
        raise AssertionError("a power was optimized before the inputs were checked")

    monkeypatch.setattr("udnsim.solver.ee_power", no_step)
    kw = {"noise_norm": 0.1, "mean_sq_gain": 1.0, name: bad}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=f"{name} must be positive and finite"):
            solve_mfg(GridSpec(601, 21), phy, queue, **kw)


def test_solve_convergence_error(interior_phy, queue):
    # the interior equilibrium's first sweep leaves a residual of 1.5e-3
    grid = GridSpec(601, 21)
    with pytest.raises(ConvergenceError) as err:
        solve_mfg(grid, interior_phy, queue, noise_norm=0.05, max_iters=1)
    assert len(err.value.residuals) == 1


def test_solve_option_validation(phy, queue):
    grid = GridSpec(601, 21)
    with pytest.raises(ConfigError):
        solve_mfg(grid, phy, queue, noise_norm=0.1, damping=0.0)
    with pytest.raises(ConfigError):
        solve_mfg(grid, phy, queue, noise_norm=0.1, init="warm")
    with pytest.raises(ConfigError):
        solve_mfg(grid, phy, queue, noise_norm=0.1, boundary="bogus")
    # refused before the start: max_iters = 0 used to read the last of no
    # residuals, and a tol no residual meets ran every iteration
    for kw in (dict(max_iters=0), dict(tol=0.0), dict(tol=-1.0), dict(tol=np.nan)):
        with pytest.raises(ConfigError, match="tol be positive and max_iters"):
            solve_mfg(grid, phy, queue, noise_norm=0.1, **kw)
    # an initial density of mass 2, of the wrong length or of NaN is refused
    # before the first sweep: a mass of 2 used to converge to a solution
    # whose own validate() failed
    rho0 = initial_density(grid)
    for bad in (2 * rho0, rho0[:-1], np.full_like(rho0, np.nan)):
        with pytest.raises(ConfigError, match="initial density must be"):
            solve_mfg(grid, phy, queue, noise_norm=0.1, rho0=bad)
