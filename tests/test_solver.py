import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from udnsim import (CflError, ConfigError, ConvergenceError, GridSpec, PhyParams,
                    QueueParams, fpk_forward, hjb_backward, initial_density,
                    mf_interference, solve_mfg, terminal_value)
from udnsim.fields import density_mass
from udnsim.power_opt import _phi, maximize_rate_value
from udnsim.solver import _beta_traj, _rate_coeffs, drift_field
from test_power_opt import _bisect_reference


def ee_max(beta, p0, p_max):
    res = minimize_scalar(lambda p: -_phi(p, beta, 0.0, p0),
                          bounds=(0.0, p_max), method="bounded",
                          options={"xatol": 1e-12})
    cand = [0.0, p_max, float(res.x)]
    return max(cand, key=lambda p: _phi(p, beta, 0.0, p0))


def test_cfl_guard(phy, queue):
    grid = GridSpec(101, 101)  # dt = dq = 0.01: too coarse in time for beta ~ 33
    flat = np.full(grid.n_t, 0.0)
    with pytest.raises(CflError) as err:
        hjb_backward(grid, terminal_value("uniform", grid.queues), flat, phy,
                     queue, noise_norm=0.03)
    assert isinstance(err.value, ConfigError)
    assert "dt" in str(err.value) and "speed" in str(err.value)


def test_hjb_input_validation(phy, queue):
    grid = GridSpec(601, 21)
    flat = np.zeros(grid.n_t)
    with pytest.raises(ConfigError):
        hjb_backward(grid, np.zeros(grid.n_q + 1), flat, phy, queue, noise_norm=0.1)
    with pytest.raises(ConfigError):
        hjb_backward(grid, np.zeros(grid.n_q), flat[:-1], phy, queue, noise_norm=0.1)
    with pytest.raises(ConfigError):
        hjb_backward(grid, np.zeros(grid.n_q), flat - 1.0, phy, queue, noise_norm=0.1)
    with pytest.raises(ConfigError):
        hjb_backward(grid, np.zeros(grid.n_q), flat, phy, queue, noise_norm=0.0)


def test_hjb_uniform_terminal_is_exact(phy, queue):
    """Flat terminal slice: the value stays flat and grows linearly backward
    at the best efficiency rate, and the policy is the pure efficiency
    optimum; both are known independently of the scheme."""
    grid = GridSpec(601, 21)
    interference = np.full(grid.n_t, 0.1)
    noise = 0.05
    value, policy = hjb_backward(grid, terminal_value("uniform", grid.queues),
                                 interference, phy, queue, noise_norm=noise)
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


def _sweep_reference(grid, terminal, interference, phy, queue, noise_norm):
    """hjb_backward with each step's branch gradients and bounds built afresh
    by concatenation, then handed to one maximize_rate_value call."""
    abar, rcoef = _rate_coeffs(phy, queue)
    beta = _beta_traj(interference, noise_norm, 1.0)
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
        p_all, phi_all = maximize_rate_value(beta_i, rcoef * vgrads, lo, hi, phy)
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
    value, policy = hjb_backward(grid, terminal, interference, phy, queue, noise_norm=0.1)
    ref_value, ref_policy = _sweep_reference(grid, terminal, interference, phy, queue, 0.1)
    assert np.array_equal(value, ref_value)
    assert np.array_equal(policy, ref_policy)


def test_drift_field_formula(phy, queue):
    grid = GridSpec(11, 5)
    interference = np.full(grid.n_t, 0.2)
    policy = np.full((grid.n_t, grid.n_q), 0.5)
    d = drift_field(grid, policy, interference, phy, queue, noise_norm=0.05)
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
    rho = fpk_forward(grid, rho0, policy, interference, phy, queue, noise_norm=noise)

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
    rho = fpk_forward(grid, initial_density(grid), policy, interference, phy,
                      queue, noise_norm=noise)
    w = grid.cell_widths()
    assert rho[-1, 0] * w[0] > 0.99  # everything pooled in the empty-queue cell
    assert np.abs(density_mass(grid, rho) - 1.0).max() < 1e-10


def test_fpk_input_validation(phy, queue):
    grid = GridSpec(601, 21)
    interference = np.full(grid.n_t, 0.1)
    policy = np.zeros((grid.n_t, grid.n_q))
    with pytest.raises(ConfigError):
        fpk_forward(grid, np.zeros(grid.n_q + 2), policy, interference, phy,
                    queue, noise_norm=0.1)
    bad = initial_density(grid)
    bad[3] = -0.1
    with pytest.raises(ConfigError):
        fpk_forward(grid, bad, policy, interference, phy, queue, noise_norm=0.1)


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


def test_solve_matches_bisection_reference(small_solution, phy, queue, monkeypatch):
    # the same fixed point as with the scan-and-bisection optimizer
    monkeypatch.setattr("udnsim.solver.maximize_rate_value", _bisect_reference)
    ref = solve_mfg(small_solution.grid, phy, queue, noise_norm=0.1)
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
    monkeypatch.setattr("udnsim.solver.maximize_rate_value", _bisect_reference)
    ref = solve_mfg(grid, interior_phy, queue, noise_norm=0.05)
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


def test_damping_and_init_reach_same_fixed_point(phy, queue):
    grid = GridSpec(601, 21)
    kw = dict(noise_norm=0.1, tol=1e-5)
    a = solve_mfg(grid, phy, queue, **kw)
    b = solve_mfg(grid, phy, queue, damping=1.0, **kw)
    c = solve_mfg(grid, phy, queue, init="zero", **kw)
    scale = max(a.interference.max(), 1e-12)
    assert np.abs(a.interference - b.interference).max() / scale < 1e-3
    assert np.abs(a.interference - c.interference).max() / scale < 1e-3


def test_solve_convergence_error(phy, queue):
    grid = GridSpec(601, 21)
    with pytest.raises(ConvergenceError) as err:
        solve_mfg(grid, phy, queue, noise_norm=0.1, max_iters=1)
    assert len(err.value.residuals) == 1


def test_solve_option_validation(phy, queue):
    grid = GridSpec(601, 21)
    with pytest.raises(ConfigError):
        solve_mfg(grid, phy, queue, noise_norm=0.1, damping=0.0)
    with pytest.raises(ConfigError):
        solve_mfg(grid, phy, queue, noise_norm=0.1, init="warm")
    with pytest.raises(ConfigError):
        solve_mfg(grid, phy, queue, noise_norm=0.1, boundary="bogus")
