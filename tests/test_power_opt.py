import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.special import lambertw

from udnsim import GridSpec, PhyParams
from udnsim.power_opt import (N_NODES, NODE_FRAC, _box_terms, _ee_power, _g_table, _phi,
                               _row_index, _up_crossing, ee_power, maximize_rate_value,
                               step_terms)
from udnsim.solver import _existence_violations, _rate_coeffs


def _psi(p, beta, v, p0):
    """psi of the power_opt docstring: positive exactly where phi falls."""
    s = p + p0
    return v * s * s - beta * s + (1.0 + beta * p) * np.log1p(beta * p)


def _bisect_reference(beta, vgrad, lo, hi, phy):
    """Scan-and-bisection reference for maximize_rate_value, same contract.

    Scans psi for its first up-crossing, bisects that bracket 46 times
    (1.4e-14 of a unit interval) and keeps the best of the root and both
    endpoints; beta <= 0 stays at lo with value 0.
    """
    p0 = phy.circuit_power_w
    beta, vgrad, lo, hi = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                                for a in (beta, vgrad, lo, hi)))
    shape = beta.shape
    beta, vgrad = beta.ravel(), vgrad.ravel()
    lo = np.clip(lo.ravel(), 0.0, phy.max_power_w)
    hi = np.clip(hi.ravel(), lo, phy.max_power_w)
    v = vgrad * beta

    frac = np.linspace(0.0, 1.0, 25)[:, None]
    ps = lo[None, :] + (hi - lo)[None, :] * frac
    sign_pos = _psi(ps, beta[None, :], v[None, :], p0) > 0.0
    up = sign_pos[1:] & ~sign_pos[:-1]
    has_root = up.any(axis=0)
    k = np.argmax(up, axis=0)

    idx = np.arange(beta.size)
    blo = np.where(has_root, ps[k, idx], lo)
    bhi = np.where(has_root, ps[k + 1, idx], hi)
    for _ in range(46):
        mid = 0.5 * (blo + bhi)
        pos = _psi(mid, beta, v, p0) > 0.0
        bhi = np.where(pos, mid, bhi)
        blo = np.where(pos, blo, mid)
    root = 0.5 * (blo + bhi)

    cand = np.stack([lo, hi, np.where(has_root, root, lo)])
    val = _phi(cand, beta[None, :], vgrad[None, :], p0)
    best = np.argmax(val, axis=0)
    p = np.where(beta <= 0.0, lo, cand[best, idx])
    out_val = np.where(beta <= 0.0, 0.0, val[best, idx])
    return p.reshape(shape), out_val.reshape(shape)


def _lane_split_reference(beta, vgrad, lo, hi, phy):
    """The lane-split evaluation maximize_rate_value replaced: broadcast and
    flatten the inputs, gather the closed-form lanes (beta > 0, vgrad == 0)
    and the search lanes (beta > 0, vgrad != 0), solve each set apart and
    scatter the results over lo."""
    p0 = phy.circuit_power_w
    beta, vgrad, lo, hi = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                                for a in (beta, vgrad, lo, hi)))
    shape = beta.shape
    beta, vgrad = beta.ravel(), vgrad.ravel()
    lo = np.clip(lo.ravel(), 0.0, phy.max_power_w)
    hi = np.clip(hi.ravel(), lo, phy.max_power_w)

    live = beta > 0.0
    ee = live & (vgrad == 0.0)
    hjb = live & ~ee
    p = lo.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        if ee.any():
            p[ee] = _ee_power(beta[ee], lo[ee], hi[ee], p0)
        if hjb.any():
            p[hjb], _ = maximize_rate_value(beta[hjb], vgrad[hjb], lo[hjb], hi[hjb], phy)
        val = np.where(live, _phi(p, beta, vgrad, p0), 0.0)
    return p.reshape(shape), val.reshape(shape)


def golden_max(beta, vgrad, lo, hi, p0):
    """Independent oracle: bounded scalar maximization of phi."""
    if hi - lo < 1e-12:
        return lo
    res = minimize_scalar(lambda p: -_phi(p, beta, vgrad, p0),
                          bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    cand = [lo, hi, float(res.x)]
    vals = [_phi(p, beta, vgrad, p0) for p in cand]
    return cand[int(np.argmax(vals))]


def draw_cases(rng, n):
    beta = 10.0 ** rng.uniform(-1.0, 2.5, n)
    kind = rng.integers(0, 4, n)
    vgrad = np.where(kind == 0, 0.0,
                     np.where(kind == 3, 10.0 ** rng.uniform(-2.0, 0.5, n),
                              -(10.0 ** rng.uniform(-2.0, 1.5, n))))
    return beta, vgrad


def test_matches_golden_section_oracle(phy, rng):
    beta, vgrad = draw_cases(rng, 400)
    p, val = maximize_rate_value(beta, vgrad, 0.0, phy.max_power_w, phy)
    for i in range(beta.size):
        ref = golden_max(beta[i], vgrad[i], 0.0, phy.max_power_w, phy.circuit_power_w)
        assert abs(p[i] - ref) <= 1e-4 * phy.max_power_w, (beta[i], vgrad[i])
        assert val[i] == pytest.approx(
            _phi(p[i], beta[i], vgrad[i], phy.circuit_power_w), rel=1e-12, abs=1e-15)


def test_matches_oracle_on_sub_boxes(phy, rng):
    beta, vgrad = draw_cases(rng, 200)
    lo = rng.uniform(0.0, 0.5, beta.size)
    hi = lo + rng.uniform(0.05, 0.5, beta.size)
    hi = np.minimum(hi, phy.max_power_w)
    p, _ = maximize_rate_value(beta, vgrad, lo, hi, phy)
    for i in range(beta.size):
        ref = golden_max(beta[i], vgrad[i], lo[i], hi[i], phy.circuit_power_w)
        assert abs(p[i] - ref) <= 1e-4 * phy.max_power_w
        assert lo[i] - 1e-12 <= p[i] <= hi[i] + 1e-12


def test_interior_points_are_stationary(phy, rng):
    beta, vgrad = draw_cases(rng, 400)
    p, _ = maximize_rate_value(beta, vgrad, 0.0, phy.max_power_w, phy)
    interior = (p > 1e-6) & (p < phy.max_power_w - 1e-6)
    assert interior.any()
    psi = _psi(p[interior], beta[interior], vgrad[interior] * beta[interior],
               phy.circuit_power_w)
    # the closed form and the Cauchy steps pin the up-crossing to rounding
    # level in p (see test_matches_bisection_reference)
    assert np.abs(psi).max() < 1e-8
    # and the root is a local maximum of phi
    for i in np.flatnonzero(interior)[:50]:
        mid = _phi(p[i], beta[i], vgrad[i], phy.circuit_power_w)
        assert _phi(p[i] - 1e-6, beta[i], vgrad[i], phy.circuit_power_w) <= mid + 1e-12
        assert _phi(p[i] + 1e-6, beta[i], vgrad[i], phy.circuit_power_w) <= mid + 1e-12


def test_matches_bisection_reference(phy, rng):
    # one call mixing every lane kind: vgrad == 0 (closed form) and != 0
    # (table + Cauchy steps), beta = 0, beta over 1e-6..1e5, full box and
    # sub-boxes
    n = 4000
    p_max = phy.max_power_w
    beta = 10.0 ** rng.uniform(-6.0, 5.0, n)
    beta[rng.integers(0, n, 40)] = 0.0
    kind = rng.integers(0, 4, n)
    vgrad = np.where(kind == 0, 0.0,
                     np.where(kind == 3, 10.0 ** rng.uniform(-3.0, 1.0, n),
                              -(10.0 ** rng.uniform(-3.0, 2.0, n))))
    lo = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 0.8 * p_max, n))
    hi = np.where(rng.random(n) < 0.5, p_max,
                  np.minimum(lo + rng.uniform(0.0, 0.5 * p_max, n), p_max))
    p, val = maximize_rate_value(beta, vgrad, lo, hi, phy)
    p_ref, val_ref = _bisect_reference(beta, vgrad, lo, hi, phy)
    np.testing.assert_allclose(p, p_ref, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(val, val_ref, rtol=1e-12, atol=1e-15)
    # both searches were exercised on interior optima, in full and sub-boxes
    interior = (p > lo + 1e-9) & (p < hi - 1e-9)
    sub = (lo > 0.0) & (hi < p_max)
    for lanes in (vgrad == 0.0, vgrad != 0.0):
        assert (interior & lanes).sum() > 100
        assert (interior & lanes & sub).sum() > 10


def _g(p, beta, p0):
    """g(p) = v - psi / (p + p0)^2, which depends on beta alone."""
    return -_psi(p, beta, 0.0, p0) / (p + p0) ** 2


def _has_root(beta, v, p0, p_max):
    """Whether _up_crossing brackets a root for a scalar beta, with the
    errstate its callers give it."""
    phy = PhyParams(circuit_power_w=p0, max_power_w=p_max)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = _box_terms(beta, 0.0, p_max, phy)
        return _up_crossing(t, np.asarray(v, dtype=float))[1] != 0.0


def test_solver_shaped_calls_match_bisection_reference(phy, queue, rng):
    # what hjb_backward hands over: one scalar beta per call, (2 n_q,)
    # gradients with zero walls, fill and drain bounds split at the balance
    # power; beta p0 log-uniform over 1e-3..1e7, so the table is built at
    # beta's scalar shape in every call
    _, rcoef = _rate_coeffs(phy, queue)
    abar = queue.arrival_rate_bps / queue.capacity_bits
    p0, p_max = phy.circuit_power_w, phy.max_power_w
    n_q = 51
    interior = np.zeros(2, dtype=int)
    for beta in 10.0 ** rng.uniform(-3.0, 7.0, 300) / p0:
        grad = -(10.0 ** rng.uniform(-4.0, 2.0, n_q - 1))
        grad[rng.random(n_q - 1) < 0.2] *= -0.1
        vgrads = rcoef * np.r_[grad, 0.0, 0.0, grad]
        p_bal = min(np.expm1(abar / rcoef) / beta, p_max)
        lo = np.r_[np.zeros(n_q), np.full(n_q, p_bal)]
        hi = np.r_[np.full(n_q, p_bal), np.full(n_q, p_max)]
        p, val = maximize_rate_value(beta, vgrads, lo, hi, phy)
        p_ref, val_ref = _bisect_reference(beta, vgrads, lo, hi, phy)
        np.testing.assert_allclose(p, p_ref, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(val, val_ref, rtol=1e-12, atol=1e-15)
        inside = (p > lo + 1e-9) & (p < hi - 1e-9)
        interior += inside[:n_q].any(), inside[n_q:].any()
    # interior optima were found in both branches
    assert interior.min() > 30


def test_g_falls_then_rises_at_most_once():
    # the shape the table bracket rests on, for beta p0 from 1e-6 to 1e6 and
    # p0 on both sides of p_max = 1 (the fold enters the box when p0 < 1)
    p = np.linspace(0.0, 1.0, 20001)
    for p0 in (0.05, 0.3, 1.0, 3.0):
        for beta in 10.0 ** np.linspace(-6.0, 6.0, 25) / p0:
            dg = np.diff(_g(p, beta, p0))
            turns = np.flatnonzero(dg[1:] > 0.0) + 1
            assert dg[0] < 0.0
            # once rising, it never falls again
            assert turns.size == 0 or np.all(dg[turns[0]:] > 0.0), (p0, beta)


def test_edge_lanes():
    # p0 < p_max puts the fold of g inside [0, p_max]
    phy = PhyParams(circuit_power_w=0.25, max_power_w=1.0)
    p0, p_max = phy.circuit_power_w, phy.max_power_w
    nodes = p_max * NODE_FRAC
    beta = 40.0
    g_nodes = _g(nodes, beta, p0)
    m = int(np.argmin(g_nodes))
    assert 2 <= m < N_NODES - 2
    fold = minimize_scalar(lambda q: _g(q, beta, p0), bounds=(nodes[m - 1], nodes[m + 1]),
                           method="bounded", options={"xatol": 1e-14}).x
    g_min = _g(fold, beta, p0)

    def run(v, lo, hi):
        vgrad = np.asarray(v) / beta
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p, val = maximize_rate_value(beta, vgrad, lo, hi, phy)
        p_ref, val_ref = _bisect_reference(beta, vgrad, lo, hi, phy)
        return p, val, p_ref, val_ref

    # v >= beta / p0: psi(0) >= 0 and phi falls from p = 0; at equality the
    # bracket holds the root p = 0, above it there is none
    v = beta / p0 * np.array([1.0, 1.0 + 1e-12, 2.0, 1e3])
    assert not _has_root(beta, v[1:], p0, p_max).any()
    p, _, p_ref, _ = run(v, 0.0, p_max)
    assert np.all(p == 0.0) and np.all(p_ref == 0.0)

    # v at the node minimum or below: no bracket; below the true minimum psi
    # < 0 on the whole box and hi wins
    v = np.array([g_nodes[m], g_min, g_min - 1e-9, g_min - 1.0])
    assert not _has_root(beta, v, p0, p_max).any()
    p, _, _, _ = run(v, 0.0, p_max)
    assert np.all(p[1:] == p_max)
    # between the true and the node minimum the root pair lies inside one
    # node interval: an endpoint wins
    v = g_min + np.array([0.25, 0.5, 0.75]) * (g_nodes[m] - g_min)
    p, _, _, _ = run(v, 0.0, nodes[m])
    assert np.all((p == 0.0) | (p == nodes[m]))

    # roots inside the first node interval, at large beta p0
    for b in (1e3, 1e5, 1e7):
        r = nodes[1] * np.array([1e-6, 1e-3, 0.1, 0.5, 0.99])
        v = _g(r, b, p0)
        assert _has_root(b, v, p0, p_max).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p, _ = maximize_rate_value(b, v / b, 0.0, p_max, phy)
        p_ref, _ = _bisect_reference(b, v / b, 0.0, p_max, phy)
        np.testing.assert_allclose(p, p_ref, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(p, r, rtol=1e-9, atol=1e-14)

    # roots in the interval next to the fold, above the node minimum: psi'
    # vanishes at the fold, and two steps leave up to 1.1e-11 W there (module
    # docstring); the box ends on the node past the root, where psi > 0, so
    # the root wins
    r = np.linspace(nodes[m - 1], min(fold, nodes[m]), 401)[1:-1]
    v = _g(r, beta, p0)
    r, v = r[v > g_nodes[m]], v[v > g_nodes[m]]
    assert r.size > 20 and _has_root(beta, v, p0, p_max).all()
    p, val, p_ref, val_ref = run(v, 0.0, nodes[m])
    np.testing.assert_allclose(p, p_ref, rtol=0.0, atol=2e-11)
    np.testing.assert_allclose(val, val_ref, rtol=1e-12, atol=0.0)
    assert np.all((p > nodes[m - 1]) & (p < nodes[m]))

    # box ends exactly on nodes, with the root inside, below and above
    v = _g(nodes[30] + 0.3 * (nodes[31] - nodes[30]), beta, p0)
    for lo, hi in ((nodes[20], nodes[40]), (nodes[31], nodes[40]), (nodes[20], nodes[30]),
                   (nodes[30], nodes[31])):
        p, val, p_ref, val_ref = run(np.full(3, v), lo, hi)
        np.testing.assert_allclose(p, p_ref, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(val, val_ref, rtol=1e-12, atol=1e-15)


def _bitwise_cases(rng, phy):
    """Calls of every shape the solver, the slot kernel and users make, with
    every lane kind: closed form, search, beta <= 0 or nan and lo > hi."""
    p_max = phy.max_power_w
    n = 300
    beta = 10.0 ** rng.uniform(-6.0, 5.0, n)
    beta[rng.integers(0, n, 30)] = 0.0
    beta[rng.integers(0, n, 10)] = -1.0
    vgrad = np.where(rng.random(n) < 0.5, 0.0, -(10.0 ** rng.uniform(-3.0, 2.0, n)))
    vgrad[rng.random(n) < 0.1] = 10.0 ** rng.uniform(-3.0, 1.0)
    lo = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(-0.1, 1.2 * p_max, n))
    hi = np.where(rng.random(n) < 0.5, p_max, rng.uniform(0.0, 1.2 * p_max, n))
    n_q = 51
    wall = np.concatenate([rng.uniform(-5.0, 1.0, n_q - 1), [0.0], [0.0],
                           rng.uniform(-5.0, 1.0, n_q - 1)])
    bal = rng.uniform(0.0, p_max)
    shape_rb, shape_rbk = (3, 121), (3, 121, 5)
    return [
        (beta, 0.0, lo, hi),                                  # pure EE
        (beta, vgrad, lo, hi),                                # mixed
        (np.abs(beta) + 1e-3, vgrad - 1e-3, lo, hi),          # all search lanes
        (-np.abs(beta), vgrad, lo, hi),                       # beta <= 0 only
        (beta, vgrad, hi + 0.1, hi),                          # lo > hi
        # the solver's call: one beta, (2 n_q,) gradients and bounds with
        # zero gradients at the clamped walls
        (2.7, wall, np.r_[np.zeros(n_q), np.full(n_q, bal)],
         np.r_[np.full(n_q, bal), np.full(n_q, p_max)]),
        (0.0, wall, 0.0, p_max),
        # the kernel's calls: per-SBS and per-candidate floors, scalar cap
        (10.0 ** rng.uniform(-2.0, 4.0, shape_rb), 0.0,
         rng.uniform(0.0, 1.5 * p_max, shape_rb), p_max),
        (10.0 ** rng.uniform(-2.0, 4.0, shape_rbk), 0.0,
         rng.uniform(0.0, 1.5 * p_max, shape_rbk), p_max),
        (10.0 ** rng.uniform(-2.0, 4.0, shape_rb), -0.5,
         rng.uniform(0.0, 0.5 * p_max, shape_rb), p_max),
        # search lanes without rate (beta <= 0, nan) next to live ones
        (np.array([0.0, -0.0, -1.0, -1e300, -np.inf, np.nan, 2.0, 30.0]),
         np.array([-1.0, -5.0, 2.0, -0.5, -1.0, -1.0, -1.0, -0.2]), 0.2, 0.9),
        # fully scalar input, each lane kind
        (5.0, 0.0, 0.0, p_max), (5.0, -2.0, 0.1, p_max), (0.0, -5.0, 0.2, 0.9),
        (np.nan, -1.0, 0.2, 0.9), (5.0, 0.0, 0.9, 0.2),
        # vgrad zero given as a scalar and as an array wider than the rest
        (beta[:n_q], 0.0, 0.0, p_max),
        (3.0, np.zeros((2, n_q)), 0.0, p_max),
        (beta[:n_q], np.zeros((2, n_q)), lo[:n_q], p_max),
    ]


def test_one_pass_matches_lane_split_bitwise(phy, rng):
    for beta, vgrad, lo, hi in _bitwise_cases(rng, phy):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # lanes it does not serve stay quiet
            p, val = maximize_rate_value(beta, vgrad, lo, hi, phy)
        p_ref, val_ref = _lane_split_reference(beta, vgrad, lo, hi, phy)
        for got, ref in ((p, p_ref), (val, val_ref)):
            # fully scalar calls give 0-d arrays, array calls their broadcast shape
            assert type(got) is np.ndarray and got.dtype == np.float64 and got.flags.writeable
            assert got.shape == ref.shape
            assert np.array_equal(got, ref), (np.shape(beta), np.shape(vgrad))


def test_row_count_matches_node_comparison(rng):
    # non-increasing rows as running minima, with plateaus from rounding and
    # from the minimum itself, a constant row and a row through zero; v at
    # every node value (ties), above the first node, below the last, +-inf,
    # nan and in between
    rows = [np.minimum.accumulate(np.round(rng.normal(0.0, 3.0, N_NODES), d))
            for d in (0, 1, 16) for _ in range(20)]
    rows += [np.full(N_NODES, 0.5), np.minimum.accumulate(np.linspace(1.0, -1.0, N_NODES))]
    for g in rows:
        assert np.all(np.diff(g) <= 0.0)
        v = np.concatenate([g, -g, [g[0] + 1.0, g[-1] - 1.0, np.inf, -np.inf, np.nan, 0.0, -0.0],
                            rng.uniform(g[-1] - 1.0, g[0] + 1.0, 41)])
        for vv in (v, v.reshape(-1, 2)):
            want = np.count_nonzero(g >= vv[..., None], axis=-1)
            got = N_NODES - _row_index(np.ascontiguousarray(g[::-1]), vv)
            assert got.shape == want.shape
            assert np.array_equal(got, want)


@pytest.mark.parametrize("beta", [2.7, 40.0, 1e4, 0.0, -1.0])
def test_scalar_beta_search_matches_multi_row_path_bitwise(phy, rng, beta):
    # a scalar beta takes the one-row binary search; the same beta next to
    # another one takes the per-row node count, and its lanes must agree
    p_max = phy.max_power_w
    vgrad = np.concatenate([-(10.0 ** rng.uniform(-4.0, 3.0, 200)),
                            10.0 ** rng.uniform(-4.0, 1.0, 20), np.zeros(5)])
    boxes = [(0.0, p_max), (np.array([[0.0], [0.3]]), np.array([[0.3], [p_max]]))]
    for lo, hi in boxes:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p, val = maximize_rate_value(beta, vgrad, lo, hi, phy)
            pair = np.array([beta, 7.0]).reshape((2,) + (1,) * p.ndim)
            p2, val2 = maximize_rate_value(pair, vgrad, lo, hi, phy)
        assert np.array_equal(p, p2[0]) and np.array_equal(val, val2[0])


EPS = np.finfo(float).eps


def test_step_terms_match_terms_built_per_call_bitwise(phy, rng):
    # step_terms builds a run of betas' terms in one pass; handed to a call,
    # they give what the call builds itself, bit for bit, on gradients with
    # zero, negative and positive lanes, with 0, nan, +-inf, the smallest
    # subnormal and 1e300, on all-zero gradients and on boxes that clip
    # (lo < 0, hi > p_max, hi < lo)
    p_max = phy.max_power_w
    beta = 10.0 ** rng.uniform(-3.0, 7.0, 40) / phy.circuit_power_w
    lo = rng.uniform(-0.2, 1.0, (40, 2, 1)) * p_max
    hi = rng.uniform(0.0, 1.2, (40, 2, 1)) * p_max
    special = [0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e300, -1e300]
    steps = step_terms(beta, lo, hi, phy)
    assert len(steps) == beta.size
    for k, t in enumerate(steps):
        vgrad = -(10.0 ** rng.uniform(-4.0, 2.0, 17))
        vgrad[rng.random(17) < 0.3] *= -0.1
        vgrad[rng.random(17) < 0.2] = 0.0
        edges = vgrad.copy()
        edges[rng.permutation(17)[:len(special)]] = special
        for g in (vgrad, edges, np.zeros(17)):
            got = maximize_rate_value(t.beta, g, t.lo, t.hi, phy, terms=t)
            want = maximize_rate_value(beta[k], g, lo[k], hi[k], phy)
            for a, b in zip(got, want):
                assert a.shape == b.shape == (2, 17) and a.dtype == b.dtype == np.float64
                assert a.tobytes() == b.tobytes()


def _row_count(g, v):
    """The count of nodes with g >= v in one non-increasing row g, at the
    shape of v, by the binary search a step made before the bracket table:
    in the reversed row, nan in v counting 0."""
    return N_NODES - g[::-1].searchsorted(v, side="left")


def _bracket_reference(g, pn, c):
    """The per-lane bracket arithmetic the table replaced, at the counts c:
    (ga, gb, blo, bhi, ga - gb, bhi - blo, has_root)."""
    has_root = (c > 0) & (c < N_NODES)
    k = np.minimum(np.maximum(c, 1), N_NODES - 1)
    km = k - 1
    ga, gb = g[km], g[k]
    blo, bhi = pn[km], pn[k]
    return ga, gb, blo, bhi, ga - gb, bhi - blo, has_root


def test_bracket_table_matches_per_lane_arithmetic(phy):
    # each run's table holds, at position N_NODES - c, the bracket of every
    # count c = 0 .. N_NODES, the ends without a root included; a step's
    # lookup (one search in the reversed row, one gather) gives the bracket
    # of the count, for v at every node value, between nodes, past both
    # ends, +-inf and nan
    pn = phy.max_power_w * NODE_FRAC
    beta = 10.0 ** np.arange(-3.0, 10.5, 0.5)
    lo = np.zeros((beta.size, 2, 1))
    steps = step_terms(beta, lo, lo + phy.max_power_w, phy)
    c = np.arange(N_NODES + 1)
    for b, t in zip(beta, steps):
        g = t.rg[::-1]
        assert t.rg.flags.c_contiguous and t.bracket.flags.c_contiguous
        assert np.array_equal(g, _g_table(np.asarray(b), pn, phy.circuit_power_w))
        ga, gb, blo, bhi, dg, db, has_root = _bracket_reference(g, pn, c)
        assert has_root[1:-1].all() and not has_root[0] and not has_root[-1]
        assert np.array_equal(t.bracket[:, N_NODES - c], [ga, dg, db, blo, bhi, has_root])
        v = np.concatenate([g, 0.5 * (g[1:] + g[:-1]),
                            [g[0] + 1.0, g[-1] - 1.0, np.inf, -np.inf, np.nan]])
        cv = _row_count(g, v)
        assert cv[-1] == 0 and cv[-2] == N_NODES and cv[-3] == 0
        ga, gb, blo, bhi, dg, db, has_root = _bracket_reference(g, pn, cv)
        got = t.bracket.take(_row_index(t.rg, v), axis=1)
        assert np.array_equal(got, [ga, dg, db, blo, bhi, has_root])


def test_sweep_call_types_and_live_shortcut(phy, monkeypatch):
    # step_terms' scalars are 0-d arrays; the sweep's call returns fresh,
    # writable float64 (2, n_q) arrays, and with those 0-d fields and
    # beta > 0 it skips the np.where of beta <= 0
    n_q = 31
    beta = np.array([0.5, 40.0, 1e4])
    lo = np.zeros((3, 2, 1))
    lo[:, 1] = 0.3
    hi = np.full((3, 2, 1), phy.max_power_w)
    hi[:, 0] = 0.3
    grad = np.r_[0.0, -(10.0 ** np.linspace(-3.0, 1.0, n_q - 1))]
    conds = []
    where = np.where

    def counting_where(cond, *args):
        conds.append(cond)
        return where(cond, *args)

    monkeypatch.setattr(np, "where", counting_where)
    for t in step_terms(beta, lo, hi, phy):
        for name in ("beta", "live", "hb2", "p0"):
            f = getattr(t, name)
            assert type(f) is np.ndarray and f.shape == ()
        for g in (grad, np.zeros(n_q)):
            conds.clear()
            got = maximize_rate_value(t.beta, g, t.lo, t.hi, phy, terms=t)
            if g.any():
                assert conds and not any(c is t.live for c in conds)
            for a in got:
                assert type(a) is np.ndarray and a.dtype == np.float64
                assert a.shape == (2, n_q) and a.flags.writeable and a.flags.owndata
            # a live of shape (1,) takes the selection, which the count sees
            conds.clear()
            t1 = t._replace(live=t.live.reshape(1))
            again = maximize_rate_value(t.beta, g, t.lo, t.hi, phy, terms=t1)
            assert sum(c is t1.live for c in conds) == 2
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, again))


def _ee_cases(rng, p0):
    """beta log-uniform over [1e-6, 1e6], beta p0 == 1 exactly (u = 1), and
    the far ends 1e-12, 1e12 and 1e300."""
    beta = np.concatenate([10.0 ** rng.uniform(-6.0, 6.0, 20000),
                           [1.0 / p0, 1e-12, 1e12, 1e300]])
    assert beta[-4] * p0 == 1.0
    return beta


@pytest.mark.parametrize("p0", [1.0, 0.25])
def test_ee_power_matches_lambertw_closed_form(rng, p0):
    beta = _ee_cases(rng, p0)
    p = _ee_power(beta, 0.0, np.inf, p0)
    ref = np.expm1(lambertw((beta * p0 - 1.0) / np.e).real + 1.0) / beta
    # both leave u = ln(1 + beta p*) a few ulps from the root, an absolute
    # error of about eps * max(u, 1) that expm1(u) / beta turns into a
    # relative error of about eps (1 + u); the closed form is also fed
    # beta p0 - 1 rounded to eps, which moves p* by about eps / (beta p0)
    # relative and dominates below beta p0 ~ 1e-3 (1e-4 at 1e-12).  The
    # largest ratio to this scale seen over 2e5 draws was 1.2.
    u = np.log1p(beta * p)
    rtol = 4.0 * EPS * (1.0 + u + 1.0 / (beta * p0))
    assert np.all(np.abs(p - ref) <= rtol * ref)
    assert p[-4] == pytest.approx(np.expm1(1.0) / beta[-4], rel=4 * EPS)


def test_ee_power_is_stationary(rng):
    p0 = 1.0
    beta = _ee_cases(rng, p0)
    p = _ee_power(beta, 0.0, np.inf, p0)
    # psi(p*) cancels two terms of size beta (p + p0); p* carries the
    # rounding of u scaled by u (see above), which moves psi by
    # psi' dp = beta u dp.  The largest ratio to this scale seen was 2.4.
    u = np.log1p(beta * p)
    psi = _psi(p, beta, 0.0, p0)
    assert np.all(np.abs(psi) <= 4.0 * EPS * beta * (p + p0) * (1.0 + u))


def test_ee_lanes_without_rate_stay_quiet(phy):
    # beta <= 0 and nan lanes carry no rate and stay at lo with value 0;
    # below the start table (beta p0 < 1e-15) and at a subnormal beta the
    # true p* is astronomically large, so the lane goes to hi
    beta = np.array([0.0, -0.0, -1.0, -1e300, -np.inf, np.nan, 1e-20, 1e-300, 5e-324])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p, val = maximize_rate_value(beta, 0.0, 0.2, 0.9, phy)
    dead = ~(beta > 0.0)
    assert np.all(p[dead] == 0.2) and np.all(val[dead] == 0.0)
    assert np.all(p[~dead] == 0.9) and np.all(val[~dead] >= 0.0)


def test_public_ee_power_is_the_zero_gradient_lane_bitwise(rng, phy):
    # beta from subnormal to the largest double, scalar and array
    beta = np.concatenate([10.0 ** rng.uniform(-20, 300, 200),
                           [5e-324, 1e-300, 1e-15, 1.0, 1e300, np.finfo(float).max]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = ee_power(beta, phy)
        ref = maximize_rate_value(beta, 0.0, 0.0, phy.max_power_w, phy)[0]
        assert np.array_equal(p, ref)
        assert ee_power(float(beta[0]), phy) == ref[0]
        # and on [lo, p_max] for an array lo
        lo = np.linspace(0.0, phy.max_power_w, beta.size)
        p = ee_power(beta, phy, lo)
        assert p.tolist() == maximize_rate_value(beta, 0.0, lo, phy.max_power_w, phy)[0].tolist()


def test_strong_queue_pressure_saturates(phy):
    # very negative value gradient: draining dominates, transmit at the cap
    p, _ = maximize_rate_value(5.0, -100.0, 0.0, phy.max_power_w, phy)
    assert p == pytest.approx(phy.max_power_w)


def test_positive_gradient_stays_silent(phy):
    # rate is harmful when the gradient tops the efficiency: phi <= 0
    p, _ = maximize_rate_value(5.0, 2.0, 0.0, phy.max_power_w, phy)
    assert p == pytest.approx(0.0)


def test_zero_beta_never_radiates(phy):
    p, val = maximize_rate_value(0.0, -5.0, 0.2, 0.9, phy)
    assert p == pytest.approx(0.2)
    assert val == 0.0


def _violations(v, power_w, beta, phy, queue):
    """solver._existence_violations on two slices whose value has the constant
    gradient giving v = beta * rcoef * dV/dy at every node."""
    grid = GridSpec(2, 5)
    _, rcoef = _rate_coeffs(phy, queue)
    value = np.tile(v / (beta * rcoef) * grid.queues, (2, 1))
    policy = np.full((2, grid.n_q), power_w)
    return _existence_violations(grid, value, policy, np.full(2, beta), phy, queue)


def test_existence_diagnostic(phy, queue):
    # psi'(p) = 2 v (p + p0) + beta ln(1 + beta p) at all 10 nodes;
    # v = 0 at p = 0 collapses the expression exactly
    assert _violations(0.0, 0.0, 1.0, phy, queue) == 10
    assert _violations(0.0, 0.5, 1.0, phy, queue) == 0
    assert _violations(-2.0, 0.3, 5.0, phy, queue) == 0
    # cancellation: 2 v (p+p0) = -beta ln(1+beta p)
    p, beta = 0.5, 2.0
    v = -beta * np.log1p(beta * p) / (2 * (p + phy.circuit_power_w))
    assert _violations(v, p, beta, phy, queue) == 10
