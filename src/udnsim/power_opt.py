"""Pointwise transmit-power optimization.

The per-state Hamiltonian contribution that depends on power is

    phi(p) = ln(1 + beta p) / (p + p0) - vgrad * ln(1 + beta p)

(spectral energy efficiency in nats minus the rate-weighted marginal value of
backlog).  Interior stationary points satisfy psi(p) = 0 with

    psi(p) = v (p + p0)^2 - beta (p + p0) + (1 + beta p) ln(1 + beta p),
    psi'(p) = 2 v (p + p0) + beta ln(1 + beta p),     v = vgrad * beta,

and psi > 0 exactly where phi decreases.  psi'' = 2 v + beta^2 / (1 + beta p)
falls with p, so psi' is concave and positive on at most one interval: psi
falls, rises, then falls.  It therefore changes sign from - to + (an interior
maximum of phi) at most once on [0, p_max], possibly followed by one + to -
crossing (a minimum).  The global maximizer is found by comparing phi at the
up-crossing root and at the interval endpoints.

Pure energy efficiency (vgrad = 0: myopic power, the empty and full walls of
the HJB grid).  phi is strictly quasi-concave on p >= 0 here (psi' = beta
ln(1 + beta p) > 0), so the stationary point p* clipped to [lo, hi] is the
maximizer.  In u = ln(1 + beta p*) the condition psi = 0 reads

    e^u (u - 1) = beta p0 - 1,      p* = expm1(u) / beta,

whose closed form is u = 1 + W0((beta p0 - 1) / e), the principal Lambert-W
branch (Isheden et al., 2012; Zappone & Jorswieck, 2015).  Divided by e^u
and written in z = ln(beta p0), so that no term overflows for any finite
beta p0, u is the root of

    h(u) = u + expm1(-u) - e^(z - u),    h' = e^(z - u) - expm1(-u) > 0,
    h'' = 1 - h'.

The start is read from a table of u at 4001 nodes evenly spaced in asinh(z)
for beta p0 from 1e-15 to the largest double, so the spacing grows with |z|
where u is nearly linear in z (u ~ z - ln z above, ln u ~ z / 2 below).
Index arithmetic finds a lane's interval, and the linear interpolant in z
is within 1.4e-6 of u.  The table itself is five Halley steps on h from
ln(1 + sqrt(2 e^min(z, 0))) + max(z, 0), solved at import in under a
millisecond.  One Halley step (Corless et al., 1996) from the start then
leaves only rounding.  Against a 50-digit reference, p* is within 4e-15
relative for beta p0 in [1e-3, 1e12] and within 1e-13 up to the largest
double, where expm1 scales the rounding of u by u.  Below beta p0 = 1e-3,
the cancellation in u + expm1(-u) costs about eps / sqrt(beta p0), which is
1.6e-9 at 1e-15.  The closed form fed the rounded beta p0 - 1 loses
eps / (beta p0) there.  Below 1e-15 the start stays at the first node, and
the step leaves p* above 4e7 p0, as the true p* is, so any cap below
4e7 p0 clips both to hi.

Why NumPy rather than scipy's Lambert W: importing scipy.special took about
0.3 s and 25 MB, over half of a solve's set-up, for this one function.  Per
ee_power call the kernel is about 10 us slower up to about 40 lanes (the
solver's scalar start, a smoke slot) and faster above: about half the time
at 121 lanes (one reference slot) and an eighth at 2420 (20 replicates).

Value-weighted case (vgrad != 0, the HJB nodes).  Write psi = s^2 (v - g(p))
with s = p + p0 and

    g(p) = (beta s - (1 + beta p) ln(1 + beta p)) / s^2,

which depends on beta alone.  psi > 0 exactly where v > g, so an up-crossing
of psi is a point where g falls through v.  g falls from g(0) = beta / p0 to
a single minimum and then rises: s^3 g' = m(p) with m(0) = -2 beta p0 < 0 and
m' = -beta s^2 g / (1 + beta p), so m falls while g > 0 and rises once g < 0
(past the EE power p*, where g = 0), and g' changes sign at most once, from
- to +.  The up-crossing is where the falling part of g meets v.

_g_table evaluates g on N_NODES = 129 fixed nodes p_max (j / 128)^2, one row
of nodes per beta.  Their spacing grows from p_max / 16384 at 0, fine enough
for the 1/beta scale of ln(1 + beta p) at large beta, to p_max / 64 at p_max.
The running minimum of a row is g on the falling part and the node minimum
past it, so the count c of its nodes with g >= v brackets the root in
[p_(c-1), p_c], where psi <= 0 at the left node and psi > 0 at the right.
The row does not increase, so those nodes are a prefix.  _bracket_table
holds, for each count c = 0 .. N_NODES, what the search needs of its
bracket: g at the left node ga, ga - gb, the node interval and its two
ends, and whether c has a root, built once per beta.  A table of one row (a
scalar beta, as every step of the backward sweep has) finds c by one binary
search in the row kept reversed, ascending and contiguous, eight
comparisons per lane, and its bracket by one gather at the position the
search returns, N_NODES - c; this replaced about twelve clamp, gather and
subtract calls per step.  A table of several rows (an array beta) compares
each lane with all nodes of its row and gathers from the same table.  Both
give the same c, nan in v counting 0, so the same floating-point
operations follow.
c = 0 (v > beta / p0, psi(0) > 0) and c = N_NODES (v at or below the node
minimum) have no root, and the better endpoint wins.  So lanes whose root
pair lies inside one node interval, with v between the node minimum and the true minimum, take the
endpoints; the 25-point scan this replaced missed the same class at its own
spacing.

The start is the linear interpolant of g in the bracket.  N_STEPS = 2
safeguarded steps follow: each shrinks the bracket by the sign of psi, takes
its point when it lies in the closed bracket and bisects otherwise.  The step
is Cauchy's, x - 2 psi / (psi' + sqrt(psi'^2 - 2 psi psi'')), the root of the
Taylor parabola where it rises.  Halley's step x - 2 psi psi' / (2 psi'^2 -
psi psi'') belongs to the same family of third-order steps (Gander, 1985),
but next to the fold of g psi is a hump whose two crossings merge: the
parabola fits the hump, and Halley's step closes about two thirds of the
distance per step there.  On 60k random brackets (beta p_max from 1e-3 to
1e10, p0 / p_max from 0.03 to 10, roots uniform on [0, p_max] and log-uniform
down to 1e-12 p_max) the start was within 7.9e-3 W of the bisected root and
one step within 4.8e-5 W.  Two steps left 7.3e-14 W away from the first node
interval and the fold, within two rounding bands of psi (eps times its terms
over |psi'|); 4.9e-14 W in the first node interval; and 1.1e-11 W next to the
fold, where psi' vanishes.  A third step takes those last two to two bands
as well, at about 14% more time per call; the fold lies past p0 (m(p0) =
2 ln(1 + beta p0) - 4 beta p0 < 0), so it enters the box only when
p0 < p_max, which no shipped config has.  Two Halley steps left
3.1e-3 W and three 1.8e-3 W, both next to the fold; evenly spaced nodes left
6.1e-12 W in the first node interval after two Cauchy steps.  phi rises up
to the root, so the root clipped to [lo, hi] (lo where there is none) is the
best of lo and the root, and _box_best lets phi decide between it and hi,
from ln(1 + beta hi) and 1 / (hi + p0) given to it.

What depends on beta and the box alone is kept apart from the gradients, in
a BoxTerms: the clipped box, beta > 0, p* and its phi, the reversed g table
and its bracket table, beta^2 / 2, ln(1 + beta hi), 1 / (hi + p0) and p0.
_box_terms builds all twelve, in one place: maximize_rate_value calls it
when given no terms (only the tests do), and step_terms calls it once for a
run of scalar betas, one vectorized pass, and hands out each beta's fields
as views, its scalars (beta, beta > 0, beta^2 / 2 and p0) as 0-d arrays.
solver.hjb_backward calls step_terms once per block of runs of equal beta
(once for a constant trajectory), so each step's call runs only the search
and the selection.  With the step's 0-d beta > 0 every lane carries rate,
and the selection skips the np.where of beta <= 0.

Every operand of a step's NumPy calls is an array: the terms' scalars, the
literals of _up_crossing and _box_best (the 0-d _ZERO, _HALF and _ONE, or an
exact array sum such as vs + vs for 2 vs) and hjb_backward's abar, rcoef,
dq and dt.  At the sweep's 31 to 121 elements a call costs little more than
its dispatch, and NumPy 2 takes a Python float or NumPy scalar operand
through its weak-scalar conversion (NEP 50) on every call: at 121 elements
a * 2.0 took 1447 ns, a * np.float64(2.0) 1393 ns, a * np.array(2.0) 933 ns
and a * b 963 ns (median of five, shared 2-vCPU Xeon, NumPy 2.4).  The
arithmetic is the same, so no result bit changes.

A call whose gradients are all zero returns p* and its phi, or lo and 0
where beta <= 0, without the search: the backward sweep makes one where the
later value slice is flat, as at every step of a uniform terminal's sweep.
The package calls ee_power for p* elsewhere.  Any other call takes one pass
over the broadcast inputs: the search on every element, _box_best's
comparison of its root with the box ends, then np.where gives p* and its
phi to the elements with vgrad == 0, and lo and 0 to those with beta <= 0.
The search runs at the shape of v = vgrad beta, and _box_best broadcasts
its root against the boxes: n gradients against (2, 1) boxes take n
searches for the 2 n elements.  The backward sweep's fill lane at node j
and drain lane at node j + 1 read the same difference of the value, so one
search serves both.  Built per call or ahead, each element takes the same
floating-point operations, so the sweep equals, bit for bit, a sweep that
hands each step's 2 n_q lanes to maximize_rate_value.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .phy import PhyParams

# the nodes of _g_table as fractions of [0, max_power], squares of evenly
# spaced ones, and the safeguarded steps _up_crossing takes from its linear
# start (see the module docstring)
N_NODES = 129
NODE_FRAC = np.linspace(0.0, 1.0, N_NODES) ** 2
N_STEPS = 2
# the literals of the search as 0-d float64 arrays, which NumPy takes
# without the weak-scalar conversion of a Python float (module docstring)
_ZERO, _HALF, _ONE = np.array(0.0), np.array(0.5), np.array(1.0)


def _ee_halley(u, z):
    """One Halley step on h(u) = u + expm1(-u) - e^(z - u), whose root is
    u = ln(1 + beta p*) for z = ln(beta p0); h' = e^(z - u) - expm1(-u) and
    h'' = 1 - h'."""
    em = np.expm1(-u)
    ez = np.exp(z - u)
    h = u + em - ez
    d1 = ez - em
    # u - 2 h h' / (2 h'^2 - h h''), with h'' = 1 - h'
    hh = 0.5 * h
    return u - h * d1 / (d1 * (d1 + hh) - hh)


def _ee_table():
    """The start table: nodes z, u at each node and the slope du/dz of the
    interval that starts there (0 at the last node)."""
    z = np.sinh(np.linspace(_EE_S_LO, _EE_S_HI, _EE_NODES))
    u = np.log1p(np.sqrt(2.0 * np.exp(np.minimum(z, 0.0)))) + np.maximum(z, 0.0)
    for _ in range(5):
        u = _ee_halley(u, z)
    return z, u, np.append(np.diff(u) / np.diff(z), 0.0)


# the start table of the EE power: beta p0 from 1e-15 to the largest double
_EE_NODES = 4001
_EE_S_LO = float(np.arcsinh(np.log(1e-15)))
_EE_S_HI = float(np.arcsinh(np.log(np.finfo(float).max)))
_EE_PER_S = (_EE_NODES - 1) / (_EE_S_HI - _EE_S_LO)
_EE_Z, _EE_U, _EE_SLOPE = _ee_table()
_EE_Z_LO, _EE_Z_HI = float(_EE_Z[0]), float(_EE_Z[-1])


def _phi(p, beta, vgrad, p0):
    return np.log1p(beta * p) * (_ONE / (p + p0) - vgrad)


def _ee_power(beta, lo, hi, p0):
    """Maximizer of ln(1 + beta p) / (p + p0) clipped to [lo, hi]: the table
    start and one Halley step of the module docstring; meaningful where
    beta > 0, evaluated at beta's shape before the clip."""
    z = np.log(beta * p0)
    # fmax also sends nan (beta < 0) to the first node: every lane indexes
    # the table
    zc = np.fmin(np.fmax(z, _EE_Z_LO), _EE_Z_HI)
    i = ((np.arcsinh(zc) - _EE_S_LO) * _EE_PER_S).astype(np.intp)
    u = _ee_halley(_EE_U[i] + (zc - _EE_Z[i]) * _EE_SLOPE[i], z)
    return np.minimum(np.maximum(np.expm1(u) / beta, lo), hi)


def _g_table(beta, pn, p0):
    """g on the nodes pn at beta's shape plus a last node axis, as its
    running minimum: g on the falling part and the node minimum past it, so
    the nodes with g >= v are the falling ones, or all of them."""
    b = beta[..., None]
    s = pn + p0
    bp = b * pn
    return np.minimum.accumulate((b * s - (1.0 + bp) * np.log1p(bp)) / (s * s), axis=-1)


def _bracket_table(g, pn):
    """The bracket of every count c = 0 .. N_NODES of nodes with g >= v, for
    the _g_table g on the nodes pn: shape g.shape[:-1] + (6, N_NODES + 1),
    rows ga, ga - gb, bhi - blo, blo, bhi and has_root (1 or 0), with the
    bracket of c at column N_NODES - c, the position _row_index returns."""
    c = np.arange(N_NODES, -1, -1)
    k = np.minimum(np.maximum(c, 1), N_NODES - 1)
    km = k - 1
    ga, gb = g[..., km], g[..., k]
    out = np.empty(g.shape[:-1] + (6, N_NODES + 1))
    out[..., 0, :] = ga
    out[..., 1, :] = ga - gb
    out[..., 2, :] = pn[k] - pn[km]
    out[..., 3, :] = pn[km]
    out[..., 4, :] = pn[k]
    out[..., 5, :] = (c > 0) & (c < N_NODES)
    return out


def _row_index(rg, v):
    """N_NODES - c at the shape of v, c the count of nodes with g >= v in one
    non-increasing table row given reversed (ascending) as rg: those nodes
    are a prefix of g, so one binary search in rg finds its end.  nan in v
    sorts past every node and counts 0."""
    return rg.searchsorted(v)


def _up_crossing(t, v):
    """The up-crossing of psi on [0, p_max] at the shape of v, for the
    BoxTerms t: the bracket that t's table gives each lane, its linear
    start and N_STEPS safeguarded Cauchy steps.  Returns (root, has_root),
    has_root 1 or 0; the root is meaningless where has_root is 0."""
    if t.rg.ndim == 1:
        br = t.bracket.take(_row_index(t.rg, v), axis=1)
    else:
        # a row per beta: each lane counts against all nodes of its row
        rg = t.rg.reshape(-1, N_NODES)
        row = np.arange(len(rg)).reshape(np.shape(t.beta))
        j = N_NODES - np.count_nonzero(rg[row] >= v[..., None], axis=-1)
        br = np.moveaxis(t.bracket.reshape(len(rg), 6, N_NODES + 1)[row, :, j], -1, 0)
    ga, dg, db, blo, bhi, has_root = br
    beta, hb2, p0 = t.beta, t.hb2, t.p0
    # ga >= v > gb keeps the linear start inside the bracket
    x = blo + (ga - v) / dg * db
    for _ in range(N_STEPS):
        s = x + p0
        bx = beta * x
        w = _ONE + bx
        lg = np.log1p(bx)
        vs = v * s
        f = (vs - beta) * s + w * lg
        pos = f > _ZERO
        bhi = np.where(pos, x, bhi)
        blo = np.where(pos, blo, x)
        d1 = vs + vs + beta * lg  # psi'
        hd2 = v + hb2 / w  # psi'' / 2
        # the root of the Taylor parabola where it rises, x - 2 f / (d1 +
        # sqrt(d1^2 - 4 f hd2)); a parabola without one gives nan, which the
        # test below sends to the midpoint
        f2 = f + f
        xn = x - f2 / (d1 + np.sqrt(d1 * d1 - (f2 + f2) * hd2))
        # closed test: a converged step lands on the end just moved to x
        x = np.where((xn >= blo) & (xn <= bhi), xn, _HALF * (blo + bhi))
    return x, has_root


def _box_best(x, has_root, vgrad, t):
    """The up-crossing compared with the ends of the BoxTerms t's box
    [lo, hi]; returns (p, phi at p) at the inputs' broadcast shape."""
    # phi rises up to the root, so lo can beat it only where there is none
    # or it lies below lo: the root clipped to [lo, hi], or lo where there
    # is none, is the best of lo and the root, and competes with hi
    r = np.where(has_root, np.minimum(np.maximum(x, t.lo), t.hi), t.lo)
    f_r = _phi(r, t.beta, vgrad, t.p0)
    f_hi = t.log_hi * (t.inv_hi - vgrad)
    up = f_hi > f_r
    return np.where(up, t.hi, r), np.where(up, f_hi, f_r)


def ee_power(beta, phy: PhyParams, lo=0.0):
    """The EE power p* of beta > 0 on [lo, p_max], lo in [0, p_max]: what
    maximize_rate_value returns for vgrad = 0 and hi = p_max, bit for bit,
    without its boxes and selection (the solver's queue-blind start and the
    baseline's myopic power).  Meaningless, and warns, where beta <= 0."""
    with np.errstate(over="ignore"):  # a subnormal beta clips to p_max
        return _ee_power(np.asarray(beta, dtype=float), lo, phy.max_power_w,
                         phy.circuit_power_w)


class BoxTerms(NamedTuple):
    """What maximize_rate_value computes from beta and the box [lo, hi]
    alone, at the broadcast shape of the three; live and hb2 at beta's, rg
    at beta's plus a node axis and bracket at beta's plus its two axes."""

    beta: np.ndarray
    lo: np.ndarray  # lo and hi clipped to [0, p_max], hi >= lo
    hi: np.ndarray
    live: np.ndarray  # beta > 0
    p_ee: np.ndarray  # p* clipped to [lo, hi]
    phi_ee: np.ndarray  # phi at p_ee for vgrad = 0
    rg: np.ndarray  # the _g_table reversed, ascending
    bracket: np.ndarray  # _bracket_table
    hb2: np.ndarray  # beta^2 / 2
    log_hi: np.ndarray  # ln(1 + beta hi)
    inv_hi: np.ndarray  # 1 / (hi + p0)
    p0: np.ndarray  # the circuit power, 0-d


def _box_terms(beta, lo, hi, phy) -> BoxTerms:
    """The BoxTerms of beta and the box [lo, hi]."""
    p0, p_max = phy.circuit_power_w, phy.max_power_w
    beta = np.asarray(beta, dtype=float)
    lo = np.minimum(np.maximum(lo, 0.0), p_max)
    hi = np.minimum(np.maximum(hi, lo), p_max)
    p_ee = _ee_power(beta, lo, hi, p0)
    pn = p_max * NODE_FRAC
    g = _g_table(beta, pn, p0)
    return BoxTerms(beta, lo, hi, beta > 0.0, p_ee, _phi(p_ee, beta, 0.0, p0),
                    np.ascontiguousarray(g[..., ::-1]), _bracket_table(g, pn),
                    0.5 * beta * beta, np.log1p(beta * hi), 1.0 / (hi + p0), np.array(p0))


def step_terms(beta, lo, hi, phy: PhyParams) -> list[BoxTerms]:
    """Every BoxTerms of each scalar beta[k] > 0 with the boxes lo[k],
    hi[k], built in one pass over all of them: beta has shape (n,), lo and
    hi (n, ...), for a caller that hands each to maximize_rate_value with
    many gradients."""
    # beta against the boxes; a subnormal beta takes p* past the largest
    # double, and inf clips to hi as the true p* does
    b = beta.reshape((-1,) + (1,) * (np.ndim(lo) - 1))
    with np.errstate(over="ignore"):
        t = _box_terms(b, lo, hi, phy)
    # run k's fields as views, those at beta's shape as 0-d arrays
    one = (slice(None),) + (0,) * (np.ndim(lo) - 1)
    beta, live, hb2 = t.beta[one], t.live[one], t.hb2[one]
    rest = zip(t.lo, t.hi, t.p_ee, t.phi_ee, t.rg[one], t.bracket[one], t.log_hi, t.inv_hi)
    return [BoxTerms(beta[k, ...], lo_k, hi_k, live[k, ...], p_ee, phi_ee, rg, bracket,
                     hb2[k, ...], log_hi, inv_hi, t.p0)
            for k, (lo_k, hi_k, p_ee, phi_ee, rg, bracket, log_hi, inv_hi) in enumerate(rest)]


def maximize_rate_value(beta, vgrad, lo, hi, phy: PhyParams, terms: BoxTerms | None = None):
    """Vectorized argmax of phi over [lo, hi] elementwise.

    beta, vgrad, lo, hi broadcast together.  Elements with vgrad == 0 take
    the closed form, the others the table search; beta <= 0
    carries no rate and stays at lo with value 0.  Returns (p, phi_at_p).

    terms: the BoxTerms of beta, lo and hi from step_terms, for a caller
    that reuses them with other gradients, given as float64 arrays; built
    in the call when None.

    One pass with no lane split, as the module docstring describes.
    """
    if terms is None:
        vgrad = np.asarray(vgrad, dtype=float)
    search = np.count_nonzero(vgrad)  # nan counts, as in vgrad.any()
    # both cases also run on elements they do not serve (beta = 0 divides
    # by zero), and the search on lanes without a root; np.where discards
    # those results.  A subnormal beta takes p* past the largest double, and
    # inf clips to hi as the true p* does
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = _box_terms(beta, lo, hi, phy) if terms is None else terms
        if search:
            x, has_root = _up_crossing(t, vgrad * t.beta)
            p, val = _box_best(x, has_root, vgrad, t)
            ee = vgrad == _ZERO
            p = np.where(ee, t.p_ee, p)
            val = np.where(ee, t.phi_ee, val)
            # a scalar beta > 0 (every sweep step; live a 0-d array or a
            # NumPy bool): every lane is live, and p and val are fresh and at
            # the full shape already
            if t.live.ndim == 0 and t.live:
                return p, val
        else:
            # every gradient zero: the EE power alone.  A gradient array may
            # be wider than the box and widens the result.  Kept for speed: a
            # uniform-terminal 651x51 backward sweep took 21-39 ms with this
            # branch and 61-114 ms through the search (2-core Xeon)
            shape = np.broadcast_shapes(np.shape(vgrad), np.shape(t.p_ee))
            p, val = np.broadcast_to(t.p_ee, shape), np.broadcast_to(t.phi_ee, shape)
        p = np.where(t.live, p, t.lo)
        val = np.where(t.live, val, 0.0)
    return p, val
