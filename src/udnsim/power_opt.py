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
call the kernel is a few microseconds slower up to about 50 lanes (the
solver's scalar beta among them) and faster above: about half the time at
121 lanes (one slot) and a seventh at 2420 (a 20-replicate slot).

Value-weighted case (vgrad != 0, the HJB nodes).  Write psi = s^2 (v - g(p))
with s = p + p0 and

    g(p) = (beta s - (1 + beta p) ln(1 + beta p)) / s^2,

which depends on beta alone.  psi > 0 exactly where v > g, so an up-crossing
of psi is a point where g falls through v.  g falls from g(0) = beta / p0 to
a single minimum and then rises: s^3 g' = m(p) with m(0) = -2 beta p0 < 0 and
m' = -beta s^2 g / (1 + beta p), so m falls while g > 0 and rises once g < 0
(past the EE power p*, where g = 0), and g' changes sign at most once, from
- to +.  The up-crossing is where the falling part of g meets v.

g is evaluated once per call, at beta's own shape (one table for the solver's
scalar beta), on N_NODES = 129 fixed nodes p_max (j / 128)^2.  Their spacing
grows from p_max / 16384 at 0, fine enough for the 1/beta scale of
ln(1 + beta p) at large beta, to p_max / 64 at p_max.  The running minimum of
the table is g on the falling part and the node minimum past it, so the count
c of its nodes with g >= v brackets the root in [p_(c-1), p_c], where
psi <= 0 at the left node and psi > 0 at the right.  c = 0 (v > beta / p0,
psi(0) > 0) and c = N_NODES (v at or below the node minimum) have no root,
and the better endpoint wins.  So lanes whose root pair lies inside one node
interval, with v between the node minimum and the true minimum, take the
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
best of lo and the root, and phi decides between it and hi.

maximize_rate_value takes one pass over the broadcast inputs instead of
gathering each case's elements: p* at beta's own shape (one lookup and one
Halley step for the solver's scalar beta) clipped by broadcasting and phi at
it, the search on every element only when some vgrad is nonzero, then
np.where picks p and phi per element, the search's phi from its own
comparison.  Each element takes the same floating-point operations either
way.
"""

from __future__ import annotations

import numpy as np

from .phy import PhyParams

# the g table of _up_crossing: its nodes as fractions of [0, max_power],
# squares of evenly spaced ones, and the safeguarded steps from its linear
# start (see the module docstring)
N_NODES = 129
NODE_FRAC = np.linspace(0.0, 1.0, N_NODES) ** 2
N_STEPS = 2


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
    return np.log1p(beta * p) * (1.0 / (p + p0) - vgrad)


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


def _up_crossing(beta, v, p0, p_max):
    """The up-crossing of psi on [0, p_max] at the shape of v: the table
    bracket, its linear start and N_STEPS safeguarded Cauchy steps.  Returns
    (root, has_root); the root is meaningless where has_root is False."""
    # g on the nodes at beta's own shape, the node axis first; its running
    # minimum is g on the falling part and the node minimum past it, so its
    # nodes with g >= v are the falling ones, or all of them
    pn = (p_max * NODE_FRAC).reshape((-1,) + (1,) * v.ndim)
    s = pn + p0
    bp = beta * pn
    g = (beta * s - (1.0 + bp) * np.log1p(bp)) / (s * s)
    g = np.minimum.accumulate(g, axis=0)
    c = np.count_nonzero(g >= v, axis=0)
    has_root = (c > 0) & (c < N_NODES)
    k = np.minimum(np.maximum(c, 1), N_NODES - 1)
    g = g.reshape(N_NODES, -1)
    col = np.arange(beta.size).reshape(beta.shape)
    ga, gb = g[k - 1, col], g[k, col]
    blo = p_max * NODE_FRAC[k - 1]
    bhi = p_max * NODE_FRAC[k]
    # ga >= v > gb keeps the linear start inside the bracket
    x = blo + (ga - v) / (ga - gb) * (bhi - blo)
    hb2 = 0.5 * beta * beta
    for _ in range(N_STEPS):
        s = x + p0
        bx = beta * x
        w = 1.0 + bx
        lg = np.log1p(bx)
        vs = v * s
        f = (vs - beta) * s + w * lg
        pos = f > 0.0
        bhi = np.where(pos, x, bhi)
        blo = np.where(pos, blo, x)
        d1 = 2.0 * vs + beta * lg  # psi'
        hd2 = v + hb2 / w  # psi'' / 2
        # the root of the Taylor parabola where it rises; a parabola without
        # one gives nan, which the test below sends to the midpoint
        xn = x - 2.0 * f / (d1 + np.sqrt(d1 * d1 - 4.0 * f * hd2))
        # closed test: a converged step lands on the end just moved to x
        x = np.where((xn >= blo) & (xn <= bhi), xn, 0.5 * (blo + bhi))
    return x, has_root


def _hjb_power(beta, vgrad, lo, hi, p0, p_max):
    """The up-crossing compared with the endpoints; returns (p, phi at p) at
    the inputs' broadcast shape."""
    x, has_root = _up_crossing(beta, vgrad * beta, p0, p_max)
    # phi rises up to the root, so lo can beat it only where there is none
    # or it lies below lo: the root clipped to [lo, hi], or lo where there
    # is none, is the best of lo and the root, and competes with hi
    r = np.where(has_root, np.minimum(np.maximum(x, lo), hi), lo)
    f_r = _phi(r, beta, vgrad, p0)
    f_hi = _phi(hi, beta, vgrad, p0)
    up = f_hi > f_r
    return np.where(up, hi, r), np.where(up, f_hi, f_r)


def maximize_rate_value(beta, vgrad, lo, hi, phy: PhyParams):
    """Vectorized argmax of phi over [lo, hi] elementwise.

    beta, vgrad, lo, hi broadcast together.  Elements with vgrad == 0 take
    the closed form, the others the table search; beta <= 0
    carries no rate and stays at lo with value 0.  Returns (p, phi_at_p).

    One pass with no lane split, as the module docstring describes.
    """
    p0 = phy.circuit_power_w
    beta = np.asarray(beta, dtype=float)
    vgrad = np.asarray(vgrad, dtype=float)
    lo = np.minimum(np.maximum(lo, 0.0), phy.max_power_w)
    hi = np.minimum(np.maximum(hi, lo), phy.max_power_w)
    ee = vgrad == 0.0
    live = beta > 0.0
    # both cases also run on elements they do not serve (beta = 0 divides
    # by zero); np.where discards those results.  A subnormal beta takes p*
    # past the largest double, and inf clips to hi as the true p* does
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p = np.where(ee, _ee_power(beta, lo, hi, p0), lo)
        val = _phi(p, beta, vgrad, p0)
        if vgrad.any():
            p_hjb, val_hjb = _hjb_power(beta, vgrad, lo, hi, p0, phy.max_power_w)
            p = np.where(ee, p, p_hjb)
            val = np.where(ee, val, val_hjb)
        p = np.where(live, p, lo)
        val = np.where(live, val, 0.0)
    return p, val
