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

Value-weighted case (vgrad != 0, the HJB nodes).  A scan of psi at the
N_SCAN = 25 evenly spaced fractions SCAN_FRAC of [lo, hi], a module constant
shared by every call, finds the first scan interval whose left end has
psi <= 0 and whose right end psi > 0.  That interval holds an odd number of
roots, and exactly one, since three would need a second up-crossing.  A fixed
number of safeguarded Newton steps converge on it from the secant root of the
scan values: each step shrinks the bracket by the sign of psi, takes the
Newton point when it lies in the closed bracket and bisects otherwise.
Without an up-crossing the better endpoint wins.

maximize_rate_value takes one pass over the broadcast inputs instead of
gathering each case's elements: p* at beta's own shape (one lookup and one
Halley step for the solver's scalar beta) clipped by broadcasting, the search
on every element only when some vgrad is nonzero, then np.where picks per
element.  Each element takes the same floating-point operations either way.
"""

from __future__ import annotations

import numpy as np

from .phy import PhyParams

# scan grid density for the up-crossing bracket, and Newton steps from the
# bracket's secant root: on 30k random brackets (beta 1e-6..1e5, sub-boxes)
# four steps reached the bisected root to 1.3e-15 W, the fifth is margin
N_SCAN = 25
N_NEWTON = 5
# the scan points as fractions of [lo, hi], one column for all lanes
SCAN_FRAC = np.linspace(0.0, 1.0, N_SCAN)[:, None]


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


def _psi(p, beta, v, p0):
    s = p + p0
    return v * s * s - beta * s + (1.0 + beta * p) * np.log1p(beta * p)


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


def _hjb_power(beta, vgrad, lo, hi, p0):
    """Scan for the up-crossing of psi, Newton on it, compare with endpoints,
    on the lanes of the four inputs broadcast together."""
    lanes = np.broadcast_arrays(beta, vgrad, lo, hi)
    shape = lanes[0].shape
    beta, vgrad, lo, hi = (a.ravel() for a in lanes)
    v = vgrad * beta
    ps = lo + (hi - lo) * SCAN_FRAC
    psi = _psi(ps, beta, v, p0)
    sign_pos = psi > 0.0
    up = sign_pos[1:] & ~sign_pos[:-1]
    has_root = up.any(axis=0)
    k = np.argmax(up, axis=0)  # first up-crossing interval, valid where has_root

    idx = np.arange(beta.size)
    blo, bhi = ps[k, idx], ps[k + 1, idx]
    flo, fhi = psi[k, idx], psi[k + 1, idx]
    # start at the secant root of the bracket, which psi(blo) <= 0 <
    # psi(bhi) keeps inside it
    x = blo - flo * (bhi - blo) / (fhi - flo)
    for _ in range(N_NEWTON):
        s = x + p0
        bx = beta * x
        lg = np.log1p(bx)
        vs = v * s
        f = (vs - beta) * s + (1.0 + bx) * lg
        pos = f > 0.0
        bhi = np.where(pos, x, bhi)
        blo = np.where(pos, blo, x)
        xn = x - f / (2.0 * vs + beta * lg)
        # closed test: a converged step lands on the end just moved to x
        x = np.where((xn >= blo) & (xn <= bhi), xn, 0.5 * (blo + bhi))

    cand = np.stack([lo, hi, np.where(has_root, x, lo)])
    best = np.argmax(_phi(cand, beta, vgrad, p0), axis=0)
    return cand[best, idx].reshape(shape)


def maximize_rate_value(beta, vgrad, lo, hi, phy: PhyParams):
    """Vectorized argmax of phi over [lo, hi] elementwise.

    beta, vgrad, lo, hi broadcast together.  Elements with vgrad == 0 take
    the closed form, the others the scan and Newton search; beta <= 0
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
        p = np.where(ee, _ee_power(beta, lo, hi, p0),
                     _hjb_power(beta, vgrad, lo, hi, p0) if vgrad.any() else lo)
        p = np.where(live, p, lo)
        val = np.where(live, _phi(p, beta, vgrad, p0), 0.0)
    return p, val
