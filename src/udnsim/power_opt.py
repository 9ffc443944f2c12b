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
the HJB grid).  With x = 1 + beta p the condition reads x (ln x - 1) =
beta p0 - 1, so x = e^(w + 1) with w = W0((beta p0 - 1) / e), the principal
Lambert-W branch (Isheden et al., 2012; Zappone & Jorswieck, 2015):

    p* = expm1(W0((beta p0 - 1) / e) + 1) / beta.

phi is strictly quasi-concave on p >= 0 here (psi' = beta ln(1 + beta p) > 0),
so p* clipped to [lo, hi] is the maximizer.

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
gathering each case's elements: p* at beta's own shape (one Lambert-W for the
solver's scalar beta) clipped by broadcasting, the search on every element
only when some vgrad is nonzero, then np.where picks per element.  Each
element takes the same floating-point operations either way.
"""

from __future__ import annotations

import numpy as np
from scipy.special import lambertw

from .phy import PhyParams

# scan grid density for the up-crossing bracket, and Newton steps from the
# bracket's secant root: on 30k random brackets (beta 1e-6..1e5, sub-boxes)
# four steps reached the bisected root to 1.3e-15 W, the fifth is margin
N_SCAN = 25
N_NEWTON = 5
# the scan points as fractions of [lo, hi], one column for all lanes
SCAN_FRAC = np.linspace(0.0, 1.0, N_SCAN)[:, None]


def _phi(p, beta, vgrad, p0):
    return np.log1p(beta * p) * (1.0 / (p + p0) - vgrad)


def _psi(p, beta, v, p0):
    s = p + p0
    return v * s * s - beta * s + (1.0 + beta * p) * np.log1p(beta * p)


def _ee_power(beta, lo, hi, p0):
    """Lambert-W maximizer of ln(1 + beta p) / (p + p0) clipped to [lo, hi];
    meaningful where beta > 0, evaluated at beta's shape before the clip."""
    w = lambertw((beta * p0 - 1.0) / np.e).real
    return np.minimum(np.maximum(np.expm1(w + 1.0) / beta, lo), hi)


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
    # by zero); np.where discards those results
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(ee, _ee_power(beta, lo, hi, p0),
                     _hjb_power(beta, vgrad, lo, hi, p0) if vgrad.any() else lo)
        p = np.where(live, p, lo)
        val = np.where(live, _phi(p, beta, vgrad, p0), 0.0)
    return p, val
