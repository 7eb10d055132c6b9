"""Coefficients of the graph flow operator in non-divergence form.

In polar coordinates of the base (metric dr^2 + xi^2 dtheta^2) the flow
operator is linear in the second derivatives once the slopes are fixed:

    Q[u] = a^rr u_rr + 2 a^rt u_rt + a^tt u_tt + b^r u_r + b^t u_t,

with a^{ij} = g^{ij} - u^i u^j / W^2, the Christoffel terms of the
covariant Hessian (G^r_tt = -xi xi', G^t_rt = xi'/xi) folded into b^i,
and the warping drift (1 + 1/(rho^2 W^2)) (log rho)' added to b^r.  This is
the expansion of the divergence form (W/rho) div(rho grad u / W) that
``flow`` discretises; ``barriers.pointwise_Q`` applies it to point
differences, so it is an oracle for the grid operator that shares none of
its stencil.

The warping profiles are read through ``Factors``, evaluated once per set
of radii by ``factors``: ``flow`` keeps one per grid and builds its face
values with it, and ``barriers.pointwise_Q`` builds its own.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .geometry import ProfileSpec, R_MIN


class Factors(NamedTuple):
    """The profile values ``coefficients`` reads, at radii r.

    xi_ratio feeds the radial second fundamental form and xi, xi1, inv_xi2
    the 2-D forms.  At a pole node (r <= R_MIN) xi_ratio and inv_xi2 hold
    finite stand-ins (the ratio at r = 1, and 1); callers replace them
    there.
    """

    rho: np.ndarray       # rho
    lrho: np.ndarray      # (log rho)'
    xi: np.ndarray        # xi
    xi1: np.ndarray       # xi'
    inv_xi2: np.ndarray   # 1 / xi^2
    xi_ratio: np.ndarray  # xi'/xi, in the profile's stable form


def factors(xi: ProfileSpec, rho: ProfileSpec, r) -> Factors:
    """Evaluate the warping profiles once at radii r (any shape)."""
    r = np.asarray(r, dtype=float)
    off = r > R_MIN
    xi_r = xi.value(r)
    return Factors(
        rho=rho.value(r), lrho=rho.ratio_d1(r), xi=xi_r, xi1=xi.d1(r),
        inv_xi2=1.0 / np.where(off, xi_r, 1.0) ** 2,
        xi_ratio=xi.ratio_d1(np.where(off, r, 1.0)))


def coefficients(f: Factors, ur, ut) -> tuple:
    """(a^rr, a^rt, a^tt, b^r, b^t) for slopes u_r and u_theta in the 2-D
    chart, at the radii the factors f were evaluated at (off the pole)."""
    ut_up = ut * f.inv_xi2              # raised-index angular slope
    W2 = 1.0 / f.rho ** 2 + ur ** 2 + ut ** 2 * f.inv_xi2
    arr = 1.0 - ur ** 2 / W2
    art = -ur * ut_up / W2
    att = f.inv_xi2 - ut_up ** 2 / W2
    drift = (1.0 + 1.0 / (f.rho ** 2 * W2)) * f.lrho
    return (arr, art, att, drift + att * f.xi * f.xi1,
            -2.0 * art * (f.xi1 / f.xi))
