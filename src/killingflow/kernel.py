"""Coefficients of the graph flow operator.

In polar coordinates of the base (metric dr^2 + xi^2 dtheta^2) the flow
operator is linear in the second derivatives once the slopes are fixed:

    Q[u] = a^rr u_rr + 2 a^rt u_rt + a^tt u_tt + b^r u_r + b^t u_t,

with a^{ij} = g^{ij} - u^i u^j / W^2, the Christoffel terms of the
covariant Hessian (G^r_tt = -xi xi', G^t_rt = xi'/xi) folded into b^i,
and the warping drift (1 + 1/(rho^2 W^2)) (log rho)' added to b^r.
Freezing the slopes at the previous time level gives the
lagged-coefficient linearisation of
Deckelnick, Dziuk & Elliott, Acta Numerica 14 (2005), section 3.

Every evaluation of Q in the package takes its coefficients from here:
the grid operator and the semi-implicit systems in ``flow``, and the
point stencil in ``barriers``.  The coefficients read the warping profiles
through ``Factors``, evaluated once per set of radii: ``flow`` keeps one
per grid, ``barriers.pointwise_Q`` and ``flow.radial_Q`` build their own
at the radii they are given.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .geometry import ProfileSpec, R_MIN


class Factors(NamedTuple):
    """The profile values ``coefficients`` reads, at radii r.

    xi_ratio feeds the radial form and xi, xi1, inv_xi2 the 2-D form.  At a
    pole node (r <= R_MIN) xi_ratio and inv_xi2 hold finite stand-ins (the
    ratio at r = 1, and 1); callers replace the operator there.
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
    xi_r = np.asarray(xi.value(r), dtype=float)
    return Factors(
        rho=np.asarray(rho.value(r), dtype=float),
        lrho=np.asarray(rho.ratio_d1(r), dtype=float),
        xi=xi_r,
        xi1=np.asarray(xi.d1(r), dtype=float),
        inv_xi2=1.0 / np.where(off, xi_r, 1.0) ** 2,
        xi_ratio=np.asarray(xi.ratio_d1(np.where(off, r, 1.0)), dtype=float))


def coefficients(f: Factors, ur, ut=None, n: int = 2) -> tuple:
    """Operator coefficients for slopes u_r and u_theta at the radii the
    factors f were evaluated at.

    With ut given (the 2-D chart, base dimension 2) returns
    (a^rr, a^rt, a^tt, b^r, b^t); the radii must lie off the pole.  With ut
    None the field is radial and the base dimension is n: returns
    (a^rr, b^r), where b^r carries the (n - 1) xi'/xi spherical term.  A
    pole node gets a finite but meaningless b^r; callers replace the
    operator there.
    """
    if ut is None:
        W2 = 1.0 / f.rho ** 2 + ur ** 2
    else:
        ut_up = ut * f.inv_xi2          # raised-index angular slope
        W2 = 1.0 / f.rho ** 2 + ur ** 2 + ut ** 2 * f.inv_xi2
    arr = 1.0 - ur ** 2 / W2
    drift = (1.0 + 1.0 / (f.rho ** 2 * W2)) * f.lrho
    if ut is None:
        return arr, (n - 1) * f.xi_ratio + drift
    art = -ur * ut_up / W2
    att = f.inv_xi2 - ut_up ** 2 / W2
    return (arr, art, att, drift + att * f.xi * f.xi1,
            -2.0 * art * (f.xi1 / f.xi))


def pole_coefficients(rho0: float, a: float, b: float) -> tuple:
    """(c_a, c_b, c_d) of Q = c_a u_xx + c_b u_yy + c_d u_xy at the pole,
    in local Cartesian coordinates where grad u = (a, b); rho0 = rho(0).

    The warping is rotationally symmetric and smooth, so (log rho)'(0) = 0
    and the drift term drops out at the pole.
    """
    W2 = 1.0 / rho0 ** 2 + a * a + b * b
    return 1.0 - a * a / W2, 1.0 - b * b / W2, -2.0 * a * b / W2
