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
point stencil in ``barriers``.
"""

from __future__ import annotations

import numpy as np

from .geometry import ModelGeometry, R_MIN


def coefficients(model: ModelGeometry, r, ur, ut=None) -> tuple:
    """Operator coefficients at radii r for slopes u_r and u_theta.

    With ut given (the 2-D chart, base dimension 2) returns
    (a^rr, a^rt, a^tt, b^r, b^t); r must lie off the pole.  With ut None
    the field is radial and the base dimension is model.n: returns
    (a^rr, b^r), where b^r carries the (n - 1) xi'/xi spherical term.  A
    pole node (r <= R_MIN) gets a finite but meaningless b^r; callers
    replace the operator there.
    """
    r = np.asarray(r, dtype=float)
    rho = np.asarray(model.rho.value(r), dtype=float)
    lrho = np.asarray(model.log_rho_d1(r), dtype=float)
    if ut is None:
        W2 = 1.0 / rho ** 2 + ur ** 2
    else:
        xi = np.asarray(model.xi.value(r), dtype=float)
        xi1 = np.asarray(model.xi.d1(r), dtype=float)
        inv_xi2 = 1.0 / xi ** 2
        ut_up = ut * inv_xi2            # raised-index angular slope
        W2 = 1.0 / rho ** 2 + ur ** 2 + ut ** 2 * inv_xi2
    arr = 1.0 - ur ** 2 / W2
    drift = (1.0 + 1.0 / (rho ** 2 * W2)) * lrho
    if ut is None:
        rs = np.where(r > R_MIN, r, 1.0)
        xi_ratio = np.asarray(model.xi.ratio_d1(rs), dtype=float)
        return arr, (model.n - 1) * xi_ratio + drift
    art = -ur * ut_up / W2
    att = inv_xi2 - ut_up ** 2 / W2
    return arr, art, att, drift + att * xi * xi1, -2.0 * art * (xi1 / xi)


def pole_coefficients(model: ModelGeometry, a: float, b: float) -> tuple:
    """(c_a, c_b, c_d) of Q = c_a u_xx + c_b u_yy + c_d u_xy at the pole,
    in local Cartesian coordinates where grad u = (a, b).

    The warping is rotationally symmetric and smooth, so (log rho)'(0) = 0
    and the drift term drops out at the pole.
    """
    rho0 = float(model.rho.value(0.0))
    W2 = 1.0 / rho0 ** 2 + a * a + b * b
    return 1.0 - a * a / W2, 1.0 - b * b / W2, -2.0 * a * b / W2
