"""Adaptive Gauss-Kronrod 7-15 quadrature on arrays of panels.

One rule serves every integral in the package that the model has no
closed form for (geometry's closed-form block covers the built-in pairs):
QUADPACK's QAG strategy (Piessens, de Doncker-Kapenga, Ueberhuber &
Kahaner, 1983) run on numpy arrays.  Each pass evaluates the integrand
once, vectorised, on the 15 Kronrod nodes of every open panel.  A panel is
accepted when |K - G|, the difference of its Kronrod and Gauss sums, is
within its width-budgeted share of its interval's tolerance; every other
panel is bisected.  Many intervals are integrated at once, each with its
own tolerance, so a cumulative integral over a sorted node list is one
call.

All geometric integrals here have smooth integrands (the one genuinely
singular integral, the radial CMC profile, is regularized by substitution
before it reaches this routine).  Where the integrand carries evaluation
noise the caller names it, and a panel's tolerance is floored at
noise * width, since no quadrature can certify below it; panels whose
estimate is rounding churn (50 ulp of the integral of |f|, QUADPACK's
floor) are accepted too.  Subdivision is capped in depth and in the
open panels of each interval, and a non-finite integrand value raises
QuadratureError.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class QuadratureError(RuntimeError):
    """Raised when the adaptive scheme cannot reach the tolerance."""


# Kronrod nodes on [-1, 1] (QUADPACK qk15): the 7 Gauss-Legendre nodes are
# the odd entries of _XK, and _WG their Gauss weights
_XK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327])

_NODES = np.concatenate((-_XK[:-1], _XK[::-1]))          # increasing, 15
_W_KRONROD = np.concatenate((_WK[:-1], _WK[::-1]))
_W_GAUSS = np.zeros(15)
_W_GAUSS[1::2] = np.concatenate((_WG[:-1], _WG[::-1]))
# columns: the Kronrod sum and K - G
_W_SUMS = np.column_stack((_W_KRONROD, _W_KRONROD - _W_GAUSS))

MAX_DEPTH = 50
MAX_OPEN_PANELS = 1 << 10
_ROUNDING = 50.0 * np.finfo(float).eps


def gauss_kronrod(f: Callable[[np.ndarray], np.ndarray], a, b, tol=1e-10,
                  noise=0.0):
    """Integrals of f over the intervals [a_i, b_i], to absolute tol_i.

    ``f`` maps an array of points to an array of values of the same shape.
    ``a``, ``b``, ``tol`` and ``noise`` broadcast to one value per
    interval; scalars in give a float out, arrays an array.  An interval
    with b < a integrates with a negative sign, one with a == b to exactly
    zero.  A panel of width w cut from an interval of width W must meet
    max(tol * w / W, noise * w).  Raises QuadratureError on a non-finite
    integrand value, a panel bisected past MAX_DEPTH levels, or an interval
    split into more than MAX_OPEN_PANELS panels at once.  So an interval
    costs at most (MAX_DEPTH + 1) * MAX_OPEN_PANELS panels, however many
    others share the call.
    """
    args = [np.asarray(x, dtype=float) for x in (a, b, tol, noise)]
    shape = np.broadcast(*args).shape
    zero = np.zeros(shape)
    a, b, tol, noise = ((x + zero).ravel() for x in args)
    out = np.zeros(a.size)
    owner = np.flatnonzero(a != b)
    lo, hi = a[owner], b[owner]
    # tolerance and noise floor per unit width, so a panel's share is
    # its width times these
    rate = np.maximum(tol[owner] / np.abs(hi - lo), noise[owner])
    depth = 0
    while owner.size:
        # an interval has at most 2^depth open panels, so only deep passes
        # need counting
        if (1 << depth) > MAX_OPEN_PANELS:
            count = np.bincount(owner)
            if count.max() > MAX_OPEN_PANELS:
                over = int(np.argmax(count))
                raise QuadratureError(
                    f"Gauss-Kronrod exceeded {MAX_OPEN_PANELS} open panels "
                    f"on [{a[over]}, {b[over]}]")
        half = 0.5 * (hi - lo)
        fx = f((lo + half)[:, None] + half[:, None] * _NODES)
        if not np.isfinite(fx).all():
            bad = int(np.argmin(np.isfinite(fx).all(axis=1)))
            raise QuadratureError(
                f"non-finite integrand on [{lo[bad]}, {hi[bad]}]")
        # einsum sums each row in its own loop, so a panel's sums are the
        # same whatever else is in the batch (a BLAS product may block rows
        # in a batch-dependent order)
        kron, err = np.einsum("ij,jk->ki", fx, _W_SUMS) * half
        resabs = np.einsum("ij,j->i", np.abs(fx), _W_KRONROD) * half
        err = np.abs(err)
        done = ((err <= np.abs(2.0 * rate * half))
                | (err <= np.abs(_ROUNDING * resabs)))
        out += np.bincount(owner[done], kron[done], out.size)
        keep = ~done
        if not keep.any():
            break
        depth += 1
        if depth > MAX_DEPTH:
            raise QuadratureError(
                f"Gauss-Kronrod did not converge on [{lo[keep][0]}, "
                f"{hi[keep][0]}] (error estimate {err[keep][0]:.3e})")
        lo, hi, owner, rate = lo[keep], hi[keep], owner[keep], rate[keep]
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        owner, rate = np.tile(owner, 2), np.tile(rate, 2)
    return float(out[0]) if shape == () else out.reshape(shape)
