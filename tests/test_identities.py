"""Convergence of the discrete evolution-identity residuals.

A radial bump is flowed for a short time on two grid resolutions; the
identity residuals must shrink at first order or better, and the
cylinder-size slack must stay (discretely) nonnegative.
"""

import dataclasses
import math

import numpy as np
import pytest

from killingflow.flow import (BallProblem, FlowError, StepControl,
                              radial_solve, residual_identities)


def _bump(r, theta):
    return 0.3 * np.cos(0.5 * math.pi * r) ** 2 * np.ones_like(theta)


def _zero(theta):
    return np.zeros_like(theta)


def _run(model, nr, dt, snap):
    p = BallProblem(model=model, R=1.0, phi=_zero, u0=_bump, T=0.02)
    return radial_solve(p, nr, StepControl(dt_max=dt), snapshot_every=snap)


# the ids euclid and hyp (n = 2) keep their original names; n = 3
# exercises the pole, where the area density grows like r^2
_LADDER_MODELS = {"euclid": "euclid2", "hyp": "hyp2",
                  "euclid3": "euclid3", "hyp3": "hyp3"}


@pytest.fixture(scope="module", params=list(_LADDER_MODELS))
def ladder(request):
    model = request.getfixturevalue(_LADDER_MODELS[request.param])
    coarse = residual_identities(model, _run(model, 64, 8e-4, 2))
    fine = residual_identities(model, _run(model, 128, 2e-4, 4))
    return coarse, fine


def test_tilt_residual_first_order(ladder):
    coarse, fine = ladder
    assert fine.max_abs_tilt < coarse.max_abs_tilt
    assert math.log2(coarse.max_abs_tilt / fine.max_abs_tilt) >= 1.0


def test_height_residual_first_order(ladder):
    coarse, fine = ladder
    assert math.log2(coarse.max_abs_height / fine.max_abs_height) >= 1.0


def test_cylinder_slack_nonnegative(ladder):
    coarse, fine = ladder
    assert coarse.min_slack_cylinder >= -1e-3
    assert fine.min_slack_cylinder >= -1e-3
    # the slack violation is pure discretization error: it shrinks too
    assert abs(fine.min_slack_cylinder) <= abs(coarse.min_slack_cylinder)


def test_report_bookkeeping(euclid2):
    tr = _run(euclid2, 64, 8e-4, 2)
    rep = residual_identities(euclid2, tr)
    assert rep.snapshots == len(tr.states)


def test_needs_snapshots_past_burn_in(euclid2):
    # the first tenth of the time span is skipped: here the one interior
    # snapshot (t = 0.0016 of T = 0.02) falls inside it
    tr = _run(euclid2, 64, 8e-4, 2)
    tr = dataclasses.replace(tr, states=[tr.states[0], tr.states[1],
                                         tr.states[-1]])
    with pytest.raises(FlowError, match="no snapshots past the burn-in"):
        residual_identities(euclid2, tr)


def test_rejects_2d_runs(euclid2):
    from killingflow.flow import Grid, solve_ball
    p = BallProblem(model=euclid2, R=1.0, phi=_zero,
                    u0=lambda r, th: np.zeros(np.broadcast_shapes(
                        np.shape(r), np.shape(th))), T=0.01)
    tr = solve_ball(p, Grid(R=1.0, nr=16, ntheta=8), StepControl(),
                    snapshot_every=1)
    with pytest.raises(FlowError):
        residual_identities(euclid2, tr)


# the reported residuals of a fixed run: a change to the discretisation
# the identity checker reads moves these numbers
_PINNED = {
    "euclid2": (0.0036625364443020284, 0.0025179788503905676,
                -2.5550415261310633e-05),
    "euclid3": (0.0061361147094737035, 0.005527433429801221,
                -2.906850159766633e-05),
    "hyp2": (0.011713714867329972, 0.0068737089752038405,
             -0.00011897883469556836),
    "hyp3": (0.014297849842077492, 0.0112562318469131,
             -0.0001226641192053901),
}


@pytest.mark.parametrize("model_name", list(_PINNED))
def test_residual_values_pinned(model_name, request):
    model = request.getfixturevalue(model_name)
    p = BallProblem(model=model, R=1.0, phi=_zero,
                    u0=lambda r, th: 0.2 * np.cos(0.5 * math.pi * r)
                    * np.ones_like(th), T=0.25)
    rep = residual_identities(model, radial_solve(
        p, 128, StepControl(dt_max=0.25 / 256), snapshot_every=1))
    got = (rep.max_abs_tilt, rep.max_abs_height, rep.min_slack_cylinder)
    np.testing.assert_allclose(got, _PINNED[model_name], rtol=1e-10, atol=0)
