import math

import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline

from killingflow import exhaustion
from killingflow.exhaustion import (ExhaustionError, build_ladder,
                                    pole_mollified_extension,
                                    radial_extension, run_exhaustion)
from killingflow.flow import Grid


def _phi(theta):
    return 0.5 * np.cos(theta)


def test_ladder_euclidean(euclid2):
    plan = build_ladder(euclid2, 1.0, 4)
    # quarter rule: smallest integer rung with zeta(r_k) < zeta(rung)/4
    assert plan.ladder == (3, 5, 9, 17)
    assert plan.T0 == pytest.approx(0.5 * euclid2.zeta(3.0))


def test_ladder_hyperbolic(hyp2):
    plan = build_ladder(hyp2, 1.0, 4)
    assert plan.ladder == (2, 4, 6, 10)
    assert plan.T0 == pytest.approx(0.5 * hyp2.zeta(2.0))


def test_ladder_guards(euclid2):
    with pytest.raises(ExhaustionError):
        build_ladder(euclid2, 1.0, 1)
    with pytest.raises(ExhaustionError):
        build_ladder(euclid2, -1.0, 3)
    with pytest.raises(ExhaustionError):
        build_ladder(euclid2, 1.0, 3, growth=0.5)


def test_plan_rejects_radial_grid(euclid2):
    # rungs are transferred by a bicubic spline in theta, which needs a
    # polar grid; refuse the plan before any rung is solved
    with pytest.raises(ExhaustionError, match="ntheta"):
        build_ladder(euclid2, 1.0, 2, ntheta=1)


def test_plan_rejects_higher_dimension(euclid3):
    with pytest.raises(ExhaustionError, match="n = 3"):
        build_ladder(euclid3, 1.0, 2)


def test_radial_extension_shapes():
    ext = radial_extension(_phi)
    th = np.linspace(0.0, 2 * math.pi, 8, endpoint=False)
    vals = ext(np.linspace(0, 2, 5)[:, None], th[None, :])
    assert vals.shape == (5, 8)
    # constant along rays
    assert np.allclose(vals[0], vals[-1])


def test_pole_mollified_extension():
    ext = pole_mollified_extension(_phi, r_c=1.0)
    th = np.linspace(0.0, 2 * math.pi, 8, endpoint=False)
    # single-valued (zero) at the pole, plain extension beyond r_c
    assert np.allclose(ext(0.0, th), 0.0)
    assert np.allclose(ext(2.0, th), _phi(th))
    assert np.allclose(ext(5.0, th), _phi(th))
    with pytest.raises(ExhaustionError):
        pole_mollified_extension(_phi, r_c=0.0)


def test_run_reports_cauchy_differences(euclid2):
    plan = build_ladder(euclid2, 1.0, 2, tol=0.05,
                        nr_per_unit=8, ntheta=16, n_time_steps=32)
    report = run_exhaustion(plan, _phi)
    assert len(report.rungs) == 2
    assert report.rungs[0].d_k is None
    assert report.rungs[1].d_k is not None and report.rungs[1].d_k >= 0.0
    assert report.verdict       # d_1 ~ 0.027 < 0.05 budget
    assert report.interp_error_budget > 0
    # every rung stayed inside its height bounds
    for rung in report.rungs:
        assert rung.height_margin > 0
    # one-sided estimate checks are enormous bounds; they must hold
    assert report.grad_bound_ok
    assert report.curvature_bound_ok


def test_early_stop_skips_large_rungs(euclid2):
    # with a loose tolerance the sequential path should not solve rung 3
    plan = build_ladder(euclid2, 1.0, 4, tol=0.1)
    report = run_exhaustion(plan, _phi)
    assert len(report.rungs) < 4
    assert report.verdict


def test_report_dict_schema(euclid2):
    import json
    from importlib import resources

    import jsonschema

    plan = build_ladder(euclid2, 1.0, 2, tol=0.05, n_time_steps=32)
    report = run_exhaustion(plan, _phi)
    schema = json.loads(resources.files("killingflow.schemas").joinpath(
        "exhaust_report.schema.json").read_text())
    jsonschema.validate(report.to_dict(), schema)


def test_plain_radial_extension_rejected_at_pole(euclid2):
    # ray-constant extension of a nonconstant phi is multivalued at r = 0
    plan = build_ladder(euclid2, 1.0, 2, tol=0.05, n_time_steps=32)
    with pytest.raises(ExhaustionError):
        run_exhaustion(plan, _phi, u0_radial_ext=radial_extension(_phi))


def _spline_transfer(grid, U, r_obs, theta_obs):
    # reference: one FITPACK interpolating bicubic per snapshot, on theta
    # padded periodically by 4 nodes a side
    theta, pad = grid.theta, 4
    theta_ext = np.concatenate([theta[-pad:] - 2 * math.pi, theta,
                                theta[:pad] + 2 * math.pi])
    return np.stack([
        RectBivariateSpline(grid.r, theta_ext,
                            np.concatenate([u[:, -pad:], u, u[:, :pad]], 1),
                            kx=3, ky=3)(r_obs, theta_obs)
        for u in U])


@pytest.mark.parametrize("nr,ntheta,R", [(16, 16, 2.0), (136, 16, 17.0)])
def test_transfer_matches_bicubic_spline(nr, ntheta, R):
    grid = Grid(R=R, nr=nr, ntheta=ntheta)
    r_obs = np.linspace(0.0, 1.0, 33)
    theta_obs = Grid(R=1.0, nr=8, ntheta=16).theta
    U = np.random.default_rng(nr).uniform(-1.0, 1.0, (4, nr + 1, ntheta))
    Mr, Mt = exhaustion._transfer(grid, r_obs, theta_obs)
    got = Mr @ U @ Mt.T
    ref = _spline_transfer(grid, U, r_obs, theta_obs)
    assert float(np.max(np.abs(got - ref))) < 1e-13
