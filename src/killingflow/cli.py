"""Command line harness.

Subcommands: model-info, cmc, barrier, flow, exhaust, verify.
Exit codes: 0 success, 1 a verification check failed, 2 usage or
configuration error.  Reports go to stdout or --out.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import barriers, cmc, config, exhaustion, expr, flow
from .geometry import (MODELS, GeometryError, ModelGeometry, euclidean_model,
                       lower_ricci_bounds, named_model)
from .quadrature import QuadratureError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


class _UsageError(ValueError):
    """A command-line value the library rejects: exit 2."""


def _model(args) -> ModelGeometry:
    """The model of --model, --n and --kappa.  A value ``named_model``
    rejects is a usage error, with its message, as in a config."""
    try:
        return named_model(args.model, args.n, args.kappa)
    except GeometryError as exc:
        raise _UsageError(str(exc)) from None


def _check(name: str, value, ok) -> dict:
    return {"name": name, "value": value, "pass": bool(ok)}


def _supersolution_check(model: ModelGeometry, r0: float,
                         tol: float) -> dict:
    """Least supersolution residual on a 64 x 64 grid of [0, 0.5] x [0, r0]."""
    res = barriers.verify_supersolution(
        model, r0, np.linspace(0.0, 0.5, 64), np.linspace(0.0, r0, 64),
        lambda r, u: flow.radial_Q(model, r, u))
    return _check("supersolution_min_residual", res, res >= -tol)


def _boundary_identity_check(bb: barriers.BoundaryBarrier) -> dict:
    """max |h'' + L h'^2| of bb on 100 points of its collar [0, d0]."""
    d = np.linspace(0.0, bb.d0, 100)
    ident = float(np.max(np.abs(bb.h_second(d) + bb.L * bb.h_prime(d) ** 2)))
    return _check("boundary_barrier_identity", ident, ident <= 1e-12)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_model_info(args) -> int:
    model = _model(args)
    rs = [0.5, 1.0, 2.0, 4.0]
    L, L1 = lower_ricci_bounds(model, max(rs))
    info = {
        "model": model.spec_dict(),
        "samples": [
            {"r": r, "A": model.A(r), "V": model.V(r),
             "zeta": model.zeta(r), "H": model.H(r),
             "Hcyl": model.Hcyl(r)}
            for r in rs
        ],
        "ricci_lower_bounds": {"L": L, "L1": L1},
    }
    _emit(json.dumps(info, indent=2, sort_keys=True), args.out)
    return EXIT_OK


def _cmd_cmc(args) -> int:
    model = _model(args)
    profile = cmc.solve_vR(model, args.R, args.grid)
    lines = ["r,v,vp"]
    for r, v, vp in zip(profile.grid, profile.v, profile.vp):
        lines.append(f"{float(r)!r},{float(v)!r},{float(vp)!r}")
    _emit("\n".join(lines) + "\n", args.out)
    if args.svg:
        _write_profile_svg(args.svg, profile)
    return EXIT_OK


def _cmd_barrier(args) -> int:
    model = _model(args)
    r0 = args.r0
    checks = []
    constants = {}

    # the supersolution owns the r0 rule; a value it rejects is bad input
    try:
        sflow = barriers.SupersolutionFlow(model, r0)
    except barriers.BarrierError as exc:
        raise _UsageError(str(exc)) from None
    cap = barriers.c0_height_cap(model, r0, args.l0)
    constants["height_cap"] = cap
    rng = np.random.default_rng(args.seed)
    worst = -math.inf
    Rmax = args.l0 * r0
    t_cap = sflow.time_of(Rmax)
    for R in sflow.R_of_t(rng.uniform(0.0, t_cap, 50)):
        worst = max(worst, cmc.eval_vR(model, float(R), 0.0))
    checks.append(_check("height_cap_dominates_supersolution", cap - worst,
                         cap - worst >= -1e-9))
    checks.append(_supersolution_check(model, r0, 1e-3))

    bb = barriers.make_boundary_barrier(L=args.L, d0=args.d0)
    constants["boundary_A_coef"] = bb.A_coef
    constants["boundary_gradient_cap"] = bb.gradient_cap()
    checks.append(_boundary_identity_check(bb))

    gb = barriers.interior_gradient_bound(
        model, Rmax, M=max(cap, 1.0), beta=barriers._GRADIENT_BETA,
        k=barriers._GRADIENT_K)
    constants["gradient_log_bound"] = gb.log_bound
    constants["gradient_mu"] = gb.mu_const
    constants["gradient_C0"] = gb.C0

    # the barrier at infinity is checked on the models it is built on
    if barriers._has_sc_barrier(model):
        try:
            sc = barriers.make_sc_barrier(
                model, barriers.GeodesicSpec.at_distance(
                    1.0, model.xi.kappa), C=1.0, d0=2.0, seed=args.seed)
            constants["sc_alpha"] = sc.alpha
            constants["sc_C1"] = sc.C1
            r, th = barriers._sample_deep_region(
                sc.geodesic, sc.d0, 200,
                np.random.default_rng(args.seed), margin=0.1,
                kappa=model.xi.kappa).T
            qmax = float(np.max(barriers.pointwise_Q(model, sc.eta, r, th)))
            checks.append(_check("sc_barrier_operator_sign", qmax,
                                 qmax <= 1e-3))
        except barriers.BarrierError as exc:
            checks.append(dict(_check("sc_barrier_operator_sign", None, False),
                               error=str(exc)))

    report = {
        "constants": constants,
        "residual_checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
    _emit(json.dumps(report, indent=2, sort_keys=True), args.out)
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


def _cmd_flow(args) -> int:
    cfg = config.load_config(args.config)
    model = cfg.build_model()
    grid = flow.Grid(**cfg.grid)
    control = flow.StepControl(**cfg.control)
    problem = flow.BallProblem(model=model, R=cfg.grid["R"],
                               phi=cfg.phi_function(),
                               u0=cfg.u0_function(),
                               T=cfg.problem["T"])
    # data the grid cannot take (a non-finite phi or u0, or a gap between
    # them on the boundary) is bad input, which solve_ball's one sample of
    # the problem finds before any step
    try:
        trajectory = flow.solve_ball(problem, grid, control,
                                     snapshot_every=args.snapshot_every)
    except flow._DataError as exc:
        raise _UsageError(str(exc)) from None
    if args.out:
        manifest = flow.save_run(args.out, trajectory)
    else:
        manifest = None
    final = trajectory.states[-1]
    summary = {
        "T": problem.T,
        "steps": final.step_count,
        "sup_u_final": float(np.max(np.abs(final.u))),
        "max_grad": float(np.max(trajectory.max_grad)),
        "max_A": float(np.max(trajectory.max_A)),
        "manifest": manifest,
    }
    sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if args.svg:
        _write_heatmap_svg(args.svg, grid, final.u)
    return EXIT_OK


def _cmd_exhaust(args) -> int:
    model = _model(args)
    # build_ladder rejects its inputs before any rung is solved, so what it
    # raises is always bad input
    try:
        plan = exhaustion.build_ladder(model, args.r0, args.rungs,
                                       tol=args.tol)
    except exhaustion.ExhaustionError as exc:
        raise _UsageError(str(exc)) from None
    phi_fn = expr.as_function(args.phi)

    def phi(theta):
        return phi_fn(theta=theta, r=0.0, t=0.0)

    # bad data is found by the first rung's one sample (flow._DataError),
    # before any step; phi depends on theta only, so it stands for every rung
    try:
        report = exhaustion.run_exhaustion(plan, phi)
    except exhaustion.ExhaustionError as exc:
        if isinstance(exc.__cause__, flow._DataError):
            raise _UsageError(str(exc.__cause__)) from None
        raise
    _emit(json.dumps(report.to_dict(), indent=2, sort_keys=True), args.out)
    return EXIT_OK if report.verdict else EXIT_CHECK_FAILED


def _cmd_verify(args) -> int:
    if args.config:
        cfg = config.load_config(args.config)
        model = cfg.build_model()
        tol = cfg.verify["tol"]
        which = cfg.verify["checks"]
    else:
        model = euclidean_model(n=2)
        tol = 1e-3
        which = "all"
    wanted = (set(config._KNOWN_CHECKS) if which == "all"
              else {c.strip() for c in which.split(",")})
    results = []
    if "cmc" in wanted:
        profile = cmc.solve_vR(model, 1.0, 256)
        res = cmc.residual_cmc(model, profile)
        results.append(_check("cmc_residual", res, res <= tol))
    if "supersolution" in wanted:
        results.append(_supersolution_check(model, 1.0, tol))
    if "height" in wanted or "identities" in wanted:
        problem = flow.BallProblem(
            model=model, R=1.0, phi=lambda th: np.zeros_like(th),
            u0=lambda r, th: 0.25 * np.cos(0.5 * math.pi * r)
            * np.ones_like(th), T=0.25)
        control = flow.StepControl(dt_max=0.25 / 256)
        trajectory = flow.radial_solve(problem, 128, control,
                                       snapshot_every=1)
        if "height" in wanted:
            _, upper = barriers.height_bounds(model, 1.0, problem.T, 0.25)
            # lower = -upper, so both margins are upper - |u|
            U = np.stack([s.u for s in trajectory.states])
            margin = float(np.min(upper(trajectory.grid.r) - np.abs(U)))
            results.append(_check("height_margin", margin, margin >= -tol))
        if "identities" in wanted:
            rep = flow.residual_identities(model, trajectory)
            results.append(_check("identity_cylinder_slack",
                                  rep.min_slack_cylinder,
                                  rep.min_slack_cylinder >= -tol))
    if "barrier" in wanted:
        results.append(_boundary_identity_check(
            barriers.make_boundary_barrier(L=0.1, d0=5.0)))

    report = {"checks": results,
              "pass": all(r["pass"] for r in results)}
    _emit(json.dumps(report, indent=2, sort_keys=True), args.out)
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# svg helpers (optional cosmetics, never load-bearing)


def _write_profile_svg(path: str, profile) -> None:
    W, H, pad = 480, 320, 30
    rmax = profile.R
    vmax = max(float(np.max(profile.v)), 1e-12)
    pts = " ".join(
        f"{pad + (W - 2 * pad) * r / rmax:.2f},"
        f"{H - pad - (H - 2 * pad) * v / vmax:.2f}"
        for r, v in zip(profile.grid, profile.v))
    svg = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" '
           f'height="{H}"><rect width="{W}" height="{H}" fill="white"/>'
           f'<polyline points="{pts}" fill="none" stroke="steelblue" '
           f'stroke-width="1.5"/></svg>')
    with open(path, "w") as fh:
        fh.write(svg)


def _write_heatmap_svg(path: str, grid, u: np.ndarray) -> None:
    """u over the disc, one polygon per node: the annulus sector of radii
    halfway to its radial neighbours (from 0 at the pole, to R on the
    Dirichlet row) and angles halfway to its theta neighbours, a whole
    annulus on a radial grid.  Each arc is drawn as at least 64 / ntheta
    chords.  The shade runs from white at min u to blue at max u."""
    W = 400
    u2 = u.reshape(grid.shape())
    lo, hi = float(np.min(u2)), float(np.max(u2))
    span = (hi - lo) or 1.0
    cells = []
    c = W / 2.0
    scale = (W / 2.0 - 4) / grid.R
    nt = u2.shape[1]
    radii = scale * np.concatenate(
        ([0.0], 0.5 * (grid.r[:-1] + grid.r[1:]), [grid.R]))
    chords = math.ceil(64 / nt)
    for j in range(grid.nr + 1):
        for i in range(nt):
            val = (float(u2[j, i]) - lo) / span
            shade = int(255 * (1 - val))
            angles = (2 * math.pi * (i - 0.5 + np.arange(chords + 1) / chords)
                      / nt)
            points = [(c + r * math.cos(a), c + r * math.sin(a))
                      for r, arc in ((radii[j + 1], angles),
                                     (radii[j], angles[::-1]))
                      for a in arc]
            cells.append(
                '<polygon points="'
                + " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
                + f'" fill="rgb({shade},{shade},255)" stroke="none"/>')
    svg = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" '
           f'height="{W}"><rect width="{W}" height="{W}" fill="white"/>'
           + "".join(cells) + "</svg>")
    with open(path, "w") as fh:
        fh.write(svg)


# ---------------------------------------------------------------------------
# dispatch


def _finite(text: str) -> float:
    """argparse type of the float options: a finite number, or a usage
    error (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _at_least(minimum: int):
    """argparse type of an integer option: an integer >= minimum, or a
    usage error (exit 2) before any numerics run."""
    kind = ("a nonnegative integer" if minimum == 0
            else f"an integer >= {minimum}")

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"not {kind}: {text!r}")
        return value

    return parse


def _add_model_args(p) -> None:
    p.add_argument("--model", required=True, choices=tuple(MODELS))
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--kappa", type=_finite, default=1.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="killingflow",
        description="Mean curvature flow of Killing graphs: solver, "
                    "barriers and estimate verification")
    parser.add_argument("--seed", type=_at_least(0), default=0,
                        help="seed for randomized sampling (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model-info", help="model data and curvature bounds")
    _add_model_args(p)
    p.add_argument("--out")

    p = sub.add_parser("cmc", help="radial CMC profile as CSV r,v,vp")
    _add_model_args(p)
    p.add_argument("--R", type=_finite, required=True)
    p.add_argument("--grid", type=_at_least(cmc.MIN_GRID_SIZE), default=256)
    p.add_argument("--out")
    p.add_argument("--svg")

    p = sub.add_parser("barrier", help="barrier constants and residuals")
    _add_model_args(p)
    p.add_argument("--r0", type=_finite, default=1.0)
    p.add_argument("--l0", type=_at_least(barriers.MIN_L0), default=3)
    p.add_argument("--L", type=_finite, default=0.1)
    p.add_argument("--d0", type=_finite, default=5.0)
    p.add_argument("--out")

    p = sub.add_parser("flow", help="solve a Dirichlet flow from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="directory for the run: snapshots.npy "
                   "(u and W of each kept state), steps.npy (t, max|grad u| "
                   "and max|A| of each step) and manifest.json")
    p.add_argument("--snapshot-every", type=_at_least(0), default=0)
    p.add_argument("--svg")

    p = sub.add_parser("exhaust", help="ball exhaustion convergence report")
    _add_model_args(p)
    p.add_argument("--r0", type=_finite, default=1.0)
    p.add_argument("--rungs", type=_at_least(exhaustion.MIN_RUNGS),
                   default=4)
    p.add_argument("--phi", default="0.5*cos(theta)")
    p.add_argument("--tol", type=_finite, default=1e-3)
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run the built-in check suite")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--all", action="store_true",
                       help="every built-in check on E2 (the default)")
    which.add_argument("--config",
                       help="the model and [verify] checks of a config")
    p.add_argument("--out")

    return parser


_HANDLERS = {
    "model-info": _cmd_model_info,
    "cmc": _cmd_cmc,
    "barrier": _cmd_barrier,
    "flow": _cmd_flow,
    "exhaust": _cmd_exhaust,
    "verify": _cmd_verify,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``build_parser``, built once per process: parsing
    reads it and changes nothing in it, and building it costs about 1 ms,
    as much as a small command's own work."""
    return build_parser()


def dispatch(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (_UsageError, config.ConfigError, expr.ExprError,
            OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (GeometryError, cmc.CmcError, QuadratureError,
            barriers.BarrierError, flow.FlowError,
            exhaustion.ExhaustionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CHECK_FAILED


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
