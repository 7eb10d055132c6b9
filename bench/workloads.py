"""The benchmark's workloads: seed-generated op lists and their output checks.

Each op starts from a freshly built model, as one CLI call would, and
enters the package through ``cli.dispatch`` or the library functions it
calls.  The seed draws only boundary and initial data; grids and step
counts are fixed, so the work done does not depend on the seed.

An op is timed around ``run()`` only.  ``prepare()`` (writing a config,
clearing an output directory) and ``check()`` run outside the timed
region.  ``check`` returns a dict with ``ok`` plus the figures it measured
against an oracle; the tolerances are the ones the acceptance gate in
``tests/test_acceptance.py`` uses.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from killingflow import (barriers, cli, cmc, config, exhaustion, flow,
                         geometry)

SCHEMAS = os.path.join(os.path.dirname(os.path.abspath(cli.__file__)),
                       "schemas")
HALF_PI = 0.5 * math.pi

# acceptance-gate tolerances (criteria 1, 3, 5, 8 and 10)
TOL_HEMISPHERE = 1e-7
TOL_MU = 1e-8
TOL_SIGN = 1e-3          # margins, cylinder slack, supersolution residual
TOL_CAUCHY_FINAL = 1e-3
# 2-D run against the radial fast path on rotationally symmetric data; the
# two agree to roundoff (~1e-15), so this leaves room only for reordered sums
TOL_DISK2D_ORACLE = 1e-10


@dataclass
class Op:
    label: str
    node_steps: int                    # grid nodes x time steps, from inputs
    run: Callable[[], object]
    check: Callable[[object], dict]
    prepare: Callable[[], None] = field(default=lambda: None)


def _builder(kind: str):
    return {"euclidean": geometry.euclidean_model,
            "hyperbolic": geometry.hyperbolic_model}[kind]


def _n_steps(T: float, dt_max: float) -> int:
    # the step count flow.solve_ball takes for (T, dt_max)
    return max(int(math.ceil(T / dt_max)), 1)


def _schema_errors(instance, schema_name: str) -> list[str]:
    import jsonschema
    with open(os.path.join(SCHEMAS, schema_name)) as fh:
        schema = json.load(fh)
    validator = jsonschema.Draft202012Validator(schema)
    return [e.message for e in validator.iter_errors(instance)]


# ---------------------------------------------------------------------------
# ladder: the paper's headline computation, 4-rung exhaustion ladders


def ladder_ops(rng: np.random.Generator, workdir: str | None) -> list[Op]:
    ops = []
    for kind in ("euclidean", "hyperbolic"):
        amp = float(rng.uniform(0.3, 0.6))
        mode = int(rng.integers(1, 4))
        offset = float(rng.uniform(-0.1, 0.1))
        # the tolerance sits below reach, so every rung is solved
        plan = exhaustion.build_ladder(_builder(kind)(n=2), 1.0, 4, tol=1e-12)
        steps = _n_steps(plan.T0, plan.control().dt_max)
        node_steps = sum(
            math.prod(plan.grid_for(float(R)).shape()) * steps
            for R in plan.ladder)

        def run(kind=kind, amp=amp, mode=mode, offset=offset):
            model = _builder(kind)(n=2)
            plan = exhaustion.build_ladder(model, 1.0, 4, tol=1e-12)
            return exhaustion.run_exhaustion(
                plan, lambda th: amp * np.cos(mode * th) + offset)

        ops.append(Op(label=f"ladder/{kind}/{plan.ladder}",
                      node_steps=node_steps, run=run, check=_check_ladder))
    return ops


def _check_ladder(report) -> dict:
    problems = []
    d = [r.d_k for r in report.rungs[1:]]
    if len(report.rungs) != 4:
        problems.append(f"{len(report.rungs)} rungs solved, expected 4")
    if not all(a > b for a, b in zip(d, d[1:])):
        problems.append(f"d_k not strictly decreasing: {d}")
    if not d or not d[-1] < TOL_CAUCHY_FINAL:
        problems.append(f"final d_k {d[-1] if d else None} >= "
                        f"{TOL_CAUCHY_FINAL}")
    problems += _schema_errors(report.to_dict(), "exhaust_report.schema.json")
    return {"ok": not problems, "problems": problems,
            "cauchy_d_final": d[-1] if d else None}


# ---------------------------------------------------------------------------
# disk2d: `killingflow flow` on square-ish polar grids, persisted and read back

# (kind, nr, ntheta, rotationally symmetric data)
DISK2D_CONFIGS = (("euclidean", 48, 32, True),
                  ("hyperbolic", 48, 32, False),
                  ("euclidean", 64, 48, False),
                  ("hyperbolic", 96, 64, False),
                  ("euclidean", 96, 64, False))
DISK2D_T = 0.02
DISK2D_DT = 0.002
DISK2D_SNAPSHOT_EVERY = 2


def _signed(x: float) -> str:
    return f"{'-' if x < 0 else '+'} {abs(x):.6f}"


def _disk2d_config(kind, nr, ntheta, symmetric, rng) -> str:
    bump = float(rng.uniform(0.05, 0.25))
    offset = float(rng.uniform(-0.2, 0.2))
    if symmetric:
        phi = f"0 {_signed(offset)}"
        u0 = f"{bump:.6f}*cos({HALF_PI!r}*r) {_signed(offset)}"
    else:
        amp = float(rng.uniform(0.1, 0.3))
        mode = int(rng.integers(1, 4))
        phi = f"{amp:.6f}*cos({mode}*theta) {_signed(offset)}"
        u0 = (f"{amp:.6f}*cos({mode}*theta)*r^{mode} "
              f"+ {bump:.6f}*cos({HALF_PI!r}*r) {_signed(offset)}")
    return (f"[model]\nkind = {kind}\nn = 2\n"
            f"[grid]\nnr = {nr}\nntheta = {ntheta}\nR = 1.0\n"
            f"[control]\nscheme = semi-implicit\ndt_max = {DISK2D_DT!r}\n"
            f"[problem]\nphi = {phi}\nu0 = {u0}\nT = {DISK2D_T!r}\n")


@contextlib.contextmanager
def _keep_results(module, attr: str):
    """Record what module.attr returns while the block runs."""
    original = getattr(module, attr)
    results = []

    def keeping(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    setattr(module, attr, keeping)
    try:
        yield results
    finally:
        setattr(module, attr, original)


def disk2d_ops(rng: np.random.Generator, workdir: str | None) -> list[Op]:
    ops = []
    steps = _n_steps(DISK2D_T, DISK2D_DT)
    for i, (kind, nr, ntheta, symmetric) in enumerate(DISK2D_CONFIGS):
        text = _disk2d_config(kind, nr, ntheta, symmetric, rng)
        cfg = config.parse_config(text)
        base = os.path.join(workdir or "", f"disk2d_{i}")
        cfg_path = base + ".ini"
        out = base + "_run"

        def prepare(text=text, cfg_path=cfg_path, out=out):
            shutil.rmtree(out, ignore_errors=True)
            with open(cfg_path, "w") as fh:
                fh.write(text)

        def run(cfg_path=cfg_path, out=out):
            stdout = io.StringIO()
            with _keep_results(flow, "solve_ball") as kept, \
                    contextlib.redirect_stdout(stdout):
                code = cli.dispatch(
                    ["flow", "--config", cfg_path, "--out", out,
                     "--snapshot-every", str(DISK2D_SNAPSHOT_EVERY)])
            loaded = (flow.load_run(os.path.join(out, "manifest.json"))
                      if code == 0 else None)
            return code, stdout.getvalue(), kept, loaded

        ops.append(Op(
            label=f"disk2d/{kind}/{nr}x{ntheta}"
                  + ("/symmetric" if symmetric else ""),
            node_steps=(nr + 1) * ntheta * steps, run=run, prepare=prepare,
            check=lambda result, cfg=cfg, symmetric=symmetric:
                _check_disk2d(result, cfg, symmetric, steps)))
    return ops


def _check_disk2d(result, cfg, symmetric: bool, steps: int) -> dict:
    code, stdout, kept, loaded = result
    if code != 0:
        return {"ok": False, "problems": [f"flow exited {code}"]}
    problems = []
    summary = json.loads(stdout)
    if summary["steps"] != steps:
        problems.append(f"{summary['steps']} steps, expected {steps}")
    traj = kept[0]
    states = loaded["states"]
    exact = len(states) == len(traj.states) and all(
        a.t == b.t and np.array_equal(a.u, b.u) and np.array_equal(a.W, b.W)
        for a, b in zip(states, traj.states))
    for key in ("times", "max_grad", "max_A"):
        exact = exact and np.array_equal(loaded[key], getattr(traj, key))
    if not exact:
        problems.append("load_run round trip is not bit-exact")
    manifest = loaded["manifest"]
    if manifest["model_hash"] != flow.model_hash(cfg.build_model()):
        problems.append("manifest model_hash does not match the model")
    problems += _schema_errors(manifest, "run_manifest.schema.json")
    out = {}
    if symmetric:
        # rotationally symmetric data: the 2-D run must match the radial
        # fast path on the same radial grid
        problem = flow.BallProblem(
            model=cfg.build_model(), R=cfg.grid["R"], phi=cfg.phi_function(),
            u0=cfg.u0_function(), T=cfg.problem["T"])
        radial = flow.radial_solve(
            problem, cfg.grid["nr"], flow.StepControl(
                scheme=cfg.control["scheme"], cfl=cfg.control["cfl"],
                dt_max=cfg.control["dt_max"]))
        err = float(np.max(np.abs(
            traj.states[-1].u - radial.states[-1].u[:, None])))
        out["oracle_err"] = err
        if err > TOL_DISK2D_ORACLE:
            problems.append(f"2-D run differs from the radial run by "
                            f"{err:.3e}")
    return {"ok": not problems, "problems": problems, **out}


# ---------------------------------------------------------------------------
# verify_radial: the verify/barrier pipeline on the radial path

VERIFY_MODELS = (("euclidean", 2), ("euclidean", 3), ("hyperbolic", 2))
VERIFY_NR = 128
VERIFY_STEPS = 256
VERIFY_T = 0.25
VERIFY_PROFILE_NODES = 256


def _mu_closed_form(kind: str, n: int, t: float) -> float:
    """Rim radius R(t) of the supersolution started at r0 = 1, from
    dR/dt = -n H(R): sqrt(1 + 2 n t) in R^n, acosh(cosh(1) e^{2t}) in H^2."""
    if kind == "euclidean":
        return math.sqrt(1.0 + 2.0 * n * t)
    return math.acosh(math.cosh(1.0) * math.exp(2.0 * t))


def verify_radial_ops(rng: np.random.Generator,
                      workdir: str | None) -> list[Op]:
    ops = []
    for kind, n in VERIFY_MODELS:
        amp = float(rng.uniform(0.1, 0.3))

        def run(kind=kind, n=n, amp=amp):
            model = _builder(kind)(n=n)
            profile = cmc.solve_vR(model, 1.0, VERIFY_PROFILE_NODES)
            supersolution = barriers.verify_supersolution(
                model, 1.0, np.linspace(0.0, 0.5, 64),
                np.linspace(0.0, 1.0, 64),
                lambda r, u: flow.radial_Q(model, r, u))
            problem = flow.BallProblem(
                model=model, R=1.0, phi=lambda th: np.zeros_like(th),
                u0=lambda r, th: amp * np.cos(HALF_PI * r)
                * np.ones_like(th), T=VERIFY_T)
            trajectory = flow.radial_solve(
                problem, VERIFY_NR,
                flow.StepControl(dt_max=VERIFY_T / VERIFY_STEPS),
                snapshot_every=1)
            lower, upper = barriers.height_bounds(model, 1.0, VERIFY_T, amp)
            r = trajectory.grid.r
            lo = np.array([lower(float(x)) for x in r])
            hi = np.array([upper(float(x)) for x in r])
            U = np.stack([s.u for s in trajectory.states])
            margin = float(min(np.min(hi - U), np.min(U - lo)))
            identities = flow.residual_identities(model, trajectory)
            return profile, supersolution, margin, identities

        ops.append(Op(
            label=f"verify_radial/{kind}/n={n}",
            node_steps=(VERIFY_NR + 1) * VERIFY_STEPS, run=run,
            check=lambda result, kind=kind, n=n:
                _check_verify(result, kind, n)))
    return ops


def _check_verify(result, kind: str, n: int) -> dict:
    profile, supersolution, margin, identities = result
    problems = []
    known_defects = []
    if margin < -TOL_SIGN:
        problems.append(f"height margin {margin:.3e}")
    if supersolution < -TOL_SIGN:
        problems.append(f"supersolution residual {supersolution:.3e}")
    slack = identities.min_slack_cylinder
    # residual_identities trims a fixed 3 nodes at the pole.  Its centred
    # difference of the flux (~ r^n) is off there by C(n,3) h^2/r^2 =
    # C(n,3)/9 at r = 3h, on every grid and even for u = 0, so for n >= 3
    # it reads -C(n,3)/9 (-1/9 for n = 3).  That documented value is
    # recorded as a known defect; any other value below -TOL_SIGN fails.
    defect = -math.comb(n, 3) / 9.0
    if n >= 3 and abs(slack - defect) <= TOL_SIGN:
        known_defects.append(
            f"cylinder slack {slack:.4f} = -C({n},3)/9 "
            f"(residual_identities pole trim)")
    elif slack < -TOL_SIGN:
        problems.append(f"cylinder slack {slack:.3e}")
    oracle = 0.0
    model = _builder(kind)(n=n)
    for t in (0.05, VERIFY_T, 1.0):
        err = abs(barriers.mu_of_t(model, 1.0, t)
                  - _mu_closed_form(kind, n, t))
        oracle = max(oracle, err)
        if err > TOL_MU:
            problems.append(f"mu_of_t({t}) error {err:.3e}")
    if kind == "euclidean":
        # the Euclidean CMC profile is the hemisphere sqrt(R^2 - r^2)
        mask = profile.grid <= profile.R - 1e-3
        err = float(np.max(np.abs(profile.v[mask] - np.sqrt(
            profile.R ** 2 - profile.grid[mask] ** 2))))
        oracle = max(oracle, err)
        if err > TOL_HEMISPHERE:
            problems.append(f"hemisphere error {err:.3e}")
    return {"ok": not problems, "problems": problems,
            "known_defects": known_defects, "oracle_err": oracle}


WORKLOADS = {
    "ladder": ladder_ops,
    "disk2d": disk2d_ops,
    "verify_radial": verify_radial_ops,
}


def build_ops(workload: str, seed: int, workdir: str | None) -> list[Op]:
    return WORKLOADS[workload](np.random.default_rng(seed), workdir)
