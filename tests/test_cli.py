import json
import os
import pkgutil
import subprocess
import sys
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import killingflow
from killingflow import config, flow
from killingflow.cli import dispatch

FLOW_INI = """
[model]
kind = euclidean

[grid]
nr = 24
ntheta = 16
R = 1.0

[problem]
phi = 0.1*cos(theta)
u0 = 0.1*cos(theta)*r
T = 0.05
"""


def _schema(name):
    return json.loads(resources.files("killingflow.schemas").joinpath(
        name + ".schema.json").read_text())


def _run(args, capsys):
    rc = dispatch(args)
    out = capsys.readouterr().out
    return rc, out


# -- subcommands -----------------------------------------------------------------


@pytest.mark.parametrize("model", ["euclidean", "hyperbolic"])
def test_model_info(model, capsys):
    rc, out = _run(["model-info", "--model", model], capsys)
    assert rc == 0
    info = json.loads(out)
    jsonschema.validate(info, _schema("model_info"))
    assert info["model"]["n"] == 2
    assert all(s["H"] < 0 for s in info["samples"])


def test_model_info_to_file(tmp_path, capsys):
    out_path = tmp_path / "info.json"
    rc, _ = _run(["model-info", "--model", "euclidean",
                  "--out", str(out_path)], capsys)
    assert rc == 0
    jsonschema.validate(json.loads(out_path.read_text()),
                        _schema("model_info"))


def test_cmc_csv(capsys):
    rc, out = _run(["cmc", "--model", "euclidean", "--R", "1.0",
                    "--grid", "64"], capsys)
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,v,vp"
    assert len(lines) == 65
    r0, v0, vp0 = lines[1].split(",")
    assert float(r0) == 0.0
    assert abs(float(v0) - 1.0) < 1e-9       # hemisphere apex
    assert float(vp0) == 0.0
    # rim row stores the vertical slope honestly
    assert lines[-1].split(",")[2] == "-inf"


def test_barrier_at_infinity_is_checked_for_hyperbolic_n2_only(capsys):
    # the barrier at infinity and pointwise_Q are the n = 2 forms: for
    # n = 3 the report used to pass the H2 value, -0.014216082014346909,
    # bit for bit; now the check is absent there, as for Euclidean bases
    reports = {}
    for n in ("2", "3"):
        rc, out = _run(["barrier", "--model", "hyperbolic", "--n", n], capsys)
        reports[n] = json.loads(out)
        jsonschema.validate(reports[n], _schema("barrier_report"))
        assert rc == 0 and reports[n]["pass"]
    names = {n: [c["name"] for c in r["residual_checks"]]
             for n, r in reports.items()}
    assert "sc_barrier_operator_sign" in names["2"]
    assert "sc_barrier_operator_sign" not in names["3"]
    assert "sc_alpha" not in reports["3"]["constants"]
    sign = reports["2"]["residual_checks"][names["2"].index(
        "sc_barrier_operator_sign")]
    assert sign["value"] == -0.014216082014346909


def test_barrier_at_infinity_in_curvature_kappa(capsys):
    # the barrier is built on the distance of curvature -kappa^2: before,
    # kappa = 2 sampled the unit-curvature distance and reported alpha
    # 1.9546867114873054 from the wrong deep region
    rc, out = _run(["barrier", "--model", "hyperbolic", "--kappa", "2"],
                   capsys)
    report = json.loads(out)
    jsonschema.validate(report, _schema("barrier_report"))
    assert rc == 0 and report["pass"]
    sign = [c for c in report["residual_checks"]
            if c["name"] == "sc_barrier_operator_sign"]
    assert len(sign) == 1 and sign[0]["pass"]
    model = killingflow.hyperbolic_model(n=2, kappa=2.0)
    sc = killingflow.barriers.make_sc_barrier(
        model, killingflow.barriers.GeodesicSpec.at_distance(1.0, 2.0),
        C=1.0, d0=2.0)
    assert report["constants"]["sc_alpha"] == sc.alpha
    # the rate is an infimum of (rho'/rho) <grad r, grad d> <= kappa
    assert 0.0 < sc.alpha <= 2.0


def test_cmc_svg(tmp_path, capsys):
    svg = tmp_path / "p.svg"
    rc, _ = _run(["cmc", "--model", "euclidean", "--R", "1.0",
                  "--grid", "32", "--svg", str(svg)], capsys)
    assert rc == 0
    assert svg.read_text().startswith("<svg")


def test_barrier_report(capsys):
    rc, out = _run(["barrier", "--model", "euclidean"], capsys)
    report = json.loads(out)
    jsonschema.validate(report, _schema("barrier_report"))
    assert rc == 0 and report["pass"]
    assert report["constants"]["height_cap"] == pytest.approx(3.0, abs=1e-9)


def test_flow_from_config(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(FLOW_INI)
    out_dir = tmp_path / "run"
    rc, out = _run(["flow", "--config", str(cfg), "--out", str(out_dir),
                    "--snapshot-every", "10"], capsys)
    assert rc == 0
    summary = json.loads(out)
    assert summary["T"] == 0.05
    assert summary["sup_u_final"] <= 0.1 + 1e-12
    manifest = json.loads((out_dir / "manifest.json").read_text())
    jsonschema.validate(manifest, _schema("run_manifest"))
    assert manifest["snapshots"]
    for name in manifest["snapshots"]:
        assert name.endswith(".npy") and (out_dir / name).is_file()
    # what the command wrote loads back bit for bit as the run it made
    cfg_obj = config.load_config(str(cfg))
    tr = flow.solve_ball(
        flow.BallProblem(model=cfg_obj.build_model(), R=cfg_obj.grid["R"],
                         phi=cfg_obj.phi_function(),
                         u0=cfg_obj.u0_function(), T=cfg_obj.problem["T"]),
        flow.Grid(R=cfg_obj.grid["R"], nr=cfg_obj.grid["nr"],
                  ntheta=cfg_obj.grid["ntheta"]),
        flow.StepControl(scheme=cfg_obj.control["scheme"],
                         cfl=cfg_obj.control["cfl"],
                         dt_max=cfg_obj.control["dt_max"]),
        snapshot_every=10)
    loaded = flow.load_run(str(out_dir / "manifest.json"))
    assert len(loaded["states"]) == len(tr.states)
    for a, b in zip(loaded["states"], tr.states):
        assert a.t == b.t
        assert a.u.shape == b.u.shape and a.u.tobytes() == b.u.tobytes()
        assert a.W.shape == b.W.shape and a.W.tobytes() == b.W.tobytes()
    for key in ("times", "max_grad", "max_A"):
        assert loaded[key].tobytes() == getattr(tr, key).tobytes(), key


def test_exhaust_report(tmp_path, capsys):
    out_path = tmp_path / "ex.json"
    rc, _ = _run(["exhaust", "--model", "euclidean", "--rungs", "2",
                  "--tol", "0.05", "--out", str(out_path)], capsys)
    assert rc == 0
    report = json.loads(out_path.read_text())
    jsonschema.validate(report, _schema("exhaust_report"))
    assert report["verdict"] == "pass"


def test_exhaust_hyperbolic_wide_ladder(capsys):
    # from r0 = 1.3 the rungs (3, 4, 7) reach R(T0) = 16.07, where the
    # height bounds' rim heights need the closed-form q_drop
    rc, out = _run(["exhaust", "--model", "hyperbolic", "--r0", "1.3",
                    "--rungs", "3"], capsys)
    assert rc == 0
    report = json.loads(out)
    jsonschema.validate(report, _schema("exhaust_report"))
    assert [r["R"] for r in report["rungs"]] == [3, 4, 7]


def test_exhaust_failing_tolerance(capsys):
    # an unreachable tolerance must exit 1, not crash
    rc, out = _run(["exhaust", "--model", "euclidean", "--rungs", "2",
                    "--tol", "1e-12"], capsys)
    assert rc == 1
    assert json.loads(out)["verdict"] == "fail"


def test_verify_all(capsys):
    rc, out = _run(["verify", "--all"], capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["pass"]
    names = {c["name"] for c in report["checks"]}
    assert "cmc_residual" in names and "height_margin" in names


def test_verify_subset_from_config(tmp_path, capsys):
    cfg = tmp_path / "v.ini"
    cfg.write_text("[model]\nkind = euclidean\n"
                   "[verify]\nchecks = cmc, barrier\n")
    rc, out = _run(["verify", "--config", str(cfg)], capsys)
    assert rc == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert names == ["cmc_residual", "boundary_barrier_identity"]


# -- exit codes ------------------------------------------------------------------


def test_usage_errors_exit_2(capsys):
    assert dispatch(["no-such-command"]) == 2
    assert dispatch(["cmc", "--model", "euclidean"]) == 2       # missing --R
    assert dispatch(["flow", "--config", "/no/such/file.ini"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command,model,flag", [
    ("exhaust", "euclidean", "--r0"), ("exhaust", "euclidean", "--tol"),
    ("cmc", "euclidean", "--R"), ("barrier", "euclidean", "--r0"),
    ("barrier", "hyperbolic", "--L"), ("barrier", "hyperbolic", "--d0"),
    ("model-info", "hyperbolic", "--kappa")])
def test_non_finite_cli_numbers_exit_2(command, model, flag, bad, capsys):
    # the float options are checked by argparse, before any numerics run
    assert dispatch([command, "--model", model, f"{flag}={bad}"]) == 2
    assert "not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["cmc", "--model", "euclidean", "--R", "1", "--grid=-3"], ">= 16"),
    (["cmc", "--model", "euclidean", "--R", "1", "--grid", "15"], ">= 16"),
    (["exhaust", "--model", "euclidean", "--rungs", "0"], ">= 2"),
    (["exhaust", "--model", "euclidean", "--rungs", "1"], ">= 2"),
    (["barrier", "--model", "euclidean", "--l0=-1"], ">= 1"),
    (["barrier", "--model", "euclidean", "--l0", "0"], ">= 1"),
    (["model-info", "--model", "euclidean", "--n", "0"], ">= 2"),
    (["model-info", "--model", "euclidean", "--n", "1.5"], ">= 2"),
    (["--seed=-1", "barrier", "--model", "euclidean"], "nonnegative"),
], ids=["grid-3", "grid15", "rungs0", "rungs1", "l0-1", "l0_0", "n0", "n1.5",
        "seed-1"])
def test_bad_integer_options_exit_2(argv, message, capsys):
    # each minimum is the one the library enforces, checked by argparse
    # before any numerics run
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert "not a" in err and message in err


@pytest.mark.parametrize("every", ["-1", "-3", "two"])
def test_bad_snapshot_every_exits_2(tmp_path, every, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(FLOW_INI)
    assert dispatch(["flow", "--config", str(cfg),
                     f"--snapshot-every={every}"]) == 2
    assert "not a nonnegative integer" in capsys.readouterr().err


def test_verify_all_and_config_exclude_each_other(tmp_path, capsys):
    cfg = tmp_path / "v.ini"
    cfg.write_text("[model]\nkind = euclidean\n[verify]\nchecks = cmc\n")
    assert dispatch(["verify", "--all", "--config", str(cfg)]) == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[model]\nkind = dodecahedral\n")
    assert dispatch(["flow", "--config", str(cfg)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("phi", ["1/0", "2^2000"])
def test_unevaluable_data_exits_2(tmp_path, phi, capsys):
    # Python-float division by zero and overflow are data errors, not crashes
    cfg = tmp_path / "run.ini"
    cfg.write_text(FLOW_INI.replace("phi = 0.1*cos(theta)", f"phi = {phi}"))
    assert dispatch(["flow", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert dispatch(["exhaust", "--model", "euclidean", "--rungs", "2",
                     "--phi", phi]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("line", ["T = inf", "R = nan", "dt_max = nan"])
def test_non_finite_config_exits_2(tmp_path, line, capsys):
    # at the parent these crashed with a raw OverflowError/ValueError
    text = FLOW_INI.replace("[problem]", "[control]\ndt_max = 1e-3\n\n"
                            "[problem]")
    key = line.split()[0]
    text = "\n".join(line if old.startswith(key + " =") else old
                     for old in text.splitlines())
    assert line in text
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    assert dispatch(["flow", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("ntheta", [1, 16])
def test_overflowing_model_exits_1(tmp_path, ntheta, capsys):
    # cosh^2 overflows past r = 355 on the R = 400 grid: the grid's factors
    # name the profile and the first node past it, before any step and
    # without an overflow warning (pytest makes those errors)
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"""
[model]
kind = hyperbolic

[grid]
nr = 64
ntheta = {ntheta}
R = 400

[problem]
phi = 0
u0 = 0.1*cos(0.003926990816987*r)
T = 0.001
""")
    assert dispatch(["flow", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: rho^2 overflows at r = 356.25 (xi: hyperbolic, rho: cosh)")


@pytest.mark.parametrize("ntheta", [1, 16])
def test_non_finite_step_exits_1(tmp_path, ntheta, monkeypatch, capsys):
    # a step whose weights are not finite ends in FlowError on both grids
    cfg = tmp_path / "run.ini"
    cfg.write_text(FLOW_INI.replace("ntheta = 16", f"ntheta = {ntheta}"))
    name = "_radial_weights" if ntheta == 1 else "_polar_weights"
    weights = getattr(flow, name)

    def nan_weights(*args):
        w = weights(*args)
        return type(w)(*(np.nan * a for a in w))

    monkeypatch.setattr(flow, name, nan_weights)
    assert dispatch(["flow", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: non-finite field")


def test_domain_error_exits_1(capsys):
    # hyperbolic rim radius beyond double-precision reach: A overflows,
    # which the rim set-up names before any slope is formed
    assert dispatch(["cmc", "--model", "hyperbolic", "--R", "400"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: A = rho xi^(n-1) or its volume integral V overflows at the "
        "rim radius R=400 (xi: hyperbolic, rho: cosh)")


def test_quadrature_error_exits_1(monkeypatch, capsys):
    # a quadrature that cannot reach its tolerance is a failed check with a
    # message, not a traceback
    from killingflow import cmc
    from killingflow.quadrature import QuadratureError

    def fail(*args, **kwargs):
        raise QuadratureError("non-finite integrand on [0.0, 1.0]")

    monkeypatch.setattr(cmc, "solve_vR", fail)
    assert dispatch(["cmc", "--model", "euclidean", "--R", "1"]) == 1
    assert "non-finite integrand" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert dispatch(["--help"]) == 0
    capsys.readouterr()


def test_console_entry_point():
    # the child imports the package this process imported, installed or not
    src = os.path.dirname(os.path.dirname(killingflow.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "killingflow", "model-info",
         "--model", "euclidean"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    jsonschema.validate(json.loads(proc.stdout), _schema("model_info"))


def test_runtime_warnings_are_errors_in_every_module():
    # the pytest filterwarnings of pyproject.toml must make a RuntimeWarning
    # (an overflow, an invalid value) fail the test in every package module
    uncovered = []
    for mod in pkgutil.iter_modules(killingflow.__path__):
        try:
            warnings.warn_explicit("probe", RuntimeWarning, f"{mod.name}.py",
                                   1, module=f"killingflow.{mod.name}")
        except RuntimeWarning:
            continue
        uncovered.append(mod.name)
    assert not uncovered


_STARTUP_CHILD = """
import sys
import killingflow
from killingflow.cli import dispatch
cfg, out = sys.argv[1:]
assert dispatch(["model-info", "--model", "hyperbolic"]) == 0
assert dispatch(["cmc", "--model", "euclidean", "--R", "1.0",
                 "--grid", "16"]) == 0
assert dispatch(["flow", "--config", cfg, "--out", out]) == 0
loaded = sorted(m for m in ("scipy.interpolate", "scipy.optimize",
                            "scipy.sparse", "scipy.special", "scipy.spatial")
                if m in sys.modules)
assert not loaded, loaded
"""


def _run_fresh(code, *args, **env):
    # this test module has imported SciPy itself, so only a fresh
    # interpreter can see what the package and its commands load
    src = os.path.dirname(os.path.dirname(killingflow.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path, **env))


def test_startup_loads_no_deferred_scipy(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(FLOW_INI.replace("nr = 24", "nr = 8")
                   .replace("ntheta = 16", "ntheta = 8")
                   .replace("T = 0.05", "T = 0.005"))
    proc = _run_fresh(_STARTUP_CHILD, cfg, tmp_path / "run")
    assert proc.returncode == 0, proc.stderr


_EXHAUST_CHILD = """
import contextlib, io, sys
from killingflow.cli import dispatch
with contextlib.redirect_stdout(io.StringIO()):
    assert dispatch(["exhaust", "--model", "euclidean", "--rungs", "2",
                     "--tol", "0.1"]) == 0
assert "scipy.interpolate" not in sys.modules
assert "scipy.optimize" not in sys.modules
"""


def test_exhaust_loads_no_interpolation():
    # rungs are compared on the nodes they share, so no spline is fitted,
    # and R(t) is Newton on the time integral, with no scipy.optimize
    proc = _run_fresh(_EXHAUST_CHILD)
    assert proc.returncode == 0, proc.stderr


def test_exhaust_report_is_independent_of_blas_threads():
    # a report is a function of its inputs only; the JSON carries each
    # rung's d_k, margins, max_grad and max_A
    code = ("from killingflow.cli import dispatch\n"
            "dispatch(['exhaust', '--model', 'hyperbolic', '--rungs', '2'])")
    outs = []
    for threads in ("1", "2"):
        proc = _run_fresh(code, OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert json.loads(outs[0])["rungs"] and outs[0] == outs[1]


_TOKENS = st.sampled_from([
    "model-info", "cmc", "verify", "--model", "euclidean", "hyperbolic",
    "--R", "--grid", "--n", "1.0", "-3", "64", "bogus", "--nope", "",
    "--seed", "()",
])


@settings(max_examples=25, deadline=None)
@given(st.lists(_TOKENS, min_size=0, max_size=5))
def test_fuzzed_argv_exit_codes(argv):
    import contextlib
    import io
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = dispatch(argv)
    assert rc in (0, 1, 2)
