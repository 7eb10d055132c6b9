import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import killingflow
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


def test_exhaust_report(tmp_path, capsys):
    out_path = tmp_path / "ex.json"
    rc, _ = _run(["exhaust", "--model", "euclidean", "--rungs", "2",
                  "--tol", "0.05", "--out", str(out_path)], capsys)
    assert rc == 0
    report = json.loads(out_path.read_text())
    jsonschema.validate(report, _schema("exhaust_report"))
    assert report["verdict"] == "pass"


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


def test_domain_error_exits_1(capsys):
    # hyperbolic rim radius beyond double-precision reach
    assert dispatch(["cmc", "--model", "hyperbolic", "--R", "25"]) == 1
    capsys.readouterr()


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


def test_startup_loads_no_deferred_scipy(tmp_path):
    # this test module has imported SciPy itself, so only a fresh
    # interpreter can see what the package and these commands load
    cfg = tmp_path / "run.ini"
    cfg.write_text(FLOW_INI.replace("nr = 24", "nr = 8")
                   .replace("ntheta = 16", "ntheta = 8")
                   .replace("T = 0.05", "T = 0.005"))
    src = os.path.dirname(os.path.dirname(killingflow.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_CHILD, str(cfg),
         str(tmp_path / "run")],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr


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
