import json
import os
import pkgutil
import subprocess
import sys
import warnings
from importlib import resources
from xml.etree import ElementTree

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import killingflow
from killingflow import cli, config, flow
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


@pytest.mark.parametrize("name", sorted(
    f.name.removesuffix(".schema.json")
    for f in resources.files("killingflow.schemas").iterdir()
    if f.name.endswith(".json")))
def test_schema_is_valid_draft_2020_12(name):
    jsonschema.Draft202012Validator.check_schema(_schema(name))


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


@pytest.mark.parametrize("kappa", ["0.5", "2", "5", "8"])
def test_barrier_samples_the_deep_region_of_kappa(capsys, kappa):
    # in curvature -kappa^2 the halfplane at distance 1 subtends
    # |theta| < 2 atan(exp(-kappa)) from the pole, 0.013 at kappa = 5: a
    # fixed |theta| < 0.6, r < 30 box found too few deep points there.
    # At kappa = 8, c0_height_cap needs H' > 0 out to kappa r = 24
    rc, out = _run(["barrier", "--model", "hyperbolic", "--kappa", kappa],
                   capsys)
    report = json.loads(out)
    assert rc == 0 and report["pass"]
    sign = [c for c in report["residual_checks"]
            if c["name"] == "sc_barrier_operator_sign"]
    assert len(sign) == 1 and sign[0]["pass"]
    assert 0.0 < report["constants"]["sc_alpha"] <= float(kappa)


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
    assert sorted(f.name for f in out_dir.iterdir()) == [
        "manifest.json", "snapshots.npy", "steps.npy"]
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
        assert (a.t, a.step_count, a.max_grad, a.max_A) == (
            b.t, b.step_count, b.max_grad, b.max_A)
        assert a.u.shape == b.u.shape and a.u.tobytes() == b.u.tobytes()
        assert a.W.shape == b.W.shape and a.W.tobytes() == b.W.tobytes()
    for key in ("times", "max_grad", "max_A"):
        assert loaded[key].tobytes() == getattr(tr, key).tobytes(), key


@pytest.mark.parametrize("ntheta", [16, 1], ids=["polar", "radial"])
def test_flow_svg(tmp_path, ntheta, capsys):
    # a heat map of the final u: one cell per node, (nr + 1) ntheta of
    # them with the Dirichlet row, a radial run drawn as rings
    cfg = tmp_path / "run.ini"
    cfg.write_text(FLOW_INI.replace("ntheta = 16", f"ntheta = {ntheta}"))
    svg = tmp_path / "u.svg"
    rc, _ = _run(["flow", "--config", str(cfg), "--svg", str(svg)], capsys)
    assert rc == 0
    root = ElementTree.fromstring(svg.read_text())
    cells = root.findall("{http://www.w3.org/2000/svg}polygon")
    assert len(cells) == 25 * ntheta
    shades = {int(c.get("fill")[4:].split(",")[0]) for c in cells}
    assert len(shades) > 1 and min(shades) >= 0 and max(shades) <= 255
    # max u = 0.1 lies on the Dirichlet row only, at theta = 0, and takes
    # the darkest shade
    assert min(shades) == 0


def test_radial_heatmap_of_a_state_and_its_column_agree(tmp_path):
    # the heat map reads u in the grid's shape, (nr + 1, 1) on a radial
    # grid, whichever of the two a radial state comes in
    grid = flow.Grid(R=1.0, nr=24, ntheta=1)
    u = 0.1 * np.cos(grid.r)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    cli._write_heatmap_svg(str(a), grid, u)
    cli._write_heatmap_svg(str(b), grid, u[:, None])
    assert a.read_bytes() == b.read_bytes()


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
    # the owner of each float option refuses nan and inf, with its message
    message = {"--kappa": f"curvature scale kappa must be positive and "
                          f"finite, got {bad}",
               "--d0": f"need 0 < d0 < 1/L = 10.0, got d0={bad}"}.get(
        flag, f"{flag[2:]} must be positive and finite, got {bad}")
    assert dispatch([command, "--model", model, f"{flag}={bad}"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["cmc", "--model", "euclidean", "--R", "1", "--grid=-3"],
     "grid_size must be an integer >= 16, got -3"),
    (["cmc", "--model", "euclidean", "--R", "1", "--grid", "15"],
     "grid_size must be an integer >= 16, got 15"),
    (["exhaust", "--model", "euclidean", "--rungs", "0"],
     "count must be an integer >= 2, got 0"),
    (["exhaust", "--model", "euclidean", "--rungs", "1"],
     "count must be an integer >= 2, got 1"),
    (["barrier", "--model", "euclidean", "--l0=-1"],
     "l0 must be an integer >= 1, got -1"),
    (["barrier", "--model", "euclidean", "--l0", "0"],
     "l0 must be an integer >= 1, got 0"),
    (["model-info", "--model", "euclidean", "--n", "0"],
     "dimension n must be an integer >= 2, got 0"),
    (["model-info", "--model", "euclidean", "--n", "1.5"],
     "invalid int value: '1.5'"),
    (["--seed=-1", "barrier", "--model", "euclidean"],
     "seed must be an integer >= 0, got -1"),
], ids=["grid-3", "grid15", "rungs0", "rungs1", "l0-1", "l0_0", "n0", "n1.5",
        "seed-1"])
def test_bad_integer_options_exit_2(argv, message, capsys):
    # each minimum is the library's rule, reported with its message
    assert dispatch(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("every", ["-1", "-3", "two"])
def test_bad_snapshot_every_exits_2(tmp_path, every, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(FLOW_INI)
    assert dispatch(["flow", "--config", str(cfg),
                     f"--snapshot-every={every}"]) == 2
    assert ("invalid int value: 'two'" if every == "two"
            else f"snapshot_every must be an integer >= 0, got {every}"
            ) in capsys.readouterr().err


_MODEL = ["--model", "euclidean"]
_FLOATS = ("nan", "inf", "-inf", "0", "-1")
_NOT_INTS = ("nan", "inf", "-inf")


def _positive_message(name):
    return lambda v: f"{name} must be positive and finite, got {float(v)}"


def _integer_message(name, minimum):
    def message(v):
        if v in _NOT_INTS:
            return f"invalid int value: '{v}'"
        return f"{name} must be an integer >= {minimum}, got {v}"
    return message


# every numeric option of every subcommand: the command before it, the
# option, the values its owner refuses (one below an integer minimum
# included) and the owner's message for a value
_OPTIONS = [
    option
    for cmd in (["model-info"], ["cmc", "--R", "1"], ["barrier"],
                ["exhaust"])
    for option in (
        (cmd + _MODEL, "--kappa", _FLOATS,
         _positive_message("curvature scale kappa")),
        (cmd + _MODEL, "--n", _NOT_INTS + ("0", "-1", "1"),
         _integer_message("dimension n", 2)))] + [
    (["cmc"] + _MODEL, "--R", _FLOATS, _positive_message("R")),
    (["cmc", "--R", "1"] + _MODEL, "--grid", _NOT_INTS + ("0", "-1", "15"),
     _integer_message("grid_size", 16)),
    (["barrier"] + _MODEL, "--r0", _FLOATS, _positive_message("r0")),
    (["barrier"] + _MODEL, "--l0", _NOT_INTS + ("0", "-1"),
     _integer_message("l0", 1)),
    (["barrier"] + _MODEL, "--L", _FLOATS, _positive_message("L")),
    (["barrier"] + _MODEL, "--d0", _FLOATS,
     lambda v: f"need 0 < d0 < 1/L = 10.0, got d0={float(v)}"),
    (["barrier", "--L", "0.1"] + _MODEL, "--d0", ("10",),
     lambda v: f"need 0 < d0 < 1/L = 10.0, got d0={float(v)}"),
    (["exhaust"] + _MODEL, "--r0", _FLOATS, _positive_message("r0")),
    (["exhaust"] + _MODEL, "--tol", _FLOATS, _positive_message("tol")),
    (["exhaust"] + _MODEL, "--rungs", _NOT_INTS + ("0", "-1", "1"),
     _integer_message("count", 2)),
    (["flow", "--config", "{cfg}"], "--snapshot-every", _NOT_INTS + ("-1",),
     _integer_message("snapshot_every", 0)),
    ([], "--seed", _NOT_INTS + ("-1",), _integer_message("seed", 0)),
]


@pytest.mark.parametrize("before,option,value,message", [
    pytest.param(before, option, value, message(value),
                 id=" ".join(before[:1] + [f"{option}={value}"]))
    for before, option, values, message in _OPTIONS for value in values])
def test_every_refused_option_value_exits_2_before_any_numerics(
        tmp_path, monkeypatch, capsys, before, option, value, message):
    # the rule that owns each option's range refuses the value with its
    # own message, and the command exits 2 before any height, cap or step
    # is computed
    def computed(*args, **kwargs):
        raise AssertionError("numerics ran")

    for module, name in ((killingflow.cmc, "_rim_heights"),
                         (killingflow.cmc, "_sample_rims"),
                         (killingflow.barriers, "c0_height_cap"),
                         (flow, "_advance")):
        monkeypatch.setattr(module, name, computed)
    cfg = tmp_path / "run.ini"
    cfg.write_text(FLOW_INI)
    argv = [str(cfg) if a == "{cfg}" else a for a in before]
    argv += [f"{option}={value}"] if before else [
        f"{option}={value}", "barrier"] + _MODEL
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_verify_all_and_config_exclude_each_other(tmp_path, capsys):
    cfg = tmp_path / "v.ini"
    cfg.write_text("[model]\nkind = euclidean\n[verify]\nchecks = cmc\n")
    assert dispatch(["verify", "--all", "--config", str(cfg)]) == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_flat_model_rejects_a_bad_curvature_scale(tmp_path, capsys):
    # config and command line build models through one builder, which
    # checks kappa for every kind, and both report its rejection as a
    # usage error (exit 2), in every command that builds a model
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[model]\nkind = euclidean\nkappa = -1\n")
    assert dispatch(["flow", "--config", str(cfg)]) == 2
    assert "[model] curvature scale kappa" in capsys.readouterr().err
    for model in ("euclidean", "hyperbolic"):
        for command in (["model-info"], ["cmc", "--R", "1"], ["barrier"],
                        ["exhaust"]):
            assert dispatch(command + ["--model", model, "--kappa=-1"]) == 2
            assert "curvature scale kappa" in capsys.readouterr().err


@pytest.mark.parametrize("r0", ["0", "-1"])
def test_barrier_rejects_a_nonpositive_r0(r0, capsys):
    # the supersolution's r0 rule, reported as a usage error before the
    # height cap forms a radius l0 r0
    assert dispatch(["barrier", "--model", "euclidean", f"--r0={r0}"]) == 2
    assert capsys.readouterr().err == (f"error: r0 must be positive and "
                                       f"finite, got {float(r0)}\n")


@pytest.mark.parametrize("r0", ["0", "-1"])
def test_exhaust_rejects_a_nonpositive_r0_before_any_rung(r0, monkeypatch,
                                                          capsys):
    # build_ladder's r0 rule, reported as a usage error, as argparse
    # reports --r0 nan and inf
    def no_rung(*args, **kwargs):
        raise AssertionError("a rung was solved")

    monkeypatch.setattr(killingflow.exhaustion, "solve_ball", no_rung)
    assert dispatch(["exhaust", "--model", "euclidean", f"--r0={r0}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: r0 must be positive and finite, "
                            f"got {float(r0)}\n")


def test_exhaust_rejects_a_model_the_polar_grid_cannot_hold(capsys):
    # a ladder steps on polar grids, which hold n = 2 only: bad input
    assert dispatch(["exhaust", "--model", "euclidean", "--n", "3"]) == 2
    assert "base dimension 2 only" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "0"])
def test_exhaust_rejects_a_bad_tolerance_before_any_rung(tol, monkeypatch,
                                                         capsys):
    # before, --tol -1 solved all four rungs and reported "fail" with no
    # error line; build_ladder's rejection is a usage error
    def no_rung(*args, **kwargs):
        raise AssertionError("a rung was solved")

    monkeypatch.setattr(killingflow.exhaustion, "solve_ball", no_rung)
    assert dispatch(["exhaust", "--model", "euclidean",
                     f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tol must be positive")


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[model]\nkind = dodecahedral\n")
    assert dispatch(["flow", "--config", str(cfg)]) == 2
    capsys.readouterr()


def _one_error_line(capsys):
    err = capsys.readouterr().err
    return err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("phi", ["1/0", "2^2000", "(-8)^(1/3)", "log(0)"])
def test_unevaluable_data_exits_2(tmp_path, phi, capsys):
    # Python-float division by zero, overflow, a complex power and a
    # non-finite phi are data errors, not crashes; exhaust samples the
    # first rung before it solves any
    cfg = tmp_path / "run.ini"
    cfg.write_text(FLOW_INI.replace("phi = 0.1*cos(theta)", f"phi = {phi}"))
    assert dispatch(["flow", "--config", str(cfg)]) == 2
    assert _one_error_line(capsys)
    assert dispatch(["exhaust", "--model", "euclidean", "--rungs", "2",
                     "--phi", phi]) == 2
    assert _one_error_line(capsys)


def test_exhaust_rung_failing_in_the_solver_exits_1(monkeypatch, capsys):
    # data the grid takes passes the sample check; a rung whose solve
    # fails is a failed check, not a usage error
    def failing_solve(*args, **kwargs):
        raise flow.FlowError("non-finite field after step")

    monkeypatch.setattr(killingflow.exhaustion, "solve_ball", failing_solve)
    assert dispatch(["exhaust", "--model", "euclidean", "--rungs", "2"]) == 1
    assert capsys.readouterr().err == (
        "error: rung R=3 failed: non-finite field after step\n")


def test_complex_data_error_names_its_offset(capsys):
    assert dispatch(["exhaust", "--model", "euclidean", "--rungs", "2",
                     "--phi", "1 + (-8)^(1/3)"]) == 2
    assert capsys.readouterr().err == (
        "error: (-8.0) ^ (1.0 / 3.0) has a complex value at offset 4\n")


@pytest.mark.parametrize("phi, error", [
    ("1 + 1/0", "float division by zero at offset 4"),
    ("cos(theta) + 2^2000",
     "(34, 'Numerical result out of range') at offset 13")])
def test_arithmetic_data_error_names_its_offset(phi, error, capsys):
    # the offset is the operation's that raised, not the start of the text
    assert dispatch(["exhaust", "--model", "euclidean", "--rungs", "2",
                     "--phi", phi]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot evaluate {phi!r}: {error}\n")


@pytest.mark.parametrize("command, phi", [
    ("flow", "(" * 400 + "0" + ")" * 400),
    ("exhaust", "0" + "+0" * 5000),
    ("exhaust", "-" * 3000 + "0"),
], ids=["flow-parentheses", "exhaust-sum", "exhaust-minus"])
def test_deeply_nested_data_exits_2(tmp_path, command, phi, capsys):
    # each ended in a RecursionError traceback before
    if command == "flow":
        cfg = tmp_path / "run.ini"
        cfg.write_text(FLOW_INI.replace("phi = 0.1*cos(theta)",
                                        f"phi = {phi}"))
        argv = ["flow", "--config", str(cfg)]
    else:
        argv = ["exhaust", "--model", "euclidean", "--rungs", "2",
                f"--phi={phi}"]
    assert dispatch(argv) == 2
    assert _one_error_line(capsys)


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


@pytest.mark.parametrize("phi,u0,message", [
    ("log(0)", "0", "phi must be finite"),
    ("0", "log(r)", "u0 must be finite"),
    ("0.1*cos(theta)", "0.1*cos(theta)*r + 0.01", "u0 and phi disagree")])
def test_flow_data_the_grid_cannot_take_exits_2(tmp_path, capsys, phi, u0,
                                                message):
    # solve_ball samples the problem before any step, and bad data is a
    # usage error, as build_ladder's is for exhaust; a failing step stays
    # exit 1
    cfg = tmp_path / "run.ini"
    cfg.write_text(FLOW_INI.replace("phi = 0.1*cos(theta)", f"phi = {phi}")
                   .replace("u0 = 0.1*cos(theta)*r", f"u0 = {u0}"))
    assert dispatch(["flow", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("u0,code", [("0.1*cos(theta)*r", 0),
                                     ("log(r)", 2)])
def test_flow_samples_its_problem_once(tmp_path, monkeypatch, u0, code):
    cfg = tmp_path / "run.ini"
    cfg.write_text(FLOW_INI.replace("u0 = 0.1*cos(theta)*r", f"u0 = {u0}"))
    calls = []
    sample = flow.BallProblem.sample

    def counted(self, grid):
        calls.append(grid)
        return sample(self, grid)

    monkeypatch.setattr(flow.BallProblem, "sample", counted)
    assert dispatch(["flow", "--config", str(cfg)]) == code
    assert len(calls) == 1


@pytest.mark.parametrize("phi,code", [("0.1*cos(theta)", 0), ("log(0)", 2),
                                      ("sqrt(0-1)", 2), ("log(theta)", 2)])
def test_exhaust_samples_its_first_rung_once(monkeypatch, capsys, phi, code):
    # one sample per rung solved, in its solve_ball: bad data is a usage
    # error that the first rung's sample finds, before any step
    calls = []
    sample = flow.BallProblem.sample

    def counted(self, grid):
        calls.append(grid.R)
        return sample(self, grid)

    monkeypatch.setattr(flow.BallProblem, "sample", counted)
    assert dispatch(["exhaust", "--model", "euclidean", "--rungs", "2",
                     "--tol", "0.05", "--phi", phi]) == code
    assert calls == ([3.0, 5.0] if code == 0 else [3.0])
    assert _one_error_line(capsys) == (code == 2)


_DISPATCH_CHILD = """
import sys
from killingflow.cli import dispatch
sys.exit(dispatch(sys.argv[1:]))
"""


def test_one_parser_per_process_parses_like_a_fresh_one(tmp_path,
                                                         monkeypatch,
                                                         capsys):
    # dispatch keeps one parser; a usage error, --help and a run through
    # one process print and exit as each does in a process of its own
    cfg = tmp_path / "run.ini"
    cfg.write_text(FLOW_INI.replace("T = 0.05", "T = 0.005"))
    monkeypatch.setenv("COLUMNS", "80")
    argvs = [["flow"], ["--help"], ["flow", "--config", str(cfg)],
             ["cmc", "--model", "euclidean", "--R", "nan"], ["flow", "--help"],
             ["flow"], ["--help"]]
    capsys.readouterr()
    for argv in argvs:
        code = dispatch(argv)
        got = capsys.readouterr()
        proc = _run_fresh(_DISPATCH_CHILD, *argv, COLUMNS="80")
        assert (code, got.out, got.err) == (
            proc.returncode, proc.stdout, proc.stderr), argv
    assert [dispatch(a) for a in (["flow"], ["--help"])] == [2, 0]
    assert cli.build_parser() is not cli.build_parser()


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


# what a fresh interpreter may have loaded once killingflow is imported:
# no scipy.linalg module (flow loads LAPACK's dpbsv, dpttrf and zpttrs from
# the compiled scipy.linalg._flapack alone), no deferred scipy package, no
# compiled scipy module beyond those a bare ``import scipy`` loads
# (argv[1]), and no numpy.fft, which only steps on 48 or more columns use
_LEAN = """
import importlib.machinery, sys

def scipy_extensions():
    suffixes = tuple(importlib.machinery.EXTENSION_SUFFIXES)
    return ",".join(sorted(
        name for name, mod in list(sys.modules.items())
        if name.split(".")[0] == "scipy"
        and str(getattr(mod, "__file__", "")).endswith(suffixes)))

def assert_lean():
    assert "numpy.fft" not in sys.modules
    linalg = sorted(m for m in sys.modules
                    if m == "scipy.linalg" or m.startswith("scipy.linalg."))
    assert not linalg, linalg
    loaded = sorted(m for m in ("scipy.interpolate", "scipy.optimize",
                                "scipy.sparse", "scipy.special",
                                "scipy.spatial") if m in sys.modules)
    assert not loaded, loaded
    assert scipy_extensions() == sys.argv[1], scipy_extensions()
"""

_STARTUP_CHILD = _LEAN + """
import contextlib, io
import killingflow
from killingflow.cli import dispatch
assert_lean()
cfg, out = sys.argv[2:]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["model-info", "--model", "hyperbolic"],
                 ["cmc", "--model", "euclidean", "--R", "1.0", "--grid", "16"],
                 ["flow", "--config", cfg, "--out", out],
                 ["verify", "--all"],
                 ["barrier", "--model", "hyperbolic"]):
        assert dispatch(argv) == 0, argv
        assert_lean()
"""


def _run_fresh(code, *args, **env):
    # this test module has imported SciPy itself, so only a fresh
    # interpreter can see what the package and its commands load
    src = os.path.dirname(os.path.dirname(killingflow.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path, **env))


@pytest.fixture(scope="module")
def bare_scipy_extensions():
    proc = _run_fresh(_LEAN + "import scipy\nprint(scipy_extensions())")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_startup_loads_no_deferred_scipy(tmp_path, bare_scipy_extensions):
    cfg = tmp_path / "run.ini"
    cfg.write_text(FLOW_INI.replace("nr = 24", "nr = 8")
                   .replace("ntheta = 16", "ntheta = 8")
                   .replace("T = 0.05", "T = 0.005"))
    proc = _run_fresh(_STARTUP_CHILD, bare_scipy_extensions, cfg,
                      tmp_path / "run")
    assert proc.returncode == 0, proc.stderr


_EXHAUST_CHILD = _LEAN + """
import contextlib, io
from killingflow.cli import dispatch
with contextlib.redirect_stdout(io.StringIO()):
    assert dispatch(["exhaust", "--model", "euclidean", "--rungs", "2",
                     "--tol", "0.1"]) == 0
assert_lean()
"""


def test_exhaust_loads_no_interpolation(bare_scipy_extensions):
    # rungs are compared on the nodes they share, so no spline is fitted,
    # and R(t) is Newton on the time integral, with no scipy.optimize
    proc = _run_fresh(_EXHAUST_CHILD, bare_scipy_extensions)
    assert proc.returncode == 0, proc.stderr


# flow's dpbsv, dpttrf and zpttrs, loaded without scipy.linalg, are the ones
# scipy.linalg binds when it is imported later or was imported first
_ONE_SOLVER_CHILD = """
import sys
if sys.argv[1] == "scipy-first":
    import scipy.linalg
from killingflow import flow
import scipy.linalg, scipy.linalg.lapack
assert "_flapack" in vars(scipy.linalg)
assert scipy.linalg._flapack is sys.modules["scipy.linalg._flapack"]
for routine in ("dpbsv", "dpttrf", "zpttrs"):
    assert getattr(scipy.linalg.lapack, routine) is getattr(flow, routine)
assert not hasattr(flow, "dpttrs")
"""


@pytest.mark.parametrize("order", ["killingflow-first", "scipy-first"])
def test_one_dpbsv_in_either_import_order(order):
    proc = _run_fresh(_ONE_SOLVER_CHILD, order)
    assert proc.returncode == 0, proc.stderr


# one 2-D and one radial semi-implicit step, printed to the last bit;
# argv[1] == "fallback" hides the extension file from the direct load
_STEP_CHILD = """
import importlib.machinery, sys
if sys.argv[1] == "fallback":
    importlib.machinery.EXTENSION_SUFFIXES[:] = []
import numpy as np
from killingflow import flow, hyperbolic_model
model = hyperbolic_model()
p = flow.BallProblem(model=model, R=1.5, phi=lambda th: 0.2 * np.cos(th),
                     u0=lambda r, th: 0.2 * np.cos(th) * (r / 1.5) ** 2
                     + 0.1 * r * (1.5 - r) * np.sin(th), T=1.0)
for nr, ntheta in ((12, 8), (24, 1)):
    grid = flow.Grid(R=1.5, nr=nr, ntheta=ntheta)
    u0 = p.sample(grid)[0]
    u0 = u0[:, 0] if grid.radial else u0
    s0 = flow.FlowState(t=0.0, u=u0, W=flow.compute_W(model, grid, u0),
                        step_count=0)
    s1 = flow.step(s0, p, grid, flow.StepControl(), dt=1e-2)
    print(s1.u.tobytes().hex(), s1.W.tobytes().hex())
print("scipy.linalg" in sys.modules)
"""


def test_dpbsv_fallback_steps_bit_identical():
    outs = []
    for mode in ("direct", "fallback"):
        proc = _run_fresh(_STEP_CHILD, mode)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout.split())
    (*fast, fast_linalg), (*fallback, fallback_linalg) = outs
    # the fallback imports scipy.linalg; the direct load does not
    assert (fast_linalg, fallback_linalg) == ("False", "True")
    assert len(fast) == 4 and fast == fallback


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


_FLOW_CHILD = """
import sys
from killingflow.cli import dispatch
sys.exit(dispatch(["flow", "--config", sys.argv[1], "--out", sys.argv[2]]))
"""


def test_cg_run_is_independent_of_blas_threads(tmp_path):
    # a 96 x 64 run steps by conjugate gradients, whose inner products are
    # numpy sums of products: the arrays it writes are the same to the bit
    cfg = tmp_path / "run.ini"
    cfg.write_text(FLOW_INI.replace("kind = euclidean", "kind = hyperbolic")
                   .replace("nr = 24", "nr = 96")
                   .replace("ntheta = 16", "ntheta = 64")
                   .replace("u0 = 0.1*cos(theta)*r",
                            "u0 = 0.1*cos(theta)*r"
                            " + 0.2*cos(1.5707963267948966*r)")
                   .replace("T = 0.05", "T = 0.005"))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"run{threads}"
        proc = _run_fresh(_FLOW_CHILD, cfg, out,
                          OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        outs.append([(out / name).read_bytes()
                     for name in ("snapshots.npy", "steps.npy")])
    assert outs[0] == outs[1]


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
