import pytest

from killingflow.config import ConfigError, load_config, parse_config
from killingflow.flow import FlowError, Grid, StepControl
from killingflow.geometry import GeometryError, named_model

MINIMAL = "[model]\nkind = euclidean\n"


def test_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.model == {"kind": "euclidean", "kappa": 1.0, "n": 2,
                         "quad_tol": 1e-10}
    assert cfg.grid == {"nr": 64, "ntheta": 16, "R": 1.0}
    assert cfg.control["scheme"] == "semi-implicit"
    assert cfg.problem["T"] is None
    assert cfg.verify == {"checks": "all", "tol": 1e-3}


def test_full_config_and_build():
    cfg = parse_config("""
[model]
kind = hyperbolic
kappa = 2.0
n = 3

[grid]
nr = 48
ntheta = 32
R = 2.5

[control]
scheme = explicit-euler
cfl = 0.25
dt_max = 5e-4

[problem]
phi = 0.1*cos(theta)
u0 = 0.1*cos(theta)*r
T = 0.5

[verify]
checks = cmc, height
tol = 1e-2
""")
    model = cfg.build_model()
    assert model.n == 3
    assert model.xi.kind == "hyperbolic"
    phi = cfg.phi_function()
    assert phi(0.0) == pytest.approx(0.1)
    u0 = cfg.u0_function()
    assert u0(2.5, 0.0) == pytest.approx(0.25)
    assert cfg.problem["T"] == 0.5


def test_key_case_preserved():
    # [grid] R must not be folded to lowercase r
    cfg = parse_config(MINIMAL + "[grid]\nR = 2.0\n")
    assert cfg.grid["R"] == 2.0


@pytest.mark.parametrize("text", [
    "",                                         # kind missing
    "[model]\nkind = spherical\n",
    "[model]\nkind = euclidean\nn = 1\n",
    "[model]\nkind = euclidean\nkappa = -1\n",
    "[model]\nkind = euclidean\nbogus = 1\n",
    MINIMAL + "[grid]\nnr = 4\n",
    MINIMAL + "[grid]\nntheta = 3\n",
    MINIMAL + "[grid]\nR = 0\n",
    MINIMAL + "[control]\nscheme = rk4\n",
    MINIMAL + "[control]\ncfl = 1.5\n",
    MINIMAL + "[control]\ndt_max = junk\n",
    MINIMAL + "[problem]\nphi = sin(\n",
    MINIMAL + "[problem]\nT = -1\n",
    MINIMAL + "[verify]\nchecks = cmc, nonsense\n",
    MINIMAL + "[verify]\ntol = 0\n",
    MINIMAL + "[mystery]\nx = 1\n",
    "not an ini file [",
])
def test_rejects_bad_config(text):
    with pytest.raises(ConfigError):
        parse_config(text)


@pytest.mark.parametrize("text,section,owner", [
    ("[model]\nkind = spherical\n", "model",
     lambda: named_model("spherical")),
    ("[model]\nkind = euclidean\nkappa = -1\n", "model",
     lambda: named_model("euclidean", kappa=-1.0)),
    ("[model]\nkind = hyperbolic\nn = 1\n", "model",
     lambda: named_model("hyperbolic", n=1)),
    ("[model]\nkind = hyperbolic\nquad_tol = 0\n", "model",
     lambda: named_model("hyperbolic", quad_tol=0.0)),
    (MINIMAL + "[grid]\nnr = 4\n", "grid",
     lambda: Grid(R=1.0, nr=4, ntheta=16)),
    (MINIMAL + "[grid]\nntheta = 3\n", "grid",
     lambda: Grid(R=1.0, nr=64, ntheta=3)),
    (MINIMAL + "[grid]\nR = -2\n", "grid",
     lambda: Grid(R=-2.0, nr=64, ntheta=16)),
    (MINIMAL + "[control]\nscheme = rk4\n", "control",
     lambda: StepControl(scheme="rk4")),
    (MINIMAL + "[control]\ncfl = 1.5\n", "control",
     lambda: StepControl(cfl=1.5)),
    (MINIMAL + "[control]\ndt_max = 0\n", "control",
     lambda: StepControl(dt_max=0.0)),
])
def test_range_errors_carry_the_owners_message(text, section, owner):
    # a range rule lives in the constructor that takes the value; the
    # config reports that constructor's message under the section's name
    with pytest.raises((FlowError, GeometryError)) as own:
        owner()
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == f"[{section}] {own.value}"


@pytest.mark.parametrize("section,key,value", [
    ("problem", "T", "0"), ("problem", "T", "-1"), ("verify", "tol", "0")])
def test_nonpositive_time_and_tolerance_carry_the_positive_rule(section, key,
                                                                value):
    # geometry._positive owns the rule, as it does for BallProblem's T
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + f"[{section}]\n{key} = {value}\n")
    assert str(err.value) == (f"[{section}] {key} must be positive and "
                              f"finite, got {float(value)}")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key", [
    ("model", "kappa"), ("model", "quad_tol"), ("grid", "R"),
    ("control", "cfl"), ("control", "dt_max"), ("problem", "T"),
    ("verify", "tol")])
def test_rejects_non_finite_numbers(section, key, value):
    header = "" if section == "model" else f"[{section}]\n"
    with pytest.raises(ConfigError, match="not a finite number"):
        parse_config(MINIMAL + header + f"{key} = {value}\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.ini"))
    path = tmp_path / "run.ini"
    path.write_text(MINIMAL)
    assert load_config(str(path)).model["kind"] == "euclidean"
