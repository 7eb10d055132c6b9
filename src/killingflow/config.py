"""Run configuration: INI-style sections with defaults and range checks.

Sections and keys (all optional unless noted):

    [model]    kind = euclidean | hyperbolic     (required)
               kappa = 1.0        n = 2          quad_tol = 1e-10
    [grid]     nr = 64            ntheta = 16    R = 1.0
    [control]  scheme = semi-implicit | explicit-euler
               cfl = 0.5          dt_max = 1e-3
    [problem]  phi = <expression in theta>       u0 = <expression in r, theta>
               T = <time; default zeta(R)/2>
    [verify]   checks = all | comma list         tol = 1e-3
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field

from . import expr
from .geometry import ModelGeometry, euclidean_model, hyperbolic_model


class ConfigError(ValueError):
    """Bad key, missing section, or out-of-range value."""


_DEFAULTS = {
    "model": {"kind": None, "kappa": "1.0", "n": "2", "quad_tol": "1e-10"},
    "grid": {"nr": "64", "ntheta": "16", "R": "1.0"},
    "control": {"scheme": "semi-implicit", "cfl": "0.5", "dt_max": "1e-3"},
    "problem": {"phi": "0", "u0": "0", "T": ""},
    "verify": {"checks": "all", "tol": "1e-3"},
}

_KNOWN_CHECKS = ("cmc", "supersolution", "height", "identities", "barrier")


def _as_float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") \
            from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: not a finite number: {raw!r}")
    return value


def _as_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not an integer: {raw!r}") \
            from None


@dataclass(frozen=True)
class RunConfig:
    model: dict
    grid: dict
    control: dict
    problem: dict
    verify: dict

    def build_model(self) -> ModelGeometry:
        m = self.model
        if m["kind"] == "euclidean":
            return euclidean_model(n=m["n"], quad_tol=m["quad_tol"])
        return hyperbolic_model(n=m["n"], kappa=m["kappa"],
                                quad_tol=m["quad_tol"])

    def phi_function(self):
        f = expr.as_function(self.problem["phi"])
        return lambda theta: f(theta=theta, r=0.0, t=0.0)

    def u0_function(self):
        f = expr.as_function(self.problem["u0"])
        return lambda r, theta: f(r=r, theta=theta, t=0.0)

    def serialize(self) -> str:
        cp = configparser.ConfigParser()
        cp.optionxform = str
        for name in _DEFAULTS:
            data = getattr(self, name)
            cp[name] = {k: ("" if v is None else str(v))
                        for k, v in data.items()}
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()


def _validate(sections: dict) -> RunConfig:
    model = sections["model"]
    if model.get("kind") in (None, ""):
        raise ConfigError("[model] kind is required "
                          "(euclidean or hyperbolic)")
    if model["kind"] not in ("euclidean", "hyperbolic"):
        raise ConfigError(f"[model] kind: unknown kind {model['kind']!r}")
    out_model = {
        "kind": model["kind"],
        "kappa": _as_float("model", "kappa", model["kappa"]),
        "n": _as_int("model", "n", model["n"]),
        "quad_tol": _as_float("model", "quad_tol", model["quad_tol"]),
    }
    if out_model["n"] < 2:
        raise ConfigError("[model] n must be >= 2")
    if out_model["kappa"] <= 0:
        raise ConfigError("[model] kappa must be positive")
    if out_model["quad_tol"] <= 0:
        raise ConfigError("[model] quad_tol must be positive")

    grid = sections["grid"]
    out_grid = {
        "nr": _as_int("grid", "nr", grid["nr"]),
        "ntheta": _as_int("grid", "ntheta", grid["ntheta"]),
        "R": _as_float("grid", "R", grid["R"]),
    }
    if out_grid["nr"] < 8:
        raise ConfigError("[grid] nr must be >= 8")
    if out_grid["ntheta"] != 1 and out_grid["ntheta"] < 8:
        raise ConfigError("[grid] ntheta >= 8 or = 1")
    if out_grid["R"] <= 0:
        raise ConfigError("[grid] R must be positive")

    control = sections["control"]
    out_control = {
        "scheme": control["scheme"],
        "cfl": _as_float("control", "cfl", control["cfl"]),
        "dt_max": _as_float("control", "dt_max", control["dt_max"]),
    }
    if out_control["scheme"] not in ("semi-implicit", "explicit-euler"):
        raise ConfigError(f"[control] scheme: unknown scheme "
                          f"{out_control['scheme']!r}")
    if not 0.0 < out_control["cfl"] <= 1.0:
        raise ConfigError("[control] cfl must be in (0, 1]")
    if out_control["dt_max"] <= 0:
        raise ConfigError("[control] dt_max must be positive")

    problem = sections["problem"]
    for key in ("phi", "u0"):
        try:
            expr.parse_expression(problem[key])
        except expr.ExprError as exc:
            raise ConfigError(f"[problem] {key}: {exc}") from None
    T = problem["T"].strip() if problem["T"] else ""
    out_problem = {
        "phi": problem["phi"],
        "u0": problem["u0"],
        "T": _as_float("problem", "T", T) if T else None,
    }
    if out_problem["T"] is not None and out_problem["T"] <= 0:
        raise ConfigError("[problem] T must be positive")

    verify = sections["verify"]
    checks = verify["checks"].strip()
    if checks != "all":
        for c in checks.split(","):
            if c.strip() not in _KNOWN_CHECKS:
                raise ConfigError(
                    f"[verify] checks: unknown check {c.strip()!r} "
                    f"(known: all, {', '.join(_KNOWN_CHECKS)})")
    out_verify = {
        "checks": checks,
        "tol": _as_float("verify", "tol", verify["tol"]),
    }
    if out_verify["tol"] <= 0:
        raise ConfigError("[verify] tol must be positive")

    return RunConfig(model=out_model, grid=out_grid, control=out_control,
                     problem=out_problem, verify=out_verify)


def parse_config(text: str) -> RunConfig:
    cp = configparser.ConfigParser()
    cp.optionxform = str    # keep key case: [grid] R is not [grid] r
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    sections = {}
    for name, defaults in _DEFAULTS.items():
        merged = dict(defaults)
        if cp.has_section(name):
            for key, value in cp.items(name):
                if key not in defaults:
                    raise ConfigError(f"[{name}] unknown key {key!r}")
                merged[key] = value
        sections[name] = merged
    for name in cp.sections():
        if name not in _DEFAULTS:
            raise ConfigError(f"unknown section [{name}]")
    return _validate(sections)


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)
