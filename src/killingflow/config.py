"""Run configuration: INI-style sections with defaults.

Sections and keys (all optional unless noted):

    [model]    kind = a key of geometry.MODELS   (required)
               kappa = 1.0        n = 2          quad_tol = 1e-10
    [grid]     nr = 64            ntheta = 16    R = 1.0
    [control]  scheme = semi-implicit | explicit-euler
               cfl = 0.5          dt_max = 1e-3
    [problem]  phi = <expression in theta>       u0 = <expression in r, theta>
               T = <time; default zeta(R)/2>
    [verify]   checks = all | comma list         tol = 1e-3

phi and u0 are expressions in r, theta and t (``killingflow.expr``):
Python's expression syntax cut down to decimal numbers, unary minus,
+ - * /, ^ for power, and calls of sin cos tan sinh cosh tanh exp log
sqrt abs and min max.

This module checks what a config file alone can break: sections, keys,
number and expression syntax, a missing kind, check names, T > 0 and
tol > 0.  Every other range is the rule of the constructor that takes
the value (``geometry.named_model``, ``flow.Grid``, ``flow.StepControl``):
parsing calls it and raises its message as a ConfigError, "[section]
<message>", and a command exits 2.  Rules across sections (finite data on
the grid, a grid that holds the model's n) are the solver's: exit 1.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from typing import Callable

from . import expr
from .flow import FlowError, Grid, StepControl
from .geometry import (MODELS, GeometryError, ModelGeometry, _positive,
                       named_model)


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
        return named_model(**self.model)

    def phi_function(self):
        f = expr.as_function(self.problem["phi"])
        return lambda theta: f(theta=theta, r=0.0, t=0.0)

    def u0_function(self):
        f = expr.as_function(self.problem["u0"])
        return lambda r, theta: f(r=r, theta=theta, t=0.0)


def _owned(section: str, owner: Callable, values: dict) -> None:
    """Call the owner of a section's ranges; its error names the section."""
    try:
        owner(**values)
    except (FlowError, GeometryError) as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def _validate(sections: dict) -> RunConfig:
    model = sections["model"]
    if model.get("kind") in (None, ""):
        raise ConfigError(f"[model] kind is required "
                          f"({' or '.join(MODELS)})")
    out_model = {
        "kind": model["kind"],
        "kappa": _as_float("model", "kappa", model["kappa"]),
        "n": _as_int("model", "n", model["n"]),
        "quad_tol": _as_float("model", "quad_tol", model["quad_tol"]),
    }
    _owned("model", named_model, out_model)

    grid = sections["grid"]
    out_grid = {
        "nr": _as_int("grid", "nr", grid["nr"]),
        "ntheta": _as_int("grid", "ntheta", grid["ntheta"]),
        "R": _as_float("grid", "R", grid["R"]),
    }
    _owned("grid", Grid, out_grid)

    control = sections["control"]
    out_control = {
        "scheme": control["scheme"],
        "cfl": _as_float("control", "cfl", control["cfl"]),
        "dt_max": _as_float("control", "dt_max", control["dt_max"]),
    }
    _owned("control", StepControl, out_control)

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
    if out_problem["T"] is not None:
        _positive("[problem] T", out_problem["T"], ConfigError)

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
    _positive("[verify] tol", out_verify["tol"], ConfigError)

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
