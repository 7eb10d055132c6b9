"""The public surface of killingflow, recorded.

EXPORTS is every name ``import killingflow`` gives.  DEFAULTS maps every
public function, class (its constructor) and method of the package's
modules to its parameters that have a default: the values a caller may
set or leave out, each one more case for the tests to cover.
CLI_OPTIONS maps every option of the command line, per subcommand, and
CONFIG_KEYS every key of a config, per section, to its default.  A change
that adds, removes or renames an export, an entry point, a defaulted
parameter, an option or a config key shows here as a one-line diff.
"""

import argparse
import importlib
import inspect
import pkgutil

import killingflow
from killingflow import cli, config

EXPORTS = (
    "AmbientFrameData",
    "BallProblem",
    "BarrierError",
    "BoundaryBarrier",
    "CmcError",
    "CmcProfile",
    "ConfigError",
    "ConvergenceReport",
    "ExhaustionError",
    "ExhaustionPlan",
    "ExprError",
    "FlowError",
    "FlowState",
    "GeodesicSpec",
    "GeometryError",
    "GradientBoundReport",
    "Grid",
    "ModelGeometry",
    "ProfileSpec",
    "RunConfig",
    "ScBarrier",
    "StepControl",
    "SupersolutionFlow",
    "TableFormatError",
    "Trajectory",
    "ValidationError",
    "ambient_frame",
    "build_ladder",
    "c0_height_cap",
    "compute_E_R",
    "compute_W",
    "compute_delta_psi",
    "constant_profile",
    "cosh_profile",
    "curvature_bound",
    "discretize_Q",
    "euclidean_model",
    "euclidean_profile",
    "eval_vR",
    "eval_vR_prime",
    "evaluate",
    "height_bounds",
    "hyperbolic_model",
    "hyperbolic_profile",
    "integrate_profile_ode",
    "interior_gradient_bound",
    "load_config",
    "load_run",
    "lower_ricci_bounds",
    "make_boundary_barrier",
    "make_model",
    "make_sc_barrier",
    "mu_of_t",
    "parse_config",
    "parse_expression",
    "radial_Q",
    "radial_solve",
    "residual_cmc",
    "residual_identities",
    "run_exhaustion",
    "save_run",
    "second_fundamental_form",
    "solve_ball",
    "solve_vR",
    "step",
    "table_profile_from_csv",
    "to_source",
    "verify_supersolution",
)

DEFAULTS = {
    "barriers.BoundaryBarrier": (),
    "barriers.BoundaryBarrier.gradient_cap": (),
    "barriers.BoundaryBarrier.h": (),
    "barriers.BoundaryBarrier.h_prime": (),
    "barriers.BoundaryBarrier.h_second": (),
    "barriers.GeodesicSpec": (),
    "barriers.GeodesicSpec.at_distance": ("kappa",),
    "barriers.GradientBoundReport": (),
    "barriers.ScBarrier": (),
    "barriers.ScBarrier.dist_eval": (),
    "barriers.ScBarrier.eta": (),
    "barriers.SupersolutionFlow": (),
    "barriers.SupersolutionFlow.R_of_t": (),
    "barriers.SupersolutionFlow.time_of": (),
    "barriers.c0_height_cap": (),
    "barriers.compute_E_R": (),
    "barriers.compute_delta_psi": (),
    "barriers.curvature_bound": (),
    "barriers.height_bounds": (),
    "barriers.interior_gradient_bound": (),
    "barriers.make_boundary_barrier": (),
    "barriers.make_sc_barrier": ("seed",),
    "barriers.mu_of_t": (),
    "barriers.pointwise_Q": (),
    "barriers.verify_supersolution": (),
    "cli.build_parser": (),
    "cli.dispatch": ("argv",),
    "cli.main": (),
    "cmc.CmcProfile": (),
    "cmc.eval_vR": (),
    "cmc.eval_vR_prime": (),
    "cmc.integrate_profile_ode": (),
    "cmc.residual_cmc": (),
    "cmc.sample_vR": ("tol",),
    "cmc.solve_vR": (),
    "config.RunConfig": (),
    "config.RunConfig.build_model": (),
    "config.RunConfig.phi_function": (),
    "config.RunConfig.u0_function": (),
    "config.load_config": (),
    "config.parse_config": (),
    "exhaustion.ConvergenceReport": (),
    "exhaustion.ConvergenceReport.to_dict": (),
    "exhaustion.ExhaustionPlan": ("ntheta", "n_time_steps"),
    "exhaustion.ExhaustionPlan.control": (),
    "exhaustion.ExhaustionPlan.grid_for": (),
    "exhaustion.RungReport": (),
    "exhaustion.build_ladder": ("tol",),
    "exhaustion.pole_mollified_extension": (),
    "exhaustion.run_exhaustion": (),
    "expr.as_function": (),
    "expr.evaluate": (),
    "expr.parse_expression": (),
    "expr.to_source": (),
    "flow.BallProblem": ("T",),
    "flow.BallProblem.sample": (),
    "flow.FlowState": ("max_grad", "max_A"),
    "flow.Grid": ("nodes",),
    "flow.Grid.shape": (),
    "flow.IdentityReport": (),
    "flow.StepControl": ("scheme", "cfl", "dt_max"),
    "flow.Trajectory": (),
    "flow.compute_W": (),
    "flow.discretize_Q": (),
    "flow.load_run": (),
    "flow.model_hash": (),
    "flow.radial_Q": (),
    "flow.radial_solve": ("snapshot_every",),
    "flow.residual_identities": (),
    "flow.save_run": (),
    "flow.second_fundamental_form": (),
    "flow.solve_ball": ("snapshot_every",),
    "flow.step": ("dt",),
    "geometry.AmbientFrameData": (),
    "geometry.AmbientFrameData.christoffels": (),
    "geometry.AmbientFrameData.ricci_eigenvalues": (),
    "geometry.ModelGeometry": ("validation",),
    "geometry.ModelGeometry.A": (),
    "geometry.ModelGeometry.A_prime": (),
    "geometry.ModelGeometry.H": (),
    "geometry.ModelGeometry.H_prime": (),
    "geometry.ModelGeometry.Hcyl": (),
    "geometry.ModelGeometry.V": (),
    "geometry.ModelGeometry.log_rho_d1": (),
    "geometry.ModelGeometry.log_rho_d2": (),
    "geometry.ModelGeometry.q_drop": (),
    "geometry.ModelGeometry.rim_time": (),
    "geometry.ModelGeometry.spec_dict": (),
    "geometry.ModelGeometry.zeta": (),
    "geometry.ProfileSpec": ("kappa", "const", "samples"),
    "geometry.ProfileSpec.d1": (),
    "geometry.ProfileSpec.d2": (),
    "geometry.ProfileSpec.ratio_d1": (),
    "geometry.ProfileSpec.ratio_d2": (),
    "geometry.ProfileSpec.sphere_defect": (),
    "geometry.ProfileSpec.value": (),
    "geometry.ambient_frame": (),
    "geometry.constant_profile": ("c",),
    "geometry.cosh_profile": ("kappa",),
    "geometry.euclidean_model": ("n", "quad_tol"),
    "geometry.euclidean_profile": (),
    "geometry.hyperbolic_model": ("n", "kappa", "quad_tol"),
    "geometry.hyperbolic_profile": ("kappa",),
    "geometry.lower_ricci_bounds": (),
    "geometry.make_model": ("quad_tol",),
    "geometry.named_model": ("n", "kappa", "quad_tol"),
    "geometry.table_profile_from_csv": (),
    "kernel.Factors": (),
    "kernel.coefficients": (),
    "kernel.factors": (),
    "quadrature.gauss_kronrod": ("tol", "noise"),
}

# the number of settable values: the sum of DEFAULTS' tuples
SETTABLE = 35


# (subcommand, option) -> default; "" is the top level, and None stands
# for no default (a required or an unset option)
CLI_OPTIONS = {
    ("", "--seed"): 0,
    ("model-info", "--model"): None,
    ("model-info", "--n"): 2,
    ("model-info", "--kappa"): 1.0,
    ("model-info", "--out"): None,
    ("cmc", "--model"): None,
    ("cmc", "--n"): 2,
    ("cmc", "--kappa"): 1.0,
    ("cmc", "--R"): None,
    ("cmc", "--grid"): 256,
    ("cmc", "--out"): None,
    ("cmc", "--svg"): None,
    ("barrier", "--model"): None,
    ("barrier", "--n"): 2,
    ("barrier", "--kappa"): 1.0,
    ("barrier", "--r0"): 1.0,
    ("barrier", "--l0"): 3,
    ("barrier", "--L"): 0.1,
    ("barrier", "--d0"): 5.0,
    ("barrier", "--out"): None,
    ("flow", "--config"): None,
    ("flow", "--out"): None,
    ("flow", "--snapshot-every"): 0,
    ("flow", "--svg"): None,
    ("exhaust", "--model"): None,
    ("exhaust", "--n"): 2,
    ("exhaust", "--kappa"): 1.0,
    ("exhaust", "--r0"): 1.0,
    ("exhaust", "--rungs"): 4,
    ("exhaust", "--phi"): "0.5*cos(theta)",
    ("exhaust", "--tol"): 0.001,
    ("exhaust", "--out"): None,
    ("verify", "--all"): False,
    ("verify", "--config"): None,
    ("verify", "--out"): None,
}

# (section, key) -> default text of config._DEFAULTS; None for the
# required [model] kind, "" for T, whose default is zeta(R)/2
CONFIG_KEYS = {
    ("model", "kind"): None,
    ("model", "kappa"): "1.0",
    ("model", "n"): "2",
    ("model", "quad_tol"): "1e-10",
    ("grid", "nr"): "64",
    ("grid", "ntheta"): "16",
    ("grid", "R"): "1.0",
    ("control", "scheme"): "semi-implicit",
    ("control", "cfl"): "0.5",
    ("control", "dt_max"): "1e-3",
    ("problem", "phi"): "0",
    ("problem", "u0"): "0",
    ("problem", "T"): "",
    ("verify", "checks"): "all",
    ("verify", "tol"): "1e-3",
}


def _public_callables():
    """(qualified name, function) of every public function, class and
    method defined in a killingflow module; exceptions have no options."""
    for info in pkgutil.iter_modules(killingflow.__path__):
        if info.name == "__main__":       # importing it runs the CLI
            continue
        module = importlib.import_module(f"killingflow.{info.name}")
        for name, obj in vars(module).items():
            if (name.startswith("_")
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                yield f"{info.name}.{name}", obj
                for attr, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{info.name}.{name}.{attr}", member


def test_exports():
    assert tuple(sorted(
        name for name, obj in vars(killingflow).items()
        if not name.startswith("_") and not inspect.ismodule(obj))) == EXPORTS


def test_parameters_with_defaults():
    found = {name: tuple(p.name
                         for p in inspect.signature(f).parameters.values()
                         if p.default is not inspect.Parameter.empty)
             for name, f in _public_callables()}
    assert found == DEFAULTS
    assert sum(map(len, found.values())) == SETTABLE


def _options(command, parser):
    for action in parser._actions:
        if (action.option_strings
                and not isinstance(action, argparse._HelpAction)):
            yield (command, action.option_strings[-1]), action.default


def test_cli_options_and_config_keys():
    parser = cli.build_parser()
    found = dict(_options("", parser))
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    for command, sub in commands.choices.items():
        found.update(_options(command, sub))
    assert found == CLI_OPTIONS
    assert {(section, key): value
            for section, keys in config._DEFAULTS.items()
            for key, value in keys.items()} == CONFIG_KEYS
