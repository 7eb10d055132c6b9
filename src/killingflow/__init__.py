"""Mean curvature flow of Killing graphs in rotationally symmetric warped
products: geometry, radial CMC profiles, barrier families, a polar-grid
flow solver, and the ball-exhaustion existence scheme."""

from .geometry import (AmbientFrameData, GeometryError, ModelGeometry,
                       ProfileSpec, TableFormatError, ValidationError,
                       ambient_frame, constant_profile, cosh_profile,
                       euclidean_model, euclidean_profile, hyperbolic_model,
                       hyperbolic_profile, lower_ricci_bounds, make_model,
                       table_profile_from_csv)
from .cmc import (CmcError, CmcProfile, eval_vR, eval_vR_prime,
                  integrate_profile_ode, residual_cmc, solve_vR)
from .barriers import (BarrierError, BoundaryBarrier, GeodesicSpec,
                       GradientBoundReport, ScBarrier,
                       SupersolutionFlow, c0_height_cap, compute_E_R,
                       compute_delta_psi, curvature_bound, height_bounds,
                       interior_gradient_bound,
                       make_boundary_barrier, make_sc_barrier, mu_of_t,
                       verify_supersolution)
from .flow import (BallProblem, FlowError, FlowState, Grid, StepControl,
                   Trajectory, compute_W, discretize_Q, load_run, radial_Q,
                   radial_solve, residual_identities, save_run,
                   second_fundamental_form, solve_ball, step)
from .exhaustion import (ConvergenceReport, ExhaustionError, ExhaustionPlan,
                         build_ladder, run_exhaustion)
from .expr import ExprError, evaluate, parse_expression, to_source
from .config import ConfigError, RunConfig, load_config, parse_config

__version__ = "0.1.0"
