"""Design evaluation and multiobjective optimization of planar parallel
manipulators (3-PRR, 3-RPR, 3-RRR)."""

from .errors import (ConfigError, HomeUnreachable, InvalidValue, ModeViolation,
                     OutOfBounds, PpmError, SingularStiffness, Unreachable)
from .kinematics import (AnchorLayout, Branch, DEFAULT_MODE, HOME_POSE,
                         JacobianPair, Pose, WorkingMode, anchor_layout,
                         inverse_kinematics, jacobian)
from .model import (ActuatorStiffness, Architecture, Bounds, DEFAULT_BOUNDS,
                    DEFAULT_MATERIAL, DesignVector, Material, Wrench, mass,
                    steel, validate)
from .moga import (Evaluation, MogaConfig, MogaResult, ParetoArchive, decode,
                   dominates, encode, evaluate_genome, evolve, hypervolume,
                   pareto_filter, per_architecture_fronts, sobol_doe)
from .performance import (AccuracySpec, ConstraintReport, DexterityConfig,
                          EvalContext, StiffnessLimits, characteristic_length,
                          evaluate_constraints, frobenius_condition,
                          inverse_condition)
from .runconfig import RunConfig, default_config_yaml, load_config, parse_config
from .stiffness import beam_compliance, platform_stiffness, stiffness_indices
from .workspace import (GridSpec, WorkspaceSpec, grid_points,
                        max_regular_workspace, max_regular_workspace_detail,
                        workspace_feasible)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
