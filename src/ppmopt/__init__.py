"""Design evaluation and multiobjective optimization of planar parallel
manipulators (3-PRR, 3-RPR, 3-RRR)."""

from types import ModuleType as _Module

from .errors import (ConfigError, HomeUnreachable, InvalidValue, ModeViolation,
                     PpmError, SingularStiffness, Unreachable)
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
                          evaluate_constraints, inverse_condition)
from .runconfig import RunConfig, default_config_yaml, load_config, parse_config
from .stiffness import beam_compliance, platform_stiffness
from .workspace import (GridSpec, WorkspaceSpec, max_regular_workspace_detail,
                        workspace_feasible)

__version__ = "0.1.0"

# the imported names, not the submodules that importing them binds
__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _Module)]
