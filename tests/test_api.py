"""The public surface: what the README shows is exported, the test
oracles reach the library only through public names, and each failure
raises one error class."""

import ast
import re
import types
from pathlib import Path

import pytest

import ppmopt
from ppmopt import (Architecture, DesignVector, ModeViolation, Pose,
                    Unreachable, inverse_condition, inverse_kinematics,
                    jacobian, platform_stiffness)
from ppmopt.model import DEFAULT_MATERIAL
from ppmopt.performance import DEFAULT_CONTEXT, DexterityConfig, EvalContext

ROOT = Path(__file__).resolve().parent.parent


def _ppmopt_imports(source: str):
    """(module, name) of every `from ppmopt... import name` in source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "ppmopt":
            for alias in node.names:
                yield node.module, alias.name


def test_readme_library_imports_are_exported():
    library = (ROOT / "README.md").read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    names = {name for _, name in _ppmopt_imports(code)}
    assert names and names <= set(ppmopt.__all__), names - set(ppmopt.__all__)


def test_all_holds_no_module():
    assert not [name for name in ppmopt.__all__
                if isinstance(getattr(ppmopt, name), types.ModuleType)]
    star = {}
    exec("from ppmopt import *", star)
    assert "workspace" not in star and "DesignVector" in star


def test_oracles_import_no_private_name():
    oracles = sorted((ROOT / "tests").glob("*_oracle.py"))
    assert len(oracles) >= 4
    for path in oracles:
        for module, name in _ppmopt_imports(path.read_text()):
            parts = (*module.split("."), name)
            assert not any(p.startswith("_") for p in parts), (path.name, module, name)


#: imported but never read: bench/tracing.py hooks them in these modules
TRACER_ONLY_IMPORTS = {("stiffness", "ik_batch"),
                       ("workspace", "characteristic_length")}


def test_every_import_is_read():
    # the package's own imports are read through __all__; the allowlist
    # must name exactly the unread ones, so it cannot go stale
    unread = set()
    for path in sorted((ROOT / "src" / "ppmopt").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        if path.stem == "__init__":
            read |= set(ppmopt.__all__)
        unread |= {(path.stem, name) for name in imported - read}
    assert unread == TRACER_ONLY_IMPORTS


def test_error_classes_pinned():
    # adding or removing an error class must show up here
    assert sorted(name for name in ppmopt.__all__
                  if isinstance(getattr(ppmopt, name), type)
                  and issubclass(getattr(ppmopt, name), Exception)) == [
        "ConfigError", "HomeUnreachable", "InvalidValue", "ModeViolation",
        "PpmError", "SingularStiffness", "Unreachable"]


def test_public_names_pinned():
    # adding or removing a public name must show up here
    assert sorted(ppmopt.__all__) == [
        "AccuracySpec", "ActuatorStiffness", "AnchorLayout", "Architecture",
        "Bounds", "Branch", "ConfigError", "ConstraintReport", "DEFAULT_BOUNDS",
        "DEFAULT_MATERIAL", "DEFAULT_MODE", "DesignVector", "DexterityConfig",
        "EvalContext", "Evaluation", "GridSpec", "HOME_POSE", "HomeUnreachable",
        "InvalidValue", "JacobianPair", "Material", "ModeViolation",
        "MogaConfig", "MogaResult", "ParetoArchive", "Pose", "PpmError",
        "RunConfig", "SingularStiffness", "StiffnessLimits", "Unreachable",
        "WorkingMode", "WorkspaceSpec", "Wrench", "anchor_layout",
        "beam_compliance", "characteristic_length", "decode",
        "default_config_yaml", "dominates", "encode", "evaluate_constraints",
        "evaluate_genome", "evolve", "hypervolume", "inverse_condition",
        "inverse_kinematics", "jacobian", "load_config", "mass",
        "max_regular_workspace_detail", "pareto_filter", "parse_config",
        "per_architecture_fronts", "platform_stiffness", "sobol_doe", "steel",
        "validate", "workspace_feasible"]


#: l_c fixed, so the RPR, singular at its home pose, still has a dexterity
FIXED_LC = EvalContext(dexterity=DexterityConfig(characteristic_length=0.7))


@pytest.mark.parametrize("arch,lengths,pose,error,leg,ctx", [
    (Architecture.PRR, (2.0, 0.8, 0.5), Pose(0.0, 0.6, 0.0), Unreachable, 2,
     FIXED_LC),
    (Architecture.PRR, (2.0, 0.8, 1.5), Pose(0.3077, 0.0, 0.0), ModeViolation,
     2, FIXED_LC),
    (Architecture.RPR, (2.0, 0.8, 1.5), Pose(0.0, -0.4, 0.0), Unreachable, 2,
     FIXED_LC),
    (Architecture.RRR, (2.0, 0.8, 1.5), Pose(0.0, -2.0, 0.0), Unreachable, 2,
     FIXED_LC),
    # the l_c search would fail at the singular home pose; the leg error wins
    (Architecture.RPR, (2.0, 0.8, 1.5), Pose(0.0, 1.0, 0.0), Unreachable, 0,
     DEFAULT_CONTEXT)],
    ids=["prr-unreachable", "prr-out-of-travel", "rpr-unreachable",
         "rrr-unreachable", "rpr-unreachable-searched-lc"])
def test_one_error_per_failing_pose(arch, lengths, pose, error, leg, ctx):
    # every one-pose call raises the same class for the same first leg
    design = DesignVector(arch, *lengths, 0.04, 0.05)
    for call in (lambda: inverse_kinematics(design, pose),
                 lambda: jacobian(design, pose),
                 lambda: inverse_condition(design, pose, ctx),
                 lambda: platform_stiffness(design, pose, DEFAULT_MATERIAL)):
        with pytest.raises(error) as err:
            call()
        assert err.value.leg == leg
