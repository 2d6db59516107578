"""Run configuration: one YAML file describes a whole run.

Every value has a documented default (see default_config_yaml / the
print-defaults subcommand); unknown keys are rejected with their dotted
path so typos cannot silently fall back to defaults.  The material
section is all-or-nothing: overriding physics halfway is a config error.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import asdict, dataclass, fields

from .errors import ConfigError, InvalidValue
from .kinematics import Branch, DEFAULT_MODE, WorkingMode
from .model import (ActuatorStiffness, Bounds, DEFAULT_BOUNDS, DEFAULT_MATERIAL,
                    SHORT_NAMES, Material, Wrench, check_counts, steel)
from .moga import MogaConfig
from .performance import (AccuracySpec, DexterityConfig, EvalContext,
                          StiffnessLimits)
from .workspace import (BISECTION_TOL_DEFAULT, CENTER_DEFAULT,
                        DELTA_PHI_DEFAULT, GridSpec, WorkspaceSpec)

_STEEL_POISSON = inspect.signature(steel).parameters["poisson_ratio"].default


@dataclass(frozen=True)
class RunConfig:
    """Everything a batch run needs, resolved to concrete values."""

    bounds: Bounds
    ctx: EvalContext
    grid: GridSpec
    moga: MogaConfig
    center: tuple[float, float, float]
    delta_phi_deg: float      # [deg], total rotation band, as configured
    bisection_tol: float      # [m]
    threads: int = 1
    output_dir: str = "out"

    def __post_init__(self):
        # checked here, not in parse_config, so that command-line overrides
        # applied with dataclasses.replace are checked too
        try:    # WorkspaceSpec owns the center rule and its float form
            center = WorkspaceSpec(0.0, self.center).center
        except InvalidValue:
            raise ConfigError("workspace.center",
                              "must be three finite numbers") from None
        object.__setattr__(self, "center", center)
        for path, ok, rule in (
                ("workspace.delta_phi_deg", 0.0 < self.delta_phi_deg < math.inf,
                 "a finite angle > 0"),
                ("workspace.bisection_tol", 0.0 < self.bisection_tol < math.inf,
                 "a finite length > 0")):
            if not ok:
                raise ConfigError(path, f"must be {rule}")
        try:    # the one count rule: an integer >= 0 (0 = all cores)
            check_counts(self, (("threads", 0),))
        except InvalidValue as exc:
            raise ConfigError("threads", str(exc)) from None

    @property
    def delta_phi(self) -> float:
        """The rotation band in radians [rad]."""
        return math.radians(self.delta_phi_deg)


class _Section:
    """A mapping being consumed key by key; leftovers are config errors."""

    def __init__(self, data, path: str):
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise ConfigError(path or "<root>", "expected a mapping")
        self.data = dict(data)
        self.path = path

    def sub(self, key: str) -> "_Section":
        return _Section(self.data.pop(key, None), self._join(key))

    def take(self, key: str, default, kind=float):
        if key not in self.data:
            return default
        return self._convert(self.data.pop(key), key, kind)

    def require(self, key: str, kind=float):
        if key not in self.data:
            raise ConfigError(self._join(key), "missing required key")
        return self._convert(self.data.pop(key), key, kind)

    def has_any(self) -> bool:
        return bool(self.data)

    def finish(self):
        if self.data:
            stray = self._join(sorted(self.data)[0])
            raise ConfigError(stray, "unknown key")

    def _join(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def _convert(self, value, key: str, kind):
        if kind is None:
            return value
        try:
            if isinstance(value, bool):
                raise ValueError    # no key is a flag; YAML no / off read as 0
            out = kind(value)
            if kind is int and isinstance(value, float) and out != value:
                raise ValueError    # int() would truncate it
            return out
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(self._join(key),
                              f"cannot interpret {value!r} as {kind.__name__}")


def _number_or_null(value):
    return None if value is None else float(value)


def _string(value):
    if not isinstance(value, str):
        raise TypeError
    return value


_number_or_null.__name__ = "a number or null"   # named in _convert's errors
_string.__name__ = "a string"


def _read(sec: _Section, cls, **given):
    """Build the dataclass cls from a section whose keys are its field names.

    Each field not in given is read from the key of the same name,
    defaulting to the field's default and converted to that default's
    type.  Leftover keys are config errors, and so is a value cls
    rejects: every section dataclass raises InvalidValue for it, which
    names the field, so the error carries that field's key path.
    """
    values = {f.name: sec.take(f.name, f.default, type(f.default))
              for f in fields(cls) if f.name not in given}
    try:
        obj = cls(**values, **given)
    except InvalidValue as exc:
        raise ConfigError(sec._join(exc.field), str(exc))
    sec.finish()
    return obj


def _parse_bounds(sec: _Section) -> Bounds:
    lower_sec = sec.sub("lower")
    upper_sec = sec.sub("upper")
    lower = tuple(lower_sec.take(k, d) for k, d in zip(SHORT_NAMES, DEFAULT_BOUNDS.lower))
    upper = tuple(upper_sec.take(k, d) for k, d in zip(SHORT_NAMES, DEFAULT_BOUNDS.upper))
    lower_sec.finish()
    upper_sec.finish()
    sec.finish()
    try:
        return Bounds(lower=lower, upper=upper)
    except InvalidValue as exc:   # reported at the box, which both sides set
        raise ConfigError(sec.path, str(exc))


def _parse_material(sec: _Section) -> Material:
    if not sec.has_any():
        sec.finish()
        return steel()
    density = sec.require("density")
    young = sec.require("young_modulus")
    if "poisson_ratio" in sec.data and "shear_modulus" in sec.data:
        raise ConfigError(sec._join("shear_modulus"),
                          "give poisson_ratio or shear_modulus, not both")
    poisson = sec.take("poisson_ratio", _STEEL_POISSON)
    shear = sec.take("shear_modulus", None)
    sec.finish()
    try:
        return (steel(density, young, poisson) if shear is None
                else Material(density=density, young_modulus=young,
                              shear_modulus=shear))
    except InvalidValue as exc:
        raise ConfigError(sec._join(exc.field), str(exc))


def _parse_mode(value, path: str) -> WorkingMode:
    if value is None:
        return DEFAULT_MODE
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(path, "working mode must be a list of 3 branches")
    out = []
    for i, item in enumerate(value):
        name = str(item).upper()
        if name not in ("PLUS", "MINUS"):
            raise ConfigError(f"{path}[{i}]", f"unknown branch {item!r}")
        out.append(Branch[name])
    return tuple(out)


def parse_config(data: dict | None) -> RunConfig:
    """Validate a parsed YAML mapping into a RunConfig."""
    root = _Section(data, "")

    bounds = _parse_bounds(root.sub("bounds"))
    material = _parse_material(root.sub("material"))
    actuator = _read(root.sub("actuator"), ActuatorStiffness)
    wrench = _read(root.sub("wrench"), Wrench)
    accuracy = _read(root.sub("accuracy"), AccuracySpec)

    dex = root.sub("dexterity")
    lc = dex.take("characteristic_length", DexterityConfig.characteristic_length,
                  kind=_number_or_null)
    dexterity = _read(dex, DexterityConfig, characteristic_length=lc)

    ws = root.sub("workspace")
    delta_phi_deg = ws.take("delta_phi_deg", math.degrees(DELTA_PHI_DEFAULT))
    center_raw = ws.take("center", CENTER_DEFAULT, kind=None)
    if not isinstance(center_raw, (list, tuple)) or len(center_raw) != 3:
        raise ConfigError("workspace.center", "expected [x_c, y_c, phi_c]")
    center = tuple(ws._convert(v, "center", float) for v in center_raw)
    bisection_tol = ws.take("bisection_tol", BISECTION_TOL_DEFAULT)
    grid = _read(ws.sub("grid"), GridSpec)
    ws.finish()

    moga = _read(root.sub("moga"), MogaConfig)
    mode = _parse_mode(root.take("mode", None, kind=None), "mode")
    threads = root.take("threads", RunConfig.threads, int)
    output_dir = root.take("output_dir", RunConfig.output_dir, _string)
    root.finish()

    ctx = EvalContext(material=material, actuator=actuator,
                      limits=StiffnessLimits.from_requirements(wrench, accuracy),
                      dexterity=dexterity, mode=mode)
    return RunConfig(bounds=bounds, ctx=ctx, grid=grid, moga=moga,
                     center=center, delta_phi_deg=delta_phi_deg,
                     bisection_tol=bisection_tol, threads=threads,
                     output_dir=output_dir)


def load_config(path: str | None) -> RunConfig:
    """Load a YAML config file (None -> all defaults)."""
    if path is None:
        return parse_config({})
    import yaml   # only here: a run without a config file never loads it
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}")
    except yaml.YAMLError as exc:
        raise ConfigError(str(path), f"invalid YAML: {exc}")
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(str(path), "top level must be a mapping")
    return parse_config(data)


def _flow(keys, values) -> str:
    return "{" + ", ".join(f"{k}: {v}" for k, v in zip(keys, values)) + "}"


def default_config_yaml() -> str:
    """The full default configuration, as a documented YAML document.

    Every value is rendered from the defaults parse_config falls back to,
    so the document parses back to parse_config({}).
    """
    b, mat, act, w = DEFAULT_BOUNDS, DEFAULT_MATERIAL, ActuatorStiffness(), Wrench()
    acc, dex, mg = AccuracySpec(), DexterityConfig(), MogaConfig()
    grid = asdict(GridSpec())
    lc = "null" if dex.characteristic_length is None else dex.characteristic_length
    return f"""\
# ppmopt run configuration; every key is optional and shown at its default.
bounds:
  lower: {_flow(SHORT_NAMES, b.lower)}   # [m]
  upper: {_flow(SHORT_NAMES, b.upper)}   # [m]
material:            # all-or-nothing override (defaults: structural steel)
  density: {mat.density:<16}# [kg/m^3]
  young_modulus: {mat.young_modulus} # [N/m^2]
  poisson_ratio: {_STEEL_POISSON:<10}# G follows; or give shear_modulus instead, not both
actuator:
  prismatic: {act.prismatic:<14}# [N/m] control-loop stiffness, PRR/RPR
  revolute: {act.revolute:<15}# [N*m/rad], RRR
wrench:                    # service load at the platform center
  f_x: {w.f_x:<20}# [N]
  f_y: {w.f_y}
  f_z: {w.f_z}
  tau_z: {w.tau_z:<18}# [N*m]
accuracy:                  # allowed deflections under the wrench
  delta_xy_max: {acc.delta_xy_max:<11}# [m]
  delta_z_max: {acc.delta_z_max:<12}# [m]
  delta_phiz_max_deg: {acc.delta_phiz_max_deg:<5}# [deg]
dexterity:
  threshold: {dex.threshold:<14}# minimum 1/kappa_F over the workspace
  characteristic_length: {lc:<7}# null = home-optimal search, else [m]
workspace:
  delta_phi_deg: {math.degrees(DELTA_PHI_DEFAULT):<10}# total rotation band of the cylinder
  center: {list(CENTER_DEFAULT)}  # (x_c [m], y_c [m], phi_c [rad])
  bisection_tol: {BISECTION_TOL_DEFAULT:<10}# [m]
  grid: {_flow(grid, grid.values())}
moga:
  population: {mg.population}
  generations: {mg.generations}
  seed: {mg.seed}
mode: [{", ".join(b.name for b in DEFAULT_MODE)}]   # working-mode branch per leg
threads: {RunConfig.threads:<18}# parallel fitness workers; 0 = all cores
output_dir: {RunConfig.output_dir}
"""
