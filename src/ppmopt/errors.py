"""Exception hierarchy for the ppmopt package.

Every failure mode that callers are expected to branch on gets exactly
one class, raised alike wherever it arises.  Every one-pose call solves
its pose through kinematics.solve_pose, so a pose a leg cannot take
raises Unreachable (ModeViolation for a PRR root outside its rail
travel) for the first such leg; a physical parameter outside its domain
raises InvalidValue naming the field.  Anything else surfaces as a plain
ValueError from the offending numpy call.  No solver here iterates to a
tolerance, so none can fail to converge; the Newton forward kinematics
is a test oracle.
"""


class PpmError(Exception):
    """Base class for all ppmopt errors."""


class OutOfBounds(PpmError):
    """A design variable lies outside its allowed range."""

    def __init__(self, field: str, value: float, lo: float, hi: float):
        self.field = field
        self.value = value
        super().__init__(f"{field}={value} outside [{lo}, {hi}]")


class Unreachable(PpmError):
    """Inverse kinematics has no solution for a leg at the requested pose."""

    def __init__(self, leg: int, reason: str = ""):
        self.leg = leg
        super().__init__(f"leg {leg} unreachable" + (f": {reason}" if reason else ""))


class ModeViolation(PpmError):
    """The requested working-mode branch lies outside the joint limits."""

    def __init__(self, leg: int, reason: str = ""):
        self.leg = leg
        super().__init__(f"leg {leg} branch outside joint limits"
                         + (f": {reason}" if reason else ""))


class SingularStiffness(PpmError):
    """The platform stiffness is not invertible or not finite: a parallel
    singularity (det A = 0) or a leg spring without finite compliance."""


class HomeUnreachable(PpmError):
    """The symmetric home pose is outside the manipulator workspace."""


class InvalidValue(PpmError, ValueError):
    """A physical parameter outside its domain; carries the field name."""

    def __init__(self, field: str, rule: str, value: float):
        self.field = field
        super().__init__(f"{field} must be {rule}, got {value!r}")


class ConfigError(PpmError):
    """Run configuration file is malformed; carries the offending key path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
