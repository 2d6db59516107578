"""Exception hierarchy for the ppmopt package.

Every failure mode that callers are expected to branch on gets its own
class; anything else surfaces as a plain ValueError from the offending
numpy call.  No solver here iterates to a tolerance, so none can fail
to converge; the Newton forward kinematics is a test oracle.
"""


class PpmError(Exception):
    """Base class for all ppmopt errors."""


class OutOfBounds(PpmError):
    """A design variable lies outside its allowed range."""

    def __init__(self, field: str, value: float, lo: float, hi: float):
        self.field = field
        self.value = value
        super().__init__(f"{field}={value} outside [{lo}, {hi}]")


class DegenerateSection(PpmError):
    """Zero cross-section radius: the design can never carry load."""

    def __init__(self, field: str):
        self.field = field
        super().__init__(f"{field} = 0 gives a zero cross-section")


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


class DegenerateBeam(PpmError):
    """Beam compliance requested for a zero-length or zero-section beam."""


class SingularKinetostatics(PpmError):
    """A leg or the platform has no finite kinetostatic stiffness: its
    passive twists are parallel, the pose is a parallel singularity, or
    the leg cannot reach the pose."""

    def __init__(self, leg: int = -1):
        self.leg = leg
        super().__init__("kinetostatic stiffness is singular"
                         + (f" (leg {leg})" if leg >= 0 else ""))


class SingularStiffness(PpmError):
    """Aggregate stiffness matrix is not invertible."""


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
