"""Design variables, material constants, bounds and the mass objective.

A planar parallel manipulator design is described by one discrete variable
(the architecture) and five continuous lengths, all in meters:

    R    circumradius of the base triangle A1 A2 A3
    r    circumradius of the platform triangle C1 C2 C3
    L_b  intermediate-link length (also the prismatic stroke of the 3-RPR)
    r_j  cross-section radius of the intermediate links
    r_p  cross-section radius of the three platform links

The moving platform is built from three bars of length r joined at its
center, so its mass is three times the single-bar mass.  Only components
in motion count: actuators are fixed to the base and carry no mass here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

from .errors import InvalidValue, OutOfBounds


class Architecture(IntEnum):
    """Planar parallel manipulator family; integer codes are the discrete
    design variable d."""

    PRR = 1  # actuated prismatic on the base, two passive revolutes
    RPR = 2  # passive revolute, actuated prismatic strut, passive revolute
    RRR = 3  # actuated revolute at the base, two passive revolutes

    @property
    def actuator_is_prismatic(self) -> bool:
        return self in (Architecture.PRR, Architecture.RPR)

    @property
    def n_leg_links(self) -> int:
        """Intermediate links per leg (the RRR has two, others one)."""
        return 2 if self is Architecture.RRR else 1


@dataclass(frozen=True)
class DesignVector:
    """One candidate design: (d, R, r, L_b, r_j, r_p)."""

    architecture: Architecture
    base_radius: float      # R  [m]
    platform_radius: float  # r  [m]
    link_length: float      # L_b [m]
    leg_section_radius: float       # r_j [m]
    platform_section_radius: float  # r_p [m]

    def as_tuple(self) -> tuple[int, float, float, float, float, float]:
        return (int(self.architecture), self.base_radius, self.platform_radius,
                self.link_length, self.leg_section_radius,
                self.platform_section_radius)


# Short names (config keys, CSV columns) of the continuous variables, in
# the order they appear in the design vector after d.
SHORT_NAMES = ("R", "r", "L_b", "r_j", "r_p")


@dataclass(frozen=True)
class Bounds:
    """Componentwise box for the five continuous design variables."""

    lower: tuple[float, float, float, float, float]
    upper: tuple[float, float, float, float, float]

    def __post_init__(self):
        for name, lo, hi in zip(SHORT_NAMES, self.lower, self.upper):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValueError(f"bounds for {name} invalid: [{lo}, {hi}]")


#: Default box: R, r, L_b in [0.5, 4] m; r_j, r_p in [0, 0.1] m.
DEFAULT_BOUNDS = Bounds(lower=(0.5, 0.5, 0.5, 0.0, 0.0),
                        upper=(4.0, 4.0, 4.0, 0.1, 0.1))


def check_finite(obj, names: tuple[str, ...], positive: bool = True) -> None:
    """Raise InvalidValue for the first named field of obj that is not
    finite, or with positive not > 0 either.  NaN fails both tests."""
    for name in names:
        value = getattr(obj, name)
        if not (0.0 if positive else -math.inf) < value < math.inf:
            raise InvalidValue(name, "finite and > 0" if positive else "finite",
                               value)


@dataclass(frozen=True)
class Material:
    """Homogeneous isotropic link material."""

    density: float        # nu [kg/m^3]
    young_modulus: float  # E  [N/m^2]
    shear_modulus: float  # G  [N/m^2]

    def __post_init__(self):
        check_finite(self, ("density", "young_modulus", "shear_modulus"))


def steel(density: float = 7850.0, young_modulus: float = 210e9,
          poisson_ratio: float = 0.3) -> Material:
    """Structural steel; G follows from E and the Poisson ratio."""
    if not poisson_ratio > -1.0:
        raise InvalidValue("poisson_ratio", "> -1", poisson_ratio)
    return Material(density=density, young_modulus=young_modulus,
                    shear_modulus=young_modulus / (2.0 * (1.0 + poisson_ratio)))


DEFAULT_MATERIAL = steel()


@dataclass(frozen=True)
class ActuatorStiffness:
    """Lumped 1-dof stiffness of the actuator control loop.

    Not a catalog value; both numbers are run-configuration defaults and
    every report records the values actually used.
    """

    prismatic: float = 1.0e7  # [N/m]
    revolute: float = 1.0e6   # [N*m/rad]

    def __post_init__(self):
        check_finite(self, ("prismatic", "revolute"))

    def for_architecture(self, arch: Architecture) -> float:
        return self.prismatic if arch.actuator_is_prismatic else self.revolute


@dataclass(frozen=True)
class Wrench:
    """External load on the moving platform, at its geometric center."""

    f_x: float = 100.0   # [N]
    f_y: float = 0.0     # [N]
    f_z: float = 100.0   # [N]
    tau_z: float = 100.0 # [N*m]

    def __post_init__(self):
        check_finite(self, ("f_x", "f_y", "f_z", "tau_z"), positive=False)

    @property
    def f_xy(self) -> float:
        return math.hypot(self.f_x, self.f_y)


def validate(design: DesignVector, bounds: Bounds = DEFAULT_BOUNDS) -> DesignVector:
    """Check a design against its box, then reject every length not > 0.

    Returns the design unchanged when acceptable.  A zero section can
    never carry load and a negative length mirrors the design and its
    mass, so both raise InvalidValue even where the box allows them.
    """
    values = design.as_tuple()[1:]
    for name, v, lo, hi in zip(SHORT_NAMES, values, bounds.lower, bounds.upper):
        if not math.isfinite(v) or v < lo or v > hi:
            raise OutOfBounds(name, v, lo, hi)
    for name, v in zip(SHORT_NAMES, values):
        if not v > 0.0:
            raise InvalidValue(name, "> 0", v)
    return design


def link_mass(design: DesignVector, material: Material) -> float:
    """Mass of one intermediate link: a solid rod of radius r_j, length L_b."""
    return math.pi * design.leg_section_radius**2 * design.link_length * material.density


def platform_mass(design: DesignVector, material: Material) -> float:
    """Mass of the moving platform: three bars of length r, radius r_p."""
    return 3.0 * math.pi * design.platform_section_radius**2 \
        * design.platform_radius * material.density


def mass(design: DesignVector, material: Material = DEFAULT_MATERIAL) -> float:
    """Mass in motion [kg]: leg links plus platform.

    The PRR and RPR carry three intermediate links, the RRR six; actuator
    mass is excluded (fixed or base-mounted in all three families).
    """
    n_links = 3 * design.architecture.n_leg_links
    return n_links * link_mass(design, material) + platform_mass(design, material)
