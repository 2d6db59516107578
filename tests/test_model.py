import math

import pytest

from conftest import DESIGN_I, DESIGN_II, DESIGN_III, REPORTED, WIDE_BOUNDS
from ppmopt.errors import InvalidValue, OutOfBounds
from ppmopt.model import (ActuatorStiffness, Architecture, Bounds, DEFAULT_BOUNDS,
                          DEFAULT_MATERIAL, SHORT_NAMES, DesignVector, Material,
                          Wrench, link_mass, mass, steel, validate)
from ppmopt.performance import AccuracySpec

NAN = float("nan")


class TestValidate:
    def test_pareto_designs_accepted(self):
        for d in (DESIGN_I, DESIGN_II, DESIGN_III):
            assert validate(d, WIDE_BOUNDS) is d

    def test_default_bounds_match_study_box(self):
        assert DEFAULT_BOUNDS.lower == (0.5, 0.5, 0.5, 0.0, 0.0)
        assert DEFAULT_BOUNDS.upper == (4.0, 4.0, 4.0, 0.1, 0.1)

    def test_out_of_bounds_carries_field(self):
        bad = DesignVector(Architecture.PRR, 4.5, 1.0, 1.0, 0.05, 0.05)
        with pytest.raises(OutOfBounds) as err:
            validate(bad)
        assert err.value.field == "R"

    def test_zero_section_rejected(self):
        bad = DesignVector(Architecture.PRR, 1.0, 1.0, 1.0, 0.0, 0.05)
        with pytest.raises(InvalidValue) as err:
            validate(bad)
        assert err.value.field == "r_j"
        bad = DesignVector(Architecture.PRR, 1.0, 1.0, 1.0, 0.05, 0.0)
        with pytest.raises(InvalidValue) as err:
            validate(bad)
        assert err.value.field == "r_p"

    @pytest.mark.parametrize("field", ["R", "r", "L_b"])
    @pytest.mark.parametrize("value", [-1.0, 0.0])
    def test_nonpositive_length_rejected_inside_box(self, field, value):
        # a box reaching below zero must not let a mirrored design through
        box = Bounds(lower=(-4.0, -4.0, -4.0, 0.0, 0.0),
                     upper=(4.0, 4.0, 4.0, 0.1, 0.1))
        lengths = dict(zip(SHORT_NAMES, (1.0, 1.0, 1.0, 0.05, 0.05)),
                       **{field: value})
        with pytest.raises(InvalidValue) as err:
            validate(DesignVector(Architecture.RRR, *lengths.values()), box)
        assert err.value.field == field

    def test_bounds_ordering_enforced(self):
        with pytest.raises(ValueError):
            Bounds(lower=(1.0, 0.5, 0.5, 0.0, 0.0), upper=(0.5, 4.0, 4.0, 0.1, 0.1))


class TestMass:
    @pytest.mark.parametrize("design,name,rtol", [
        (DESIGN_I, "I", 0.03), (DESIGN_II, "II", 0.02), (DESIGN_III, "III", 0.02)])
    def test_reproduces_reported_values(self, design, name, rtol):
        reported = REPORTED[name][0]
        assert mass(design) == pytest.approx(reported, rel=rtol)

    def test_three_bar_platform_formula(self):
        # m = 3 pi rj^2 Lb nu + 3 pi rp^2 r nu for the single-link legs
        d = DESIGN_I
        nu = DEFAULT_MATERIAL.density
        expected = (3 * math.pi * d.leg_section_radius**2 * d.link_length * nu
                    + 3 * math.pi * d.platform_section_radius**2
                    * d.platform_radius * nu)
        assert mass(d) == pytest.approx(expected, rel=1e-12)

    def test_vanishing_sections(self):
        d = DesignVector(Architecture.RRR, 3.0, 2.0, 3.5, 1e-6, 1e-6)
        assert mass(d) < 1e-3

    def test_rrr_adds_three_link_masses(self):
        prr = DesignVector(Architecture.PRR, 2.0, 1.0, 1.5, 0.04, 0.05)
        rrr = DesignVector(Architecture.RRR, 2.0, 1.0, 1.5, 0.04, 0.05)
        assert mass(rrr) == pytest.approx(
            mass(prr) + 3 * link_mass(prr, DEFAULT_MATERIAL), rel=1e-12)

    def test_prr_rpr_identical(self):
        prr = DesignVector(Architecture.PRR, 2.0, 1.0, 1.5, 0.04, 0.05)
        rpr = DesignVector(Architecture.RPR, 2.0, 1.0, 1.5, 0.04, 0.05)
        assert mass(prr) == mass(rpr)

    @pytest.mark.parametrize("field", ["leg_section_radius",
                                       "platform_section_radius",
                                       "link_length", "platform_radius"])
    def test_strictly_increasing(self, field):
        import dataclasses
        base = DesignVector(Architecture.RPR, 2.0, 1.0, 1.5, 0.04, 0.05)
        prev = mass(base)
        for bump in (1.1, 1.25, 1.6, 2.0):
            d = dataclasses.replace(base, **{field: getattr(base, field) * bump})
            cur = mass(d)
            assert cur > prev
            prev = cur

    def test_steel_rejects_poisson_ratio_at_most_minus_one(self):
        for nu in (-1.0, -2.0, float("nan")):
            with pytest.raises(ValueError):
                steel(poisson_ratio=nu)
        assert steel(poisson_ratio=-0.5).shear_modulus == pytest.approx(210e9)

    def test_density_scaling(self):
        heavy = steel(density=2 * 7850.0)
        assert mass(DESIGN_I, heavy) == pytest.approx(2 * mass(DESIGN_I), rel=1e-12)


class TestPhysicalParameters:
    # zero, negative, NaN and infinite values alike; several once got
    # past validation: a zero or NaN stiffness or modulus zeroed R_w, a
    # zero budget divided by zero, a negative budget flipped the sign of
    # its limit and a NaN made every limit NaN
    @pytest.mark.parametrize("make, field", [
        (lambda: ActuatorStiffness(prismatic=0.0), "prismatic"),
        (lambda: ActuatorStiffness(revolute=NAN), "revolute"),
        (lambda: ActuatorStiffness(prismatic=-1e7), "prismatic"),
        (lambda: ActuatorStiffness(revolute=math.inf), "revolute"),
        (lambda: Material(7850.0, NAN, 80e9), "young_modulus"),
        (lambda: Material(0.0, 210e9, 80e9), "density"),
        (lambda: Material(7850.0, 210e9, -1.0), "shear_modulus"),
        (lambda: steel(young_modulus=NAN), "young_modulus"),
        (lambda: AccuracySpec(delta_xy_max=0.0), "delta_xy_max"),
        (lambda: AccuracySpec(delta_z_max=-1e-3), "delta_z_max"),
        (lambda: AccuracySpec(delta_phiz_max_deg=NAN), "delta_phiz_max_deg"),
        (lambda: Wrench(f_x=NAN), "f_x"),
        (lambda: Wrench(tau_z=math.inf), "tau_z"),
    ], ids=["actuator-zero", "actuator-nan", "actuator-negative",
            "actuator-inf", "modulus-nan", "density-zero", "shear-negative",
            "steel-modulus-nan", "budget-zero", "budget-negative",
            "budget-nan", "wrench-nan", "wrench-inf"])
    def test_rejected_with_field(self, make, field):
        with pytest.raises(InvalidValue) as err:
            make()
        assert err.value.field == field
        assert isinstance(err.value, ValueError)

    def test_signed_and_zero_loads_accepted(self):
        # a wrench is a load, not a magnitude: any finite value is valid
        assert Wrench(f_x=-100.0, f_y=0.0, f_z=-100.0, tau_z=0.0).f_xy == 100.0
