import math

import pytest

from conftest import DESIGN_I, DESIGN_II, DESIGN_III, REPORTED, WIDE_BOUNDS
from ppmopt.errors import DegenerateSection, OutOfBounds
from ppmopt.model import (Architecture, Bounds, DEFAULT_BOUNDS, DEFAULT_MATERIAL,
                          DesignVector, link_mass, mass, steel, validate)


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
        with pytest.raises(DegenerateSection):
            validate(bad)
        bad = DesignVector(Architecture.PRR, 1.0, 1.0, 1.0, 0.05, 0.0)
        with pytest.raises(DegenerateSection):
            validate(bad)

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
