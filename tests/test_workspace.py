import dataclasses
import math

import numpy as np
import pytest

from conftest import DESIGN_I, DESIGN_II, DESIGN_III
from ppmopt.performance import DexterityConfig, EvalContext
from ppmopt.workspace import (DEFAULT_GRID, GridSpec, WorkspaceSpec, grid_array,
                              grid_points, max_regular_workspace,
                              max_regular_workspace_detail, upper_radius,
                              workspace_feasible)


class TestGridPoints:
    def test_zero_radius_center_only(self):
        poses = grid_points(WorkspaceSpec(0.0), GridSpec(5, 12, 5))
        assert len(poses) == 5
        assert all(p.p_x == 0.0 and p.p_y == 0.0 for p in poses)

    def test_default_count(self):
        poses = grid_points(WorkspaceSpec(0.5), GridSpec(5, 12, 5))
        assert len(poses) == 5 * 12 * 5 + 5

    def test_positions_inside_cylinder(self):
        spec = WorkspaceSpec(0.7, center=(0.2, -0.1, 0.05))
        pts = grid_array(spec, DEFAULT_GRID)
        dist = np.hypot(pts[:, 0] - 0.2, pts[:, 1] + 0.1)
        assert (dist <= 0.7 + 1e-12).all()
        assert dist.max() == pytest.approx(0.7, rel=1e-12)

    def test_orientation_band(self):
        spec = WorkspaceSpec(0.3, center=(0.0, 0.0, 0.1),
                             delta_phi=math.radians(20.0))
        pts = grid_array(spec, DEFAULT_GRID)
        assert pts[:, 2].min() == pytest.approx(0.1 - math.radians(10))
        assert pts[:, 2].max() == pytest.approx(0.1 + math.radians(10))

    def test_deterministic_radial_major_order(self):
        pts = grid_array(WorkspaceSpec(1.0), GridSpec(3, 4, 2))
        radii = np.round(np.hypot(pts[:, 0], pts[:, 1]), 12)
        # center block first, then non-decreasing ring radii
        assert (radii[:2] == 0).all()
        assert (np.diff(radii[2:]) >= -1e-12).all()


class TestWorkspaceFeasible:
    def test_degenerate_cylinder_feasible(self, ctx):
        ok, pose, report = workspace_feasible(DESIGN_I, WorkspaceSpec(0.0),
                                              DEFAULT_GRID, ctx)
        assert ok and pose is None and report is None

    def test_oversized_cylinder_infeasible(self, ctx):
        ok, pose, report = workspace_feasible(DESIGN_I, WorkspaceSpec(2.0),
                                              DEFAULT_GRID, ctx)
        assert not ok
        assert pose is not None and report is not None
        assert not report.overall

    def test_feasibility_monotone_in_radius(self, ctx):
        radii = np.linspace(0.0, 0.5, 10)
        flags = [workspace_feasible(DESIGN_I, WorkspaceSpec(float(r)),
                                    DEFAULT_GRID, ctx)[0] for r in radii]
        # once infeasible, stays infeasible on the scaled grid
        first_bad = flags.index(False) if False in flags else len(flags)
        assert all(flags[:first_bad])
        assert not any(flags[first_bad:])


class TestMaxRegularWorkspace:
    def test_needle_design_has_no_workspace(self, ctx):
        needle = dataclasses.replace(DESIGN_I, leg_section_radius=1e-4)
        assert max_regular_workspace(needle, DEFAULT_GRID, ctx) == 0.0

    def test_design_i_radius_value(self, ctx):
        # honest value under this artifact's defaults; the dexterity cliff
        # sits just inside the serial-singularity reach boundary
        radius = max_regular_workspace(DESIGN_I, DEFAULT_GRID, ctx)
        assert radius == pytest.approx(0.226, abs=0.01)

    def test_bisection_bracket_property(self, ctx):
        tol = 1e-3
        res = max_regular_workspace_detail(DESIGN_I, DEFAULT_GRID, ctx, tol=tol)
        assert res.radius > 0
        assert workspace_feasible(DESIGN_I, WorkspaceSpec(res.radius - tol),
                                  DEFAULT_GRID, ctx)[0]
        assert not workspace_feasible(DESIGN_I, WorkspaceSpec(res.radius + tol),
                                      DEFAULT_GRID, ctx)[0]
        assert res.limiting_pose is not None
        assert not res.limiting_report.overall

    def test_finer_grid_never_larger(self, ctx):
        coarse = max_regular_workspace(DESIGN_I, GridSpec(3, 8, 3), ctx)
        fine = max_regular_workspace(DESIGN_I, GridSpec(6, 16, 6), ctx)
        assert fine <= coarse + 1e-9

    def test_lower_dexterity_threshold_never_smaller(self, ctx):
        loose = EvalContext(dexterity=DexterityConfig(threshold=0.05))
        r_loose = max_regular_workspace(DESIGN_I, DEFAULT_GRID, loose)
        r_tight = max_regular_workspace(DESIGN_I, DEFAULT_GRID, ctx)
        assert r_loose >= r_tight - 1e-9

    def test_result_stable_under_grid_rotation(self, ctx):
        base = max_regular_workspace(DESIGN_I, DEFAULT_GRID, ctx)
        # 120-degree rotations map the symmetric grid onto itself exactly
        for offset in (2 * math.pi / 3, 4 * math.pi / 3):
            rotated = GridSpec(angular_offset=offset)
            assert max_regular_workspace(DESIGN_I, rotated, ctx) == pytest.approx(
                base, abs=1e-12)
        # a generic offset shifts the sampled worst pose by at most a cell
        generic = GridSpec(angular_offset=0.1)
        assert max_regular_workspace(DESIGN_I, generic, ctx) == pytest.approx(
            base, abs=5e-3)

    def test_home_unreachable_returns_zero(self, ctx):
        from ppmopt.model import Architecture, DesignVector
        dead = DesignVector(Architecture.RPR, 2.0, 0.8, 1.0, 0.04, 0.05)
        res = max_regular_workspace_detail(dead, DEFAULT_GRID, ctx)
        assert res.radius == 0.0
        assert math.isnan(res.characteristic_length)

    def test_nan_bisection_tol_rejected(self, ctx):
        # a zero or negative tol would never end the bisection loop
        with pytest.raises(ValueError):
            max_regular_workspace_detail(DESIGN_I, DEFAULT_GRID, ctx, tol=math.nan)

    def test_upper_radius_brackets_reach(self):
        assert upper_radius(DESIGN_I) > 2.0   # far beyond any real workspace

    def test_stiffness_positive_definite_on_feasible_grid(self, ctx):
        import numpy as np
        from ppmopt.kinematics import ik_batch, jacobian_batch
        from ppmopt.stiffness import stiffness_batch
        res = max_regular_workspace_detail(DESIGN_I, DEFAULT_GRID, ctx)
        pts = grid_array(WorkspaceSpec(res.radius), DEFAULT_GRID)
        bik = ik_batch(DESIGN_I, pts)
        k, ok = stiffness_batch(DESIGN_I, bik, jacobian_batch(DESIGN_I, bik),
                                ctx.material, ctx.actuator)
        assert ok.all()
        eig = np.linalg.eigvalsh(0.5 * (k + np.swapaxes(k, 1, 2)))
        assert eig.min() > 0


# Exact R_w and l_c of the published designs at the default context; a
# change that moves them re-pins them and says why in CHANGES.md.  Design
# I's value is the known-red acceptance criterion 07 measurement, pinned
# as measured, not as published.
@pytest.mark.parametrize("design, r_w, l_c", [
    (DESIGN_I, 0.22601429635630865, 0.3524508728878475),
    (DESIGN_II, 0.5550630578440467, 1.798600005296246),
    (DESIGN_III, 1.0374103303182762, 2.7533989497099203),
], ids=["I", "II", "III"])
def test_published_designs_pinned(design, r_w, l_c):
    res = max_regular_workspace_detail(design)
    assert repr(res.radius) == repr(r_w)
    assert repr(res.characteristic_length) == repr(l_c)
