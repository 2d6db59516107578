import dataclasses
import math

import numpy as np
import pytest

from conftest import (DESIGN_I, DESIGN_II, DESIGN_III, REPORTED, _same_bytes,
                      sample_design)
from ppmopt import performance, workspace
from ppmopt.errors import HomeUnreachable, InvalidValue
from ppmopt.kinematics import DEFAULT_MODE, HOME_POSE, Branch, Pose, ik_batch
from ppmopt.model import Architecture, DesignVector
from ppmopt.performance import (DexterityConfig, EvalContext,
                                characteristic_length, constraints_batch)
from ppmopt.runconfig import load_config
from ppmopt.workspace import (DEFAULT_GRID, GridSpec, WorkspaceSpec, grid_array,
                              max_regular_workspace_detail, upper_radius,
                              workspace_feasible)


def _grid_array_loop(spec, grid, phase=0.0):
    """The ring-by-ring construction grid_array replaced: its oracle.  phase
    [rad] rotates the rings; grid_array's rings start at phase 0."""
    xc, yc, pc = spec.center
    phis = np.linspace(pc - spec.delta_phi / 2.0, pc + spec.delta_phi / 2.0,
                       grid.n_orientation)
    blocks = [np.column_stack([np.full(grid.n_orientation, xc),
                               np.full(grid.n_orientation, yc), phis])]
    if spec.radius > 0.0:
        radii = spec.radius * np.arange(1, grid.n_radial + 1) / grid.n_radial
        ang = phase + 2.0 * math.pi * np.arange(grid.n_angular) / grid.n_angular
        for rad in radii:
            xs = xc + rad * np.cos(ang)
            ys = yc + rad * np.sin(ang)
            ring = np.empty((grid.n_angular * grid.n_orientation, 3))
            ring[:, 0] = np.repeat(xs, grid.n_orientation)
            ring[:, 1] = np.repeat(ys, grid.n_orientation)
            ring[:, 2] = np.tile(phis, grid.n_angular)
            blocks.append(ring)
    return np.concatenate(blocks, axis=0)


class TestGridPoints:
    def test_zero_radius_center_only(self):
        poses = grid_array(WorkspaceSpec(0.0), GridSpec(5, 12, 5))
        assert len(poses) == 5
        assert (poses[:, :2] == 0.0).all()

    def test_default_count(self):
        poses = grid_array(WorkspaceSpec(0.5), GridSpec(5, 12, 5))
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


class TestGridArray:
    @pytest.mark.parametrize("spec, grid", [
        (WorkspaceSpec(0.5), DEFAULT_GRID),
        (WorkspaceSpec(0.3), GridSpec(n_radial=1)),
        (WorkspaceSpec(0.7, center=(0.2, -0.1, 0.05)), DEFAULT_GRID),
        (WorkspaceSpec(0.0, center=(0.3, 0.4, -0.2)), DEFAULT_GRID),
        (WorkspaceSpec(1.3, center=(-1.1, 0.6, 0.4), delta_phi=0.7),
         GridSpec(4, 7, 3)),
    ], ids=["default", "one-ring", "offset-center", "radius-0", "mixed"])
    def test_bytes_equal_loop_oracle(self, spec, grid):
        assert _same_bytes(grid_array(spec, grid), _grid_array_loop(spec, grid))

    def test_random_grids_bytes_equal_loop_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            grid = GridSpec(int(rng.integers(1, 9)), int(rng.integers(2, 25)),
                            int(rng.integers(2, 10)))
            radius = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.0, 3.0))
            spec = WorkspaceSpec(radius, tuple(rng.uniform(-2.0, 2.0, 3)),
                                 float(rng.uniform(1e-3, 2.0 * math.pi)))
            assert _same_bytes(grid_array(spec, grid),
                               _grid_array_loop(spec, grid))

    @pytest.mark.parametrize("radius", [0.0, 0.4])
    def test_mutating_a_grid_leaves_the_next_intact(self, radius):
        spec = WorkspaceSpec(radius, center=(0.1, 0.2, 0.3))
        first = grid_array(spec, DEFAULT_GRID)
        expected = first.copy()
        first[:] = 7.0
        assert _same_bytes(grid_array(spec, DEFAULT_GRID), expected)


class TestWorkspaceSpec:
    @pytest.mark.parametrize("radius, delta_phi", [
        (math.nan, 0.3), (-0.1, 0.3), (math.inf, 0.3), (0.0, math.nan),
        (0.0, math.inf), (0.0, 0.0), (0.2, -0.3)])
    def test_invalid_spec_rejected(self, radius, delta_phi):
        with pytest.raises(ValueError) as err:
            WorkspaceSpec(radius, delta_phi=delta_phi)
        # the first bad field is named: the radius, else the band
        bad = "delta_phi" if 0.0 <= radius < math.inf else "radius"
        assert isinstance(err.value, InvalidValue) and err.value.field == bad

    @pytest.mark.parametrize("center", [(math.nan, 0.0, 0.0),
                                        (math.inf, 0.0, 0.0),
                                        (0.0, 0.0, -math.inf),
                                        "abc", 5, (None, 0.0, 0.0),
                                        (True, 0.0, 0.0)])
    def test_non_finite_center_rejected(self, center):
        # a string, a scalar, a None or a bool element is no center
        # either: each names the field, not a bare TypeError
        with pytest.raises(InvalidValue, match="center") as exc:
            WorkspaceSpec(0.1, center=center)
        assert exc.value.field == "center"

    def test_nan_band_rejected_by_search(self, ctx):
        with pytest.raises(ValueError, match="band"):
            max_regular_workspace_detail(DESIGN_I, DEFAULT_GRID, ctx,
                                         delta_phi=math.nan)

    @pytest.mark.parametrize("center", [(0.0, 0.0), (0.0, 0.0, 0.0, 0.0)])
    def test_center_of_wrong_length_rejected(self, center, ctx):
        with pytest.raises(InvalidValue, match="center") as exc:
            WorkspaceSpec(0.1, center=center)
        assert exc.value.field == "center"
        with pytest.raises(InvalidValue, match="center"):
            max_regular_workspace_detail(DESIGN_I, DEFAULT_GRID, ctx,
                                         center=center)

    def test_center_of_any_sequence_kind(self, ctx):
        # a list or ndarray center is kept as a tuple of floats, which the
        # grid layout cache can key on; a RunConfig passes its own through
        centers = [(0.0, 0.0, 0.0), [0.0, 0.0, 0.0], np.zeros(3), [0, 0, 0]]
        for center in centers:
            spec = WorkspaceSpec(0.1, center)
            assert spec.center == (0.0, 0.0, 0.0)
            assert type(spec.center) is tuple
            assert all(type(v) is float for v in spec.center)
            assert workspace_feasible(DESIGN_I, spec, DEFAULT_GRID, ctx).feasible
        cfg = dataclasses.replace(load_config(None), center=[0.0, 0.0, 0.0])
        results = [max_regular_workspace_detail(DESIGN_I, DEFAULT_GRID, ctx,
                                                center=center)
                   for center in centers]
        results.append(max_regular_workspace_detail(
            DESIGN_I, cfg.grid, cfg.ctx, cfg.bisection_tol, cfg.center,
            cfg.delta_phi))
        assert all(res == results[0] for res in results[1:])


class TestGridSpec:
    @pytest.mark.parametrize("kwargs, field", [
        ({"n_radial": -1}, "n_radial"),
        ({"n_angular": None}, "n_angular"),
        ({"n_orientation": math.nan}, "n_orientation"),
        ({"n_radial": 2.5}, "n_radial"),
        ({"n_radial": 0}, "n_radial"),
        ({"n_angular": 12.0}, "n_angular"),
        ({"n_angular": 1}, "n_angular"),
        ({"n_orientation": 1}, "n_orientation"),
        ({"n_orientation": "5"}, "n_orientation")])
    def test_bad_value_rejected_naming_its_field(self, kwargs, field):
        with pytest.raises(InvalidValue, match=field) as exc:
            GridSpec(**kwargs)
        assert exc.value.field == field

    def test_numpy_integers_accepted(self):
        grid = GridSpec(np.int64(3), np.int32(4), np.int64(2))
        assert grid_array(WorkspaceSpec(0.5), grid).shape == (2 * (1 + 3 * 4), 3)


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

    def test_limiting_pose_is_first_failing_row(self, ctx):
        # at this radius only the outer ring leaves the feasible set
        spec = WorkspaceSpec(0.23)
        points = grid_array(spec, DEFAULT_GRID)
        l_c = characteristic_length(DESIGN_I, ctx)
        rows = [constraints_batch(DESIGN_I, row[None, :], ctx, l_c=l_c).report(0)
                for row in points]
        bad = [i for i, r in enumerate(rows) if not r.overall]
        outer = len(points) - DEFAULT_GRID.n_angular * DEFAULT_GRID.n_orientation
        assert bad and min(bad) >= outer
        ok, pose, report = workspace_feasible(DESIGN_I, spec, DEFAULT_GRID,
                                              ctx, l_c=l_c)
        assert not ok
        assert pose == Pose(*points[bad[0]])
        assert report == rows[bad[0]]

    def test_poses_keep_their_grid_rows(self, ctx):
        # atan2(sin, cos) moves about one in six angles in [-0.5, 0.5] rad
        # by an ulp, here the middle of the band
        center = (0.05, -0.03, 0.3)
        for row in grid_array(WorkspaceSpec(0.3, center), DEFAULT_GRID):
            assert _same_bytes(Pose(*row).as_array(), row)
        spec = WorkspaceSpec(2.0, center)
        points = grid_array(spec, DEFAULT_GRID)
        ok, pose, _ = workspace_feasible(DESIGN_II, spec, DEFAULT_GRID, ctx)
        scores = constraints_batch(DESIGN_II, points, ctx)
        first = points[np.flatnonzero(~scores.overall)[0]]
        assert not ok
        assert math.atan2(math.sin(first[2]), math.cos(first[2])) != first[2]
        assert _same_bytes(pose.as_array(), first)

    def test_one_ik_per_probe(self, ctx, monkeypatch):
        # Design III's final failing radius is decided by the reach gate in
        # a step that runs no kernel; its l_c comes from the radius-0 IK, so
        # no home IK shows.  Above radius 0 every step probes sectors: one
        # IK over the sectors of its midpoint and of both next midpoints,
        # then one kernel call over all of that IK's rows if any sector
        # passes its gate
        events, grids, passed = [], [], []
        feasible, batch, ik = (workspace.workspace_feasible,
                               workspace.constraints_batch,
                               performance.ik_batch)

        def counted_feasible(*args, **kwargs):
            events.append(("probe", args[1].radius))
            return feasible(*args, **kwargs)

        def counted_batch(*args, **kwargs):
            events.append(("batch", len(args[1])))
            grids.append(args[1])
            return batch(*args, **kwargs)

        def counted_ik(*args, **kwargs):
            bik = ik(*args, **kwargs)
            events.append(("ik", len(args[1])))
            grids.append(args[1])
            passed.append(bik.ok())
            return bik

        monkeypatch.setattr(workspace, "workspace_feasible", counted_feasible)
        monkeypatch.setattr(workspace, "constraints_batch", counted_batch)
        monkeypatch.setattr(performance, "ik_batch", counted_ik)
        tol = 1e-3
        res = max_regular_workspace_detail(DESIGN_III, DEFAULT_GRID, ctx, tol=tol)
        assert res.radius > 0.0
        sector = _sector_rows(DEFAULT_GRID)
        n = len(sector)
        assert n == 105
        # the search scores the ungated radius-0 IK itself, which also
        # serves l_c; no sector ties, so workspace_feasible is never called
        assert events[:2] == [("ik", 6), ("batch", 6)]
        assert not any(kind == "probe" for kind, _ in events)
        # the bracket is never probed: the first step solves the sectors of
        # its midpoint and of both next midpoints, bit for bit the rows of
        # their full grids
        hi = upper_radius(DESIGN_III)
        mid = 0.5 * hi
        first = np.concatenate([
            grid_array(WorkspaceSpec(r), DEFAULT_GRID)[sector]
            for r in (mid, 0.5 * mid, 0.5 * (mid + hi))])
        assert _same_bytes(grids[2], first)
        # each step: one IK over one to three sectors, then one kernel call
        # over all of its rows if any sector's gate passed, none otherwise
        k, kinds, gated = 2, [], []
        while k < len(events) and events[k][0] == "ik":
            rows = events[k][1]
            gates = passed[len(kinds) + 1].reshape(-1, n).all(axis=1)
            assert rows in (n, 2 * n, 3 * n)
            if gates.any():
                assert events[k + 1] == ("batch", rows)
                assert _same_bytes(grids[k + 1], grids[k])
                kinds.append("all passed" if gates.all() else "mixed")
            else:
                kinds.append("all gated")
                gated += [grids[k][j:j + n] for j in range(0, rows, n)]
            k += 1 + gates.any()
        # the final failing sector has no scores, so the last calls score
        # it alone, once: one of a gated step's sectors, bit for bit, whose
        # outer ring lies in (R_w, R_w + tol]
        assert events[k:] == [("batch", n), ("ik", n)]
        assert _same_bytes(grids[-2], grids[-1])
        assert any(_same_bytes(g, grids[-1]) for g in gated)
        outer = np.hypot(*grids[-1][:, :2].T).max()
        assert res.radius < outer <= res.radius + tol + 1e-12
        assert not passed[-1].all()
        # two bisection levels per step: half the one-probe-at-a-time count
        levels, width = 0, hi
        while width > tol:
            levels, width = levels + 1, 0.5 * width
        assert len(kinds) == (levels + 1) // 2
        assert "mixed" in kinds and "all gated" in kinds


def _sector_rows(grid):
    """Row numbers of the sector in the full grid: the center block, then
    ring directions 0 .. n_angular/3 - 1 of every ring, in grid order."""
    n_o = grid.n_orientation
    rows = np.arange(n_o * (1 + grid.n_radial * grid.n_angular))
    rings = rows[n_o:].reshape(grid.n_radial, grid.n_angular, n_o)
    return np.concatenate([rows[:n_o],
                           rings[:, :grid.n_angular // 3].ravel()])


def _ungated_search(design, ctx, center, tol=workspace.BISECTION_TOL_DEFAULT,
                    grid=DEFAULT_GRID, phase=0.0):
    """The bisection without the reach gate, every probe scoring its whole
    grid, built by _grid_array_loop with its rings rotated by phase: the
    reference the gated search must reproduce at phase 0.  Returns (R_w,
    limiting pose, its report, final failing radius)."""
    try:
        l_c = characteristic_length(design, ctx)
    except HomeUnreachable:
        l_c = math.nan

    def probe(radius):
        points = _grid_array_loop(WorkspaceSpec(radius, center), grid, phase)
        res = constraints_batch(design, points, ctx, l_c=l_c)
        bad = np.flatnonzero(~res.overall)
        if bad.size:
            return False, Pose(*points[bad[0]]), res.report(int(bad[0]))
        return True, None, None

    ok, pose, report = probe(0.0)
    if not ok:
        return 0.0, pose, report, 0.0
    lo, hi = 0.0, upper_radius(design)
    ok, pose, report = probe(hi)
    if ok:
        return hi, None, None, hi
    limiting = (pose, report)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        ok, pose, report = probe(mid)
        if ok:
            lo = mid
        else:
            hi, limiting = mid, (pose, report)
    return lo, limiting[0], limiting[1], hi


def _reach_gate_fails(design, ctx, center, radius, grid=DEFAULT_GRID):
    points = grid_array(WorkspaceSpec(radius, center), grid)
    return not ik_batch(design, points, ctx.mode).ok().all()


def test_reach_gate_matches_ungated_search(ctx):
    rng = np.random.default_rng(3)
    archs = list(Architecture)
    cases = [(d, workspace.CENTER_DEFAULT) for d in (DESIGN_I, DESIGN_II, DESIGN_III)]
    cases += [(sample_design(rng, archs[i % 3]),
               ((0.0, 0.0, 0.0), (0.05, -0.03, 0.2))[i // 3 % 2])
              for i in range(30)]
    gated_final = reached = 0
    for design, center in cases:
        res = max_regular_workspace_detail(design, DEFAULT_GRID, ctx, center=center)
        r_w, pose, report, hi = _ungated_search(design, ctx, center)
        assert repr(res.radius) == repr(r_w)
        assert repr(res.limiting_pose) == repr(pose)
        assert repr(res.limiting_report) == repr(report)
        if r_w > 0.0:
            reached += 1
            gated_final += pose is not None and _reach_gate_fails(
                design, ctx, center, hi)
    # the sample exercises both the search and the canonical re-score
    assert reached >= 10 and gated_final >= 2


@pytest.mark.parametrize("center, grid, mode, rows", [
    ((0.0, 0.0, 0.3), DEFAULT_GRID, DEFAULT_MODE, 105),
    ((0.0, 0.0, 0.0), DEFAULT_GRID, (Branch.MINUS,) * 3, 105),
    ((0.05, -0.03, 0.2), DEFAULT_GRID, DEFAULT_MODE, 305),
    ((0.0, 0.0, 0.0), DEFAULT_GRID, (Branch.PLUS, Branch.MINUS, Branch.PLUS),
     305),
    ((0.0, 0.0, 0.0), GridSpec(5, 10, 5), DEFAULT_MODE, 255),
], ids=["sector", "sector-minus", "off-origin", "mixed-mode", "grid-10"])
def test_search_matches_one_probe_at_a_time(monkeypatch, center, grid, mode,
                                            rows):
    # probes score the sector only at x_c = y_c = 0, with one branch for
    # every leg and n_angular a multiple of 3, and full grids otherwise
    # (rows per grid), one per IK call; at any lookahead depth, R_w, the
    # limiting pose and its report equal those of the reference bisection
    ctx = EvalContext(mode=mode)
    rng = np.random.default_rng(31)
    designs = [DESIGN_I, DESIGN_II, DESIGN_III]
    designs += [sample_design(rng, arch) for arch in Architecture
                for _ in range(4)]
    refs = [_ungated_search(design, ctx, center, grid=grid)[:3]
            for design in designs]
    sizes, ik = [], performance.ik_batch

    def counted_ik(*args, **kwargs):
        sizes.append(len(args[1]))
        return ik(*args, **kwargs)

    monkeypatch.setattr(performance, "ik_batch", counted_ik)
    for design, ref in zip(designs, refs):
        for depth in (1, 2, 3):
            monkeypatch.setattr(workspace, "LOOKAHEAD", depth)
            res = max_regular_workspace_detail(design, grid, ctx, center=center)
            assert repr((res.radius, res.limiting_pose, res.limiting_report)) \
                == repr(ref), (design, depth)
    reached = sum(r_w > 0.0 for r_w, _, _ in refs)
    # every IK above radius 0 solves whole grids of that size; sectors
    # several at once, full grids one at a time whatever the depth
    probed = [n for n in sizes if n != grid.n_orientation + 1]
    assert reached >= 3 and probed and all(n % rows == 0 for n in probed)
    full = grid.n_orientation * (1 + grid.n_radial * grid.n_angular)
    assert max(probed) == rows if rows == full else max(probed) > rows


def test_tied_sector_row_scores_its_full_grid(monkeypatch):
    # Design I's first reachable probe, with the k_xy limit set to the
    # least k_xy of its sector: a 120-degree image of that row reads a few
    # ulps lower, so the sector alone would pass where the full grid
    # fails.  The tie sends that probe to its full grid, and the search
    # still equals the reference
    default = EvalContext()
    lo, hi = 0.0, upper_radius(DESIGN_I)
    while _reach_gate_fails(DESIGN_I, default, workspace.CENTER_DEFAULT,
                            0.5 * (lo + hi)):
        hi = 0.5 * (lo + hi)
    radius = 0.5 * (lo + hi)
    kxy = constraints_batch(DESIGN_I, grid_array(WorkspaceSpec(radius),
                                                 DEFAULT_GRID), default).kxy
    limit = kxy[_sector_rows(DEFAULT_GRID)].min()
    assert kxy.min() < limit
    ctx = dataclasses.replace(default, limits=dataclasses.replace(
        default.limits, k_xy=float(limit)))
    probes, feasible = [], workspace.workspace_feasible

    def counted_feasible(*args, **kwargs):
        probes.append(args[1].radius)
        return feasible(*args, **kwargs)

    monkeypatch.setattr(workspace, "workspace_feasible", counted_feasible)
    res = max_regular_workspace_detail(DESIGN_I, DEFAULT_GRID, ctx)
    assert radius in probes and res.radius < radius
    r_w, pose, report, _ = _ungated_search(DESIGN_I, ctx,
                                           workspace.CENTER_DEFAULT)
    assert repr((res.radius, res.limiting_pose, res.limiting_report)) == \
        repr((r_w, pose, report))


def test_tied_gated_sector_of_a_mixed_step_scores_its_full_grid(monkeypatch):
    # Design III's second step solves three sectors: its midpoint's fails
    # the reach gate and another passes, so the step runs its kernel and
    # the walk decides the gated midpoint through the tie test too.  With
    # the k_xy limit set to the least k_xy of that sector's usable rows,
    # its center block among them, radius 0 still passes and the first
    # step, all gated, runs no kernel; the tie then sends the midpoint to
    # its full grid, and the search still equals the reference
    n = len(_sector_rows(DEFAULT_GRID))
    radii, iks, probes = [], [], []
    grids, ik, feasible = (workspace._grids, performance.ik_batch,
                           workspace.workspace_feasible)

    def counted_grids(mids, *args):
        radii.append(list(mids))
        return grids(mids, *args)

    def counted_ik(*args, **kwargs):
        iks.append(ik(*args, **kwargs))
        return iks[-1]

    def counted_feasible(*args, **kwargs):
        probes.append(args[1].radius)
        return feasible(*args, **kwargs)

    monkeypatch.setattr(workspace, "_grids", counted_grids)
    monkeypatch.setattr(performance, "ik_batch", counted_ik)
    monkeypatch.setattr(workspace, "workspace_feasible", counted_feasible)
    default = EvalContext()
    max_regular_workspace_detail(DESIGN_III, DEFAULT_GRID, default)
    assert not probes
    assert not iks[1].ok().reshape(-1, n).all(axis=1).any()  # all gated
    step, mid = iks[2], radii[1][0]
    gates = step.ok().reshape(-1, n).all(axis=1)
    assert len(gates) == 3 and not gates[0] and gates.any()
    usable = step.ok()[:n]
    assert usable[:DEFAULT_GRID.n_orientation].all()
    kxy = constraints_batch(DESIGN_III, step.poses[:n], default).kxy
    ctx = dataclasses.replace(default, limits=dataclasses.replace(
        default.limits, k_xy=float(kxy[usable].min())))
    radii.clear()
    res = max_regular_workspace_detail(DESIGN_III, DEFAULT_GRID, ctx)
    assert radii[1][0] == mid and probes[0] == mid
    r_w, pose, report, _ = _ungated_search(DESIGN_III, ctx,
                                           workspace.CENTER_DEFAULT)
    assert repr((res.radius, res.limiting_pose, res.limiting_report)) == \
        repr((r_w, pose, report))


def test_home_row_fold_matches_lc_resolved_first():
    # the search takes l_c from its radius-0 kernel pass; the reference
    # resolves it first with characteristic_length and scores every probe
    # whole (_ungated_search): l_c, R_w, limiting pose and report must
    # agree bit for bit
    rng = np.random.default_rng(23)
    default, even = DEFAULT_GRID, GridSpec(5, 12, 4)
    rotated = (0.05, -0.03, 0.3)
    searched = EvalContext()
    fixed = EvalContext(dexterity=DexterityConfig(characteristic_length=0.5))
    needle = dataclasses.replace(DESIGN_I, leg_section_radius=1e-4)
    dead = DesignVector(Architecture.RPR, 2.0, 0.8, 1.0, 0.04, 0.05)
    designs = [DESIGN_I, DESIGN_II, DESIGN_III]
    designs += [sample_design(rng, arch) for arch in Architecture for _ in range(2)]
    cases = [(d, default, workspace.CENTER_DEFAULT, searched) for d in designs]
    cases += [(d, grid, center, ctx)
              for d in (DESIGN_I, designs[-1], needle, dead)
              for grid, center, ctx in ((default, rotated, searched),
                                        (even, workspace.CENTER_DEFAULT, searched),
                                        (default, workspace.CENTER_DEFAULT, fixed))]
    # singular at home (dexterity 0 there) yet R_w > 0 around a rotated
    # center: the failing home row must stay out of the verdict
    singular = DesignVector(Architecture.RPR, 2.0, 0.8, 1.5, 0.04, 0.05)
    cases.append((singular, default, rotated, fixed))
    appended_at_zero = unreachable = home_fails_inside = 0
    for design, grid, center, ctx in cases:
        try:
            l_c = characteristic_length(design, ctx)
        except HomeUnreachable:
            l_c = math.nan
        res = max_regular_workspace_detail(design, grid, ctx, center=center)
        assert _same_bytes(np.float64(res.characteristic_length), np.float64(l_c))
        r_w, pose, report, _ = _ungated_search(design, ctx, center, grid=grid)
        assert repr(res.radius) == repr(r_w)
        assert repr(res.limiting_pose) == repr(pose)
        assert repr(res.limiting_report) == repr(report)
        # the radius-0 block ends in the home row, whose report is the
        # home report (that the R_w = 0 minima of ppmopt evaluate leave
        # it out is test_cli's test_workspace_minima_match_full_grid_at_r_w)
        block, *_ = workspace._grid_layout(grid, center,
                                           workspace.DELTA_PHI_DEFAULT)
        assert _same_bytes(block[-1], HOME_POSE.as_array())
        appended_at_zero += r_w == 0.0
        home = constraints_batch(design, HOME_POSE.as_array()[None, :], ctx,
                                 l_c=res.characteristic_length).report(0)
        assert repr(res.home) == repr(home)
        unreachable += math.isnan(l_c)
        home_fails_inside += r_w > 0.0 and not res.home.overall
    assert appended_at_zero >= 3 and unreachable >= 2 and home_fails_inside >= 1


class TestMaxRegularWorkspace:
    def test_needle_design_has_no_workspace(self, ctx):
        needle = dataclasses.replace(DESIGN_I, leg_section_radius=1e-4)
        assert max_regular_workspace_detail(needle, DEFAULT_GRID,
                                            ctx).radius == 0.0

    def test_design_i_radius_value(self, ctx):
        # honest value under this artifact's defaults; the dexterity cliff
        # sits just inside the serial-singularity reach boundary
        radius = max_regular_workspace_detail(DESIGN_I, DEFAULT_GRID, ctx).radius
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
        coarse = max_regular_workspace_detail(DESIGN_I, GridSpec(3, 8, 3),
                                              ctx).radius
        fine = max_regular_workspace_detail(DESIGN_I, GridSpec(6, 16, 6),
                                            ctx).radius
        assert fine <= coarse + 1e-9

    def test_lower_dexterity_threshold_never_smaller(self, ctx):
        loose = EvalContext(dexterity=DexterityConfig(threshold=0.05))
        r_loose = max_regular_workspace_detail(DESIGN_I, DEFAULT_GRID,
                                               loose).radius
        r_tight = max_regular_workspace_detail(DESIGN_I, DEFAULT_GRID,
                                               ctx).radius
        assert r_loose >= r_tight - 1e-9

    def test_result_stable_under_grid_rotation(self, ctx):
        base = max_regular_workspace_detail(DESIGN_I, DEFAULT_GRID, ctx).radius

        def rotated(phase):
            return _ungated_search(DESIGN_I, ctx, workspace.CENTER_DEFAULT,
                                   phase=phase)[0]

        assert rotated(0.0) == base
        # 120-degree rotations map the symmetric grid onto itself exactly
        for offset in (2 * math.pi / 3, 4 * math.pi / 3):
            assert rotated(offset) == pytest.approx(base, abs=1e-12)
        # a generic offset shifts the sampled worst pose by at most a cell
        assert rotated(0.1) == pytest.approx(base, abs=5e-3)

    def test_home_unreachable_returns_zero(self, ctx):
        from ppmopt.model import Architecture, DesignVector
        dead = DesignVector(Architecture.RPR, 2.0, 0.8, 1.0, 0.04, 0.05)
        res = max_regular_workspace_detail(dead, DEFAULT_GRID, ctx)
        assert res.radius == 0.0
        assert math.isnan(res.characteristic_length)

    def test_nan_bisection_tol_rejected(self, ctx):
        # a zero or negative tol would never end the bisection loop
        with pytest.raises(ValueError) as err:
            max_regular_workspace_detail(DESIGN_I, DEFAULT_GRID, ctx, tol=math.nan)
        assert type(err.value) is InvalidValue and err.value.field == "tol"

    def test_upper_radius_brackets_reach(self):
        assert upper_radius(DESIGN_I) > 2.0   # far beyond any real workspace
        # the search never probes its bracket: no grid there is wholly
        # reachable, whatever the architecture, center, modes or grid
        rng = np.random.default_rng(11)
        designs = [DESIGN_I, DESIGN_II, DESIGN_III]
        designs += [sample_design(rng, arch) for arch in Architecture
                    for _ in range(20)]
        grids = (GridSpec(1, 2, 2), GridSpec(2, 3, 2), DEFAULT_GRID)
        for design in designs:
            offset = rng.uniform(-0.5, 0.5, 2) * design.base_radius
            centers = (workspace.CENTER_DEFAULT, (0.0, 0.0, 0.3),
                       (*offset, rng.uniform(-math.pi, math.pi)))
            mixed = tuple(Branch.MINUS if b else Branch.PLUS
                          for b in rng.integers(0, 2, 3))
            for center in centers:
                for mode in (DEFAULT_MODE, mixed):
                    for grid in grids:
                        spec = WorkspaceSpec(upper_radius(design), center)
                        bik = ik_batch(design, grid_array(spec, grid), mode)
                        assert not bik.ok().all()

    def test_tol_wider_than_bracket_scores_the_bracket(self, ctx):
        # no probe runs, so the final failing grid is the bracket's own
        hi = upper_radius(DESIGN_I)
        res = max_regular_workspace_detail(DESIGN_I, DEFAULT_GRID, ctx, tol=hi)
        at_hi = workspace_feasible(DESIGN_I, WorkspaceSpec(hi), DEFAULT_GRID, ctx)
        assert res.radius == 0.0 and not at_hi.feasible
        assert res.limiting_pose == at_hi.pose
        assert res.limiting_report == at_hi.report

    def test_stiffness_positive_definite_on_feasible_grid(self, ctx):
        import numpy as np
        from ppmopt.kinematics import ik_batch, jacobian_batch
        from ppmopt.stiffness import stiffness_batch, stiffness_matrix
        res = max_regular_workspace_detail(DESIGN_I, DEFAULT_GRID, ctx)
        pts = grid_array(WorkspaceSpec(res.radius), DEFAULT_GRID)
        bik = ik_batch(DESIGN_I, pts)
        jac = jacobian_batch(DESIGN_I, bik)
        legs, ok = stiffness_batch(DESIGN_I, bik, jac, ctx.material, ctx.actuator)
        assert ok.all()
        k = stiffness_matrix(jac[0], legs)
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


def test_feasible_at_every_radius_below_r_w(ctx):
    # the bisection assumes feasibility is monotone in the radius: every
    # cylinder inside the returned one passes, at the design's own l_c
    rng = np.random.default_rng(0)
    cases = [(d, max_regular_workspace_detail(d, DEFAULT_GRID, ctx))
             for d in (DESIGN_I, DESIGN_II, DESIGN_III)]
    wanted = {Architecture.PRR: 2, Architecture.RRR: 2}
    while any(wanted.values()):
        arch = max(wanted, key=wanted.get)
        design = sample_design(rng, arch)
        res = max_regular_workspace_detail(design, DEFAULT_GRID, ctx)
        if res.radius > 0.0:
            cases.append((design, res))
            wanted[arch] -= 1
    for design, res in cases:
        assert res.radius > 0.0
        for radius in np.linspace(0.0, res.radius, 26)[1:]:
            probe = workspace_feasible(design, WorkspaceSpec(float(radius)),
                                       DEFAULT_GRID, ctx,
                                       l_c=res.characteristic_length)
            assert probe.feasible, (design, radius, probe.report)


G_FLAGS = ("g1_geometry", "g2_stroke", "g3_dexterity", "g4_kxy", "g5_kz",
           "g6_kphiz", "ik_reachable")


@pytest.mark.parametrize("name, design, failed", [
    ("I", DESIGN_I, {"g3_dexterity"}),
    ("II", DESIGN_II, {"g2_stroke", "g3_dexterity", "g4_kxy", "g5_kz", "g6_kphiz"}),
    ("III", DESIGN_III, {"g2_stroke", "g3_dexterity", "g4_kxy", "g5_kz", "g6_kphiz"}),
], ids=["I", "II", "III"])
def test_published_design_fidelity(ctx, name, design, failed):
    # a report, not a gate on the gap: the measured R_w is printed beside
    # the published one; only the limiting flags are asserted (a stroke
    # failure zeroes the kernel flags g3-g6 with it)
    res = max_regular_workspace_detail(design, DEFAULT_GRID, ctx)
    flags = {f for f in G_FLAGS if not getattr(res.limiting_report, f)}
    print(f"[FIDELITY {name}] R_w measured {res.radius:.4f} m, reported "
          f"{REPORTED[name][1]:.3f} m; limiting flags {', '.join(sorted(flags))}")
    assert flags == failed
