import math

import numpy as np
import pytest

from conftest import sample_design, sample_pose
from conftest import _same_bytes
from ppmopt.errors import ModeViolation, NoConvergence, Unreachable
from ppmopt.kinematics import (DEFAULT_MODE, Branch, HOME_POSE, Pose,
                               anchor_layout, closure_residuals, forward_refine,
                               ik_batch, inverse_kinematics, jacobian,
                               jacobian_batch)
from ppmopt.model import Architecture, DesignVector

SQRT3 = math.sqrt(3.0)


def _design(arch, big_r=2.0, r=0.8, lb=1.5, rj=0.04, rp=0.05):
    return DesignVector(arch, big_r, r, lb, rj, rp)


class TestAnchorLayout:
    def test_base_corner_positions(self):
        layout = anchor_layout(_design(Architecture.RPR, big_r=1.0))
        expected = np.array([[-SQRT3 / 2, -0.5], [SQRT3 / 2, -0.5], [0.0, 1.0]])
        np.testing.assert_allclose(layout.base_points, expected, atol=1e-15)

    def test_side_length_matches_travel_bound(self):
        layout = anchor_layout(_design(Architecture.PRR, big_r=1.7))
        side = np.linalg.norm(layout.base_points[0] - layout.base_points[1])
        assert side == pytest.approx(SQRT3 * 1.7, rel=1e-14)
        assert layout.rail_length == pytest.approx(side, rel=1e-14)

    def test_platform_circumradius(self):
        for arch in Architecture:
            layout = anchor_layout(DesignVector(arch, 1.412, 0.319, 0.62,
                                                0.026, 0.023))
            radii = np.linalg.norm(layout.platform_points, axis=1)
            np.testing.assert_allclose(radii, 0.319, rtol=1e-14)

    def test_c1c2_horizontal(self):
        for arch in Architecture:
            layout = anchor_layout(_design(arch))
            chord = layout.platform_points[1] - layout.platform_points[0]
            assert abs(chord[1]) < 1e-14

    def test_prr_rails_are_triangle_sides(self):
        layout = anchor_layout(_design(Architecture.PRR))
        corners = {tuple(np.round(p, 12)) for p in layout.base_points}
        for start, u in zip(layout.rail_starts, layout.rail_directions):
            assert tuple(np.round(start, 12)) in corners
            end = start + layout.rail_length * u
            assert tuple(np.round(end, 12)) in corners
            assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-14)


class TestPose:
    def test_phi_normalized(self):
        assert Pose(0, 0, 3 * math.pi).phi == pytest.approx(math.pi)
        assert Pose(0, 0, -math.pi / 2).phi == pytest.approx(-math.pi / 2)
        assert -math.pi < Pose(0, 0, 7.5).phi <= math.pi

    @pytest.mark.parametrize("pose", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0),
                                      (0.0, 0.0, -math.inf)])
    def test_non_finite_component_rejected(self, pose):
        with pytest.raises(ValueError, match="finite"):
            Pose(*pose)


class TestInverseKinematics:
    def test_rpr_home_strut_is_radius_difference(self):
        d = _design(Architecture.RPR, big_r=2.0, r=0.8, lb=1.5)
        legs = inverse_kinematics(d, HOME_POSE)
        for leg in legs:
            assert leg.actuated_coordinate == pytest.approx(2.0 - 0.8, abs=1e-12)

    def test_rpr_resubstitution_exact(self, ctx):
        rng = np.random.default_rng(5)
        d = sample_design(rng, Architecture.RPR)
        layout = anchor_layout(d)
        for _ in range(25):
            pose = sample_pose(rng, d)
            legs = inverse_kinematics(d, pose)
            rot = np.array([[math.cos(pose.phi), -math.sin(pose.phi)],
                            [math.sin(pose.phi), math.cos(pose.phi)]])
            for i, leg in enumerate(legs):
                c = np.array([pose.p_x, pose.p_y]) + rot @ layout.platform_points[i]
                resid = abs(np.linalg.norm(c - layout.base_points[i])
                            - leg.actuated_coordinate)
                assert resid <= 1e-12

    def test_rpr_outside_stroke_unreachable(self):
        # home strut R - r = 1.2 exceeds L_b = 1.0
        d = _design(Architecture.RPR, big_r=2.0, r=0.8, lb=1.0)
        with pytest.raises(Unreachable):
            inverse_kinematics(d, HOME_POSE)

    def test_rrr_home_reach_condition(self):
        reachable = _design(Architecture.RRR, big_r=2.0, r=0.8, lb=0.61)
        inverse_kinematics(reachable, HOME_POSE)
        beyond = _design(Architecture.RRR, big_r=2.0, r=0.8, lb=0.59)
        with pytest.raises(Unreachable):
            inverse_kinematics(beyond, HOME_POSE)

    def test_rrr_stretched_at_equality(self):
        d = _design(Architecture.RRR, big_r=2.0, r=0.8, lb=0.6)
        for branch in (Branch.PLUS, Branch.MINUS):
            legs = inverse_kinematics(d, HOME_POSE, (branch,) * 3)
            for leg in legs:
                # distal link collinear with proximal: zero elbow deflection
                assert leg.passive_angles[0] == pytest.approx(0.0, abs=1e-7)

    def test_prr_no_real_root(self):
        d = _design(Architecture.PRR, big_r=2.0, r=0.8, lb=0.3)
        # platform vertex clearance to the rail is R/2 - r = 0.2 < 0.3 at
        # home, but a large offset pulls the vertex beyond the link length
        with pytest.raises(Unreachable):
            inverse_kinematics(d, Pose(0.0, 1.0, 0.0))

    def test_prr_stroke_violation_is_mode_violation(self):
        d = _design(Architecture.PRR, big_r=1.0, r=0.4, lb=3.0)
        # long link keeps legs reachable while the foot runs off the rail
        poses = [Pose(x, 0.0, 0.0) for x in np.linspace(0.0, 3.0, 40)]
        seen = None
        for pose in poses:
            bik = ik_batch(d, pose.as_array()[None, :])
            if bool(bik.reachable[:, 0].all()) and not bool(bik.stroke_ok[:, 0].all()):
                seen = pose
                break
        assert seen is not None
        with pytest.raises(ModeViolation):
            inverse_kinematics(d, seen)

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_resubstitution_closes_the_loop(self, arch):
        rng = np.random.default_rng(29)
        d = sample_design(rng, arch)
        for _ in range(25):
            pose = sample_pose(rng, d)
            legs = inverse_kinematics(d, pose)
            q = np.array([leg.actuated_coordinate for leg in legs])
            res, _ = closure_residuals(d, q, pose.as_array()[None, :])
            assert np.abs(res).max() <= 1e-10

    @pytest.mark.parametrize("arch", [Architecture.PRR, Architecture.RRR])
    def test_branches_give_distinct_solutions(self, arch):
        # the RPR solution is unique, so only two-root families are checked
        rng = np.random.default_rng(7)
        d = sample_design(rng, arch)
        pose = sample_pose(rng, d)
        plus = inverse_kinematics(d, pose, (Branch.PLUS,) * 3)
        minus = inverse_kinematics(d, pose, (Branch.MINUS,) * 3)
        assert all(p.actuated_coordinate != m.actuated_coordinate
                   for p, m in zip(plus, minus))


class TestForwardRefine:
    def test_unclosable_struts_raise_no_convergence(self):
        # 0.1 m RPR struts cannot bridge 2.0 - 0.8 m anchors at any pose
        d = _design(Architecture.RPR, big_r=2.0, r=0.8, lb=1.5)
        with pytest.raises(NoConvergence):
            forward_refine(d, [0.1, 0.1, 0.1], HOME_POSE)

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_round_trip_identity(self, arch):
        rng = np.random.default_rng(11)
        d = sample_design(rng, arch)
        for _ in range(100):
            pose = sample_pose(rng, d)
            legs = inverse_kinematics(d, pose)
            q = [leg.actuated_coordinate for leg in legs]
            back = forward_refine(d, q, pose)
            assert np.allclose(back.as_array(), pose.as_array(), atol=1e-8)

    def test_perturbed_guess_converges(self):
        rng = np.random.default_rng(13)
        d = sample_design(rng, Architecture.PRR)
        pose = sample_pose(rng, d)
        q = [leg.actuated_coordinate for leg in inverse_kinematics(d, pose)]
        guess = Pose(pose.p_x + 1e-3, pose.p_y - 1e-3, pose.phi + 1e-3)
        back = forward_refine(d, q, guess)
        assert np.allclose(back.as_array(), pose.as_array(), atol=1e-8)

    def test_singular_configuration_detected(self):
        # fully stretched RRR legs: Newton either diverges or lands on a
        # configuration whose velocity matrices are singular
        d = _design(Architecture.RRR, big_r=2.0, r=0.8, lb=0.6)
        legs = inverse_kinematics(d, HOME_POSE)
        q = [leg.actuated_coordinate for leg in legs]
        try:
            back = forward_refine(d, q, Pose(0.05, -0.04, 0.02))
        except NoConvergence:
            return
        pair = jacobian(d, back)
        assert abs(np.linalg.det(pair.b_serial)) < 1e-8


class TestJacobian:
    def test_rpr_home_structure(self):
        d = _design(Architecture.RPR, big_r=2.0, r=0.8, lb=1.5)
        pair = jacobian(d, HOME_POSE)
        np.testing.assert_allclose(pair.b_serial, np.eye(3), atol=1e-14)
        layout = anchor_layout(d)
        for i in range(3):
            direction = layout.platform_points[i] - layout.base_points[i]
            direction /= np.linalg.norm(direction)
            np.testing.assert_allclose(pair.a_parallel[i, :2], direction,
                                       atol=1e-12)

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_velocity_loop_matches_ik_differences(self, arch):
        rng = np.random.default_rng(17)
        h = 1e-6
        for _ in range(10):
            d = sample_design(rng, arch)
            pose = sample_pose(rng, d)
            pair = jacobian(d, pose)
            for _ in range(3):
                dt = rng.normal(size=3)
                dt /= np.linalg.norm(dt)
                qp = ik_batch(d, (pose.as_array() + h * dt)[None, :]).q[:, 0]
                qm = ik_batch(d, (pose.as_array() - h * dt)[None, :]).q[:, 0]
                dq = (qp - qm) / 2.0
                resid = pair.a_parallel @ (h * dt) - pair.b_serial @ dq
                assert np.linalg.norm(resid) <= 1e-6 * max(np.linalg.norm(dq), h)

    def test_rrr_stretched_leg_serial_singularity(self):
        d = _design(Architecture.RRR, big_r=2.0, r=0.8, lb=0.6)
        pair = jacobian(d, HOME_POSE)
        assert abs(np.linalg.det(pair.b_serial)) < 1e-10


class TestWorkingModeContinuity:
    @pytest.mark.parametrize("arch", list(Architecture))
    def test_no_root_swaps_along_path(self, arch):
        rng = np.random.default_rng(23)
        steps = np.linspace(0.0, 1.0, 60)
        found = 0
        while found < 3:
            d = sample_design(rng, arch)
            a = sample_pose(rng, d).as_array()
            b = sample_pose(rng, d).as_array()
            path = a[None, :] + steps[:, None] * (b - a)[None, :]
            bik = ik_batch(d, path)
            if not bik.ok().all():
                continue   # segment left the feasible region, redraw
            found += 1
            q = bik.q
            # branch-fixed roots must be the nearest root at every step
            other = ik_batch(d, path, (Branch.MINUS,) * 3).q
            for k in range(1, len(steps)):
                jump = np.abs(q[:, k] - q[:, k - 1])
                swap = np.abs(other[:, k] - q[:, k - 1])
                assert (jump <= swap + 1e-12).all()


def _platform_anchors_stack(layout, poses):
    """The np.stack construction _platform_anchors replaced: its oracle."""
    px, py, phi = poses[:, 0], poses[:, 1], poses[:, 2]
    cphi, sphi = np.cos(phi), np.sin(phi)
    cp = layout.platform_points
    rx = cp[:, 0] * cphi[:, None] - cp[:, 1] * sphi[:, None]
    ry = cp[:, 0] * sphi[:, None] + cp[:, 1] * cphi[:, None]
    c_world = np.stack([px[:, None] + rx, py[:, None] + ry], axis=2)
    return c_world, np.stack([-ry, rx], axis=2)


def _ik_batch_einsum(design, poses, mode):
    """The einsum / norm / stack ik_batch replaced: its oracle, as a dict
    of BatchIK fields."""
    layout = anchor_layout(design)
    arch = design.architecture
    lb = design.link_length
    n = poses.shape[0]
    c_world, moment = _platform_anchors_stack(layout, poses)
    a = layout.base_points if layout.rail_starts is None else layout.rail_starts
    w = c_world - a[None, :, :]
    sign = np.array([b.value for b in mode], dtype=float)
    if arch is Architecture.RPR:
        rho = np.linalg.norm(w, axis=2)
        distal = w / np.maximum(rho, 1e-300)[:, :, None]
        reachable = (rho >= lb / 2.0) & (rho <= lb)
        stroke_ok = reachable
        elbow = np.broadcast_to(a, (n, 3, 2))
        q = rho
    elif arch is Architecture.PRR:
        u = layout.rail_directions
        s = np.einsum("nij,ij->ni", w, u)
        disc = lb * lb - (np.einsum("nij,nij->ni", w, w) - s * s)
        reachable = disc >= 0.0
        q = s + sign[None, :] * np.sqrt(np.maximum(disc, 0.0))
        elbow = a[None, :, :] + q[:, :, None] * u[None, :, :]
        distal = (c_world - elbow) / lb
        stroke_ok = (q > 0.0) & (q < layout.rail_length)
    else:
        dist = np.linalg.norm(w, axis=2)
        reachable = (dist <= 2.0 * lb) & (dist > 1e-12)
        spread = np.arccos(np.clip(dist / (2.0 * lb), -1.0, 1.0))
        q = np.arctan2(w[:, :, 1], w[:, :, 0]) + sign[None, :] * spread
        elbow = a[None, :, :] + lb * np.stack([np.cos(q), np.sin(q)], axis=2)
        distal = (c_world - elbow) / lb
        stroke_ok = reachable
    return dict(c_world=c_world, moment=moment, q=q, elbow=elbow,
                distal=distal, reachable=reachable, stroke_ok=stroke_ok)


def _jacobian_batch_einsum(design, ik):
    """The einsum jacobian_batch replaced: its oracle, on oracle fields."""
    d = ik["distal"]
    amat = np.empty((d.shape[0], 3, 3))
    amat[:, :, :2] = d
    amat[:, :, 2] = np.einsum("nij,nij->ni", d, ik["moment"])
    if design.architecture is Architecture.RPR:
        b = np.ones(d.shape[:2])
    elif design.architecture is Architecture.PRR:
        b = np.einsum("nij,ij->ni", d, anchor_layout(design).rail_directions)
    else:
        lever = ik["elbow"] - anchor_layout(design).base_points[None, :, :]
        b = d[:, :, 1] * lever[:, :, 0] - d[:, :, 0] * lever[:, :, 1]
    return amat, b


def _assert_bytes_equal_oracle(design, poses, mode):
    bik = ik_batch(design, poses, mode)
    ref = _ik_batch_einsum(design, poses, mode)
    assert bik._fields == ("poses", *ref)     # the oracle covers every field
    assert _same_bytes(bik.poses, poses)
    for name, value in ref.items():      # the oracle is poses-first
        assert _same_bytes(getattr(bik, name), value.T), name
    ok = (ref["reachable"] & ref["stroke_ok"]).all(axis=1)
    assert _same_bytes(bik.ok(), ok)
    for got, want in zip(jacobian_batch(design, bik),
                         _jacobian_batch_einsum(design, ref)):
        assert _same_bytes(got, want.T)
    return ok


MIXED_MODE = (Branch.PLUS, Branch.MINUS, Branch.PLUS)


class TestBatchOracle:
    """ik_batch and jacobian_batch give, byte for byte, what their
    einsum / norm / stack forms gave."""

    @pytest.mark.parametrize("mode", [DEFAULT_MODE, MIXED_MODE])
    @pytest.mark.parametrize("arch", list(Architecture))
    def test_bytes_equal_oracle(self, arch, mode):
        rng = np.random.default_rng(41 + arch.value)
        for n in (1, 5, 60, 305, 8649):
            design = sample_design(rng, arch)
            # near home, where some poses reach and others do not
            scale = 0.6 * design.base_radius
            poses = np.column_stack([rng.uniform(-scale, scale, (n, 2)),
                                     rng.uniform(-1.0, 1.0, n)])
            ok = _assert_bytes_equal_oracle(design, poses, mode)
            if n >= 60:
                assert 0 < ok.sum() < n

    @pytest.mark.parametrize("mode", [DEFAULT_MODE, MIXED_MODE])
    @pytest.mark.parametrize("arch", [Architecture.RPR, Architecture.RRR])
    def test_coincident_anchors_bytes_equal_oracle(self, arch, mode):
        # with r = R every C_i sits on its A_i at home: rho = 0 for the
        # RPR, anchor distance 0 for the RRR
        design = _design(arch, big_r=1.0, r=1.0, lb=1.2)
        rng = np.random.default_rng(7)
        poses = np.vstack([np.zeros((1, 3)), rng.uniform(-0.3, 0.3, (4, 3))])
        bik = ik_batch(design, poses, mode)
        w = bik.c_world[..., 0] - anchor_layout(design).base_points.T
        assert not w.any() and not bik.reachable[:, 0].any()
        _assert_bytes_equal_oracle(design, poses, mode)
