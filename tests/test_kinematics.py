import dataclasses
import math

import numpy as np
import pytest

from chain_oracle import NoConvergence, closure_residuals, forward_refine
from conftest import DESIGN_I, sample_design, sample_pose
from conftest import _same_bytes
from ppmopt.errors import InvalidValue, ModeViolation, Unreachable
from ppmopt.kinematics import (DEFAULT_MODE, Branch, HOME_POSE, Pose,
                               anchor_layout, ik_batch, inverse_kinematics,
                               jacobian, jacobian_batch, wrap_angle)
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

    def test_wrap_angle_keeps_in_range_angles_exactly(self):
        # atan2(sin, cos) moves about 4% of these (-pi, pi] draws by an ulp
        draws = -np.random.default_rng(0).uniform(-math.pi, math.pi, 100_000)
        assert [wrap_angle(v) for v in draws] == list(draws)
        assert [Pose(0.0, 0.0, v).phi for v in draws[:1000]] == list(draws[:1000])
        # angles outside still land in (-pi, pi], whole turns away
        outside = np.random.default_rng(1).uniform(-50.0, 50.0, 10_000)
        outside = np.concatenate([outside[np.abs(outside) > math.pi],
                                  [-math.pi, 3 * math.pi, -3 * math.pi]])
        wrapped = np.array([wrap_angle(v) for v in outside])
        assert ((wrapped > -math.pi) & (wrapped <= math.pi)).all()
        turns = (outside - wrapped) / (2 * math.pi)
        np.testing.assert_allclose(turns, np.round(turns), atol=1e-12)

    @pytest.mark.parametrize("pose", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0),
                                      (0.0, 0.0, -math.inf)])
    def test_non_finite_component_rejected(self, pose):
        with pytest.raises(ValueError, match="finite") as err:
            Pose(*pose)
        field = ("p_x", "p_y", "phi")[[math.isfinite(v) for v in pose].index(False)]
        assert type(err.value) is InvalidValue and err.value.field == field


class TestInverseKinematics:
    def test_rpr_home_strut_is_radius_difference(self):
        d = _design(Architecture.RPR, big_r=2.0, r=0.8, lb=1.5)
        q = inverse_kinematics(d, HOME_POSE)
        np.testing.assert_allclose(q, 2.0 - 0.8, rtol=0.0, atol=1e-12)

    def test_rpr_resubstitution_exact(self, ctx):
        rng = np.random.default_rng(5)
        d = sample_design(rng, Architecture.RPR)
        layout = anchor_layout(d)
        for _ in range(25):
            pose = sample_pose(rng, d)
            q = inverse_kinematics(d, pose)
            rot = np.array([[math.cos(pose.phi), -math.sin(pose.phi)],
                            [math.sin(pose.phi), math.cos(pose.phi)]])
            for i in range(3):
                c = np.array([pose.p_x, pose.p_y]) + rot @ layout.platform_points[i]
                resid = abs(np.linalg.norm(c - layout.base_points[i]) - q[i])
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
        origin = anchor_layout(d).base_points.T
        for branch in (Branch.PLUS, Branch.MINUS):
            bik = ik_batch(d, HOME_POSE.as_array()[None, :], (branch,) * 3)
            assert bik.ok()[0]
            prox = (bik.elbow[..., 0] - origin) / d.link_length
            dx, dy = bik.distal[..., 0]
            # distal link collinear with proximal: zero elbow deflection
            np.testing.assert_allclose(prox[0] * dy - prox[1] * dx, 0.0, atol=1e-7)
            np.testing.assert_allclose(prox[0] * dx + prox[1] * dy, 1.0, atol=1e-7)

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
        with pytest.raises(ModeViolation):
            jacobian(d, seen)

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_resubstitution_closes_the_loop(self, arch):
        rng = np.random.default_rng(29)
        d = sample_design(rng, arch)
        for _ in range(25):
            pose = sample_pose(rng, d)
            q = inverse_kinematics(d, pose)
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
        assert (plus != minus).all()


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
            q = inverse_kinematics(d, pose)
            back = forward_refine(d, q, pose)
            assert np.allclose(back.as_array(), pose.as_array(), atol=1e-8)

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_perturbed_guess_converges(self, arch):
        # PRR and RRR: criterion 06's seed-606 sample, 1000 poses each, all
        # back within 3e-9.  The RPR keeps one pose: from this offset 4 of
        # its 1000 sample poses end up to 1.8e-3 away, each at |det A| >=
        # 4.9e-4, so not at a singularity.  Criterion 06 starts Newton at
        # the exact pose, so it does not see them.
        if arch is Architecture.RPR:
            rng = np.random.default_rng(13)
            d = sample_design(rng, arch)
            samples = [(d, sample_pose(rng, d))]
        else:
            rng = np.random.default_rng(606)
            for drawn in Architecture:     # draws in criterion 06's order
                d = sample_design(rng, drawn)
                poses = [sample_pose(rng, d) for _ in range(1000)]
                if drawn is arch:
                    break
            samples = [(d, pose) for pose in poses]
        for d, pose in samples:
            q = inverse_kinematics(d, pose)
            guess = Pose(pose.p_x + 1e-3, pose.p_y - 1e-3, pose.phi + 1e-3)
            back = forward_refine(d, q, guess)
            assert np.allclose(back.as_array(), pose.as_array(), atol=1e-8)

    def test_singular_configuration_detected(self):
        # fully stretched RRR legs: Newton either diverges or lands on a
        # configuration whose velocity matrices are singular
        d = _design(Architecture.RRR, big_r=2.0, r=0.8, lb=0.6)
        q = inverse_kinematics(d, HOME_POSE)
        try:
            back = forward_refine(d, q, Pose(0.05, -0.04, 0.02))
        except NoConvergence:
            return
        # the landing lies just past full stretch, where jacobian raises
        # for leg 0, so read det B off the batch path
        _, b = jacobian_batch(d, ik_batch(d, back.as_array()))
        assert abs(np.linalg.det(np.diag(b[:, 0]))) < 1e-8


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

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_unreachable_pose_raises_as_ik_does(self, arch):
        # no leg of Design I's geometry reaches 5 m out, so no row of A
        # would be a unit wrench
        d = dataclasses.replace(DESIGN_I, architecture=arch)
        far = Pose(5.0, 0.0, 0.0)
        with pytest.raises(Unreachable) as ik_err:
            inverse_kinematics(d, far)
        with pytest.raises(Unreachable) as jac_err:
            jacobian(d, far)
        assert jac_err.value.leg == ik_err.value.leg == 0


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
        proximal = None
        q = rho
    elif arch is Architecture.PRR:
        u = layout.rail_directions
        s = np.einsum("nij,ij->ni", w, u)
        disc = lb * lb - (np.einsum("nij,nij->ni", w, w) - s * s)
        reachable = disc >= 0.0
        q = s + sign[None, :] * np.sqrt(np.maximum(disc, 0.0))
        elbow = a[None, :, :] + q[:, :, None] * u[None, :, :]
        proximal = None
        distal = (c_world - elbow) / lb
        stroke_ok = (q > 0.0) & (q < layout.rail_length)
    else:
        dist = np.linalg.norm(w, axis=2)
        reachable = (dist <= 2.0 * lb) & (dist > 1e-12)
        spread = np.arccos(np.clip(dist / (2.0 * lb), -1.0, 1.0))
        q = np.arctan2(w[:, :, 1], w[:, :, 0]) + sign[None, :] * spread
        elbow = a[None, :, :] + lb * np.stack([np.cos(q), np.sin(q)], axis=2)
        proximal = elbow - a[None, :, :]
        distal = (c_world - elbow) / lb
        stroke_ok = reachable
    return dict(c_world=c_world, moment=moment, q=q, elbow=elbow,
                proximal=proximal, distal=distal, reachable=reachable,
                stroke_ok=stroke_ok)


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
        got = getattr(bik, name)
        assert (got is None if value is None
                else _same_bytes(got, value.T)), name
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
