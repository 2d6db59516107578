import dataclasses
import math

import numpy as np
import pytest

from chain_oracle import N_SPRINGS, fd_screws
from conftest import sample_design, sample_pose
from kkt_oracle import kkt_indices, kkt_leg_stiffness, kkt_platform_stiffness
from ppmopt.errors import (InvalidValue, ModeViolation, SingularStiffness,
                           Unreachable)
from ppmopt.kinematics import HOME_POSE, Pose, adjugate_batch, ik_batch, jacobian_batch
from ppmopt.model import (ActuatorStiffness, Architecture, DEFAULT_MATERIAL,
                          DesignVector, Material)
from ppmopt.performance import DexterityConfig, EvalContext, constraints_batch
from ppmopt.stiffness import (DEFAULT_ACTUATOR, IN_PLANE, OUT_OF_PLANE,
                              beam_compliance, platform_stiffness,
                              stiffness_batch, stiffness_indices_batch,
                              stiffness_matrix)
from screw_oracle import leg_model, leg_models_batch

E = DEFAULT_MATERIAL.young_modulus


class TestBeamCompliance:
    def test_axial_entry(self):
        # L/(E A) with A = pi r^2; frozen from direct evaluation
        c = beam_compliance(1.0, 0.026, DEFAULT_MATERIAL)
        assert c[0, 0] == pytest.approx(1.0 / (210e9 * math.pi * 0.026**2),
                                        rel=1e-12)
        assert c[0, 0] == pytest.approx(2.2422505366567392e-09, rel=1e-12)

    @pytest.mark.parametrize("length", [0.1, 1.0, 4.0])
    @pytest.mark.parametrize("radius", [0.01, 0.05, 0.1])
    def test_cantilever_tip_deflection(self, length, radius):
        c = beam_compliance(length, radius, DEFAULT_MATERIAL)
        i_bend = math.pi * radius**4 / 4.0
        assert c[1, 1] == pytest.approx(length**3 / (3 * E * i_bend), rel=1e-12)
        assert c[2, 2] == pytest.approx(length**3 / (3 * E * i_bend), rel=1e-12)

    def test_symmetry_and_bend_block_determinant(self):
        c = beam_compliance(0.7, 0.03, DEFAULT_MATERIAL)
        np.testing.assert_allclose(c, c.T, rtol=0, atol=0)
        i_bend = math.pi * 0.03**4 / 4.0
        block = c[np.ix_([1, 5], [1, 5])]      # (dy, dphi_z) coupling
        assert np.linalg.det(block) == pytest.approx(
            0.7**4 / (12 * E**2 * i_bend**2), rel=1e-12)
        assert np.all(np.linalg.eigvalsh(c) > 0)

    def test_torsion_uses_shear_modulus(self):
        c = beam_compliance(1.0, 0.05, DEFAULT_MATERIAL)
        i_tors = math.pi * 0.05**4 / 2.0
        assert c[3, 3] == pytest.approx(
            1.0 / (DEFAULT_MATERIAL.shear_modulus * i_tors), rel=1e-12)

    def test_bend_coupling_signs(self):
        c = beam_compliance(1.0, 0.05, DEFAULT_MATERIAL)
        assert c[1, 5] > 0 and c[5, 1] > 0
        assert c[2, 4] < 0 and c[4, 2] < 0

    def test_thin_section_infinite(self):
        # 1e-100**4 underflows to 0: the rod has infinite compliance
        c = beam_compliance(0.62, 1e-100, DEFAULT_MATERIAL)
        assert np.isinf(np.diag(c)).all()
        assert np.isinf(c[1, 5]) and c[1, 5] == -c[2, 4]
        # a subnormal r**4 overflows its bending terms, also as a float64
        for radius in (3e-81, np.float64(3e-81)):
            c = beam_compliance(0.62, radius, DEFAULT_MATERIAL)
            assert np.isfinite(c[0, 0]) and np.isinf(c[1, 1])

    def test_degenerate_beam(self):
        nan = float("nan")
        for length, radius, field in ((0.0, 0.05, "length"),
                                      (1.0, 0.0, "section_radius"),
                                      (nan, 0.05, "length"),
                                      (1.0, nan, "section_radius")):
            with pytest.raises(InvalidValue) as err:
                beam_compliance(length, radius, DEFAULT_MATERIAL)
            assert err.value.field == field


class TestLegSpringModel:
    @pytest.mark.parametrize("arch,n_springs", [(Architecture.PRR, 13),
                                                (Architecture.RPR, 13),
                                                (Architecture.RRR, 19)])
    def test_spring_counts(self, arch, n_springs):
        rng = np.random.default_rng(31)
        d = sample_design(rng, arch)
        j_theta, k_inv, j_q = leg_model(d, 0, HOME_POSE, DEFAULT_MATERIAL)
        assert N_SPRINGS[arch] == n_springs
        assert k_inv.shape == (n_springs, n_springs)
        assert j_theta.shape == (6, n_springs)
        assert j_q.shape == (6, 2)

    def test_compliance_block_diagonal_structure(self):
        rng = np.random.default_rng(37)
        d = sample_design(rng, Architecture.PRR)
        _, k, _ = leg_model(d, 1, HOME_POSE, DEFAULT_MATERIAL,
                            ActuatorStiffness(prismatic=2.5e7))
        assert k[0, 0] == pytest.approx(1 / 2.5e7, rel=1e-12)
        np.testing.assert_allclose(
            k[1:7, 1:7],
            beam_compliance(d.link_length, d.leg_section_radius, DEFAULT_MATERIAL),
            rtol=1e-12)
        np.testing.assert_allclose(
            k[7:, 7:],
            beam_compliance(d.platform_radius, d.platform_section_radius,
                            DEFAULT_MATERIAL), rtol=1e-12)
        assert np.count_nonzero(k[0, 1:]) == 0 and np.count_nonzero(k[1:7, 7:]) == 0

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_screws_match_transform_chain(self, arch):
        rng = np.random.default_rng(41)
        worst = 0.0
        for _ in range(10):
            d = sample_design(rng, arch)
            pose = sample_pose(rng, d)
            bik = ik_batch(d, pose.as_array()[None, :])
            models = leg_models_batch(d, bik, DEFAULT_MATERIAL)
            for leg in range(3):
                jt_fd, jq_fd = fd_screws(d, leg, pose.as_array())
                jt, _, jq = models[leg]
                scale = max(1.0, np.abs(jt_fd).max())
                worst = max(worst, np.abs(jt[0] - jt_fd).max() / scale,
                            np.abs(jq[0] - jq_fd).max() / scale)
        assert worst <= 1e-6


class TestLegCartesianStiffness:
    """Leg stiffness of the screw model by the oracle's KKT reduction."""

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_symmetric_psd_rank4_annihilates_passive(self, arch):
        rng = np.random.default_rng(43)
        for _ in range(20):
            d = sample_design(rng, arch)
            pose = sample_pose(rng, d)
            for leg in range(3):
                j_theta, k_inv, j_q = leg_model(d, leg, pose, DEFAULT_MATERIAL)
                k = kkt_leg_stiffness(j_theta, k_inv, j_q)
                scale = np.abs(k).max()
                assert np.abs(k - k.T).max() <= 1e-10 * scale
                eig = np.linalg.eigvalsh(0.5 * (k + k.T))
                assert eig.min() >= -1e-8 * scale
                assert (eig > 1e-8 * scale).sum() <= 4
                assert np.abs(k @ j_q).max() <= 1e-8 * scale

    def test_linearity_in_spring_stiffness(self):
        rng = np.random.default_rng(47)
        d = sample_design(rng, Architecture.RRR)
        pose = sample_pose(rng, d)
        soft_mat = DEFAULT_MATERIAL
        hard_mat = Material(density=soft_mat.density,
                            young_modulus=2 * soft_mat.young_modulus,
                            shear_modulus=2 * soft_mat.shear_modulus)
        act = ActuatorStiffness()
        act2 = ActuatorStiffness(prismatic=2 * act.prismatic,
                                 revolute=2 * act.revolute)
        k1 = kkt_leg_stiffness(*leg_model(d, 0, pose, soft_mat, act))
        k2 = kkt_leg_stiffness(*leg_model(d, 0, pose, hard_mat, act2))
        np.testing.assert_allclose(k2, 2 * k1, rtol=1e-9, atol=1e-9 * np.abs(k1).max())


class TestPlatformStiffness:
    @pytest.mark.parametrize("arch", list(Architecture))
    def test_symmetric_home_block_structure(self, arch):
        d = DesignVector(arch, 2.0, 0.8, 1.5, 0.04, 0.05)
        k = platform_stiffness(d, HOME_POSE, DEFAULT_MATERIAL)
        scale = np.abs(k).max()
        # (x, y) decoupled from phi_z and equal planar eigenvalues
        assert abs(k[0, 5]) <= 1e-9 * scale and abs(k[1, 5]) <= 1e-9 * scale
        exy = np.linalg.eigvalsh(k[:2, :2])
        assert exy[0] == pytest.approx(exy[1], rel=1e-9)

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_spd_on_random_feasible_poses(self, arch):
        rng = np.random.default_rng(53)
        for _ in range(10):
            d = sample_design(rng, arch)
            pose = sample_pose(rng, d)
            k = platform_stiffness(d, pose, DEFAULT_MATERIAL)
            assert np.linalg.eigvalsh(0.5 * (k + k.T)).min() > 0

    def test_unreachable_pose_names_its_leg(self):
        d = DesignVector(Architecture.RPR, 2.0, 0.8, 1.5, 0.04, 0.05)
        pose = Pose(0.0, 1.0, 0.0)
        bik = ik_batch(d, pose.as_array()[None, :])
        failing = np.flatnonzero(~(bik.reachable & bik.stroke_ok)[:, 0])
        with pytest.raises((Unreachable, ModeViolation)) as exc:
            platform_stiffness(d, pose, DEFAULT_MATERIAL)
        assert exc.value.leg == failing[0]

    def test_section_scaling_monotone(self):
        base = DesignVector(Architecture.PRR, 1.412, 0.319, 0.62, 0.02, 0.02)
        rigid_act = ActuatorStiffness(prismatic=1e18, revolute=1e18)
        prev_diag = None
        for s in (1.0, 1.3, 1.7, 2.0):
            d = dataclasses.replace(base, leg_section_radius=0.02 * s,
                                    platform_section_radius=0.02 * s)
            k = platform_stiffness(d, HOME_POSE, DEFAULT_MATERIAL, rigid_act)
            diag = np.diag(k)[:3].copy()
            if prev_diag is not None:
                assert (diag > prev_diag).all()
            prev_diag = diag
        # with rigid actuators every compliance comes from beam terms,
        # so translational stiffness grows at least with the section area
        d2 = dataclasses.replace(base, leg_section_radius=0.04,
                                 platform_section_radius=0.04)
        k1 = platform_stiffness(base, HOME_POSE, DEFAULT_MATERIAL, rigid_act)
        k2 = platform_stiffness(d2, HOME_POSE, DEFAULT_MATERIAL, rigid_act)
        assert (np.diag(k2)[:3] >= 4.0 * np.diag(k1)[:3] * (1 - 1e-9)).all()

    @pytest.mark.parametrize("arch", list(Architecture), ids=lambda a: a.name)
    @pytest.mark.parametrize("field", ["leg_section_radius",
                                       "platform_section_radius"])
    @pytest.mark.parametrize("radius", [1e-100, np.float64(1e-100),
                                        np.float64(1e-79)],
                             ids=["float", "float64", "float64-subnormal"])
    def test_thin_section_is_singular(self, arch, field, radius):
        # r**4 underflows to 0 (or to a subnormal whose terms overflow):
        # the spring's compliance is infinite, so no pose has a stiffness
        rng = np.random.default_rng(13)
        d = dataclasses.replace(sample_design(rng, arch), **{field: radius})
        pose = sample_pose(rng, d)
        with pytest.raises(SingularStiffness):
            platform_stiffness(d, pose, DEFAULT_MATERIAL)
        res = constraints_batch(d, np.array([pose.as_array()] * 3),
                                EvalContext(), l_c=0.5)
        assert res.ik.all() and not (res.g4 | res.g5 | res.g6).any()
        assert not (res.kxy.any() or res.kz.any() or res.kphiz.any())


class TestStiffnessIndices:
    def test_worst_direction_property(self):
        # k_xy as constraints_batch scores it: the stiffness in the worst
        # in-plane force direction of inv(K)
        rng = np.random.default_rng(59)
        d = sample_design(rng, Architecture.PRR)
        pose = sample_pose(rng, d)
        k = platform_stiffness(d, pose, DEFAULT_MATERIAL)
        kxy = constraints_batch(d, pose.as_array()[None, :], EvalContext(),
                                l_c=0.5).kxy[0]
        c_xy = np.linalg.inv(k)[:2, :2]
        worst = 0.0
        for ang in np.linspace(0, 2 * math.pi, 100, endpoint=False):
            f = np.array([math.cos(ang), math.sin(ang)])
            disp = np.linalg.norm(c_xy @ f)
            assert disp <= 1.0 / kxy + 1e-15
            worst = max(worst, disp)
        assert worst == pytest.approx(1.0 / kxy, rel=1e-3)

    def test_batch_matches_stiffness_matrix(self):
        # the compliance-form indices against the full inverse of the
        # product's own 6x6 K
        rng = np.random.default_rng(61)
        d = sample_design(rng, Architecture.RRR)
        poses = np.stack([sample_pose(rng, d).as_array() for _ in range(8)])
        bik = ik_batch(d, poses)
        amat, b = jacobian_batch(d, bik)
        legs, ok = stiffness_batch(d, bik, (amat, b), DEFAULT_MATERIAL)
        assert ok.all()
        got = np.stack(stiffness_indices_batch(legs, adjugate_batch(amat), ok),
                       axis=1)
        want = np.stack([kkt_indices(k) for k in stiffness_matrix(amat, legs)])
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


class TestKKTOracle:
    """The closed-form planar split against the full 8x8 block reduction."""

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_platform_stiffness_and_indices(self, arch):
        rng = np.random.default_rng(83 + int(arch))
        for _ in range(20):
            d = sample_design(rng, arch)
            poses = np.stack([sample_pose(rng, d).as_array() for _ in range(4)])
            bik = ik_batch(d, poses)
            amat, b = jacobian_batch(d, bik)
            legs, ok = stiffness_batch(d, bik, (amat, b), DEFAULT_MATERIAL)
            k = stiffness_matrix(amat, legs)
            ref = kkt_platform_stiffness(d, bik, DEFAULT_MATERIAL, DEFAULT_ACTUATOR)
            assert ok.all()
            for blk in (IN_PLANE, OUT_OF_PLANE):
                got, want = k[:, blk[:, None], blk], ref[:, blk[:, None], blk]
                scale = np.abs(want).max(axis=(1, 2), keepdims=True)
                assert (np.abs(got - want) <= 1e-9 * scale).all()
            assert (k[:, IN_PLANE[:, None], OUT_OF_PLANE] == 0.0).all()
            assert (k[:, OUT_OF_PLANE[:, None], IN_PLANE] == 0.0).all()
            got = np.stack(stiffness_indices_batch(legs, adjugate_batch(amat), ok),
                           axis=1)
            want = np.stack([kkt_indices(x) for x in ref])
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_leg_stiffness(self, arch):
        # each leg's in-plane rank-1 spring w_i w_i^T / c_i, from the
        # product's own per-leg compliances, against the oracle's leg K
        rng = np.random.default_rng(89 + int(arch))
        for _ in range(20):
            d = sample_design(rng, arch)
            pose = sample_pose(rng, d)
            bik = ik_batch(d, pose.as_array()[None, :])
            amat, b = jacobian_batch(d, bik)
            legs, ok = stiffness_batch(d, bik, (amat, b), DEFAULT_MATERIAL)
            assert ok.all()
            blk = IN_PLANE[:, None], IN_PLANE
            for leg, model in enumerate(leg_models_batch(d, bik, DEFAULT_MATERIAL)):
                got = np.outer(amat[:, leg, 0], amat[:, leg, 0]) / legs.c[leg, 0]
                want = kkt_leg_stiffness(*model)[0][blk]
                assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    def test_parallel_singularity_flagged(self):
        # legs 1 and 2 of the middle pose made to share one line of action:
        # two equal rows of A, so det A = 0 exactly, while every leg spring
        # stays finite; all three indices of that pose come back 0
        rng = np.random.default_rng(97)
        for arch in Architecture:
            d = sample_design(rng, arch)
            poses = np.stack([sample_pose(rng, d).as_array() for _ in range(3)])
            bik = ik_batch(d, poses)
            for name in ("c_world", "moment", "elbow", "proximal", "distal",
                         "q"):
                if getattr(bik, name) is None:
                    continue
                arr = getattr(bik, name).copy()
                arr[..., 2, 1] = arr[..., 1, 1]
                bik = bik._replace(**{name: arr})
            amat, b = jacobian_batch(d, bik)
            adj = adjugate_batch(amat)
            assert (adj.det == 0.0).tolist() == [False, True, False]
            legs, ok = stiffness_batch(d, bik, (amat, b), DEFAULT_MATERIAL)
            assert ok.all()
            for index in stiffness_indices_batch(legs, adj, ok):
                assert index[1] == 0.0 and (index[[0, 2]] > 0.0).all()
            k = stiffness_matrix(amat, legs)
            assert (k[1] == 0.0).all() and k[[0, 2]].any(axis=(1, 2)).all()


@pytest.mark.parametrize("arch", list(Architecture))
def test_poses_last_layout(arch):
    # every probe-path array is (component, leg, pose), poses last
    rng = np.random.default_rng(101 + int(arch))
    d = sample_design(rng, arch)
    for n in (1, 5, 305):
        poses = rng.normal(0.0, 0.1 * d.platform_radius, (n, 3))
        bik = ik_batch(d, poses)
        amat, b = jac = jacobian_batch(d, bik)
        adj = adjugate_batch(amat)
        legs, ok = stiffness_batch(d, bik, jac, DEFAULT_MATERIAL)
        assert bik.poses.shape == (n, 3) and bik.ok().shape == ok.shape == (n,)
        for arr in (bik.c_world, bik.moment, bik.elbow, bik.distal):
            assert arr.shape == (2, 3, n)
        for arr in (bik.q, bik.reachable, bik.stroke_ok, b, adj.x, adj.y,
                    adj.z, legs.c):
            assert arr.shape == (3, n)
        assert amat.shape == (3, 3, n) and adj.det.shape == (n,)
        assert legs.k_out.shape == (6, n)
        for arr in (amat, bik.c_world, bik.moment, bik.distal):
            assert arr.flags.c_contiguous


def _near_singular_poses(design, rng, offsets=(1e-2, 3e-3, 1e-3)):
    """Poses the given phi offsets short of a det A = 0 crossing.

    Scans phi over a full turn at a random (x, y) near the center and
    bisects the first sign change of det A between reachable poses; None
    when a few such scans find no reachable crossing.  Closer in than the
    default offsets, the oracles' own inverses of K lose digits (the
    float epsilon times its condition number) faster than the compliance
    form does.
    """
    for _ in range(10):
        x, y = rng.normal(0.0, 0.1 * design.platform_radius, 2)
        phi = np.linspace(-math.pi, math.pi, 721)
        grid = np.column_stack([np.full_like(phi, x), np.full_like(phi, y), phi])
        bik = ik_batch(design, grid)
        det = adjugate_batch(jacobian_batch(design, bik)[0]).det
        ok = bik.ok()
        cross = np.nonzero(ok[:-1] & ok[1:] & (np.sign(det[:-1]) != np.sign(det[1:])))[0]
        if cross.size == 0:
            continue
        lo, hi = phi[cross[0]], phi[cross[0] + 1]
        sign = np.sign(det[cross[0]])
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            bik = ik_batch(design, np.array([[x, y, mid]]))
            if np.sign(adjugate_batch(jacobian_batch(design, bik)[0]).det[0]) == sign:
                lo = mid
            else:
                hi = mid
        poses = np.array([[x, y, lo - off] for off in offsets])
        if ik_batch(design, poses).ok().all():
            return poses
    return None


class TestConstraintPath:
    """Indices as constraints_batch computes them, in compliance form."""

    # a fixed l_c: the aligned 3-RPR home pose is singular
    CTX = EvalContext(dexterity=DexterityConfig(characteristic_length=0.7))

    def _cases(self, rng, arch, n=5):
        """n designs with 5 random and 3 near-singular poses each."""
        for _ in range(20 * n):
            d = sample_design(rng, arch)
            near = _near_singular_poses(d, rng)
            if near is not None:
                yield d, np.concatenate([np.stack([sample_pose(rng, d).as_array()
                                                   for _ in range(5)]), near])
                n -= 1
                if n == 0:
                    return
        raise AssertionError("too few designs with a parallel singularity")

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_indices_match_kkt_oracle(self, arch):
        rng = np.random.default_rng(131 + int(arch))
        for d, poses in self._cases(rng, arch):
            res = constraints_batch(d, poses, self.CTX)
            assert (res.ik & res.g2).all()
            assert res.kinv[-1] < 0.05   # near-singular indeed
            ref = kkt_platform_stiffness(d, ik_batch(d, poses), DEFAULT_MATERIAL,
                                         DEFAULT_ACTUATOR)
            want = np.stack([kkt_indices(k) for k in ref])
            got = np.column_stack([res.kxy, res.kz, res.kphiz])
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_indices_match_platform_stiffness(self, arch):
        rng = np.random.default_rng(137 + int(arch))
        for d, poses in self._cases(rng, arch):
            res = constraints_batch(d, poses, self.CTX)
            for i, row in enumerate(poses):
                want = kkt_indices(platform_stiffness(d, Pose(*row),
                                                      DEFAULT_MATERIAL))
                got = (res.kxy[i], res.kz[i], res.kphiz[i])
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
