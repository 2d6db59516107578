import ctypes
import dataclasses
import hashlib
import math
import resource
import sys
import types

import numpy as np
import pytest

from condition_oracle import frobenius_condition
from conftest import (DESIGN_I, DESIGN_II, DESIGN_III, _same_bytes,
                      sample_design, sample_pose)
from ppmopt import performance, stiffness
from ppmopt.errors import HomeUnreachable, SingularStiffness, Unreachable
from ppmopt.kinematics import HOME_POSE, Pose, ik_batch, jacobian, jacobian_batch
from ppmopt.model import DEFAULT_MATERIAL, Architecture, DesignVector, Wrench
from ppmopt.performance import (AccuracySpec, BatchConstraints,
                                ConstraintReport, DexterityConfig, EvalContext,
                                StiffnessLimits, characteristic_length,
                                constraints_batch, evaluate_constraints,
                                home_length, inverse_condition)
from ppmopt.workspace import GridSpec, WorkspaceSpec, grid_array


class TestFrobeniusCondition:
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_identity_is_perfectly_conditioned(self, n):
        assert frobenius_condition(np.eye(n)) == pytest.approx(1.0, abs=1e-14)

    def test_diag_1_2(self):
        # (1/2) sqrt(tr diag(1,4) * tr diag(1,1/4)) = 1.25, exactly
        assert frobenius_condition(np.diag([1.0, 2.0])) == pytest.approx(
            1.25, abs=1e-14)

    def test_singular_maps_to_infinity(self):
        m = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]])
        assert math.isinf(frobenius_condition(m))

    def test_never_below_one(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            m = rng.normal(size=(3, 3))
            assert frobenius_condition(m) >= 1.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(73)
        m = rng.normal(size=(3, 3))
        assert frobenius_condition(3.7 * m) == pytest.approx(
            frobenius_condition(m), rel=1e-12)

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError, match="square"):
            frobenius_condition(np.ones(shape))


class TestCharacteristicLength:
    def test_fixed_policy_passthrough(self, monkeypatch):
        ctx = EvalContext(dexterity=DexterityConfig(characteristic_length=1.0))
        assert characteristic_length(DESIGN_I, ctx) == 1.0
        # home_length owns the policy: a fixed length runs no kernel pass,
        # also where the home pose is unreachable or singular (aligned RPR)
        monkeypatch.setattr(performance, "kernel_batch", None)
        for design in (DESIGN_I,
                       DesignVector(Architecture.RPR, 2.0, 0.8, 1.0, 0.04, 0.05),
                       DesignVector(Architecture.RPR, 2.0, 0.8, 1.5, 0.04, 0.05)):
            bik = ik_batch(design, HOME_POSE.as_array()[None, :], ctx.mode)
            assert home_length(design, bik, ctx) == (1.0, None)
            assert characteristic_length(design, ctx) == 1.0

    def test_home_optimum_is_stationary(self, ctx):
        l_c = characteristic_length(DESIGN_I, ctx)
        pair = jacobian(DESIGN_I, HOME_POSE)
        j = np.linalg.solve(pair.a_parallel, pair.b_serial)

        def kappa(length):
            jn = j.copy()
            jn[2, :] *= length
            return frobenius_condition(jn)

        k0 = kappa(l_c)
        for delta in (1e-3, 5e-3):
            assert kappa(l_c * (1 + delta)) >= k0 - 1e-3 * k0
            assert kappa(l_c * (1 - delta)) >= k0 - 1e-3 * k0
        # golden-section bracket: 1e-4 relative
        grid = np.linspace(0.5 * l_c, 2.0 * l_c, 400)
        best = grid[np.argmin([kappa(g) for g in grid])]
        assert l_c == pytest.approx(best, rel=1e-2)

    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_scales_with_the_design(self, ctx, scale):
        base = DesignVector(Architecture.PRR, 1.412, 0.319, 0.62, 0.026, 0.023)
        scaled = DesignVector(Architecture.PRR, 1.412 * scale, 0.319 * scale,
                              0.62 * scale, 0.026, 0.023)
        l0 = characteristic_length(base, ctx)
        l1 = characteristic_length(scaled, ctx)
        assert l1 == pytest.approx(scale * l0, rel=1e-3)

    def test_unreachable_home_raises(self, ctx):
        bad = DesignVector(Architecture.RPR, 2.0, 0.8, 1.0, 0.04, 0.05)
        with pytest.raises(HomeUnreachable):
            characteristic_length(bad, ctx)

    def test_singular_home_raises(self, ctx):
        # aligned similar 3-RPR: strut axes concur at P in the home pose
        rpr = DesignVector(Architecture.RPR, 2.0, 0.8, 1.5, 0.04, 0.05)
        with pytest.raises(HomeUnreachable):
            characteristic_length(rpr, ctx)


class TestInverseCondition:
    def test_type2_singularity_gives_zero(self):
        # the aligned 3-RPR home pose is an exact parallel singularity
        rpr = DesignVector(Architecture.RPR, 2.0, 0.8, 1.5, 0.04, 0.05)
        pair = jacobian(rpr, HOME_POSE)
        assert abs(np.linalg.det(pair.a_parallel)) < 1e-12
        ctx = EvalContext(dexterity=DexterityConfig(characteristic_length=1.0))
        assert inverse_condition(rpr, HOME_POSE, ctx) == 0.0

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_range_on_random_poses(self, arch, ctx):
        rng = np.random.default_rng(79)
        d = sample_design(rng, arch)
        use = ctx
        if arch is Architecture.RPR:
            use = EvalContext(dexterity=DexterityConfig(characteristic_length=1.0))
        for _ in range(200):
            val = inverse_condition(d, sample_pose(rng, d), use)
            assert 0.0 <= val <= 1.0

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_matches_direct_formula(self, arch, ctx):
        # the closed form against kappa_F of J = solve(A, B), row 2 scaled
        rng = np.random.default_rng(83)
        d = sample_design(rng, arch)
        use = ctx
        if arch is Architecture.RPR:   # the aligned 3-RPR home is singular
            use = EvalContext(dexterity=DexterityConfig(characteristic_length=0.7))
        l_c = characteristic_length(d, use)
        for _ in range(50):
            pose = sample_pose(rng, d)
            pair = jacobian(d, pose)
            j = np.linalg.solve(pair.a_parallel, pair.b_serial)
            j[2, :] *= l_c
            assert inverse_condition(d, pose, use) == pytest.approx(
                1.0 / frobenius_condition(j), rel=1e-9)

    def test_unreachable_pose_propagates(self, ctx):
        with pytest.raises(Unreachable):
            inverse_condition(DESIGN_I, Pose(5.0, 0.0, 0.0), ctx)

    def test_invariant_under_common_scaling(self):
        rng = np.random.default_rng(89)
        d = sample_design(rng, Architecture.RRR)
        pair = jacobian(d, sample_pose(rng, d))
        j1 = np.linalg.solve(pair.a_parallel, pair.b_serial)
        j2 = np.linalg.solve(4.2 * pair.a_parallel, 4.2 * pair.b_serial)
        assert frobenius_condition(j1) == pytest.approx(
            frobenius_condition(j2), rel=1e-10)


class TestEvaluateConstraints:
    def test_design_i_home_feasible(self, ctx):
        report = evaluate_constraints(DESIGN_I, HOME_POSE, ctx)
        assert report.overall
        assert report.inverse_condition >= 0.1
        assert report.k_xy >= 1e6 and report.k_z >= 1e5
        assert report.k_phiz >= 10.0 / math.radians(1.0)

    def test_g1_pose_independent(self, ctx):
        bad = DesignVector(Architecture.RRR, 4.0, 0.5, 1.2, 0.05, 0.05)
        assert bad.link_length + bad.platform_radius < bad.base_radius / 2
        for pose in (HOME_POSE, Pose(0.2, -0.1, 0.1), Pose(-0.5, 0.3, -0.2)):
            report = evaluate_constraints(bad, pose, ctx)
            assert not report.g1_geometry and not report.overall

    def test_needle_links_fail_stiffness(self, ctx):
        needle = dataclasses.replace(DESIGN_I, leg_section_radius=1e-4)
        report = evaluate_constraints(needle, HOME_POSE, ctx)
        assert not report.g4_kxy
        assert not report.overall

    def test_unreachable_pose_flags(self, ctx):
        report = evaluate_constraints(DESIGN_I, Pose(5.0, 0.0, 0.0), ctx)
        assert not report.ik_reachable and not report.overall

    def test_overall_is_and_of_flags(self, ctx):
        rng = np.random.default_rng(97)
        d = sample_design(rng, Architecture.PRR)
        for _ in range(20):
            r = evaluate_constraints(d, sample_pose(rng, d), ctx)
            assert r.overall == (r.g1_geometry and r.g2_stroke and r.g3_dexterity
                                 and r.g4_kxy and r.g5_kz and r.g6_kphiz
                                 and r.ik_reachable)

    def test_threshold_monotonicity(self, ctx):
        rng = np.random.default_rng(101)
        d = sample_design(rng, Architecture.PRR)
        strict = EvalContext(dexterity=DexterityConfig(threshold=0.2))
        loose = EvalContext(dexterity=DexterityConfig(threshold=0.05))
        for _ in range(30):
            pose = sample_pose(rng, d)
            if evaluate_constraints(d, pose, strict).g3_dexterity:
                assert evaluate_constraints(d, pose, loose).g3_dexterity

    def test_strengthening_limits_shrinks_feasible_set(self, ctx):
        rng = np.random.default_rng(103)
        d = sample_design(rng, Architecture.PRR)
        tight = EvalContext(limits=StiffnessLimits(k_xy=5e6, k_z=5e5, k_phiz=5e4))
        for _ in range(30):
            pose = sample_pose(rng, d)
            if evaluate_constraints(d, pose, tight).overall:
                assert evaluate_constraints(d, pose, ctx).overall

    def test_one_jacobian_per_chunk(self, ctx, monkeypatch):
        # dexterity and stiffness share the A built once per chunk
        calls = []

        def counted(*args):
            calls.append(args)
            return jacobian_batch(*args)

        for module in (performance, stiffness):
            monkeypatch.setattr(module, "jacobian_batch", counted)
        chunk = grid_array(WorkspaceSpec(0.1), GridSpec())[:80]
        res = constraints_batch(DESIGN_I, chunk, ctx,
                                l_c=characteristic_length(DESIGN_I, ctx))
        assert res.overall.all()
        assert len(calls) == 1

    def test_limits_derivation_matches_study_numbers(self):
        limits = StiffnessLimits.from_requirements(Wrench(), AccuracySpec())
        assert limits.k_xy == pytest.approx(1e6, rel=1e-12)
        assert limits.k_z == pytest.approx(1e5, rel=1e-12)
        assert limits.k_phiz == pytest.approx(10.0 / (math.pi / 180.0), rel=1e-12)

    def test_negated_load_gives_same_limits(self):
        # a deflection bound applies to magnitudes: a load pointing the
        # other way must not switch its constraint off
        ref = StiffnessLimits.from_requirements(Wrench(), AccuracySpec())
        flipped = Wrench(f_x=-100.0, f_y=0.0, f_z=-100.0, tau_z=-100.0)
        assert StiffnessLimits.from_requirements(flipped, AccuracySpec()) == ref


class TestBatchScalarConsistency:
    @pytest.mark.parametrize("arch", list(Architecture))
    def test_batch_equals_scalar_reports(self, arch, ctx):
        rng = np.random.default_rng(109)
        d = sample_design(rng, arch)
        use = ctx
        if arch is Architecture.RPR:
            use = EvalContext(dexterity=DexterityConfig(characteristic_length=0.7))
        poses = np.stack([sample_pose(rng, d).as_array() for _ in range(12)]
                         + [np.array([9.0, 9.0, 0.0])])   # one unreachable
        batch = constraints_batch(d, poses, use)
        flags = ("g1_geometry", "g2_stroke", "g3_dexterity", "g4_kxy", "g5_kz",
                 "g6_kphiz", "ik_reachable", "overall")
        values = ("inverse_condition", "k_xy", "k_z", "k_phiz")
        for i, row in enumerate(poses):
            single = evaluate_constraints(d, Pose(*row), use)
            got = batch.report(i)
            for name in flags:
                assert getattr(got, name) == getattr(single, name), name
            for name in values:   # identical math, batch-shape ulp noise only
                assert getattr(got, name) == pytest.approx(
                    getattr(single, name), rel=1e-9, abs=1e-12), name

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_probe_rows_bit_identical_to_single_poses(self, arch):
        # a 305-pose bisection probe whose outer rings leave the reachable
        # set: every row must equal the same pose evaluated alone, or in a
        # batch of any other size, bit for bit
        rng = np.random.default_rng(113)
        d = sample_design(rng, arch)
        # a fixed l_c: the aligned 3-RPR home pose is singular
        use = EvalContext(dexterity=DexterityConfig(characteristic_length=0.7))
        poses = grid_array(WorkspaceSpec(2.0 * d.platform_radius), GridSpec())
        assert len(poses) == 305
        batch = constraints_batch(d, poses, use)
        assert 0 < (batch.ik & batch.g2).sum() < len(poses)
        for size in (1, 2, 3, 7, 80):
            for start in range(0, len(poses), size):
                part = constraints_batch(d, poses[start:start + size], use)
                for name in BatchConstraints.__slots__:
                    got = getattr(part, name)
                    want = getattr(batch, name)[start:start + size]
                    assert got.tobytes() == want.tobytes(), (size, start, name)

    def test_report_reads_slots_in_field_order(self):
        # report reads a row by position alone; the reference names every
        # ConstraintReport field's slot by hand
        def reference(b, i):
            return ConstraintReport(
                g1_geometry=bool(b.g1[i]), g2_stroke=bool(b.g2[i]),
                g3_dexterity=bool(b.g3[i]), g4_kxy=bool(b.g4[i]),
                g5_kz=bool(b.g5[i]), g6_kphiz=bool(b.g6[i]),
                ik_reachable=bool(b.ik[i]), inverse_condition=float(b.kinv[i]),
                k_xy=float(b.kxy[i]), k_z=float(b.kz[i]),
                k_phiz=float(b.kphiz[i]), overall=bool(b.overall[i]))

        poses = grid_array(WorkspaceSpec(0.8), GridSpec())
        loose = constraints_batch(DESIGN_I, poses)
        ok = loose.ik & loose.g2
        # limits at the medians, so g3..g6 each pass on some rows only
        tight = EvalContext(
            limits=StiffnessLimits(*(float(np.median(getattr(loose, n)[ok]))
                                     for n in ("kxy", "kz", "kphiz"))),
            dexterity=DexterityConfig(float(np.median(loose.kinv[ok]))))
        batch = constraints_batch(DESIGN_I, poses, tight)
        for name in ("g2", "g3", "g4", "g5", "g6", "ik", "overall"):
            assert 0 < getattr(batch, name).sum() < len(poses), name
        # and no two of the flags g1..g6 alike, so a swap shows
        assert len({tuple(getattr(batch, n)) for n in BatchConstraints.__slots__
                    if n.startswith("g")}) == 6
        for i in range(len(poses)):
            got, want = batch.report(i), reference(batch, i)
            assert got == want, i
            assert ([type(v) for v in dataclasses.astuple(got)]
                    == [type(v) for v in dataclasses.astuple(want)])
        assert batch.report(-1) == reference(batch, -1)

    def test_rows_split_a_joint_call_bit_for_bit(self):
        # two grids of one design scored in one call, then split, give
        # each grid's own call: the precondition of lockstep scoring
        use = EvalContext(dexterity=DexterityConfig(characteristic_length=0.7))
        a = grid_array(WorkspaceSpec(0.3), GridSpec())
        b = grid_array(WorkspaceSpec(0.8, (0.05, -0.03, 0.3)), GridSpec(3, 8, 4))
        joint = constraints_batch(DESIGN_I, np.vstack([a, b]), use)
        for part, sel in ((a, slice(len(a))), (b, slice(len(a), None))):
            alone = constraints_batch(DESIGN_I, part, use)
            for name in BatchConstraints.__slots__:
                assert _same_bytes(getattr(joint, name)[sel],
                                   getattr(alone, name)), name


#: sha256 of every BatchConstraints field, in __slots__ order, and of the
#: platform stiffness K at a few poses, over _pinned_cases() (see below).
KERNEL_DIGEST = "714387264d6ab90115f435bbf14ce1e4e1d937ac1c816e5b829bd690668b21a4"


def _pinned_cases():
    """Designs I-III and two seeded designs of each architecture, each
    over 5-, 305- and 8649-pose grids at two centers, with l_c resolved
    and fixed at 0.7."""
    rng = np.random.default_rng(131)
    designs = [DESIGN_I, DESIGN_II, DESIGN_III] + [
        sample_design(rng, arch) for arch in Architecture for _ in range(2)]
    grids = ((0.0, GridSpec()), (0.8, GridSpec()), (0.8, GridSpec(20, 48, 9)))
    contexts = (EvalContext(),
                EvalContext(dexterity=DexterityConfig(characteristic_length=0.7)))
    for d in designs:
        for center in ((0.0, 0.0, 0.0), (0.05, -0.03, 0.3)):
            for scale, grid in grids:
                poses = grid_array(
                    WorkspaceSpec(scale * d.platform_radius, center), grid)
                for use in contexts:
                    yield d, poses, use
    for d in designs:
        for _ in range(3):
            yield d, sample_pose(rng, d), None


def test_constraints_batch_bytes_pinned():
    # the dexterity and stiffness values themselves, byte for byte: a
    # change of array layout or summation order on the kernels shows here
    digest = hashlib.sha256()
    sizes = set()
    for d, poses, use in _pinned_cases():
        if use is None:
            try:
                k = stiffness.platform_stiffness(d, poses, DEFAULT_MATERIAL)
            except SingularStiffness:
                k = np.zeros((6, 6))
            digest.update(k.tobytes())
            continue
        sizes.add(len(poses))
        res = constraints_batch(d, poses, use)
        for name in BatchConstraints.__slots__:
            digest.update(getattr(res, name).tobytes())
    assert sizes == {5, 305, 8649}
    assert digest.hexdigest() == KERNEL_DIGEST


def _has_mallopt() -> bool:
    try:
        return sys.platform.startswith("linux") and hasattr(ctypes.CDLL(None),
                                                             "mallopt")
    except OSError:
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="C library has no mallopt")
def test_warm_large_batch_reuses_freed_heap():
    # a large call holds up to 8.7 MB of temporaries; without the heap
    # pad glibc hands them back to the OS and the next call faults some
    # 2100 pages back in
    poses = grid_array(WorkspaceSpec(0.1, (0.0, 0.0, 0.0), 0.3),
                       GridSpec(20, 48, 9))
    assert poses.shape[0] == 8649
    constraints_batch(DESIGN_I, poses, l_c=0.7)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    constraints_batch(DESIGN_I, poses, l_c=0.7)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 50


def _fake_libc():
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1
    return types.SimpleNamespace(mallopt=mallopt), calls


class TestKeepFreedHeap:
    def test_sets_top_pad_on_linux(self, monkeypatch):
        libc, calls = _fake_libc()
        monkeypatch.setattr(sys, "platform", "linux")
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        performance._keep_freed_heap()
        assert calls == [(-2, 32 << 20)]

    def test_c_library_without_mallopt_is_skipped(self, monkeypatch):
        monkeypatch.setattr(sys, "platform", "linux")
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        performance._keep_freed_heap()

    def test_unloadable_c_library_is_skipped(self, monkeypatch):
        def refuse(name):
            raise OSError("no C library")
        monkeypatch.setattr(sys, "platform", "linux")
        monkeypatch.setattr(ctypes, "CDLL", refuse)
        performance._keep_freed_heap()

    def test_other_platforms_left_alone(self, monkeypatch):
        libc, calls = _fake_libc()
        monkeypatch.setattr(sys, "platform", "darwin")
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        performance._keep_freed_heap()
        assert calls == []
