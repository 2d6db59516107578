"""Metamorphic oracles: how the whole pipeline's outputs must transform
when its inputs are transformed, checked end to end.

Scale by 2: doubling every length of a design scales a rod's axial and
bending compliances per unit length as the physics requires, so with the
prismatic actuator stiffness doubled and the revolute one times 8, every
translational stiffness doubles and the torsional one grows 8-fold.  With
the k_xy and k_z limits doubled, k_phiz's times 8 and the bisection tol
doubled, every verdict is unchanged and the search retraces itself at
twice the scale.  Powers of two scale floats without rounding, so R_w, the
limiting pose, the indices and the mass come out exact.  The l_c search
interval does not scale, so l_c and 1/kappa_F are only close.

Turn by 120 degrees: the base, the platform and the rails are 3-fold
symmetric about the base center, so a pose turned by 120 degrees about
it, at the same phi, is the same pose with the legs relabeled.  Where
every leg takes the same branch, each grid row and its two images on the
rings score alike: the same flags, and g3-g6 values equal up to rounding.
The workspace search's sector probes rely on it.

Raise a limit: a higher dexterity threshold or k_xy / k_z / k_phiz limit
fails every pose the lower one failed, so every grid that failed still
fails.  The bisection follows the same midpoints until the first one the
raised limit fails and the lower passes; from there the raised search
stays below that midpoint and the other above it.  So R_w never grows.

Refine the angular grid: ring direction j of n_angular is direction 2j of
2 n_angular, bit for bit, so each doubled grid holds every pose of the
one before and fails wherever it failed.  By the same argument R_w never
grows with n_angular.
"""

import dataclasses

import numpy as np
import pytest

from conftest import DESIGN_I, DESIGN_II, DESIGN_III, sample_design
from ppmopt.kinematics import Branch
from ppmopt.model import ActuatorStiffness, Architecture, DesignVector, mass
from ppmopt.performance import EvalContext, constraints_batch
from ppmopt.workspace import (BISECTION_TOL_DEFAULT, DEFAULT_GRID, GridSpec,
                              WorkspaceSpec, grid_array,
                              max_regular_workspace_detail)

RRR = DesignVector(Architecture.RRR, 1.5, 0.5, 0.9, 0.05, 0.05)


def _scaled(design: DesignVector, ctx: EvalContext, tol: float):
    """The design, context and tol of the same problem at twice the scale."""
    lengths = ("base_radius", "platform_radius", "link_length",
               "leg_section_radius", "platform_section_radius")
    lim = ctx.limits
    return (dataclasses.replace(design, **{f: 2.0 * getattr(design, f)
                                           for f in lengths}),
            dataclasses.replace(
                ctx,
                actuator=ActuatorStiffness(2.0 * ctx.actuator.prismatic,
                                           8.0 * ctx.actuator.revolute),
                limits=dataclasses.replace(lim, k_xy=2.0 * lim.k_xy,
                                           k_z=2.0 * lim.k_z,
                                           k_phiz=8.0 * lim.k_phiz)),
            2.0 * tol)


@pytest.mark.parametrize("design", [DESIGN_I, DESIGN_II, DESIGN_III, RRR],
                         ids=["design-i", "design-ii", "design-iii", "rrr"])
def test_scale_by_two(design):
    ctx, tol = EvalContext(), BISECTION_TOL_DEFAULT
    big, big_ctx, big_tol = _scaled(design, ctx, tol)
    res = max_regular_workspace_detail(design, DEFAULT_GRID, ctx, tol)
    got = max_regular_workspace_detail(big, DEFAULT_GRID, big_ctx, big_tol)
    assert res.radius > 0.0
    assert got.radius == 2.0 * res.radius
    assert mass(big, big_ctx.material) == 8.0 * mass(design, ctx.material)
    pose, big_pose = res.limiting_pose, got.limiting_pose
    assert (big_pose.p_x, big_pose.p_y, big_pose.phi) == (
        2.0 * pose.p_x, 2.0 * pose.p_y, pose.phi)
    for rep, big_rep in ((res.limiting_report, got.limiting_report),
                         (res.home, got.home)):
        assert (big_rep.k_xy, big_rep.k_z, big_rep.k_phiz) == (
            2.0 * rep.k_xy, 2.0 * rep.k_z, 8.0 * rep.k_phiz)
        flags = [f.name for f in dataclasses.fields(rep)
                 if isinstance(getattr(rep, f.name), bool)]
        assert [getattr(big_rep, f) for f in flags] == \
            [getattr(rep, f) for f in flags]
        assert big_rep.inverse_condition == pytest.approx(
            rep.inverse_condition, rel=1e-4)
    assert got.characteristic_length == pytest.approx(
        2.0 * res.characteristic_length, rel=1e-4)


@pytest.mark.parametrize("arch", list(Architecture), ids=lambda a: a.name)
def test_turn_by_120_degrees(arch):
    rng = np.random.default_rng(9)
    grid = DEFAULT_GRID       # 12 ring directions: j, j + 4 and j + 8
    n_o = grid.n_orientation
    scored = 0
    for branch in Branch:
        ctx = EvalContext(mode=(branch,) * 3)
        for _ in range(6):
            design = sample_design(rng, arch)
            for frac in (0.1, 0.3, 0.6):    # reachable rows and not
                spec = WorkspaceSpec(frac * design.base_radius,
                                     (0.0, 0.0, float(rng.uniform(-1.0, 1.0))))
                res = constraints_batch(design, grid_array(spec, grid), ctx)

                def rings(name):    # (ring, image, direction, orientation)
                    return getattr(res, name)[n_o:].reshape(
                        grid.n_radial, 3, grid.n_angular // 3, n_o)

                for name in res.__slots__:
                    a = rings(name)
                    if a.dtype == bool:
                        assert (a == a[:, [1, 2, 0]]).all(), name
                # away from singular rows, where 1/kappa_F tends to 0
                away = rings("kinv") >= 1e-4
                for name in ("kinv", "kxy", "kz", "kphiz"):
                    a = rings(name)
                    np.testing.assert_allclose(a[:, [1, 2, 0]][away], a[away],
                                               rtol=1e-11, atol=0.0)
                scored += int(away.sum())
    print(f"[SYMMETRY {arch.name}] {scored} image pairs compared")
    assert scored >= 200


def _raised(ctx: EvalContext, limit: str, level: float) -> EvalContext:
    """ctx with the dexterity threshold or one stiffness limit at level."""
    if limit == "threshold":
        return dataclasses.replace(ctx, dexterity=dataclasses.replace(
            ctx.dexterity, threshold=level))
    return dataclasses.replace(ctx, limits=dataclasses.replace(
        ctx.limits, **{limit: level}))


@pytest.mark.parametrize("limit,index", [("threshold", "kinv"), ("k_xy", "kxy"),
                                         ("k_z", "kz"), ("k_phiz", "kphiz")])
def test_raising_a_limit_never_grows_the_workspace(limit, index):
    # the raised levels are quantiles of the index over the grid at R_w,
    # where every row passes: each is at or above the limit and binds
    # inside the workspace, not only at its center
    rng = np.random.default_rng(17)
    designs = [DESIGN_I, DESIGN_II, DESIGN_III, RRR] + [
        sample_design(rng, arch)
        for arch in (Architecture.PRR, Architecture.RRR) for _ in range(3)]
    ctx, feasible, shrunk = EvalContext(), 0, 0
    for design in designs:
        res = max_regular_workspace_detail(design, DEFAULT_GRID, ctx)
        if res.radius == 0.0:
            continue
        feasible += 1
        values = getattr(constraints_batch(
            design, grid_array(WorkspaceSpec(res.radius), DEFAULT_GRID), ctx,
            l_c=res.characteristic_length), index)
        r_w = res.radius
        for level in np.quantile(values, (0.02, 0.2, 0.6)):   # rising
            raised = max_regular_workspace_detail(
                design, DEFAULT_GRID, _raised(ctx, limit, float(level))).radius
            assert raised <= r_w, (design, level)
            shrunk += raised < r_w
            r_w = raised
    assert feasible >= 6 and shrunk >= feasible


def test_refining_the_angular_grid_never_grows_the_workspace():
    # the convergence table: R_w against n_angular (12, 24, 48, 96), the
    # other GridSpec fields at their defaults; every count is a multiple
    # of 3, so every search runs on sectors
    rng = np.random.default_rng(6)
    sampled = []
    for arch in (Architecture.PRR, Architecture.RRR):    # the first with R_w > 0
        design = sample_design(rng, arch)
        while max_regular_workspace_detail(design).radius == 0.0:
            design = sample_design(rng, arch)
        sampled.append(design)
    counts = (12, 24, 48, 96)
    names = ("Design I", "Design II", "Design III", "PRR seed 6", "RRR seed 6")
    shrunk = 0
    print(f"\n[R_w convergence] n_angular {counts}")
    for name, design in zip(names, [DESIGN_I, DESIGN_II, DESIGN_III, *sampled]):
        radii = [max_regular_workspace_detail(design, GridSpec(n_angular=n)).radius
                 for n in counts]
        print(f"  {name:<11}" + "".join(f" {r:.4f}" for r in radii))
        assert radii[0] > 0.0
        assert all(b <= a for a, b in zip(radii, radii[1:])), (name, radii)
        shrunk += radii[-1] < radii[0]
    assert shrunk >= 2
