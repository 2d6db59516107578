"""Regular-workspace evaluation: the second objective.

The regular workspace is a cylinder in (x, y, phi): every position inside
a disc of radius R_w around the center must be reachable over the full
rotation band (default 20 degrees total) with every constraint satisfied
and a single fixed working mode.  Feasibility is checked on a
deterministic grid (center poses first, then rings radial-major), and the
maximal radius is found by bisection, which makes R_w a deterministic
function of the design vector.  The bisection starts from [0,
upper_radius]; no grid passes at that bracket, so it is never probed.
A failing radius-0 probe closes the bracket at [0, 0]: no radius is
bisected, and that probe gives the limiting pose.

Sector probes.  Base, platform and rails are 3-fold symmetric about the
base center: a pose turned by 120 degrees about it, at the same phi, is
the same pose with the legs relabeled.  So when x_c = y_c = 0, every leg
takes the same branch and n_angular is a multiple of 3, a probe above
radius 0 scores only the sector, the center block and ring directions
0 .. n_angular/3 - 1, whose rows are bit for bit those of the full grid.
Every failing row has a failing image in the sector at or before it, so
the sector's first failing row is the full grid's.  Otherwise probes
score full grids, in the same loop.  Images agree only to about 1e-12
relative, so a sector with a row whose 1/kappa_F, k_xy, k_z or k_phiz
lies within SECTOR_TIE of its limit is scored on its full grid instead.
The guard covers those four values only: reach and stroke (the ik flag
and g2) are thresholds on IK values too, and a pose within rounding of
one could part from its image, which would move R_w by one bisection
step.  No checked design or config showed one.

Two levels per step.  On sectors, each step solves, in one ik_batch
call, the grids of its midpoint and of the two midpoints it may bisect
next, one per outcome; one whose own bracket is within tol is left out,
so the midpoints and the stopping rule are those of a bisection one
probe at a time.  Full grids are probed one level per call: three of
them per call cost more than the calls saved.  The bisection also ends
once its bracket cannot be split in floating point: a midpoint that
rounds onto lo or hi repeats that end's verdict.  A grid with a pose
that is unreachable or past a stroke limit fails every constraint check
whatever its scores (the reach gate).  The gate decides only whether a step runs a kernel:
one constraints_batch call over all its grids if any grid passes it,
none otherwise.  Each grid of a scored step is decided by its first
failing row; every grid an unscored step visits fails.  A final failing
grid without scores (its step ran no kernel, or the bracket was never
probed) is scored alone after the search, so the limiting pose and
report are always the first failing row of the final failing grid.
The search keeps no scores of the grid at R_w; ppmopt evaluate scores
that grid itself.

The search scores radius 0 itself: the center block with HOME_POSE
appended as its last row; the grid's cached layout holds that block.
The home row is scored with the block but stays out of the verdict and
the limiting pose; its report is WorkspaceResult.home, the home block
of ppmopt evaluate.  performance.home_length, where the l_c policy
lives, resolves l_c on the block's IK: a fixed length as it is, else a
search on the home row's kappa_F terms from the block's one kernel
pass, to the value characteristic_length gives.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import performance
from .errors import InvalidValue
from .kinematics import HOME_POSE, Pose, anchor_layout
from .model import Architecture, DesignVector, check_counts
# characteristic_length is unused here but kept: bench/tracing.py hooks
# workspace.characteristic_length
from .performance import (BatchConstraints, ConstraintReport, DEFAULT_CONTEXT,
                          EvalContext, characteristic_length, constraints_batch)

DELTA_PHI_DEFAULT = math.radians(20.0)  # total rotation range of the cylinder
CENTER_DEFAULT = (0.0, 0.0, 0.0)        # (x_c [m], y_c [m], phi_c [rad])
BISECTION_TOL_DEFAULT = 1e-3            # [m], final bracket width on R_w
#: Relative distance to a g3-g6 limit within which a sector row decides
#: nothing: its 120-degree images agree only to about 1e-12 relative.
SECTOR_TIE = 1e-9


@dataclass(frozen=True)
class WorkspaceSpec:
    """A candidate regular workspace: center, rotation band, radius."""

    radius: float                                  # R_w [m]
    center: tuple[float, float, float] = CENTER_DEFAULT
    delta_phi: float = DELTA_PHI_DEFAULT           # total band [rad]

    def __post_init__(self):
        # written so that NaN fails each test
        if not 0.0 <= self.radius < math.inf:
            raise InvalidValue("radius", "finite and >= 0", self.radius)
        if not 0.0 < self.delta_phi < math.inf:
            raise InvalidValue("delta_phi", "a finite band > 0", self.delta_phi)
        try:    # no bool: the YAML path rejects true / false too
            ok = len(self.center) == 3 and all(
                isinstance(v, numbers.Real) and not isinstance(v, bool)
                and math.isfinite(v) for v in self.center)
        except TypeError:       # no length
            ok = False
        if not ok:
            raise InvalidValue("center", "three finite numbers", self.center)
        # kept as a tuple of floats, which the grid layout cache keys on
        object.__setattr__(self, "center", tuple(map(float, self.center)))


@dataclass(frozen=True)
class GridSpec:
    """Discretization density of the workspace cylinder: n_radial rings
    of n_angular positions each, the first at angle 0, every position
    swept over n_orientation angles of the rotation band."""

    n_radial: int = 5
    n_angular: int = 12
    n_orientation: int = 5

    def __post_init__(self):
        check_counts(self, (("n_radial", 1), ("n_angular", 2),
                            ("n_orientation", 2)))


DEFAULT_GRID = GridSpec()


@functools.lru_cache(maxsize=64)
def _grid_layout(grid: GridSpec, center: tuple[float, float, float],
                 delta_phi: float) -> tuple[np.ndarray, ...]:
    """The radius-independent part of a grid, as read-only arrays: the
    (n_orientation, 3) center block with HOME_POSE appended as its last
    row, the orientation band, the ring numbers 1..n_radial as a column,
    and cos / sin of the ring angles."""
    xc, yc, pc = center
    phis = np.linspace(pc - delta_phi / 2.0, pc + delta_phi / 2.0,
                       grid.n_orientation)
    block = np.vstack([np.column_stack([np.full(grid.n_orientation, xc),
                                        np.full(grid.n_orientation, yc), phis]),
                       HOME_POSE.as_array()])
    ang = 2.0 * math.pi * np.arange(grid.n_angular) / grid.n_angular
    k = np.arange(1, grid.n_radial + 1, dtype=float)[:, None]
    arrays = (block, phis, k, np.cos(ang), np.sin(ang))
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _grids(radii: list[float], grid: GridSpec,
           center: tuple[float, float, float], delta_phi: float,
           n_dir: int) -> np.ndarray:
    """The grids at radii (each > 0), one after another in a fresh
    (len(radii) * rows, 3) array, each with ring directions 0..n_dir-1
    of every ring only; with n_dir = n_angular, grid_array's grids."""
    block, phis, k, cos, sin = _grid_layout(grid, center, delta_phi)
    xc, yc, _ = center
    n_o = grid.n_orientation
    rad = np.array(radii)[:, None, None] * k / grid.n_radial
    out = np.empty((len(radii), n_o * (1 + grid.n_radial * n_dir), 3))
    out[:, :n_o] = block[:-1]   # the center block, without the home row
    rings = out[:, n_o:].reshape(len(radii), grid.n_radial, n_dir, n_o, 3)
    rings[..., 0] = (xc + rad * cos[:n_dir])[..., None]
    rings[..., 1] = (yc + rad * sin[:n_dir])[..., None]
    rings[..., 2] = phis
    return out.reshape(-1, 3)


def grid_array(spec: WorkspaceSpec, grid: GridSpec) -> np.ndarray:
    """Grid poses as a fresh (N, 3) array.

    Ordering is radial-major: the center at every orientation first, then
    each ring from the smallest radius outward, each position swept over
    the orientation band.  A zero radius yields only the center block.
    Ring k of n_radial sits at radius * k / n_radial.
    """
    if spec.radius == 0.0:
        return _grid_layout(grid, spec.center, spec.delta_phi)[0][:-1].copy()
    return _grids([spec.radius], grid, spec.center, spec.delta_phi,
                  grid.n_angular)


class Probe(NamedTuple):
    """Outcome of one full-grid check (workspace_feasible): the verdict,
    and the first failing pose in grid order and its report (None when
    feasible)."""

    feasible: bool
    pose: Pose | None
    report: ConstraintReport | None


def _first_failure(res: BatchConstraints, points: np.ndarray, rows: slice
                   ) -> tuple[Pose, ConstraintReport] | None:
    """The first failing row among rows of res, scored on points, as its
    pose and report; None if every one passes."""
    ok = res.overall[rows]
    if ok.all():
        return None
    idx = rows.start + int(ok.argmin())     # the first False
    return Pose(*points[idx]), res.report(idx)


def workspace_feasible(design: DesignVector, spec: WorkspaceSpec,
                       grid: GridSpec = DEFAULT_GRID,
                       ctx: EvalContext = DEFAULT_CONTEXT,
                       l_c: float | None = None) -> Probe:
    """Check every grid pose of the cylinder against g1..g6.

    The whole grid goes to one constraints_batch call: its rows do not
    depend on their batch, so the first failing row is the same as in a
    pose-by-pose scan.  The search scores its own steps; it calls this
    only to score a tied sector's full grid.
    """
    points = grid_array(spec, grid)
    res = constraints_batch(design, points, ctx, l_c=l_c)
    fail = _first_failure(res, points, slice(0, len(points)))
    return Probe(fail is None, *(fail or (None, None)))


def upper_radius(design: DesignVector) -> float:
    """Bisection bracket, never probed: its grid always fails.  Ring
    directions sum to zero, so the outer ring has a pose this far or more
    from the base center: PRR feet stay inside the base circle, and two
    RPR/RRR base corners lie >= 60 degrees off it, out of their legs' reach."""
    ext = {Architecture.PRR: anchor_layout(design).rail_length + design.link_length,
           Architecture.RPR: design.link_length,
           Architecture.RRR: 2.0 * design.link_length}[design.architecture]
    return design.base_radius + design.platform_radius + ext


@dataclass(frozen=True)
class WorkspaceResult:
    """Outcome of the maximal-radius search; the limiting pose and its
    report are always set, as the search ends at a failing grid."""

    radius: float
    limiting_pose: Pose
    limiting_report: ConstraintReport
    characteristic_length: float
    home: ConstraintReport      # HOME_POSE, the radius-0 batch's last row


def _tied(res: BatchConstraints, rows: slice, ctx: EvalContext) -> bool:
    """Whether a row among rows of res has its 1/kappa_F, k_xy, k_z or
    k_phiz within SECTOR_TIE (relative) of its limit, where a sector row
    may part from its 120-degree images (see the module docstring)."""
    lim = ctx.limits
    return any((np.abs(value[rows] - limit) < SECTOR_TIE * limit).any()
               for value, limit in ((res.kinv, ctx.dexterity.threshold),
                                    (res.kxy, lim.k_xy), (res.kz, lim.k_z),
                                    (res.kphiz, lim.k_phiz)))


def max_regular_workspace_detail(design: DesignVector,
                                 grid: GridSpec = DEFAULT_GRID,
                                 ctx: EvalContext = DEFAULT_CONTEXT,
                                 tol: float = BISECTION_TOL_DEFAULT,
                                 center: tuple[float, float, float] = CENTER_DEFAULT,
                                 delta_phi: float = DELTA_PHI_DEFAULT) -> WorkspaceResult:
    """Bisection for the largest feasible cylinder radius.

    Returns radius 0 when even the center poses fail; the limiting pose
    is the first grid failure at the smallest infeasible radius probed.
    Probes above radius 0 score the sector, two bisection levels per
    kernel call, when the design's symmetry allows, behind the reach
    gate; the radius-0 probe also scores HOME_POSE and resolves l_c (see
    the module docstring).  tol must be finite and > 0; the bisection
    ends when the bracket is within tol or can no longer be split.
    """
    if not 0.0 < tol < math.inf:
        raise InvalidValue("tol", "finite and > 0", tol)
    # radius 0 is never gated: the GA reads violations from its report.
    # Its batch also holds HOME_POSE, whose row resolves l_c and gives the
    # home report (see the module docstring)
    spec = WorkspaceSpec(0.0, center, delta_phi)    # checks center and band
    center = spec.center
    # performance's ik_batch: the lookup the kernels' own IK goes through
    bik = performance.ik_batch(design,
                               _grid_layout(grid, center, delta_phi)[0],
                               ctx.mode)
    l_c, kern = performance.home_length(design, bik, ctx)
    res = constraints_batch(design, bik.poses, ctx, l_c=l_c, bik=bik, kern=kern)
    home = res.report(-1)
    # hi's first failing (pose, report), None while unscored or unprobed
    limiting = _first_failure(res, bik.poses, slice(0, grid.n_orientation))
    # the bracket itself always fails (see upper_radius), so it is not
    # probed; a failing radius 0 closes it at once
    lo, hi = 0.0, upper_radius(design) if limiting is None else 0.0
    sector = (center[0] == center[1] == 0.0 and len(set(ctx.mode)) == 1
              and grid.n_angular % 3 == 0)
    n_dir = grid.n_angular // 3 if sector else grid.n_angular
    n = grid.n_orientation * (1 + grid.n_radial * n_dir)   # rows per grid

    def decide(radius, res, points, rows):
        """First failure of one scored grid, a tied sector's on its full
        grid."""
        if sector and _tied(res, rows, ctx):
            probe = workspace_feasible(design, WorkspaceSpec(radius, center,
                                                             delta_phi),
                                       grid, ctx, l_c=l_c)
            return None if probe.feasible else probe[1:]
        return _first_failure(res, points, rows)

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:   # rounds onto an end: the bracket is spent
            break
        # sectors also take the midpoints bisected next if mid fails (node
        # 1) or passes (node 2), each left out if its bracket is within tol
        mids = [mid] + ([0.5 * (a + b) if b - a > tol else None
                         for a, b in ((lo, mid), (mid, hi))] if sector else [])
        live = [i for i, m in enumerate(mids) if m is not None]
        bik = performance.ik_batch(
            design, _grids([mids[i] for i in live], grid, center, delta_phi,
                           n_dir), ctx.mode)
        rows = {i: slice(j * n, (j + 1) * n) for j, i in enumerate(live)}
        # the reach gate: one kernel call over every grid of the step if
        # any grid has every row usable, none otherwise
        res = (constraints_batch(design, bik.poses, ctx, l_c=l_c, bik=bik)
               if bik.ok().reshape(len(live), n).all(axis=1).any() else None)
        i = 0     # walk the outcomes down from node 0, mid
        while i < len(mids) and mids[i] is not None:
            # every grid of an unscored step fails, with no report yet
            fail = (() if res is None
                    else decide(mids[i], res, bik.poses, rows[i]))
            if fail is None:
                lo, i = mids[i], 2 * i + 2
            else:
                hi, limiting, i = mids[i], fail or None, 2 * i + 1
    if limiting is None:    # hi's grid has no scores: score it alone
        points = _grids([hi], grid, center, delta_phi, n_dir)
        limiting = decide(hi, constraints_batch(design, points, ctx, l_c=l_c),
                          points, slice(0, n))
    return WorkspaceResult(lo, *limiting, l_c, home)
