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

Each bisection probe at a radius > 0 builds its grid once and solves the
inverse kinematics of every grid pose once.  A pose that is unreachable
or past a stroke limit fails every constraint check, so a probe holding
one fails without the Jacobian, dexterity and stiffness kernels; the
verdict is the one the kernels would give.  Other probes hand that same
solution to one constraints_batch call over the whole grid.  The final
failing grid, if the gate decided it or it was never probed, is scored
once after the search: on the IK its gate solved, or at the bracket if
every probe passed.  So the limiting pose and report are those of its
first failing row, as without the gate.  The result also carries the
scores of the grid at R_w itself, which the search has already computed.

The radius-0 probe scores the center block with HOME_POSE appended as
its last row; the grid's cached layout holds that block.  The home row
is scored with the block but stays out of the verdict, the limiting
pose and the R_w scores; its report is WorkspaceResult.home, the home
block of ppmopt evaluate.  performance.home_length, where the l_c
policy lives, resolves l_c on the block's IK: a fixed length as it is,
else a search on the home row's kappa_F terms from the block's one
kernel pass, to the value characteristic_length gives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import performance
from .errors import InvalidValue
from .kinematics import HOME_POSE, BatchIK, Pose, anchor_layout
from .model import Architecture, DesignVector, check_counts
# characteristic_length is unused here but kept: bench/tracing.py hooks
# workspace.characteristic_length
from .performance import (BatchConstraints, ConstraintReport, DEFAULT_CONTEXT,
                          EvalContext, Kernels, characteristic_length,
                          constraints_batch)

DELTA_PHI_DEFAULT = math.radians(20.0)  # total rotation range of the cylinder
CENTER_DEFAULT = (0.0, 0.0, 0.0)        # (x_c [m], y_c [m], phi_c [rad])
BISECTION_TOL_DEFAULT = 1e-3            # [m], final bracket width on R_w


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
        if len(self.center) != 3 or not all(map(math.isfinite, self.center)):
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


def grid_array(spec: WorkspaceSpec, grid: GridSpec) -> np.ndarray:
    """Grid poses as a fresh (N, 3) array.

    Ordering is radial-major: the center at every orientation first, then
    each ring from the smallest radius outward, each position swept over
    the orientation band.  A zero radius yields only the center block.
    Ring k of n_radial sits at radius * k / n_radial.
    """
    block, phis, k, cos, sin = _grid_layout(grid, spec.center, spec.delta_phi)
    block = block[:-1]      # the center block, without the home row
    if spec.radius == 0.0:
        return block.copy()
    xc, yc, _ = spec.center
    n_o = grid.n_orientation
    rad = spec.radius * k / grid.n_radial
    out = np.empty((n_o * (1 + grid.n_radial * grid.n_angular), 3))
    out[:n_o] = block
    rings = out[n_o:].reshape(grid.n_radial, grid.n_angular, n_o, 3)
    rings[..., 0] = (xc + rad * cos)[..., None]
    rings[..., 1] = (yc + rad * sin)[..., None]
    rings[..., 2] = phis
    return out


class Probe(NamedTuple):
    """Outcome of one cylinder check: the verdict, the first failing pose
    in grid order and its report (None when feasible), and the scores of
    every scored row."""

    feasible: bool
    pose: Pose | None
    report: ConstraintReport | None
    scores: BatchConstraints


def workspace_feasible(design: DesignVector, spec: WorkspaceSpec,
                       grid: GridSpec = DEFAULT_GRID,
                       ctx: EvalContext = DEFAULT_CONTEXT,
                       l_c: float | None = None,
                       bik: BatchIK | None = None,
                       kern: Kernels | None = None) -> Probe:
    """Check every grid pose of the cylinder against g1..g6.

    The whole grid goes to one constraints_batch call: its rows do not
    depend on their batch, so the first failing row is the same as in a
    pose-by-pose scan.  bik, when given, is ik_batch of the grid
    (grid_array(spec, grid)) under ctx.mode, its poses then the grid,
    and kern, when given, kernel_batch of bik.  At radius 0, bik may
    also hold rows after the grid (the appended home row): they are
    scored, and kept in the scores, but enter no verdict or report.
    """
    points = grid_array(spec, grid) if bik is None else bik.poses
    res = constraints_batch(design, points, ctx, l_c=l_c, bik=bik, kern=kern)
    ok = res.overall[:grid.n_orientation] if spec.radius == 0.0 else res.overall
    if ok.all():
        return Probe(True, None, None, res)
    idx = int(ok.argmin())     # the first False
    return Probe(False, Pose(*points[idx]), res.report(idx), res)


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
    scores: BatchConstraints    # constraints_batch of the grid at radius
    home: ConstraintReport      # HOME_POSE, the radius-0 batch's last row


def max_regular_workspace_detail(design: DesignVector,
                                 grid: GridSpec = DEFAULT_GRID,
                                 ctx: EvalContext = DEFAULT_CONTEXT,
                                 tol: float = BISECTION_TOL_DEFAULT,
                                 center: tuple[float, float, float] = CENTER_DEFAULT,
                                 delta_phi: float = DELTA_PHI_DEFAULT) -> WorkspaceResult:
    """Bisection for the largest feasible cylinder radius.

    Returns radius 0 when even the center poses fail; the limiting pose
    is the first grid failure at the smallest infeasible radius probed.
    Probes above radius 0 pass the reach gate on their grid's inverse
    kinematics first, and the radius-0 probe also scores HOME_POSE and
    resolves l_c (see the module docstring).  tol must be finite and > 0,
    or the bisection could never end.
    """
    if not 0.0 < tol < math.inf:
        raise InvalidValue("tol", "finite and > 0", tol)
    # radius 0 is never gated: the GA reads violations from its report.
    # Its batch also holds HOME_POSE, whose row resolves l_c and gives the
    # home report (see the module docstring)
    spec = WorkspaceSpec(0.0, center, delta_phi)    # checks center and band
    # performance's ik_batch: the lookup the kernels' own IK goes through
    bik = performance.ik_batch(design,
                               _grid_layout(grid, spec.center, delta_phi)[0],
                               ctx.mode)
    l_c, kern = performance.home_length(design, bik, ctx)
    at_lo = workspace_feasible(design, spec, grid, ctx, l_c=l_c, bik=bik,
                               kern=kern)
    home = at_lo.scores.report(-1)
    at_lo = at_lo._replace(scores=at_lo.scores.rows(slice(-1)))
    # the bracket itself always fails (see upper_radius), so it is not
    # probed; a failing radius 0 closes it at once
    lo, hi = 0.0, upper_radius(design) if at_lo.feasible else 0.0
    # hi's probe (None if gated or unprobed) and IK
    at_hi, bik_hi = (None if at_lo.feasible else at_lo), None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        spec = WorkspaceSpec(mid, center, delta_phi)
        bik = performance.ik_batch(design, grid_array(spec, grid), ctx.mode)
        res = (workspace_feasible(design, spec, grid, ctx, l_c=l_c, bik=bik)
               if bik.ok().all() else None)
        if res is not None and res.feasible:
            lo, at_lo = mid, res
        else:
            hi, at_hi, bik_hi = mid, res, bik
    if at_hi is None:   # score the final failing grid, on its gate's IK if any
        at_hi = workspace_feasible(design, WorkspaceSpec(hi, center, delta_phi),
                                   grid, ctx, l_c=l_c, bik=bik_hi)
    return WorkspaceResult(lo, at_hi.pose, at_hi.report, l_c, at_lo.scores, home)


def max_regular_workspace(design: DesignVector, grid: GridSpec = DEFAULT_GRID,
                          ctx: EvalContext = DEFAULT_CONTEXT,
                          tol: float = BISECTION_TOL_DEFAULT) -> float:
    """Largest regular-workspace radius of a design [m] (0 if infeasible)."""
    return max_regular_workspace_detail(design, grid, ctx, tol).radius
