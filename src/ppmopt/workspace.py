"""Regular-workspace evaluation: the second objective.

The regular workspace is a cylinder in (x, y, phi): every position inside
a disc of radius R_w around the center must be reachable over the full
rotation band (default 20 degrees total) with every constraint satisfied
and a single fixed working mode.  Feasibility is checked on a
deterministic grid (center poses first, then rings radial-major), and the
maximal radius is found by bisection, which makes R_w a deterministic
function of the design vector.

Each bisection probe at a radius > 0 builds its grid once and solves the
inverse kinematics of every grid pose once.  A pose that is unreachable
or past a stroke limit fails every constraint check, so a probe holding
one fails without the Jacobian, dexterity and stiffness kernels; the
verdict is the one the kernels would give.  Other probes hand that same
solution to one constraints_batch call over the whole grid.  When the
final failing radius was decided by this reach gate, its grid is scored
once after the search, on the IK the gate already solved, so the limiting
pose and report are those of the first failing grid row, as without the
gate.  The result also carries the scores of the grid at R_w itself,
which the search has already computed.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import performance
from .errors import HomeUnreachable, InvalidValue
from .kinematics import BatchIK, Pose
from .model import Architecture, DesignVector
from .performance import (BatchConstraints, ConstraintReport, DEFAULT_CONTEXT,
                          EvalContext, characteristic_length, constraints_batch)

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
        # written so that NaN fails both tests
        if not (0.0 <= self.radius < math.inf and 0.0 < self.delta_phi < math.inf):
            raise ValueError("workspace radius must be finite and >= 0, band "
                             f"finite and > 0; got radius {self.radius}, "
                             f"band {self.delta_phi}")
        if len(self.center) != 3 or not all(map(math.isfinite, self.center)):
            raise InvalidValue("center", "three finite numbers", self.center)


@dataclass(frozen=True)
class GridSpec:
    """Discretization density of the workspace cylinder: n_radial rings
    of n_angular positions each, the first at angle 0, every position
    swept over n_orientation angles of the rotation band."""

    n_radial: int = 5
    n_angular: int = 12
    n_orientation: int = 5

    def __post_init__(self):
        for name, least in (("n_radial", 1), ("n_angular", 2), ("n_orientation", 2)):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= least):
                raise InvalidValue(name, f"an integer >= {least}", value)


DEFAULT_GRID = GridSpec()


@functools.lru_cache(maxsize=64)
def _grid_layout(grid: GridSpec, center: tuple[float, float, float],
                 delta_phi: float) -> tuple[np.ndarray, ...]:
    """The radius-independent part of a grid, as read-only arrays: the
    (n_orientation, 3) center block, the orientation band, the ring
    numbers 1..n_radial as a column, and cos / sin of the ring angles."""
    xc, yc, pc = center
    phis = np.linspace(pc - delta_phi / 2.0, pc + delta_phi / 2.0,
                       grid.n_orientation)
    block = np.column_stack([np.full(grid.n_orientation, xc),
                             np.full(grid.n_orientation, yc), phis])
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


def grid_points(spec: WorkspaceSpec, grid: GridSpec) -> list[Pose]:
    """Grid poses as Pose objects, in evaluation order."""
    return [Pose(*row) for row in grid_array(spec, grid)]


class Probe(NamedTuple):
    """Outcome of one cylinder check: the verdict, the first failing pose
    in grid order and its report (None when feasible), and the scores of
    every grid row."""

    feasible: bool
    pose: Pose | None
    report: ConstraintReport | None
    scores: BatchConstraints


def workspace_feasible(design: DesignVector, spec: WorkspaceSpec,
                       grid: GridSpec = DEFAULT_GRID,
                       ctx: EvalContext = DEFAULT_CONTEXT,
                       l_c: float | None = None,
                       bik: BatchIK | None = None) -> Probe:
    """Check every grid pose of the cylinder against g1..g6.

    The whole grid goes to one constraints_batch call: its rows do not
    depend on their batch, so the first failing row is the same as in a
    pose-by-pose scan.  bik, when given, is ik_batch of the grid
    (grid_array(spec, grid)) under ctx.mode; its poses are then the grid.
    """
    points = grid_array(spec, grid) if bik is None else bik.poses
    res = constraints_batch(design, points, ctx, l_c=l_c, bik=bik)
    bad = np.flatnonzero(~res.overall)
    if bad.size:
        idx = int(bad[0])
        return Probe(False, Pose(*points[idx]), res.report(idx), res)
    return Probe(True, None, None, res)


def upper_radius(design: DesignVector) -> float:
    """Safe bisection bracket: center offset can never exceed the base
    radius plus platform radius plus the maximal leg extension."""
    ext = {Architecture.PRR: math.sqrt(3.0) * design.base_radius + design.link_length,
           Architecture.RPR: design.link_length,
           Architecture.RRR: 2.0 * design.link_length}[design.architecture]
    return design.base_radius + design.platform_radius + ext


@dataclass(frozen=True)
class WorkspaceResult:
    """Outcome of the maximal-radius search."""

    radius: float
    limiting_pose: Pose | None
    limiting_report: ConstraintReport | None
    characteristic_length: float
    scores: BatchConstraints    # constraints_batch of the grid at radius


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
    kinematics first (see the module docstring).  tol must be finite and
    > 0, or the bisection could never end.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"bisection tolerance must be finite and > 0, got {tol}")
    try:
        l_c = characteristic_length(design, ctx)
    except HomeUnreachable:
        l_c = math.nan

    def probe(radius: float) -> Probe | BatchIK:
        """The probe at radius, or its grid's IK when the reach gate fails it."""
        spec = WorkspaceSpec(radius, center, delta_phi)
        # performance's ik_batch: the lookup the kernels' own IK goes through
        bik = performance.ik_batch(design, grid_array(spec, grid), ctx.mode)
        if not bik.ok().all():
            return bik
        return workspace_feasible(design, spec, grid, ctx, l_c=l_c, bik=bik)

    # radius 0 is never gated: the GA reads violations from its report
    at_lo = workspace_feasible(design, WorkspaceSpec(0.0, center, delta_phi),
                               grid, ctx, l_c=l_c)
    if not at_lo.feasible:
        return WorkspaceResult(0.0, at_lo.pose, at_lo.report, l_c, at_lo.scores)

    lo, hi = 0.0, upper_radius(design)
    at_hi = probe(hi)
    if isinstance(at_hi, Probe) and at_hi.feasible:
        return WorkspaceResult(hi, None, None, l_c, at_hi.scores)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        res = probe(mid)
        if isinstance(res, Probe) and res.feasible:
            lo, at_lo = mid, res
        else:
            hi, at_hi = mid, res
    if not isinstance(at_hi, Probe):   # gated: score that grid on its IK
        at_hi = workspace_feasible(design, WorkspaceSpec(hi, center, delta_phi),
                                   grid, ctx, l_c=l_c, bik=at_hi)
    return WorkspaceResult(lo, at_hi.pose, at_hi.report, l_c, at_lo.scores)


def max_regular_workspace(design: DesignVector, grid: GridSpec = DEFAULT_GRID,
                          ctx: EvalContext = DEFAULT_CONTEXT,
                          tol: float = BISECTION_TOL_DEFAULT) -> float:
    """Largest regular-workspace radius of a design [m] (0 if infeasible)."""
    return max_regular_workspace_detail(design, grid, ctx, tol).radius
