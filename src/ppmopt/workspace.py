"""Regular-workspace evaluation: the second objective.

The regular workspace is a cylinder in (x, y, phi): every position inside
a disc of radius R_w around the center must be reachable over the full
rotation band (default 20 degrees total) with every constraint satisfied
and a single fixed working mode.  Feasibility is checked on a
deterministic grid (center poses first, then rings radial-major), and the
maximal radius is found by bisection, which makes R_w a deterministic
function of the design vector.  The bisection starts from [0,
upper_radius]; no grid passes at that bracket, so it is never probed.

Each bisection probe at a radius > 0 builds its grid once and solves the
inverse kinematics of every grid pose once.  A pose that is unreachable
or past a stroke limit fails every constraint check, so a probe holding
one fails without the Jacobian, dexterity and stiffness kernels; the
verdict is the one the kernels would give.  Other probes hand that same
solution to one constraints_batch call over the whole grid.  The final
failing grid, if still unscored, is scored once after the search: on the
IK its gate solved, or at the bracket if every probe passed.  So the
limiting pose and report are those of its first failing row, as without
the gate; no other failing probe builds a pose or report.  The result
also carries the scores of the grid at R_w itself, which the search has
already computed.

The home-optimal characteristic length l_c comes from the radius-0
probe's own kernel pass.  Its center block holds HOME_POSE bit for bit
when the center is HOME_POSE and n_orientation is odd (the defaults):
the one IK, Jacobian and adjugate of the block then also give the home
row's kappa_F terms, which performance.home_length searches, as
characteristic_length does on a one-pose solve, to the same value.
Otherwise HOME_POSE is appended to the block as one extra row that
enters no verdict, report or scores.  A fixed l_c skips the search.
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
from .kinematics import HOME_POSE, BatchIK, Pose
from .model import Architecture, DesignVector
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


@functools.lru_cache(maxsize=64)
def _home_block(grid: GridSpec, center: tuple[float, float, float],
                delta_phi: float) -> tuple[np.ndarray, int]:
    """The center block, read-only, and the index of its HOME_POSE row;
    HOME_POSE is appended when no row is HOME_POSE bit for bit."""
    block = _grid_layout(grid, center, delta_phi)[0]
    home = HOME_POSE.as_array()
    for i, row in enumerate(block):
        if row.tobytes() == home.tobytes():   # bit for bit: not -0.0
            return block, i
    out = np.vstack([block, home])
    out.setflags(write=False)
    return out, len(block)


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
                       bik: BatchIK | None = None,
                       kern: Kernels | None = None, *,
                       detail: bool = True) -> Probe:
    """Check every grid pose of the cylinder against g1..g6.

    The whole grid goes to one constraints_batch call: its rows do not
    depend on their batch, so the first failing row is the same as in a
    pose-by-pose scan.  bik, when given, is ik_batch of the grid
    (grid_array(spec, grid)) under ctx.mode, its poses then the grid,
    and kern, when given, kernel_batch of bik.  At radius 0, bik may
    also hold rows after the grid (an appended home row): they are
    scored but enter no verdict, report or scores.  detail False leaves
    the pose and report of a failing probe None, for a caller that needs
    them only from its final probe.
    """
    points = grid_array(spec, grid) if bik is None else bik.poses
    res = constraints_batch(design, points, ctx, l_c=l_c, bik=bik, kern=kern)
    if spec.radius == 0.0 and len(points) > grid.n_orientation:
        res = BatchConstraints(**{name: getattr(res, name)[:grid.n_orientation]
                                  for name in BatchConstraints.__slots__})
    if res.overall.all():
        return Probe(True, None, None, res)
    return _failure(points, res) if detail else Probe(False, None, None, res)


def _failure(points: np.ndarray, res: BatchConstraints) -> Probe:
    """The failing probe of res over points, with its first failing row."""
    idx = int(res.overall.argmin())     # the first False
    return Probe(False, Pose(*points[idx]), res.report(idx), res)


def upper_radius(design: DesignVector) -> float:
    """Bisection bracket, never probed: its grid always fails.  Ring
    directions sum to zero, so the outer ring has a pose this far or more
    from the base center: PRR feet stay inside the base circle, and two
    RPR/RRR base corners lie >= 60 degrees off it, out of their legs' reach."""
    ext = {Architecture.PRR: math.sqrt(3.0) * design.base_radius + design.link_length,
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
    kinematics first, and the radius-0 probe also resolves l_c (see the
    module docstring).  tol must be finite and > 0, or the bisection
    could never end.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"bisection tolerance must be finite and > 0, got {tol}")
    # radius 0 is never gated: the GA reads violations from its report.
    # Its IK and kernel pass also resolve l_c (see the module docstring)
    spec = WorkspaceSpec(0.0, center, delta_phi)
    l_c, bik, kern = ctx.dexterity.characteristic_length, None, None
    if l_c is None:
        points, home = _home_block(grid, center, delta_phi)
        # performance's ik_batch: the lookup the kernels' own IK goes through
        bik = performance.ik_batch(design, points, ctx.mode)
        l_c, kern = performance.home_length(design, bik, home)
    at_lo = workspace_feasible(design, spec, grid, ctx, l_c=l_c, bik=bik,
                               kern=kern)
    if not at_lo.feasible:
        return WorkspaceResult(0.0, at_lo.pose, at_lo.report, l_c, at_lo.scores)

    # the bracket itself always fails (see upper_radius), so it is not probed
    lo, hi = 0.0, upper_radius(design)
    at_hi, bik_hi = None, None   # hi's probe (None if gated or unprobed), IK
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        spec = WorkspaceSpec(mid, center, delta_phi)
        bik = performance.ik_batch(design, grid_array(spec, grid), ctx.mode)
        res = (workspace_feasible(design, spec, grid, ctx, l_c=l_c, bik=bik,
                                  detail=False)
               if bik.ok().all() else None)
        if res is not None and res.feasible:
            lo, at_lo = mid, res
        else:
            hi, at_hi, bik_hi = mid, res, bik
    if at_hi is None:   # score the final failing grid, on its gate's IK if any
        at_hi = workspace_feasible(design, WorkspaceSpec(hi, center, delta_phi),
                                   grid, ctx, l_c=l_c, bik=bik_hi)
    else:
        at_hi = _failure(bik_hi.poses, at_hi.scores)
    return WorkspaceResult(lo, at_hi.pose, at_hi.report, l_c, at_lo.scores)


def max_regular_workspace(design: DesignVector, grid: GridSpec = DEFAULT_GRID,
                          ctx: EvalContext = DEFAULT_CONTEXT,
                          tol: float = BISECTION_TOL_DEFAULT) -> float:
    """Largest regular-workspace radius of a design [m] (0 if infeasible)."""
    return max_regular_workspace_detail(design, grid, ctx, tol).radius
