"""Geometry conventions, inverse kinematics and kinematic Jacobians.

Frames and conventions, fixed project-wide:

* Base frame at the circumcenter O of the base triangle, x-axis parallel
  to A1 A2.  Platform frame at the platform center P, X-axis parallel to
  C1 C2.  The pose is (p_x, p_y, phi) of P in the base frame.
* Triangle vertices sit at polar angles (210, 330, 90) degrees, so both
  "parallel to segment" requirements hold and the equilateral side length
  is sqrt(3) times the circumradius.
* PRR rails run from A_i toward A_{i+1} (cyclic); the usable travel is
  the full side length sqrt(3) R.
* Platform twist ordering is (p_x_dot, p_y_dot, phi_dot) everywhere.

The velocity loop of each leg reads A * t_dot = B * q_dot; det(A) = 0 at
parallel (Type-2) singularities and det(B) = 0 at serial (Type-1) ones.

All pose-dependent math is implemented once, vectorized over an array of
poses (`ik_batch`, `jacobian_batch`); the scalar operations wrap the
batch path with N = 1 so both views cannot diverge.  Batch arrays are
laid out (component, leg, pose), poses on the last axis, so each kernel
unpacks components and legs as contiguous rows.  Passive-joint angles
and the forward kinematics are not computed here; the test oracle
`tests/chain_oracle.py` derives both independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ModeViolation, Unreachable
from .model import Architecture, DesignVector, check_finite

# Polar angles of the base triangle corners: A1A2 horizontal, apex up.
VERTEX_ANGLES = (7.0 * math.pi / 6.0, 11.0 * math.pi / 6.0, math.pi / 2.0)

# Platform vertex angles per architecture.  The RPR/RRR platform is
# radially aligned with the base corners (legs point outward at home, so
# the home strut length is R - r).  The PRR platform points each vertex
# at the rail it rides (the side-normal angles), the only assembly that
# leaves the intermediate links enough clearance; C1C2 stays horizontal.
PLATFORM_ANGLES_ALIGNED = VERTEX_ANGLES
PLATFORM_ANGLES_PRR = (5.0 * math.pi / 6.0, math.pi / 6.0, 3.0 * math.pi / 2.0)

SQRT3 = math.sqrt(3.0)


def wrap_angle(phi: float) -> float:
    """Normalize an angle to (-pi, pi], returning angles there unchanged."""
    if -math.pi < phi <= math.pi:
        return phi
    w = math.atan2(math.sin(phi), math.cos(phi))
    return w if w > -math.pi else math.pi


@dataclass(frozen=True)
class Pose:
    """Moving-platform position and orientation."""

    p_x: float  # [m]
    p_y: float  # [m]
    phi: float  # [rad], stored normalized to (-pi, pi]; kept as given there

    def __post_init__(self):
        check_finite(self, ("p_x", "p_y", "phi"), positive=False)
        object.__setattr__(self, "phi", wrap_angle(self.phi))

    def as_array(self) -> np.ndarray:
        return np.array([self.p_x, self.p_y, self.phi])


HOME_POSE = Pose(0.0, 0.0, 0.0)


class Branch(Enum):
    """Working-mode branch of one leg's inverse kinematics."""

    PLUS = 1
    MINUS = -1


WorkingMode = tuple[Branch, Branch, Branch]
#: Default working mode: the PLUS root for every leg (larger prismatic
#: root for the PRR, counterclockwise elbow for the RRR).
DEFAULT_MODE: WorkingMode = (Branch.PLUS, Branch.PLUS, Branch.PLUS)


@dataclass(frozen=True, eq=False)
class AnchorLayout:
    """Joint anchor points of a design.

    base_points are the A_i in the base frame, platform_points the C_i in
    the platform frame (leg order).  For the PRR, leg i's prismatic joint
    travels from rail_starts[i] along rail_directions[i]; each rail is a
    full triangle side, traversed corner to corner, facing platform
    vertex C_i.  Both rail fields are None for the other architectures.
    Each point array is read-only and held once; the batch path reads it
    as (2, 3, 1) columns (component, leg, pose) through the view
    points.T[:, :, None].
    """

    base_points: np.ndarray       # (3, 2), triangle corners in label order
    platform_points: np.ndarray   # (3, 2)
    rail_starts: np.ndarray | None      # (3, 2) for PRR
    rail_directions: np.ndarray | None  # (3, 2) for PRR
    rail_length: float            # sqrt(3) R, the usable prismatic travel


@dataclass(frozen=True, eq=False)
class JacobianPair:
    """Velocity-loop matrices: A * (px_dot, py_dot, phi_dot) = B * q_dot."""

    a_parallel: np.ndarray  # (3, 3), singular at Type-2 singularities
    b_serial: np.ndarray    # (3, 3), singular at Type-1 singularities


def platform_vertex_angles(arch: Architecture) -> tuple[float, float, float]:
    return (PLATFORM_ANGLES_PRR if arch is Architecture.PRR
            else PLATFORM_ANGLES_ALIGNED)


@lru_cache(maxsize=1024)
def anchor_layout(design: DesignVector) -> AnchorLayout:
    """Place the base and platform anchor triangles of a design."""
    ang = np.array(VERTEX_ANGLES)
    base = design.base_radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    pang = np.array(platform_vertex_angles(design.architecture))
    plat = design.platform_radius * np.stack([np.cos(pang), np.sin(pang)], axis=1)
    starts = rails = None
    if design.architecture is Architecture.PRR:
        # Leg i rides the side whose inward normal points at C_i; in the
        # paper's corner labels every rail still runs A_i -> A_{i+1}.
        starts = base[[2, 1, 0]]
        ends = base[[0, 2, 1]]
        side = ends - starts
        rails = side / np.linalg.norm(side, axis=1, keepdims=True)
    for arr in (base, plat, starts, rails):
        if arr is not None:
            arr.setflags(write=False)
    return AnchorLayout(base, plat, starts, rails, SQRT3 * design.base_radius)


class BatchIK(NamedTuple):
    """Leg coordinates for a batch of poses, one architecture.

    Arrays but poses are (leg, pose) or ((x, y), leg, pose): (3, N) or
    (2, 3, N), poses on the last axis.

    poses       the (N, 3) pose array solved
    c_world     platform anchors C_i in the base frame
    moment      E * (C_i - p): the 90-degree-rotated platform vectors that
                multiply phi_dot in every velocity loop
    q           actuated coordinates (rho or theta); for the RPR, rho is
                also the strut length |C_i - A_i| that flexes
    elbow       intermediate joint point B_i (PRR foot / RRR elbow; for
                the RPR this is A_i, the proximal joint)
    proximal    RRR only: the proximal link B_i - A_i, which the Jacobian
                and the link springs both read; None for PRR and RPR
    distal      unit vector along the distal link, foot/strut to C_i
    reachable   the branch root exists and joint limits hold (per spec's
                unreachability definition for each architecture)
    stroke_ok   the g2 stroke/reach inequality for each leg
    """

    poses: np.ndarray
    c_world: np.ndarray
    moment: np.ndarray
    q: np.ndarray
    elbow: np.ndarray
    proximal: np.ndarray | None
    distal: np.ndarray
    reachable: np.ndarray
    stroke_ok: np.ndarray

    def ok(self) -> np.ndarray:
        """(N,) mask: all three legs reachable with valid strokes."""
        m = self.reachable & self.stroke_ok
        return m[0] & m[1] & m[2]


def _platform_anchors(layout: AnchorLayout, poses: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """C_i in the base frame and the rotated anchor vectors E R(phi) c_i,
    both (2, 3, N), for an (N, 3) pose array."""
    px, py, phi = poses.T
    cphi, sphi = np.cos(phi), np.sin(phi)
    cx, cy = layout.platform_points.T[:, :, None]    # platform frame
    c_world = np.empty((2, 3, poses.shape[0]))
    moment = np.empty_like(c_world)
    ry, rx = moment                                  # moment = (-ry, rx)
    np.subtract(cx * cphi, cy * sphi, out=rx)
    np.add(cx * sphi, cy * cphi, out=ry)
    np.add(px, rx, out=c_world[0])
    np.add(py, ry, out=c_world[1])
    np.negative(ry, out=ry)
    return c_world, moment


@lru_cache(maxsize=8)
def _mode_signs(mode: WorkingMode) -> np.ndarray:
    """The branch signs of a working mode as a read-only (3, 1) column."""
    sign = np.array([[b.value] for b in mode], dtype=float)
    sign.setflags(write=False)
    return sign


def ik_batch(design: DesignVector, poses: np.ndarray,
             mode: WorkingMode = DEFAULT_MODE) -> BatchIK:
    """Closed-form inverse kinematics over an (N, 3) pose array."""
    poses = np.atleast_2d(np.asarray(poses, dtype=float))
    layout = anchor_layout(design)
    arch = design.architecture
    lb = design.link_length
    n = poses.shape[0]
    c_world, moment = _platform_anchors(layout, poses)

    # the leg origins: rail starts for the PRR, base corners otherwise
    a = (layout.base_points if layout.rail_starts is None
         else layout.rail_starts).T[:, :, None]
    w = c_world - a
    wx, wy = w
    sign = _mode_signs(mode)
    proximal = None

    if arch is Architecture.RPR:
        rho = np.sqrt(wx * wx + wy * wy)
        distal = w / np.maximum(rho, 1e-300)
        reachable = (rho >= lb / 2.0) & (rho <= lb)
        stroke_ok = reachable
        elbow = np.broadcast_to(a, (2, 3, n))
        q = rho
    elif arch is Architecture.PRR:
        u = layout.rail_directions.T[:, :, None]
        s = wx * u[0] + wy * u[1]
        h2 = wx * wx + wy * wy - s * s
        disc = lb * lb - h2
        reachable = disc >= 0.0
        q = s + sign * np.sqrt(np.maximum(disc, 0.0))
        elbow = a + q * u
        distal = (c_world - elbow) / lb
        stroke_ok = (q > 0.0) & (q < layout.rail_length)
    else:  # RRR: two equal links of length lb
        dist = np.sqrt(wx * wx + wy * wy)
        reachable = (dist <= 2.0 * lb) & (dist > 1e-12)
        half = np.minimum(dist / (2.0 * lb), 1.0)      # dist >= 0
        spread = np.arccos(half)
        alpha = np.arctan2(wy, wx)
        q = alpha + sign * spread
        elbow = np.empty((2, 3, n))
        np.add(a[0], lb * np.cos(q), out=elbow[0])
        np.add(a[1], lb * np.sin(q), out=elbow[1])
        proximal = elbow - a
        distal = (c_world - elbow) / lb
        stroke_ok = reachable

    return BatchIK(poses, c_world, moment, q, elbow, proximal, distal,
                   reachable, stroke_ok)


def jacobian_batch(design: DesignVector, bik: BatchIK) -> tuple[np.ndarray, np.ndarray]:
    """Velocity-loop matrix A, shape (3, 3, N), and the diagonal of B,
    shape (3, N): B is diagonal for every architecture (each actuator
    drives one leg).  A[:, i, n] is row i of pose n's matrix, the unit
    wrench (d_x, d_y, m_z) of leg i."""
    n = bik.q.shape[-1]
    dx, dy = bik.distal
    mx, my = bik.moment
    amat = np.empty((3, 3, n))
    amat[:2] = bik.distal
    np.add(dx * mx, dy * my, out=amat[2])

    arch = design.architecture
    if arch is Architecture.RPR:
        b = np.ones((3, n))
    elif arch is Architecture.PRR:
        ux, uy = anchor_layout(design).rail_directions.T[:, :, None]
        b = dx * ux + dy * uy
    else:
        lx, ly = bik.proximal
        # d . E(lever): rate gain of the distal constraint per theta_dot.
        b = dy * lx - dx * ly
    return amat, b


class Adjugate(NamedTuple):
    """adj(A) and det A over a batch: A^-1 = adj(A) / det A.

    x, y and z (3, N) are the rows of adj(A), poses on the last axis:
    column i is the cross product of rows i+1 and i+2 of A, i.e. of the
    unit wrenches of the other two legs.  det A (N,) sums the legs term
    by term, so a pose comes out bit-identical alone and in any batch.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    det: np.ndarray


#: The other two legs of each leg, in cyclic order (also the two other
#: components of each vector component, for cross products).
_NEXT, _LAST = np.array([1, 2, 0]), np.array([2, 0, 1])


def adjugate_batch(amat: np.ndarray) -> Adjugate:
    """Adjugate and determinant of the (3, 3, N) velocity-loop matrices."""
    nxt, lst = amat[:, _NEXT], amat[:, _LAST]
    x = nxt[1] * lst[2] - nxt[2] * lst[1]
    y = nxt[2] * lst[0] - nxt[0] * lst[2]
    z = nxt[0] * lst[1] - nxt[1] * lst[0]
    t = amat[0] * x
    return Adjugate(x, y, z, t[0] + t[1] + t[2])


def solve_pose(design: DesignVector, pose: Pose, mode: WorkingMode
               ) -> BatchIK:
    """The IK of one pose; raises for the first leg that cannot take it.
    Every one-pose call solves its pose here."""
    bik = ik_batch(design, pose.as_array()[None, :], mode)
    for i in range(3):
        if not bik.reachable[i, 0]:
            raise Unreachable(i, "no inverse-kinematic solution at this pose")
        if not bik.stroke_ok[i, 0]:
            raise ModeViolation(i, f"actuated coordinate {bik.q[i, 0]:.6g}")
    return bik


def inverse_kinematics(design: DesignVector, pose: Pose,
                       mode: WorkingMode = DEFAULT_MODE) -> np.ndarray:
    """Actuated coordinates of the three legs at one pose, a fresh (3,)
    array: rho_i [m] for the PRR/RPR, the base joint angle [rad] for the
    RRR.

    Raises Unreachable when a leg has no solution (no real PRR root, RPR
    strut outside [L_b/2, L_b], RRR anchor distance beyond 2 L_b) and
    ModeViolation when the requested PRR branch root violates the rail
    travel limits.
    """
    return solve_pose(design, pose, mode).q[:, 0].copy()


def jacobian(design: DesignVector, pose: Pose,
             mode: WorkingMode = DEFAULT_MODE) -> JacobianPair:
    """Velocity-loop matrices at one pose, in the given working mode.

    Raises as inverse_kinematics does where a leg cannot take the pose.
    Singular matrices are returned as-is; dexterity handles them.
    """
    amat, b = jacobian_batch(design, solve_pose(design, pose, mode))
    return JacobianPair(a_parallel=amat[..., 0].T, b_serial=np.diag(b[:, 0]))
