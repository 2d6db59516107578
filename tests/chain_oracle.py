"""Independent oracles for the leg chains: the virtual-spring screw
Jacobians and the forward kinematics.

Builds each leg's elastic chain explicitly as a product of homogeneous
transforms (rigid offsets, passive rotations, spring deflections) and
differentiates the end pose by central finite differences.  None of the
library's screw-construction code is reused here, so agreement between
this oracle and the analytic Jacobians checks the whole frame bookkeeping.

forward_refine solves the forward kinematics by Newton iteration on the
loop-closure residuals, with the platform anchors placed here from
anchor_layout's platform points (poses first, by rotation matrices), so
the round trip FK(IK(x)) = x shares no arithmetic with ik_batch.
"""

import math

import numpy as np

from ppmopt.errors import PpmError
from ppmopt.kinematics import (anchor_layout, ik_batch, DEFAULT_MODE, Pose,
                               platform_vertex_angles)
from ppmopt.model import Architecture, DesignVector

N_SPRINGS = {Architecture.PRR: 13, Architecture.RPR: 13, Architecture.RRR: 19}


def _trans(x, y=0.0, z=0.0):
    t = np.eye(4)
    t[:3, 3] = (x, y, z)
    return t


def _rotx(a):
    t = np.eye(4)
    c, s = math.cos(a), math.sin(a)
    t[1, 1], t[1, 2], t[2, 1], t[2, 2] = c, -s, s, c
    return t


def _roty(a):
    t = np.eye(4)
    c, s = math.cos(a), math.sin(a)
    t[0, 0], t[0, 2], t[2, 0], t[2, 2] = c, s, -s, c
    return t


def _rotz(a):
    t = np.eye(4)
    c, s = math.cos(a), math.sin(a)
    t[0, 0], t[0, 1], t[1, 0], t[1, 1] = c, -s, s, c
    return t


def _spring6(th):
    return _trans(*th[:3]) @ _rotx(th[3]) @ _roty(th[4]) @ _rotz(th[5])


def chain_transform(design: DesignVector, leg: int, pose, theta, q_dev,
                    mode=DEFAULT_MODE) -> np.ndarray:
    """End pose of one leg's elastic chain for spring deflections theta
    and passive-joint deviations q_dev (both zero at the nominal pose)."""
    arch = design.architecture
    layout = anchor_layout(design)
    bik = ik_batch(design, np.asarray(pose, dtype=float)[None, :], mode)
    lb = design.link_length
    r = design.platform_radius
    phi = float(pose[2])
    bar_angle = phi + platform_vertex_angles(arch)[leg] + math.pi

    dist = bik.distal[:, leg, 0]
    link_angle = math.atan2(dist[1], dist[0])
    rho = float(bik.q[leg, 0])

    if arch is Architecture.PRR:
        start = layout.rail_starts[leg]
        rail = layout.rail_directions[leg]
        rail_angle = math.atan2(rail[1], rail[0])
        t = _trans(start[0], start[1]) @ _rotz(rail_angle)
        t = t @ _trans(rho + theta[0])                       # joint + act spring
        t = t @ _rotz(link_angle - rail_angle + q_dev[0])    # passive at foot
        t = t @ _trans(lb) @ _spring6(theta[1:7])            # link spring at C
        t = t @ _rotz(bar_angle - link_angle + q_dev[1])     # passive at C
        t = t @ _trans(r) @ _spring6(theta[7:13])            # platform spring at P
    elif arch is Architecture.RPR:
        a = layout.base_points[leg]
        t = _trans(a[0], a[1]) @ _rotz(link_angle + q_dev[0])  # passive at A
        t = t @ _trans(rho) @ _spring6(theta[0:6])             # strut spring at C
        t = t @ _trans(theta[6])                               # actuator spring
        t = t @ _rotz(bar_angle - link_angle + q_dev[1])       # passive at C
        t = t @ _trans(r) @ _spring6(theta[7:13])
    else:
        a = layout.base_points[leg]
        elbow = bik.elbow[:, leg, 0]
        prox = elbow - a
        prox_angle = math.atan2(prox[1], prox[0])
        t = _trans(a[0], a[1]) @ _rotz(prox_angle + theta[0])  # act joint+spring
        t = t @ _trans(lb) @ _spring6(theta[1:7])              # link 1 at B
        t = t @ _rotz(link_angle - prox_angle + q_dev[0])      # passive at B
        t = t @ _trans(lb) @ _spring6(theta[7:13])             # link 2 at C
        t = t @ _rotz(bar_angle - link_angle + q_dev[1])       # passive at C
        t = t @ _trans(r) @ _spring6(theta[13:19])
    return t @ _rotz(phi - bar_angle)                          # back to base axes


def fd_screws(design: DesignVector, leg: int, pose, mode=DEFAULT_MODE,
              h: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference spring and passive-joint Jacobians (6 x n)."""
    n_s = N_SPRINGS[design.architecture]

    def columns(n, build):
        cols = np.zeros((6, n))
        for k in range(n):
            tp = build(k, +h)
            tm = build(k, -h)
            d_pos = (tp[:3, 3] - tm[:3, 3]) / (2.0 * h)
            d_rot = (tp[:3, :3] - tm[:3, :3]) / (2.0 * h)
            omega_hat = d_rot @ chain_transform(design, leg, pose,
                                                np.zeros(n_s), np.zeros(2),
                                                mode)[:3, :3].T
            cols[:3, k] = d_pos
            cols[3:, k] = (omega_hat[2, 1], omega_hat[0, 2], omega_hat[1, 0])
        return cols

    def build_theta(k, dh):
        th = np.zeros(n_s)
        th[k] = dh
        return chain_transform(design, leg, pose, th, np.zeros(2), mode)

    def build_q(k, dh):
        dq = np.zeros(2)
        dq[k] = dh
        return chain_transform(design, leg, pose, np.zeros(n_s), dq, mode)

    return columns(n_s, build_theta), columns(2, build_q)


class NoConvergence(PpmError):
    """Newton iteration failed to reach the residual tolerance."""


def closure_residuals(design: DesignVector, q, poses) -> tuple[np.ndarray, np.ndarray]:
    """Loop-closure residuals r_i(pose), shape (N, 3), and their pose
    gradients, shape (N, 3, 3), for an (N, 3) pose array.

    For fixed actuated coordinates q, residual i is the distal-link (or
    strut) length error of leg i; row i of a gradient is the unit distal
    direction d_i and its moment d_i . E R(phi) c_i, i.e. row i of the
    parallel Jacobian A at that pose.
    """
    poses = np.atleast_2d(np.asarray(poses, dtype=float))
    layout = anchor_layout(design)
    q = np.asarray(q, dtype=float)
    cos, sin = np.cos(poses[:, 2]), np.sin(poses[:, 2])
    rot = np.array([[cos, -sin], [sin, cos]]).transpose(2, 0, 1)  # (N, 2, 2)
    arm = layout.platform_points @ rot.transpose(0, 2, 1)          # R c_i
    anchors = poses[:, None, :2] + arm                             # (N, 3, 2)
    lever = np.stack([-arm[..., 1], arm[..., 0]], axis=-1)         # E R c_i

    lb = design.link_length
    target = lb
    if design.architecture is Architecture.PRR:
        root = layout.rail_starts + q[:, None] * layout.rail_directions
    elif design.architecture is Architecture.RPR:
        root, target = layout.base_points, q
    else:
        root = layout.base_points + lb * np.column_stack([np.cos(q), np.sin(q)])

    vec = anchors - root
    length = np.linalg.norm(vec, axis=-1)
    unit = vec / np.maximum(length, 1e-300)[..., None]
    moment = np.sum(unit * lever, axis=-1)
    return length - target, np.concatenate([unit, moment[..., None]], axis=-1)


def forward_refine(design: DesignVector, q_actuated, pose_guess: Pose,
                   tol: float = 1e-10, max_iter: int = 50) -> Pose:
    """Newton forward kinematics from a nearby pose guess.

    Iterates on the three loop-closure residuals with the actuated
    coordinates held fixed.  Raises NoConvergence if the residual does not
    drop below tol within max_iter steps (e.g. at a Type-2 singularity).
    """
    x = pose_guess.as_array()
    for _ in range(max_iter):
        res, grad = closure_residuals(design, q_actuated, x[None, :])
        if np.max(np.abs(res)) <= tol:
            return Pose(*x)
        try:
            step = np.linalg.solve(grad[0], res[0])
        except np.linalg.LinAlgError as exc:
            raise NoConvergence("singular closure Jacobian") from exc
        if not np.all(np.isfinite(step)):
            raise NoConvergence("non-finite Newton step")
        x = x - step
    raise NoConvergence(f"residual {np.max(np.abs(res)):.3e} after {max_iter} iterations")
