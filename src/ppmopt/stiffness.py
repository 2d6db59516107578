"""Lumped virtual-spring stiffness model of the three manipulator families.

Each leg is a serial chain of rigid bodies with a 1-dof virtual spring for
the actuator control loop and a 6-dof virtual spring at the tip of every
flexible link (intermediate links of section radius r_j, platform bar of
length r and section radius r_p).  Link compliance is the classic
cantilever tip-compliance matrix; spring and passive-joint axes are
expressed as 6-screws at the platform center P, in the screw ordering

    (dx, dy, dz, dphi_x, dphi_y, dphi_z).

The planar mechanism is deliberately modeled in full 6-dof screw space:
out-of-plane platform deflections (the k_z constraint) come from link
bending and torsion, which a planar model could not see.

Every spring and passive-joint screw lies wholly in one of two blocks,
in-plane (dx, dy, dphi_z) or out-of-plane (dz, dphi_x, dphi_y), and the
beam compliance couples nothing across them, so each leg stiffness K_i
and the platform stiffness are exactly block-diagonal.

In plane, the two passive revolutes of a leg sit at the two ends of its
distal link, so the only wrench the leg can carry is a force along that
line: the unit wrench w_i reciprocal to both passive twists, which is row
i of the parallel Jacobian A.  The leg is a rank-1 spring along w_i,

    K_in,i = w_i w_i^T / c_i,        c_i = w_i^T S_in,i w_i,

where S = J_th K_th^-1 J_th^T is the leg's spring compliance at P and c_i
adds up what each spring sees of the load w_i: the actuator the serial
Jacobian entry B_ii, every link a force at its tip (and the platform bar
also the moment of w_i about P).  Summed over the legs,

    K_in = A^T diag(1/c) A,          C_in = A^-1 diag(c) A^-T,

singular exactly where A is (parallel singularities).  Out of plane no
passive joint gives way, so K_out = sum_i S_out,i^-1.  Both blocks are
closed-form 3x3 algebra, evaluated elementwise over poses and legs; no
6x6 product or block system is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateBeam, SingularKinetostatics, SingularStiffness
from .kinematics import (BatchIK, Pose, WorkingMode, DEFAULT_MODE, anchor_layout,
                         ik_batch, jacobian_batch)
from .model import ActuatorStiffness, Architecture, DesignVector, Material

DEFAULT_ACTUATOR = ActuatorStiffness()

#: Spring-coordinate count per leg: actuator + 6 per flexible link.
N_SPRINGS = {Architecture.PRR: 13, Architecture.RPR: 13, Architecture.RRR: 19}

#: Screw coordinates of the two decoupled blocks.
IN_PLANE = np.array([0, 1, 5])       # dx, dy, dphi_z
OUT_OF_PLANE = np.array([2, 3, 4])   # dz, dphi_x, dphi_y


class BeamTerms(NamedTuple):
    """The distinct entries of a cantilever tip compliance."""

    axial: np.ndarray    # L/(E A): stretch per axial tip force
    bend: np.ndarray     # L^3/(3 E I): deflection per transverse tip force
    torsion: np.ndarray  # L/(G I_x): twist per axial tip moment
    tilt: np.ndarray     # L/(E I): rotation per bending tip moment
    couple: np.ndarray   # L^2/(2 E I): deflection per bending tip moment


def _beam_terms(length, section_radius, material: Material) -> BeamTerms:
    e, g = material.young_modulus, material.shear_modulus
    area = np.pi * section_radius**2
    i_bend = np.pi * section_radius**4 / 4.0   # I_y = I_z for a circle
    i_tors = 2.0 * i_bend                      # I_x = I_y + I_z
    return BeamTerms(axial=length / (e * area),
                     bend=length**3 / (3.0 * e * i_bend),
                     torsion=length / (g * i_tors),
                     tilt=length / (e * i_bend),
                     couple=length * length / (2.0 * e * i_bend))


def beam_compliance(length: float, section_radius: float,
                    material: Material) -> np.ndarray:
    """Tip compliance of a cantilever rod of circular cross-section.

    Local frame: x along the beam axis, spring at the free tip.  The two
    bend/shear couplings carry opposite signs about y and z, which keeps
    the matrix symmetric.
    """
    if length <= 0.0 or section_radius <= 0.0:
        raise DegenerateBeam(f"L={length}, radius={section_radius}")
    return beam_compliance_batch(np.array([length]), section_radius, material)[0]


def beam_compliance_batch(lengths: np.ndarray, section_radius: float,
                          material: Material) -> np.ndarray:
    """Vectorized beam compliance, shape (N, 6, 6) for (N,) lengths."""
    if section_radius <= 0.0:
        raise DegenerateBeam(f"radius={section_radius}")
    t = _beam_terms(np.asarray(lengths, dtype=float), section_radius, material)
    c = np.zeros(t.axial.shape + (6, 6))
    c[..., 0, 0] = t.axial
    c[..., 1, 1] = c[..., 2, 2] = t.bend
    c[..., 3, 3] = t.torsion
    c[..., 4, 4] = c[..., 5, 5] = t.tilt
    c[..., 1, 5] = c[..., 5, 1] = t.couple
    c[..., 2, 4] = c[..., 4, 2] = -t.couple
    return c


def _spring6_columns(xhat: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Screw columns of a 6-dof spring, shape (N, 6, 6).

    xhat (N, 2): local x-axis of the spring frame in the base frame (the
    link direction); local y = 90-degree rotation of x, local z = e_z.
    offset (N, 2): vector from the spring origin to the platform center P.
    Column order matches the spring coordinates: three translations along
    the local axes, three rotations about them.
    """
    n = xhat.shape[0]
    cols = np.zeros((n, 6, 6))
    xx, xy = xhat[:, 0], xhat[:, 1]
    dx, dy = offset[:, 0], offset[:, 1]
    # translations along x_hat, y_hat = E x_hat, z
    cols[:, 0, 0], cols[:, 1, 0] = xx, xy
    cols[:, 0, 1], cols[:, 1, 1] = -xy, xx
    cols[:, 2, 2] = 1.0
    # rotations: a x d contributes only a z-translation for in-plane axes
    cols[:, 2, 3] = xx * dy - xy * dx
    cols[:, 3, 3], cols[:, 4, 3] = xx, xy
    cols[:, 2, 4] = -xy * dy - xx * dx
    cols[:, 3, 4], cols[:, 4, 4] = -xy, xx
    # rotation about z at the spring origin
    cols[:, 0, 5], cols[:, 1, 5] = -dy, dx
    cols[:, 5, 5] = 1.0
    return cols


def _revolute_z_column(offset: np.ndarray) -> np.ndarray:
    """Screw of a passive z-revolute at offset (N, 2) from P: (N, 6)."""
    n = offset.shape[0]
    col = np.zeros((n, 6))
    col[:, 0] = -offset[:, 1]
    col[:, 1] = offset[:, 0]
    col[:, 5] = 1.0
    return col


@dataclass(frozen=True, eq=False)
class LegSpringModel:
    """Virtual-spring model of one leg at one configuration.

    k_theta_inv: block-diagonal spring compliance (n_s x n_s), blocks in
    chain order (PRR: actuator, link, platform bar; RPR: link, actuator,
    platform bar; RRR: actuator, link 1, link 2, platform bar).
    j_theta (6 x n_s) and j_q (6 x 2) hold the spring and passive-joint
    screws at the platform center.
    """

    k_theta_inv: np.ndarray
    j_theta: np.ndarray
    j_q: np.ndarray


def leg_models_batch(design: DesignVector, bik: BatchIK, material: Material,
                     actuator: ActuatorStiffness = DEFAULT_ACTUATOR
                     ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per-leg (j_theta, k_theta_inv, j_q) arrays for a pose batch.

    Shapes: (N, 6, n_s), (N or 1, n_s, n_s) and (N, 6, 2); the compliance
    block broadcasts along the batch when no spring length depends on the
    pose.  The platform center P is the wrench reference point throughout.
    """
    arch = design.architecture
    layout = anchor_layout(design)
    n = bik.q.shape[0]
    p = bik.c_world - np.stack([bik.moment[:, :, 1], -bik.moment[:, :, 0]], axis=2)
    # p above reconstructs the platform center from C_i - R(phi) c_i; all
    # three legs give the same point, take leg 0.
    p = p[:, 0, :]

    k_act = actuator.for_architecture(arch)
    pf_len = design.platform_radius
    c_pf = beam_compliance_batch(np.array([pf_len]),
                                 design.platform_section_radius, material)
    bar_dir = (p[:, None, :] - bik.c_world) / pf_len   # unit C_i -> P

    # Constant-length links share one compliance block across the batch;
    # only the RPR strut compliance depends on the pose.
    if arch is not Architecture.RPR:
        link_c = beam_compliance_batch(np.array([design.link_length]),
                                       design.leg_section_radius, material)

    models = []
    for i in range(3):
        d_c = p - bik.c_world[:, i, :]       # spring-origin offsets to P
        pf_cols = _spring6_columns(bar_dir[:, i, :], np.zeros((n, 2)))

        if arch is Architecture.PRR:
            act_col = np.zeros((n, 6))
            act_col[:, :2] = layout.rail_directions[i]
            link_cols = _spring6_columns(bik.distal[:, i, :], d_c)
            j_theta = np.concatenate([act_col[:, :, None], link_cols, pf_cols], axis=2)
            k_inv = _block_diag_batch([_scalar_block(1, 1.0 / k_act), link_c, c_pf])
            j_q = np.stack([_revolute_z_column(p - bik.elbow[:, i, :]),
                            _revolute_z_column(d_c)], axis=2)
        elif arch is Architecture.RPR:
            # Strut compliance uses the current extension as beam length.
            strut_c = beam_compliance_batch(bik.strut[:, i],
                                            design.leg_section_radius, material)
            act_col = np.zeros((n, 6))
            act_col[:, :2] = bik.distal[:, i, :]
            link_cols = _spring6_columns(bik.distal[:, i, :], d_c)
            j_theta = np.concatenate([link_cols, act_col[:, :, None], pf_cols], axis=2)
            k_inv = _block_diag_batch([strut_c, _scalar_block(n, 1.0 / k_act),
                                       np.broadcast_to(c_pf, (n, 6, 6))])
            j_q = np.stack([_revolute_z_column(p - layout.base_points[None, i, :]),
                            _revolute_z_column(d_c)], axis=2)
        else:
            act_col = _revolute_z_column(p - layout.base_points[None, i, :])
            prox_dir = (bik.elbow[:, i, :] - layout.base_points[i]) / design.link_length
            link1_cols = _spring6_columns(prox_dir, p - bik.elbow[:, i, :])
            link2_cols = _spring6_columns(bik.distal[:, i, :], d_c)
            j_theta = np.concatenate([act_col[:, :, None], link1_cols,
                                      link2_cols, pf_cols], axis=2)
            k_inv = _block_diag_batch([_scalar_block(1, 1.0 / k_act), link_c,
                                       link_c, c_pf])
            j_q = np.stack([_revolute_z_column(p - bik.elbow[:, i, :]),
                            _revolute_z_column(d_c)], axis=2)
        models.append((j_theta, k_inv, j_q))
    return models


def _scalar_block(n: int, value: float) -> np.ndarray:
    return np.full((n, 1, 1), value)


def _block_diag_batch(blocks: list[np.ndarray]) -> np.ndarray:
    sizes = [b.shape[-1] for b in blocks]
    total = sum(sizes)
    n = blocks[0].shape[0]
    out = np.zeros((n, total, total))
    at = 0
    for b, s in zip(blocks, sizes):
        out[:, at:at + s, at:at + s] = b
        at += s
    return out


def leg_spring_model(design: DesignVector, leg: int, pose: Pose,
                     material: Material,
                     actuator: ActuatorStiffness = DEFAULT_ACTUATOR,
                     mode: WorkingMode = DEFAULT_MODE) -> LegSpringModel:
    """Spring model of a single leg at one pose (see leg_models_batch)."""
    bik = ik_batch(design, pose.as_array()[None, :], mode)
    j_theta, k_inv, j_q = leg_models_batch(design, bik, material, actuator)[leg]
    return LegSpringModel(k_theta_inv=k_inv[0], j_theta=j_theta[0], j_q=j_q[0])


#: Unique entries (00, 01, 02, 11, 12, 22) of a symmetric 3x3 matrix
#: whose products a*b - c*d give its adjugate, in the same order.
_ADJ = np.array([[3, 5, 4, 4], [2, 4, 1, 5], [1, 4, 2, 3],
                 [0, 5, 2, 2], [1, 2, 0, 4], [0, 3, 1, 1]]).T


def _sym3_inv(s: np.ndarray) -> np.ndarray:
    """Inverses of symmetric 3x3 matrices, adjugate over determinant.

    The unique entries (00, 01, 02, 11, 12, 22) run along the first axis
    of s and of the result.
    """
    adj = s[_ADJ[0]] * s[_ADJ[1]] - s[_ADJ[2]] * s[_ADJ[3]]
    return adj / (s[0] * adj[0] + s[1] * adj[1] + s[2] * adj[2])


def _tip_compliance(beam: BeamTerms, along, across, moment):
    """In-plane compliance a beam spring shows to a unit leg load.

    along/across: force components along and across the beam axis;
    moment: its moment about the spring origin.
    """
    return (along * along * beam.axial + across * across * beam.bend
            + 2.0 * across * moment * beam.couple + moment * moment * beam.tilt)


def _out_of_plane_compliance(beam: BeamTerms, xx, xy, ox, oy) -> np.ndarray:
    """Out-of-plane compliance of beam springs seen at P.

    The unique entries of G C G^T in (dz, dphi_x, dphi_y) along the first
    axis: C is the beam's (z, phi_x, phi_y) tip block, G maps the spring
    deflection to the platform twist at P.  (xx, xy) is the beam axis,
    (ox, oy) the offset from the spring origin to P.
    """
    a = xx * oy - xy * ox        # dz at P per rotation about the beam axis
    b = -(xx * ox + xy * oy)     # dz at P per rotation about the normal
    u = a * beam.torsion
    v = b * beam.tilt - beam.couple
    return np.stack([beam.bend + a * u + b * (v - beam.couple),
                     xx * u - xy * v, xy * u + xx * v,
                     xx * xx * beam.torsion + xy * xy * beam.tilt,
                     xx * xy * (beam.torsion - beam.tilt),
                     xy * xy * beam.torsion + xx * xx * beam.tilt])


#: Row, column and row-major position of each unique entry (00, 01, 02,
#: 11, 12, 22) of a symmetric 3x3 matrix, and the unique entry behind
#: each row-major entry.
_UPPER_ROW, _UPPER_COL = np.array([0, 0, 0, 1, 1, 2]), np.array([0, 1, 2, 1, 2, 2])
_UPPER = 3 * _UPPER_ROW + _UPPER_COL
_SYM = np.array([0, 1, 2, 1, 3, 4, 2, 4, 5])
#: Row-major flat positions in K of the in-plane, then out-of-plane block,
#: and the row of stiffness_batch's 12 unique entries each one copies.
_BLOCKS = np.concatenate([(6 * IN_PLANE[:, None] + IN_PLANE).ravel(),
                          (6 * OUT_OF_PLANE[:, None] + OUT_OF_PLANE).ravel()])
_BLOCK_SOURCE = np.concatenate([_SYM, _SYM + 6])
#: Upper triangles of both blocks, interleaved (in, out) entry by entry.
_BLOCK_UPPER = np.stack([_BLOCKS[:9][_UPPER], _BLOCKS[9:][_UPPER]], axis=1).ravel()


def leg_cartesian_stiffness(model: LegSpringModel) -> np.ndarray:
    """Cartesian stiffness of one leg with its passive freedoms released.

    In plane the rank-1 spring w w^T / (w^T S_in w) along the wrench w
    reciprocal to both passive twists, out of plane S_out^-1, with
    S = J_th K_th^-1 J_th^T.  Symmetric PSD of rank 4: the two
    passive-joint twists span the null space.  Raises
    SingularKinetostatics when the passive twists are parallel or a
    block is singular.
    """
    s = model.j_theta @ model.k_theta_inv @ model.j_theta.T
    q = model.j_q[IN_PLANE]
    w = np.cross(q[:, 0], q[:, 1])
    c = w @ s[np.ix_(IN_PLANE, IN_PLANE)] @ w
    k = np.zeros(36)
    with np.errstate(divide="ignore", invalid="ignore"):
        k[_BLOCKS[:9]] = np.outer(w, w).ravel() / c
        k[_BLOCKS[9:]] = _sym3_inv(s.ravel()[_BLOCKS[9:][_UPPER]])[_SYM]
    if not (c > 0.0 and np.isfinite(k).all()):
        raise SingularKinetostatics()
    return k.reshape(6, 6)


def stiffness_batch(design: DesignVector, bik: BatchIK,
                    jac: tuple[np.ndarray, np.ndarray], material: Material,
                    actuator: ActuatorStiffness = DEFAULT_ACTUATOR
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate platform stiffness over a pose batch.

    jac is jacobian_batch(design, bik): A and the diagonal of B.  Returns
    (K, ok): K is (N, 6, 6), the sum of the leg stiffnesses, assembled
    exactly block-diagonal; ok is False where det A = 0 or a value is not
    finite, and those rows of K are zero.  Per-leg values are (N, 3)
    arrays, legs on the last axis.
    """
    arch = design.architecture
    r, lb = design.platform_radius, design.link_length
    amat, b_ii = jac
    n = amat.shape[0]
    w = amat.transpose(2, 0, 1).copy()     # (3, N, 3): the w_i
    dx, dy, mz = w                         # mz: moment of w_i about P

    # The beam springs of each leg, stacked on a leading axis: the platform
    # bar (spring at P, axis C_i -> P), the distal link (spring at C_i,
    # axis along w_i) and, for the RRR, the proximal link (spring at B_i),
    # each with its axis and its offset to P.
    ox, oy = -bik.moment[..., 1], bik.moment[..., 0]     # C_i -> P
    zero = np.zeros_like(ox)
    xx, xy, off_x, off_y = [ox / r, dx], [oy / r, dy], [zero, ox], [zero, oy]
    lengths = np.array([r, lb])[:, None, None]
    radii = [design.platform_section_radius, design.leg_section_radius]
    if arch is Architecture.RPR:   # the strut flexes over its extension
        lengths = np.array([np.full_like(zero, r), bik.strut])
    elif arch is Architecture.RRR:
        base = anchor_layout(design).base_points
        px, py = np.moveaxis((bik.elbow - base) / lb, -1, 0)
        cx, cy = np.moveaxis(bik.c_world - bik.elbow, -1, 0)
        xx.append(px)
        xy.append(py)
        off_x.append(ox + cx)
        off_y.append(oy + cy)
        lengths = np.array([r, lb, lb])[:, None, None]
        radii.append(design.leg_section_radius)
    xx, xy, off_x, off_y = map(np.array, (xx, xy, off_x, off_y))
    beam = _beam_terms(lengths, np.array(radii)[:, None, None], material)

    # In plane every beam spring carries the unit leg wrench w_i (force
    # along the distal link, moment mz about P); the actuator carries B_ii.
    along, across = xx * dx + xy * dy, xx * dy - xy * dx
    moment = mz + off_x * dy - off_y * dx   # about the spring origin
    # Sums over springs and legs are written out term by term: a numpy
    # reduction may order its terms by batch shape, and a pose must come
    # out bit-identical alone and in any batch.
    c = (b_ii * b_ii / actuator.for_architecture(arch)
         + sum(_tip_compliance(beam, along, across, moment)))
    s_out = sum(_out_of_plane_compliance(beam, xx, xy, off_x, off_y).swapaxes(0, 1))

    # Unique entries of K_in = sum_i w_i w_i^T / c_i and K_out, per leg,
    # then summed over the legs.
    e = np.concatenate([(w / c)[_UPPER_ROW] * w[_UPPER_COL], _sym3_inv(s_out)])
    e = e[..., 0] + e[..., 1] + e[..., 2]
    det_a = (dx[:, 0] * (dy[:, 1] * mz[:, 2] - dy[:, 2] * mz[:, 1])
             + dx[:, 1] * (dy[:, 2] * mz[:, 0] - dy[:, 0] * mz[:, 2])
             + dx[:, 2] * (dy[:, 0] * mz[:, 1] - dy[:, 1] * mz[:, 0]))
    ok = (det_a != 0.0) & np.isfinite(e).all(axis=0)
    e[:, ~ok] = 0.0
    total = np.zeros((36, n))   # entry-major, so each entry is one row copy
    total[_BLOCKS] = e[_BLOCK_SOURCE]
    return total.T.reshape(n, 6, 6), ok


def platform_stiffness(design: DesignVector, pose: Pose, material: Material,
                       actuator: ActuatorStiffness = DEFAULT_ACTUATOR,
                       mode: WorkingMode = DEFAULT_MODE) -> np.ndarray:
    """6x6 Cartesian stiffness of the platform: the sum over the legs."""
    bik = ik_batch(design, pose.as_array()[None, :], mode)
    if not bool(bik.ok()[0]):
        leg = int(np.argmin((bik.reachable & bik.stroke_ok)[0]))
        raise SingularKinetostatics(leg)
    k, ok = stiffness_batch(design, bik, jacobian_batch(design, bik), material,
                            actuator)
    if not bool(ok[0]):
        raise SingularKinetostatics()
    return k[0]


def stiffness_indices(k: np.ndarray) -> tuple[float, float, float]:
    """Worst-case translational and torsional stiffness indices of K.

    With C = K^-1: the planar index is 1/sigma_max of the 2x2 (dx, dy)
    compliance block (worst in-plane force direction), the axial index is
    1/C_zz and the torsional index 1/C_phiz_phiz.  K must be block-diagonal
    between (dx, dy, dphi_z) and (dz, dphi_x, dphi_y), as every planar
    design's is: ValueError otherwise.  Raises SingularStiffness where
    stiffness_indices_batch reports zeros.
    """
    k = np.asarray(k, dtype=float)
    if k.shape != (6, 6):
        raise ValueError(f"expected a 6x6 stiffness matrix, got shape {k.shape}")
    if (k[np.ix_(IN_PLANE, OUT_OF_PLANE)] != 0.0).any() \
            or (k[np.ix_(OUT_OF_PLANE, IN_PLANE)] != 0.0).any():
        raise ValueError("stiffness couples in-plane and out-of-plane motion")
    kxy, kz, kphiz = stiffness_indices_batch(k[None], np.ones(1, dtype=bool))
    if kxy[0] == 0.0:
        raise SingularStiffness()
    return kxy[0], kz[0], kphiz[0]


def stiffness_indices_batch(k: np.ndarray, ok: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized indices; entries flagged not-ok come back as zero.

    Reads only the upper triangles of the two diagonal 3x3 blocks of K
    (stiffness_batch builds no coupling and a symmetric K) and inverts
    both in closed form.  The compliance blocks are symmetric PSD, so
    sigma_max of the 2x2 (dx, dy) block is its largest eigenvalue.
    """
    n = k.shape[0]
    upper = np.reshape(k, (n, 36)).T[_BLOCK_UPPER].reshape(6, 2, n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c, c_out = _sym3_inv(upper).transpose(1, 0, 2)
        lam = 0.5 * (c[0] + c[3]) + np.sqrt(0.25 * (c[0] - c[3]) ** 2 + c[1] * c[1])
        out = 1.0 / np.array([lam, c_out[0], c[5]])
    good = ok & (np.isfinite(out) & (out > 0.0)).all(axis=0)
    out[:, ~good] = 0.0
    return tuple(out)
