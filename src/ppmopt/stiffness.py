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
Jacobian entry B_ii, every link a force through its tip (so the distal
link only stretches), the platform bar that force and the moment of w_i
about P.  Summed over the legs,

    K_in = A^T diag(1/c) A,          C_in = A^-1 diag(c) A^-T,

singular exactly where A is (parallel singularities).  Out of plane no
passive joint gives way, so K_out = sum_i S_out,i^-1.

The stiffness indices are read in compliance form.  With
A^-1 = adj(A) / det A,

    C_in = adj(A) diag(c) adj(A)^T / det(A)^2,

so each in-plane compliance entry is one sum over the legs, taken with
the adjugate the dexterity uses (kinematics.adjugate_batch), and the
axial index is det(K_out) / adj(K_out)_zz.  No stiffness block is
inverted and no 6x6 K is formed on the constraint path; stiffness_matrix
assembles the public K from the same leg terms.  Everything is
closed-form 3x3 algebra, evaluated elementwise over poses and legs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DegenerateBeam, SingularKinetostatics, SingularStiffness
from .kinematics import (Adjugate, BatchIK, Pose, WorkingMode, DEFAULT_MODE,
                         adjugate_batch, anchor_layout, ik_batch, jacobian_batch)
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


#: Row, column and row-major position of each unique entry (00, 01, 02,
#: 11, 12, 22) of a symmetric 3x3 matrix, and the unique entry behind
#: each row-major entry.
_UPPER_ROW, _UPPER_COL = np.array([0, 0, 0, 1, 1, 2]), np.array([0, 1, 2, 1, 2, 2])
_UPPER = 3 * _UPPER_ROW + _UPPER_COL
_SYM = np.array([0, 1, 2, 1, 3, 4, 2, 4, 5])


def _sym3_adj(s):
    """Adjugates and determinants of symmetric 3x3 matrices.

    s holds the unique entries (00, 01, 02, 11, 12, 22), as a sequence
    or along the first axis of an array; the adjugate comes back as a
    tuple in the same order.  The inverse is adjugate / determinant.
    """
    s00, s01, s02, s11, s12, s22 = s
    adj = (s11 * s22 - s12 * s12, s02 * s12 - s01 * s22, s01 * s12 - s02 * s11,
           s00 * s22 - s02 * s02, s01 * s02 - s00 * s12, s00 * s11 - s01 * s01)
    return adj, s00 * adj[0] + s01 * adj[1] + s02 * adj[2]


def _out_of_plane_compliance(beam: BeamTerms, xx, xy, a, b) -> np.ndarray:
    """Out-of-plane compliance of a beam spring seen at P.

    The unique entries of G C G^T in (dz, dphi_x, dphi_y), along the
    first axis: C is the beam's (z, phi_x, phi_y) tip block, G maps the
    spring deflection to the platform twist at P.  (xx, xy) is the unit
    beam axis; a and b are the dz at P per unit rotation about the beam
    axis and about its in-plane normal, o_y xx - o_x xy and
    -(o_x xx + o_y xy) for the offset o from the spring origin to P.
    """
    u = a * beam.torsion
    v = b * beam.tilt - beam.couple
    s = np.empty((6,) + xx.shape)     # filled in place: no stacking copy
    np.add(beam.bend + a * u, b * (v - beam.couple), out=s[0])
    np.subtract(xx * u, xy * v, out=s[1])
    np.add(xy * u, xx * v, out=s[2])
    np.add(xx * xx * beam.torsion, xy * xy * beam.tilt, out=s[3])
    np.multiply(xx * xy, beam.torsion - beam.tilt, out=s[4])
    np.add(xy * xy * beam.torsion, xx * xx * beam.tilt, out=s[5])
    return s


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
    adj, det = _sym3_adj(s[np.ix_(OUT_OF_PLANE, OUT_OF_PLANE)].ravel()[_UPPER])
    k = np.zeros((6, 6))
    with np.errstate(divide="ignore", invalid="ignore"):
        k[np.ix_(IN_PLANE, IN_PLANE)] = np.outer(w, w) / c
        k[np.ix_(OUT_OF_PLANE, OUT_OF_PLANE)] = (np.array(adj) / det)[_SYM].reshape(3, 3)
    if not (c > 0.0 and np.isfinite(k).all()):
        raise SingularKinetostatics()
    return k


class LegTerms(NamedTuple):
    """The leg springs over a pose batch, as the platform sees them.

    c (N, 3), legs on the last axis: each leg's in-plane compliance
    c_i = w_i^T S_in,i w_i along its unit wrench w_i (row i of A).
    k_out (6, N): unique entries (00, 01, 02, 11, 12, 22) of the
    out-of-plane stiffness K_out = sum_i S_out,i^-1 in (dz, dphi_x,
    dphi_y).
    """

    c: np.ndarray
    k_out: np.ndarray


@lru_cache(maxsize=4096)
def _fixed_beams(design: DesignVector, material: Material
                 ) -> tuple[BeamTerms, BeamTerms]:
    """Beam terms of the platform bar and of a constant-length link.

    The link terms serve the PRR link and both RRR links; the RPR strut
    flexes over its current extension instead.
    """
    return (_beam_terms(design.platform_radius, design.platform_section_radius,
                        material),
            _beam_terms(design.link_length, design.leg_section_radius, material))


def stiffness_batch(design: DesignVector, bik: BatchIK,
                    jac: tuple[np.ndarray, np.ndarray], material: Material,
                    actuator: ActuatorStiffness = DEFAULT_ACTUATOR
                    ) -> tuple[LegTerms, np.ndarray]:
    """The leg springs over a pose batch: (LegTerms, ok).

    jac is jacobian_batch(design, bik): A and the diagonal of B.  ok is
    False where a leg term is not finite.  stiffness_indices_batch turns
    the terms into the indices, stiffness_matrix into the 6x6 K.
    """
    arch = design.architecture
    r = design.platform_radius
    amat, b_ii = jac
    dx, dy, mz = amat.transpose(2, 0, 1).copy()   # w_i; mz: its moment about P
    ox, oy = -bik.moment[..., 1], bik.moment[..., 0]     # o_i = P - C_i
    od = ox * dx + oy * dy
    bar, link = _fixed_beams(design, material)
    if arch is Architecture.RPR:   # the strut flexes over its extension
        link = _beam_terms(bik.strut, design.leg_section_radius, material)

    # In plane each spring carries the unit leg wrench w_i.  The actuator
    # sees B_ii of it.  The platform bar (spring at P, axis o_i / r) sees
    # the force o_i.d_i / r along it, -mz / r across it and the moment mz.
    # The distal link carries w_i as a force along itself through its tip
    # C_i, so it only stretches.  The force also runs through the tip B_i
    # of the RRR proximal link, at an angle to that link's axis.
    c = (b_ii * b_ii / actuator.for_architecture(arch)
         + od * od * (bar.axial / (r * r))
         + mz * mz * (bar.bend / (r * r) - 2.0 * bar.couple / r + bar.tilt)
         + link.axial)
    # Out of plane, spring by spring: the bar at P, and the distal link at
    # C_i, whose offset o_i to P gives a = mz and b = -o_i.d_i.  Sums over
    # springs and legs are written out term by term: a numpy reduction
    # may order its terms by batch shape, and a pose must come out
    # bit-identical alone and in any batch.
    s_out = _out_of_plane_compliance(bar, ox / r, oy / r, 0.0, 0.0)
    s_out += _out_of_plane_compliance(link, dx, dy, mz, -od)
    if arch is Architecture.RRR:
        base = anchor_layout(design).base_points
        px, py = ((bik.elbow - base) / design.link_length).transpose(2, 0, 1)
        along, across = px * dx + py * dy, px * dy - py * dx
        c = c + along * along * link.axial + across * across * link.bend
        qx, qy = (bik.c_world - bik.elbow).transpose(2, 0, 1)
        qx, qy = ox + qx, oy + qy                          # P - B_i
        s_out += _out_of_plane_compliance(link, px, py, px * qy - py * qx,
                                          -(px * qx + py * qy))
    adj, det = _sym3_adj(s_out)
    k_leg = np.array(adj)
    k_leg /= det                 # each leg's S_out^-1
    k_out = k_leg[..., 0] + k_leg[..., 1] + k_leg[..., 2]
    # a sum is finite only where every term is (an overflow flags it too)
    ok = np.isfinite(c[:, 0] + c[:, 1] + c[:, 2] + k_out.sum(axis=0))
    return LegTerms(c, k_out), ok


def stiffness_indices_batch(legs: LegTerms, adj: Adjugate, ok: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(k_xy, k_z, k_phiz) per pose from the leg terms; zero where not ok.

    adj is adjugate_batch(A).  In plane the compliance is
    C_in = A^-1 diag(c) A^-T = adj(A) diag(c) adj(A)^T / det(A)^2, so
    each entry is one sum over the legs and no stiffness is inverted; a
    pose with det A = 0 gets all three indices 0.
    """
    c = legs.c
    xc = adj.x * c
    s = np.empty((4,) + c.shape)
    np.multiply(xc, adj.x, out=s[0])
    np.multiply(xc, adj.y, out=s[1])
    np.multiply(adj.y * c, adj.y, out=s[2])
    np.multiply(adj.z * adj.z, c, out=s[3])
    return _indices(adj.det * adj.det, s[..., 0] + s[..., 1] + s[..., 2],
                    legs.k_out, ok)


def _indices(scale, s, k_out, ok) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The indices from the compliance C_in = s / scale and K_out.

    s holds the (xx, xy, yy, phi_z phi_z) entries of C_in times scale > 0.
    The planar index is 1/sigma_max of the 2x2 (dx, dy) block of C_in
    (the worst in-plane force direction; the block is symmetric PSD, so
    sigma_max is its largest eigenvalue), the torsional index
    1/C_phiz_phiz and the axial index 1/C_zz = det(K_out) / adj(K_out)_zz.
    Entries not ok, not finite or not positive come back as zero.
    """
    sxx, sxy, syy, szz = s
    adj, det = _sym3_adj(k_out)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lam = 0.5 * (sxx + syy) + np.hypot(0.5 * (sxx - syy), sxy)
        out = np.array([scale / lam, det / adj[0], scale / szz])
    good = ok & ((out > 0.0) & (out < np.inf)).all(axis=0)
    return tuple(np.where(good, out, 0.0))


def stiffness_matrix(amat: np.ndarray, legs: LegTerms) -> np.ndarray:
    """Platform stiffness K (N, 6, 6) from A and the leg terms.

    K_in = A^T diag(1/c) A on (dx, dy, dphi_z) and K_out on (dz, dphi_x,
    dphi_y), summed over the legs term by term; nothing couples the two
    blocks.  K_in is singular where A is: rows with det A = 0 come back
    zero, so stiffness_indices rejects them.
    """
    n = amat.shape[0]
    w = amat.transpose(2, 0, 1)
    k_in = (w / legs.c)[_UPPER_ROW] * w[_UPPER_COL]
    k = np.zeros((n, 6, 6))
    k[:, IN_PLANE[:, None], IN_PLANE] = (
        k_in[..., 0] + k_in[..., 1] + k_in[..., 2])[_SYM].T.reshape(n, 3, 3)
    k[:, OUT_OF_PLANE[:, None], OUT_OF_PLANE] = legs.k_out[_SYM].T.reshape(n, 3, 3)
    k[adjugate_batch(amat).det == 0.0] = 0.0
    return k


def platform_stiffness(design: DesignVector, pose: Pose, material: Material,
                       actuator: ActuatorStiffness = DEFAULT_ACTUATOR,
                       mode: WorkingMode = DEFAULT_MODE) -> np.ndarray:
    """6x6 Cartesian stiffness of the platform: the sum over the legs.

    Raises SingularKinetostatics where the pose is unreachable, det A = 0
    or a leg term is not finite.
    """
    bik = ik_batch(design, pose.as_array()[None, :], mode)
    if not bool(bik.ok()[0]):
        leg = int(np.argmin((bik.reachable & bik.stroke_ok)[0]))
        raise SingularKinetostatics(leg)
    jac = jacobian_batch(design, bik)
    legs, ok = stiffness_batch(design, bik, jac, material, actuator)
    k = stiffness_matrix(jac[0], legs)[0]
    if not (bool(ok[0]) and k.any()):
        raise SingularKinetostatics()
    return k


def stiffness_indices(k: np.ndarray) -> tuple[float, float, float]:
    """Worst-case translational and torsional stiffness indices of K.

    With C = K^-1: the planar index is 1/sigma_max of the 2x2 (dx, dy)
    compliance block (worst in-plane force direction), the axial index is
    1/C_zz and the torsional index 1/C_phiz_phiz.  K must be block-diagonal
    between (dx, dy, dphi_z) and (dz, dphi_x, dphi_y), as every planar
    design's is: ValueError otherwise.  The in-plane compliance is taken
    as adj(K_in) / det(K_in), the form stiffness_indices_batch uses with
    adj(A).  Raises SingularStiffness where that form gives zeros.
    """
    k = np.asarray(k, dtype=float)
    if k.shape != (6, 6):
        raise ValueError(f"expected a 6x6 stiffness matrix, got shape {k.shape}")
    if (k[np.ix_(IN_PLANE, OUT_OF_PLANE)] != 0.0).any() \
            or (k[np.ix_(OUT_OF_PLANE, IN_PLANE)] != 0.0).any():
        raise ValueError("stiffness couples in-plane and out-of-plane motion")
    k_in, k_out = (k[np.ix_(blk, blk)].reshape(9, 1)[_UPPER]
                   for blk in (IN_PLANE, OUT_OF_PLANE))
    adj, det = _sym3_adj(k_in)
    kxy, kz, kphiz = _indices(det, (adj[0], adj[1], adj[3], adj[5]), k_out, True)
    if kxy[0] == 0.0:
        raise SingularStiffness()
    return kxy[0], kz[0], kphiz[0]
