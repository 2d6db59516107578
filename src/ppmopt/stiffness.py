"""Lumped virtual-spring stiffness of the three manipulator families.

Each leg is a serial chain of rigid bodies with a 1-dof virtual spring for
the actuator control loop and a 6-dof virtual spring at the tip of every
flexible link (intermediate links of section radius r_j, platform bar of
length r and section radius r_p).  Link compliance is the cantilever tip
compliance of beam_compliance.  Platform deflections are twists at the
platform center P, in the ordering

    (dx, dy, dz, dphi_x, dphi_y, dphi_z),

so out-of-plane deflections (the k_z constraint), which come from link
bending and torsion, are seen too.

No screw Jacobian of that model is built here.  Every spring and
passive-joint screw lies wholly in one of two blocks, in-plane (dx, dy,
dphi_z) or out-of-plane (dz, dphi_x, dphi_y), and the beam compliance
couples nothing across them, so each leg stiffness K_i and the platform
stiffness are exactly block-diagonal, and both blocks have the closed
forms below.  The full 6-dof screw model is the reference for them: it
lives in tests/screw_oracle.py, and tests/kkt_oracle.py reduces it with
no block structure assumed.

In plane, the two passive revolutes of a leg sit at the two ends of its
distal link, so the only wrench the leg can carry is a force along that
line: the unit wrench w_i reciprocal to both passive twists, which is row
i of the parallel Jacobian A.  The leg is a rank-1 spring along w_i,

    K_in,i = w_i w_i^T / c_i,        c_i = w_i^T S_in,i w_i,

where S = J_th K_th^-1 J_th^T is the leg's spring compliance at P (J_th
the spring screws, K_th^-1 the spring compliances) and c_i adds up what
each spring sees of the load w_i: the actuator the serial Jacobian entry
B_ii, every link a force through its tip (so the distal link only
stretches), the platform bar that force and the moment of w_i about P.
Summed over the legs,

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

from typing import NamedTuple

import numpy as np

from .errors import InvalidValue, SingularStiffness
# ik_batch is unused here but kept: bench/tracing.py hooks stiffness.ik_batch
from .kinematics import (Adjugate, BatchIK, Pose, WorkingMode, DEFAULT_MODE,
                         adjugate_batch, ik_batch, jacobian_batch, solve_pose)
from .model import ActuatorStiffness, Architecture, DesignVector, Material

DEFAULT_ACTUATOR = ActuatorStiffness()

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

    The 6x6 view of the beam terms stiffness_batch uses.  Local frame: x
    along the beam axis, spring at the free tip, coordinates (dx, dy, dz,
    dphi_x, dphi_y, dphi_z).  The two bend/shear couplings carry opposite
    signs about y and z, which keeps the matrix symmetric.
    """
    for name, value in (("length", length), ("section_radius", section_radius)):
        if not value > 0.0:
            raise InvalidValue(name, "> 0", value)
    t = _beam_terms(length, section_radius, material)
    c = np.diag([t.axial, t.bend, t.bend, t.torsion, t.tilt, t.tilt])
    c[1, 5] = c[5, 1] = t.couple
    c[2, 4] = c[4, 2] = -t.couple
    return c


#: Row, column and row-major position of each unique entry (00, 01, 02,
#: 11, 12, 22) of a symmetric 3x3 matrix, and the unique entry behind
#: each row-major entry.
_UPPER_ROW, _UPPER_COL = np.array([0, 0, 0, 1, 1, 2]), np.array([0, 1, 2, 1, 2, 2])
_UPPER = 3 * _UPPER_ROW + _UPPER_COL
_SYM = np.array([0, 1, 2, 1, 3, 4, 2, 4, 5])


def _sym3_adj(s, full: bool = True):
    """Adjugates and determinants of symmetric 3x3 matrices.

    s holds the unique entries (00, 01, 02, 11, 12, 22), as a sequence
    or along the first axis of an array; the adjugate comes back as one
    array in the same order, or with full False only its first row (00,
    01, 02), all the determinant needs.  The inverse is adjugate /
    determinant.
    """
    s00, s01, s02, s11, s12, s22 = s
    adj = np.empty((6 if full else 3,) + np.shape(s00))
    np.subtract(s11 * s22, s12 * s12, out=adj[0])
    np.subtract(s02 * s12, s01 * s22, out=adj[1])
    np.subtract(s01 * s12, s02 * s11, out=adj[2])
    if full:
        np.subtract(s00 * s22, s02 * s02, out=adj[3])
        np.subtract(s01 * s02, s00 * s12, out=adj[4])
        np.subtract(s00 * s11, s01 * s01, out=adj[5])
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
    xx2, xy2 = xx * xx, xy * xy
    np.add(xx2 * beam.torsion, xy2 * beam.tilt, out=s[3])
    np.multiply(xx * xy, beam.torsion - beam.tilt, out=s[4])
    np.add(xy2 * beam.torsion, xx2 * beam.tilt, out=s[5])
    return s


class LegTerms(NamedTuple):
    """The leg springs over a pose batch, as the platform sees them.

    c (3, N), poses last as in every batch array: each leg's in-plane
    compliance c_i = w_i^T S_in,i w_i along its unit wrench w_i (row i of A).
    k_out (6, N): unique entries (00, 01, 02, 11, 12, 22) of the
    out-of-plane stiffness K_out = sum_i S_out,i^-1 in (dz, dphi_x,
    dphi_y).
    """

    c: np.ndarray
    k_out: np.ndarray


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
    dx, dy, mz = amat                    # w_i; mz: its moment about P
    ox, oy = -bik.moment[1], bik.moment[0]               # o_i = P - C_i
    od = ox * dx + oy * dy
    bar = _beam_terms(r, design.platform_section_radius, material)
    # the RPR strut flexes over its extension q, every other link over L_b
    link = _beam_terms(bik.q if arch is Architecture.RPR
                       else design.link_length, design.leg_section_radius,
                       material)

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
        px, py = bik.proximal / design.link_length
        along, across = px * dx + py * dy, px * dy - py * dx
        c = c + along * along * link.axial + across * across * link.bend
        qx, qy = bik.c_world - bik.elbow
        qx, qy = ox + qx, oy + qy                          # P - B_i
        s_out += _out_of_plane_compliance(link, px, py, px * qy - py * qx,
                                          -(px * qx + py * qy))
    k_leg, det = _sym3_adj(s_out)
    k_leg /= det                 # each leg's S_out^-1
    k_out = k_leg[:, 0] + k_leg[:, 1] + k_leg[:, 2]
    # a sum is finite only where every term is (an overflow flags it too)
    ok = np.isfinite(c[0] + c[1] + c[2] + k_out.sum(axis=0))
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
    return _indices(adj.det * adj.det, s[:, 0] + s[:, 1] + s[:, 2],
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
    adj, det = _sym3_adj(k_out, full=False)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lam = 0.5 * (sxx + syy) + np.hypot(0.5 * (sxx - syy), sxy)
        out = np.array([scale / lam, det / adj[0], scale / szz])
    good = ok & ((out > 0.0) & (out < np.inf)).all(axis=0)
    return tuple(np.where(good, out, 0.0))


def stiffness_matrix(amat: np.ndarray, legs: LegTerms) -> np.ndarray:
    """Platform stiffness K (N, 6, 6) from A (3, 3, N) and the leg terms.

    K_in = A^T diag(1/c) A on (dx, dy, dphi_z) and K_out on (dz, dphi_x,
    dphi_y), summed over the legs term by term; nothing couples the two
    blocks.  K_in is singular where A is: rows with det A = 0 come back
    zero, so stiffness_indices rejects them.
    """
    n = amat.shape[-1]
    k_in = (amat / legs.c)[_UPPER_ROW] * amat[_UPPER_COL]
    k = np.zeros((n, 6, 6))
    k[:, IN_PLANE[:, None], IN_PLANE] = (
        k_in[:, 0] + k_in[:, 1] + k_in[:, 2])[_SYM].T.reshape(n, 3, 3)
    k[:, OUT_OF_PLANE[:, None], OUT_OF_PLANE] = legs.k_out[_SYM].T.reshape(n, 3, 3)
    k[adjugate_batch(amat).det == 0.0] = 0.0
    return k


def platform_stiffness(design: DesignVector, pose: Pose, material: Material,
                       actuator: ActuatorStiffness = DEFAULT_ACTUATOR,
                       mode: WorkingMode = DEFAULT_MODE) -> np.ndarray:
    """6x6 Cartesian stiffness of the platform: the sum over the legs.

    Raises as kinematics.inverse_kinematics does where a leg cannot take
    the pose, and SingularStiffness where det A = 0 or a leg term is not
    finite.
    """
    bik = solve_pose(design, pose, mode)
    jac = jacobian_batch(design, bik)
    legs, ok = stiffness_batch(design, bik, jac, material, actuator)
    k = stiffness_matrix(jac[0], legs)[0]
    if not (bool(ok[0]) and k.any()):
        raise SingularStiffness()
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
