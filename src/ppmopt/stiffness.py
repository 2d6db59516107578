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

Eliminating the two passive revolute freedoms of a leg from its spring
model is done through the symmetric block system

    [ S_theta  J_q ] [ f       ]   [ dt ]
    [ J_q^T    0   ] [ dq      ] = [ 0  ]      S_theta = J_th K_th^-1 J_th^T

solved by a pivoted factorization (never the explicit inverse chain); the
6x6 restriction of the solution map dt -> f is the leg's Cartesian
stiffness K_i, and the platform stiffness is the plain sum over the legs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBeam, SingularKinetostatics, SingularStiffness
from .kinematics import (BatchIK, Pose, WorkingMode, DEFAULT_MODE, _masked_solve,
                         anchor_layout, ik_batch)
from .model import ActuatorStiffness, Architecture, DesignVector, Material

DEFAULT_ACTUATOR = ActuatorStiffness()

#: Spring-coordinate count per leg: actuator + 6 per flexible link.
N_SPRINGS = {Architecture.PRR: 13, Architecture.RPR: 13, Architecture.RRR: 19}


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
    length = np.asarray(lengths, dtype=float)
    e, g = material.young_modulus, material.shear_modulus
    area = np.pi * section_radius**2
    i_bend = np.pi * section_radius**4 / 4.0   # I_y = I_z for a circle
    i_tors = 2.0 * i_bend                      # I_x = I_y + I_z

    c = np.zeros(length.shape + (6, 6))
    l2, l3 = length * length, length**3
    c[..., 0, 0] = length / (e * area)
    c[..., 1, 1] = l3 / (3.0 * e * i_bend)
    c[..., 2, 2] = l3 / (3.0 * e * i_bend)
    c[..., 3, 3] = length / (g * i_tors)
    c[..., 4, 4] = length / (e * i_bend)
    c[..., 5, 5] = length / (e * i_bend)
    c[..., 1, 5] = c[..., 5, 1] = l2 / (2.0 * e * i_bend)
    c[..., 2, 4] = c[..., 4, 2] = -l2 / (2.0 * e * i_bend)
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


_KKT_RHS = np.vstack([np.eye(6), np.zeros((2, 6))])


def _kkt_solve(s_theta: np.ndarray, j_q: np.ndarray) -> np.ndarray:
    """Solve the passive-joint block system for a batch; returns K (N,6,6)."""
    n = s_theta.shape[0]
    m = np.zeros((n, 8, 8))
    m[:, :6, :6] = s_theta
    m[:, :6, 6:] = j_q
    m[:, 6:, :6] = np.swapaxes(j_q, 1, 2)
    sol = np.linalg.solve(m, np.broadcast_to(_KKT_RHS, (n, 8, 6)))
    return sol[:, :6, :]


def leg_cartesian_stiffness(model: LegSpringModel) -> np.ndarray:
    """Cartesian stiffness of one leg with its passive freedoms released.

    Symmetric PSD of rank at most 4: the two passive-joint twists span the
    null space.  Raises SingularKinetostatics when the block system is
    rank deficient (leg at a singularity).
    """
    s_theta = model.j_theta @ model.k_theta_inv @ model.j_theta.T
    try:
        k = _kkt_solve(s_theta[None], model.j_q[None])[0]
    except np.linalg.LinAlgError as exc:
        raise SingularKinetostatics() from exc
    if not np.all(np.isfinite(k)):
        raise SingularKinetostatics()
    return k


def stiffness_batch(design: DesignVector, bik: BatchIK, material: Material,
                    actuator: ActuatorStiffness = DEFAULT_ACTUATOR
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate platform stiffness over a pose batch.

    Returns (K, ok): K is (N, 6, 6) with K = K_1 + K_2 + K_3; ok flags
    poses whose block systems were nonsingular (failures yield zero K).
    """
    n = bik.q.shape[0]
    total = np.zeros((n, 6, 6))
    ok = np.ones(n, dtype=bool)
    for j_theta, k_inv, j_q in leg_models_batch(design, bik, material, actuator):
        s_theta = j_theta @ k_inv @ np.swapaxes(j_theta, 1, 2)
        k_leg, leg_ok = _masked_solve(_kkt_solve, s_theta, j_q)
        total += k_leg
        ok &= leg_ok
        del k_leg  # one leg's (N, 6, 6) at a time bounds the peak memory
    bad = ~np.isfinite(total).all(axis=(1, 2))
    ok &= ~bad
    total[~ok] = 0.0
    return total, ok


def platform_stiffness(design: DesignVector, pose: Pose, material: Material,
                       actuator: ActuatorStiffness = DEFAULT_ACTUATOR,
                       mode: WorkingMode = DEFAULT_MODE) -> np.ndarray:
    """6x6 Cartesian stiffness of the platform: the sum over the legs."""
    bik = ik_batch(design, pose.as_array()[None, :], mode)
    if not bool(bik.ok()[0]):
        leg = int(np.argmin((bik.reachable & bik.stroke_ok)[0]))
        raise SingularKinetostatics(leg)
    k, ok = stiffness_batch(design, bik, material, actuator)
    if not bool(ok[0]):
        raise SingularKinetostatics()
    return k[0]


def stiffness_indices(k: np.ndarray) -> tuple[float, float, float]:
    """Worst-case translational and torsional stiffness indices of K.

    With C = K^-1: the planar index is 1/sigma_max of the 2x2 (dx, dy)
    compliance block (worst in-plane force direction), the axial index is
    1/C_zz and the torsional index 1/C_phiz_phiz.  Raises
    SingularStiffness where stiffness_indices_batch reports zeros.
    """
    k = np.asarray(k, dtype=float)[None]
    kxy, kz, kphiz = stiffness_indices_batch(k, np.ones(1, dtype=bool))
    if kxy[0] == 0.0:
        raise SingularStiffness()
    return kxy[0], kz[0], kphiz[0]


def stiffness_indices_batch(k: np.ndarray, ok: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized indices; entries flagged not-ok come back as zero.

    The model's compliance blocks are symmetric PSD, so sigma_max of the
    2x2 block is its largest eigenvalue, available in closed form.
    """
    n = k.shape[0]
    kxy = np.zeros(n)
    kz = np.zeros(n)
    kphiz = np.zeros(n)
    rows = np.flatnonzero(ok)
    c, good = _masked_solve(np.linalg.inv, k[rows])
    a, d = c[:, 0, 0], c[:, 1, 1]
    b = 0.5 * (c[:, 0, 1] + c[:, 1, 0])
    lam = 0.5 * (a + d) + np.sqrt(np.maximum(0.25 * (a - d) ** 2 + b * b, 0.0))
    good &= np.isfinite(c).all(axis=(1, 2)) \
        & (lam > 0.0) & (c[:, 2, 2] > 0.0) & (c[:, 5, 5] > 0.0)
    kxy[rows[good]] = 1.0 / lam[good]
    kz[rows[good]] = 1.0 / c[good, 2, 2]
    kphiz[rows[good]] = 1.0 / c[good, 5, 5]
    return kxy, kz, kphiz
