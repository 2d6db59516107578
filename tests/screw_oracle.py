"""Reference 6-dof virtual-spring screw model of every leg.

Each leg is a serial chain of rigid bodies with a 1-dof virtual spring for
the actuator control loop and a 6-dof virtual spring at the tip of every
flexible link (intermediate links of section radius r_j, platform bar of
length r and section radius r_p).  Link compliance is the cantilever tip
compliance stiffness.beam_compliance; spring and passive-joint axes are
expressed as 6-screws at the platform center P, in the screw ordering

    (dx, dy, dz, dphi_x, dphi_y, dphi_z).

The library scores poses with the closed-form planar split of this model
(stiffness.stiffness_batch).  This module keeps the full model as a
reference: chain_oracle checks its screws by finite differences of the
leg's transform chain, and kkt_oracle reduces it to leg and platform
stiffnesses with no block structure assumed.
"""

import numpy as np

from ppmopt.kinematics import DEFAULT_MODE, anchor_layout, ik_batch
from ppmopt.model import Architecture
from ppmopt.stiffness import DEFAULT_ACTUATOR, beam_compliance


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
    col = np.zeros((offset.shape[0], 6))
    col[:, 0] = -offset[:, 1]
    col[:, 1] = offset[:, 0]
    col[:, 5] = 1.0
    return col


def _block_diag(n: int, blocks: list[np.ndarray]) -> np.ndarray:
    """Block-diagonal (n, m, m) from square blocks, each (k, k) or (n, k, k)."""
    total = sum(b.shape[-1] for b in blocks)
    out = np.zeros((n, total, total))
    at = 0
    for b in blocks:
        s = b.shape[-1]
        out[:, at:at + s, at:at + s] = b
        at += s
    return out


def leg_models_batch(design, bik, material, actuator=DEFAULT_ACTUATOR):
    """Per-leg (j_theta, k_theta_inv, j_q) arrays for a pose batch.

    Shapes (N, 6, n_s), (N, n_s, n_s) and (N, 6, 2).  k_theta_inv is the
    block-diagonal spring compliance, blocks in chain order (PRR:
    actuator, link, platform bar; RPR: strut, actuator, platform bar;
    RRR: actuator, link 1, link 2, platform bar); j_theta and j_q hold
    the spring and passive-joint screws at the platform center P.
    """
    arch = design.architecture
    layout = anchor_layout(design)
    # the oracle's own poses-first view: (N, 3, 2) points and (N, 3) q
    bik = bik._replace(**{f: v.T for f, v in bik._asdict().items()
                          if f != "poses" and v is not None})
    n = bik.q.shape[0]
    p = bik.poses[:, :2]
    k_act = np.full((1, 1), 1.0 / actuator.for_architecture(arch))
    c_pf = beam_compliance(design.platform_radius, design.platform_section_radius,
                           material)
    link_c = beam_compliance(design.link_length, design.leg_section_radius, material)
    bar_dir = (p[:, None, :] - bik.c_world) / design.platform_radius  # unit C_i -> P

    models = []
    for i in range(3):
        d_c = p - bik.c_world[:, i, :]       # spring-origin offsets to P
        pf_cols = _spring6_columns(bar_dir[:, i, :], np.zeros((n, 2)))
        link_cols = _spring6_columns(bik.distal[:, i, :], d_c)
        tip_q = _revolute_z_column(d_c)
        if arch is Architecture.PRR:
            act_col = np.zeros((n, 6))
            act_col[:, :2] = layout.rail_directions[i]
            j_theta = np.concatenate([act_col[:, :, None], link_cols, pf_cols], axis=2)
            k_inv = _block_diag(n, [k_act, link_c, c_pf])
            j_q = np.stack([_revolute_z_column(p - bik.elbow[:, i, :]), tip_q], axis=2)
        elif arch is Architecture.RPR:
            # the strut flexes over its current extension q
            strut_c = np.array([beam_compliance(s, design.leg_section_radius, material)
                                for s in bik.q[:, i]])
            act_col = np.zeros((n, 6))
            act_col[:, :2] = bik.distal[:, i, :]
            j_theta = np.concatenate([link_cols, act_col[:, :, None], pf_cols], axis=2)
            k_inv = _block_diag(n, [strut_c, k_act, c_pf])
            j_q = np.stack([_revolute_z_column(p - layout.base_points[None, i, :]),
                            tip_q], axis=2)
        else:
            act_col = _revolute_z_column(p - layout.base_points[None, i, :])
            prox_dir = (bik.elbow[:, i, :] - layout.base_points[i]) / design.link_length
            link1_cols = _spring6_columns(prox_dir, p - bik.elbow[:, i, :])
            j_theta = np.concatenate([act_col[:, :, None], link1_cols,
                                      link_cols, pf_cols], axis=2)
            k_inv = _block_diag(n, [k_act, link_c, link_c, c_pf])
            j_q = np.stack([_revolute_z_column(p - bik.elbow[:, i, :]), tip_q], axis=2)
        models.append((j_theta, k_inv, j_q))
    return models


def leg_model(design, leg, pose, material, actuator=DEFAULT_ACTUATOR,
              mode=DEFAULT_MODE):
    """(j_theta, k_theta_inv, j_q) of one leg at one pose, unbatched."""
    bik = ik_batch(design, pose.as_array()[None, :], mode)
    return tuple(a[0] for a in leg_models_batch(design, bik, material, actuator)[leg])
