"""Reference leg and platform stiffness by the passive-joint block system.

For each leg the spring compliance at the platform center P,
S_theta = J_th K_th^-1 J_th^T, is reduced by the symmetric system

    [ S_theta  J_q ] [ f  ]   [ dt ]
    [ J_q^T    0   ] [ dq ] = [ 0  ]

whose 6x6 restriction dt -> f is the leg stiffness K_i; the platform
stiffness is the sum over the legs, and the indices come from a general
6x6 inverse.  This is the full 6-dof reduction with no block structure
assumed, so agreement with the library's closed-form planar split checks
the split itself.  Spring screws come from screw_oracle.leg_models_batch,
which the FD screw oracle (chain_oracle) checks independently.
"""

import numpy as np

from screw_oracle import leg_models_batch

_RHS = np.vstack([np.eye(6), np.zeros((2, 6))])


def kkt_leg_stiffness(j_theta, k_inv, j_q) -> np.ndarray:
    """Leg stiffness (..., 6, 6) from its spring and passive-joint screws,
    for one leg model or a batch of them."""
    s = j_theta @ k_inv @ np.swapaxes(j_theta, -1, -2)
    m = np.zeros(s.shape[:-2] + (8, 8))
    m[..., :6, :6] = s
    m[..., :6, 6:] = j_q
    m[..., 6:, :6] = np.swapaxes(j_q, -1, -2)
    return np.linalg.solve(m, np.broadcast_to(_RHS, m.shape[:-2] + (8, 6)))[..., :6, :]


def kkt_platform_stiffness(design, bik, material, actuator) -> np.ndarray:
    """Platform stiffness (N, 6, 6): the sum of the three leg stiffnesses."""
    return sum(kkt_leg_stiffness(*model)
               for model in leg_models_batch(design, bik, material, actuator))


def kkt_indices(k: np.ndarray) -> np.ndarray:
    """(k_xy, k_z, k_phiz) of one 6x6 K by its full inverse."""
    c = np.linalg.inv(k)
    sigma = np.linalg.svd(c[:2, :2], compute_uv=False)[0]
    return np.array([1.0 / sigma, 1.0 / c[2, 2], 1.0 / c[5, 5]])
