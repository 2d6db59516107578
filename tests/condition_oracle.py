"""Reference Frobenius condition number of a general square matrix.

The library scores dexterity with a closed form of kappa_F over the pose
batch (performance.kernel_batch), which never forms the Jacobian
J = A^-1 B or inverts anything.  This module keeps the definition,

    kappa_F(M) = (1/m) sqrt( tr(M^T M) tr((M^T M)^-1) ),

with a general inverse, as the reference that criterion 03 checks and
the closed form is compared against.
"""

import math

import numpy as np


def frobenius_condition(m: np.ndarray) -> float:
    """Frobenius condition number of a square matrix; +inf when singular."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("frobenius_condition expects a square matrix")
    g = m.T @ m
    try:
        tr_inv = np.trace(np.linalg.inv(g))
    except np.linalg.LinAlgError:
        return math.inf
    val = math.sqrt(abs(np.trace(g) * tr_inv)) / m.shape[0]
    return val if math.isfinite(val) else math.inf
