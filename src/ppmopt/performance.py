"""Dexterity measures and the pose-wise constraint stack g1..g6.

Dexterity is the inverse condition number of the kinematic Jacobian,
with the condition number taken in the Frobenius sense,

    kappa_F(M) = (1/m) sqrt( tr(M^T M) tr((M^T M)^-1) ),

which is analytic in the posture parameters and cheap to evaluate.  The
Jacobian mixes translational and rotational rates, so before conditioning
the rotational twist component is scaled by a characteristic length; by
default that length is chosen per design as the minimizer of kappa_F at
the symmetric home pose, found by golden-section search.

B is diagonal, so with J = A^-1 diag(b) = adj(A) diag(b) / det A and
M = diag(1, 1, L) J no solve is needed:

    kappa_F(M)^2 = (a + b' L^2) (c + d / L^2) / (9 det(A)^2),

where a and b' are the squared norms of rows 0-1 and of row 2 of
adj(A) diag(b), and c and d those of columns 0-1 and of column 2 of
M^-1 diag(1, 1, L) = diag(1/b) A.  All five terms are elementwise sums
over the legs.  A pose whose 1/kappa_F is not finite or below the float
epsilon is singular to working precision and gets dexterity 0.
One kernel pass (kernel_batch) builds A, adj(A), det A and the five
terms once per batch: the l_c search reads the terms of a home row,
dexterity those of every row, and the stiffness indices the same
adjugate, for the in-plane compliance adj(A) diag(c) adj(A)^T / det(A)^2
(see stiffness).

The constraint stack, evaluated at a pose:

    g1  assembly geometry       L_b + r >= R / 2
    g2  joint travel            architecture-specific stroke / reach limits
    g3  dexterity               1/kappa_F(J) >= threshold (default 0.1)
    g4  planar stiffness        k_xy  >= |F_xy| / max planar deflection
    g5  axial stiffness         k_z   >= |F_z| / max axial deflection
    g6  torsional stiffness     k_phiz >= |tau_z| / max rotational deflection

With the default 100 N / 100 N*m service wrench and the default accuracy
budget the stiffness thresholds come to 1e6 N/m, 1e5 N/m and
10/(pi/180) N*m/rad.
"""

from __future__ import annotations

import ctypes
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import HomeUnreachable, InvalidValue
from .kinematics import (DEFAULT_MODE, HOME_POSE, Adjugate, BatchIK, Pose,
                         WorkingMode, adjugate_batch, ik_batch, jacobian_batch,
                         solve_pose)
from .model import (ActuatorStiffness, DesignVector, Material, Wrench,
                    DEFAULT_MATERIAL, check_finite)
from .stiffness import stiffness_batch, stiffness_indices_batch


def _keep_freed_heap() -> None:
    """Let glibc keep up to 32 MiB of freed heap top for reuse.

    An 8649-pose constraints_batch call holds up to 8.7 MB of (3, N),
    (6, 3, N) and (4, 3, N) temporaries at once (10.5 MB for a 9150-row
    RRR call), more than glibc's dynamic trim threshold (twice the
    largest freed mmapped chunk, a few MB).  glibc then trimmed the heap
    after every call and the next call faulted each page back in: about
    2100-2600 minor faults and 4-7 ms of system time out of 8-16 ms CPU
    per call, measured with getrusage.  With the pad such calls take no
    faults up to about 30k poses.  Only the source of the memory changes,
    never a result.  Linux only; skipped where the C library has no
    mallopt (musl).  ctypes.util.find_library is avoided: it spawns
    ldconfig on every import.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-2, 32 << 20)   # M_TOP_PAD


_keep_freed_heap()


@dataclass(frozen=True)
class DexterityConfig:
    """Dexterity threshold and characteristic-length policy.

    characteristic_length None means "minimize kappa_F at the home pose";
    a number fixes the normalization length for sensitivity studies.
    """

    threshold: float = 0.1
    characteristic_length: float | None = None

    def __post_init__(self):
        lc = self.characteristic_length
        if not 0.0 < self.threshold <= 1.0:
            raise InvalidValue("threshold", "in (0, 1]", self.threshold)
        if lc is not None and not 0.0 < lc < math.inf:
            raise InvalidValue("characteristic_length", "null or finite and > 0",
                               lc)


@dataclass(frozen=True)
class AccuracySpec:
    """Allowed platform pose error under the service wrench.

    The rotational budget defaults to 10 degrees: together with the
    100 N*m service torque that reproduces the enforced torsional
    threshold 10/(pi/180) N*m/rad.
    """

    delta_xy_max: float = 1e-4         # [m], planar displacement norm
    delta_z_max: float = 1e-3          # [m]
    delta_phiz_max_deg: float = 10.0   # [deg]

    def __post_init__(self):
        check_finite(self, ("delta_xy_max", "delta_z_max", "delta_phiz_max_deg"))


@dataclass(frozen=True)
class StiffnessLimits:
    """Minimum stiffness indices g4..g6 compare against.

    Derived once from the service wrench and the accuracy budget (see
    from_requirements); the limits are all the constraints read of the
    wrench.  A deflection bound applies to magnitudes, so the sign of a
    load does not matter.
    """

    k_xy: float    # [N/m]
    k_z: float     # [N/m]
    k_phiz: float  # [N*m/rad]

    @staticmethod
    def from_requirements(wrench: Wrench, accuracy: AccuracySpec) -> "StiffnessLimits":
        return StiffnessLimits(
            k_xy=wrench.f_xy / accuracy.delta_xy_max,
            k_z=abs(wrench.f_z) / accuracy.delta_z_max,
            k_phiz=abs(wrench.tau_z) / math.radians(accuracy.delta_phiz_max_deg))


@dataclass(frozen=True)
class EvalContext:
    """Everything a constraint evaluation needs besides design and pose."""

    material: Material = DEFAULT_MATERIAL
    actuator: ActuatorStiffness = ActuatorStiffness()
    limits: StiffnessLimits = StiffnessLimits.from_requirements(Wrench(),
                                                                AccuracySpec())
    dexterity: DexterityConfig = DexterityConfig()
    mode: WorkingMode = DEFAULT_MODE


DEFAULT_CONTEXT = EvalContext()


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


def _kappa_terms(amat: np.ndarray, b: np.ndarray, adj: Adjugate) -> np.ndarray:
    """The terms (a, b', c, d) of the closed form, shape (4, N)."""
    dx, dy, mz = amat
    x, y, z = adj.x, adj.y, adj.z
    b2 = b * b
    t = np.empty((4,) + b.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(b2, x * x + y * y, out=t[0])
        np.multiply(b2, z * z, out=t[1])
        np.divide(dx * dx + dy * dy, b2, out=t[2])
        np.divide(mz * mz, b2, out=t[3])
    # summed over the legs term by term, as everywhere on the batch path,
    # so a pose comes out bit-identical alone and in any batch
    return t[:, 0] + t[:, 1] + t[:, 2]


class Kernels(NamedTuple):
    """The pose kernels of a batch that dexterity, stiffness and the l_c
    search read: A (3, 3, N) and the diagonal of B (3, N), adj(A) with
    det A, and the kappa_F terms (4, N)."""

    amat: np.ndarray
    b: np.ndarray
    adj: Adjugate
    terms: np.ndarray


def kernel_batch(design: DesignVector, bik: BatchIK) -> Kernels:
    """Jacobian, adjugate and kappa_F terms of every row of bik."""
    amat, b = jacobian_batch(design, bik)
    adj = adjugate_batch(amat)
    return Kernels(amat, b, adj, _kappa_terms(amat, b, adj))


_EPS = np.finfo(float).eps


def _dexterity(terms: np.ndarray, det: np.ndarray, l_c: float) -> np.ndarray:
    """Normalized 1/kappa_F per batch row, in [0, 1].

    terms and det are a Kernels' terms and adj.det.  0 where singular to
    working precision: 1/kappa_F not finite or below the float epsilon
    (det A = 0 alone misses rounded singularities).  A NaN l_c (home
    pose unreachable) gives 0 on every row.
    """
    ta, tb, tc, td = terms
    l2 = l_c * l_c
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 3.0 * np.abs(det) / np.sqrt((ta + tb * l2) * (tc + td / l2))
    return np.where(np.isfinite(inv) & (inv >= _EPS), np.minimum(inv, 1.0), 0.0)


#: The interval the home-optimal characteristic length is searched in [m].
LC_SEARCH_RANGE = (1e-3, 10.0)


def home_length(design: DesignVector, bik: BatchIK
                ) -> tuple[float, Kernels | None]:
    """The home-optimal characteristic length [m] from the last row of
    bik, which solved HOME_POSE, and the kernel pass of bik it ran (None
    when that row is unreachable).

    Golden-section minimization of kappa_F(diag(1, 1, L) J_home) over
    LC_SEARCH_RANGE, to 1e-4 relative width, on that row's kappa_F
    terms.  NaN where the home pose has no inverse-kinematic solution or
    is singular.  The one l_c search: characteristic_length runs it on a
    one-pose batch, the radius-0 workspace probe on its center block,
    whose last row is HOME_POSE.
    """
    if not bik.ok()[-1]:
        return math.nan, None
    kern = kernel_batch(design, bik)
    if _dexterity(kern.terms[:, -1:], kern.adj.det[-1:], 1.0)[0] == 0.0:
        return math.nan, kern
    ta, tb, tc, td = kern.terms[:, -1].tolist()

    def kappa(l_c: float) -> float:
        # kappa_F^2 times the constant 9 det(A)^2: the same minimizer
        return (ta + tb * l_c * l_c) * (tc + td / (l_c * l_c))

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = LC_SEARCH_RANGE
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = kappa(c), kappa(d)
    while (b - a) > 1e-4 * b:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = kappa(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = kappa(d)
    return 0.5 * (a + b), kern


@lru_cache(maxsize=4096)
def characteristic_length(design: DesignVector,
                          ctx: EvalContext = DEFAULT_CONTEXT) -> float:
    """Normalization length for the rotational twist component [m].

    The fixed ctx.dexterity.characteristic_length, else the home-optimal
    length that home_length searches on a one-pose solve of HOME_POSE.
    Raises HomeUnreachable when the symmetric home pose has no
    inverse-kinematic solution (or is singular there).  The cached entry
    for one-pose callers; the workspace search does not call it, as its
    radius-0 probe resolves l_c from the HOME_POSE row it appends to its
    center block (see workspace), with the same value.
    """
    if ctx.dexterity.characteristic_length is not None:
        return ctx.dexterity.characteristic_length
    bik = ik_batch(design, HOME_POSE.as_array()[None, :], ctx.mode)
    l_c, kern = home_length(design, bik)
    if math.isnan(l_c):
        raise HomeUnreachable(f"design {design.as_tuple()}" if kern is None
                              else "kinematic Jacobian singular at the home pose")
    return l_c


def inverse_condition(design: DesignVector, pose: Pose,
                      ctx: EvalContext = DEFAULT_CONTEXT) -> float:
    """Normalized inverse condition number of the Jacobian, in [0, 1].

    Returns 0 at parallel singularities (det A = 0) and raises as
    kinematics.inverse_kinematics does where a leg cannot take the pose.
    The characteristic length is resolved once per design and reused for
    every pose.
    """
    # solved first, so a leg error wins over a failing l_c search
    kern = kernel_batch(design, solve_pose(design, pose, ctx.mode))
    l_c = characteristic_length(design, ctx)
    return float(_dexterity(kern.terms, kern.adj.det, l_c)[0])


@dataclass(frozen=True)
class ConstraintReport:
    """Pose-wise constraint outcome; overall is the AND of every flag."""

    g1_geometry: bool
    g2_stroke: bool
    g3_dexterity: bool
    g4_kxy: bool
    g5_kz: bool
    g6_kphiz: bool
    ik_reachable: bool
    inverse_condition: float
    k_xy: float           # [N/m]
    k_z: float            # [N/m]
    k_phiz: float         # [N*m/rad]
    overall: bool


class BatchConstraints:
    """Struct-of-arrays constraint outcome over a pose batch: 12 arrays,
    given positionally in __slots__ order, which is ConstraintReport's
    field order.  The pinned digests and the benchmark's posemap digest
    and tracer read the arrays by these slot names, in this order."""

    __slots__ = ("g1", "g2", "g3", "g4", "g5", "g6", "ik", "kinv",
                 "kxy", "kz", "kphiz", "overall")

    def __init__(self, *arrays: np.ndarray):
        for name, arr in zip(self.__slots__, arrays, strict=True):
            setattr(self, name, arr)

    def report(self, idx: int) -> ConstraintReport:
        return ConstraintReport(*[getattr(self, n).item(idx)
                                  for n in self.__slots__])

    def rows(self, sel) -> "BatchConstraints":
        """The outcome of the rows that sel selects, field by field."""
        return BatchConstraints(*[getattr(self, n)[sel] for n in self.__slots__])


def geometry_ok(design: DesignVector) -> bool:
    """g1: the platform bar plus link must span half the base radius."""
    return design.link_length + design.platform_radius >= design.base_radius / 2.0


def constraints_batch(design: DesignVector, poses: np.ndarray,
                      ctx: EvalContext = DEFAULT_CONTEXT,
                      l_c: float | None = None,
                      bik: BatchIK | None = None,
                      kern: Kernels | None = None) -> BatchConstraints:
    """Evaluate g1..g6 over an (N, 3) pose array.

    Dexterity and stiffness are reported only on rows whose inverse
    kinematics succeeds (bik.ok(), which is ik & g2); other rows report
    zero indices.  Pass l_c when the characteristic length was already
    resolved (None triggers the per-design resolution and treats
    HomeUnreachable as zero dexterity), bik when ik_batch(design, poses,
    ctx.mode) was already solved, and with it kern when kernel_batch(
    design, bik) was already run.
    """
    poses = np.atleast_2d(np.asarray(poses, dtype=float))
    n = poses.shape[0]
    g1_flag = geometry_ok(design)

    if l_c is None:
        try:
            l_c = characteristic_length(design, ctx)
        except HomeUnreachable:
            l_c = math.nan

    if bik is None:
        bik = ik_batch(design, poses, ctx.mode)
    r, s = bik.reachable, bik.stroke_ok
    ik, g2 = r[0] & r[1] & r[2], s[0] & s[1] & s[2]
    usable = ik & g2
    if g1_flag and usable.any():
        # the kernels are elementwise: run them on every row, mask after
        # one adjugate of A serves 1/kappa_F and the in-plane compliance
        if kern is None:
            kern = kernel_batch(design, bik)
        kinv = np.where(usable, _dexterity(kern.terms, kern.adj.det, l_c), 0.0)
        legs, legs_ok = stiffness_batch(design, bik, kern[:2], ctx.material,
                                        ctx.actuator)
        kxy, kz, kphiz = stiffness_indices_batch(legs, kern.adj,
                                                 legs_ok & usable)
    else:
        kinv, kxy, kz, kphiz = np.zeros((4, n))

    lim = ctx.limits
    g1 = np.full(n, g1_flag)
    g3 = kinv >= ctx.dexterity.threshold
    g4 = kxy >= lim.k_xy
    g5 = kz >= lim.k_z
    g6 = kphiz >= lim.k_phiz
    overall = g1 & g2 & g3 & g4 & g5 & g6 & ik
    return BatchConstraints(g1, g2, g3, g4, g5, g6, ik, kinv, kxy, kz, kphiz,
                            overall)


def evaluate_constraints(design: DesignVector, pose: Pose,
                         ctx: EvalContext = DEFAULT_CONTEXT) -> ConstraintReport:
    """Full constraint report for one pose (never raises; unreachable
    poses come back with ik_reachable False and overall False)."""
    return constraints_batch(design, pose.as_array()[None, :], ctx).report(0)
