import numpy as np
import pytest

from ppmopt.kinematics import DEFAULT_MODE, Pose, ik_batch
from ppmopt.model import Architecture, Bounds, DesignVector
from ppmopt.performance import EvalContext

# Published Pareto designs used as ground truth throughout the suite.
DESIGN_I = DesignVector(Architecture.PRR, 1.412, 0.319, 0.620, 0.026, 0.023)
DESIGN_II = DesignVector(Architecture.PRR, 3.066, 1.283, 1.896, 0.036, 0.056)
DESIGN_III = DesignVector(Architecture.PRR, 3.872, 1.947, 1.977, 0.039, 0.096)
REPORTED = {"I": (44.5, 0.110), "II": (484.8, 1.207), "III": (1545.6, 1.609)}

# Design I's platform radius sits below the study's optimization box, so
# validation-facing tests use a box that actually contains it.
WIDE_BOUNDS = Bounds(lower=(0.1, 0.1, 0.1, 0.0, 0.0),
                     upper=(4.0, 4.0, 4.0, 0.1, 0.1))


def _same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture(scope="session")
def ctx():
    return EvalContext()


def sample_design(rng: np.random.Generator, arch: Architecture) -> DesignVector:
    """A random home-reachable design of one architecture."""
    while True:
        big_r = rng.uniform(0.8, 3.0)
        r = rng.uniform(0.15, 0.6) * big_r
        if arch is Architecture.RPR:
            # home strut R - r must fall inside the stroke [L/2, L]
            lb = (big_r - r) * rng.uniform(1.05, 1.9)
        elif arch is Architecture.RRR:
            lb = (big_r - r) * rng.uniform(0.55, 1.2)
        else:
            # rail-to-vertex clearance R/2 - r must stay below the link
            lb = (big_r / 2.0 - r) + rng.uniform(0.1, 0.8) * big_r
        if not 0.1 <= lb <= 4.0:
            continue
        design = DesignVector(arch, big_r, r, lb,
                              rng.uniform(0.01, 0.08), rng.uniform(0.01, 0.08))
        if bool(ik_batch(design, np.zeros((1, 3))).ok()[0]):
            return design


def sample_pose(rng: np.random.Generator, design: DesignVector,
                mode=DEFAULT_MODE) -> Pose:
    """A random reachable pose near the home posture."""
    scale = 0.25 * design.platform_radius
    while True:
        pose = np.array([rng.normal(0.0, scale), rng.normal(0.0, scale),
                         rng.uniform(-0.35, 0.35)])
        if bool(ik_batch(design, pose[None, :], mode).ok()[0]):
            return Pose(*pose)
