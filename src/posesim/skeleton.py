"""Fixed 15-joint skeleton graph and keypoint normalization.

Joint indexing used everywhere in this package:

    0  right ankle    5  left knee      10  neck
    1  right knee     6  left ankle     11  left shoulder
    2  right hip      7  right wrist    12  left elbow
    3  pelvis         8  right elbow    13  left wrist
    4  left hip       9  right shoulder 14  head

All functions here are pure and operate on immutable inputs, so they are
safe to call from any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

NUM_KEYPOINTS = 15

KEYPOINT_NAMES = (
    "r_ankle",
    "r_knee",
    "r_hip",
    "pelvis",
    "l_hip",
    "l_knee",
    "l_ankle",
    "r_wrist",
    "r_elbow",
    "r_shoulder",
    "neck",
    "l_shoulder",
    "l_elbow",
    "l_wrist",
    "head",
)

# The 14 bones of the kinematic tree (MPII-style 15-joint layout).
SKELETON_EDGES = (
    (0, 1), (1, 2), (2, 3),        # right leg
    (3, 4), (4, 5), (5, 6),        # left leg
    (7, 8), (8, 9), (9, 10),       # right arm
    (10, 11), (11, 12), (12, 13),  # left arm
    (10, 14),                      # neck to head
    (3, 10),                       # spine
)


# numpy converts a bool, or a string that spells a number, to a float
_NOT_NUMBERS = (bool, np.bool_, str, bytes)


def number_array(values, shape: tuple, what: str) -> np.ndarray:
    """values, an array or nested sequences of numbers, as a new float64
    array of the given shape; ValueError naming what otherwise.

    An array must have an integer or float dtype; of a sequence, no element
    may be a bool or a string.
    """
    try:
        arr = np.array(values, dtype=np.float64)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{what} must hold numbers ({exc})") from exc
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {'x'.join(map(str, shape))}, "
                         f"got {arr.shape}")
    if isinstance(values, np.ndarray):
        numbers = values.dtype.kind in "iuf"
    else:
        for _ in range(arr.ndim - 1):
            values = chain.from_iterable(values)
        numbers = not any(issubclass(kind, _NOT_NUMBERS)
                          for kind in set(map(type, values)))
    if not numbers:
        raise ValueError(f"{what} must hold numbers, not bools or strings")
    return arr


def _validated_coords(values, what: str) -> np.ndarray:
    """values as a read-only 15x2 float64 array of finite coordinates whose
    per-axis extents are finite too; ValueError, naming what, otherwise."""
    arr = number_array(values, (NUM_KEYPOINTS, 2), what)
    # One BLAS call admits nearly every array: a finite sum of squares keeps
    # each |coordinate| below about 1.34e154, so the coordinates and their
    # extents are finite. The sum is NaN or inf, with no FP warning, for a
    # NaN, an infinity, any larger |x| or squares whose sum overflows; only
    # those arrays take the exact checks below.
    if not np.vdot(arr, arr) < math.inf:
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{what} contains non-finite values")
        for axis, name in enumerate("xy"):
            # Python floats: the overflow yields inf without a RuntimeWarning
            lo, hi = float(arr[:, axis].min()), float(arr[:, axis].max())
            if hi - lo == math.inf:
                raise ValueError(f"{what} {name} extent {hi!r} - {lo!r} "
                                 f"overflows float64")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Pose:
    """A single 2D pose: 15 keypoints in pixel coordinates, indexed as above.

    Coordinates must be finite, and so must each axis's extent (max - min),
    which normalization divides by.
    """

    keypoints: np.ndarray

    def __post_init__(self):
        kp = _validated_coords(self.keypoints, "keypoints")
        object.__setattr__(self, "keypoints", kp)


@dataclass(frozen=True)
class NormalizedPose:
    """Position- and scale-invariant node features, one (x, y) row per joint.

    Every entry lies in [0, 1]. Along each axis the minimum maps to 0 and the
    maximum to 1, except for a degenerate axis (zero extent) where the whole
    column is 0.5.
    """

    features: np.ndarray

    def __post_init__(self):
        f = _validated_coords(self.features, "features")
        if f.min() < 0.0 or f.max() > 1.0:
            raise ValueError("normalized features must lie in [0, 1]")
        object.__setattr__(self, "features", f)


@dataclass(frozen=True)
class SkeletonTopology:
    """The fixed skeleton graph as the operator every graph convolution layer
    applies: adjacency_norm, the renormalized adjacency D^-1/2 (A + I) D^-1/2.
    Instances are immutable and shareable.
    """

    adjacency_norm: np.ndarray


@lru_cache(maxsize=1)
def build_skeleton_topology() -> SkeletonTopology:
    """Construct the fixed 15-node skeleton graph.

    Entry (i, j) of the result is 1/sqrt(deg_i * deg_j) where i and j are
    joined by a bone or equal, and 0 elsewhere; deg counts the self-loop, so
    no degree is zero. The matrix is symmetric with all eigenvalues in
    [-1, 1]. Deterministic and constant; repeated calls return the same
    shared instance.
    """
    c_hat = np.eye(NUM_KEYPOINTS, dtype=np.float64)
    for i, j in SKELETON_EDGES:
        c_hat[i, j] = 1.0
        c_hat[j, i] = 1.0
    inv_sqrt = 1.0 / np.sqrt(c_hat.sum(axis=1))
    # outer() keeps the result exactly symmetric
    a_norm = np.outer(inv_sqrt, inv_sqrt) * c_hat
    a_norm.flags.writeable = False
    return SkeletonTopology(adjacency_norm=a_norm)


def distinct_poses(poses) -> tuple[np.ndarray, np.ndarray]:
    """Stack the distinct keypoint arrays among poses, in first-seen order.

    Returns (keypoints, index): keypoints has shape (u, 15, 2) and
    poses[i].keypoints equals keypoints[index[i]] bit for bit, so any
    per-pose result computed on the stack can be gathered back by index.
    """
    rows: dict[bytes, int] = {}
    stack = []
    index = np.empty(len(poses), dtype=np.intp)
    for i, pose in enumerate(poses):
        key = pose.keypoints.tobytes()
        row = rows.get(key)
        if row is None:
            row = rows[key] = len(stack)
            stack.append(pose.keypoints)
        index[i] = row
    return np.array(stack).reshape(-1, NUM_KEYPOINTS, 2), index


def normalize_stack(keypoints) -> np.ndarray:
    """Min-max normalize a (n, 15, 2) stack of poses per pose and axis.

    Row i equals normalize_pose of pose i bit for bit: the same per-element
    subtraction and division, with 0.5 on an axis of zero extent. One sort
    along the joint axis gives each axis's min and max, exactly. A zero
    feature is always +0.0: where a pose mixes -0.0 and +0.0 on an axis,
    which of them the sort puts first is unspecified, and so is the sign
    of p - lo.

    Precondition, not checked here: every pose is the keypoints of a Pose,
    so its coordinates and per-axis extents are finite. Every feature then
    lies in [0, 1], since rounding is monotone: lo <= p <= hi gives
    0 <= p - lo <= hi - lo and so a quotient in [0, 1].
    """
    kp = np.asarray(keypoints, dtype=np.float64)
    ordered = np.sort(kp, axis=1)
    lo = ordered[:, :1]
    extent = ordered[:, -1:] - lo
    features = np.empty_like(kp)
    features.fill(0.5)
    np.divide(kp - lo, extent, out=features, where=extent != 0.0)
    # -0.0 + 0.0 is +0.0; every other feature keeps its bits
    return np.add(features, 0.0, out=features)


def normalize_pose(pose: Pose) -> NormalizedPose:
    """Min-max normalize keypoints per axis into [0, 1].

    The bounding box of the 15 keypoints defines the extent, which makes the
    result invariant to translation and to positive per-axis scaling. An axis
    with zero extent maps to 0.5 everywhere.
    """
    return NormalizedPose(normalize_stack(pose.keypoints[None])[0])
