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


# Coordinates below this magnitude are finite and no per-axis extent
# (max - min) of them can overflow: the largest is exactly float64's max.
_SAFE_MAGNITUDE = 2.0 ** 1023


def _validated_coords(values, shape, what: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.abs(arr).max() < _SAFE_MAGNITUDE:  # also catches nan
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{what} contains non-finite values")
        for axis, name in enumerate("xy"):
            # Python floats: the overflow yields inf without a RuntimeWarning
            lo, hi = float(arr[:, axis].min()), float(arr[:, axis].max())
            if hi - lo == math.inf:
                raise ValueError(f"{what} {name} extent {hi!r} - {lo!r} "
                                 f"overflows float64")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Pose:
    """A single 2D pose: 15 keypoints in pixel coordinates, indexed as above.

    Coordinates must be finite, and so must each axis's extent (max - min),
    which normalization divides by.
    """

    keypoints: np.ndarray

    def __post_init__(self):
        kp = _validated_coords(self.keypoints, (NUM_KEYPOINTS, 2), "keypoints")
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
        f = _validated_coords(self.features, (NUM_KEYPOINTS, 2), "features")
        if f.min() < 0.0 or f.max() > 1.0:
            raise ValueError("normalized features must lie in [0, 1]")
        object.__setattr__(self, "features", f)


@dataclass(frozen=True)
class SkeletonTopology:
    """The fixed skeleton graph with its precomputed normalized adjacency.

    adjacency_raw is the binary adjacency with self-loops. adjacency_norm is
    its symmetric degree normalization, the operator applied by every graph
    convolution layer. Instances are immutable and shareable.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]
    adjacency_raw: np.ndarray
    adjacency_norm: np.ndarray


def symmetric_normalize(c_hat) -> np.ndarray:
    """Apply symmetric degree normalization to a binary adjacency matrix.

    Args:
        c_hat: square symmetric 0/1 matrix, self-loops already included.

    Returns:
        The matrix scaled entrywise by 1/sqrt(deg_i * deg_j); symmetric, with
        all eigenvalues in [-1, 1].

    Raises:
        ValueError: if the matrix is not square, symmetric and binary, or if
            any row sums to zero (an isolated node without a self-loop).
    """
    c = np.asarray(c_hat, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {c.shape}")
    if not np.array_equal(c, c.T):
        raise ValueError("adjacency must be symmetric")
    if not np.all((c == 0.0) | (c == 1.0)):
        raise ValueError("adjacency must be binary")
    degrees = c.sum(axis=1)
    if np.any(degrees == 0.0):
        raise ValueError("adjacency has a zero row sum (isolated node)")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    # outer() keeps the result exactly symmetric
    return np.outer(inv_sqrt, inv_sqrt) * c


@lru_cache(maxsize=1)
def build_skeleton_topology() -> SkeletonTopology:
    """Construct the fixed 15-node skeleton graph.

    Deterministic and constant; repeated calls return the same shared
    instance.
    """
    c_hat = np.eye(NUM_KEYPOINTS, dtype=np.float64)
    for i, j in SKELETON_EDGES:
        c_hat[i, j] = 1.0
        c_hat[j, i] = 1.0
    a_norm = symmetric_normalize(c_hat)
    c_hat.flags.writeable = False
    a_norm.flags.writeable = False
    return SkeletonTopology(
        node_count=NUM_KEYPOINTS,
        edges=SKELETON_EDGES,
        adjacency_raw=c_hat,
        adjacency_norm=a_norm,
    )


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
    subtraction and division, with 0.5 on an axis of zero extent. Raises
    ValueError for a wrongly shaped or non-finite stack.
    """
    kp = np.asarray(keypoints, dtype=np.float64)
    if kp.ndim != 3 or kp.shape[1:] != (NUM_KEYPOINTS, 2):
        raise ValueError(f"keypoint stack must have shape (n, {NUM_KEYPOINTS}, 2), "
                         f"got {kp.shape}")
    if not np.all(np.isfinite(kp)):
        raise ValueError("pose contains non-finite coordinates")
    lo = kp.min(axis=1, keepdims=True)
    extent = kp.max(axis=1, keepdims=True) - lo
    features = np.full_like(kp, 0.5)
    np.divide(kp - lo, extent, out=features, where=extent != 0.0)
    if features.min() < 0.0 or features.max() > 1.0:
        raise ValueError("normalized features must lie in [0, 1]")
    return features


def normalize_pose(pose: Pose) -> NormalizedPose:
    """Min-max normalize keypoints per axis into [0, 1].

    The bounding box of the 15 keypoints defines the extent, which makes the
    result invariant to translation and to positive per-axis scaling. An axis
    with zero extent maps to 0.5 everywhere.
    """
    return NormalizedPose(normalize_stack(pose.keypoints[None])[0])
