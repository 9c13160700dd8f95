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


def scalar_operand(value: float) -> np.ndarray:
    """value as a read-only 0-d float64 array: a ufunc reads it as it is,
    where it converts a Python float operand anew on every call."""
    arr = np.array(value, dtype=np.float64)
    arr.flags.writeable = False
    return arr


ZERO, ONE, TWO = map(scalar_operand, (0.0, 1.0, 2.0))
# numpy converts a bool, or a string that spells a number, to a float
_NOT_NUMBERS = (bool, np.bool_, str, bytes)


def number_array(values, shape: tuple, what: str) -> np.ndarray:
    """values, an array or nested sequences of numbers, as a new float64
    array of the given shape; ValueError naming what otherwise.

    An array must have an integer or float dtype; of a sequence, no element
    may be a bool or a string, and the nesting may not be ragged.
    """
    try:
        arr = np.array(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
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


def number_vector(values, what: str) -> np.ndarray:
    """values, an array or a sequence of numbers, as a new float64 vector by
    number_array's rule; ValueError naming what, ragged nesting included."""
    try:
        shape = np.shape(values)
    except ValueError:  # ragged nesting, which number_array names
        shape = (-1,)
    if len(shape) != 1:
        raise ValueError(f"{what} must be a vector, got shape {shape}")
    return number_array(values, shape, what)


def admitted(cls, fields: dict):
    """An instance of the frozen dataclass cls holding fields, values the
    caller has checked by cls's own rule, with no __init__ or __post_init__
    run: the only constructor of PairTable and NormalizedPose."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


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


@dataclass(frozen=True, eq=False)
class Pose:
    """A single 2D pose: 15 keypoints in pixel coordinates, indexed as above.

    Coordinates must be finite, and so must each axis's extent (max - min),
    which normalization divides by. Two poses are equal, and hash alike,
    when their keypoints have the same bytes, so -0.0 and +0.0 differ.
    """

    keypoints: np.ndarray

    def __post_init__(self):
        kp = _validated_coords(self.keypoints, "keypoints")
        object.__setattr__(self, "keypoints", kp)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.keypoints.tobytes() == other.keypoints.tobytes()

    def __hash__(self):
        return hash(self.keypoints.tobytes())


def admits_stack(stack: np.ndarray) -> bool:
    """Whether every pose of stack, a (n, 15, 2) float64 array, passes the
    first check of _validated_coords; on False each needs the exact checks."""
    flat = stack.reshape(-1, NUM_KEYPOINTS * 2)
    # Per pose, not one vdot of the whole stack: OpenBLAS hands a dot that
    # long to its threads, which then spin and slow the work that follows.
    # vecdot, unlike vdot, warns on the overflow that sends a stack back.
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.vecdot(flat, flat).max(initial=0.0) < math.inf)


@dataclass(frozen=True, eq=False)
class NormalizedPose:
    """Position- and scale-invariant node features, one (x, y) row per joint.

    Every entry lies in [0, 1]. Along each axis the minimum maps to 0 and the
    maximum to 1, except for a degenerate axis (zero extent) where the whole
    column is 0.5. Only normalize_pose builds one, with read-only features.
    It compares and hashes by identity, as its array field cannot.
    """

    features: np.ndarray

    def __init__(self, *args, **kwargs):
        raise TypeError("a NormalizedPose is built by normalize_pose")


@lru_cache(maxsize=1)
def build_skeleton_topology() -> np.ndarray:
    """The fixed skeleton graph as the operator every graph convolution layer
    applies: the (15, 15) renormalized adjacency D^-1/2 (A + I) D^-1/2.

    Entry (i, j) is 1/sqrt(deg_i * deg_j) where i and j are joined by a bone
    or equal, and 0 elsewhere; deg counts the self-loop, so no degree is
    zero. The matrix is symmetric with all eigenvalues in [-1, 1]. It is
    read-only, and repeated calls return the same shared array.
    """
    c_hat = np.eye(NUM_KEYPOINTS, dtype=np.float64)
    for i, j in SKELETON_EDGES:
        c_hat[i, j] = 1.0
        c_hat[j, i] = 1.0
    inv_sqrt = 1.0 / np.sqrt(c_hat.sum(axis=1))
    # outer() keeps the result exactly symmetric
    a_norm = np.outer(inv_sqrt, inv_sqrt) * c_hat
    a_norm.flags.writeable = False
    return a_norm


def normalize_stack(keypoints) -> np.ndarray:
    """Min-max normalize a (n, 15, 2) stack of poses per pose and axis.

    Row i equals normalize_pose of pose i bit for bit: the same per-element
    subtraction and division, with 0.5 on an axis of zero extent. One sort
    along the joint axis gives each axis's min and max, exactly. A zero
    feature is always +0.0: the stack is first summed with +0.0, which
    makes every -0.0 a +0.0 and keeps every other bit, so no p - lo is -0.0.

    Precondition, not checked here: every pose is the keypoints of a Pose,
    so its coordinates and per-axis extents are finite. Every feature then
    lies in [0, 1], since rounding is monotone: lo <= p <= hi gives
    0 <= p - lo <= hi - lo and so a quotient in [0, 1].
    """
    kp = np.add(keypoints, ZERO)  # a new float64 stack with no -0.0
    ordered = np.sort(kp, axis=1)
    lo = ordered[:, :1]
    extent = ordered[:, -1:] - lo
    features = np.empty_like(kp)
    features.fill(0.5)
    np.divide(np.subtract(kp, lo, out=kp), extent, out=features,
              where=extent != ZERO)
    return features


def normalize_pose(pose: Pose) -> NormalizedPose:
    """Min-max normalize keypoints per axis into [0, 1].

    The bounding box of the 15 keypoints defines the extent, which makes the
    result invariant to translation and to positive per-axis scaling. An axis
    with zero extent maps to 0.5 everywhere.
    """
    features = normalize_stack(pose.keypoints[None])[0]
    features.setflags(write=False)
    return admitted(NormalizedPose, {"features": features})
