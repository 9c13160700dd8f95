#!/usr/bin/env python3
"""Walk through the skeletal graph: keypoints, edges, and the normalized
adjacency that the graph convolutions propagate over.

Also demonstrates the property the whole pipeline leans on: min-max
normalization makes the node features invariant to where the subject
stands and how big they are in the frame.
"""

import numpy as np

from posesim import (
    KEYPOINT_NAMES,
    SKELETON_EDGES,
    Pose,
    build_skeleton_topology,
    normalize_pose,
)
from posesim.corpus import TEMPLATE_LIBRARY


def main():
    print("keypoints:")
    for i, name in enumerate(KEYPOINT_NAMES):
        print(f"  {i:2d} {name}")

    print(f"\nedges ({len(SKELETON_EDGES)} bones):")
    for i, j in SKELETON_EDGES:
        print(f"  {KEYPOINT_NAMES[i]} -- {KEYPOINT_NAMES[j]}")

    a = build_skeleton_topology()
    print("\nnormalized adjacency A_norm = D^-1/2 (C + I) D^-1/2")
    print(f"  shape {a.shape}, symmetric: {np.array_equal(a, a.T)}")
    eigs = np.linalg.eigvalsh(a)
    print(f"  eigenvalue range [{eigs.min():.6f}, {eigs.max():.6f}]")
    print("  spectral radius <= 1, so repeated propagation cannot blow up")

    # same pose, shifted and rescaled: identical node features
    name, pts = TEMPLATE_LIBRARY[0]
    pose = Pose(np.asarray(pts))
    moved = Pose(np.asarray(pts) * np.array([3.7, 0.4]) + np.array([250.0, -80.0]))
    n1 = normalize_pose(pose).features
    n2 = normalize_pose(moved).features
    print(f"\nmin-max normalization on template '{name}':")
    print(f"  features span [0,1] per axis: "
          f"min {n1.min():.3f}, max {n1.max():.3f}")
    print(f"  after shift+rescale, max feature difference: "
          f"{np.max(np.abs(n1 - n2)):.3e}")


if __name__ == "__main__":
    main()
