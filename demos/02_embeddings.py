#!/usr/bin/env python3
"""Embed the template poses with a freshly initialized (untrained) model and
look at the raw geometry: cosine distances between templates, distances to
jittered copies, and the distance -> score mapping.

The point of this demo is the before picture. Untrained embeddings already
separate poses a little (the architecture is topology-aware), but the
within-template vs between-template contrast is weak; training (demo 03)
is what stretches it out.
"""

import numpy as np

from posesim import (
    Pose,
    ScoreParams,
    build_skeleton_topology,
    cosine_distance,
    forward_variant,
    init_model,
    normalize_pose,
    similarity_score,
)
from posesim.corpus import TEMPLATE_LIBRARY, _extent_diagonal


def embed(model, topo, pts):
    e, _ = forward_variant(model, normalize_pose(Pose(np.asarray(pts))), topo,
                           "gcn")
    return e


def main():
    topo = build_skeleton_topology()
    model = init_model(h=2, seed=4)
    names = [name for name, _ in TEMPLATE_LIBRARY]
    embs = [embed(model, topo, pts) for _, pts in TEMPLATE_LIBRARY]

    print("cosine distances between untrained template embeddings:")
    print("          " + " ".join(f"{n[:8]:>8s}" for n in names))
    for i, name in enumerate(names):
        row = " ".join(f"{cosine_distance(embs[i], embs[j]):8.4f}"
                       for j in range(len(names)))
        print(f"{name[:9]:>9s} {row}")

    rng = np.random.Generator(np.random.PCG64(0))
    print("\ndistance from each template to a jittered copy (level 0.05):")
    for (name, pts), e in zip(TEMPLATE_LIBRARY, embs):
        pts = np.asarray(pts)
        sigma = 0.05 * _extent_diagonal(pts) / np.sqrt(2.0)
        noisy = pts + rng.normal(scale=sigma, size=pts.shape)
        d = cosine_distance(e, embed(model, topo, noisy))
        print(f"  {name:12s} d_c = {d:.4f}  score = "
              f"{similarity_score(d):.2f}")

    print("\nthe score map itself (sigma=100, width=0.3):")
    p = ScoreParams()
    for d in (0.0, 0.1, 0.3, 0.6, 1.0, 2.0):
        print(f"  d_c = {d:4.2f} -> score {similarity_score(d, p):8.4f}")
    print("score(0) = 100 exactly; the Gaussian tail never quite reaches 0")


if __name__ == "__main__":
    main()
