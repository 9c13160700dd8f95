#!/usr/bin/env python3
"""Train the embedding on a small synthetic corpus and watch the contrastive
objective reshape the metric.

Positive pairs (template vs jittered copy) are pulled together, negative
pairs (different templates) are pushed past the margin. The demo prints the
loss trajectory, the before/after distance separation, and finishes with a
checkpoint round trip.
"""

import numpy as np

from posesim import (
    SynthConfig,
    TrainConfig,
    build_pose_pairs,
    build_skeleton_topology,
    cosine_distance,
    forward_variant,
    generate_corpus_files,
    init_model,
    load_checkpoint,
    normalize_pose,
    save_checkpoint,
    train,
)


def mean_distances(model, topo, pairs):
    pos, neg = [], []
    for pair in pairs:
        e1, _ = forward_variant(model, normalize_pose(pair.pose_a), topo, "gcn")
        e2, _ = forward_variant(model, normalize_pose(pair.pose_b), topo, "gcn")
        (pos if pair.label_y == 1 else neg).append(cosine_distance(e1, e2))
    return float(np.mean(pos)), float(np.mean(neg))


def main():
    topo = build_skeleton_topology()
    records, entries = generate_corpus_files(
        SynthConfig(pairs_per_template=16, seed=1))
    pairs, _ = build_pose_pairs(records, entries)
    print(f"corpus: {len(records)} poses, {len(pairs)} labelled pairs")

    model = init_model(h=2, seed=4)
    pos0, neg0 = mean_distances(model, topo, pairs)
    print(f"before training: mean pos dist {pos0:.4f}, "
          f"mean neg dist {neg0:.4f}")

    cfg = TrainConfig(epochs=25)
    model, history = train(model, topo, pairs, cfg)

    print("\nloss trajectory (every 5th epoch):")
    for epoch in range(0, cfg.epochs, 5):
        print(f"  epoch {epoch + 1:2d}: mean loss {history.mean_loss[epoch]:.4f}  "
              f"pos {history.mean_pos_dist[epoch]:.4f}  "
              f"neg {history.mean_neg_dist[epoch]:.4f}")
    print(f"  epoch {cfg.epochs:2d}: mean loss {history.mean_loss[-1]:.4f}  "
          f"pos {history.mean_pos_dist[-1]:.4f}  "
          f"neg {history.mean_neg_dist[-1]:.4f}")

    pos1, neg1 = mean_distances(model, topo, pairs)
    print(f"\nafter training: mean pos dist {pos1:.4f}, "
          f"mean neg dist {neg1:.4f}")
    print(f"separation grew from {neg0 - pos0:.4f} to {neg1 - pos1:.4f}")

    # checkpoints are canonical JSON, so save -> load -> save is stable
    blob = save_checkpoint(model)
    restored = load_checkpoint(blob)
    again = save_checkpoint(restored)
    print(f"\ncheckpoint: {len(blob)} bytes, "
          f"round-trip byte-identical: {blob == again}")


if __name__ == "__main__":
    main()
