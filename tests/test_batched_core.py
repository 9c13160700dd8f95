"""The stacked array core against its single-pose and single-pair calls.

Stacking must not change a single bit: a pose's normalized features and
embedding are the same whatever stack it sits in, a batch's summed
gradient is the sequential sum of its pairs' pair_backward results, and the
stacked gradient check equals the per-coordinate loop it replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posesim.network import (
    VARIANTS,
    EmbeddingModel,
    embed,
    forward_variant,
    init_model,
    parameter_list,
)
from posesim.scoring import evaluate, score_pair
from posesim.skeleton import (
    NUM_KEYPOINTS,
    Pose,
    build_skeleton_topology,
    normalize_pose,
    normalize_stack,
)
from posesim.training import (
    FD_EPSILON,
    PAIRS_PER_CHUNK,
    PosePair,
    TrainConfig,
    _BatchGradient,
    _pair_losses,
    cosine_distance,
    cosine_distances,
    gradient_check,
    pair_backward,
    random_check_instance,
    train,
)

TOPO = build_skeleton_topology()


@st.composite
def keypoint_stacks(draw, max_poses=12):
    """(n, 15, 2) keypoints: per-pose, per-axis scales from 1e-3 to 1e6 and
    offsets, some degenerate (constant) axes and some duplicate poses."""
    n = draw(st.integers(1, max_poses))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** rng.uniform(-3.0, 6.0, size=(n, 1, 2))
    offset = rng.uniform(-1.0, 1.0, size=(n, 1, 2)) * scale * 100.0
    kp = rng.uniform(-1.0, 1.0, size=(n, NUM_KEYPOINTS, 2)) * scale + offset
    for _ in range(draw(st.integers(0, n))):
        i, axis = draw(st.integers(0, n - 1)), draw(st.integers(0, 1))
        kp[i, :, axis] = kp[i, 0, axis]
    for _ in range(draw(st.integers(0, n - 1))):
        kp[draw(st.integers(0, n - 1))] = kp[draw(st.integers(0, n - 1))]
    return kp


@settings(max_examples=40, deadline=None)
@given(kp=keypoint_stacks(), h=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_normalize_and_embed_match_single_pose_calls(kp, h, seed):
    model = init_model(h=h, seed=seed)
    features = normalize_stack(kp)
    singles = [normalize_pose(Pose(k)) for k in kp]
    for row, single in zip(features, singles):
        assert row.tobytes() == single.features.tobytes()
    for variant in VARIANTS:
        emb, _ = embed(model, features, TOPO, variant)
        for row, single in zip(emb, singles):
            want, _ = forward_variant(model, single, TOPO, variant)
            assert row.tobytes() == want.tobytes()


@settings(max_examples=25, deadline=None)
@given(kp=keypoint_stacks(max_poses=2 * (3 * PAIRS_PER_CHUNK + 1)),
       labels_seed=st.integers(0, 2 ** 32 - 1),
       model_seed=st.integers(0, 2 ** 32 - 1),
       variant=st.sampled_from(VARIANTS))
def test_batch_gradient_is_sequential_sum_of_pair_backward(kp, labels_seed,
                                                           model_seed, variant):
    if len(kp) % 2:
        kp = np.concatenate([kp, kp[:1]])
    n = len(kp) // 2
    model = init_model(h=2, seed=model_seed)
    poses = [Pose(k) for k in kp]
    labels = np.random.default_rng(labels_seed).integers(0, 2, size=n)
    labels[-1] = 0
    # the margin sits exactly at the last negative's distance: its hinge is
    # inactive, so it adds nothing and the core skips its backward pass
    e = [forward_variant(model, normalize_pose(p), TOPO, variant)[0]
         for p in poses[-2:]]
    margin = cosine_distance(*e)
    if not 0.0 < margin <= 2.0:
        margin = 1.35
    cfg = TrainConfig(margin_m=margin)
    pairs = [PosePair(poses[2 * k], poses[2 * k + 1], int(labels[k]))
             for k in range(n)]

    core = _BatchGradient(model)
    loss, _ = core.compute(model, TOPO, normalize_stack(kp), labels, margin,
                           variant)

    total = [np.zeros_like(g) for g in core.grads]
    for k, pair in enumerate(pairs):
        pair_loss, grads = pair_backward(model, TOPO, pair, cfg, variant)
        assert pair_loss == loss[k]
        for t, g in zip(total, grads):
            t += g
    for got, want in zip(core.grads, total):
        assert got.tobytes() == want.tobytes()


def loop_gradient_check(model, topo, pair, cfg, variant):
    """The per-coordinate loop gradient_check replaced: each coordinate of a
    private copy is moved in place and both twins are embedded from scratch.
    Python's max() drops a NaN error here; gradient_check returns NaN."""
    work = EmbeddingModel(model.gcn_weights, model.mlp_layers, model.arch)
    _, analytic = pair_backward(work, topo, pair, cfg, variant)
    x = normalize_stack([pair.pose_a.keypoints, pair.pose_b.keypoints])

    def loss_at_current():
        emb, _ = embed(work, x, topo, variant)
        d = float(cosine_distances(emb)[0])
        return float(_pair_losses(d, pair.label_y, cfg.margin_m)[0])

    worst = 0.0
    for p, ga in zip(parameter_list(work), analytic):
        flat = p.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_EPSILON
            up = loss_at_current()
            flat[i] = orig - FD_EPSILON
            down = loss_at_current()
            flat[i] = orig
            numeric = (up - down) / (2.0 * FD_EPSILON)
            denom = max(abs(gflat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(gflat[i] - numeric) / denom)
    return float(worst)


@settings(max_examples=12, deadline=None)
@given(h=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       label=st.integers(0, 1), variant=st.sampled_from(VARIANTS),
       margin=st.floats(0.05, 2.0))
def test_gradient_check_matches_per_coordinate_loop(h, seed, label, variant,
                                                    margin):
    rng = np.random.default_rng(seed)
    model = init_model(h=h, seed=seed)
    pair = PosePair(Pose(rng.uniform(-3.0, 3.0, size=(NUM_KEYPOINTS, 2))),
                    Pose(rng.uniform(-3.0, 3.0, size=(NUM_KEYPOINTS, 2))), label)
    cfg = TrainConfig(margin_m=margin)
    got = gradient_check(model, TOPO, pair, cfg, variant)
    want = loop_gradient_check(model, TOPO, pair, cfg, variant)
    assert repr(got) == repr(want)


def test_gradient_check_leaves_model_buffers_untouched():
    model, pair = random_check_instance(7)
    buffers = parameter_list(model)
    before = [p.tobytes() for p in buffers]
    for variant in VARIANTS:
        gradient_check(model, TOPO, pair, variant=variant)
    assert all(a is b for a, b in zip(parameter_list(model), buffers))
    assert [p.tobytes() for p in buffers] == before


MODEL = init_model(h=2, seed=4)
ENTRY_POINTS = {
    # each gets inputs that fail differently once any work has begun
    "train": lambda v: train(MODEL, TOPO, [], TrainConfig(), variant=v),
    "evaluate": lambda v: evaluate(MODEL, TOPO, [], variant=v),
    "score_pair": lambda v: score_pair(MODEL, TOPO, None, None, variant=v),
    "gradient_check": lambda v: gradient_check(MODEL, TOPO, None, variant=v),
}


@pytest.mark.parametrize("variant", ["cnn", "GCN", ""])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_unknown_variant_rejected_before_any_work(entry, variant):
    with pytest.raises(ValueError, match="variant"):
        ENTRY_POINTS[entry](variant)
