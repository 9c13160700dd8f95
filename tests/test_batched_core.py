"""The stacked array core against its single-pose and single-pair calls.

Stacking must not change a single bit: a pose's normalized features and
embedding are the same whatever stack it sits in, a batch's summed
gradient is the sequential sum of its pairs' pair_backward results and
does not change when its twins come as an index into distinct poses, the
stacked gradient check equals the per-coordinate loop it replaced, K models
stacked give each model its own pair_backward gradients, and vetting a
block of check-instance candidates accepts exactly the candidates the
one-at-a-time vetting it replaced accepts.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from posesim.network import (
    VARIANTS,
    AffineLayer,
    ArchMeta,
    EmbeddingModel,
    _layer,
    embed,
    flat_layout,
    forward_variant,
    init_model,
    init_theta,
    layers_of,
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
    CANDIDATES_PER_BLOCK,
    DEFAULT_MARGIN,
    FD_EPSILON,
    PAIRS_PER_CHUNK,
    PosePair,
    TrainConfig,
    _backward,
    _BatchGradient,
    _central_differences,
    _cosine_distance_grads,
    _fd_friendly,
    _pair_cosines,
    _pair_losses,
    _twin_grads,
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
    loss, _ = core.compute(model, TOPO, normalize_stack(kp), np.arange(len(kp)),
                           labels, margin, variant)

    total = [np.zeros_like(g) for g in core.grads]
    for k, pair in enumerate(pairs):
        pair_loss, grads = pair_backward(model, TOPO, pair, cfg, variant)
        assert pair_loss == loss[k]
        for t, g in zip(total, grads):
            t += g
    for got, want in zip(core.grads, total):
        assert got.tobytes() == want.tobytes()


@settings(max_examples=25, deadline=None)
@given(kp=keypoint_stacks(max_poses=2 * (2 * PAIRS_PER_CHUNK + 1)),
       extra=keypoint_stacks(max_poses=8),
       seed=st.integers(0, 2 ** 32 - 1), variant=st.sampled_from(VARIANTS))
def test_inactive_pairs_leave_batch_gradient_unchanged(kp, extra, seed,
                                                       variant):
    # inactive pairs (label 0, d >= margin) have dL/dd == 0: inserting them
    # anywhere must leave the summed gradient byte-identical
    if len(kp) % 2:
        kp = np.concatenate([kp, kp[:1]])
    if len(extra) % 2:
        extra = np.concatenate([extra, extra[:1]])
    rng = np.random.default_rng(seed)
    model = init_model(h=2, seed=seed)
    x, x_extra = normalize_stack(kp), normalize_stack(extra)
    d_extra = cosine_distances(embed(model, x_extra, TOPO, variant)[0])
    margin = float(d_extra.min())
    assume(0.0 < margin <= 2.0)
    labels = rng.integers(0, 2, size=len(kp) // 2)

    core = _BatchGradient(model)
    loss, d = core.compute(model, TOPO, x, np.arange(len(x)), labels, margin,
                           variant)
    want = core.total.tobytes()

    slots = np.sort(rng.integers(0, len(labels) + 1, size=len(d_extra)))
    pairs = np.insert(x.reshape(len(labels), 2, NUM_KEYPOINTS, 2), slots,
                      x_extra.reshape(-1, 2, NUM_KEYPOINTS, 2), axis=0)
    mixed_labels = np.insert(labels, slots, 0)
    mixed_loss, mixed_d = core.compute(model, TOPO,
                                       pairs.reshape(-1, NUM_KEYPOINTS, 2),
                                       np.arange(2 * len(mixed_labels)),
                                       mixed_labels, margin, variant)
    kept = np.ones(len(mixed_labels), dtype=bool)
    kept[slots + np.arange(len(slots))] = False
    assert np.all(mixed_loss[~kept] == 0.0)
    assert mixed_loss[kept].tobytes() == loss.tobytes()
    assert mixed_d[kept].tobytes() == d.tobytes()
    assert core.total.tobytes() == want


@settings(max_examples=25, deadline=None)
@given(kp=keypoint_stacks(max_poses=16), seed=st.integers(0, 2 ** 32 - 1),
       variant=st.sampled_from(VARIANTS))
def test_twin_index_matches_the_gathered_stack(kp, seed, variant):
    # compute embeds each distinct row of the twin index once and gathers
    # the embeddings and cache rows back; the result must be that of the
    # gathered stack itself, twin by twin
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 2 * PAIRS_PER_CHUNK + 2))
    twins = rng.integers(0, len(kp), size=2 * n)
    # as in a corpus, the first twins recur: a few templates, many pairs
    twins[0::2] = rng.integers(0, min(len(kp), 3), size=n)
    labels = rng.integers(0, 2, size=n)
    model = init_model(h=2, seed=seed)
    x = normalize_stack(kp)
    d = cosine_distances(embed(model, x[twins], TOPO, variant)[0])
    # the margin at a negative's distance leaves the negatives at or past
    # it inactive, the others active
    negatives = d[labels == 0]
    margin = float(np.median(negatives)) if negatives.size else DEFAULT_MARGIN
    assume(0.0 < margin <= 2.0)

    core = _BatchGradient(model)
    loss, dist = core.compute(model, TOPO, x, twins, labels, margin, variant)
    total = core.total.tobytes()
    want_loss, want_d = core.compute(model, TOPO, x[twins], np.arange(2 * n),
                                     labels, margin, variant)
    assert loss.tobytes() == want_loss.tobytes()
    assert dist.tobytes() == want_d.tobytes()
    assert total == core.total.tobytes()

    # every pair inactive: no twin is backpropagated, the total stays +0.0
    apart = np.flatnonzero(d > 0.0)
    assume(apart.size)
    margin = min(float(d[apart].min()), 2.0)
    core.compute(model, TOPO, x, twins.reshape(-1, 2)[apart].reshape(-1),
                 np.zeros(apart.size, dtype=int), margin, variant)
    assert core.total.tobytes() == np.zeros(core.total.size).tobytes()


def loop_gradient_check(model, topo, pair, cfg, variant):
    """The per-coordinate loop gradient_check replaced: each coordinate of a
    private copy is moved in place and both twins are embedded from scratch.
    Returns the max error and the flat central differences, every
    coordinate's. Python's max() drops a NaN error here; gradient_check
    returns NaN."""
    work = EmbeddingModel(model.gcn_weights, model.mlp_layers, model.arch)
    _, analytic = pair_backward(work, topo, pair, cfg, variant)
    x = normalize_stack([pair.pose_a.keypoints, pair.pose_b.keypoints])

    def loss_at_current():
        emb, _ = embed(work, x, topo, variant)
        d = float(cosine_distances(emb)[0])
        return float(_pair_losses(d, pair.label_y, cfg.margin_m)[0])

    worst, differences = 0.0, []
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
            differences.append(numeric)
            denom = max(abs(gflat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(gflat[i] - numeric) / denom)
    return float(worst), np.array(differences)


# an init seed whose GCN output on the pair drawn from the same seed is all
# zero at h = 2: every graph coordinate's copies keep the cached bits
DEAD_GCN_SEED = 11


def check_pair(seed, label):
    rng = np.random.default_rng(seed)
    return PosePair(Pose(rng.uniform(-3.0, 3.0, size=(NUM_KEYPOINTS, 2))),
                    Pose(rng.uniform(-3.0, 3.0, size=(NUM_KEYPOINTS, 2))), label)


def test_dead_gcn_seed_has_all_zero_gcn_output():
    pair = check_pair(DEAD_GCN_SEED, 1)
    x = normalize_stack([pair.pose_a.keypoints, pair.pose_b.keypoints])
    _, cache = embed(init_model(h=2, seed=DEAD_GCN_SEED), x, TOPO, "gcn")
    # the graph layers' outputs are the inputs of layers 1 and 2
    assert all(np.all(post == 0.0) for post in cache.inputs[1:3])


@settings(max_examples=12, deadline=None)
@given(h=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1),
       label=st.integers(0, 1), variant=st.sampled_from(VARIANTS),
       margin=st.floats(0.05, 2.0))
@example(h=2, seed=DEAD_GCN_SEED, label=1, variant="gcn", margin=DEFAULT_MARGIN)
def test_gradient_check_matches_per_coordinate_loop(h, seed, label, variant,
                                                    margin):
    model = init_model(h=h, seed=seed)
    pair = check_pair(seed, label)
    cfg = TrainConfig(margin_m=margin)
    got = gradient_check(model, TOPO, pair, cfg, variant)
    want, want_differences = loop_gradient_check(model, TOPO, pair, cfg, variant)
    assert repr(got) == repr(want)
    # every coordinate, bit for bit; the mlp variant compares the suffix
    # after the graph weights, which it never reads
    x = normalize_stack([pair.pose_a.keypoints, pair.pose_b.keypoints])
    differences = _central_differences(model, TOPO, x, label, margin, variant)
    skipped = 4 * h if variant == "mlp" else 0
    assert differences.size == want_differences.size - skipped
    want_differences = want_differences[skipped:]
    nan = np.isnan(want_differences)
    assert np.array_equal(np.isnan(differences), nan)
    assert differences[~nan].tobytes() == want_differences[~nan].tobytes()


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 50), n=st.integers(1, 50),
       seed=st.integers(0, 2 ** 32 - 1),
       target=st.sampled_from(["graph weight", "mlp weight", "mlp bias"]))
# fails under OPENBLAS_CORETYPE=Prescott, as does every odd k >= 5 with n = 1
@example(k=17, n=1, seed=0, target="mlp weight")
def test_moving_a_row_moves_each_column_as_its_coordinate_alone(k, n, seed,
                                                                target):
    # gradient_check's row stacks rest on this: column c of a layer's
    # per-pose product reads only column c of the weight and the bias
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=2)
    w, b = rng.normal(size=(k, n)) * scale[0], rng.normal(size=n) * scale[1]
    p = b if target == "mlp bias" else w
    rows = p.reshape(-1, n)
    r = int(rng.integers(len(rows)))
    step = float(rng.choice([FD_EPSILON, -FD_EPSILON]))
    # copy 0 moves row r, copy 1 + c moves only coordinate (r, c)
    stack = np.repeat(p[None], 1 + n, axis=0)
    moved = stack.reshape(1 + n, len(rows), n)
    moved[0, r] = rows[r] + step
    moved[1 + np.arange(n), r, np.arange(n)] = rows[r] + step
    if target == "graph weight":
        h = rng.normal(size=(2, NUM_KEYPOINTS, k)) * 10.0 ** rng.uniform(-3.0, 3.0)
        layer = stack[:, None]
    else:
        h = rng.normal(size=(2, k)) * 10.0 ** rng.uniform(-3.0, 3.0)
        layer = AffineLayer(*((stack[:, None], b) if target == "mlp weight"
                              else (w, stack[:, None])))
    z = _layer(layer, TOPO, h)[0].reshape(1 + n, -1, n)
    column = np.arange(n)
    assert (z[0].T.tobytes()
            == np.ascontiguousarray(z[1 + column, :, column]).tobytes())


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 60), m=st.integers(1, 60), n=st.integers(1, 8),
       copies=st.integers(0, 4), stacked_input=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_vector_ufuncs_match_the_matmul_views_they_replace(k, m, n, copies,
                                                           stacked_input,
                                                           seed):
    # The forward pass, the backward pass and the cosine each make one
    # per-pose BLAS call through np.vecmat, np.matvec and np.vecdot; the
    # matmuls on expanded views below are the forms they replaced, and the
    # pinned digests hold only while both give the same bits. copies > 0
    # stacks (copies, 1, k, m) weights and (copies, 1, m) biases as
    # gradient_check does, the input stacked as well or shared by the copies.
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=3)
    stack = (copies, 1) if copies else ()
    lead = (copies, n) if copies and stacked_input else (n,)
    # the weights view a flat buffer at an offset, as layers_of views theta
    start = int(rng.integers(0, 64))
    flat = rng.normal(size=start + math.prod(stack) * k * m) * scale[0]
    w = flat[start:].reshape(*stack, k, m)
    b = rng.normal(size=stack + (m,)) * scale[1]
    h = rng.normal(size=lead + (k,)) * scale[2]
    want = (h[..., None, :] @ w)[..., 0, :] + b
    assert (np.vecmat(h, w) + b).tobytes() == want.tobytes()
    g = rng.normal(size=lead + (m,)) * scale[2]
    want = (w @ g[..., None])[..., 0]
    assert np.matvec(w, g).tobytes() == want.tobytes()
    e = rng.normal(size=(2 * n, k)) * scale[2]
    for a, c in ((e, e), (e[0::2], e[1::2]), (e[1::2], e[1::2])):
        want = (a[:, None, :] @ c[:, :, None])[:, 0, 0]
        assert np.vecdot(a, c).tobytes() == want.tobytes()


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


H = 2
SIZE = flat_layout(H).size


def twin_inputs(seed, k):
    """k models' flat parameters and k pairs' keypoints, (k, 2, 15, 2), drawn
    from seed as random_check_instance draws its candidates."""
    rng = np.random.Generator(np.random.PCG64(seed))
    theta = np.empty((k, SIZE))
    kp = np.empty((k, 2, NUM_KEYPOINTS, 2))
    for i in range(k):
        init_theta(H, int(rng.integers(2 ** 32)), out=theta[i])
        kp[i] = rng.uniform(-3.0, 3.0, size=(2, NUM_KEYPOINTS, 2))
    return theta, kp


def solo_model(theta_row):
    """A model holding theta_row as its parameters, NaN and inf included."""
    model = EmbeddingModel(*layers_of(np.zeros(SIZE), H), ArchMeta(H, 0))
    model.theta[...] = theta_row
    return model


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 6),
       label=st.integers(0, 1), variant=st.sampled_from(VARIANTS),
       margin=st.floats(0.05, 2.0))
def test_stacked_backward_gives_each_model_its_pair_backward(seed, k, label,
                                                            variant, margin):
    theta, kp = twin_inputs(seed, k)
    x = normalize_stack(kp.reshape(-1, NUM_KEYPOINTS, 2)).reshape(kp.shape)
    layers = layers_of(theta[:, None], H)
    emb, cache = embed(layers, x, TOPO, variant)
    d, g = _cosine_distance_grads(emb.reshape(-1, emb.shape[-1]))
    loss, dl_dd = _pair_losses(d, label, margin)
    g *= np.repeat(dl_dd, 2)[:, None]
    twins = np.empty((k, 2, SIZE))
    _twin_grads(_backward(layers, TOPO, cache, g.reshape(k, 2, -1)),
                slice(None), parameter_list(layers_of(twins, H)))
    for i in range(k):
        model = solo_model(theta[i])
        solo_emb, solo_cache = embed(model, x[i], TOPO, variant)
        solo_d, solo_g = _cosine_distance_grads(solo_emb)
        solo_g *= _pair_losses(solo_d, label, margin)[1][0]
        solo = np.empty((2, SIZE))
        _twin_grads(_backward(model, TOPO, solo_cache, solo_g), slice(None),
                    parameter_list(layers_of(solo, H)))
        assert twins[i].tobytes() == solo.tobytes()
        pair = PosePair(Pose(kp[i, 0]), Pose(kp[i, 1]), label)
        want_loss, want = pair_backward(model, TOPO, pair,
                                        TrainConfig(margin_m=margin), variant)
        assert loss[i] == want_loss
        # pair_backward adds the twins to a total that starts at +0.0
        got = 0.0 + (twins[i, 0] + twins[i, 1])
        assert got.tobytes() == np.concatenate(
            [w.reshape(-1) for w in want]).tobytes()


def solo_rejections(model, topo, pair, x):
    """The checks of the one-candidate vetting that _fd_friendly replaced,
    each written as it was; returns the (variant, reason) of every check
    that fails, so the old function returned True exactly when this is
    empty. x holds the pair's normalized twins."""
    reasons = []
    for variant in VARIANTS:
        emb, cache = embed(model, x, topo, variant)
        cos, raw, _, _ = _pair_cosines(emb)
        if raw.min() < 1e-3:
            reasons.append((variant, "norm"))
        if 1.0 - cos[0] > DEFAULT_MARGIN - 1e-3:
            reasons.append((variant, "hinge"))
        for z in cache.pre[:-1]:
            if float(np.min(np.abs(z))) < 1e-4:
                reasons.append((variant, "kink"))
                break
        _, grads = pair_backward(model, topo, pair, TrainConfig(), variant)
        for g in grads:
            mags = np.abs(g.reshape(-1))
            nonzero = mags[mags > 0.0]
            if nonzero.size and float(nonzero.min()) < 3e-6:
                reasons.append((variant, "gradient"))
                break
    return reasons


EDITS = ("none", "kill", "oppose", "kink", "twin", "scale", "nan")


def apply_edit(theta_row, kp_pair, kind, variant, u):
    """Edit one candidate in place so that a chosen check tends to fail for
    the variant; u in [0, 1) picks the details.

    kill zeroes twin a's embedding (norm), oppose shifts both embeddings
    toward opposite directions (hinge), kink puts one pre-activation of an
    MLP layer 5e-5 from zero (kink), twin makes both poses equal (gradient),
    scale multiplies every parameter by up to 1e300 (overflow to inf and
    NaN), nan sets one parameter to NaN.
    """
    if kind == "twin":
        kp_pair[1] = kp_pair[0]
    layers = layers_of(theta_row, H)
    emb, cache = embed(layers, normalize_stack(kp_pair), TOPO, variant)
    head = layers.mlp_layers
    if kind == "kill":
        head[2].b[...] -= emb[0]
    elif kind == "oppose":
        head[2].b[...] -= (0.7 + 0.3 * u) * (emb[0] + emb[1]) / 2
    elif kind == "kink":
        layer = int(u * 2)
        z = cache.pre[layer - 3][0]  # the MLP head is the last 3 layers
        j = int(u * 1000) % len(z)
        head[layer].b[j] -= z[j] - 5e-5
    elif kind == "scale":
        theta_row *= 10.0 ** (300 * u)
    elif kind == "nan":
        theta_row[int(u * SIZE)] = np.nan


def vet_both_ways(theta, kp, label):
    """_fd_friendly's mask for the block and solo_rejections per candidate."""
    x = normalize_stack(kp.reshape(-1, NUM_KEYPOINTS, 2)).reshape(kp.shape)
    # overflowing and NaN candidates must decide alike, without warnings
    with np.errstate(all="ignore"):
        mask = _fd_friendly(theta, H, x, label, TOPO)
        reasons = [solo_rejections(solo_model(theta[i]), TOPO,
                                   PosePair(Pose(kp[i, 0]), Pose(kp[i, 1]),
                                            label), x[i])
                   for i in range(len(theta))]
    return mask, reasons


def test_block_vet_matches_solo_when_each_check_alone_fails():
    # blocks of accepted instances, each candidate edited so that one check
    # fails, plus plain draws: for both labels every check of both variants
    # is the only failing one for some candidate
    for label in (0, 1):
        winners = [random_check_instance(s)
                   for s in range(label, 2 * CANDIDATES_PER_BLOCK, 2)]
        sole = set()
        blocks = [twin_inputs(label, 64)]
        for kind in ("kill", "oppose", "kink"):
            for variant in VARIANTS:
                for u in (0.2, 0.7):
                    theta = np.stack([m.theta for m, _ in winners])
                    kp = np.stack([[p.pose_a.keypoints, p.pose_b.keypoints]
                                   for _, p in winners])
                    for i in range(len(theta)):
                        apply_edit(theta[i], kp[i], kind, variant, u)
                    blocks.append((theta, kp))
        for theta, kp in blocks:
            mask, reasons = vet_both_ways(theta, kp, label)
            assert mask.tolist() == [not r for r in reasons]
            sole.update(r[0] for r in reasons if len(r) == 1)
        assert sole == {(v, reason) for v in VARIANTS
                        for reason in ("norm", "hinge", "kink", "gradient")}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), label=st.integers(0, 1),
       edits=st.lists(st.tuples(st.sampled_from(EDITS),
                                st.sampled_from(VARIANTS),
                                st.floats(0.0, 1.0, exclude_max=True)),
                      min_size=1, max_size=CANDIDATES_PER_BLOCK))
def test_block_vet_matches_solo_vetting(seed, label, edits):
    theta, kp = twin_inputs(seed, len(edits))
    for i, edit in enumerate(edits):
        apply_edit(theta[i], kp[i], *edit)
    mask, reasons = vet_both_ways(theta, kp, label)
    assert mask.tolist() == [not r for r in reasons]
