"""Siamese contrastive training with handwritten gradients.

One training example is a pair of poses and a binary label y (1 similar,
0 dissimilar). Both poses run through the same embedding model (shared
weights), the cosine distance d between the embeddings feeds the
margin-based contrastive loss

    L = 1/2 * y * d^2 + 1/2 * (1 - y) * max(0, m - d)^2

and gradients are backpropagated by hand through the distance, the MLP head
and the graph layers. Parameters are updated with bias-corrected Adam. The
loop is bit-deterministic: shuffling comes from a single seeded PCG64
generator, gradients accumulate in shuffled index order, and the final short
batch is trained rather than dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from posesim.network import (
    GCN_VARIANT,
    VARIANTS,
    ArchMeta,
    EmbeddingModel,
    ForwardCache,
    Layers,
    _layer,
    _run_layers,
    check_count,
    check_seed,
    check_variant,
    embed,
    flat_layout,
    init_theta,
    json_number,
    layers_of,
    parameter_list,
)
from posesim.skeleton import (
    NUM_KEYPOINTS,
    Pose,
    SkeletonTopology,
    build_skeleton_topology,
    distinct_poses,
    normalize_stack,
)

NORM_FLOOR = 1e-12

DEFAULT_MARGIN = 1.35

# Adam's moment decay rates and denominator floor
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

# Pairs whose per-twin gradients exist at once in _BatchGradient; at 16 its
# buffer, 33 rows of every parameter, is 1.5 MB and stays in a 2 MB L2
PAIRS_PER_CHUNK = 16

# Weight rows gradient_check moves at once, up and down; at 4 a block's
# at most 2 * 4 * 50 copies of the pair hold 320 KB per layer output
ROWS_PER_BLOCK = 4

# gradient_check's central-difference step; _fd_friendly vets instances for it
FD_EPSILON = 1e-6

# Candidate instances random_check_instance vets at once, as one stack of
# models; at 8 their parameters and twin gradients take 1.1 MB
CANDIDATES_PER_BLOCK = 8


def checked_label(y, magnitude):
    """The rule for a pair's label and magnitude, wherever a pair enters.

    y must be the int 0 or 1 (a bool is not a label); magnitude, if given,
    a finite JSON number >= 0 (an int or a float, not a bool or a string).
    Returns magnitude as a float, or None.
    """
    if type(y) is not int or y not in (0, 1):
        raise ValueError(f"y must be 0 or 1 (an int), got {y!r}")
    if magnitude is None:
        return None
    mag = json_number(magnitude)
    if mag is None or not (math.isfinite(mag) and mag >= 0.0):
        raise ValueError(f"magnitude must be a finite number >= 0, got {magnitude!r}")
    return mag


@dataclass(frozen=True)
class PosePair:
    """A labelled pose pair, the unit of training and evaluation.

    magnitude optionally records the ground-truth perturbation size that
    produced a positive pair; graded ranking evaluation uses it.
    """

    pose_a: Pose
    pose_b: Pose
    label_y: int
    magnitude: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "magnitude",
                           checked_label(self.label_y, self.magnitude))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 64
    epochs: int = 50
    margin_m: float = DEFAULT_MARGIN
    seed: int = 0

    def __post_init__(self):
        # the float fields take json_number's float rule, an int or a float
        # but not a bool or a string, and are stored as floats
        rate, margin = map(json_number, (self.learning_rate, self.margin_m))
        if rate is None or not (math.isfinite(rate) and rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0 (an int "
                             f"or a float), got {self.learning_rate!r}")
        check_count(self.batch_size, "batch_size")
        check_count(self.epochs, "epochs")
        if margin is None or not 0 < margin <= 2:
            raise ValueError(f"margin_m must be in (0, 2] (an int or a "
                             f"float), got {self.margin_m!r}")
        check_seed(self.seed)
        object.__setattr__(self, "learning_rate", rate)
        object.__setattr__(self, "margin_m", margin)


@dataclass
class AdamState:
    """Adam's moments, flat in the layout of theta, and its step count."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


@dataclass
class TrainHistory:
    """Per-epoch training statistics; all three lists share the epoch count.

    Distances are means over the pairs of each label within the epoch,
    measured with the weights current when the pair was visited. An epoch
    with no pairs of a label records nan for that mean.
    """

    mean_loss: list = field(default_factory=list)
    mean_pos_dist: list = field(default_factory=list)
    mean_neg_dist: list = field(default_factory=list)

    def __post_init__(self):
        if not (len(self.mean_loss) == len(self.mean_pos_dist)
                == len(self.mean_neg_dist)):
            raise ValueError("history columns must have equal length")


def history_csv(history: TrainHistory) -> str:
    lines = ["epoch,mean_loss,mean_pos_dist,mean_neg_dist"]
    rows = zip(history.mean_loss, history.mean_pos_dist, history.mean_neg_dist)
    for epoch, (loss, pos, neg) in enumerate(rows, start=1):
        lines.append(f"{epoch},{float(loss)!r},{float(pos)!r},{float(neg)!r}")
    return "\n".join(lines) + "\n"


def _embedding_pair(e1, e2) -> np.ndarray:
    """The (2, dim) stack of two finite embedding vectors of equal shape."""
    pair = []
    for e, what in ((e1, "e1"), (e2, "e2")):
        arr = np.asarray(e, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"{what} must be a vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{what} contains non-finite values")
        pair.append(arr)
    if pair[0].shape != pair[1].shape:
        raise ValueError(f"shape mismatch: {pair[0].shape} vs {pair[1].shape}")
    return np.stack(pair)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (n, k) stacks.

    Each row is one BLAS dot, the call a 1-D `a[i] @ b[i]` or
    np.linalg.norm makes, so a row's value does not depend on n.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _pair_cosines(e: np.ndarray):
    """Cosines of the row pairs (2k, 2k + 1) of a (2n, dim) stack.

    Returns (cos, raw, norms, denom): one cosine per pair, every row's raw
    norm and its norm clamped below at NORM_FLOOR, and each pair's product
    of clamped norms.
    """
    raw = np.sqrt(_row_dots(e, e))
    norms = np.maximum(raw, NORM_FLOOR)
    denom = norms[0::2] * norms[1::2]
    return _row_dots(e[0::2], e[1::2]) / denom, raw, norms, denom


def cosine_distances(e: np.ndarray) -> np.ndarray:
    """cosine_distance of each row pair (2k, 2k + 1) of a (2n, dim) stack."""
    return 1.0 - _pair_cosines(e)[0]


def _cosine_distance_grads(e: np.ndarray):
    """cosine_distance_grads of each row pair (2k, 2k + 1) of a stack.

    Returns the n distances and a (2n, dim) stack whose row i is the
    gradient of its pair's distance w.r.t. row i.
    """
    cos, raw, norms, denom = _pair_cosines(e)
    cos, denom = np.repeat(cos, 2)[:, None], np.repeat(denom, 2)[:, None]
    partner = e.reshape(-1, 2, e.shape[1])[:, ::-1].reshape(e.shape)
    g = -partner / denom
    # where a norm is clamped it is locally constant: its term drops out
    g = np.where((raw >= NORM_FLOOR)[:, None],
                 g + (cos / (norms * norms)[:, None]) * e, g)
    return 1.0 - cos[0::2, 0], g


def cosine_distance(e1, e2) -> float:
    """1 - cos(e1, e2), with each norm clamped below at 1e-12.

    The clamp keeps the value (and its gradient) finite when an embedding
    collapses to zero; at every realistic operating point it is inactive.
    Result lies in [0, 2] up to rounding.
    """
    return float(cosine_distances(_embedding_pair(e1, e2))[0])


def cosine_distance_grads(e1, e2):
    """Distance plus its analytic gradients w.r.t. both embeddings.

    Where a norm is clamped it is locally constant, so its term drops out of
    that side's gradient. Validates its inputs as cosine_distance does.
    """
    d, g = _cosine_distance_grads(_embedding_pair(e1, e2))
    return float(d[0]), g[0], g[1]


def _pair_losses(d, y, m: float):
    """Contrastive losses and dL/dd, elementwise over d and labels y.

    y is 0 or 1, so y * d + (1 - y) * hinge picks d or the hinge exactly.
    The hinge subgradient at d == m is 0.
    """
    hinge = np.maximum(m - d, 0.0)
    t = y * d + (1 - y) * hinge
    return 0.5 * t * t, y * d - (1 - y) * hinge


def contrastive_loss(d_c: float, y: int, m: float = DEFAULT_MARGIN) -> float:
    checked_label(y, None)
    if not m > 0:
        raise ValueError("margin must be > 0")
    loss, _ = _pair_losses(float(d_c), y, m)
    return float(loss)


def _backward(model: EmbeddingModel | Layers, topo: SkeletonTopology,
              cache: ForwardCache, g: np.ndarray, out: list) -> None:
    """Backpropagate g = dL/d(embedding), shape (n, 50), through n twins.

    out holds one (n, *shape) stack per parameter, in canonical order; row t
    receives twin t's own gradient. model may also be the Layers of K
    models stacked (K, 1, *shape), with cache, g and out carrying the same
    leading axis K: model k's twins then get model k's gradients. Every
    product is the one a single-twin pass of a single model would make, so
    no sum runs across twins or models here. Every layer but the identity
    MLP output is ReLU-gated.
    """
    layers = model.mlp_layers
    for i in reversed(range(len(layers))):
        if i < len(layers) - 1:
            g = g * (cache.mlp_pre[i] > 0.0)
        a_prev = cache.flat if i == 0 else cache.mlp_post[i - 1]
        np.einsum("...i,...j->...ij", a_prev, g, out=out[2 + 2 * i])
        out[3 + 2 * i][...] = g
        if i > 0 or cache.gcn_pre:
            g = (layers[i].w @ g[..., None])[..., 0]
    if not cache.gcn_pre:
        for grad in out[:len(model.gcn_weights)]:
            grad[...] = 0.0
        return
    a_norm = topo.adjacency_norm
    gh = g.reshape(cache.gcn_post[-1].shape)
    for i in reversed(range(len(model.gcn_weights))):
        gh = gh * (cache.gcn_pre[i] > 0.0)
        h_in = cache.x if i == 0 else cache.gcn_post[i - 1]
        np.matmul((a_norm @ h_in).swapaxes(-1, -2), gh, out=out[i])
        if i > 0:
            gh = a_norm.T @ (gh @ model.gcn_weights[i].swapaxes(-1, -2))


class _BatchGradient:
    """The summed parameter gradient of a batch of pairs.

    A pair's gradient is the sum of its two twins' backward passes, and the
    pairs add to the running total one at a time in batch order, so the
    total is bit-identical to summing pair_backward results in a loop. Every
    pair is backpropagated: a pair with dL/dd == 0 scales its twins'
    gradients to exact +-0.0, and adding +-0.0 changes no bit of a total
    that starts at +0.0 while every product is finite. Twin gradients are
    built PAIRS_PER_CHUNK pairs at a time in one buffer, sized to the pairs
    a call takes and reused by later calls: materializing a whole batch
    makes the reduction page-fault bound. The total has the layout of the
    model's flat theta; grads views it per parameter.
    """

    def __init__(self, model: EmbeddingModel):
        self.h = model.arch.gcn_hidden
        self.rows = np.empty((0, model.theta.size))
        self.total = np.zeros(model.theta.size)
        self.grads = parameter_list(layers_of(self.total, self.h))

    def compute(self, model, topo, x, labels, margin, variant):
        """Sum the gradients of the pairs whose twins are x[2k], x[2k + 1].

        Leaves the sum in self.total; returns each pair's loss and distance.
        """
        needed = 2 * min(PAIRS_PER_CHUNK, len(labels)) + 1
        if len(self.rows) < needed:
            # row 0: the running total; rows 2j + 1, 2j + 2: pair j's twins
            self.rows = np.empty((needed, self.total.size))
            self.twin_grads = parameter_list(layers_of(self.rows[1:], self.h))
        emb, cache = embed(model, x, topo, variant)
        d, g = _cosine_distance_grads(emb)
        loss, dl_dd = _pair_losses(d, labels, margin)
        g *= np.repeat(dl_dd, 2)[:, None]
        self.total[...] = 0.0
        step = len(self.rows) - 1
        for start in range(0, len(g), step):
            part = slice(start, start + step)
            n = len(g[part])
            _backward(model, topo, cache.take(part), g[part],
                      [t[:n] for t in self.twin_grads])
            self.rows[0] = self.total
            pair_sums = self.rows[2:n + 2:2]
            np.add(self.rows[1:n + 1:2], pair_sums, out=pair_sums)
            np.add.reduce(self.rows[0:n + 1:2], axis=0, out=self.total)
        return loss, d


def pair_backward(model: EmbeddingModel, topo: SkeletonTopology,
                  pair: PosePair, cfg: TrainConfig, variant: str = "gcn"):
    """Loss and exact analytic parameter gradients for one pair.

    A batch of one through the trainer's own gradient code.
    """
    grads = _BatchGradient(model)
    x = normalize_stack([pair.pose_a.keypoints, pair.pose_b.keypoints])
    loss, _ = grads.compute(model, topo, x, np.array([pair.label_y]),
                            cfg.margin_m, variant)
    return float(loss[0]), grads.grads


def init_adam_state(model: EmbeddingModel) -> AdamState:
    return AdamState(np.zeros_like(model.theta), np.zeros_like(model.theta))


def _adam_update(theta, g, state: AdamState, lr: float) -> None:
    """The Adam rule: the next step of bias-corrected Adam at learning rate
    lr, applied in place to flat parameters theta and the state from flat
    gradient g. It is elementwise: one pass over theta gives each
    coordinate the bits a pass over its own parameter would."""
    state.t += 1
    b1, b2, t, m, v = ADAM_BETA1, ADAM_BETA2, state.t, state.m, state.v
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    theta -= lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + ADAM_EPSILON)


def adam_step(model: EmbeddingModel, grads, state: AdamState,
              cfg: TrainConfig):
    """One bias-corrected Adam update of per-parameter gradients, applied in
    place to the model's parameters and the state; both are also returned.
    The gradients, laid out flat, take train's own update."""
    params = parameter_list(model)
    if len(grads) != len(params):
        raise ValueError(f"expected {len(params)} gradients, got {len(grads)}")
    for p, g in zip(params, grads):
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter {p.shape}")
    _adam_update(model.theta, np.concatenate([g.reshape(-1) for g in grads]),
                 state, cfg.learning_rate)
    return model, state


def train(model: EmbeddingModel, topo: SkeletonTopology, pairs,
          cfg: TrainConfig = TrainConfig(), variant: str = "gcn"):
    """Fit the model in place on labelled pairs; returns (model, TrainHistory).

    Per epoch: shuffle with the run-level seeded generator, split into
    batches of cfg.batch_size keeping the final short batch, accumulate
    per-pair gradients in shuffled index order, take their mean, then take
    one Adam step per batch. Fully determined by (model, pairs order, cfg).

    Each distinct pose is normalized once per call, a batch's twins are
    embedded in one stacked call and backpropagated PAIRS_PER_CHUNK pairs at
    a time, and each Adam step is one elementwise pass over the model's flat
    theta and the AdamState's flat moments. The result is bit-identical to
    looping pair_backward over each batch in shuffled order and calling
    adam_step.
    """
    check_variant(variant)
    pairs = list(pairs)
    if not pairs:
        raise ValueError("pairs must be nonempty")
    keypoints, index = distinct_poses(
        [pose for pair in pairs for pose in (pair.pose_a, pair.pose_b)])
    features = normalize_stack(keypoints)
    twins = index.reshape(-1, 2)
    labels = np.array([pair.label_y for pair in pairs])
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    theta, state = model.theta, init_adam_state(model)
    batch_grad = _BatchGradient(model)
    history = TrainHistory()
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(pairs))
        losses, dists = [], []
        # a diverging run overflows silently here and is stopped below
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(order), cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                loss, d = batch_grad.compute(
                    model, topo, features[twins[batch].reshape(-1)],
                    labels[batch], cfg.margin_m, variant)
                losses.append(loss)
                dists.append(d)
                # multiply by the reciprocal: a division would round
                # differently
                batch_grad.total *= 1.0 / len(batch)
                _adam_update(theta, batch_grad.total, state, cfg.learning_rate)
        if not np.all(np.isfinite(theta)):
            raise ValueError(f"training diverged in epoch {epoch}: the "
                             f"parameters are no longer finite")
        dists = np.concatenate(dists)
        visited = labels[order]
        pos_d, neg_d = dists[visited == 1], dists[visited == 0]
        history.mean_loss.append(float(np.mean(np.concatenate(losses))))
        history.mean_pos_dist.append(float(np.mean(pos_d)) if pos_d.size else float("nan"))
        history.mean_neg_dist.append(float(np.mean(neg_d)) if neg_d.size else float("nan"))
    return model, history


def _central_differences(model: EmbeddingModel, topo: SkeletonTopology, x,
                         label: int, margin: float, variant: str) -> np.ndarray:
    """gradient_check's numeric side on the pair of normalized twins x, flat
    in theta's layout (the mlp variant's: theta's suffix after the graph)."""
    emb, cache = embed(model, x, topo, variant)
    loss0 = _pair_losses(cosine_distances(emb), label, margin)[0]

    def differences(p, layer_out, out0, rest):
        """The differences at each coordinate of p, a weight (k, n) or bias
        (n,); layer_out(stack) is p's layer's output with p replaced by a
        (P, 1, *p.shape) stack, out0 its cached output, rest(a) embeds."""
        rows = p.reshape(-1, p.shape[-1])
        k, n = rows.shape
        block = min(ROWS_PER_BLOCK, k)
        stack = np.repeat(p[None, None], 2 * block, axis=0)
        moved = stack.reshape(block, 2, k, n)  # [j, 0 / 1]: row j up / down
        bits0 = out0.reshape(-1, n).view(np.uint64)
        loss = np.full((k, 2, n), loss0[0])
        for start in range(0, k, block):
            r = np.arange(start, min(start + block, k))
            moved[r - start, 0, r] = rows[r] + FD_EPSILON
            moved[r - start, 1, r] = rows[r] - FD_EPSILON
            out = layer_out(stack[:2 * len(r)]).reshape(len(r), 2, -1, n)
            moved[r - start, :, r] = rows[r, None]
            # copy (j, d, c): out0 with column c from out[j, d]; one that
            # keeps out0's bits keeps loss0, so only the others run on
            j, d, c = np.nonzero(np.any(out.view(np.uint64) != bits0, axis=2))
            copies = np.repeat(out0.reshape(1, -1, n), len(j), axis=0)
            copies[np.arange(len(j)), :, c] = out[j, d, :, c]
            e = rest(copies.reshape(-1, *out0.shape)).reshape(-1, emb.shape[-1])
            loss[r[j], d, c] = _pair_losses(cosine_distances(e), label, margin)[0]
        return ((loss[:, 0] - loss[:, 1]) / (2.0 * FD_EPSILON)).reshape(-1)

    gcn = model.gcn_weights if variant == GCN_VARIANT else ()
    mlp = model.mlp_layers
    numeric = []
    for i, w in enumerate(gcn):
        h = cache.x if i == 0 else cache.gcn_post[i - 1]
        # the head reads the last one's output as cache.flat: node rows of n
        out0 = cache.gcn_post[i] if i < len(gcn) - 1 else cache.flat
        numeric.append(differences(w, lambda s: _layer(s, topo, h)[1], out0,
                                   lambda a: _run_layers(gcn[i + 1:], mlp, topo, a)))
    for j, layer in enumerate(mlp):
        h = cache.flat if j == 0 else cache.mlp_post[j - 1]
        for name in ("w", "b"):
            numeric.append(differences(getattr(layer, name), lambda s: _layer(
                replace(layer, **{name: s}), topo, h, j < len(mlp) - 1)[1],
                cache.mlp_post[j], lambda a: _run_layers((), mlp[j + 1:], topo, a)))
    return np.concatenate(numeric)


def gradient_check(model: EmbeddingModel, topo: SkeletonTopology,
                   pair: PosePair, cfg: TrainConfig = TrainConfig(),
                   variant: str = "gcn") -> float:
    """Max relative error between analytic and central-difference gradients.

    The analytic side is pair_backward's flat gradient (the trainer's own
    backward pass), the numeric side the pair's loss differenced at every
    parameter coordinate +-FD_EPSILON; the denominator is max(|analytic|,
    |numeric|, 1e-8) per coordinate, and a NaN error makes the result NaN.

    The model is never modified. The pair is embedded once, and each
    parameter's layer runs on its cached input in row stacks: copies with
    ROWS_PER_BLOCK rows of a weight, or the whole bias, moved +-. Column c
    of a layer's output reads only column c of its weight and bias, so row
    r's copy holds in column c exactly what moving (r, c) alone would give.
    Coordinate (r, c)'s copy is the cached output with column c replaced;
    the layers after it run per copy, except where the column keeps the
    cached bits, as a ReLU holding a unit at zero does: the loss is then
    the unperturbed one. Every loss is thus bit for bit a full forward
    pass's with the coordinate moved in place. The mlp variant never reads
    the graph weights, so it compares theta's suffix after them.
    """
    check_variant(variant)
    x = normalize_stack([pair.pose_a.keypoints, pair.pose_b.keypoints])
    analytic = _BatchGradient(model)
    analytic.compute(model, topo, x, np.array([pair.label_y]), cfg.margin_m,
                     variant)
    gn = _central_differences(model, topo, x, pair.label_y, cfg.margin_m,
                              variant)
    ga = analytic.total[-gn.size:]
    denom = np.maximum(np.maximum(np.abs(ga), np.abs(gn)), 1e-8)
    return float(np.max(np.abs(ga - gn) / denom))


def _fd_friendly(theta: np.ndarray, h: int, x: np.ndarray, label: int,
                 topo: SkeletonTopology, out: np.ndarray) -> np.ndarray:
    """Which of K candidate instances central differencing at step
    FD_EPSILON is trustworthy on, as a boolean mask of shape (K,).

    Candidate k is the model of gcn_hidden h whose flat parameters are
    theta[k], on the pair whose normalized twins are x[k], shape (2, 15, 2),
    with label `label`. Differencing needs the loss smooth within the step
    and the comparison clear of the float64 noise floor (about machine
    epsilon times the loss over the step, ~1e-10 here). Checked per variant:
    embeddings off the norm clamp, distance on the active side of and away
    from the hinge kink, every relu pre-activation away from zero, and every
    nonzero analytic gradient coordinate above the noise floor by a wide
    margin. The gradient condition reads only analytic magnitudes, so it
    cannot hide a wrong gradient from the comparison.

    The K models run as one stack (see embed and _backward), every value bit
    for bit the one a single candidate would give. Both variants' forward
    checks run on the whole block first; only the candidates that pass them
    are backpropagated, their twin gradients going to out, a (K, 2, size)
    buffer. Every check is the negation of its rejection, ~(x < t), so a
    NaN never rejects a candidate. The mask is a conjunction, so the order
    of the checks does not change it.
    """
    layers = layers_of(theta[:, None], h)
    ok = np.ones(len(theta), dtype=bool)
    caches = []
    for variant in VARIANTS:
        emb, cache = embed(layers, x, topo, variant)
        cos, raw, _, _ = _pair_cosines(emb.reshape(-1, emb.shape[-1]))
        ok &= ~(raw.reshape(-1, 2).min(axis=1) < 1e-3)
        ok &= ~(1.0 - cos > DEFAULT_MARGIN - 1e-3)
        for z in (*cache.gcn_pre, *cache.mlp_pre[:-1]):  # identity head has no kink
            ok &= ~(np.abs(z).reshape(len(z), -1).min(axis=1) < 1e-4)
        caches.append((emb, cache))
    for emb, cache in caches:
        alive = np.flatnonzero(ok)
        if not alive.size:
            break
        # pair_backward's gradient of each survivor, at the default margin
        d, g = _cosine_distance_grads(emb[alive].reshape(-1, emb.shape[-1]))
        g *= np.repeat(_pair_losses(d, label, DEFAULT_MARGIN)[1], 2)[:, None]
        twins = out[:len(alive)]
        _backward(layers_of(theta[alive, None], h), topo, cache.take(alive),
                  g.reshape(len(alive), 2, -1), parameter_list(layers_of(twins, h)))
        # its pair gradient, 0.0 + (a + b), has the magnitude |a + b|
        mags = np.add(twins[:, 0], twins[:, 1], out=twins[:, 0])
        np.abs(mags, out=mags)
        ok[alive] = ~np.any((mags > 0.0) & (mags < 3e-6), axis=1)
    return ok


def random_check_instance(seed: int):
    """A random (model, pair) gradient-check instance, deterministic in seed.

    Alternates labels with the seed's parity so a sweep of consecutive seeds
    exercises both loss branches (the dissimilar side with its hinge active).
    Candidates come from the seed's PCG64 generator, each a model seed and
    then its two poses' keypoints, uniform in [-3, 3]; the first candidate
    in draw order at which finite differencing is meaningful for both
    variants is returned (see _fd_friendly).

    Candidates are vetted CANDIDATES_PER_BLOCK at a time as one stack of
    models, each model's flat parameters drawn by init_theta as init_model
    draws them; only the winner becomes an EmbeddingModel and a PosePair.
    The generator is local, so drawing past the winner changes nothing.
    """
    check_seed(seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    topo = build_skeleton_topology()
    h, label = 2, seed % 2
    theta = np.empty((CANDIDATES_PER_BLOCK, flat_layout(h).size))
    keypoints = np.empty((CANDIDATES_PER_BLOCK, 2, NUM_KEYPOINTS, 2))
    twin_grads = np.empty((CANDIDATES_PER_BLOCK, 2, theta.shape[1]))
    seeds = [0] * CANDIDATES_PER_BLOCK
    while True:
        for k in range(CANDIDATES_PER_BLOCK):
            seeds[k] = int(rng.integers(2 ** 32))
            init_theta(h, seeds[k], out=theta[k])
            # one draw of both poses takes the same values as two in a row
            keypoints[k] = rng.uniform(-3.0, 3.0, size=(2, NUM_KEYPOINTS, 2))
        # finite draws in [-3, 3] meet normalize_stack's precondition
        x = normalize_stack(keypoints.reshape(-1, NUM_KEYPOINTS, 2))
        mask = _fd_friendly(theta, h, x.reshape(keypoints.shape), label, topo,
                            twin_grads)
        if mask.any():
            k = int(np.argmax(mask))
            model = EmbeddingModel(*layers_of(theta[k], h),
                                   ArchMeta(gcn_hidden=h, seed=seeds[k]))
            return model, PosePair(Pose(keypoints[k, 0]), Pose(keypoints[k, 1]),
                                   label_y=label)
