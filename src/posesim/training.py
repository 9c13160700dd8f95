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
from dataclasses import dataclass, field

import numpy as np

from posesim.network import (
    VARIANTS,
    AffineLayer,
    ArchMeta,
    EmbeddingModel,
    ForwardCache,
    Layers,
    _layer,
    _run_layers,
    _variant_layers,
    any_finite,
    check_count,
    check_seed,
    check_variant,
    checked_float,
    embed,
    flat_layout,
    init_theta,
    layers_of,
    nonnegative,
    parameter_list,
    positive,
)
from posesim.skeleton import (
    NUM_KEYPOINTS,
    ONE,
    Pose,
    admitted,
    build_skeleton_topology,
    normalize_stack,
    number_vector,
    scalar_operand,
)

NORM_FLOOR = scalar_operand(1e-12)

DEFAULT_MARGIN = 1.35

# Adam's moment decay rates and denominator floor
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

# Pairs whose per-twin gradients exist at once in _BatchGradient; at 16 its
# buffer, 33 rows of every parameter, is 1.5 MB and stays in a 2 MB L2. That
# is the upper bound: a batch writes only its active weight rows' columns
PAIRS_PER_CHUNK = 16

# Weight rows gradient_check moves at once, up and down; at 4 a block's
# at most 2 * 4 * 50 copies of the pair hold 320 KB per layer output
ROWS_PER_BLOCK = 4

# gradient_check's central-difference step; _fd_friendly vets instances for it
FD_EPSILON = 1e-6

# Candidate instances random_check_instance vets at once, as one stack of
# models; at 8 their parameters take 0.37 MB and twin gradients <= 0.75 MB
CANDIDATES_PER_BLOCK = 8


def checked_label(y, magnitude):
    """The rule for a pair's label and magnitude, wherever a pair enters.

    y must be the int 0 or 1 (a bool is not a label); magnitude, if given,
    a float >= 0 (checked_float). Returns magnitude as a float, or None.
    """
    if type(y) is not int or y not in (0, 1):
        raise ValueError(f"y must be 0 or 1 (an int), got {y!r}")
    if magnitude is None:
        return None
    return checked_float(magnitude, nonnegative, "magnitude must be a finite number >= 0")


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


@dataclass(frozen=True, eq=False)
class PairTable:
    """Labelled pose pairs as columns, the form train and evaluate read:
    pair k joins rows twins[k] of the (n, 15, 2) float64 keypoint stack
    under labels[k] and magnitudes[k], by PosePair's rule.

    Every row holds a Pose's keypoints, twins is an (m, 2) intp array of
    rows of the stack, labels an intp array of m 0s and 1s, and magnitudes
    a tuple of m values, each None or a finite float >= 0; the arrays are
    read-only. Only load_corpus and pair_table build a table, both through
    _admitted_table, and nothing checks its values again.
    """

    keypoints: np.ndarray
    twins: np.ndarray  # (m, 2) intp
    labels: np.ndarray
    magnitudes: tuple

    def __init__(self, *args, **kwargs):
        raise TypeError("a PairTable is built by load_corpus or pair_table")

    def __len__(self) -> int:
        return len(self.twins)


def _admitted_table(keypoints, twins, labels, magnitudes) -> PairTable:
    """The PairTable of columns that hold its invariants, made read-only."""
    for arr in (keypoints, twins, labels):
        arr.setflags(write=False)
    return admitted(PairTable, {"keypoints": keypoints, "twins": twins,
                                "labels": labels, "magnitudes": magnitudes})


def pair_table(pairs) -> PairTable:
    """pairs, a PairTable or PosePairs, as a nonempty table; PosePairs take
    their distinct poses, by Pose equality, as rows in first-seen order."""
    if not isinstance(pairs, PairTable):
        pairs = list(pairs)
        rows: dict[Pose, int] = {}
        twins = [rows.setdefault(pose, len(rows))
                 for pair in pairs for pose in (pair.pose_a, pair.pose_b)]
        pairs = _admitted_table(
            np.reshape([pose.keypoints for pose in rows], (-1, NUM_KEYPOINTS, 2)),
            np.array(twins, dtype=np.intp).reshape(-1, 2),
            np.array([pair.label_y for pair in pairs], dtype=np.intp),
            tuple(pair.magnitude for pair in pairs))
    if not len(pairs):
        raise ValueError("pairs must be nonempty")
    return pairs


_margin_range = lambda m: 0 < m <= 2  # checked_float's range of margin_m


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 64
    epochs: int = 50
    margin_m: float = DEFAULT_MARGIN
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "learning_rate", checked_float(
            self.learning_rate, positive,
            "learning_rate must be finite and > 0 (an int or a float)"))
        check_count(self.batch_size, "batch_size")
        check_count(self.epochs, "epochs")
        object.__setattr__(self, "margin_m", checked_float(
            self.margin_m, _margin_range,
            "margin_m must be in (0, 2] (an int or a float)"))
        check_seed(self.seed)


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
    """The (2, dim) stack of two finite number vectors of equal shape."""
    pair = []
    for e, what in ((e1, "e1"), (e2, "e2")):
        arr = number_vector(e, what)
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{what} contains non-finite values")
        pair.append(arr)
    if pair[0].shape != pair[1].shape:
        raise ValueError(f"shape mismatch: {pair[0].shape} vs {pair[1].shape}")
    return np.stack(pair)


def _pair_cosines(e: np.ndarray):
    """Cosines of the row pairs (2k, 2k + 1) of a (2n, dim) stack.

    Returns (cos, raw, norms, denom): one cosine per pair, every row's raw
    norm and its norm clamped below at NORM_FLOOR, and each pair's product
    of clamped norms. Every dot product is np.vecdot's one BLAS dot per row,
    the call a 1-D `a @ b` makes, so a row's value does not depend on n.
    """
    raw = np.sqrt(np.vecdot(e, e))
    norms = np.maximum(raw, NORM_FLOOR)
    denom = norms[0::2] * norms[1::2]
    return np.vecdot(e[0::2], e[1::2]) / denom, raw, norms, denom


def cosine_distances(e: np.ndarray) -> np.ndarray:
    """cosine_distance of each row pair (2k, 2k + 1) of a (2n, dim) stack."""
    return np.subtract(ONE, _pair_cosines(e)[0])


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
    d_c = checked_float(d_c, any_finite, "d_c must be finite")
    m = checked_float(m, positive, "margin must be finite and > 0")
    loss, _ = _pair_losses(d_c, y, m)
    return float(loss)


def _backward(model: EmbeddingModel | Layers, topo: np.ndarray,
              cache: ForwardCache, g: np.ndarray) -> list:
    """Backpropagate g = dL/d(embedding), shape (n, 50), through n twins.

    Returns (affine, op, dz) per layer the cache's embed ran, last first:
    dz is dL/d(pre-activation), op what its weight gradient reads: h_in for
    an AffineLayer, (A_norm @ h_in)^T for a graph layer. model may also be
    K models' Layers stacked (K, 1, *shape), cache and g then carrying that
    leading axis too. Every product is the one a single twin of a single
    model makes, so no sum runs across twins or models.
    """
    layers = (*model.gcn_weights, *model.mlp_layers)[-len(cache.pre):]
    terms = []
    for i in reversed(range(len(layers))):
        layer, h_in = layers[i], cache.inputs[i]
        if i < len(layers) - 1:
            # g is dL/d(layer i's output), which inputs[i + 1] may flatten
            g = g.reshape(cache.pre[i].shape) * (cache.pre[i] > 0.0)
        if isinstance(layer, AffineLayer):
            terms.append((True, h_in, g))
            if i > 0:
                g = np.matvec(layer.w, g)
        else:
            terms.append((False, (topo @ h_in).swapaxes(-1, -2), g))
            if i > 0:
                g = topo.T @ (g @ layer.swapaxes(-1, -2))
    return terms


def _twin_grads(terms, part, out: list) -> None:
    """Write the gradients of the twins that part selects from _backward's
    terms to out, one (n, *shape) stack per parameter in canonical order;
    graph weights the mlp variant skipped get zeros."""
    slots = list(out)
    for affine, op, dz in terms:
        if affine:
            np.einsum("...i,...j->...ij", op[part], dz[part], out=slots.pop(-2))
            slots.pop()[...] = dz[part]
        else:
            np.matmul(op[part], dz[part], out=slots.pop())
    for grad in slots:
        grad[...] = 0.0


class _BatchGradient:
    """The summed parameter gradient of a batch of pairs.

    A pair's gradient is the sum of its two twins' backward passes, and the
    pairs add to the running total one at a time in batch order, so the
    total is bit-identical to summing pair_backward results in a loop. Only
    pairs with dL/dd != 0 are backpropagated: the others would add exact
    +-0.0, which changes no bit of a total that starts at +0.0 as long as
    their backward products are finite. The same rule drops MLP weight
    rows: row k of a weight gradient is h_in[k] * dz, so a row whose input
    unit is zero in every live twin gets only +-0.0 and stays +0.0 in the
    total. Only the active rows of each weight, and the whole graph weights
    and biases, are written and summed; the total is set to +0.0 and takes
    each parameter's summed block with one assignment.

    The live twins are propagated in one pass and their compact gradients
    written PAIRS_PER_CHUNK pairs at a time to one buffer, allocated once;
    a batch uses its first columns, a short batch its first rows, and every
    cell a sum reads is written in that chunk. Materializing a whole batch
    makes the reduction page-fault bound. The total is laid out as the
    model's flat theta; grads views it per parameter.
    """

    def __init__(self, model: EmbeddingModel):
        h, size = model.arch.gcn_hidden, model.theta.size
        self.layout = flat_layout(h)
        # row 0: the running total; rows 2j + 1, 2j + 2: pair j's twins
        self.rows = np.empty((2 * PAIRS_PER_CHUNK + 1, size))
        self.total = np.zeros(size)
        self.grads = parameter_list(layers_of(self.total, h))

    def compute(self, model, topo, x, twins, labels, margin, variant):
        """Sum the gradients of the pairs whose twins are the normalized
        poses x[twins[2k]], x[twins[2k + 1]], embedding each distinct pose
        once. Leaves the sum in self.total; returns each pair's loss and d."""
        poses, inv = np.unique(twins, return_inverse=True)
        emb, cache = embed(model, x[poses], topo, variant)
        d, g = _cosine_distance_grads(emb[inv])
        loss, dl_dd = _pair_losses(d, labels, margin)
        live = np.flatnonzero(np.repeat(dl_dd != 0.0, 2))
        terms = _backward(model, topo, cache.take(inv[live]),
                          g[live] * dl_dd[live // 2, None])
        # each MLP weight keeps the rows whose input unit is nonzero in some
        # live twin; its terms come first, last layer first
        active = [None, None]  # per parameter, canonical order; None: all
        for i in reversed(range(len(model.mlp_layers))):
            _, h_in, dz = terms[i]
            r = np.flatnonzero(h_in.any(axis=0))
            terms[i] = (True, h_in[:, r], dz)
            active += [r, None]
        blocks, used = [], 0
        for (_, shape, _), r in zip(self.layout.params, active):
            if r is not None:
                shape = (len(r),) + shape[1:]
            width = math.prod(shape)
            block = self.rows[:, used:used + width]
            blocks.append(block.reshape(len(block), *shape))
            used += width
        # the running sum of the blocks fills self.total's first columns
        # until it moves to row 0 and each block takes its place
        total = self.total[:used]
        total[...] = 0.0
        step = len(self.rows) - 1
        for start in range(0, len(live), step):
            part = slice(start, start + step)
            n = len(live[part])
            _twin_grads(terms, part, [b[1:n + 1] for b in blocks])
            self.rows[0, :used] = total
            pair_sums = self.rows[2:n + 2:2, :used]
            np.add(self.rows[1:n + 1:2, :used], pair_sums, out=pair_sums)
            np.add.reduce(self.rows[0:n + 1:2, :used], axis=0, out=total)
        self.rows[0, :used] = total
        self.total[...] = 0.0
        for grad, block, r in zip(self.grads, blocks, active):
            grad[... if r is None else r] = block[0]
        return loss, d


def pair_backward(model: EmbeddingModel, topo: np.ndarray,
                  pair: PosePair, cfg: TrainConfig, variant: str = "gcn"):
    """Loss and exact analytic parameter gradients for one pair.

    A batch of one through the trainer's own gradient code.
    """
    grads = _BatchGradient(model)
    x = normalize_stack([pair.pose_a.keypoints, pair.pose_b.keypoints])
    loss, _ = grads.compute(model, topo, x, np.arange(2),
                            np.array([pair.label_y]), cfg.margin_m, variant)
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


def train(model: EmbeddingModel, topo: np.ndarray, pairs,
          cfg: TrainConfig = TrainConfig(), variant: str = "gcn"):
    """Fit the model in place on labelled pairs, a PairTable or PosePairs
    (see pair_table); returns (model, TrainHistory).

    Per epoch: shuffle with the run-level seeded generator, split into
    batches of cfg.batch_size keeping the final short batch, accumulate
    per-pair gradients in shuffled index order, take their mean, then take
    one Adam step per batch. Fully determined by (model, pairs order, cfg).

    Each table row is normalized once per call and embedded once per
    batch, only pairs with a nonzero slope are backpropagated, and each Adam
    step is one elementwise pass over the flat theta and moments. The result
    is bit-identical to looping pair_backward over each batch in shuffled
    order and calling adam_step (see _BatchGradient).
    """
    check_variant(variant)
    table = pair_table(pairs)
    features = normalize_stack(table.keypoints)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    theta, state = model.theta, init_adam_state(model)
    batch_grad = _BatchGradient(model)
    history = TrainHistory()
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(table))
        losses, dists = [], []
        # a diverging run overflows silently here and is stopped below
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(order), cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                loss, d = batch_grad.compute(
                    model, topo, features, table.twins[batch].reshape(-1),
                    table.labels[batch], cfg.margin_m, variant)
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
        visited = table.labels[order]
        pos_d, neg_d = dists[visited == 1], dists[visited == 0]
        history.mean_loss.append(float(np.mean(np.concatenate(losses))))
        history.mean_pos_dist.append(float(np.mean(pos_d)) if pos_d.size else float("nan"))
        history.mean_neg_dist.append(float(np.mean(neg_d)) if neg_d.size else float("nan"))
    return model, history


def _central_differences(model: EmbeddingModel, topo: np.ndarray, x,
                         label: int, variant: str) -> np.ndarray:
    """gradient_check's numeric side at DEFAULT_MARGIN on the normalized
    twins x, flat in theta's layout (mlp: its suffix after the graph)."""
    layers = _variant_layers(model, variant)
    emb, cache = embed(model, x, topo, variant)
    loss0 = _pair_losses(cosine_distances(emb), label, DEFAULT_MARGIN)[0]

    def differences(i, p, put):
        """The differences at each coordinate of p, a weight (k, n) or bias
        (n,) of layers[i]; put(stack) is layers[i] with p replaced by a
        (P, 1, *p.shape) stack."""
        relu = i < len(layers) - 1
        out0 = cache.inputs[i + 1] if relu else emb  # layer i's cached output
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
            out = _layer(put(stack[:2 * len(r)]), topo, cache.inputs[i],
                         relu)[1].reshape(len(r), 2, -1, n)
            moved[r - start, :, r] = rows[r, None]
            # copy (j, d, c): out0 with column c from out[j, d]; one that
            # keeps out0's bits keeps loss0, so only the others run on
            j, d, c = np.nonzero(np.any(out.view(np.uint64) != bits0, axis=2))
            copies = np.repeat(out0.reshape(1, -1, n), len(j), axis=0)
            copies[np.arange(len(j)), :, c] = out[j, d, :, c]
            e = _run_layers(layers[i + 1:], topo, copies.reshape(-1, *out0.shape))
            e = e.reshape(-1, emb.shape[-1])
            loss[r[j], d, c] = _pair_losses(cosine_distances(e), label, DEFAULT_MARGIN)[0]
        return ((loss[:, 0] - loss[:, 1]) / (2.0 * FD_EPSILON)).reshape(-1)

    numeric = []
    for i, layer in enumerate(layers):
        if isinstance(layer, AffineLayer):
            numeric.append(differences(i, layer.w, lambda s: AffineLayer(s, layer.b)))
            numeric.append(differences(i, layer.b, lambda s: AffineLayer(layer.w, s)))
        else:
            numeric.append(differences(i, layer, lambda s: s))
    return np.concatenate(numeric)


def gradient_check(model: EmbeddingModel, topo: np.ndarray,
                   pair: PosePair, variant: str = "gcn") -> float:
    """Max relative error between analytic and central-difference gradients
    of the pair's loss at DEFAULT_MARGIN, the margin random_check_instance
    vets its instances for.

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
    _, grads = pair_backward(model, topo, pair, TrainConfig(), variant)
    gn = _central_differences(model, topo, x, pair.label_y, variant)
    ga = np.concatenate([g.reshape(-1) for g in grads])[-gn.size:]
    denom = np.maximum(np.maximum(np.abs(ga), np.abs(gn)), 1e-8)
    return float(np.max(np.abs(ga - gn) / denom))


def _fd_friendly(theta: np.ndarray, h: int, x: np.ndarray, label: int,
                 topo: np.ndarray) -> np.ndarray:
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
    are backpropagated, into twin-gradient rows allocated for them alone.
    Every check is the negation of its rejection, ~(x < t), so a NaN never
    rejects a candidate. The mask is a conjunction, so the order of the
    checks does not change it.
    """
    layers = layers_of(theta[:, None], h)
    ok = np.ones(len(theta), dtype=bool)
    caches = []
    for variant in VARIANTS:
        emb, cache = embed(layers, x, topo, variant)
        cos, raw, _, _ = _pair_cosines(emb.reshape(-1, emb.shape[-1]))
        ok &= ~(raw.reshape(-1, 2).min(axis=1) < 1e-3)
        ok &= ~(1.0 - cos > DEFAULT_MARGIN - 1e-3)
        for z in cache.pre[:-1]:  # the identity output has no kink
            ok &= ~(np.abs(z).reshape(len(z), -1).min(axis=1) < 1e-4)
        caches.append((emb, cache))
    for emb, cache in caches:
        alive = np.flatnonzero(ok)
        if not alive.size:
            break
        # pair_backward's gradient of each survivor, at the default margin
        d, g = _cosine_distance_grads(emb[alive].reshape(-1, emb.shape[-1]))
        g *= np.repeat(_pair_losses(d, label, DEFAULT_MARGIN)[1], 2)[:, None]
        twins = np.empty((len(alive), 2, theta.shape[1]))
        terms = _backward(layers_of(theta[alive, None], h), topo,
                          cache.take(alive), g.reshape(len(alive), 2, -1))
        _twin_grads(terms, slice(None), parameter_list(layers_of(twins, h)))
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
    seeds = [0] * CANDIDATES_PER_BLOCK
    while True:
        for k in range(CANDIDATES_PER_BLOCK):
            seeds[k] = int(rng.integers(2 ** 32))
            theta[k] = init_theta(h, seeds[k])
            # one draw of both poses takes the same values as two in a row
            keypoints[k] = rng.uniform(-3.0, 3.0, size=(2, NUM_KEYPOINTS, 2))
        # finite draws in [-3, 3] meet normalize_stack's precondition
        x = normalize_stack(keypoints.reshape(-1, NUM_KEYPOINTS, 2))
        mask = _fd_friendly(theta, h, x.reshape(keypoints.shape), label, topo)
        if mask.any():
            k = int(np.argmax(mask))
            model = EmbeddingModel(*layers_of(theta[k], h),
                                   ArchMeta(gcn_hidden=h, seed=seeds[k]))
            return model, PosePair(Pose(keypoints[k, 0]), Pose(keypoints[k, 1]),
                                   label_y=label)
