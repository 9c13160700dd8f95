"""The pose embedding network, its checkpoint format, and the versioned-JSON
codec that checkpoints, pose files and pair files share.

Two graph convolution layers propagate normalized keypoint features over the
skeleton graph, the 15x2 result is flattened node-major into a 30-vector, and
a three-layer MLP head (30 -> 40 -> 50 -> 50) projects it to the final
50-dimensional embedding. An ablation variant skips the graph layers and
feeds the flattened coordinates straight into the MLP head.

Models are value objects: construction copies and validates every parameter
array into one flat vector, of which the model's arrays are views, and all
forward passes are pure, so a model can be shared read-only across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from posesim.skeleton import (
    NUM_KEYPOINTS,
    NormalizedPose,
    SkeletonTopology,
    number_array,
)

FEATURE_DIM = 2
FLAT_DIM = NUM_KEYPOINTS * FEATURE_DIM
MLP_WIDTHS = (FLAT_DIM, 40, 50, 50)

CHECKPOINT_VERSION = 1

# The fixed layout as checkpoints record it; load_checkpoint accepts no other
LAYOUT = {
    "flatten_order": "node_major",
    "activations": {"gcn": "relu", "mlp": ["relu", "relu", "identity"]},
}

GCN_VARIANT = "gcn"
MLP_VARIANT = "mlp"
VARIANTS = (GCN_VARIANT, MLP_VARIANT)


@dataclass(frozen=True)
class ArchMeta:
    """Architecture metadata; fixed at model creation.

    gcn_hidden is the width between the two graph layers. The second graph
    layer always outputs width 2 so the per-node features can be flattened
    node-major into the 30-vector the MLP head expects. Graph layers carry no
    bias terms; MLP layers do. seed records the PRNG seed (PCG64) the initial
    weights were drawn from, so it lies in [0, 2**64) as PCG64 requires.
    """

    gcn_hidden: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.gcn_hidden < 1:
            raise ValueError("gcn_hidden must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")


def parameter_shapes(h: int) -> list[tuple[str, tuple]]:
    """(name, shape) of every parameter of a model of gcn_hidden h.

    Canonical order: gcn weight 0, gcn weight 1, then (weight, bias) per MLP
    layer. Parameter lists, gradient lists, optimizer state and the flat
    parameter vector all follow it.
    """
    specs = [("gcn weight 0", (FEATURE_DIM, h)), ("gcn weight 1", (h, FEATURE_DIM))]
    for i in range(len(MLP_WIDTHS) - 1):
        fan_in, fan_out = MLP_WIDTHS[i], MLP_WIDTHS[i + 1]
        specs += [(f"mlp weight {i}", (fan_in, fan_out)),
                  (f"mlp bias {i}", (fan_out,))]
    return specs


def split_flat(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of the last axis of flat, one per shape, laid out in order."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[..., start:start + size].reshape(flat.shape[:-1] + shape))
        start += size
    return views


def _param(values, shape, what: str) -> np.ndarray:
    arr = number_array(values, shape, what)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite values")
    return arr


@dataclass(frozen=True)
class AffineLayer:
    w: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class EmbeddingModel:
    """All trainable parameters plus architecture metadata.

    Construction validates the given arrays and copies them, in canonical
    order, into one contiguous float64 vector, theta; gcn_weights and the
    mlp_layers' w and b are views of it. Writing to theta updates every
    parameter at once, which is how train applies its Adam step.
    """

    gcn_weights: tuple[np.ndarray, np.ndarray]
    mlp_layers: tuple[AffineLayer, AffineLayer, AffineLayer]
    arch: ArchMeta = field(default_factory=ArchMeta)
    theta: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.gcn_weights) != 2 or len(self.mlp_layers) != 3:
            raise ValueError(f"a model has 2 gcn weights and 3 mlp layers, got "
                             f"{len(self.gcn_weights)} and {len(self.mlp_layers)}")
        given = [*self.gcn_weights]
        for layer in self.mlp_layers:
            given += [layer.w, layer.b]
        specs = parameter_shapes(self.arch.gcn_hidden)
        arrays = [_param(values, shape, what)
                  for (what, shape), values in zip(specs, given)]
        theta = np.concatenate([a.reshape(-1) for a in arrays])
        views = split_flat(theta, [shape for _, shape in specs])
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "gcn_weights", tuple(views[:2]))
        object.__setattr__(self, "mlp_layers", tuple(
            AffineLayer(w, b) for w, b in zip(views[2::2], views[3::2])))


def parameter_list(model: EmbeddingModel) -> list[np.ndarray]:
    """The model's parameter arrays in canonical order (parameter_shapes).

    The returned arrays are views of model.theta, not copies.
    """
    params: list[np.ndarray] = list(model.gcn_weights)
    for layer in model.mlp_layers:
        params.append(layer.w)
        params.append(layer.b)
    return params


def parameter_count(model: EmbeddingModel) -> int:
    return model.theta.size


def init_model(h: int = 2, seed: int = 0) -> EmbeddingModel:
    """Create a model with Glorot-uniform weights and zero biases.

    Weight matrices are drawn in canonical order from a PCG64 generator
    seeded with `seed`, each uniform in +-sqrt(6 / (fan_in + fan_out)), so
    the result is fully determined by (h, seed). ArchMeta rejects h < 1.
    """
    rng = np.random.Generator(np.random.PCG64(seed))

    def glorot(fan_in: int, fan_out: int) -> np.ndarray:
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    gcn_weights = (glorot(FEATURE_DIM, h), glorot(h, FEATURE_DIM))
    mlp_layers = tuple(
        AffineLayer(w=glorot(MLP_WIDTHS[i], MLP_WIDTHS[i + 1]),
                    b=np.zeros(MLP_WIDTHS[i + 1]))
        for i in range(3)
    )
    return EmbeddingModel(gcn_weights, mlp_layers, ArchMeta(gcn_hidden=h, seed=seed))


def check_variant(variant: str) -> None:
    """Raise ValueError unless variant names one of the two embeddings."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected 'gcn' or 'mlp'")


@dataclass
class ForwardCache:
    """Intermediate values of one embed call, kept for backpropagation.

    gcn_pre/gcn_post hold each graph layer's pre- and post-activation node
    matrices (empty for the MLP-only variant); mlp_pre/mlp_post the same per
    MLP layer. flat is the MLP input. Every array carries the pose axis
    first; forward_variant() returns the single pose's slice, take(0).
    """

    x: np.ndarray
    gcn_pre: list[np.ndarray]
    gcn_post: list[np.ndarray]
    flat: np.ndarray
    mlp_pre: list[np.ndarray]
    mlp_post: list[np.ndarray]

    def take(self, index) -> "ForwardCache":
        """The cache of the poses selected by a numpy index along axis 0."""
        return ForwardCache(
            x=self.x[index],
            gcn_pre=[z[index] for z in self.gcn_pre],
            gcn_post=[h[index] for h in self.gcn_post],
            flat=self.flat[index],
            mlp_pre=[z[index] for z in self.mlp_pre],
            mlp_post=[a[index] for a in self.mlp_post],
        )


def _run_layers(gcn_weights, mlp_layers, topo: SkeletonTopology | None,
                h: np.ndarray, cache: ForwardCache | None = None) -> np.ndarray:
    """Run the given graph layers, then the given MLP layers, on h.

    The graph layers are ReLU, (A_norm @ H) @ W per pose, and their 15x2
    output is flattened node-major, [x0, y0, x1, y1, ...]; the MLP layers
    are ReLU but for the last, the identity output layer. Passing the
    model's layers from some layer on, with h that layer's input, runs the
    forward pass from there. A weight or bias may instead be a stack
    (P, 1, *shape) of P variants of it: from its layer on, every value then
    carries a leading copy axis, (P, n, ...), copy j running with variant j.
    Every product keeps the single-pose shape, the MLP head as (1, k) @ W,
    so each pose of each copy is bit for bit its own single-pose forward; a
    flat (n, k) @ W GEMM would round differently. cache, if given, receives
    each layer's values.
    """
    for w in gcn_weights:
        z = topo.adjacency_norm @ h @ w
        h = np.maximum(z, 0.0)
        if cache is not None:
            cache.gcn_pre.append(z)
            cache.gcn_post.append(h)
    if gcn_weights:
        h = h.reshape(h.shape[:-2] + (FLAT_DIM,))
        if cache is not None:
            cache.flat = h
    last = len(mlp_layers) - 1
    for i, layer in enumerate(mlp_layers):
        z = (h[..., None, :] @ layer.w)[..., 0, :] + layer.b
        h = z if i == last else np.maximum(z, 0.0)
        if cache is not None:
            cache.mlp_pre.append(z)
            cache.mlp_post.append(h)
    return h


def embed(model: EmbeddingModel, x: np.ndarray, topo: SkeletonTopology | None,
          variant: str) -> tuple[np.ndarray, ForwardCache]:
    """Embed a stack of normalized poses, x of shape (n, 15, 2).

    Returns the (n, 50) embeddings and the stacked cache of intermediates.
    The gcn variant runs every layer; the mlp variant feeds x, flattened,
    straight into the MLP head (topo may then be None). Row i is bit for bit
    the embedding of x[i] alone, whatever n; see _run_layers.
    """
    check_variant(variant)
    cache = ForwardCache(x=x, gcn_pre=[], gcn_post=[], flat=None,
                         mlp_pre=[], mlp_post=[])
    gcn_weights, h = model.gcn_weights, x
    if variant == MLP_VARIANT:
        gcn_weights, h = (), x.reshape(len(x), FLAT_DIM)
        cache.flat = h
    return _run_layers(gcn_weights, model.mlp_layers, topo, h, cache), cache


def forward_variant(model: EmbeddingModel, pose: NormalizedPose,
                    topo: SkeletonTopology | None,
                    variant: str) -> tuple[np.ndarray, ForwardCache]:
    """Embed one normalized pose; returns the 50-vector and its cache.

    variant "gcn" runs the graph layers and the MLP head; "mlp", the
    ablation, feeds the flattened coordinates straight into the head and
    takes topo None.
    """
    embedding, cache = embed(model, pose.features[None], topo, variant)
    return embedding[0], cache.take(0)


def json_number(value, kind: type = float):
    """value as a JSON number of the kind, or None if it is not one.

    An int field takes the int itself (not true, not 1.0); a float field
    takes an int or a float, returned as a float. Neither takes a bool or a
    string. Range rules stay with each field.
    """
    if kind is int:
        return value if type(value) is int else None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def read_document(data: bytes, what: str, version: int) -> dict:
    """Decode JSON whose top level is an object with format_version the int
    `version` itself (not true, not 1.0); ValueError naming `what` for any
    other bytes. The version decides which fields a document has, so it is
    checked before the caller reads any other field."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"malformed {what}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"malformed {what}: top level must be an object")
    found = doc.get("format_version")
    if json_number(found, int) != version:
        raise ValueError(f"unsupported {what} format_version {found!r}")
    return doc


def write_document(doc: dict, version: int) -> bytes:
    """The canonical UTF-8 JSON of doc stamped with format_version: sorted
    keys, indent 1, a trailing newline. Floats keep full round-trip
    precision, so the bytes are stable and read_document inverts them."""
    doc = {"format_version": version, **doc}
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")


def save_checkpoint(model: EmbeddingModel) -> bytes:
    """Serialize a model to canonical JSON; load(save(m)) reproduces the
    parameters bit for bit and save(load(b)) the bytes."""
    return write_document({
        "arch": {"gcn_hidden": model.arch.gcn_hidden, **LAYOUT},
        "seed": model.arch.seed,
        "gcn_w0": model.gcn_weights[0].tolist(),
        "gcn_w1": model.gcn_weights[1].tolist(),
        "mlp": [{"w": layer.w.tolist(), "b": layer.b.tolist()}
                for layer in model.mlp_layers],
    }, CHECKPOINT_VERSION)


def load_checkpoint(data: bytes) -> EmbeddingModel:
    """Parse a checkpoint produced by save_checkpoint.

    Raises ValueError, and no other exception, for any payload that is not
    such a checkpoint: malformed JSON or fields, unsupported versions, a
    layout other than LAYOUT, a seed outside [0, 2**64), shape mismatches
    against the declared architecture, or parameters that are not finite
    numbers (a bool or a string is not one).
    """
    doc = read_document(data, "checkpoint", CHECKPOINT_VERSION)
    try:
        arch_doc = doc["arch"]
        layout = {key: arch_doc[key] for key in LAYOUT}
        hidden, seed = arch_doc["gcn_hidden"], doc["seed"]
        if json_number(hidden, int) is None or json_number(seed, int) is None:
            raise TypeError(f"gcn_hidden and seed must be ints, got "
                            f"{hidden!r} and {seed!r}")
        arch = ArchMeta(gcn_hidden=hidden, seed=seed)
        gcn_weights = (doc["gcn_w0"], doc["gcn_w1"])
        mlp_layers = tuple(AffineLayer(w=entry["w"], b=entry["b"])
                           for entry in doc["mlp"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed checkpoint: missing or invalid field ({exc})") from exc
    if layout != LAYOUT:
        raise ValueError(f"unsupported checkpoint layout {layout!r}, "
                         f"expected {LAYOUT!r}")
    return EmbeddingModel(gcn_weights, mlp_layers, arch)
