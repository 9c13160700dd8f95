"""The pose embedding network, its checkpoint format, and the versioned-JSON
codec that checkpoints, pose files and pair files share.

Two graph convolution layers propagate normalized keypoint features over the
skeleton graph, the 15x2 result is flattened node-major into a 30-vector, and
a three-layer MLP head (30 -> 40 -> 50 -> 50) projects it to the final
50-dimensional embedding. An ablation variant skips the graph layers and
feeds the flattened coordinates straight into the MLP head.

Models are value objects: construction copies and validates every parameter
array, and all forward passes are pure, so a model can be shared read-only
across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from posesim.skeleton import NUM_KEYPOINTS, NormalizedPose, SkeletonTopology

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
    weights were drawn from.
    """

    gcn_hidden: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.gcn_hidden < 1:
            raise ValueError("gcn_hidden must be >= 1")


def _param(values, shape, what: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite values")
    return arr


@dataclass
class AffineLayer:
    w: np.ndarray
    b: np.ndarray


@dataclass
class EmbeddingModel:
    """All trainable parameters plus architecture metadata."""

    gcn_weights: tuple[np.ndarray, np.ndarray]
    mlp_layers: tuple[AffineLayer, AffineLayer, AffineLayer]
    arch: ArchMeta = field(default_factory=ArchMeta)

    def __post_init__(self):
        h = self.arch.gcn_hidden
        w0 = _param(self.gcn_weights[0], (FEATURE_DIM, h), "gcn weight 0")
        w1 = _param(self.gcn_weights[1], (h, FEATURE_DIM), "gcn weight 1")
        self.gcn_weights = (w0, w1)
        layers = []
        for i, layer in enumerate(self.mlp_layers):
            fan_in, fan_out = MLP_WIDTHS[i], MLP_WIDTHS[i + 1]
            layers.append(AffineLayer(
                w=_param(layer.w, (fan_in, fan_out), f"mlp weight {i}"),
                b=_param(layer.b, (fan_out,), f"mlp bias {i}"),
            ))
        self.mlp_layers = tuple(layers)


def parameter_list(model: EmbeddingModel) -> list[np.ndarray]:
    """The model's parameter arrays in canonical traversal order.

    Order: gcn weight 0, gcn weight 1, then (weight, bias) per MLP layer.
    Gradient lists and optimizer state follow this same order. The returned
    arrays are the model's own buffers, not copies.
    """
    params: list[np.ndarray] = list(model.gcn_weights)
    for layer in model.mlp_layers:
        params.append(layer.w)
        params.append(layer.b)
    return params


def parameter_count(model: EmbeddingModel) -> int:
    return sum(p.size for p in parameter_list(model))


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
    layout other than LAYOUT, shape mismatches against the declared
    architecture, or non-finite parameters.
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
        gcn_weights = (np.asarray(doc["gcn_w0"], dtype=np.float64),
                       np.asarray(doc["gcn_w1"], dtype=np.float64))
        mlp_layers = tuple(AffineLayer(w=np.asarray(entry["w"], dtype=np.float64),
                                       b=np.asarray(entry["b"], dtype=np.float64))
                           for entry in doc["mlp"])
    except (KeyError, TypeError, IndexError, OverflowError) as exc:
        raise ValueError(f"malformed checkpoint: missing or invalid field ({exc})") from exc
    if layout != LAYOUT:
        raise ValueError(f"unsupported checkpoint layout {layout!r}, "
                         f"expected {LAYOUT!r}")
    if len(mlp_layers) != 3:
        raise ValueError(f"checkpoint must carry 3 mlp layers, got {len(mlp_layers)}")
    return EmbeddingModel(gcn_weights, mlp_layers, arch)
