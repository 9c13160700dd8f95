"""The pose embedding network and its checkpoint format.

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

GCN_VARIANT = "gcn"
MLP_VARIANT = "mlp"


def apply_activation(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "identity":
        return z
    raise ValueError(f"unknown activation {name!r}")


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
    gcn_activation: str = "relu"
    mlp_activations: tuple[str, str, str] = ("relu", "relu", "identity")
    flatten_order: str = "node_major"
    seed: int = 0

    def __post_init__(self):
        if self.gcn_hidden < 1:
            raise ValueError("gcn_hidden must be >= 1")
        if self.flatten_order != "node_major":
            raise ValueError("only node_major flatten order is supported")
        for name in (self.gcn_activation, *self.mlp_activations):
            if name not in ("relu", "identity"):
                raise ValueError(f"unknown activation {name!r}")
        object.__setattr__(self, "mlp_activations", tuple(self.mlp_activations))


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
    the result is fully determined by (h, seed).
    """
    if h < 1:
        raise ValueError("gcn hidden width must be >= 1")
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


def copy_model(model: EmbeddingModel) -> EmbeddingModel:
    return EmbeddingModel(model.gcn_weights, model.mlp_layers, model.arch)


def check_variant(variant: str) -> None:
    """Raise ValueError unless variant names one of the two embeddings."""
    if variant not in (GCN_VARIANT, MLP_VARIANT):
        raise ValueError(f"unknown variant {variant!r}, expected 'gcn' or 'mlp'")


@dataclass
class ForwardCache:
    """Intermediate values of one embed call, kept for backpropagation.

    gcn_pre/gcn_post hold each graph layer's pre- and post-activation node
    matrices (empty for the MLP-only variant); mlp_pre/mlp_post the same per
    MLP layer. flat is the MLP input. Every array carries the pose axis
    first; forward() returns the single pose's slice, take(0).
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


def gcn_layer_forward(h_in, a_norm, w, activation: str = "relu") -> np.ndarray:
    """One graph convolution: activation(a_norm @ h_in @ w)."""
    h_in = np.asarray(h_in, dtype=np.float64)
    a_norm = np.asarray(a_norm, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    n = h_in.shape[0]
    if a_norm.shape != (n, n):
        raise ValueError(
            f"adjacency shape {a_norm.shape} does not match {n} input nodes")
    if w.ndim != 2 or w.shape[0] != h_in.shape[1]:
        raise ValueError(
            f"weight shape {w.shape} does not match input width {h_in.shape[1]}")
    return apply_activation(activation, a_norm @ h_in @ w)


def embed(model: EmbeddingModel, x: np.ndarray, topo: SkeletonTopology | None,
          variant: str) -> tuple[np.ndarray, ForwardCache]:
    """Embed a stack of normalized poses, x of shape (n, 15, 2).

    Returns the (n, 50) embeddings and the stacked cache of intermediates.
    The gcn variant runs both graph layers, (A_norm @ H) @ W per pose, and
    flattens each pose's 15x2 output node-major, [x0, y0, x1, y1, ...]; the
    mlp variant flattens x itself (topo may then be None). Row i is bit for
    bit the embedding of x[i] alone, whatever n: every product is a per-pose
    matmul of the single-pose shape, the MLP head as (n, 1, k) @ W; a flat
    (n, k) @ W GEMM would round differently.
    """
    check_variant(variant)
    cache = ForwardCache(x=x, gcn_pre=[], gcn_post=[], flat=None,
                         mlp_pre=[], mlp_post=[])
    h = x
    if variant == GCN_VARIANT:
        for w in model.gcn_weights:
            z = topo.adjacency_norm @ h @ w
            h = apply_activation(model.arch.gcn_activation, z)
            cache.gcn_pre.append(z)
            cache.gcn_post.append(h)
    cache.flat = h.reshape(len(x), FLAT_DIM)
    a = cache.flat[:, None, :]
    for layer, act in zip(model.mlp_layers, model.arch.mlp_activations):
        z = a @ layer.w + layer.b
        a = apply_activation(act, z)
        cache.mlp_pre.append(z[:, 0])
        cache.mlp_post.append(a[:, 0])
    return a[:, 0], cache


def forward_variant(model: EmbeddingModel, pose: NormalizedPose,
                    topo: SkeletonTopology | None,
                    variant: str) -> tuple[np.ndarray, ForwardCache]:
    """Embed one normalized pose; returns the 50-vector and its cache."""
    embedding, cache = embed(model, pose.features[None], topo, variant)
    return embedding[0], cache.take(0)


def forward(model: EmbeddingModel, pose: NormalizedPose,
            topo: SkeletonTopology) -> tuple[np.ndarray, ForwardCache]:
    """Embed a normalized pose through the graph layers and the MLP head."""
    return forward_variant(model, pose, topo, GCN_VARIANT)


def forward_mlp_baseline(model: EmbeddingModel,
                         pose: NormalizedPose) -> tuple[np.ndarray, ForwardCache]:
    """Ablation variant: flatten the normalized coordinates straight into the
    MLP head, skipping both graph layers."""
    return forward_variant(model, pose, None, MLP_VARIANT)


def save_checkpoint(model: EmbeddingModel) -> bytes:
    """Serialize a model to UTF-8 JSON.

    Floats keep full round-trip precision, so load(save(m)) reproduces the
    parameters bit for bit. Keys are sorted, making the output byte-stable.
    """
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "arch": {
            "gcn_hidden": model.arch.gcn_hidden,
            "flatten_order": model.arch.flatten_order,
            "activations": {
                "gcn": model.arch.gcn_activation,
                "mlp": list(model.arch.mlp_activations),
            },
        },
        "seed": model.arch.seed,
        "gcn_w0": model.gcn_weights[0].tolist(),
        "gcn_w1": model.gcn_weights[1].tolist(),
        "mlp": [{"w": layer.w.tolist(), "b": layer.b.tolist()}
                for layer in model.mlp_layers],
    }
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")


def load_checkpoint(data: bytes) -> EmbeddingModel:
    """Parse a checkpoint produced by save_checkpoint.

    Raises ValueError for malformed payloads, unsupported versions, shape
    mismatches against the declared architecture, or non-finite parameters.
    """
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed checkpoint: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("malformed checkpoint: top level must be an object")
    try:
        version = doc["format_version"]
        arch_doc = doc["arch"]
        arch = ArchMeta(
            gcn_hidden=int(arch_doc["gcn_hidden"]),
            gcn_activation=str(arch_doc["activations"]["gcn"]),
            mlp_activations=tuple(arch_doc["activations"]["mlp"]),
            flatten_order=str(arch_doc["flatten_order"]),
            seed=int(doc["seed"]),
        )
        gcn_w0 = doc["gcn_w0"]
        gcn_w1 = doc["gcn_w1"]
        mlp_doc = doc["mlp"]
        mlp_layers = tuple(AffineLayer(w=np.asarray(entry["w"], dtype=np.float64),
                                       b=np.asarray(entry["b"], dtype=np.float64))
                           for entry in mlp_doc)
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed checkpoint: missing or invalid field ({exc})") from exc
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version {version!r}")
    if len(mlp_layers) != 3:
        raise ValueError(f"checkpoint must carry 3 mlp layers, got {len(mlp_layers)}")
    return EmbeddingModel((np.asarray(gcn_w0, dtype=np.float64),
                           np.asarray(gcn_w1, dtype=np.float64)),
                          mlp_layers, arch)
