"""The pose embedding network, its checkpoint format, and the reader and writer
of versioned JSON that checkpoints, pose files and pair files share.

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
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from posesim.skeleton import (
    NUM_KEYPOINTS,
    ZERO,
    NormalizedPose,
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

VARIANTS = ("gcn", "mlp")


def _is_int(value) -> bool:
    """The int rule of seeds and counts: a numbers.Integral, not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_seed(seed) -> None:
    """Raise ValueError unless seed is an int in [0, 2**64), a PCG64 seed."""
    if not _is_int(seed) or not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must fit in 64 unsigned bits: an int in "
                         f"[0, 2**64), got {seed!r}")


def check_count(value, what: str) -> None:
    """Raise ValueError naming the field `what` unless value is an int >= 1."""
    if not _is_int(value) or value < 1:
        raise ValueError(f"{what} must be an int >= 1, got {value!r}")


@dataclass(frozen=True)
class ArchMeta:
    """Architecture metadata; fixed at model creation.

    gcn_hidden is the width between the two graph layers. The second graph
    layer always outputs width 2 so the per-node features can be flattened
    node-major into the 30-vector the MLP head expects. Graph layers carry no
    bias terms; MLP layers do. seed records the PRNG seed (PCG64) the initial
    weights were drawn from, so it lies in [0, 2**64) as PCG64 requires.
    Both are stored as int, so a numpy integer saves as a plain one.
    """

    gcn_hidden: int = 2
    seed: int = 0

    def __post_init__(self):
        check_count(self.gcn_hidden, "gcn_hidden")
        check_seed(self.seed)
        object.__setattr__(self, "gcn_hidden", int(self.gcn_hidden))
        object.__setattr__(self, "seed", int(self.seed))


class FlatLayout(NamedTuple):
    """Where flat_layout puts each parameter of one gcn_hidden in theta."""

    params: tuple  # (name, shape, slice of theta) per parameter, canonical order
    glorot: tuple  # (start, stop, low, high - low) per weight matrix
    size: int  # theta's size


@lru_cache(maxsize=None)
def flat_layout(h: int) -> FlatLayout:
    """The layout of the flat parameter vector theta of gcn_hidden h and of
    every buffer shaped like it, computed once per h: each parameter filling
    its slice row-major, and each weight matrix's Glorot interval
    +-sqrt(6 / (fan_in + fan_out)).

    Canonical order: gcn weight 0, gcn weight 1, then (weight, bias) per MLP
    layer. Parameter lists, gradient lists, optimizer state and the flat
    parameter vector all follow it.
    """
    specs = [("gcn weight 0", (FEATURE_DIM, h)), ("gcn weight 1", (h, FEATURE_DIM))]
    for i in range(len(MLP_WIDTHS) - 1):
        fan_in, fan_out = MLP_WIDTHS[i], MLP_WIDTHS[i + 1]
        specs += [(f"mlp weight {i}", (fan_in, fan_out)),
                  (f"mlp bias {i}", (fan_out,))]
    params, glorot, start = [], [], 0
    for name, shape in specs:
        stop = start + math.prod(shape)
        params.append((name, shape, slice(start, stop)))
        if len(shape) == 2:
            bound = math.sqrt(6 / sum(shape))  # int / int: no float overflow
            glorot.append((start, stop, -bound, 2.0 * bound))
        start = stop
    return FlatLayout(tuple(params), tuple(glorot), start)


@dataclass(frozen=True)
class AffineLayer:
    w: np.ndarray
    b: np.ndarray


class Layers(NamedTuple):
    """The layers of one model, or of K models stacked on a leading copy
    axis, as embed and training._backward read them (an EmbeddingModel has
    the same two fields)."""

    gcn_weights: tuple
    mlp_layers: tuple


def layers_of(theta: np.ndarray, h: int) -> Layers:
    """Views of flat parameters theta, shape (..., size), as layers; every
    array keeps theta's leading axes. Any buffer of theta's layout is viewed
    per parameter so: parameter_list(layers_of(buf, h))."""
    views = [theta[..., part].reshape(theta.shape[:-1] + shape)
             for _, shape, part in flat_layout(h).params]
    return Layers(tuple(views[:2]), tuple(
        AffineLayer(w, b) for w, b in zip(views[2::2], views[3::2])))


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
        layout = flat_layout(self.arch.gcn_hidden)
        # every shape is checked before theta is allocated, so an absurd
        # gcn_hidden fails on the given arrays, not in np.empty
        arrays = [number_array(values, shape, what)
                  for (what, shape, _), values in zip(layout.params, parameter_list(self))]
        theta = np.empty(layout.size)
        for (what, _, part), arr in zip(layout.params, arrays):
            theta[part] = arr.reshape(-1)
            if not np.all(np.isfinite(theta[part])):
                raise ValueError(f"{what} contains non-finite values")
        layers = layers_of(theta, self.arch.gcn_hidden)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "gcn_weights", layers.gcn_weights)
        object.__setattr__(self, "mlp_layers", layers.mlp_layers)


def parameter_list(model: EmbeddingModel | Layers) -> list[np.ndarray]:
    """The model's parameter arrays in canonical order (flat_layout).

    The returned arrays are views of model.theta, not copies.
    """
    params: list[np.ndarray] = list(model.gcn_weights)
    for layer in model.mlp_layers:
        params.append(layer.w)
        params.append(layer.b)
    return params


def parameter_count(model: EmbeddingModel) -> int:
    return model.theta.size


def init_theta(h: int, seed: int) -> np.ndarray:
    """init_model's parameters as one flat vector.

    Weight matrices are drawn in canonical order from a PCG64 generator
    seeded with `seed`, each uniform in +-sqrt(6 / (fan_in + fan_out)) and
    filled row-major, and biases are zero, so the result is fully
    determined by (h, seed).
    """
    layout = flat_layout(h)
    theta = np.zeros(layout.size)
    rng = np.random.Generator(np.random.PCG64(seed))
    # Generator.uniform(low, high, n) is low + (high - low) * u for the n
    # values u of Generator.random(n), each product and sum rounded on its
    # own; random(out=matrix) and two in-place passes give those values
    for start, stop, low, width in layout.glorot:
        matrix = theta[start:stop]
        rng.random(out=matrix)
        matrix *= width
        matrix += low
    return theta


def init_model(h: int = 2, seed: int = 0) -> EmbeddingModel:
    """Create a model with Glorot-uniform weights and zero biases drawn by
    init_theta; ArchMeta rejects h < 1 and a seed PCG64 cannot take."""
    arch = ArchMeta(gcn_hidden=h, seed=seed)
    return EmbeddingModel(*layers_of(init_theta(h, seed), h), arch)


def check_variant(variant: str) -> None:
    """Raise ValueError unless variant names one of the two embeddings."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected 'gcn' or 'mlp'")


@dataclass
class ForwardCache:
    """Intermediate values of one embed call, kept for backpropagation.

    inputs[i] is layer i's input as it reads it (the first MLP layer's
    flattened node-major) and pre[i] its pre-activation, over the layers
    embed ran: both graph layers and the MLP head, or, for the mlp variant,
    the head alone. Layer i's output is inputs[i + 1], or, for the identity
    last layer, pre[-1], the embedding. Every array carries the pose axis
    first, or the model axis and then the pose axis when K stacked models
    are embedded; forward_variant() returns the single pose's slice,
    take(0).
    """

    inputs: list[np.ndarray]
    pre: list[np.ndarray]

    def take(self, index) -> "ForwardCache":
        """The cache of the poses, or of the stacked models, selected by a
        numpy index along axis 0."""
        return ForwardCache([h[index] for h in self.inputs],
                            [z[index] for z in self.pre])


def _layer(layer, topo: np.ndarray | None, h: np.ndarray, relu=True):
    """One layer of _run_layers on h: its pre-activation z and its output,
    ReLU(z) or, where relu is False, z. Column c of z reads only column c
    of the graph weight, or of the AffineLayer's w and b."""
    if isinstance(layer, AffineLayer):
        z = np.vecmat(h, layer.w) + layer.b
    else:
        z = topo @ h @ layer
    return z, np.maximum(z, ZERO) if relu else z


def _run_layers(layers, topo: np.ndarray | None, h: np.ndarray,
                cache: ForwardCache | None = None) -> np.ndarray:
    """Run layers, graph weights then AffineLayers, in order on h.

    Every layer is ReLU but the last, the identity output. A graph layer is
    (A_norm @ H) @ W per pose; where a 15x2 node input meets an MLP layer it
    is flattened node-major, [x0, y0, x1, y1, ...]. Passing the model's
    layers from some layer on, with h that layer's input, runs the forward
    pass from there. A weight or bias may instead be a stack (P, 1, *shape)
    of P variants of it: from its layer on, every value then carries a
    leading copy axis, (P, n, ...), copy j running with variant j. Every
    product is per pose, the MLP head's np.vecmat(h, w) one BLAS
    vector-matrix call per pose of each copy, so each is bit for bit its
    own single-pose forward; a flat (n, k) @ W GEMM would round differently.
    cache, if given, receives each layer's input and pre-activation.
    """
    last = len(layers) - 1
    for i, layer in enumerate(layers):
        if (isinstance(layer, AffineLayer)
                and h.shape[-2:] == (NUM_KEYPOINTS, FEATURE_DIM)):
            h = h.reshape(h.shape[:-2] + (FLAT_DIM,))
        if cache is not None:
            cache.inputs.append(h)
        z, h = _layer(layer, topo, h, i != last)
        if cache is not None:
            cache.pre.append(z)
    return h


def _variant_layers(model: EmbeddingModel | Layers, variant: str) -> tuple:
    """The layers embed runs for the variant, in order: the graph weights
    and then the MLP head's AffineLayers, or, for mlp, the head alone."""
    check_variant(variant)
    gcn = model.gcn_weights if variant == "gcn" else ()
    return (*gcn, *model.mlp_layers)


def embed(model: EmbeddingModel | Layers, x: np.ndarray,
          topo: np.ndarray | None,
          variant: str) -> tuple[np.ndarray, ForwardCache]:
    """Embed a stack of normalized poses, x of shape (n, 15, 2).

    Returns the (n, 50) embeddings and the stacked cache of intermediates.
    The gcn variant runs every layer; the mlp variant feeds x, flattened,
    straight into the MLP head (topo may then be None). Row i is bit for bit
    the embedding of x[i] alone, whatever n; see _run_layers. model may also
    be the Layers of K models stacked (K, 1, *shape), with x (K, n, 15, 2):
    every value then carries the leading axis, model k embedding x[k].
    """
    cache = ForwardCache([], [])
    return _run_layers(_variant_layers(model, variant), topo, x, cache), cache


def forward_variant(model: EmbeddingModel, pose: NormalizedPose,
                    topo: np.ndarray | None,
                    variant: str) -> tuple[np.ndarray, ForwardCache]:
    """Embed one normalized pose; returns the 50-vector and its cache.

    variant "gcn" runs the graph layers and the MLP head; "mlp", the
    ablation, feeds the flattened coordinates straight into the head and
    takes topo None.
    """
    embedding, cache = embed(model, pose.features[None], topo, variant)
    return embedding[0], cache.take(0)


def checked_float(value, ok, rule: str) -> float:
    """value as a float, by the one rule of float fields and arguments: an
    int or a float (not a bool, a string or an int too large for a float),
    finite, for which ok, the field's range, holds. Anything else raises
    ValueError(f"{rule}, got {value!r}")."""
    if isinstance(value, float) or isinstance(value, int) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.nan
        if math.isfinite(number) and ok(number):
            return number
    raise ValueError(f"{rule}, got {value!r}")


# checked_float's common ranges, each built once: 0 < v, 0 <= v, any finite v
positive, nonnegative, any_finite = (0.0).__lt__, (0.0).__le__, math.isfinite


def read_document(data: bytes, what: str, *versions: int) -> dict:
    """Decode JSON whose top level is an object with format_version one of
    the ints `versions` itself (not true, not 1.0); ValueError naming `what`
    for any other bytes. The version decides which fields a document has,
    so it is checked before the caller reads any other field."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"malformed {what}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"malformed {what}: top level must be an object")
    found = doc.get("format_version")
    if not _is_int(found) or found not in versions:
        raise ValueError(f"unsupported {what} format_version {found!r}")
    return doc


def write_document(doc: dict, version: int) -> bytes:
    """The canonical UTF-8 JSON of doc stamped with format_version, as
    json.dumps writes it: sorted keys, indent 1, ASCII with its string
    escapes, and a trailing newline. Floats keep full round-trip precision,
    so the bytes are stable and read_document inverts them. A NaN or
    infinite float, which JSON cannot hold, raises ValueError; a value JSON
    has no type for, TypeError. Precondition, not checked here: every dict
    key is a str, as in every document the package writes; json.dumps would
    write an int, float or None key as a string."""
    return (json.dumps({"format_version": version, **doc}, sort_keys=True,
                       indent=1, allow_nan=False) + "\n").encode("utf-8")


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
        arch = ArchMeta(gcn_hidden=arch_doc["gcn_hidden"], seed=doc["seed"])
        gcn_weights = (doc["gcn_w0"], doc["gcn_w1"])
        mlp_layers = tuple(AffineLayer(w=entry["w"], b=entry["b"])
                           for entry in doc["mlp"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed checkpoint: missing or invalid field ({exc})") from exc
    if layout != LAYOUT:
        raise ValueError(f"unsupported checkpoint layout {layout!r}, "
                         f"expected {LAYOUT!r}")
    return EmbeddingModel(gcn_weights, mlp_layers, arch)
