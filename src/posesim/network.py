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
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

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


class FlatLayout(NamedTuple):
    """Where flat_layout puts each parameter of one gcn_hidden in theta."""

    params: tuple  # (name, shape, slice of theta) per parameter, canonical order
    glorot: tuple  # (start, stop, low, high - low) per weight matrix
    weights: int  # coordinates of all weight matrices together
    size: int  # theta's size


@lru_cache(maxsize=None)
def flat_layout(h: int) -> FlatLayout:
    """The layout of the flat parameter vector theta of gcn_hidden h and of
    every buffer shaped like it, computed once per h: parameters in the
    order of parameter_shapes, each filling its slice row-major, and each
    weight matrix's Glorot interval +-sqrt(6 / (fan_in + fan_out))."""
    params, glorot, start = [], [], 0
    for name, shape in parameter_shapes(h):
        stop = start + math.prod(shape)
        params.append((name, shape, slice(start, stop)))
        if len(shape) == 2:
            bound = math.sqrt(6 / sum(shape))  # int / int: no float overflow
            glorot.append((start, stop, -bound, 2.0 * bound))
        start = stop
    return FlatLayout(tuple(params), tuple(glorot),
                      sum(b - a for a, b, _, _ in glorot), start)


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


def init_theta(h: int, seed: int, out: np.ndarray | None = None) -> np.ndarray:
    """init_model's parameters as one flat vector, written into out if given.

    Weight matrices are drawn in canonical order from a PCG64 generator
    seeded with `seed`, each uniform in +-sqrt(6 / (fan_in + fan_out)) and
    filled row-major, and biases are zero, so the result is fully
    determined by (h, seed).
    """
    layout = flat_layout(h)
    theta = np.empty(layout.size) if out is None else out
    theta.fill(0.0)
    # Generator.uniform(low, high, n) is low + (high - low) * u for the n
    # values u of Generator.random(n), each product and sum rounded on its
    # own; one random() call and two passes per matrix give those values
    u = np.random.Generator(np.random.PCG64(seed)).random(layout.weights)
    drawn = 0
    for start, stop, low, width in layout.glorot:
        matrix = theta[start:stop]
        np.multiply(u[drawn:drawn + stop - start], width, out=matrix)
        matrix += low
        drawn += stop - start
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

    gcn_pre/gcn_post hold each graph layer's pre- and post-activation node
    matrices (empty for the MLP-only variant); mlp_pre/mlp_post the same per
    MLP layer. flat is the MLP input. Every array carries the pose axis
    first, or the model axis and then the pose axis when K stacked models
    are embedded; forward_variant() returns the single pose's slice,
    take(0).
    """

    x: np.ndarray
    gcn_pre: list[np.ndarray]
    gcn_post: list[np.ndarray]
    flat: np.ndarray
    mlp_pre: list[np.ndarray]
    mlp_post: list[np.ndarray]

    def take(self, index) -> "ForwardCache":
        """The cache of the poses, or of the stacked models, selected by a
        numpy index along axis 0."""
        return ForwardCache(
            x=self.x[index],
            gcn_pre=[z[index] for z in self.gcn_pre],
            gcn_post=[h[index] for h in self.gcn_post],
            flat=self.flat[index],
            mlp_pre=[z[index] for z in self.mlp_pre],
            mlp_post=[a[index] for a in self.mlp_post],
        )


def _layer(layer, topo: SkeletonTopology | None, h: np.ndarray, relu=True):
    """One layer of _run_layers on h: its pre-activation z and its output,
    ReLU(z) or, where relu is False, z. Column c of z reads only column c
    of the graph weight, or of the AffineLayer's w and b."""
    if isinstance(layer, AffineLayer):
        z = (h[..., None, :] @ layer.w)[..., 0, :] + layer.b
    else:
        z = topo.adjacency_norm @ h @ layer
    return z, np.maximum(z, 0.0) if relu else z


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
        z, h = _layer(w, topo, h)
        if cache is not None:
            cache.gcn_pre.append(z)
            cache.gcn_post.append(h)
    if gcn_weights:
        h = h.reshape(h.shape[:-2] + (FLAT_DIM,))
        if cache is not None:
            cache.flat = h
    last = len(mlp_layers) - 1
    for i, layer in enumerate(mlp_layers):
        z, h = _layer(layer, topo, h, i != last)
        if cache is not None:
            cache.mlp_pre.append(z)
            cache.mlp_post.append(h)
    return h


def embed(model: EmbeddingModel | Layers, x: np.ndarray,
          topo: SkeletonTopology | None,
          variant: str) -> tuple[np.ndarray, ForwardCache]:
    """Embed a stack of normalized poses, x of shape (n, 15, 2).

    Returns the (n, 50) embeddings and the stacked cache of intermediates.
    The gcn variant runs every layer; the mlp variant feeds x, flattened,
    straight into the MLP head (topo may then be None). Row i is bit for bit
    the embedding of x[i] alone, whatever n; see _run_layers. model may also
    be the Layers of K models stacked (K, 1, *shape), with x (K, n, 15, 2):
    every value then carries the leading axis, model k embedding x[k].
    """
    check_variant(variant)
    cache = ForwardCache(x=x, gcn_pre=[], gcn_post=[], flat=None,
                         mlp_pre=[], mlp_post=[])
    gcn_weights, h = model.gcn_weights, x
    if variant == MLP_VARIANT:
        gcn_weights, h = (), x.reshape(x.shape[:-2] + (FLAT_DIM,))
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
    takes an int or a float, returned as a float, but not an int too large
    for a float. Neither takes a bool or a string. Range rules stay with
    each field.
    """
    if kind is int:
        return value if type(value) is int else None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            return None
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


_string_text = json.encoder.encode_basestring_ascii


def _finite(text: str, values) -> str:
    """text, the float reprs of values, or ValueError if one is NaN or
    infinite: only those reprs ("nan", "inf") hold the letter n."""
    if "n" in text:
        bad = next(v for v in values if not math.isfinite(v))
        raise ValueError(f"Out of range float values are not JSON compliant: "
                         f"{bad!r}")
    return text


@lru_cache(maxsize=128)
def _matrix_template(rows: int, cols: int, depth: int) -> str:
    """The %-template of rows lists of cols floats each, opened at indent
    depth: one %s per float, row-major."""
    pad, row_pad = "\n" + " " * (depth + 1), "\n" + " " * (depth + 2)
    row = ("[" + row_pad + ("," + row_pad).join(["%s"] * cols) + pad + "]"
           if cols else "[]")
    return "[" + pad + ("," + pad).join([row] * rows) + pad[:-1] + "]"


def _encode(value, depth: int, out: list) -> None:
    """Append the JSON of value, opened at indent depth, to out, as
    json.dumps(sort_keys=True, indent=1, allow_nan=False) writes it; dict
    keys must be str. A list of floats goes out in one join and a list of
    equal-length float lists in one formatting call."""
    if isinstance(value, str):
        out.append(_string_text(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_finite(float.__repr__(value), (value,)))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        if not all(isinstance(key, str) for key in value):
            raise TypeError("keys must be str")
        pad = "\n" + " " * (depth + 1)
        sep = "{" + pad
        for key in sorted(value):
            out.append(sep + _string_text(key) + ": ")
            _encode(value[key], depth + 1, out)
            sep = "," + pad
        out.append(pad[:-1] + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        pad = "\n" + " " * (depth + 1)
        kinds = set(map(type, value))
        if kinds == {float}:
            text = ("," + pad).join(map(float.__repr__, value))
            out.append("[" + pad + _finite(text, value) + pad[:-1] + "]")
        elif (kinds == {list} and len(cols := set(map(len, value))) == 1
              and set(map(type, chain.from_iterable(value))) <= {float}):
            template = _matrix_template(len(value), cols.pop(), depth)
            floats = tuple(map(float.__repr__, chain.from_iterable(value)))
            out.append(_finite(template % floats, chain.from_iterable(value)))
        else:
            sep = "[" + pad
            for item in value:
                out.append(sep)
                _encode(item, depth + 1, out)
                sep = "," + pad
            out.append(pad[:-1] + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON "
                        f"serializable")


def write_document(doc: dict, version: int) -> bytes:
    """The canonical UTF-8 JSON of doc stamped with format_version: sorted
    keys, indent 1, a trailing newline, and ASCII with json.dumps's string
    escapes. Floats keep full round-trip precision, so the bytes are stable
    and read_document inverts them. A NaN or infinite float, which JSON
    cannot hold, raises ValueError; a value JSON has no type for, TypeError."""
    out = []
    _encode({"format_version": version, **doc}, 0, out)
    out.append("\n")
    return "".join(out).encode("utf-8")


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
