"""Embedding network tests against a loop-based reference forward pass."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posesim.network import (
    AffineLayer,
    EmbeddingModel,
    forward_variant,
    init_model,
    load_checkpoint,
    parameter_count,
    parameter_list,
    save_checkpoint,
)
from posesim.skeleton import (
    NUM_KEYPOINTS,
    Pose,
    build_skeleton_topology,
    normalize_pose,
)


def mat_mul(a, b):
    """Reference matrix product in pure Python."""
    n, k = len(a), len(a[0])
    m = len(b[0])
    assert len(b) == k
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def relu_rows(rows):
    return [[v if v > 0.0 else 0.0 for v in row] for row in rows]


def ref_forward(model, features, a_norm, use_gcn):
    """Reference embedding computed entirely with Python loops."""
    h = [list(row) for row in features]
    if use_gcn:
        a = [list(row) for row in a_norm]
        for w in model.gcn_weights:
            h = relu_rows(mat_mul(mat_mul(a, h), [list(r) for r in w]))
    flat = [v for row in h for v in row]
    acts = ("relu", "relu", "identity")
    vec = flat
    for layer, act in zip(model.mlp_layers, acts):
        w = layer.w
        z = [sum(vec[i] * w[i, j] for i in range(len(vec))) + layer.b[j]
             for j in range(w.shape[1])]
        if act == "relu":
            z = [v if v > 0.0 else 0.0 for v in z]
        vec = z
    return np.array(vec)


# Every field of a checkpoint document, as a path of keys and indices
CHECKPOINT_PATHS = (
    ("format_version",), ("seed",), ("arch",), ("arch", "gcn_hidden"),
    ("arch", "flatten_order"), ("arch", "activations"),
    ("arch", "activations", "gcn"), ("arch", "activations", "mlp"),
    ("arch", "activations", "mlp", 2), ("gcn_w0",), ("gcn_w0", 1),
    ("gcn_w1", 0, 1), ("mlp",), ("mlp", 0), ("mlp", 1, "w"),
    ("mlp", 1, "w", 3), ("mlp", 2, "b"), ("mlp", 2, "b", 7),
)

VALID_CHECKPOINT = save_checkpoint(init_model(h=2, seed=0))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(10 ** 308, 10 ** 400)
    | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8)


def random_pose(rng):
    return normalize_pose(Pose(rng.uniform(-4.0, 4.0, size=(NUM_KEYPOINTS, 2))))


class TestInit:
    def test_parameter_count_default_width(self):
        model = init_model(h=2, seed=0)
        assert parameter_count(model) == 5848

    def test_parameter_count_breakdown(self):
        model = init_model(h=2, seed=3)
        sizes = [p.size for p in parameter_list(model)]
        assert sizes == [4, 4, 30 * 40, 40, 40 * 50, 50, 50 * 50, 50]

    def test_same_seed_bit_identical(self):
        a = init_model(h=2, seed=11)
        b = init_model(h=2, seed=11)
        for pa, pb in zip(parameter_list(a), parameter_list(b)):
            assert np.array_equal(pa, pb)

    def test_different_seeds_differ(self):
        a = init_model(h=2, seed=11)
        b = init_model(h=2, seed=12)
        assert not np.array_equal(a.gcn_weights[0], b.gcn_weights[0])

    def test_glorot_bounds_and_zero_biases(self):
        model = init_model(h=3, seed=5)
        fans = [(2, 3), (3, 2), (30, 40), (40, 50), (50, 50)]
        weights = [model.gcn_weights[0], model.gcn_weights[1],
                   *(layer.w for layer in model.mlp_layers)]
        for (fan_in, fan_out), w in zip(fans, weights):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(w) <= bound)
        for layer in model.mlp_layers:
            assert np.all(layer.b == 0.0)

    def test_draw_order_is_canonical(self):
        # Drawing the same five matrices by hand from a fresh generator must
        # reproduce init_model exactly.
        rng = np.random.Generator(np.random.PCG64(7))
        expected = []
        for fan_in, fan_out in [(2, 2), (2, 2), (30, 40), (40, 50), (50, 50)]:
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            expected.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        model = init_model(h=2, seed=7)
        got = [model.gcn_weights[0], model.gcn_weights[1],
               *(layer.w for layer in model.mlp_layers)]
        for e, g in zip(expected, got):
            assert np.array_equal(e, g)

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            init_model(h=0)


class TestModelValidation:
    def test_wrong_gcn_shape_rejected(self):
        model = init_model(h=2, seed=0)
        with pytest.raises(ValueError, match="gcn weight 0"):
            EmbeddingModel((np.zeros((3, 2)), model.gcn_weights[1]),
                           model.mlp_layers, model.arch)

    def test_wrong_mlp_shape_rejected(self):
        model = init_model(h=2, seed=0)
        bad = (model.mlp_layers[0],
               AffineLayer(w=np.zeros((40, 49)), b=np.zeros(50)),
               model.mlp_layers[2])
        with pytest.raises(ValueError, match="mlp weight 1"):
            EmbeddingModel(model.gcn_weights, bad, model.arch)

    def test_non_finite_rejected(self):
        model = init_model(h=2, seed=0)
        w0 = model.gcn_weights[0].copy()
        w0[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            EmbeddingModel((w0, model.gcn_weights[1]), model.mlp_layers, model.arch)

    def test_parameters_are_views_of_one_flat_vector(self):
        model = load_checkpoint(save_checkpoint(init_model(h=3, seed=5)))
        params = parameter_list(model)
        assert model.theta.flags.c_contiguous and model.theta.dtype == np.float64
        assert all(p.base is model.theta for p in params)
        assert sum(p.size for p in params) == model.theta.size
        model.theta[:] = np.arange(model.theta.size)
        flat = np.concatenate([p.reshape(-1) for p in params])
        np.testing.assert_array_equal(flat, np.arange(model.theta.size))

    @pytest.mark.parametrize("bad", [
        np.zeros((2, 2), dtype=bool), np.full((2, 2), "0.5"),
        [[0.5, True], [0.5, 0.5]], [["0.5", 0.5], [0.5, 0.5]],
        [np.array([0.5, 0.5]), np.array([True, False])],
    ], ids=["bool-array", "str-array", "bool-leaf", "str-leaf", "bool-row"])
    def test_bool_and_string_elements_rejected(self, bad):
        model = init_model(h=2, seed=0)
        with pytest.raises(ValueError, match="gcn weight 0 must hold numbers"):
            EmbeddingModel((bad, model.gcn_weights[1]), model.mlp_layers,
                           model.arch)

    def test_constructor_copies_arrays(self):
        model = init_model(h=2, seed=0)
        w0 = model.gcn_weights[0].copy()
        rebuilt = EmbeddingModel((w0, model.gcn_weights[1]),
                                 model.mlp_layers, model.arch)
        w0[0, 0] = 99.0
        assert rebuilt.gcn_weights[0][0, 0] != 99.0


class TestForward:
    def test_matches_reference_oracle(self):
        topo = build_skeleton_topology()
        rng = np.random.default_rng(33)
        for seed in range(5):
            model = init_model(h=2, seed=seed)
            pose = random_pose(rng)
            emb, _ = forward_variant(model, pose, topo, "gcn")
            want = ref_forward(model, pose.features.tolist(),
                               topo.adjacency_norm.tolist(), use_gcn=True)
            assert emb.shape == (50,)
            np.testing.assert_allclose(emb, want, atol=1e-10)

    def test_mlp_baseline_matches_reference_oracle(self):
        rng = np.random.default_rng(34)
        for seed in range(5):
            model = init_model(h=2, seed=seed)
            pose = random_pose(rng)
            emb, _ = forward_variant(model, pose, None, "mlp")
            want = ref_forward(model, pose.features.tolist(), None, use_gcn=False)
            np.testing.assert_allclose(emb, want, atol=1e-10)

    def test_flatten_is_node_major(self):
        topo = build_skeleton_topology()
        model = init_model(h=2, seed=1)
        pose = random_pose(np.random.default_rng(8))
        _, cache = forward_variant(model, pose, topo, "gcn")
        final = cache.gcn_post[-1]
        for i in range(NUM_KEYPOINTS):
            for j in range(2):
                assert cache.flat[2 * i + j] == final[i, j]

    def test_baseline_flattens_raw_features(self):
        model = init_model(h=2, seed=1)
        pose = random_pose(np.random.default_rng(9))
        _, cache = forward_variant(model, pose, None, "mlp")
        assert cache.gcn_pre == [] and cache.gcn_post == []
        np.testing.assert_array_equal(cache.flat, pose.features.reshape(-1))

    def test_identity_gcn_weights_reduce_to_adjacency_powers(self):
        # With identity 2x2 graph weights and nonnegative inputs the graph
        # stack collapses to A_norm @ A_norm @ X (entries stay >= 0, so relu
        # never clips).
        topo = build_skeleton_topology()
        base = init_model(h=2, seed=0)
        eye = np.eye(2)
        model = EmbeddingModel((eye, eye), base.mlp_layers, base.arch)
        pose = random_pose(np.random.default_rng(10))
        _, cache = forward_variant(model, pose, topo, "gcn")
        a2x = topo.adjacency_norm @ topo.adjacency_norm @ pose.features
        np.testing.assert_allclose(cache.gcn_post[-1], a2x, atol=1e-12)
        np.testing.assert_allclose(cache.flat, a2x.reshape(-1), atol=1e-12)

    def test_forward_is_pure(self):
        topo = build_skeleton_topology()
        model = init_model(h=2, seed=2)
        pose = random_pose(np.random.default_rng(11))
        before = [p.copy() for p in parameter_list(model)]
        emb1, _ = forward_variant(model, pose, topo, "gcn")
        emb2, _ = forward_variant(model, pose, topo, "gcn")
        np.testing.assert_array_equal(emb1, emb2)
        for old, new in zip(before, parameter_list(model)):
            assert np.array_equal(old, new)

    def test_variant_dispatch(self):
        topo = build_skeleton_topology()
        model = init_model(h=2, seed=3)
        pose = random_pose(np.random.default_rng(12))
        gcn_emb, _ = forward_variant(model, pose, topo, "gcn")
        mlp_emb, _ = forward_variant(model, pose, topo, "mlp")
        assert not np.array_equal(gcn_emb, mlp_emb)
        # the ablation never reads the graph
        np.testing.assert_array_equal(mlp_emb, forward_variant(model, pose, None, "mlp")[0])
        with pytest.raises(ValueError, match="variant"):
            forward_variant(model, pose, topo, "transformer")

    def test_cache_layers_line_up(self):
        topo = build_skeleton_topology()
        model = init_model(h=2, seed=4)
        pose = random_pose(np.random.default_rng(13))
        emb, cache = forward_variant(model, pose, topo, "gcn")
        assert len(cache.gcn_pre) == len(cache.gcn_post) == 2
        assert len(cache.mlp_pre) == len(cache.mlp_post) == 3
        np.testing.assert_array_equal(cache.mlp_post[-1], emb)
        # identity output activation: last pre equals last post
        np.testing.assert_array_equal(cache.mlp_pre[-1], cache.mlp_post[-1])

    def test_wider_hidden_layer_runs(self):
        topo = build_skeleton_topology()
        model = init_model(h=16, seed=5)
        pose = random_pose(np.random.default_rng(14))
        emb, cache = forward_variant(model, pose, topo, "gcn")
        assert emb.shape == (50,)
        assert cache.gcn_pre[0].shape == (NUM_KEYPOINTS, 16)
        want = ref_forward(model, pose.features.tolist(),
                           topo.adjacency_norm.tolist(), use_gcn=True)
        np.testing.assert_allclose(emb, want, atol=1e-10)


# Integer coordinates up to 2^10, scaled by 2^k with |k| <= 20 and shifted by
# an integer up to 2^20, need at most 51 significant bits: every moved
# coordinate, difference and extent is exact in float64, so min-max
# normalization must give the very same features and embeddings.
@settings(max_examples=60, deadline=None)
@given(coords=st.lists(st.integers(-2 ** 10, 2 ** 10),
                       min_size=2 * NUM_KEYPOINTS, max_size=2 * NUM_KEYPOINTS),
       exponents=st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
       offset=st.tuples(st.integers(-2 ** 20, 2 ** 20),
                        st.integers(-2 ** 20, 2 ** 20)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_exact_affine_maps_leave_features_and_embeddings_bit_identical(
        coords, exponents, offset, seed):
    kp = np.array(coords, dtype=np.float64).reshape(NUM_KEYPOINTS, 2)
    moved = kp * np.ldexp(1.0, exponents) + np.array(offset, dtype=np.float64)
    base, other = normalize_pose(Pose(kp)), normalize_pose(Pose(moved))
    assert base.features.tobytes() == other.features.tobytes()
    topo = build_skeleton_topology()
    model = init_model(h=2, seed=seed)
    for variant, t in (("gcn", topo), ("mlp", None)):
        want, _ = forward_variant(model, base, t, variant)
        got, _ = forward_variant(model, other, t, variant)
        assert got.tobytes() == want.tobytes()


class TestCheckpoint:
    def test_round_trip_bit_identical(self):
        model = init_model(h=2, seed=17)
        # perturb away from init to cover non-zero biases
        model.mlp_layers[0].b[:] = np.random.default_rng(1).normal(size=40)
        blob = save_checkpoint(model)
        loaded = load_checkpoint(blob)
        for pa, pb in zip(parameter_list(model), parameter_list(loaded)):
            assert np.array_equal(pa, pb)
        assert loaded.arch == model.arch

    def test_save_is_byte_stable(self):
        model = init_model(h=2, seed=17)
        blob = save_checkpoint(model)
        assert blob == save_checkpoint(load_checkpoint(blob))

    def test_checkpoint_is_valid_json_with_metadata(self):
        model = init_model(h=3, seed=9)
        doc = json.loads(save_checkpoint(model))
        assert doc["format_version"] == 1
        assert doc["arch"]["gcn_hidden"] == 3
        assert doc["arch"]["flatten_order"] == "node_major"
        assert doc["arch"]["activations"] == {"gcn": "relu",
                                              "mlp": ["relu", "relu", "identity"]}
        assert doc["seed"] == 9

    def test_truncated_payload_rejected(self):
        blob = save_checkpoint(init_model(h=2, seed=0))
        with pytest.raises(ValueError, match="malformed"):
            load_checkpoint(blob[: len(blob) // 2])

    def test_non_object_payload_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            load_checkpoint(b"[1, 2, 3]")

    def test_missing_field_rejected(self):
        doc = json.loads(save_checkpoint(init_model(h=2, seed=0)))
        del doc["gcn_w1"]
        with pytest.raises(ValueError, match="malformed"):
            load_checkpoint(json.dumps(doc).encode())

    def test_unsupported_version_rejected(self):
        doc = json.loads(save_checkpoint(init_model(h=2, seed=0)))
        doc["format_version"] = 2
        with pytest.raises(ValueError, match="format_version"):
            load_checkpoint(json.dumps(doc).encode())

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_version_must_be_the_int_itself(self, version):
        doc = json.loads(save_checkpoint(init_model(h=2, seed=0)))
        doc["format_version"] = version
        with pytest.raises(ValueError, match="unsupported checkpoint format_version"):
            load_checkpoint(json.dumps(doc).encode())

    @pytest.mark.parametrize("field, value", [
        ("seed", 7.9), ("seed", "7"), ("seed", 7.0), ("seed", True),
        ("gcn_hidden", 2.0), ("gcn_hidden", "2"), ("gcn_hidden", True),
    ], ids=["seed-7.9", "seed-str", "seed-7.0", "seed-bool", "hidden-2.0",
            "hidden-str", "hidden-bool"])
    def test_int_fields_must_be_the_int_itself(self, field, value):
        doc = json.loads(save_checkpoint(init_model(h=2, seed=0)))
        (doc["arch"] if field == "gcn_hidden" else doc)[field] = value
        with pytest.raises(ValueError, match="malformed checkpoint.*must be ints"):
            load_checkpoint(json.dumps(doc).encode())

    @pytest.mark.parametrize("seed", [-5, -1, 2 ** 64, 10 ** 30])
    def test_seed_must_fit_64_unsigned_bits(self, seed):
        doc = json.loads(save_checkpoint(init_model(h=2, seed=0)))
        doc["seed"] = seed
        with pytest.raises(ValueError, match="seed must fit in 64 unsigned bits"):
            load_checkpoint(json.dumps(doc).encode())

    def test_largest_seed_loads(self):
        doc = json.loads(save_checkpoint(init_model(h=2, seed=0)))
        doc["seed"] = 2 ** 64 - 1
        assert load_checkpoint(json.dumps(doc).encode()).arch.seed == 2 ** 64 - 1

    @pytest.mark.parametrize("path, value", [
        (("gcn_w0", 0, 1), "0.5"), (("gcn_w1", 1, 0), True),
        (("mlp", 1, "w", 3, 7), "1e-3"), (("mlp", 2, "b", 0), True),
        (("mlp", 0, "b", 5), False),
    ], ids=["weight-str", "weight-bool", "mlp-weight-str", "bias-true",
            "bias-false"])
    def test_bool_and_string_parameters_rejected(self, path, value):
        doc = json.loads(save_checkpoint(init_model(h=2, seed=0)))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(ValueError, match="must hold numbers, not bools or strings"):
            load_checkpoint(json.dumps(doc).encode())

    def test_int_parameters_load_as_floats(self):
        doc = json.loads(save_checkpoint(init_model(h=2, seed=0)))
        doc["mlp"][0]["b"] = [0] * 40
        doc["gcn_w0"][0][0] = 1
        model = load_checkpoint(json.dumps(doc).encode())
        assert model.gcn_weights[0][0, 0] == 1.0
        assert model.theta.dtype == np.float64

    def test_version_checked_before_any_field(self):
        with pytest.raises(ValueError,
                           match="unsupported checkpoint format_version 2"):
            load_checkpoint(b'{"format_version": 2, "weights": []}')

    def test_shape_mismatch_rejected(self):
        doc = json.loads(save_checkpoint(init_model(h=2, seed=0)))
        doc["gcn_w0"] = [[0.0, 0.0]]
        with pytest.raises(ValueError, match="shape"):
            load_checkpoint(json.dumps(doc).encode())

    def test_non_finite_parameter_rejected(self):
        doc = json.loads(save_checkpoint(init_model(h=2, seed=0)))
        doc["mlp"][1]["w"][0][0] = None
        with pytest.raises(ValueError):
            load_checkpoint(json.dumps(doc).encode())

    def test_wrong_layer_count_rejected(self):
        doc = json.loads(save_checkpoint(init_model(h=2, seed=0)))
        doc["mlp"] = doc["mlp"][:2]
        with pytest.raises(ValueError, match="3 mlp layers"):
            load_checkpoint(json.dumps(doc).encode())

    def test_foreign_activation_layout_rejected(self):
        doc = json.loads(save_checkpoint(init_model(h=2, seed=0)))
        doc["arch"]["activations"]["gcn"] = "tanh"
        with pytest.raises(ValueError, match="layout"):
            load_checkpoint(json.dumps(doc).encode())

    def test_foreign_flatten_order_rejected(self):
        doc = json.loads(save_checkpoint(init_model(h=2, seed=0)))
        doc["arch"]["flatten_order"] = "feature_major"
        with pytest.raises(ValueError, match="layout"):
            load_checkpoint(json.dumps(doc).encode())

    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=256))
    @example(data=b"[" * 100_000)
    def test_arbitrary_bytes_load_or_raise_value_error(self, data):
        try:
            load_checkpoint(data)
        except ValueError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(path=st.sampled_from(CHECKPOINT_PATHS),
           value=json_values | st.just(KeyError))
    @example(path=("seed",), value=float("inf"))
    @example(path=("arch", "gcn_hidden"), value=float("inf"))
    @example(path=("gcn_w0",), value={})
    def test_field_replacements_load_or_raise_value_error(self, path, value):
        doc = json.loads(VALID_CHECKPOINT)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is KeyError:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        try:
            load_checkpoint(json.dumps(doc).encode())
        except ValueError:
            pass

    def test_undeclared_hidden_width_rejected(self):
        # weights for h=3 but arch says h=2
        doc = json.loads(save_checkpoint(init_model(h=3, seed=0)))
        doc["arch"]["gcn_hidden"] = 2
        with pytest.raises(ValueError, match="shape"):
            load_checkpoint(json.dumps(doc).encode())
