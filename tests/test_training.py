"""Training-module tests: finite differences are the gradient oracle, a
hand-rolled replica of the documented loop is the trainer oracle."""

import base64
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posesim.corpus import (PairEntry, PairFile, PoseRecord, SynthConfig,
                            load_corpus, parse_pose_file, split_corpus,
                            write_pair_file, write_pose_file)
from posesim.network import (
    AffineLayer,
    ArchMeta,
    EmbeddingModel,
    forward_variant,
    init_model,
    layers_of,
    parameter_list,
)
from posesim.skeleton import NUM_KEYPOINTS, Pose, build_skeleton_topology, normalize_pose
from posesim.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    AdamState,
    PairTable,
    PosePair,
    TrainConfig,
    TrainHistory,
    _adam_update,
    _admitted_table,
    adam_step,
    contrastive_loss,
    cosine_distance,
    cosine_distance_grads,
    gradient_check,
    history_csv,
    init_adam_state,
    pair_backward,
    pair_table,
    random_check_instance,
    train,
)

TOPO = build_skeleton_topology()


def random_pair(rng, label):
    a = Pose(rng.uniform(-3.0, 3.0, size=(NUM_KEYPOINTS, 2)))
    b = Pose(rng.uniform(-3.0, 3.0, size=(NUM_KEYPOINTS, 2)))
    return PosePair(a, b, label_y=label)


class TestCosineDistance:
    def test_identical_direction_is_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            e = rng.normal(size=50)
            assert abs(cosine_distance(e, e)) < 1e-15
            assert abs(cosine_distance(e, 3.7 * e)) < 1e-14

    def test_opposite_direction_is_two(self):
        e = np.random.default_rng(1).normal(size=50)
        assert abs(cosine_distance(e, -e) - 2.0) < 1e-14

    def test_orthogonal_is_one(self):
        e1 = np.zeros(50)
        e2 = np.zeros(50)
        e1[0] = 2.5
        e2[1] = -4.0
        assert cosine_distance(e1, e2) == 1.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            e1 = rng.normal(size=50)
            e2 = rng.normal(size=50)
            alpha, beta = rng.uniform(0.01, 100.0, size=2)
            d0 = cosine_distance(e1, e2)
            d1 = cosine_distance(alpha * e1, beta * e2)
            assert abs(d0 - d1) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        e1 = rng.normal(size=50)
        e2 = rng.normal(size=50)
        assert cosine_distance(e1, e2) == cosine_distance(e2, e1)

    def test_zero_vector_gives_one(self):
        # dot is 0 and the clamped norm keeps the quotient finite
        e2 = np.random.default_rng(4).normal(size=50)
        assert cosine_distance(np.zeros(50), e2) == 1.0

    def test_rejects_non_finite(self):
        e = np.ones(50)
        bad = e.copy()
        bad[3] = np.inf
        # the gradient routine validates its inputs the same way
        for fn in (cosine_distance, cosine_distance_grads):
            with pytest.raises(ValueError):
                fn(bad, e)
            with pytest.raises(ValueError):
                fn(e, bad * np.nan)
            with pytest.raises(ValueError, match="non-finite"):
                fn([np.nan, 1.0], [1.0, 2.0])
            # the elements take number_array's rule: no strings, no bools
            with pytest.raises(ValueError, match="e1 must hold numbers"):
                fn(["0.5"] * 50, e)
            with pytest.raises(ValueError, match="e2 must hold numbers"):
                fn(e, [True] * 50)
            with pytest.raises(ValueError, match="e1 must hold numbers"):
                fn(["abc"] * 3, [1.0] * 3)
            # ragged nesting is named too, not left to numpy's message
            with pytest.raises(ValueError, match="e1 must hold numbers"):
                fn([1.0, [1.0, 2.0]], [1.0, 1.0])
            with pytest.raises(ValueError, match="e2 must hold numbers"):
                fn([1.0, 1.0], [1.0, [1.0, 2.0]])

    def test_rejects_shape_mismatch(self):
        for fn in (cosine_distance, cosine_distance_grads):
            with pytest.raises(ValueError):
                fn(np.ones(50), np.ones(49))
            with pytest.raises(ValueError, match="vector"):
                fn(np.ones((2, 50)), np.ones((2, 50)))


class TestCosineDistanceGrads:
    def fd_grads(self, e1, e2, eps=1e-7):
        g1 = np.zeros_like(e1)
        g2 = np.zeros_like(e2)
        for i in range(e1.size):
            up, down = e1.copy(), e1.copy()
            up[i] += eps
            down[i] -= eps
            g1[i] = (cosine_distance(up, e2) - cosine_distance(down, e2)) / (2 * eps)
        for i in range(e2.size):
            up, down = e2.copy(), e2.copy()
            up[i] += eps
            down[i] -= eps
            g2[i] = (cosine_distance(e1, up) - cosine_distance(e1, down)) / (2 * eps)
        return g1, g2

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            e1 = rng.normal(size=12)
            e2 = rng.normal(size=12)
            d, g1, g2 = cosine_distance_grads(e1, e2)
            assert abs(d - cosine_distance(e1, e2)) < 1e-15
            n1, n2 = self.fd_grads(e1, e2)
            np.testing.assert_allclose(g1, n1, atol=1e-7)
            np.testing.assert_allclose(g2, n2, atol=1e-7)

    def test_clamped_norm_contributes_no_gradient(self):
        # With |e1| below the clamp the norm is locally constant, so only
        # the bilinear dot-product term survives in that side's gradient.
        e1 = np.full(50, 1e-15)
        e2 = np.random.default_rng(6).normal(size=50)
        _, g1, _ = cosine_distance_grads(e1, e2)
        n2 = max(float(np.linalg.norm(e2)), 1e-12)
        np.testing.assert_array_equal(g1, -e2 / (1e-12 * n2))

    def test_grads_swap_with_arguments(self):
        rng = np.random.default_rng(7)
        e1 = rng.normal(size=20)
        e2 = rng.normal(size=20)
        _, g1, g2 = cosine_distance_grads(e1, e2)
        _, h2, h1 = cosine_distance_grads(e2, e1)
        np.testing.assert_array_equal(g1, h1)
        np.testing.assert_array_equal(g2, h2)


class TestContrastiveLoss:
    def test_inactive_hinge_is_exactly_zero(self):
        assert contrastive_loss(1.5, 0, 1.35) == 0.0

    def test_similar_pair_at_point_four(self):
        loss = contrastive_loss(0.4, 1, 1.35)
        assert loss == 0.5 * 0.4 * 0.4
        assert abs(loss - 0.08) < 1e-16

    def test_dissimilar_pair_inside_margin(self):
        assert contrastive_loss(0.35, 0, 1.35) == 0.5

    def test_zero_distance_similar_pair(self):
        assert contrastive_loss(0.0, 1, 1.35) == 0.0

    def test_nonnegative_and_zero_conditions(self):
        rng = np.random.default_rng(8)
        m = 1.35
        for _ in range(200):
            d = float(rng.uniform(0.0, 2.0))
            y = int(rng.integers(0, 2))
            loss = contrastive_loss(d, y, m)
            assert loss >= 0.0
            if loss == 0.0:
                assert (y == 1 and d == 0.0) or (y == 0 and d >= m)

    def test_monotonicity(self):
        m = 1.35
        grid = np.linspace(0.0, 2.0, 101)
        pos = [contrastive_loss(float(d), 1, m) for d in grid]
        neg = [contrastive_loss(float(d), 0, m) for d in grid]
        assert all(b >= a for a, b in zip(pos, pos[1:]))
        assert all(b <= a for a, b in zip(neg, neg[1:]))

    def test_rejects_bad_label_and_margin(self):
        # the label is the int 0 or 1 itself, as checked_label requires
        for y in (2, True, 1.0, np.int64(1)):
            with pytest.raises(ValueError, match="y must be 0 or 1"):
                contrastive_loss(0.5, y, 1.35)
        with pytest.raises(ValueError):
            contrastive_loss(0.5, 1, 0.0)
        # d_c and m take checked_float's rule: no bool, no string, no int
        # past a float
        for bad in (True, "0.3", 10 ** 400):
            with pytest.raises(ValueError, match="d_c must be finite"):
                contrastive_loss(bad, 1, 1.35)
            with pytest.raises(ValueError, match="margin must be finite"):
                contrastive_loss(0.5, 1, bad)


class TestPairBackward:
    def test_gradient_check_seed_42(self):
        model, pair = random_check_instance(42)
        err = gradient_check(model, TOPO, pair, variant="gcn")
        assert err < 1e-4

    def test_gradient_check_mlp_variant(self):
        model, pair = random_check_instance(43)
        err = gradient_check(model, TOPO, pair, variant="mlp")
        assert err < 1e-4

    @pytest.mark.parametrize("variant", ["gcn", "mlp"])
    def test_gradient_check_nan_coordinate_makes_result_nan(self, variant):
        # weights this large overflow the embeddings, and inf - inf is nan
        model, pair = random_check_instance(42)
        huge = EmbeddingModel(
            tuple(w * 1e200 for w in model.gcn_weights),
            tuple(AffineLayer(w=layer.w * 1e200, b=layer.b * 1e200)
                  for layer in model.mlp_layers),
            model.arch)
        with np.errstate(all="ignore"):
            err = gradient_check(huge, TOPO, pair, variant=variant)
        assert np.isnan(err)

    def test_inactive_negative_has_zero_gradients(self):
        # a margin at half the pair's actual distance keeps the hinge
        # inactive with plenty of room around the kink
        model, base = random_check_instance(45)
        pair = PosePair(base.pose_a, base.pose_b, 0)
        e1, _ = forward_variant(model, normalize_pose(pair.pose_a), TOPO, "gcn")
        e2, _ = forward_variant(model, normalize_pose(pair.pose_b), TOPO, "gcn")
        d = cosine_distance(e1, e2)
        assert d > 0.0
        cfg = TrainConfig(margin_m=d / 2)
        loss, grads = pair_backward(model, TOPO, pair, cfg, variant="gcn")
        assert loss == 0.0
        for g in grads:
            assert np.all(g == 0.0)

    def test_symmetric_in_pair_order(self):
        model, _ = random_check_instance(46)
        rng = np.random.default_rng(46)
        a = Pose(rng.uniform(-2.0, 2.0, size=(NUM_KEYPOINTS, 2)))
        b = Pose(rng.uniform(-2.0, 2.0, size=(NUM_KEYPOINTS, 2)))
        cfg = TrainConfig()
        loss_ab, grads_ab = pair_backward(
            model, TOPO, PosePair(a, b, 1), cfg, variant="gcn")
        loss_ba, grads_ba = pair_backward(
            model, TOPO, PosePair(b, a, 1), cfg, variant="gcn")
        assert loss_ab == loss_ba
        for ga, gb in zip(grads_ab, grads_ba):
            np.testing.assert_array_equal(ga, gb)

    def test_grad_shapes_mirror_parameters(self):
        model, pair = random_check_instance(47)
        _, grads = pair_backward(model, TOPO, pair, TrainConfig(), "gcn")
        for g, p in zip(grads, parameter_list(model)):
            assert g.shape == p.shape

    def test_rejects_unknown_variant(self):
        model, pair = random_check_instance(48)
        with pytest.raises(ValueError, match="variant"):
            pair_backward(model, TOPO, pair, TrainConfig(), "cnn")


class TestAdam:
    def scalar_adam(self, grad_seq, cfg):
        """Textbook per-coordinate reference."""
        w, m, v = 0.0, 0.0, 0.0
        for t, g in enumerate(grad_seq, start=1):
            m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
            mhat = m / (1 - ADAM_BETA1 ** t)
            vhat = v / (1 - ADAM_BETA2 ** t)
            w -= cfg.learning_rate * mhat / (np.sqrt(vhat) + ADAM_EPSILON)
        return w

    def zeroed_model(self):
        model = init_model(h=2, seed=0)
        for p in parameter_list(model):
            p[:] = 0.0
        return model

    def test_first_step_hand_value(self):
        # w=0, g=1: bias correction makes both moment estimates exactly 1,
        # so the step is lr / (1 + eps)
        model = self.zeroed_model()
        cfg = TrainConfig()
        grads = [np.ones_like(p) for p in parameter_list(model)]
        adam_step(model, grads, init_adam_state(model), cfg)
        for p in parameter_list(model):
            assert np.all(p == -(1e-4 * 1.0 / (1.0 + 1e-8)))
            assert np.all(np.abs(p + 1e-4) < 1e-11)

    def test_zero_gradients_leave_parameters_unchanged(self):
        model, _ = random_check_instance(50)
        before = [p.copy() for p in parameter_list(model)]
        state = init_adam_state(model)
        state.m = np.ones_like(model.theta)
        grads = [np.zeros_like(p) for p in parameter_list(model)]
        adam_step(model, grads, state, TrainConfig())
        # zero gradient still decays the first moment, which nudges nothing
        # only when m was zero; here m=1 decays to beta1
        assert np.all(state.m == 0.9)
        assert state.t == 1
        fresh, _ = random_check_instance(50)
        state2 = init_adam_state(fresh)
        adam_step(fresh, grads, state2, TrainConfig())
        for p, b in zip(parameter_list(fresh), before):
            np.testing.assert_array_equal(p, b)

    def test_matches_scalar_reference_over_steps(self):
        cfg = TrainConfig(learning_rate=0.01)
        model = self.zeroed_model()
        state = init_adam_state(model)
        rng = np.random.default_rng(51)
        seqs = rng.normal(size=(7, 4))  # 7 steps for gcn_w0's 4 coordinates
        for t in range(7):
            grads = [np.zeros_like(p) for p in parameter_list(model)]
            grads[0] = seqs[t].reshape(2, 2).copy()
            adam_step(model, grads, state, cfg)
        got = parameter_list(model)[0].reshape(-1)
        for k in range(4):
            want = self.scalar_adam(seqs[:, k], cfg)
            np.testing.assert_allclose(got[k], want, rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), h=st.integers(1, 4),
           t=st.integers(0, 10 ** 6), lr=st.floats(1e-8, 1.0))
    def test_adam_step_matches_train_flat_update(self, seed, h, t, lr):
        # adam_step on per-parameter gradients and train's flat update of
        # the same theta, gradient and state give the same bits
        rng = np.random.default_rng(seed)
        model = init_model(h=h, seed=seed)
        size = model.theta.size
        model.theta[...] = rng.normal(size=size) * 10.0 ** rng.uniform(-6, 2, size)
        g = rng.normal(size=size) * 10.0 ** rng.uniform(-8, 2, size)
        g[rng.random(size) < 0.1] = 0.0
        m = rng.normal(size=size) * 10.0 ** rng.uniform(-8, 1, size)
        v = rng.random(size) * 10.0 ** rng.uniform(-12, 2, size)
        theta = model.theta.copy()
        state = AdamState(m.copy(), v.copy(), t)
        adam_step(model, [p.copy() for p in parameter_list(layers_of(g, h))],
                  state, TrainConfig(learning_rate=lr))
        flat = AdamState(m, v, t)
        _adam_update(theta, g, flat, lr)
        assert state.t == flat.t == t + 1
        assert model.theta.tobytes() == theta.tobytes()
        assert state.m.tobytes() == flat.m.tobytes()
        assert state.v.tobytes() == flat.v.tobytes()

    def test_rejects_shape_mismatch(self):
        model, _ = random_check_instance(52)
        grads = [np.zeros_like(p) for p in parameter_list(model)]
        with pytest.raises(ValueError, match="expected 8 gradients, got 7"):
            adam_step(model, grads[:-1], init_adam_state(model), TrainConfig())
        grads[3] = np.zeros(7)
        with pytest.raises(ValueError):
            adam_step(model, grads, init_adam_state(model), TrainConfig())


class TestTrain:
    def small_corpus(self, rng, n_pos=8, n_neg=8):
        pairs = []
        for _ in range(n_pos):
            base = rng.uniform(-2.0, 2.0, size=(NUM_KEYPOINTS, 2))
            jit = base + rng.normal(scale=0.02, size=base.shape)
            pairs.append(PosePair(Pose(base), Pose(jit), 1, magnitude=0.02))
        for _ in range(n_neg):
            pairs.append(random_pair(rng, 0))
        return pairs

    def test_identical_pose_corpus_reaches_zero_loss(self):
        rng = np.random.default_rng(60)
        pairs = []
        for _ in range(6):
            p = Pose(rng.uniform(-2.0, 2.0, size=(NUM_KEYPOINTS, 2)))
            pairs.append(PosePair(p, p, 1))
        model = init_model(h=2, seed=1)
        cfg = TrainConfig(epochs=2, batch_size=4, seed=9)
        _, history = train(model, TOPO, pairs, cfg)
        assert history.mean_loss[-1] < 1e-6

    def test_loss_decreases_on_separable_corpus(self):
        pairs = self.small_corpus(np.random.default_rng(61), 20, 20)
        model = init_model(h=2, seed=2)
        cfg = TrainConfig(learning_rate=1e-3, epochs=8, batch_size=16, seed=3)
        _, history = train(model, TOPO, pairs, cfg)
        assert len(history.mean_loss) == 8
        assert history.mean_loss[-1] < history.mean_loss[0]

    def test_two_runs_bit_identical(self):
        pairs = self.small_corpus(np.random.default_rng(62), 6, 6)
        cfg = TrainConfig(epochs=3, batch_size=4, seed=5)
        m1, h1 = train(init_model(h=2, seed=4), TOPO, pairs, cfg)
        m2, h2 = train(init_model(h=2, seed=4), TOPO, pairs, cfg)
        assert h1.mean_loss == h2.mean_loss
        assert h1.mean_pos_dist == h2.mean_pos_dist
        assert h1.mean_neg_dist == h2.mean_neg_dist
        for p1, p2 in zip(parameter_list(m1), parameter_list(m2)):
            np.testing.assert_array_equal(p1, p2)

    def test_updates_callers_model_in_place(self):
        pairs = self.small_corpus(np.random.default_rng(66), 4, 4)
        cfg = TrainConfig(epochs=2, batch_size=3, seed=1)
        model = init_model(h=2, seed=4)
        theta, params = model.theta, parameter_list(model)
        before = theta.copy()
        trained, _ = train(model, TOPO, pairs, cfg)
        assert trained is model and model.theta is theta
        assert all(a is b for a, b in zip(parameter_list(model), params))
        assert not np.array_equal(theta, before)
        copy, _ = train(init_model(h=2, seed=4), TOPO, pairs, cfg)
        assert copy.theta.tobytes() == theta.tobytes()

    def test_matches_manual_loop_replica(self):
        # re-derive the documented loop from public pieces: seeded shuffle,
        # short batch kept, mean reduction, one adam step per batch
        pairs = self.small_corpus(np.random.default_rng(63), 3, 2)
        cfg = TrainConfig(epochs=2, batch_size=2, seed=7)

        model = init_model(h=2, seed=6)
        train(model, TOPO, pairs, cfg)

        replica = init_model(h=2, seed=6)
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        state = init_adam_state(replica)
        for _ in range(cfg.epochs):
            order = rng.permutation(len(pairs))
            for start in range(0, len(order), cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                accum = [np.zeros_like(p) for p in parameter_list(replica)]
                for idx in batch:
                    _, grads = pair_backward(replica, TOPO, pairs[idx], cfg,
                                             "gcn")
                    for a, g in zip(accum, grads):
                        a += g
                # batch sizes 2 and 1 make the mean scale exact in floats
                accum = [a * (1.0 / len(batch)) for a in accum]
                adam_step(replica, accum, state, cfg)
        for p, q in zip(parameter_list(model), parameter_list(replica)):
            np.testing.assert_array_equal(p, q)

    def test_positive_only_corpus_records_nan_negative_mean(self):
        rng = np.random.default_rng(64)
        pairs = [random_pair(rng, 1) for _ in range(4)]
        cfg = TrainConfig(epochs=1, batch_size=4, seed=1)
        _, history = train(init_model(h=2, seed=8), TOPO, pairs, cfg)
        assert np.isnan(history.mean_neg_dist[0])
        assert not np.isnan(history.mean_pos_dist[0])

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            train(init_model(h=2, seed=0), TOPO, [], TrainConfig())

    def test_history_csv_layout(self):
        pairs = self.small_corpus(np.random.default_rng(65), 3, 3)
        cfg = TrainConfig(epochs=3, batch_size=6, seed=2)
        _, history = train(init_model(h=2, seed=9), TOPO, pairs, cfg)
        text = history_csv(history)
        lines = text.splitlines()
        assert lines[0] == "epoch,mean_loss,mean_pos_dist,mean_neg_dist"
        assert len(lines) == 4
        assert lines[1].startswith("1,")
        assert lines[3].startswith("3,")
        assert text == history_csv(history)

    def test_history_columns_must_have_equal_length(self):
        with pytest.raises(ValueError, match="equal length"):
            TrainHistory([1.0, 0.5], [0.1], [0.9])


class TestConfigAndPairValidation:
    def test_pose_pair_label_validation(self):
        rng = np.random.default_rng(70)
        a = Pose(rng.uniform(size=(NUM_KEYPOINTS, 2)))
        with pytest.raises(ValueError):
            PosePair(a, a, 2)
        with pytest.raises(ValueError):
            PosePair(a, a, 1, magnitude=-0.5)
        PosePair(a, a, 1, magnitude=0.0)  # boundary is legal

    @pytest.mark.parametrize("label, magnitude", [
        (True, None), (False, None), (1.0, None),
        (1, float("inf")), (1, float("nan")),
    ])
    def test_pose_pair_rejects_non_int_label_and_non_finite_magnitude(
            self, label, magnitude):
        a = Pose(np.zeros((NUM_KEYPOINTS, 2)))
        with pytest.raises(ValueError):
            PosePair(a, a, label, magnitude=magnitude)

    @pytest.mark.parametrize("magnitude", [10 ** 400, -10 ** 400],
                             ids=["1e400", "-1e400"])
    def test_magnitude_int_too_large_for_a_float_is_not_a_number(
            self, magnitude):
        # float() of such an int raised OverflowError past the field's rule
        a = Pose(np.zeros((NUM_KEYPOINTS, 2)))
        with pytest.raises(ValueError, match=re.escape(
                f"magnitude must be a finite number >= 0, got {magnitude!r}")):
            PosePair(a, a, 1, magnitude=magnitude)

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(margin_m=2.5)
        with pytest.raises(ValueError):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("value", [2.5, 8.0, True, "3", 0, -2])
    @pytest.mark.parametrize("name", ["batch_size", "epochs"])
    def test_counts_must_be_ints_of_at_least_one(self, name, value):
        # floats used to fail only inside train, and batch_size=True
        # trained silently with batches of one
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be an int >= 1, got {value!r}")):
            TrainConfig(**{name: value})

    def test_integral_counts_accepted(self):
        cfg = TrainConfig(batch_size=np.int64(8), epochs=np.int32(2))
        assert (cfg.batch_size, cfg.epochs) == (8, 2)

    @pytest.mark.parametrize("lr", [math.inf, -math.inf, math.nan])
    def test_learning_rate_must_be_finite(self, lr):
        with pytest.raises(ValueError, match="learning_rate must be finite"):
            TrainConfig(learning_rate=lr)

    @pytest.mark.parametrize("value", ["1", "1e-3", True, False, None,
                                       10 ** 400, [0.1]])
    @pytest.mark.parametrize("name", ["learning_rate", "margin_m"])
    def test_float_fields_take_json_numbers_only(self, name, value):
        # a string used to raise TypeError, and margin_m=True trained as 1.0
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be ") + ".* got " + re.escape(repr(value))):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name", ["learning_rate", "margin_m"])
    def test_int_float_fields_accepted_as_floats(self, name):
        cfg = TrainConfig(**{name: 1})
        assert type(getattr(cfg, name)) is float and getattr(cfg, name) == 1.0

    def test_divergence_raises_naming_the_epoch(self):
        rng = np.random.default_rng(3)
        pairs = [random_pair(rng, k % 2) for k in range(8)]
        model = init_model(h=2, seed=4)
        cfg = TrainConfig(learning_rate=1e300, epochs=3, batch_size=4)
        with pytest.raises(ValueError, match="diverged in epoch 1"):
            train(model, TOPO, pairs, cfg)
        assert not np.all(np.isfinite(model.theta))

    # every place a seed enters takes the same rule
    SEEDED = {
        "ArchMeta": lambda s: ArchMeta(seed=s),
        "init_model": lambda s: init_model(h=2, seed=s),
        "TrainConfig": lambda s: TrainConfig(seed=s),
        "SynthConfig": lambda s: SynthConfig(seed=s),
        "split_corpus": lambda s: split_corpus([1, 2], 0.5, seed=s),
        "random_check_instance": random_check_instance,
    }

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, True, "3"])
    @pytest.mark.parametrize("entry", sorted(SEEDED))
    def test_one_seed_rule_names_the_seed(self, entry, seed):
        with pytest.raises(ValueError, match=re.escape(
                f"seed must fit in 64 unsigned bits: an int in [0, 2**64), "
                f"got {seed!r}")):
            self.SEEDED[entry](seed)

    @pytest.mark.parametrize("entry", sorted(SEEDED))
    def test_largest_seed_accepted(self, entry):
        self.SEEDED[entry](2 ** 64 - 1)

    def test_random_check_instance_is_deterministic(self):
        m1, p1 = random_check_instance(33)
        m2, p2 = random_check_instance(33)
        for a, b in zip(parameter_list(m1), parameter_list(m2)):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(p1.pose_a.keypoints, p2.pose_a.keypoints)
        assert random_check_instance(10)[1].label_y == 0
        assert random_check_instance(11)[1].label_y == 1


def bytes_only_table(pairs):
    """pair_table's keypoints and twins as a loop that keys every pose on
    its bytes alone."""
    rows, stack, twins = {}, [], []
    for pair in pairs:
        for pose in (pair.pose_a, pair.pose_b):
            row = rows.setdefault(pose.keypoints.tobytes(), len(stack))
            if row == len(stack):
                stack.append(pose.keypoints)
            twins.append(row)
    return (np.array(stack).reshape(-1, NUM_KEYPOINTS, 2),
            np.array(twins).reshape(-1, 2))


def _table_cases():
    """Poses, read two at a time as pairs."""
    rng = np.random.default_rng(8)
    a = Pose(rng.uniform(0.0, 300.0, size=(NUM_KEYPOINTS, 2)))
    b = Pose(rng.uniform(0.0, 300.0, size=(NUM_KEYPOINTS, 2)))
    zero = Pose(np.zeros((NUM_KEYPOINTS, 2)))
    negative_zero = Pose(-np.zeros((NUM_KEYPOINTS, 2)))
    # rows of one admitted stack, as a parsed pose file holds them
    stacked = [rec.pose for rec in parse_pose_file(write_pose_file(
        [PoseRecord(id=f"r{i}", pose=pose) for i, pose in enumerate([a, b, a])]))]
    return {
        "one-object-repeated": [a, a, b, a, b, b],
        "equal-bytes-objects": [a, Pose(a.keypoints.copy()), b,
                                Pose(b.keypoints.tolist()), a, b],
        "signed-zeros": [zero, negative_zero, negative_zero, zero],
        "stack-rows": stacked + [a, stacked[1], b],
    }


def pairs_of(poses):
    return [PosePair(poses[i], poses[i + 1], i // 2 % 2,
                     magnitude=None if i % 3 else 0.25 * i)
            for i in range(0, len(poses), 2)]


class TestPairTable:
    @pytest.mark.parametrize("name", list(_table_cases()))
    def test_matches_the_bytes_only_reference(self, name):
        pairs = pairs_of(_table_cases()[name])
        table = pair_table(iter(pairs))
        keypoints, twins = bytes_only_table(pairs)
        assert table.keypoints.shape == keypoints.shape
        assert table.keypoints.tobytes() == keypoints.tobytes()
        assert table.twins.dtype == np.intp
        assert table.twins.tolist() == twins.tolist()
        assert table.labels.tolist() == [pair.label_y for pair in pairs]
        assert table.magnitudes == tuple(pair.magnitude for pair in pairs)
        assert len(table) == len(pairs)
        for arr in (table.keypoints, table.twins, table.labels):
            with pytest.raises(ValueError, match="read-only"):
                arr.flat[0] = 0
        assert pair_table(table) is table

    def test_only_the_builders_make_a_table(self):
        table = pair_table(pairs_of(_table_cases()["stack-rows"]))
        fields = {name: getattr(table, name)
                  for name in ("keypoints", "twins", "labels", "magnitudes")}
        for args, kwargs in (((), {}), (tuple(fields.values()), {}), ((), fields)):
            with pytest.raises(TypeError, match="^a PairTable is built by "
                                                "load_corpus or pair_table$"):
                PairTable(*args, **kwargs)

    def test_signed_zeros_stay_distinct_rows(self):
        table = pair_table(pairs_of(_table_cases()["signed-zeros"]))
        assert table.twins.tolist() == [[0, 1], [1, 0]]
        assert not np.signbit(table.keypoints[0]).any()
        assert np.signbit(table.keypoints[1]).all()

    @pytest.mark.parametrize("pairs", [
        pytest.param([], id="no-pairs"),
        pytest.param(_admitted_table(np.empty((0, NUM_KEYPOINTS, 2)),
                                     np.empty((0, 2), dtype=np.intp),
                                     np.empty(0, dtype=np.intp), ()),
                     id="empty-table")])
    def test_empty_input_is_rejected(self, pairs):
        with pytest.raises(ValueError, match="pairs must be nonempty"):
            pair_table(pairs)


def table_keypoints():
    return np.random.default_rng(2).uniform(0.0, 300.0, (4, NUM_KEYPOINTS, 2))


def block(stack) -> str:
    """stack's bytes as a format 2 pose file's keypoint block."""
    return base64.b64encode(stack.tobytes()).decode("ascii")


def with_xs(row, values) -> str:
    """The valid corpus's keypoint block with the first x coordinates of one
    row set to values."""
    keypoints = table_keypoints()
    keypoints[row, :len(values), 0] = values
    return block(keypoints)


def table_files(tmp_path, file=None, key=None, value=None):
    """The pair file path of a valid two-pair corpus on four poses, p0 to p3,
    written in format 2 with value in place of the pose file's field key
    (file "poses") or the pair file's column key (file "pairs")."""
    docs = {"poses": json.loads(write_pose_file(
                PoseRecord(f"p{i}", Pose(kp))
                for i, kp in enumerate(table_keypoints()))),
            "pairs": json.loads(write_pair_file(PairFile("poses.json", (
                PairEntry("p0", "p1", 1, 0.25), PairEntry("p2", "p3", 0)))))}
    if file is not None:
        (docs["poses"] if file == "poses" else docs["pairs"]["pairs"])[key] = value
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    return tmp_path / "pairs.json"


class TestPairTableChecks:
    """No table holds a value its rule excludes: load_corpus, the builder
    that reads files, names each fault by its field or row before it builds
    one, as PosePair's and Pose's own checks do for pair_table."""

    def test_valid_table(self, tmp_path):
        table, _ = load_corpus(table_files(tmp_path, "pairs", "magnitude",
                                           [0.0, None]))
        assert len(table) == 2 and table.magnitudes == (0.0, None)
        assert table.keypoints.tobytes() == table_keypoints().tobytes()
        assert table.twins.tolist() == [[0, 1], [2, 3]]
        assert table.labels.tolist() == [1, 0]
        for name in ("keypoints", "twins", "labels"):
            assert not getattr(table, name).flags.writeable

    @pytest.mark.parametrize("file, key, value, message", [
        ("poses", "keypoints", block(np.zeros((4, NUM_KEYPOINTS, 3))),
         "pose file 'keypoints' holds 1440 bytes, not the 960 of 4 records"),
        ("poses", "keypoints", block(np.zeros((NUM_KEYPOINTS, 2))),
         "pose file 'keypoints' holds 240 bytes, not the 960 of 4 records"),
        ("poses", "keypoints", block(np.zeros((4, NUM_KEYPOINTS, 2), np.float32)),
         "pose file 'keypoints' holds 480 bytes, not the 960 of 4 records"),
        ("poses", "keypoints", [[[0.0, 0.0]] * NUM_KEYPOINTS] * 4,
         "pose file 'keypoints' must be a base64 string, got list"),
        ("poses", "keypoints", with_xs(2, [math.nan]),
         "record 'p2': keypoints contains non-finite values"),
        ("poses", "keypoints", with_xs(1, [-1e308, 1e308]),
         "record 'p1': keypoints x extent 1e+308 - -1e+308 overflows float64"),
        ("pairs", "a", [0.0, 2.0],
         "pair at index 0: pair field a must be a nonempty string, got 0.0"),
        ("pairs", "a", ["p0", "p1", "p2", "p3"],
         "pair file 'pairs' columns must have one length, got a 4, b 2, y 2, "
         "magnitude 2"),
        ("pairs", "b", ["p1", "p4"], "pair references unknown pose id 'p4'"),
        ("pairs", "b", ["", "p3"],
         "pair at index 0: pair field b must be a nonempty string, got ''"),
        ("pairs", "y", [1, 0, 1],
         "pair file 'pairs' columns must have one length, got a 2, b 2, y 3, "
         "magnitude 2"),
        ("pairs", "y", [True, False],
         "pair at index 0: y must be 0 or 1 (an int), got True"),
        ("pairs", "y", [2, 0], "pair at index 0: y must be 0 or 1 (an int), got 2"),
        ("pairs", "y", [1, -1],
         "pair at index 1: y must be 0 or 1 (an int), got -1"),
        ("pairs", "magnitude", {"0": 0.25},
         "pair file 'pairs' column 'magnitude' must be a list, got dict"),
        ("pairs", "magnitude", [0.25],
         "pair file 'pairs' columns must have one length, got a 2, b 2, y 2, "
         "magnitude 1"),
        ("pairs", "magnitude", [None, -5.0],
         "pair at index 1: magnitude must be a finite number >= 0, got -5.0"),
        ("pairs", "magnitude", [math.inf, None],
         "pair at index 0: magnitude must be a finite number >= 0, got inf"),
        ("pairs", "magnitude", [math.nan, None],
         "pair at index 0: magnitude must be a finite number >= 0, got nan"),
    ], ids=["keypoints-coords", "keypoints-one-pose", "keypoints-float32",
            "keypoints-list", "keypoints-nan", "keypoints-extent",
            "twins-float", "twins-flat", "twins-past-stack", "twins-negative",
            "labels-length", "labels-bool", "labels-two", "labels-negative",
            "magnitudes-list", "magnitudes-length", "magnitudes-negative",
            "magnitudes-inf", "magnitudes-nan"])
    def test_fault_names_its_field(self, tmp_path, file, key, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_corpus(table_files(tmp_path, file, key, value))
