"""Scoring tests. The Spearman oracle builds ranks by explicit counting and
correlates them with a pure-Python Pearson; the end-to-end score oracle
rebuilds the whole chain (normalization, graph propagation, MLP, distance,
score) with loops and math-module arithmetic only."""

import itertools
import math

import numpy as np
import pytest

from posesim.network import _run_layers, _variant_layers, init_model
from posesim.scoring import (
    EVAL_CHUNK,
    EvalReport,
    EvalRow,
    ScoreParams,
    _clipped_distances,
    evaluate,
    report_csv,
    report_summary_csv,
    score_pair,
    similarity_score,
    spearman_rho,
)
from posesim.skeleton import (NUM_KEYPOINTS, Pose, SKELETON_EDGES,
                              build_skeleton_topology, normalize_stack)
from posesim.training import PairTable, PosePair, cosine_distances

TOPO = build_skeleton_topology()


def oracle_ranks(vals):
    ranks = []
    for v in vals:
        less = sum(1 for w in vals if w < v)
        equal = sum(1 for w in vals if w == v)
        ranks.append(less + (equal + 1) / 2)
    return ranks


def oracle_spearman(xs, ys):
    rx, ry = oracle_ranks(xs), oracle_ranks(ys)
    n = len(rx)
    mx, my = math.fsum(rx) / n, math.fsum(ry) / n
    cov = math.fsum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = math.fsum((a - mx) ** 2 for a in rx)
    vy = math.fsum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)


class TestSimilarityScore:
    def test_zero_distance_scores_exactly_100(self):
        assert similarity_score(0.0) == 100.0

    def test_reference_points(self):
        assert abs(similarity_score(0.3) - 60.6531) < 1e-3
        assert abs(similarity_score(0.3) - 100.0 * math.exp(-0.5)) < 1e-12
        assert abs(similarity_score(0.6) - 13.5335) < 1e-3
        assert abs(similarity_score(0.6) - 100.0 * math.exp(-2.0)) < 1e-12

    def test_strictly_decreasing_on_grid(self):
        grid = np.linspace(0.0, 2.0, 1000)
        scores = [similarity_score(float(d)) for d in grid]
        assert all(b < a for a, b in zip(scores, scores[1:]))

    def test_custom_params(self):
        p = ScoreParams(amplitude_sigma=7.5, width_u=1.0)
        assert similarity_score(0.0, p) == 7.5
        assert abs(similarity_score(1.0, p) - 7.5 * math.exp(-0.5)) < 1e-12

    def test_rejects_negative_and_non_finite(self):
        with pytest.raises(ValueError):
            similarity_score(-1e-9)
        with pytest.raises(ValueError):
            similarity_score(float("nan"))
        # checked_float's rule: no bool, no string, no int past a float
        for d_c in (True, "0.3", 10 ** 400):
            with pytest.raises(ValueError, match="d_c must be finite"):
                similarity_score(d_c)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            ScoreParams(amplitude_sigma=0.0)
        with pytest.raises(ValueError):
            ScoreParams(width_u=-0.3)

    @pytest.mark.parametrize("field", ["amplitude_sigma", "width_u"])
    @pytest.mark.parametrize("value", [
        math.inf, math.nan, True, "0.3",
        pytest.param(10 ** 400, id="10**400")])
    def test_params_must_be_finite(self, field, value):
        # checked_float's rule: no bool, no string, no int past a float
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ScoreParams(**{field: value})

    def test_params_store_floats(self):
        params = ScoreParams(amplitude_sigma=100, width_u=1)
        assert type(params.amplitude_sigma) is float and type(params.width_u) is float


class TestSpearman:
    def test_identical_orderings(self):
        assert spearman_rho([3.0, 1.0, 2.0], [3.0, 1.0, 2.0]) == 1.0
        assert spearman_rho([10, 20, 30, 40], [1, 2, 3, 4]) == 1.0

    def test_reversed_orderings(self):
        assert spearman_rho([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0

    def test_known_swap_value(self):
        assert spearman_rho([1, 2, 3, 4], [1, 3, 2, 4]) == 0.8

    def test_all_permutations_up_to_six(self):
        for n in range(2, 7):
            xs = list(range(1, n + 1))
            for perm in itertools.permutations(xs):
                got = spearman_rho(xs, perm)
                want = oracle_spearman(xs, list(perm))
                assert abs(got - want) <= 1e-12
                assert -1.0 <= got <= 1.0

    def test_random_tied_lists_match_oracle(self):
        rng = np.random.default_rng(77)
        done = 0
        while done < 1000:
            n = int(rng.integers(2, 30))
            # small integer alphabets force heavy ties
            xs = rng.integers(0, max(2, n // 2), size=n).astype(float)
            ys = rng.integers(0, max(2, n // 2), size=n).astype(float)
            if np.all(xs == xs[0]) or np.all(ys == ys[0]):
                continue
            got = spearman_rho(xs, ys)
            want = oracle_spearman(list(xs), list(ys))
            assert abs(got - want) <= 1e-12
            done += 1

    def test_tie_free_matches_d_squared_formula(self):
        rng = np.random.default_rng(78)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            xs = rng.permutation(n).astype(float)
            ys = rng.permutation(n).astype(float)
            d2 = sum((rx - ry) ** 2
                     for rx, ry in zip(oracle_ranks(xs), oracle_ranks(ys)))
            want = 1.0 - 6.0 * d2 / (n * (n * n - 1))
            assert abs(spearman_rho(xs, ys) - want) <= 1e-12

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(79)
        xs = rng.integers(0, 5, size=25).astype(float)
        ys = rng.normal(size=25)
        base = spearman_rho(xs, ys)
        assert spearman_rho(xs ** 3, ys) == base
        assert spearman_rho(xs, np.exp(ys)) == base

    def test_error_cases(self):
        with pytest.raises(ValueError):
            spearman_rho([1.0], [2.0])
        with pytest.raises(ValueError):
            spearman_rho([1, 2, 3], [1, 2])
        with pytest.raises(ValueError, match="variance"):
            spearman_rho([5, 5, 5], [1, 2, 3])
        with pytest.raises(ValueError, match="variance"):
            spearman_rho([1, 2, 3], [2, 2, 2])
        with pytest.raises(ValueError):
            spearman_rho([1, np.nan, 3], [1, 2, 3])

    @pytest.mark.parametrize("xs, ys, what", [
        (["1", "2", "3"], [1, 2, 3], "xs"),
        ([1, 2, 3], [True, False, True], "ys"),
        ([1.0, 2.0, 3.0], [1, np.True_, 3], "ys"),
        (np.array(["1", "2", "3"]), [1, 2, 3], "xs"),
        ([3, 1, 2], np.array([True, False, True]), "ys"),
    ], ids=["str-xs", "bool-ys", "numpy-bool-ys", "str-array-xs",
            "bool-array-ys"])
    def test_bools_and_strings_are_not_numbers(self, xs, ys, what):
        # numpy's float conversion would read each of these as numbers
        with pytest.raises(ValueError, match=f"^{what} must hold numbers, "
                                             f"not bools or strings$"):
            spearman_rho(xs, ys)


def chain_reference_score(model, coords_a, coords_b):
    """Rebuild the full pipeline with Python loops: min-max normalization,
    degree-normalized self-looped adjacency, two graph layers, MLP head,
    cosine distance, Gaussian score."""
    n = NUM_KEYPOINTS
    adj = [[0.0] * n for _ in range(n)]
    for i, j in SKELETON_EDGES:
        adj[i][j] = adj[j][i] = 1.0
    for i in range(n):
        adj[i][i] = 1.0
    deg = [sum(row) for row in adj]
    a_norm = [[adj[i][j] / math.sqrt(deg[i] * deg[j]) for j in range(n)]
              for i in range(n)]

    def norm_pose(coords):
        out = [[0.0, 0.0] for _ in range(n)]
        for axis in range(2):
            col = [c[axis] for c in coords]
            lo, hi = min(col), max(col)
            for i in range(n):
                out[i][axis] = 0.5 if hi == lo else (col[i] - lo) / (hi - lo)
        return out

    def matmul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
                 for j in range(len(b[0]))] for i in range(len(a))]

    def embed(coords):
        h = norm_pose(coords)
        for w in model.gcn_weights:
            h = matmul(matmul(a_norm, h), w.tolist())
            h = [[v if v > 0 else 0.0 for v in row] for row in h]
        vec = [v for row in h for v in row]
        for li, layer in enumerate(model.mlp_layers):
            w, b = layer.w.tolist(), layer.b.tolist()
            vec = [sum(vec[i] * w[i][j] for i in range(len(vec))) + b[j]
                   for j in range(len(b))]
            if li < 2:
                vec = [v if v > 0 else 0.0 for v in vec]
        return vec

    e1, e2 = embed(coords_a), embed(coords_b)
    dot = math.fsum(x * y for x, y in zip(e1, e2))
    n1 = max(math.sqrt(math.fsum(x * x for x in e1)), 1e-12)
    n2 = max(math.sqrt(math.fsum(y * y for y in e2)), 1e-12)
    d = 1.0 - dot / (n1 * n2)
    return d, 100.0 * math.exp(-0.5 * (d / 0.3) ** 2)


class TestScorePair:
    def test_identical_poses_score_100(self):
        # seed 1 initializes a model whose embeddings stay well off zero
        model = init_model(h=2, seed=1)
        pose = Pose(np.random.default_rng(1).uniform(-2, 2, (NUM_KEYPOINTS, 2)))
        d, score = score_pair(model, TOPO, pose, pose)
        assert d == 0.0
        assert score == 100.0

    def test_affine_transformed_pose_scores_100(self):
        model = init_model(h=2, seed=1)
        rng = np.random.default_rng(2)
        pts = rng.uniform(-2, 2, (NUM_KEYPOINTS, 2))
        moved = pts.copy()
        moved[:, 0] = 4.2 * moved[:, 0] - 310.0
        moved[:, 1] = 0.15 * moved[:, 1] + 77.0
        d, score = score_pair(model, TOPO, Pose(pts), Pose(moved))
        assert d < 1e-10
        assert score == 100.0

    def test_matches_full_chain_reference(self):
        model = init_model(h=2, seed=42)
        rng = np.random.default_rng(42)
        for variant_check in range(3):
            a = rng.uniform(-3, 3, (NUM_KEYPOINTS, 2))
            b = rng.uniform(-3, 3, (NUM_KEYPOINTS, 2))
            d, score = score_pair(model, TOPO, Pose(a), Pose(b))
            want_d, want_score = chain_reference_score(model, a.tolist(),
                                                       b.tolist())
            assert abs(d - want_d) < 1e-8
            assert abs(score - want_score) < 1e-8

    def test_variants_differ(self):
        model = init_model(h=2, seed=4)
        rng = np.random.default_rng(5)
        a = Pose(rng.uniform(-3, 3, (NUM_KEYPOINTS, 2)))
        b = Pose(rng.uniform(-3, 3, (NUM_KEYPOINTS, 2)))
        d_gcn, _ = score_pair(model, TOPO, a, b, variant="gcn")
        d_mlp, _ = score_pair(model, TOPO, a, b, variant="mlp")
        assert d_gcn != d_mlp


class TestClippedDistances:
    def test_antiparallel_pair_clips_to_two(self):
        # 1 - cos of e and -3e rounds one ulp past 2 here, under every
        # OpenBLAS kernel tried (SkylakeX, Haswell, Sandybridge, Nehalem,
        # Prescott); the clip brings it back to the domain's end
        e = np.array([0.85, 0.01, -0.12])
        pair = np.stack([e, -3.0 * e])
        assert cosine_distances(pair)[0] > 2.0
        assert _clipped_distances(pair).tolist() == [2.0]


class TestEvaluate:
    def graded_pairs(self, rng, mags):
        pairs = []
        for mag in mags:
            base = rng.uniform(-2, 2, (NUM_KEYPOINTS, 2))
            noisy = base + rng.normal(scale=mag if mag > 0 else 1e-9,
                                      size=base.shape)
            pairs.append(PosePair(Pose(base), Pose(noisy), 1, magnitude=mag))
        return pairs

    def test_identical_pose_pairs_give_100_and_no_rho(self):
        rng = np.random.default_rng(11)
        pose = Pose(rng.uniform(-2, 2, (NUM_KEYPOINTS, 2)))
        pairs = [PosePair(pose, pose, 1, magnitude=0.0) for _ in range(5)]
        report = evaluate(init_model(h=2, seed=1), TOPO, pairs)
        assert all(r.score == 100.0 for r in report.rows)
        assert report.spearman_rho is None  # constant ranks on both sides

    def test_rho_matches_direct_spearman(self):
        rng = np.random.default_rng(12)
        mags = [0.01, 0.05, 0.1, 0.2, 0.4, 0.8]
        pairs = self.graded_pairs(rng, mags)
        model = init_model(h=2, seed=2)
        report = evaluate(model, TOPO, pairs)
        scores = [r.score for r in report.rows]
        want = spearman_rho(scores, [-m for m in mags])
        assert report.spearman_rho == want
        assert -1.0 <= report.spearman_rho <= 1.0

    def test_rho_omitted_without_magnitudes(self):
        rng = np.random.default_rng(13)
        pairs = [
            PosePair(Pose(rng.uniform(-2, 2, (NUM_KEYPOINTS, 2))),
                     Pose(rng.uniform(-2, 2, (NUM_KEYPOINTS, 2))), label)
            for label in (1, 0, 1, 0)
        ]
        report = evaluate(init_model(h=2, seed=3), TOPO, pairs)
        assert report.spearman_rho is None
        assert math.isfinite(report.mean_pos_dist)
        assert math.isfinite(report.mean_neg_dist)

    def test_distance_means_by_label(self):
        rng = np.random.default_rng(14)
        pairs = []
        for label in (1, 1, 0):
            a = Pose(rng.uniform(-2, 2, (NUM_KEYPOINTS, 2)))
            b = Pose(rng.uniform(-2, 2, (NUM_KEYPOINTS, 2)))
            pairs.append(PosePair(a, b, label))
        report = evaluate(init_model(h=2, seed=4), TOPO, pairs)
        pos = [r.d_c for r in report.rows if r.label == 1]
        neg = [r.d_c for r in report.rows if r.label == 0]
        assert report.mean_pos_dist == float(np.mean(pos))
        assert report.mean_neg_dist == float(np.mean(neg))

    def test_pair_id_defaults_and_overrides(self):
        rng = np.random.default_rng(15)
        pose = Pose(rng.uniform(-2, 2, (NUM_KEYPOINTS, 2)))
        pairs = [PosePair(pose, pose, 1)] * 3
        report = evaluate(init_model(h=2, seed=5), TOPO, pairs)
        assert [r.pair_id for r in report.rows] == ["0", "1", "2"]
        report = evaluate(init_model(h=2, seed=5), TOPO, pairs,
                          pair_ids=["a", "b", "c"])
        assert [r.pair_id for r in report.rows] == ["a", "b", "c"]
        with pytest.raises(ValueError):
            evaluate(init_model(h=2, seed=5), TOPO, pairs, pair_ids=["a"])

    def test_pair_id_a_csv_field_would_quote_is_rejected(self):
        pose = Pose(np.zeros((NUM_KEYPOINTS, 2)))
        pairs = [PosePair(pose, pose, 1)] * 4
        model = init_model(h=2, seed=5)
        for bad in ("a,b", 'a"b', "c\nd", "c\rd"):
            # the first offending id is named, not the later one
            with pytest.raises(ValueError, match="holds a comma, a double "
                                                 "quote or a line break") as info:
                evaluate(model, TOPO, pairs, pair_ids=["ok", bad, "x,y", "z"])
            assert str(info.value).startswith(f"pair_id {bad!r} ")

    @pytest.mark.parametrize("variant", ["gcn", "mlp"])
    def test_distance_not_finite_raises_score_pairs_error(self, variant):
        # finite weights that overflow the forward pass give NaN distances,
        # which no score may take: evaluate names the first such pair with
        # the message score_pair raises on it
        rng = np.random.default_rng(17)
        poses = [Pose(rng.uniform(-2, 2, (NUM_KEYPOINTS, 2))) for _ in range(3)]
        pairs = [PosePair(poses[0], poses[1], 1, magnitude=0.1),
                 PosePair(poses[1], poses[2], 0),
                 PosePair(poses[2], poses[0], 1, magnitude=0.2)]
        model = init_model(h=2, seed=4)
        model.theta[...] *= 1e200
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError) as solo:
                score_pair(model, TOPO, poses[0], poses[1], variant=variant)
            with pytest.raises(ValueError) as info:
                evaluate(model, TOPO, pairs, variant=variant,
                         pair_ids=["a:b", "b:c", "c:a"])
        assert str(solo.value) == "d_c must be finite and >= 0, got nan"
        assert str(info.value) == f"pair 'a:b': {solo.value}"

    def test_rows_are_named_tuples_in_field_order(self):
        pose = Pose(np.zeros((NUM_KEYPOINTS, 2)))
        report = evaluate(init_model(h=2, seed=5), TOPO,
                          [PosePair(pose, pose, 1, magnitude=0.5)])
        row = report.rows[0]
        assert isinstance(row, EvalRow)
        assert row._fields == ("pair_id", "d_c", "score", "label", "magnitude")
        assert tuple(row) == ("0", row.d_c, row.score, 1, 0.5)
        assert type(row.d_c) is float and type(row.score) is float

    @pytest.mark.parametrize("variant", ["gcn", "mlp"])
    def test_chunked_distances_match_one_gather_and_score_pair(self, variant):
        # more than two chunks of pairs, the last one short, over rows that
        # repeat in and across chunks
        rng = np.random.default_rng(16)
        m = 2 * EVAL_CHUNK + 37
        table = PairTable(rng.uniform(-2, 2, (300, NUM_KEYPOINTS, 2)),
                          rng.integers(0, 300, (m, 2)), rng.integers(0, 2, m),
                          (None,) * m)
        model = init_model(h=2, seed=4)
        report = evaluate(model, TOPO, table, variant=variant)
        emb = _run_layers(_variant_layers(model, variant), TOPO,
                          normalize_stack(table.keypoints))
        gathered = _clipped_distances(emb[table.twins.reshape(-1)])
        dists = np.array([row.d_c for row in report.rows])
        assert dists.tobytes() == gathered.tobytes()
        poses = [Pose(kp) for kp in table.keypoints]
        assert [(row.d_c, row.score) for row in report.rows] == [
            score_pair(model, TOPO, poses[a], poses[b], variant=variant)
            for a, b in table.twins.tolist()]

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            evaluate(init_model(h=2, seed=6), TOPO, [])


class TestReportCsv:
    def build_report(self):
        rng = np.random.default_rng(16)
        pairs = []
        for i, mag in enumerate([0.01, 0.1, None]):
            a = Pose(rng.uniform(-2, 2, (NUM_KEYPOINTS, 2)))
            b = Pose(rng.uniform(-2, 2, (NUM_KEYPOINTS, 2)))
            pairs.append(PosePair(a, b, 1 if i < 2 else 0, magnitude=mag))
        return evaluate(init_model(h=2, seed=7), TOPO, pairs)

    def test_per_pair_layout_and_round_trip(self):
        report = self.build_report()
        text = report_csv(report)
        lines = text.splitlines()
        assert lines[0] == "pair_id,d_c,score,label,magnitude"
        assert len(lines) == 4
        for line, row in zip(lines[1:], report.rows):
            pid, d, s, label, mag = line.split(",")
            assert pid == row.pair_id
            assert float(d) == row.d_c  # repr round-trips float64 exactly
            assert float(s) == row.score
            assert int(label) == row.label
            assert mag == ("" if row.magnitude is None else repr(row.magnitude))

    def test_summary_layout(self):
        report = self.build_report()
        text = report_summary_csv(report)
        lines = text.splitlines()
        assert lines[0] == "spearman_rho,mean_pos_dist,mean_neg_dist"
        rho, pos, neg = lines[1].split(",")
        assert float(pos) == report.mean_pos_dist
        assert float(neg) == report.mean_neg_dist
        assert (rho == "") == (report.spearman_rho is None)

    def test_undefined_rho_serializes_empty(self):
        report = EvalReport(rows=(), spearman_rho=None, mean_pos_dist=0.1,
                            mean_neg_dist=0.9)
        assert report_summary_csv(report).splitlines()[1].startswith(",")

    def test_csv_is_deterministic(self):
        a = report_csv(self.build_report())
        b = report_csv(self.build_report())
        assert a == b
