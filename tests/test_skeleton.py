import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posesim.skeleton import (
    NUM_KEYPOINTS,
    SKELETON_EDGES,
    NormalizedPose,
    Pose,
    build_skeleton_topology,
    normalize_pose,
    normalize_stack,
    number_array,
)


def brute_force_normalized_adjacency(edges, n):
    """Independent oracle: explicit loops, no shared code with the library."""
    chat = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        chat[i][j] = 1.0
        chat[j][i] = 1.0
    deg = [sum(row) for row in chat]
    out = [[chat[i][j] / math.sqrt(deg[i] * deg[j]) for j in range(n)] for i in range(n)]
    return np.array(out)


def pattern(topo):
    """The 0/1 nonzero pattern of the normalized adjacency."""
    return (topo != 0.0).astype(np.float64)


def random_pose(rng):
    return Pose(rng.uniform(0.0, 300.0, size=(NUM_KEYPOINTS, 2)))


class TestTopology:
    def test_edge_count(self):
        assert len(SKELETON_EDGES) == 14

    def test_self_loops(self):
        topo = build_skeleton_topology()
        assert np.all(np.diag(topo) > 0.0)

    def test_raw_adjacency_symmetric_binary(self):
        # the nonzero pattern of the normalized adjacency is A + I
        c = pattern(build_skeleton_topology())
        assert np.array_equal(c, c.T)
        assert np.all((c == 0.0) | (c == 1.0))

    def test_off_diagonal_matches_edge_list(self):
        c = pattern(build_skeleton_topology())
        edge_set = {frozenset(e) for e in SKELETON_EDGES}
        for i in range(NUM_KEYPOINTS):
            for j in range(NUM_KEYPOINTS):
                if i == j:
                    continue
                assert c[i, j] == (1.0 if frozenset((i, j)) in edge_set else 0.0)

    def test_degrees_match_kinematic_tree(self):
        c = pattern(build_skeleton_topology())
        degrees = c.sum(axis=1) - 1.0  # minus self-loop
        # leaf joints: ankles, wrists, head
        for leaf in (0, 6, 7, 13, 14):
            assert degrees[leaf] == 1.0
        assert degrees[3] == 3.0   # pelvis
        assert degrees[10] == 4.0  # neck

    def test_normalized_entry_node0_node1(self):
        # node 0 has degree-with-loop 2, node 1 has 3
        topo = build_skeleton_topology()
        expected = 1.0 / math.sqrt(2.0 * 3.0)
        assert topo[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_normalized_matches_brute_force(self):
        topo = build_skeleton_topology()
        oracle = brute_force_normalized_adjacency(SKELETON_EDGES, NUM_KEYPOINTS)
        np.testing.assert_allclose(topo, oracle, rtol=0.0, atol=1e-12)

    def test_normalized_symmetric_exactly(self):
        topo = build_skeleton_topology()
        assert np.array_equal(topo, topo.T)

    def test_eigenvalues_within_unit_interval(self):
        topo = build_skeleton_topology()
        eigenvalues = np.linalg.eigvalsh(topo)
        assert eigenvalues.min() >= -1.0 - 1e-12
        assert eigenvalues.max() <= 1.0 + 1e-12

    def test_deterministic_and_shared(self):
        t1 = build_skeleton_topology()
        t2 = build_skeleton_topology()
        assert t1 is t2
        assert t1.shape == (NUM_KEYPOINTS, NUM_KEYPOINTS)
        assert t1.dtype == np.float64
        assert not t1.flags.writeable


class TestSymmetricNormalize:
    def test_skeleton_matrix_matches_oracle(self):
        # the matrix form D^-1/2 (A + I) D^-1/2, built with numpy from the edges
        c = np.eye(NUM_KEYPOINTS)
        for i, j in SKELETON_EDGES:
            c[i, j] = c[j, i] = 1.0
        d_inv_sqrt = np.diag(c.sum(axis=1) ** -0.5)
        np.testing.assert_allclose(build_skeleton_topology(),
                                   d_inv_sqrt @ c @ d_inv_sqrt,
                                   rtol=0.0, atol=1e-15)


class TestNormalizePose:
    def _span_pose(self):
        # keypoints spanning x in [10, 20], y in [30, 50]
        kp = np.column_stack([
            np.linspace(10.0, 20.0, NUM_KEYPOINTS),
            np.linspace(30.0, 50.0, NUM_KEYPOINTS),
        ])
        kp[0] = (10.0, 30.0)
        kp[1] = (20.0, 50.0)
        kp[2] = (15.0, 40.0)
        return Pose(kp)

    def test_minimum_maps_to_zero(self):
        result = normalize_pose(self._span_pose())
        np.testing.assert_array_equal(result.features[0], [0.0, 0.0])

    def test_maximum_maps_to_one(self):
        result = normalize_pose(self._span_pose())
        np.testing.assert_array_equal(result.features[1], [1.0, 1.0])

    def test_midpoint_maps_to_half(self):
        result = normalize_pose(self._span_pose())
        np.testing.assert_allclose(result.features[2], [0.5, 0.5], atol=1e-15)

    def test_output_range_and_extremes(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            result = normalize_pose(random_pose(rng)).features
            assert result.min() >= 0.0
            assert result.max() <= 1.0
            for axis in range(2):
                assert result[:, axis].min() == 0.0
                assert result[:, axis].max() == 1.0

    def test_degenerate_axis_maps_to_half(self):
        kp = np.column_stack([
            np.full(NUM_KEYPOINTS, 40.0),
            np.linspace(0.0, 10.0, NUM_KEYPOINTS),
        ])
        result = normalize_pose(Pose(kp))
        np.testing.assert_array_equal(result.features[:, 0], np.full(NUM_KEYPOINTS, 0.5))
        assert result.features[:, 1].max() == 1.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            pose = random_pose(rng)
            a, c = rng.uniform(0.1, 10.0, size=2)
            b, d = rng.uniform(-1e3, 1e3, size=2)
            transformed = Pose(pose.keypoints * [a, c] + [b, d])
            base = normalize_pose(pose).features
            moved = normalize_pose(transformed).features
            np.testing.assert_allclose(moved, base, rtol=0.0, atol=1e-12)


def _with_leaf(leaf):
    """Zero keypoints as nested lists, with one coordinate replaced by leaf."""
    kp = np.zeros((NUM_KEYPOINTS, 2)).tolist()
    kp[3][1] = leaf
    return kp


class TestPoseValidation:
    def test_wrong_keypoint_count(self):
        with pytest.raises(ValueError, match="shape"):
            Pose(np.zeros((14, 2)))

    def test_non_finite_coordinate(self):
        kp = np.zeros((NUM_KEYPOINTS, 2))
        kp[4, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Pose(kp)

    @pytest.mark.parametrize("kp, message", [
        (_with_leaf("0.5"), "not bools or strings"),
        (_with_leaf(True), "not bools or strings"),
        (_with_leaf(False), "not bools or strings"),
        (_with_leaf(np.True_), "not bools or strings"),
        (_with_leaf(b"1"), "not bools or strings"),
        ([["abc", 1.0]] * 15, r"\(could not convert string to float: 'abc'\)"),
        ([[1.0, 2.0]] * 14 + [[1.0]], r"\(setting an array element with a sequence"),
    ], ids=["str", "true", "false", "np-true", "bytes", "word", "ragged"])
    def test_bool_and_string_coordinates_rejected(self, kp, message):
        # numpy's own conversion errors come back naming the field as well
        with pytest.raises(ValueError, match="^keypoints must hold numbers.*" + message):
            Pose(kp)

    @pytest.mark.parametrize("dtype", [bool, str, object])
    def test_non_numeric_array_dtype_rejected(self, dtype):
        with pytest.raises(ValueError, match="must hold numbers"):
            Pose(np.zeros((NUM_KEYPOINTS, 2)).astype(dtype))

    def test_int_coordinates_accepted(self):
        kp = np.arange(2 * NUM_KEYPOINTS).reshape(NUM_KEYPOINTS, 2)
        for values in (kp, kp.tolist(), list(kp)):
            assert Pose(values).keypoints.tobytes() == kp.astype(float).tobytes()

    def test_keypoints_are_read_only(self):
        pose = Pose(np.zeros((NUM_KEYPOINTS, 2)))
        with pytest.raises(ValueError):
            pose.keypoints[0, 0] = 1.0

    def test_normalized_pose_comes_only_from_normalize_pose(self):
        normalized = normalize_pose(random_pose(np.random.default_rng(5)))
        features = normalized.features
        assert not features.flags.writeable
        for args in ((), (features,), (np.full((NUM_KEYPOINTS, 2), 1.5),)):
            with pytest.raises(TypeError, match="^a NormalizedPose is built "
                                                "by normalize_pose$"):
                NormalizedPose(*args)
        with pytest.raises(TypeError, match="built by normalize_pose"):
            dataclasses.replace(normalized, features=features)


# leaves of nested lists: JSON's floats and ints, a huge int, and leaves
# numpy converts but the rule refuses
NESTED_LEAVES = (st.floats() | st.integers(-2 ** 70, 2 ** 70)
                 | st.sampled_from([10 ** 400, True, "0.5", None, b"1"]))


class TestNumberArrayFlatPath:
    """number_array has one conversion for nested sequences: nested lists
    of any leaves, ragged or of the wrong shape included, give the bytes,
    or the error text, that the same values under a top-level tuple give."""

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.lists(NESTED_LEAVES, min_size=1, max_size=3),
                           min_size=1, max_size=3),
           shape=st.sampled_from([(1, 1), (2, 2), (3, 2), (2, 3), (3, 3)]))
    @example(values=[[1, 2.5], [-0.0, 2 ** 70]], shape=(2, 2))
    @example(values=[[1.0, 10 ** 400]], shape=(1, 2))
    def test_matches_the_general_conversion(self, values, shape):
        def convert(v):
            try:
                return number_array(v, shape, "x").tobytes()
            except ValueError as exc:
                return str(exc)
        assert convert(values) == convert(tuple(values))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestExtentOverflow:
    """Finite keypoints whose extent overflows float64 are rejected at Pose,
    and extreme but valid poses normalize without a RuntimeWarning (which
    this class turns into an error, as -W error::RuntimeWarning would)."""

    @pytest.mark.parametrize("axis, name", [(0, "x"), (1, "y")])
    def test_overflowing_extent_rejected(self, axis, name):
        kp = np.zeros((NUM_KEYPOINTS, 2))
        kp[0, axis] = -1e308
        kp[1, axis] = 1e308
        with pytest.raises(ValueError, match=f"{name} extent .* overflows"):
            Pose(kp)

    def test_largest_finite_extent_normalizes(self):
        kp = np.zeros((NUM_KEYPOINTS, 2))
        kp[:, 0] = np.linspace(-8.9e307, 8.9e307, NUM_KEYPOINTS)
        kp[:, 1] = -1e308  # degenerate axis at the edge of the range
        features = normalize_pose(Pose(kp)).features
        assert features[0, 0] == 0.0 and features[-1, 0] == 1.0
        assert np.all(features[:, 1] == 0.5)
        stack = normalize_stack(np.stack([kp, kp[::-1], np.zeros_like(kp)]))
        np.testing.assert_array_equal(stack[0], features)
        np.testing.assert_array_equal(stack[2], np.full_like(kp, 0.5))


def minmax_normalize_stack(keypoints):
    """normalize_stack as two min/max reductions computed it, frozen: the
    reference the one-sort version matches bit for bit without -0.0."""
    kp = np.asarray(keypoints, dtype=np.float64)
    lo = kp.min(axis=1, keepdims=True)
    extent = kp.max(axis=1, keepdims=True) - lo
    features = np.full_like(kp, 0.5)
    np.divide(kp - lo, extent, out=features, where=extent != 0.0)
    return features


def reference_admission_error(kp):
    """The ValueError text of Pose's exact checks on kp, run on every array
    with no fast test in front, or None where they accept kp."""
    if not np.all(np.isfinite(kp)):
        return "keypoints contains non-finite values"
    for axis, name in enumerate("xy"):
        lo, hi = float(kp[:, axis].min()), float(kp[:, axis].max())
        if hi - lo == math.inf:
            return f"keypoints {name} extent {hi!r} - {lo!r} overflows float64"
    return None


def axis_values(values):
    """15 values for one axis; drawn from a palette of 1-4 values half the
    time, so that ties and zero extents are common."""
    free = st.lists(values, min_size=NUM_KEYPOINTS, max_size=NUM_KEYPOINTS)
    paletted = st.lists(values, min_size=1, max_size=4).flatmap(
        lambda palette: st.lists(st.sampled_from(palette),
                                 min_size=NUM_KEYPOINTS,
                                 max_size=NUM_KEYPOINTS))
    return free | paletted


def poses_of(values):
    return st.tuples(axis_values(values), axis_values(values)).map(
        lambda xy: np.array(xy, dtype=np.float64).T.copy())


def stacks_of(values):
    return st.lists(poses_of(values), min_size=1, max_size=3).map(np.stack)


TOP = 2.0 ** 1022  # any two coordinates within +-TOP have a finite extent
EDGES = [0.0, 1.0, -1.0, 3.0, 5e-324, 2.0 ** -1022, TOP, -TOP]
# + 0.0 turns a drawn -0.0 into +0.0
FEATURE_SAFE = (st.sampled_from(EDGES) | st.floats(-TOP, TOP)).map(
    lambda x: x + 0.0)
SIGNED_ZEROS = st.sampled_from([0.0, -0.0, 1.0, -TOP, 5e-324])
FLOAT_MAX = float(np.finfo(np.float64).max)
SQRT_MAX = math.sqrt(FLOAT_MAX)  # about 1.34e154; the self-dot overflows past it
ADMISSION_EDGES = [math.nan, math.inf, -math.inf, 0.0, 1.0, 1.34e154,
                   -1.35e154, SQRT_MAX, math.nextafter(SQRT_MAX, math.inf),
                   2.0 ** 1023, -2.0 ** 1023, math.nextafter(2.0 ** 1023, 0.0),
                   FLOAT_MAX, -FLOAT_MAX]


def column_pose(x, y):
    kp = np.zeros((NUM_KEYPOINTS, 2))
    kp[:, 0], kp[:, 1] = x, y
    return kp


class TestNormalizeStackMatchesMinMax:
    @settings(max_examples=150, deadline=None)
    @given(kp=stacks_of(FEATURE_SAFE))
    @example(kp=np.stack([column_pose(np.linspace(-TOP, TOP, NUM_KEYPOINTS),
                                      TOP)]))
    @example(kp=np.stack([column_pose(3.0, np.arange(NUM_KEYPOINTS) % 2)]))
    def test_bits_equal_the_min_max_version(self, kp):
        assert not np.any((kp == 0.0) & np.signbit(kp))
        assert normalize_stack(kp).tobytes() == minmax_normalize_stack(kp).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(kp=stacks_of(SIGNED_ZEROS))
    @example(kp=np.stack([column_pose([0.0, -0.0, 0.0] + [1.0] * 12, 1.0),
                          column_pose([-0.0, 0.0] + [1.0] * 13, -0.0)]))
    def test_zero_features_are_positive_zeros(self, kp):
        features = normalize_stack(kp)
        assert not np.any(np.signbit(features))
        np.testing.assert_array_equal(features, minmax_normalize_stack(kp))


class TestPoseAdmission:
    @settings(max_examples=250, deadline=None)
    @given(kp=poses_of(st.sampled_from(ADMISSION_EDGES) | st.floats()))
    @example(kp=column_pose(1.3e154, -1.3e154))  # self-dot inf, accepted
    @example(kp=column_pose([2.0 ** 1023, -2.0 ** 1023] + [0.0] * 13, 0.0))
    @example(kp=column_pose([FLOAT_MAX, -1.0] + [0.0] * 13, 0.0))
    @example(kp=column_pose(0.0, [FLOAT_MAX, -FLOAT_MAX] + [0.0] * 13))
    def test_accepts_exactly_finite_coordinates_and_extents(self, kp):
        expected = reference_admission_error(kp)
        if expected is None:
            assert Pose(kp).keypoints.tobytes() == kp.tobytes()
        else:
            with pytest.raises(ValueError) as info:
                Pose(kp)
            assert str(info.value) == expected


class TestPoseEquality:
    """Poses compare and hash by their keypoint bytes, which PoseRecord,
    PosePair and pair_table's rows rely on."""

    @settings(max_examples=150, deadline=None)
    @given(a=poses_of(SIGNED_ZEROS), b=poses_of(SIGNED_ZEROS))
    @example(a=column_pose(0.0, 1.0), b=column_pose(-0.0, 1.0))
    @example(a=column_pose(1.0, 5e-324), b=column_pose(1.0, 5e-324))
    def test_equal_exactly_when_the_bytes_are(self, a, b):
        pa, pb = Pose(a), Pose(b)
        same = a.tobytes() == b.tobytes()
        assert (pa == pb) is same and (pa != pb) is not same
        if same:
            assert hash(pa) == hash(pb)
        twin = Pose(a.tolist())
        assert twin == pa and twin is not pa and hash(twin) == hash(pa)

    def test_signed_zeros_differ(self):
        zero = Pose(np.zeros((NUM_KEYPOINTS, 2)))
        negative_zero = Pose(-np.zeros((NUM_KEYPOINTS, 2)))
        assert zero != negative_zero
        assert {zero, negative_zero, Pose(np.zeros((NUM_KEYPOINTS, 2)))} == {
            zero, negative_zero}

    def test_other_types_are_unequal(self):
        pose = Pose(np.zeros((NUM_KEYPOINTS, 2)))
        assert pose != "pose"
        assert pose != normalize_pose(pose)
