import math

import numpy as np
import pytest

from posesim.skeleton import (
    NUM_KEYPOINTS,
    SKELETON_EDGES,
    NormalizedPose,
    Pose,
    build_skeleton_topology,
    normalize_pose,
    normalize_stack,
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
    return (topo.adjacency_norm != 0.0).astype(np.float64)


def random_pose(rng):
    return Pose(rng.uniform(0.0, 300.0, size=(NUM_KEYPOINTS, 2)))


class TestTopology:
    def test_edge_count(self):
        assert len(SKELETON_EDGES) == 14

    def test_self_loops(self):
        topo = build_skeleton_topology()
        assert np.all(np.diag(topo.adjacency_norm) > 0.0)

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
        assert topo.adjacency_norm[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_normalized_matches_brute_force(self):
        topo = build_skeleton_topology()
        oracle = brute_force_normalized_adjacency(SKELETON_EDGES, NUM_KEYPOINTS)
        np.testing.assert_allclose(topo.adjacency_norm, oracle, rtol=0.0, atol=1e-12)

    def test_normalized_symmetric_exactly(self):
        topo = build_skeleton_topology()
        assert np.array_equal(topo.adjacency_norm, topo.adjacency_norm.T)

    def test_eigenvalues_within_unit_interval(self):
        topo = build_skeleton_topology()
        eigenvalues = np.linalg.eigvalsh(topo.adjacency_norm)
        assert eigenvalues.min() >= -1.0 - 1e-12
        assert eigenvalues.max() <= 1.0 + 1e-12

    def test_deterministic_and_shared(self):
        t1 = build_skeleton_topology()
        t2 = build_skeleton_topology()
        assert t1 is t2
        assert np.array_equal(t1.adjacency_norm, t2.adjacency_norm)
        assert not t1.adjacency_norm.flags.writeable


class TestSymmetricNormalize:
    def test_skeleton_matrix_matches_oracle(self):
        # the matrix form D^-1/2 (A + I) D^-1/2, built with numpy from the edges
        c = np.eye(NUM_KEYPOINTS)
        for i, j in SKELETON_EDGES:
            c[i, j] = c[j, i] = 1.0
        d_inv_sqrt = np.diag(c.sum(axis=1) ** -0.5)
        np.testing.assert_allclose(build_skeleton_topology().adjacency_norm,
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


class TestPoseValidation:
    def test_wrong_keypoint_count(self):
        with pytest.raises(ValueError, match="shape"):
            Pose(np.zeros((14, 2)))

    def test_non_finite_coordinate(self):
        kp = np.zeros((NUM_KEYPOINTS, 2))
        kp[4, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Pose(kp)

    def test_keypoints_are_read_only(self):
        pose = Pose(np.zeros((NUM_KEYPOINTS, 2)))
        with pytest.raises(ValueError):
            pose.keypoints[0, 0] = 1.0

    def test_normalized_pose_rejects_out_of_range(self):
        bad = np.full((NUM_KEYPOINTS, 2), 1.5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            NormalizedPose(bad)


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
