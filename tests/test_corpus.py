import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posesim.corpus import (
    PairEntry,
    PairFile,
    PoseRecord,
    SynthConfig,
    TEMPLATE_LIBRARY,
    build_pose_pairs,
    generate_corpus_files,
    load_corpus,
    parse_pair_file,
    parse_pose_file,
    split_corpus,
    write_pair_file,
    write_pose_file,
)
from posesim.skeleton import KEYPOINT_NAMES, NUM_KEYPOINTS, Pose


def random_record(rng, rec_id, **kw):
    return PoseRecord(id=rec_id, pose=Pose(rng.uniform(-2, 2, (15, 2))), **kw)


_RNG = np.random.Generator(np.random.PCG64(5))
VALID_POSE_FILE = write_pose_file([
    random_record(_RNG, "a", confidences=(0.5,) * NUM_KEYPOINTS,
                  category="standing", quality_score=0.25),
    random_record(_RNG, "b"),
])
VALID_PAIR_FILE = write_pair_file(PairFile(poses="poses.json", entries=(
    PairEntry(a="a", b="b", y=1, magnitude=0.03),
    PairEntry(a="b", b="a", y=0),
)))

# Fields of each file, as paths of keys and indices, for the properties below
POSE_FILE_PATHS = (
    ("format_version",), ("keypoint_order",), ("keypoint_order", 3),
    ("records",), ("records", 0), ("records", 0, "id"), ("records", 1, "id"),
    ("records", 0, "keypoints"), ("records", 0, "keypoints", 4),
    ("records", 0, "keypoints", 4, 1), ("records", 0, "confidences"),
    ("records", 0, "confidences", 2), ("records", 0, "category"),
    ("records", 0, "quality_score"),
)
PAIR_FILE_PATHS = (
    ("format_version",), ("poses",), ("pairs",), ("pairs", 0),
    ("pairs", 0, "a"), ("pairs", 1, "b"), ("pairs", 0, "y"),
    ("pairs", 0, "magnitude"),
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(10 ** 308, 10 ** 400)
    | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8)


def replaced(data: bytes, path, value) -> bytes:
    """data with the field at path set to value, or deleted for KeyError."""
    doc = json.loads(data)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is KeyError:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc).encode()


def parses_or_raises_value_error(parse, data: bytes) -> None:
    try:
        parse(data)
    except ValueError:
        pass


ZERO_POSE = Pose(np.zeros((15, 2)))


class TestPoseRecord:
    def test_validates_and_freezes_keypoints(self):
        rec = PoseRecord(id="a", pose=ZERO_POSE)
        assert rec.pose is ZERO_POSE
        assert rec.pose.keypoints.flags.writeable is False
        assert rec.confidences is None and rec.category is None
        # the keypoints enter only through a Pose, which checks them
        with pytest.raises(TypeError, match="must be a Pose"):
            PoseRecord(id="a", pose=np.zeros((15, 2)))

    def test_bad_shape(self):
        with pytest.raises(ValueError, match="15x2"):
            PoseRecord(id="a", pose=Pose(np.zeros((14, 2))))

    def test_nonfinite(self):
        pts = np.zeros((15, 2))
        pts[3, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            PoseRecord(id="a", pose=Pose(pts))

    def test_empty_id(self):
        with pytest.raises(ValueError, match="nonempty"):
            PoseRecord(id="", pose=ZERO_POSE)

    def test_confidence_bounds(self):
        ok = PoseRecord(id="a", pose=ZERO_POSE, confidences=[0.5] * 15)
        assert ok.confidences == (0.5,) * 15
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            PoseRecord(id="a", pose=ZERO_POSE, confidences=[1.5] * 15)
        with pytest.raises(ValueError, match="length 15"):
            PoseRecord(id="a", pose=ZERO_POSE, confidences=[0.5] * 14)


class TestPairEntry:
    def test_defaults(self):
        e = PairEntry(a="x", b="y", y=1, magnitude=0.05)
        assert e.magnitude == 0.05

    def test_bad_label(self):
        with pytest.raises(ValueError, match="y must be 0 or 1"):
            PairEntry(a="x", b="y", y=2)

    def test_negative_magnitude(self):
        with pytest.raises(ValueError, match=">= 0"):
            PairEntry(a="x", b="y", y=1, magnitude=-0.1)

    def test_empty_id(self):
        with pytest.raises(ValueError, match="nonempty"):
            PairEntry(a="", b="y", y=0)


class TestPoseFileRoundTrip:
    def test_write_then_parse_identity(self):
        rng = np.random.Generator(np.random.PCG64(7))
        records = [
            random_record(rng, "p0"),
            random_record(rng, "p1", confidences=[0.25] * 15, category="squat"),
            random_record(rng, "p2", quality_score=0.875),
        ]
        back = parse_pose_file(write_pose_file(records))
        assert [r.id for r in back] == ["p0", "p1", "p2"]
        for orig, rec in zip(records, back):
            np.testing.assert_array_equal(orig.pose.keypoints, rec.pose.keypoints)
            assert orig.confidences == rec.confidences
            assert orig.category == rec.category
            assert orig.quality_score == rec.quality_score

    def test_full_float_precision_survives(self):
        pts = np.full((15, 2), 1.0) / 3.0
        pts[0, 0] = math.pi
        back = parse_pose_file(write_pose_file([PoseRecord(id="a", pose=Pose(pts))]))
        np.testing.assert_array_equal(back[0].pose.keypoints, pts)

    def test_bytes_stable_across_runs(self):
        rng1 = np.random.Generator(np.random.PCG64(3))
        rng2 = np.random.Generator(np.random.PCG64(3))
        a = write_pose_file([random_record(rng1, "x")])
        b = write_pose_file([random_record(rng2, "x")])
        assert a == b

    def test_layout_matches_format(self):
        doc = json.loads(write_pose_file([PoseRecord(id="a", pose=ZERO_POSE)]))
        assert doc["format_version"] == 1
        assert doc["keypoint_order"] == list(KEYPOINT_NAMES)
        assert doc["records"][0]["id"] == "a"
        assert len(doc["records"][0]["keypoints"]) == NUM_KEYPOINTS
        assert "confidences" not in doc["records"][0]

    def test_write_rejects_duplicate_ids(self):
        rec = PoseRecord(id="dup", pose=ZERO_POSE)
        with pytest.raises(ValueError, match="duplicate record id 'dup'"):
            write_pose_file([rec, rec])


class TestPoseFileErrors:
    def good_doc(self):
        return json.loads(write_pose_file(
            [PoseRecord(id="a", pose=ZERO_POSE)]))

    def as_bytes(self, doc):
        return json.dumps(doc).encode("utf-8")

    def test_not_json(self):
        with pytest.raises(ValueError, match="malformed pose file"):
            parse_pose_file(b"{nope")

    def test_top_level_not_object(self):
        with pytest.raises(ValueError, match="top level"):
            parse_pose_file(b"[1, 2]")

    def test_wrong_version(self):
        doc = self.good_doc()
        doc["format_version"] = 2
        with pytest.raises(ValueError, match="format_version"):
            parse_pose_file(self.as_bytes(doc))

    def test_wrong_keypoint_order(self):
        doc = self.good_doc()
        doc["keypoint_order"][0] = "nose"
        with pytest.raises(ValueError, match="keypoint_order"):
            parse_pose_file(self.as_bytes(doc))

    def test_duplicate_id_names_record(self):
        doc = self.good_doc()
        doc["records"].append(dict(doc["records"][0]))
        with pytest.raises(ValueError, match="duplicate record id 'a'"):
            parse_pose_file(self.as_bytes(doc))

    def test_bad_keypoint_count_names_record(self):
        doc = self.good_doc()
        doc["records"][0]["keypoints"] = doc["records"][0]["keypoints"][:-1]
        with pytest.raises(ValueError, match="record 'a'.* shape 15x2") as info:
            parse_pose_file(self.as_bytes(doc))
        assert str(info.value).count("record 'a'") == 1

    @pytest.mark.parametrize("leaf", ["0.5", True])
    def test_bool_or_string_keypoint_names_record(self, leaf):
        doc = self.good_doc()
        doc["records"][0]["keypoints"][2][1] = leaf
        with pytest.raises(ValueError, match="record 'a': keypoints must hold "
                                             "numbers, not bools or strings"):
            parse_pose_file(self.as_bytes(doc))

    def test_nonfinite_keypoint_names_record(self):
        doc = self.good_doc()
        doc["records"][0]["keypoints"][2][1] = None
        with pytest.raises(ValueError, match="record 'a'"):
            parse_pose_file(self.as_bytes(doc))

    def test_missing_id(self):
        doc = self.good_doc()
        del doc["records"][0]["id"]
        with pytest.raises(ValueError, match="index 0"):
            parse_pose_file(self.as_bytes(doc))

    def test_overflowing_extent_names_record(self):
        doc = self.good_doc()
        doc["records"][0]["keypoints"][0][0] = -1e308
        doc["records"][0]["keypoints"][1][0] = 1e308
        with pytest.raises(ValueError, match="record 'a'.* x extent .* overflows"):
            parse_pose_file(self.as_bytes(doc))

    def test_bad_confidences_names_record(self):
        doc = self.good_doc()
        doc["records"][0]["confidences"] = [2.0] * 15
        with pytest.raises(ValueError, match="record 'a'") as info:
            parse_pose_file(self.as_bytes(doc))
        assert str(info.value).count("record 'a'") == 1


class TestPairFile:
    def test_round_trip(self):
        pf = PairFile(poses="poses.json", entries=(
            PairEntry(a="p0", b="p1", y=1, magnitude=0.03),
            PairEntry(a="p0", b="p2", y=0),
        ))
        back = parse_pair_file(write_pair_file(pf))
        assert back == pf

    def test_magnitude_omitted_when_absent(self):
        pf = PairFile(poses="poses.json", entries=(PairEntry(a="x", b="y", y=0),))
        doc = json.loads(write_pair_file(pf))
        assert doc["pairs"][0] == {"a": "x", "b": "y", "y": 0}
        assert doc["poses"] == "poses.json"

    def test_missing_poses_reference(self):
        with pytest.raises(ValueError, match="'poses'"):
            parse_pair_file(json.dumps({"format_version": 1, "pairs": []}).encode())

    def test_bool_label_names_pair(self):
        data = replaced(VALID_PAIR_FILE, ("pairs", 1, "y"), True)
        with pytest.raises(ValueError, match="pair 'b'/'a': y must be 0 or 1"):
            parse_pair_file(data)

    def test_bad_pair_indexed(self):
        raw = {"format_version": 1, "poses": "p.json",
               "pairs": [{"a": "x", "b": "y", "y": 3}]}
        with pytest.raises(ValueError, match="pair at index 0"):
            parse_pair_file(json.dumps(raw).encode())


@pytest.mark.parametrize("version", [True, 1.0])
@pytest.mark.parametrize("parse, data", [
    (parse_pose_file, VALID_POSE_FILE), (parse_pair_file, VALID_PAIR_FILE),
], ids=["pose", "pair"])
def test_format_version_must_be_the_int_itself(parse, data, version):
    with pytest.raises(ValueError, match="format_version"):
        parse(replaced(data, ("format_version",), version))


@pytest.mark.parametrize("parse, data, path, value, message", [
    (parse_pair_file, VALID_PAIR_FILE, ("pairs", 0, "magnitude"), "0.5",
     "magnitude must be a finite number"),
    (parse_pair_file, VALID_PAIR_FILE, ("pairs", 0, "magnitude"), True,
     "magnitude must be a finite number"),
    (parse_pose_file, VALID_POSE_FILE, ("records", 0, "quality_score"), "0.5",
     "quality_score must be a finite number"),
    (parse_pose_file, VALID_POSE_FILE, ("records", 0, "quality_score"), True,
     "quality_score must be a finite number"),
    (parse_pose_file, VALID_POSE_FILE, ("records", 0, "confidences"),
     [True] * NUM_KEYPOINTS, "confidences must be numbers"),
    (parse_pose_file, VALID_POSE_FILE, ("records", 0, "confidences", 3), "0.5",
     "confidences must be numbers"),
], ids=["magnitude-str", "magnitude-bool", "quality-str", "quality-bool",
        "confidences-bool", "confidence-str"])
def test_float_fields_take_json_numbers_only(parse, data, path, value, message):
    with pytest.raises(ValueError, match=message):
        parse(replaced(data, path, value))


def test_int_values_of_float_fields_parse_as_floats():
    pairs = parse_pair_file(replaced(VALID_PAIR_FILE, ("pairs", 0, "magnitude"), 0))
    assert type(pairs.entries[0].magnitude) is float
    data = replaced(VALID_POSE_FILE, ("records", 0, "confidences"),
                    [1] * NUM_KEYPOINTS)
    rec = parse_pose_file(replaced(data, ("records", 0, "quality_score"), 3))[0]
    assert rec.confidences == (1.0,) * NUM_KEYPOINTS
    assert type(rec.quality_score) is float and rec.quality_score == 3.0


class TestParserProperties:
    """Any input either parses or raises ValueError, never anything else."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=256),
           parse=st.sampled_from([parse_pose_file, parse_pair_file]))
    @example(data=b"[" * 100_000, parse=parse_pose_file)
    @example(data=b"[" * 100_000, parse=parse_pair_file)
    def test_arbitrary_bytes_parse_or_raise_value_error(self, data, parse):
        parses_or_raises_value_error(parse, data)

    @settings(max_examples=150, deadline=None)
    @given(path=st.sampled_from(POSE_FILE_PATHS),
           value=json_values | st.just(KeyError))
    @example(path=("records", 0, "keypoints", 4, 1), value=10 ** 400)
    @example(path=("records", 0, "confidences", 2), value=10 ** 400)
    @example(path=("records", 0, "quality_score"), value=10 ** 400)
    def test_pose_field_replacements_parse_or_raise_value_error(self, path,
                                                                value):
        parses_or_raises_value_error(
            parse_pose_file, replaced(VALID_POSE_FILE, path, value))

    @settings(max_examples=150, deadline=None)
    @given(path=st.sampled_from(PAIR_FILE_PATHS),
           value=json_values | st.just(KeyError))
    @example(path=("pairs", 0, "magnitude"), value=10 ** 400)
    def test_pair_field_replacements_parse_or_raise_value_error(self, path,
                                                                value):
        parses_or_raises_value_error(
            parse_pair_file, replaced(VALID_PAIR_FILE, path, value))


class TestBuildPosePairs:
    def test_joins_and_labels(self):
        rng = np.random.Generator(np.random.PCG64(0))
        records = [random_record(rng, "p0"), random_record(rng, "p1")]
        entries = [PairEntry(a="p0", b="p1", y=1, magnitude=0.01)]
        pairs, ids = build_pose_pairs(records, entries)
        assert ids == ["p0:p1"]
        assert pairs[0].label_y == 1 and pairs[0].magnitude == 0.01
        # the records' own Pose objects, checked once when they were built
        assert pairs[0].pose_a is records[0].pose
        assert pairs[0].pose_b is records[1].pose

    def test_unknown_reference(self):
        rng = np.random.Generator(np.random.PCG64(0))
        records = [random_record(rng, "p0")]
        with pytest.raises(ValueError, match="unknown pose id 'ghost'"):
            build_pose_pairs(records, [PairEntry(a="p0", b="ghost", y=0)])


class TestSynthConfig:
    def test_defaults(self):
        cfg = SynthConfig()
        assert cfg.template_count == 8
        assert cfg.jitter_levels == (0.01, 0.03, 0.05, 0.10)

    def test_rejects_unsorted_levels(self):
        with pytest.raises(ValueError, match="sorted"):
            SynthConfig(jitter_levels=(0.05, 0.01))

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError, match=">= 0"):
            SynthConfig(jitter_levels=(-0.01, 0.05))

    def test_zero_level_permitted(self):
        assert SynthConfig(jitter_levels=(0.0, 0.05)).jitter_levels == (0.0, 0.05)

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            SynthConfig(template_count=0)
        with pytest.raises(ValueError):
            SynthConfig(pairs_per_template=0)


class TestGenerator:
    def test_counts_and_ids(self):
        cfg = SynthConfig(template_count=8, pairs_per_template=4, seed=5)
        records, entries = generate_corpus_files(cfg)
        assert len(records) == 8 + 8 * 4
        assert len(entries) == 2 * 8 * 4
        assert records[0].id == "t00" and records[8].id == "t00_p000"
        categories = {r.category for r in records[:8]}
        assert categories == {name for name, _ in TEMPLATE_LIBRARY}

    def test_positive_magnitude_cycles_levels(self):
        cfg = SynthConfig(pairs_per_template=8, seed=1)
        _, entries = generate_corpus_files(cfg)
        positives = [e for e in entries if e.y == 1 and e.a == "t00"]
        assert [e.magnitude for e in positives] == [0.01, 0.03, 0.05, 0.10] * 2

    def test_zero_jitter_pair_is_identical(self):
        cfg = SynthConfig(jitter_levels=(0.0,), pairs_per_template=1, seed=3)
        records, entries = generate_corpus_files(cfg)
        pairs, _ = build_pose_pairs(records, entries)
        by_id = {r.id: r for r in records}
        np.testing.assert_array_equal(by_id["t00"].pose.keypoints,
                                      by_id["t00_p000"].pose.keypoints)
        positive = next(p for p in pairs if p.label_y == 1)
        np.testing.assert_array_equal(positive.pose_a.keypoints,
                                      positive.pose_b.keypoints)

    def test_negatives_cross_templates(self):
        cfg = SynthConfig(pairs_per_template=6, seed=9)
        _, entries = generate_corpus_files(cfg)
        negatives = [e for e in entries if e.y == 0]
        assert negatives
        for e in negatives:
            assert e.magnitude is None
            assert e.a.split("_")[0] != e.b.split("_")[0]

    def test_cross_template_needs_two_templates(self):
        with pytest.raises(ValueError, match="template_count >= 2"):
            SynthConfig(template_count=1)

    def test_deterministic_per_seed(self):
        cfg = SynthConfig(pairs_per_template=3, seed=11)
        ra, ea = generate_corpus_files(cfg)
        rb, eb = generate_corpus_files(cfg)
        assert ea == eb
        for x, y in zip(ra, rb):
            assert x.id == y.id
            np.testing.assert_array_equal(x.pose.keypoints, y.pose.keypoints)
        _, other = generate_corpus_files(SynthConfig(pairs_per_template=3, seed=12))
        assert other != ea or any(
            not np.array_equal(x.pose.keypoints, y.pose.keypoints)
            for x, y in zip(ra, generate_corpus_files(SynthConfig(pairs_per_template=3, seed=12))[0]))

    def test_extended_templates_vary(self):
        cfg = SynthConfig(template_count=12, pairs_per_template=1, seed=2)
        records, _ = generate_corpus_files(cfg)
        assert records[8].category == "standing_v1"
        base = records[0].pose.keypoints
        variant = records[8].pose.keypoints
        assert not np.allclose(base, variant)
        # pelvis is the rotation root, so it stays put
        np.testing.assert_allclose(base[3], variant[3], atol=1e-12)

    def test_mean_displacement_tracks_jitter_level(self):
        # >= 100 positive pairs per level: 8 templates x 16 per level
        cfg = SynthConfig(pairs_per_template=64, seed=17)
        records, entries = generate_corpus_files(cfg)
        by_id = {r.id: r for r in records}
        for level in cfg.jitter_levels:
            ratios = []
            for e in entries:
                if e.y != 1 or e.magnitude != level:
                    continue
                base = by_id[e.a].pose.keypoints
                jit = by_id[e.b].pose.keypoints
                spans = base.max(axis=0) - base.min(axis=0)
                diag = math.hypot(spans[0], spans[1])
                mean_disp = float(np.mean(np.linalg.norm(jit - base, axis=1)))
                ratios.append(mean_disp / (level * diag))
            assert len(ratios) >= 100
            assert abs(np.mean(ratios) - 1.0) < 0.2


class TestSplitCorpus:
    def test_sizes_and_multiset(self):
        items = list(range(100))
        train, held = split_corpus(items, 0.8, seed=4)
        assert len(train) == 80 and len(held) == 20
        assert sorted(train + held) == items

    def test_seeded_shuffle(self):
        items = list(range(50))
        a = split_corpus(items, 0.5, seed=1)
        b = split_corpus(items, 0.5, seed=1)
        c = split_corpus(items, 0.5, seed=2)
        assert a == b
        assert a != c
        assert a[0] != items[:25]

    def test_fraction_bounds(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="train_fraction"):
                split_corpus([1, 2], bad)

    def test_empty_input(self):
        with pytest.raises(ValueError, match="nothing to split"):
            split_corpus([], 0.5)

    def test_duplicates_preserved(self):
        items = [7, 7, 7, 8]
        train, held = split_corpus(items, 0.5, seed=0)
        assert sorted(train + held) == sorted(items)


class TestLoadCorpus:
    def test_end_to_end_files(self, tmp_path):
        cfg = SynthConfig(pairs_per_template=2, seed=21)
        records, entries = generate_corpus_files(cfg)
        (tmp_path / "poses.json").write_bytes(write_pose_file(records))
        pf = PairFile(poses="poses.json", entries=tuple(entries))
        (tmp_path / "pairs.json").write_bytes(write_pair_file(pf))
        pairs, ids = load_corpus(tmp_path / "pairs.json")
        direct_pairs, direct_ids = build_pose_pairs(records, entries)
        assert ids == direct_ids
        assert len(pairs) == len(direct_pairs)
        for got, want in zip(pairs, direct_pairs):
            np.testing.assert_array_equal(got.pose_a.keypoints, want.pose_a.keypoints)
            np.testing.assert_array_equal(got.pose_b.keypoints, want.pose_b.keypoints)
            assert got.label_y == want.label_y
            assert got.magnitude == want.magnitude
