import base64
import dataclasses
import json
import math
import struct
import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posesim import corpus
from posesim.corpus import (
    PairEntry,
    PairFile,
    PoseRecord,
    SynthConfig,
    TEMPLATE_LIBRARY,
    _PARENT,
    build_pose_pairs,
    generate_corpus_files,
    load_corpus,
    parse_pair_file,
    parse_pose_file,
    split_corpus,
    write_pair_file,
    write_pose_file,
)
from posesim.network import init_model, save_checkpoint
from posesim.scoring import evaluate, report_csv, report_summary_csv
from posesim.skeleton import (KEYPOINT_NAMES, NUM_KEYPOINTS, SKELETON_EDGES, Pose,
                              build_skeleton_topology)
from posesim.training import TrainConfig, history_csv, train

from v1_files import dumped, v1_document, v1_from_v2, v1_pairs_from_v2


def random_record(rng, rec_id, **kw):
    return PoseRecord(id=rec_id, pose=Pose(rng.uniform(-2, 2, (15, 2))), **kw)


_RNG = np.random.Generator(np.random.PCG64(5))
VALID_RECORDS = [
    random_record(_RNG, "a", confidences=(0.5,) * NUM_KEYPOINTS,
                  category="standing", quality_score=0.25),
    random_record(_RNG, "b"),
]
# format 1, whose records hold their keypoints, which the tests below edit
VALID_POSE_FILE = dumped(v1_document(VALID_RECORDS))
VALID_POSE_FILE_V2 = write_pose_file(VALID_RECORDS)
VALID_PAIR_FILE_V2 = write_pair_file(PairFile(poses="poses.json", entries=(
    PairEntry(a="a", b="b", y=1, magnitude=0.03),
    PairEntry(a="b", b="a", y=0),
)))
# format 1, one object per pair, which the tests below edit row by row
VALID_PAIR_FILE = v1_pairs_from_v2(VALID_PAIR_FILE_V2)

# Fields of each file, as paths of keys and indices, for the properties below
POSE_FILE_PATHS = (
    ("format_version",), ("keypoint_order",), ("keypoint_order", 3),
    ("records",), ("records", 0), ("records", 0, "id"), ("records", 1, "id"),
    ("records", 0, "keypoints"), ("records", 0, "keypoints", 4),
    ("records", 0, "keypoints", 4, 1), ("records", 0, "confidences"),
    ("records", 0, "confidences", 2), ("records", 0, "category"),
    ("records", 0, "quality_score"),
)
POSE_FILE_V2_PATHS = (
    ("format_version",), ("keypoint_order",), ("keypoints",), ("records",),
    ("records", 0), ("records", 1, "id"), ("records", 0, "keypoints"),
    ("records", 0, "confidences"), ("records", 0, "quality_score"),
)
PAIR_FILE_PATHS = (
    ("format_version",), ("poses",), ("pairs",), ("pairs", 0), ("pairs", 1),
    ("pairs", 0, "a"), ("pairs", 0, "b"), ("pairs", 1, "a"), ("pairs", 1, "b"),
    ("pairs", 0, "y"), ("pairs", 1, "y"), ("pairs", 0, "magnitude"),
    ("pairs", 1, "magnitude"),
)
PAIR_FILE_V2_PATHS = (
    ("format_version",), ("poses",), ("pairs",), ("pairs", "a"), ("pairs", "b"),
    ("pairs", "y"), ("pairs", "magnitude"), ("pairs", "extra"), ("pairs", "a", 0),
    ("pairs", "b", 1), ("pairs", "y", 0), ("pairs", "magnitude", 0),
    ("pairs", "magnitude", 1),
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(10 ** 308, 10 ** 400)
    | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8)


def replaced(data: bytes, path, value) -> bytes:
    """data with the field at path set to value, or deleted, if present,
    for KeyError."""
    doc = json.loads(data)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is KeyError:
        if isinstance(parent, list) or path[-1] in parent:
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

    @pytest.mark.parametrize("rec_id", ["a,b", 'a"b', "c\nd", "c\rd"])
    def test_id_a_csv_field_would_quote_is_rejected(self, rec_id):
        # report.csv writes pair ids "a:b" unquoted, so such an id would
        # split or break its row
        message = "holds a comma, a double quote or a line break"
        with pytest.raises(ValueError, match=message) as info:
            PoseRecord(id=rec_id, pose=ZERO_POSE)
        assert repr(rec_id) in str(info.value)
        data = replaced(VALID_POSE_FILE, ("records", 1, "id"), rec_id)
        with pytest.raises(ValueError, match=message) as info:
            parse_pose_file(data)
        assert str(info.value).startswith(f"record id {rec_id!r} holds ")
        assert str(info.value).count(repr(rec_id)) == 1

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


@st.composite
def pose_records(draw):
    """1-4 records whose coordinates include +-0.0, subnormals and 1e300,
    with and without each optional field; ints where a float field takes
    one."""
    coords = (st.sampled_from([0.0, -0.0, 1.5, -2.0, 1e300, 5e-324, -2.5e-310])
              | st.floats(-1e6, 1e6))
    records = []
    for i in range(draw(st.integers(1, 4))):
        kp = draw(st.lists(coords, min_size=2 * NUM_KEYPOINTS,
                           max_size=2 * NUM_KEYPOINTS))
        fields = {}
        if draw(st.booleans()):
            fields["confidences"] = draw(st.lists(
                st.floats(0.0, 1.0) | st.integers(0, 1),
                min_size=NUM_KEYPOINTS, max_size=NUM_KEYPOINTS))
        if draw(st.booleans()):
            fields["category"] = draw(st.text(max_size=4))
        if draw(st.booleans()):
            fields["quality_score"] = draw(
                st.floats(allow_nan=False, allow_infinity=False) | st.integers(-3, 3))
        records.append(PoseRecord(id=f"r{i}", pose=Pose(np.reshape(kp, (-1, 2))),
                                  **fields))
    return records


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
        kp = np.arange(2.0 * NUM_KEYPOINTS).reshape(-1, 2) - 0.5
        doc = json.loads(write_pose_file([
            PoseRecord(id="a", pose=ZERO_POSE),
            PoseRecord(id="b", pose=Pose(kp), category="squat")]))
        assert sorted(doc) == ["format_version", "keypoint_order", "keypoints",
                               "records"]
        assert doc["format_version"] == 2
        assert doc["keypoint_order"] == list(KEYPOINT_NAMES)
        # the records keep their other fields and carry no keypoints
        assert doc["records"] == [{"id": "a"}, {"id": "b", "category": "squat"}]
        # one block: both records' keypoints, little-endian float64, C order
        block = base64.b64decode(doc["keypoints"], validate=True)
        assert base64.b64encode(block).decode("ascii") == doc["keypoints"]
        assert struct.unpack(f"<{4 * NUM_KEYPOINTS}d", block) == (
            (0.0,) * 2 * NUM_KEYPOINTS + tuple(kp.reshape(-1).tolist()))

    def test_write_rejects_duplicate_ids(self):
        rec = PoseRecord(id="dup", pose=ZERO_POSE)
        with pytest.raises(ValueError, match="duplicate record id 'dup'"):
            write_pose_file([rec, rec])

    @settings(max_examples=100, deadline=None)
    @given(records=pose_records())
    def test_parse_inverts_write(self, records):
        # 1e300 sends a stack to each record's exact checks
        back = parse_pose_file(write_pose_file(records))
        assert back == records
        assert list(map(hash, back)) == list(map(hash, records))

    def test_signed_zeros_stay_apart(self):
        negative = PoseRecord(id="z", pose=Pose(-np.zeros((NUM_KEYPOINTS, 2))))
        back = parse_pose_file(write_pose_file([negative]))
        assert back == [negative]
        assert back != [PoseRecord(id="z", pose=ZERO_POSE)]

    @settings(max_examples=100, deadline=None)
    @given(records=pose_records())
    def test_format_1_and_2_give_equal_records(self, records):
        v1 = parse_pose_file(dumped(v1_document(records)))
        v2 = parse_pose_file(write_pose_file(records))
        assert v1 == v2 == records

    def test_empty_file(self):
        assert parse_pose_file(write_pose_file([])) == []
        assert parse_pose_file(dumped(v1_document([]))) == []


class TestPoseFileErrors:
    """Faults of a format 1 file, whose records hold their keypoints."""

    def good_doc(self):
        return v1_document([PoseRecord(id="a", pose=ZERO_POSE)])

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
        doc["format_version"] = 3
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

    @pytest.mark.parametrize("row", [3, None, [], "a"])
    @pytest.mark.parametrize("edits, message", [
        ([], "record at index 2 must be an object"),
        ([(("records", 1, "id"), KeyError)],
         "record at index 1 is missing a string id"),
        ([(("records", 1, "id"), "a")], "duplicate record id 'a'"),
        ([(("records", 1, "keypoints"), [[0.0, 0.0]] * 14)],
         r"record 'b': keypoints must have shape 15x2, got \(14, 2\)"),
        ([(("records", 1, "quality_score"), "0.5")],
         "record 'b': quality_score must be a finite number, got '0.5'"),
    ], ids=["clean", "missing-id", "duplicate-id", "keypoints", "quality"])
    def test_record_not_an_object_is_named_after_earlier_faults(
            self, row, edits, message):
        # records 0 and 1, then one that is not an object, then a duplicate
        # of record 0 that no check may reach first
        doc = v1_document(VALID_RECORDS)
        doc["records"] += [row, dict(doc["records"][0])]
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_pose_file(edited(self.as_bytes(doc), edits))


def encoded(stack) -> str:
    return base64.b64encode(np.asarray(stack, "<f8").tobytes()).decode("ascii")


def nan_block(*rows) -> str:
    """The keypoint block of VALID_RECORDS twice over, with a NaN in each of
    the given rows."""
    stack = np.array([rec.pose.keypoints for rec in VALID_RECORDS * 2])
    stack[list(rows), 0, 0] = math.nan
    return encoded(stack)


class TestPoseFileV2Errors:
    """Each fault of a format 2 file raises a ValueError naming its field."""

    def parse(self, doc):
        return parse_pose_file(json.dumps(doc).encode("utf-8"))

    def good_doc(self):
        return json.loads(VALID_POSE_FILE_V2)

    def test_other_version(self):
        doc = self.good_doc()
        doc["format_version"] = 3
        with pytest.raises(ValueError, match="^unsupported pose file "
                                             "format_version 3$"):
            self.parse(doc)

    @pytest.mark.parametrize("block, kind", [
        (KeyError, "NoneType"), (None, "NoneType"), ([0.5] * 60, "list"),
        (7, "int"), ({"data": ""}, "dict")])
    def test_block_must_be_a_string(self, block, kind):
        doc = self.good_doc()
        if block is KeyError:
            del doc["keypoints"]
        else:
            doc["keypoints"] = block
        with pytest.raises(ValueError, match=f"^pose file 'keypoints' must be "
                                             f"a base64 string, got {kind}$"):
            self.parse(doc)

    @pytest.mark.parametrize("rec_id", ["a,b", 'a"b', "c\nd", "c\rd"])
    def test_id_a_csv_field_would_quote_is_named_once(self, rec_id):
        doc = self.good_doc()
        doc["records"][1]["id"] = rec_id
        with pytest.raises(ValueError) as info:
            self.parse(doc)
        with pytest.raises(ValueError) as record:
            PoseRecord(id=rec_id, pose=ZERO_POSE)
        # the parser raises PoseRecord's own message, which names the id once
        assert str(info.value) == str(record.value)
        assert str(info.value).count(repr(rec_id)) == 1

    @pytest.mark.parametrize("edit", [
        lambda text: text[:-1],                  # a character short
        lambda text: text[:4] + "==" + text[4:],  # padding inside the data
        lambda text: "*" + text[1:],             # outside the alphabet
        lambda text: text[:4] + "\n" + text[4:],  # a line break
        lambda text: "-" + text[1:],             # the URL-safe alphabet
        lambda text: "\u00e9" + text[1:],        # not ASCII
    ], ids=["short", "inner-padding", "star", "newline", "urlsafe", "non-ascii"])
    def test_invalid_base64(self, edit):
        doc = self.good_doc()
        doc["keypoints"] = edit(doc["keypoints"])
        with pytest.raises(ValueError, match="^pose file 'keypoints' is not "
                                             "valid base64"):
            self.parse(doc)

    @pytest.mark.parametrize("edit, size", [
        (lambda raw: raw[:-8], 472), (lambda raw: raw[:240], 240),
        (lambda raw: b"", 0), (lambda raw: raw + bytes(8), 488)],
        ids=["a-float-short", "a-record-short", "empty", "a-float-long"])
    def test_wrong_byte_length(self, edit, size):
        doc = self.good_doc()
        raw = edit(base64.b64decode(doc["keypoints"]))
        doc["keypoints"] = base64.b64encode(raw).decode("ascii")
        with pytest.raises(ValueError, match=f"^pose file 'keypoints' holds "
                                             f"{size} bytes, not the 480 of 2 "
                                             f"records$"):
            self.parse(doc)

    def test_record_with_its_own_keypoints(self):
        doc = self.good_doc()
        doc["records"][1]["keypoints"] = [[0.0, 0.0]] * NUM_KEYPOINTS
        with pytest.raises(ValueError, match="^record 'b': keypoints belong in "
                                             "the file's 'keypoints' block"):
            self.parse(doc)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_keypoint_names_record(self, value):
        doc = self.good_doc()
        stack = np.array([rec.pose.keypoints for rec in VALID_RECORDS])
        stack[1, 4, 1] = value
        doc["keypoints"] = encoded(stack)
        with pytest.raises(ValueError, match="^record 'b': keypoints contains "
                                             "non-finite values$"):
            self.parse(doc)

    def test_overflowing_extent_names_record(self):
        doc = self.good_doc()
        stack = np.array([rec.pose.keypoints for rec in VALID_RECORDS])
        stack[0, :2, 0] = (-1e308, 1e308)
        doc["keypoints"] = encoded(stack)
        with pytest.raises(ValueError, match="^record 'a': keypoints x extent "
                                             ".* overflows float64$"):
            self.parse(doc)

    @pytest.mark.parametrize("row", [3, None, [], "a"])
    @pytest.mark.parametrize("edits, message", [
        ([], "record at index 2 must be an object"),
        ([(("records", 1, "id"), KeyError)],
         "record at index 1 is missing a string id"),
        ([(("records", 1, "id"), "a")], "duplicate record id 'a'"),
        ([(("records", 1, "keypoints"), [[0.0, 0.0]] * NUM_KEYPOINTS)],
         "record 'b': keypoints belong in the file's 'keypoints' block in "
         "format_version 2, not in a record"),
        ([(("keypoints",), nan_block(1, 2, 3))],
         "record 'b': keypoints contains non-finite values"),
        ([(("records", 1, "quality_score"), "0.5")],
         "record 'b': quality_score must be a finite number, got '0.5'"),
    ], ids=["clean", "missing-id", "duplicate-id", "own-keypoints",
            "nonfinite-keypoint", "quality"])
    def test_record_not_an_object_is_named_after_earlier_faults(
            self, row, edits, message):
        # records 0 and 1, then one that is not an object, then a duplicate
        # of record 0 that no check may reach first; the block's rows of
        # the last two hold a NaN, which no check may name either
        doc = self.good_doc()
        doc["records"] += [row, dict(doc["records"][0])]
        doc["keypoints"] = nan_block(2, 3)
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_pose_file(edited(json.dumps(doc).encode(), edits))


class TestPairFile:
    def test_round_trip(self):
        pf = PairFile(poses="poses.json", entries=(
            PairEntry(a="p0", b="p1", y=1, magnitude=0.03),
            PairEntry(a="p0", b="p2", y=0),
        ))
        back = parse_pair_file(write_pair_file(pf))
        assert back == pf

    def test_written_as_columns_with_null_for_an_absent_magnitude(self):
        pf = PairFile(poses="poses.json", entries=(
            PairEntry(a="x", b="y", y=0), PairEntry(a="y", b="z", y=1, magnitude=0.5)))
        doc = json.loads(write_pair_file(pf))
        assert doc == {"format_version": 2, "poses": "poses.json", "pairs": {
            "a": ["x", "y"], "b": ["y", "z"], "y": [0, 1], "magnitude": [None, 0.5]}}

    def test_missing_poses_reference(self):
        with pytest.raises(ValueError, match="'poses'"):
            parse_pair_file(json.dumps({"format_version": 1, "pairs": []}).encode())

    @pytest.mark.parametrize("poses", ["", None, 3, "poses.json\0", "\0"])
    def test_pair_file_takes_the_parsers_poses_rule(self, poses):
        # write_pair_file must never write bytes its own parser refuses; no
        # file name holds a NUL
        raw = {"format_version": 1, "poses": poses, "pairs": []}
        with pytest.raises(ValueError, match="^pair file must reference a "
                                             "pose file in 'poses'$") as parsed:
            parse_pair_file(json.dumps(raw).encode())
        with pytest.raises(ValueError) as built:
            PairFile(poses=poses, entries=())
        assert str(built.value) == str(parsed.value)

    def test_entries_must_be_pair_entries(self):
        # refused where it is built, not in write_pair_file
        entries = [PairEntry(a="a", b="b", y=0), ("a", "b", 1)]
        with pytest.raises(ValueError, match=r"^pair at index 1 must be a "
                                             r"PairEntry, got \('a', 'b', 1\)"):
            PairFile(poses="p.json", entries=entries)

    def test_bool_label_names_pair(self):
        # the parser names the pair, once; PairEntry adds no prefix of its own
        data = replaced(VALID_PAIR_FILE, ("pairs", 1, "y"), True)
        with pytest.raises(ValueError, match="^pair at index 1: y must be 0 or 1"):
            parse_pair_file(data)

    def test_bad_pair_indexed(self):
        raw = {"format_version": 1, "poses": "p.json",
               "pairs": [{"a": "x", "b": "y", "y": 3}]}
        with pytest.raises(ValueError, match="pair at index 0"):
            parse_pair_file(json.dumps(raw).encode())

    @pytest.mark.parametrize("row", [3, None, [], "a"])
    @pytest.mark.parametrize("edits, message", [
        ([], "pair at index 2 must be an object"),
        ([(("pairs", 1, "a"), "")],
         "pair at index 1: pair field a must be a nonempty string, got ''"),
        ([(("pairs", 1, "y"), True)],
         r"pair at index 1: y must be 0 or 1 \(an int\), got True"),
        ([(("pairs", 1, "magnitude"), -0.5)],
         "pair at index 1: magnitude must be a finite number >= 0, got -0.5"),
    ], ids=["clean", "empty-a", "bool-y", "negative-magnitude"])
    def test_pair_not_an_object_is_named_after_earlier_faults(
            self, row, edits, message):
        # pairs 0 and 1, then one that is not an object, then a pair whose
        # label no check may reach first
        doc = json.loads(VALID_PAIR_FILE)
        doc["pairs"] += [row, {"a": "a", "b": "b", "y": 3}]
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_pair_file(edited(json.dumps(doc).encode(), edits))


class TestPairFileV2Errors:
    """A format 2 pair file's 'pairs' must be an object of exactly the four
    columns, each a list, all of one length; each fault is named, a missing
    column before an unknown one, and the first unknown one in sorted
    order. A format 1 file must hold rows."""

    @pytest.mark.parametrize("edits, message", [
        ([(("pairs",), [])], "'pairs' must be an object of the columns a, b, y, "
                             "magnitude, got list"),
        ([(("pairs",), KeyError)], "'pairs' must be an object of the columns a, "
                                   "b, y, magnitude, got NoneType"),
        ([(("pairs", "y"), KeyError)], "'pairs' is missing the column 'y'"),
        ([(("pairs", "B"), []), (("pairs", "b"), KeyError)],
         "'pairs' is missing the column 'b'"),
        ([(("pairs", "zz"), []), (("pairs", "extra"), [])],
         "'pairs' has an unknown column 'extra'"),
        ([(("pairs", "a"), "ab")], "'pairs' column 'a' must be a list, got str"),
        ([(("pairs", "magnitude"), {})],
         "'pairs' column 'magnitude' must be a list, got dict"),
        ([(("pairs", "b"), ["b"])], "'pairs' columns must have one length, got "
                                    "a 2, b 1, y 2, magnitude 2"),
        ([(("format_version",), 1)], "must carry a 'pairs' array"),
    ], ids=["rows", "absent", "missing-column", "missing-before-unknown",
            "unknown-columns", "str-column", "dict-column", "unequal-lengths",
            "format-1-columns"])
    def test_structural_fault_named(self, edits, message):
        with pytest.raises(ValueError, match=f"^pair file {message}$"):
            parse_pair_file(edited(VALID_PAIR_FILE_V2, edits))


@pytest.mark.parametrize("version", [True, 1.0, 2.0])
@pytest.mark.parametrize("parse, data", [
    (parse_pose_file, VALID_POSE_FILE), (parse_pose_file, VALID_POSE_FILE_V2),
    (parse_pair_file, VALID_PAIR_FILE), (parse_pair_file, VALID_PAIR_FILE_V2),
], ids=["pose", "pose-v2", "pair", "pair-v2"])
def test_format_version_must_be_the_int_itself(parse, data, version):
    with pytest.raises(ValueError, match="format_version"):
        parse(replaced(data, ("format_version",), version))


@pytest.mark.parametrize("parse, data, path, value, message", [
    (parse_pair_file, VALID_PAIR_FILE, ("pairs", 0, "magnitude"), "0.5",
     "magnitude must be a finite number"),
    (parse_pair_file, VALID_PAIR_FILE, ("pairs", 0, "magnitude"), True,
     "magnitude must be a finite number"),
    (parse_pair_file, VALID_PAIR_FILE, ("pairs", 0, "magnitude"), 10 ** 400,
     "^pair at index 0: magnitude must be a finite number >= 0, got 1000"),
    (parse_pose_file, VALID_POSE_FILE, ("records", 0, "quality_score"), "0.5",
     "quality_score must be a finite number"),
    (parse_pose_file, VALID_POSE_FILE, ("records", 0, "quality_score"), True,
     "quality_score must be a finite number"),
    (parse_pose_file, VALID_POSE_FILE, ("records", 0, "confidences"),
     [True] * NUM_KEYPOINTS, "confidences must be numbers"),
    (parse_pose_file, VALID_POSE_FILE, ("records", 0, "confidences", 3), "0.5",
     "confidences must be numbers"),
], ids=["magnitude-str", "magnitude-bool", "magnitude-named-once",
         "quality-str", "quality-bool",
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
    @given(path=st.sampled_from(POSE_FILE_V2_PATHS),
           value=json_values | st.just(KeyError))
    @example(path=("keypoints",), value="AAAA")
    @example(path=("keypoints",), value="\u00e9")
    @example(path=("keypoints",), value="A")
    def test_v2_pose_field_replacements_parse_or_raise_value_error(self, path,
                                                                   value):
        parses_or_raises_value_error(
            parse_pose_file, replaced(VALID_POSE_FILE_V2, path, value))

    @settings(max_examples=150, deadline=None)
    @given(path=st.sampled_from(PAIR_FILE_PATHS),
           value=json_values | st.just(KeyError))
    @example(path=("pairs", 0, "magnitude"), value=10 ** 400)
    def test_pair_field_replacements_parse_or_raise_value_error(self, path,
                                                                value):
        parses_or_raises_value_error(
            parse_pair_file, replaced(VALID_PAIR_FILE, path, value))

    @settings(max_examples=150, deadline=None)
    @given(path=st.sampled_from(PAIR_FILE_V2_PATHS),
           value=json_values | st.just(KeyError))
    @example(path=("pairs", "magnitude", 0), value=10 ** 400)
    def test_v2_pair_field_replacements_parse_or_raise_value_error(self, path,
                                                                   value):
        parses_or_raises_value_error(
            parse_pair_file, replaced(VALID_PAIR_FILE_V2, path, value))


# non-finite values, leaves numpy would convert but the rule refuses, and
# coordinates whose extent may overflow
BAD_LEAVES = st.sampled_from([math.nan, math.inf, -math.inf, True, False,
                              "0.5", None, 1e308, -1e308, 10 ** 400])
# finite and valid, but a pose's sum of squares overflows
HUGE_LEAVES = st.sampled_from([1e200, -1e200, 1.5e154, -1e300])


@st.composite
def pose_documents(draw):
    """Pose-file documents of 1-5 records, each good or with one fault: a
    bad leaf, a huge but valid leaf, or a row or coordinate too many or too
    few. Good leaves are seeded draws of floats, -0.0 and ints."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    records = []
    for i in range(draw(st.integers(1, 5))):
        # floats, ints or -0.0 in every place
        kp = np.where(rng.random((NUM_KEYPOINTS, 2)) < 0.5,
                      rng.uniform(-1e3, 1e3, (NUM_KEYPOINTS, 2)),
                      -0.0).tolist()
        if draw(st.booleans()):
            kp[0] = rng.integers(-1000, 1000, 2).tolist()
        fault = draw(st.sampled_from(["none"] * 4 + ["leaf", "huge", "rows",
                                                     "coords"]))
        row = draw(st.integers(0, NUM_KEYPOINTS - 1))
        if fault in ("leaf", "huge"):
            kp[row][draw(st.integers(0, 1))] = draw(
                BAD_LEAVES if fault == "leaf" else HUGE_LEAVES)
        elif fault == "rows":
            kp = kp[1:] if draw(st.booleans()) else kp + [[0.0, 0.0]]
        elif fault == "coords":
            kp[row] = kp[row][1:] if draw(st.booleans()) else kp[row] + [0.0]
        records.append({"id": f"r{i}", "keypoints": kp})
    return {"format_version": 1, "keypoint_order": list(KEYPOINT_NAMES),
            "records": records}


def per_record_keypoints(doc):
    """Each record's keypoints as its own Pose admits them, or the parse
    error of the first record that fails. The keypoints go in as a tuple,
    which takes number_array's general conversion and checks: the path
    every record took before the stack was admitted at once."""
    out = []
    for raw in doc["records"]:
        try:
            out.append(Pose(tuple(raw["keypoints"])).keypoints)
        except ValueError as exc:
            return f"record {raw['id']!r}: {exc}"
    return out


# float64 values a format 2 block can hold that the rule refuses, or whose
# extent or sum of squares overflows, and subnormals
SPECIAL_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308,
                                  1e200, -1.5e154, 5e-324, -2.5e-310])


@st.composite
def pose_blocks(draw):
    """(n, 15, 2) stacks of 1-5 poses of seeded floats and -0.0, with up to
    three coordinates replaced by SPECIAL_FLOATS."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 5))
    stack = rng.uniform(-1e3, 1e3, (n, NUM_KEYPOINTS, 2))
    stack[rng.random(stack.shape) < 0.2] = -0.0
    for _ in range(draw(st.integers(0, 3))):
        stack[draw(st.integers(0, n - 1)), draw(st.integers(0, NUM_KEYPOINTS - 1)),
              draw(st.integers(0, 1))] = draw(SPECIAL_FLOATS)
    return stack


class TestStackAdmission:
    """parse_pose_file admits all keypoints as one stack when it can; it
    must give what admitting each record on its own gives."""

    @settings(max_examples=300, deadline=None)
    @given(doc=pose_documents())
    @example(doc={"format_version": 1, "keypoint_order": list(KEYPOINT_NAMES),
                  "records": [{"id": "r0", "keypoints": [[1e200, -0.0]] * 15},
                              {"id": "r1", "keypoints": [[0.5, 2]] * 15}]})
    def test_matches_per_record_admission(self, doc):
        expected = per_record_keypoints(doc)
        data = json.dumps(doc).encode()
        if isinstance(expected, str):
            with pytest.raises(ValueError) as info:
                parse_pose_file(data)
            assert str(info.value) == expected
            return
        records = parse_pose_file(data)
        assert [rec.pose.keypoints.tobytes() for rec in records] == [
            kp.tobytes() for kp in expected]
        for rec in records:
            kp = rec.pose.keypoints
            # neither the row nor the stack it may be a view of is writable
            for arr in (kp, kp.base):
                if arr is not None:
                    assert not arr.flags.writeable
                    with pytest.raises(ValueError, match="read-only"):
                        arr.flat[0] = 1.0

    @settings(max_examples=200, deadline=None)
    @given(stack=pose_blocks())
    def test_format_2_block_matches_per_record_admission(self, stack):
        doc = {"format_version": 2, "keypoint_order": list(KEYPOINT_NAMES),
               "keypoints": encoded(stack),
               "records": [{"id": f"r{i}"} for i in range(len(stack))]}
        expected = per_record_keypoints({"records": [
            {"id": f"r{i}", "keypoints": kp} for i, kp in enumerate(stack)]})
        data = dumped(doc)
        if isinstance(expected, str):
            with pytest.raises(ValueError) as info:
                parse_pose_file(data)
            assert str(info.value) == expected
            return
        records = parse_pose_file(data)
        assert [rec.pose.keypoints.tobytes() for rec in records] == [
            kp.tobytes() for kp in expected]
        for rec in records:
            assert not rec.pose.keypoints.flags.writeable


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

    @pytest.mark.parametrize("levels", [
        pytest.param(("0.01", True), id="string"),
        pytest.param((0.01, True), id="bool"),
        pytest.param((None,), id="none"),
        pytest.param((10 ** 400,), id="10**400"),
        pytest.param(0.05, id="bare-number")])
    def test_levels_take_json_numbers(self, levels):
        # a list or a tuple of checked_float's floats: no string, no bool,
        # no int past a float
        with pytest.raises(ValueError, match="jitter_levels"):
            SynthConfig(jitter_levels=levels)

    def test_zero_level_permitted(self):
        assert SynthConfig(jitter_levels=(0.0, 0.05)).jitter_levels == (0.0, 0.05)

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            SynthConfig(template_count=0)
        with pytest.raises(ValueError):
            SynthConfig(pairs_per_template=0)

    @pytest.mark.parametrize("value", [2.5, 8.0, True, "3"])
    @pytest.mark.parametrize("name", ["template_count", "pairs_per_template"])
    def test_counts_must_be_ints(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an int >= 1"):
            SynthConfig(**{name: value})


class TestGenerator:
    def test_parent_map_is_the_skeleton_tree(self):
        # the generator's tree and the graph's edge list are kept apart,
        # since _PARENT's key order fixes which angle each joint draws
        bones = {frozenset(bone) for bone in _PARENT.items()}
        assert len(bones) == 14
        assert bones == {frozenset(edge) for edge in SKELETON_EDGES}
        # every joint but the pelvis (3) has exactly one parent, as a key
        assert sorted(_PARENT) == [j for j in range(NUM_KEYPOINTS) if j != 3]

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
        for bad in (0.0, 1.0, -0.2, 1.5, "0.5", None, True, 10 ** 400):
            with pytest.raises(ValueError, match="train_fraction"):
                split_corpus([1, 2], bad)

    def test_empty_input(self):
        with pytest.raises(ValueError, match="nothing to split"):
            split_corpus([], 0.5)

    def test_duplicates_preserved(self):
        items = [7, 7, 7, 8]
        train, held = split_corpus(items, 0.5, seed=0)
        assert sorted(train + held) == sorted(items)


def write_corpus(directory, records, entries):
    (directory / "poses.json").write_bytes(write_pose_file(records))
    (directory / "pairs.json").write_bytes(write_pair_file(
        PairFile(poses="poses.json", entries=tuple(entries))))
    return directory / "pairs.json"


def assert_same_pairs(table, pairs):
    """table holds pairs' columns, each pose at a row of its own bytes, and
    no row that no pair references."""
    assert len(table) == len(pairs)
    assert table.twins.dtype == np.intp
    for (a, b), pair in zip(table.twins.tolist(), pairs):
        assert table.keypoints[a].tobytes() == pair.pose_a.keypoints.tobytes()
        assert table.keypoints[b].tobytes() == pair.pose_b.keypoints.tobytes()
    assert sorted(set(table.twins.reshape(-1).tolist())) == list(range(len(table.keypoints)))
    assert table.labels.tolist() == [pair.label_y for pair in pairs]
    assert table.magnitudes == tuple(pair.magnitude for pair in pairs)
    assert not table.keypoints.flags.writeable


def twinned_corpus(seed, templates, per_template):
    """A generated corpus plus the cases a table keeps apart from a list of
    PosePairs: a second id with another record's bytes, a -0.0 twin of a
    record with +0.0 coordinates, an unreferenced record and a repeated
    pair. Returns (records, entries)."""
    records, entries = generate_corpus_files(SynthConfig(
        template_count=templates, pairs_per_template=per_template, seed=seed))
    # t00 is the standing template, whose pelvis, neck and head sit at x = 0.0
    standing = records[0].pose.keypoints
    flipped = np.where(standing == 0.0, -0.0, standing)
    assert np.signbit(flipped).any()
    records += [PoseRecord(id="same_bytes", pose=Pose(records[-1].pose.keypoints.copy())),
                PoseRecord(id="negative_zero", pose=Pose(flipped)),
                PoseRecord(id="unused", pose=Pose(standing + 1.0))]
    entries += [PairEntry(a="same_bytes", b=records[1].id, y=1, magnitude=0.0),
                PairEntry(a="negative_zero", b="t00", y=1, magnitude=0.0),
                PairEntry(a="negative_zero", b=records[-4].id, y=0),
                entries[0]]
    return records, entries


class TestLoadCorpus:
    def test_end_to_end_files(self, tmp_path):
        cfg = SynthConfig(pairs_per_template=2, seed=21)
        records, entries = generate_corpus_files(cfg)
        table, ids = load_corpus(write_corpus(tmp_path, records, entries))
        pairs, direct_ids = build_pose_pairs(records, entries)
        assert ids == direct_ids
        assert_same_pairs(table, pairs)

    def test_a_table_is_not_replaced(self, tmp_path):
        records, entries = generate_corpus_files(SynthConfig(
            pairs_per_template=1, seed=4))
        table, _ = load_corpus(write_corpus(tmp_path, records, entries))
        with pytest.raises(TypeError, match="built by load_corpus or pair_table"):
            dataclasses.replace(table, labels=np.full(len(table), 2))

    def test_stack_that_takes_the_exact_checks(self, tmp_path):
        # each pose's sum of squares overflows at 1e200, so every record
        # takes its own exact checks; the table holds the same rows
        records, entries = generate_corpus_files(SynthConfig(
            pairs_per_template=1, seed=4))
        records = [PoseRecord(id=r.id, pose=Pose(r.pose.keypoints * 1e200))
                   for r in records]
        table, ids = load_corpus(write_corpus(tmp_path, records, entries))
        pairs, direct_ids = build_pose_pairs(records, entries)
        assert ids == direct_ids
        assert_same_pairs(table, pairs)

    def test_twins_and_unreferenced_records(self, tmp_path):
        records, entries = twinned_corpus(3, 2, 1)
        table, _ = load_corpus(write_corpus(tmp_path, records, entries))
        pairs, _ = build_pose_pairs(records, entries)
        assert_same_pairs(table, pairs)
        # the file's rows, not the distinct bytes: same_bytes keeps a row
        assert len(table.keypoints) == len(records) - 1

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), templates=st.integers(2, 3),
           per_template=st.integers(1, 3), scale=st.sampled_from([1.0, 1e-310]))
    def test_format_1_and_2_give_tables_with_equal_bytes(
            self, seed, templates, per_template, scale):
        # a scale of 1e-310 makes every coordinate subnormal
        records, entries = twinned_corpus(seed, templates, per_template)
        records = [PoseRecord(id=r.id, pose=Pose(r.pose.keypoints * scale),
                              category=r.category) for r in records]
        loaded = []
        with tempfile.TemporaryDirectory() as tmp:
            path = write_corpus(Path(tmp), records, entries)
            loaded.append(load_corpus(path))
            (Path(tmp) / "poses.json").write_bytes(dumped(v1_document(records)))
            loaded.append(load_corpus(path))
        (v2, v2_ids), (v1, v1_ids) = loaded
        assert v2_ids == v1_ids
        for name in ("keypoints", "twins", "labels"):
            a, b = getattr(v2, name), getattr(v1, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            assert not a.flags.writeable and not b.flags.writeable
        assert v2.magnitudes == v1.magnitudes

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), templates=st.integers(2, 3),
           per_template=st.integers(1, 3), init_seed=st.integers(0, 2 ** 16),
           variant=st.sampled_from(["gcn", "mlp"]))
    def test_table_and_pose_pairs_give_the_same_bytes(
            self, seed, templates, per_template, init_seed, variant):
        records, entries = twinned_corpus(seed, templates, per_template)
        with tempfile.TemporaryDirectory() as tmp:
            table, ids = load_corpus(write_corpus(Path(tmp), records, entries))
        pairs, direct_ids = build_pose_pairs(records, entries)
        assert ids == direct_ids
        topo = build_skeleton_topology()
        cfg = TrainConfig(epochs=2, batch_size=4, seed=seed)
        outputs = []
        for corpus in (table, pairs):
            model, history = train(init_model(h=2, seed=init_seed), topo, corpus,
                                   cfg, variant=variant)
            report = evaluate(model, topo, corpus, variant=variant, pair_ids=ids)
            outputs.append((save_checkpoint(model), history_csv(history),
                            report_csv(report), report_summary_csv(report)))
        assert outputs[0] == outputs[1]


# the records of VALID_RECORDS with no optional field, and a third; the
# column checks take their format 2 file
PLAIN_RECORDS = [PoseRecord(id=r.id, pose=r.pose) for r in VALID_RECORDS] + [
    random_record(_RNG, "c", category="squat")]
PLAIN_POSE_FILE = write_pose_file(PLAIN_RECORDS)


def edited(data: bytes, edits) -> bytes:
    """data with each (path, value) edit of replaced applied in turn; an
    edit whose path an earlier one took away is skipped."""
    for path, value in edits:
        try:
            data = replaced(data, path, value)
        except (KeyError, IndexError, TypeError):
            pass
    return data


def described(value):
    """value as a comparable form that tells an int from a float, -0.0 from
    0.0 and a tuple from a list, and holds each array's dtype, shape, bytes
    and writeability."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes(),
                value.flags.writeable)
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, *(described(getattr(value, f.name))
                                        for f in dataclasses.fields(value)))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, *map(described, value))
    return repr(value)


def outcome(read, *args):
    """What read(*args) returns, described, or the type and text of the
    ValueError or OSError it raises."""
    try:
        return described(read(*args))
    except (ValueError, OSError) as exc:
        return f"{type(exc).__name__}: {exc}"


@contextmanager
def by_row():
    """The readers with their column checks off, so that every file takes
    the per-row rule, which is what the column checks must agree with."""
    with mock.patch.object(corpus, "_pair_columns", lambda raw: None), \
            mock.patch.object(corpus, "_record_columns", lambda raw: None):
        yield


def read_outcomes(directory: Path, pair_file: bytes, pose_file: bytes) -> list:
    """The outcomes of parse_pair_file, parse_pose_file and load_corpus on
    the two files, written into directory, whose path an error may name."""
    (directory / "poses.json").write_bytes(pose_file)
    (directory / "pairs.json").write_bytes(pair_file)
    return [outcome(parse_pair_file, pair_file), outcome(parse_pose_file, pose_file),
            outcome(load_corpus, directory / "pairs.json")]


def assert_columns_agree_with_rows(pair_file: bytes, pose_file: bytes) -> None:
    """parse_pair_file, parse_pose_file and load_corpus give what the
    per-row rule gives: the same entries, records, table and ids, or the
    same error."""
    with tempfile.TemporaryDirectory() as tmp:
        got = read_outcomes(Path(tmp), pair_file, pose_file)
        with by_row():
            assert got == read_outcomes(Path(tmp), pair_file, pose_file)


def v2_edit(path, value):
    """The edit of a format 2 pair file that matches the format 1 edit
    (path, value): a pair's field is a cell of its column, and a deleted
    field, which the pair rule reads as None, a null cell."""
    if path[0] != "pairs":
        return path, value
    return ("pairs", path[2], path[1]), None if value is KeyError else value


# the fields of a format 1 pair file that a format 2 file holds too
PAIR_CELL_PATHS = (("poses",),) + tuple(
    ("pairs", i, key) for i in (0, 1) for key in ("a", "b", "y", "magnitude"))


# values the pair rule takes or refuses: int, bool, NaN, infinite (1e400
# reads as inf), -0.0, negative and huge magnitudes, labels and ids, and
# KeyError, which deletes the field
PAIR_VALUES = st.sampled_from([
    KeyError, None, 0, 1, 2, -1, True, False, 0.0, -0.0, 0.5, -0.5, 1.0,
    math.nan, math.inf, -math.inf, 1e308, 10 ** 400, "", "a", "b", "c", "a:b",
    "ghost", [], {}, {"a": "a"}])
# record fields by name (None: the whole record) and values their rule takes
# or refuses: duplicate, empty and CSV-special ids, valid and bad confidences
# and quality_scores, non-str categories, and keypoints a format 2 record
# may not carry
RECORD_EDITS = st.one_of(
    st.tuples(st.just("id"), st.sampled_from(
        [KeyError, "", "a", "b", "c", "d", "x,y", 'q"', "l\n", "r\r", 3, None])),
    st.tuples(st.just("category"), st.sampled_from(
        [KeyError, "squat", "", "a,b", 3, 0.5, None, True, []])),
    st.tuples(st.just("confidences"), st.sampled_from(
        [KeyError, [0.5] * NUM_KEYPOINTS, [1] * NUM_KEYPOINTS, [0, 1] * 7 + [0.25],
         [2.0] * NUM_KEYPOINTS, [0.5] * (NUM_KEYPOINTS - 1), [True] * NUM_KEYPOINTS,
         [math.nan] * NUM_KEYPOINTS, "x", None])),
    st.tuples(st.just("quality_score"), st.sampled_from(
        [KeyError, 0.25, -1.5, 3, 0, True, "0.5", math.nan, math.inf,
         10 ** 400, None])),
    st.tuples(st.just("keypoints"), st.sampled_from(
        [[[0.0, 0.0]] * NUM_KEYPOINTS, None, []])),
    st.tuples(st.just("extra"), st.sampled_from([0, None])),
    st.tuples(st.none(), st.sampled_from([3, "a", None, [], {}])))


class TestColumnChecks:
    """The readers check the pair rows, the pose records and the join a
    column at a time, and fall back to the per-row rule for any input the
    column checks do not take. Whatever the input, they must give what the
    per-row rule alone gives, error text included."""

    @settings(max_examples=300, deadline=None)
    @given(edits=st.lists(st.tuples(st.sampled_from(PAIR_FILE_PATHS),
                                    PAIR_VALUES | json_values),
                          min_size=1, max_size=3))
    @example(edits=[(("pairs", 0, "magnitude"), 0)])
    @example(edits=[(("pairs", 1, "magnitude"), -0.0)])
    @example(edits=[(("pairs", 1, "y"), True), (("pairs", 0, "magnitude"), -0.5)])
    @example(edits=[(("pairs", 1, "a"), "")])
    @example(edits=[(("pairs", 0, "magnitude"), 10 ** 400)])
    @example(edits=[(("pairs", 1), 7), (("pairs", 0, "magnitude"), math.nan)])
    @example(edits=[(("pairs", 0, "magnitude"), math.inf)])
    @example(edits=[(("pairs", 0, "b"), KeyError)])
    def test_pair_file_edits(self, edits):
        assert_columns_agree_with_rows(edited(VALID_PAIR_FILE, edits),
                                       PLAIN_POSE_FILE)

    @settings(max_examples=300, deadline=None)
    @given(edits=st.lists(st.tuples(st.integers(0, 2), RECORD_EDITS),
                          min_size=1, max_size=3))
    @example(edits=[(2, ("id", "a"))])
    @example(edits=[(1, ("id", ""))])
    @example(edits=[(0, ("id", 3))])
    @example(edits=[(2, ("id", "x,y")), (1, ("category", 3))])
    @example(edits=[(0, ("confidences", [1] * NUM_KEYPOINTS)),
                    (2, ("quality_score", 3))])
    @example(edits=[(1, ("confidences", [2.0] * NUM_KEYPOINTS))])
    @example(edits=[(0, ("category", 3))])
    @example(edits=[(1, ("keypoints", [[0.0, 0.0]] * NUM_KEYPOINTS))])
    def test_pose_record_edits(self, edits):
        pose_file = edited(PLAIN_POSE_FILE, [
            (("records", i) + (() if field is None else (field,)), value)
            for i, (field, value) in edits])
        pairs = write_pair_file(PairFile(poses="poses.json", entries=(
            PairEntry(a="a", b="b", y=1, magnitude=0.03),
            PairEntry(a="c", b="a", y=0))))
        assert_columns_agree_with_rows(pairs, pose_file)

    @settings(max_examples=300, deadline=None)
    @given(edits=st.lists(st.tuples(st.sampled_from(PAIR_CELL_PATHS),
                                    PAIR_VALUES | json_values), max_size=3))
    @example(edits=[])
    @example(edits=[(("pairs", 0, "magnitude"), KeyError), (("pairs", 1, "y"), 2)])
    @example(edits=[(("pairs", 1, "a"), KeyError)])
    @example(edits=[(("pairs", 1, "b"), "")])
    @example(edits=[(("pairs", 0, "magnitude"), 0), (("pairs", 1, "b"), "ghost")])
    @example(edits=[(("pairs", 1, "magnitude"), math.nan), (("pairs", 0, "y"), True)])
    def test_format_2_reads_as_format_1(self, edits):
        # the same edits, at a pair's fields of a format 1 file and at the
        # cells of a format 2 file's columns, give the same entries, table
        # and ids, or the same error, with and without the column checks
        v1 = edited(VALID_PAIR_FILE, edits)
        v2 = edited(VALID_PAIR_FILE_V2, [v2_edit(*edit) for edit in edits])
        with tempfile.TemporaryDirectory() as tmp:
            got = read_outcomes(Path(tmp), v2, PLAIN_POSE_FILE)
            assert got == read_outcomes(Path(tmp), v1, PLAIN_POSE_FILE)
            with by_row():
                assert got == read_outcomes(Path(tmp), v2, PLAIN_POSE_FILE)

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(*[st.sampled_from(["a", "b", "c", "g1", "g2"])] * 2),
                         min_size=1, max_size=6))
    @example(rows=[("a", "g1"), ("g2", "b")])
    def test_join_names_the_first_unknown_id_in_pair_order(self, rows):
        entries = [PairEntry(a=a, b=b, y=0) for a, b in rows]
        unknown = [ref for pair in rows for ref in pair if ref.startswith("g")]
        with tempfile.TemporaryDirectory() as tmp:
            path = write_corpus(Path(tmp), PLAIN_RECORDS, entries)
            if not unknown:
                table, ids = load_corpus(path)
                pairs, direct_ids = build_pose_pairs(PLAIN_RECORDS, entries)
                assert ids == direct_ids == [f"{a}:{b}" for a, b in rows]
                assert_same_pairs(table, pairs)
                return
            message = f"^pair references unknown pose id {unknown[0]!r}$"
            with pytest.raises(ValueError, match=message):
                load_corpus(path)
        with pytest.raises(ValueError, match=message):
            build_pose_pairs(PLAIN_RECORDS, entries)

    def test_unknown_b_of_row_0_is_named_before_unknown_a_of_row_1(self, tmp_path):
        # a join that looked up every a before any b would name 'g2'
        entries = [PairEntry(a="a", b="g1", y=0), PairEntry(a="g2", b="b", y=0)]
        with pytest.raises(ValueError, match="^pair references unknown pose "
                                             "id 'g1'$"):
            load_corpus(write_corpus(tmp_path, PLAIN_RECORDS, entries))

    def test_column_checks_take_gen_files(self, tmp_path):
        # the files gen writes, and their format 1 copies, never reach the
        # per-row rule
        records, entries = generate_corpus_files(SynthConfig(
            pairs_per_template=2, seed=5))
        path = write_corpus(tmp_path, records, entries)
        v1_path = tmp_path / "v1" / "pairs.json"
        v1_path.parent.mkdir()
        v1_path.write_bytes(v1_pairs_from_v2(path.read_bytes()))
        (v1_path.parent / "poses.json").write_bytes(
            v1_from_v2((tmp_path / "poses.json").read_bytes()))
        with mock.patch.object(corpus, "_checked_pairs", side_effect=AssertionError), \
                mock.patch.object(corpus, "_checked_records", side_effect=AssertionError):
            table, ids = load_corpus(path)
            v1_table, v1_ids = load_corpus(v1_path)
            for pairs_path in (path, v1_path):
                poses_path = pairs_path.parent / "poses.json"
                assert parse_pose_file(poses_path.read_bytes()) == records
                assert parse_pair_file(pairs_path.read_bytes()).entries == tuple(entries)
        pairs, direct_ids = build_pose_pairs(records, entries)
        assert ids == v1_ids == direct_ids
        assert_same_pairs(table, pairs)
        assert described(v1_table) == described(table)
