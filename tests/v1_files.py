"""Pose and pair files of format 1, built with the standard library alone.

write_pose_file writes format 2, whose keypoints are one base64 block, and
write_pair_file format 2, whose pairs are four columns; the tests that edit
a record's keypoints or a pair's fields in place, and the checks that
format 1 is still read, build their format 1 files here, independently of
the package's writers: json.dumps(sort_keys=True, indent=1) plus a newline,
the bytes format 1 files were written with.
"""

import base64
import json
import struct

from posesim.skeleton import KEYPOINT_NAMES

# the 15 keypoints of one record, two coordinates each
COORDS = 30


def dumped(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")


def v1_document(records) -> dict:
    """The format 1 document of PoseRecords: each record's keypoints as
    nested lists, optional fields omitted when absent."""
    rows = []
    for rec in records:
        row = {"id": rec.id, "keypoints": rec.pose.keypoints.tolist()}
        if rec.confidences is not None:
            row["confidences"] = list(rec.confidences)
        if rec.category is not None:
            row["category"] = rec.category
        if rec.quality_score is not None:
            row["quality_score"] = rec.quality_score
        rows.append(row)
    return {"format_version": 1, "keypoint_order": list(KEYPOINT_NAMES),
            "records": rows}


def v1_from_v2(data: bytes) -> bytes:
    """The format 1 bytes of a format 2 pose file: its keypoint block,
    little-endian float64s, unpacked back into each record's rows."""
    doc = json.loads(data)
    assert doc["format_version"] == 2
    block = base64.b64decode(doc.pop("keypoints"), validate=True)
    values = struct.unpack(f"<{len(block) // 8}d", block)
    for i, row in enumerate(doc["records"]):
        flat = values[COORDS * i:COORDS * (i + 1)]
        row["keypoints"] = [list(flat[j:j + 2]) for j in range(0, COORDS, 2)]
    doc["format_version"] = 1
    return dumped(doc)


def v1_pairs_from_v2(data: bytes) -> bytes:
    """The format 1 bytes of a format 2 pair file: its a, b, y and
    magnitude columns zipped back into one object per pair, the magnitude
    omitted where it is null."""
    doc = json.loads(data)
    assert doc["format_version"] == 2
    columns = doc["pairs"]
    rows = []
    for a, b, y, magnitude in zip(columns["a"], columns["b"], columns["y"],
                                  columns["magnitude"]):
        row = {"a": a, "b": b, "y": y}
        if magnitude is not None:
            row["magnitude"] = magnitude
        rows.append(row)
    doc["pairs"] = rows
    doc["format_version"] = 1
    return dumped(doc)
