"""Pose corpora: JSON file formats, synthetic generation, pairing, splitting.

The pose file carries raw keypoints in pixel-like coordinates. Its format 2,
which write_pose_file writes, holds every record's keypoints in one base64
block of little-endian float64s beside the records' other fields; format 1,
which is still read, holds them as each record's nested lists. The pair
file references pose ids and stores a label plus an optional ground-truth
perturbation magnitude per pair. Its format 2, which write_pair_file
writes, holds the pairs as four equal-length columns; format 1, which is
still read, as one object per pair. The synthetic generator stands in for
an upstream pose-estimation stage: it jitters hand-authored template
skeletons by graded amounts for positive pairs and crosses distinct
templates for negatives, all deterministically from one seed.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from types import NoneType

import numpy as np

from posesim.network import (any_finite, check_count, check_seed, checked_float,
                             nonnegative, read_document, write_document)
from posesim.scoring import _csv_special, check_csv_ids
from posesim.skeleton import (KEYPOINT_NAMES, NUM_KEYPOINTS, Pose, admits_stack,
                              admitted, number_array)
from posesim.training import PosePair, _admitted_table, checked_label

FILE_VERSION = 1  # the first format of a pose file and of a pair file
POSE_FILE_VERSION = PAIR_FILE_VERSION = 2
# bytes of one record's keypoints in a format 2 pose file
_POSE_BYTES = NUM_KEYPOINTS * 2 * 8

# Template skeletons in keypoint order (r_ankle, r_knee, r_hip, pelvis,
# l_hip, l_knee, l_ankle, r_wrist, r_elbow, r_shoulder, neck, l_shoulder,
# l_elbow, l_wrist, head), y up, units roughly meters. Each bounding-box
# side is owned by a single keypoint with clearance, so min-max
# normalization stays smooth under jitter.
TEMPLATE_LIBRARY = (
    ("standing", (
        (-0.15, 0.10), (-0.14, 0.55), (-0.12, 1.00), (0.00, 1.00),
        (0.12, 1.00), (0.16, 0.62), (0.18, 0.22), (-0.25, 0.98),
        (-0.45, 1.16), (-0.20, 1.48), (0.00, 1.55), (0.20, 1.48),
        (0.41, 1.18), (0.24, 0.99), (0.00, 1.78),
    )),
    ("t_pose", (
        (-0.15, 0.10), (-0.14, 0.55), (-0.12, 1.00), (0.00, 1.00),
        (0.12, 1.00), (0.16, 0.62), (0.18, 0.22), (-0.85, 1.50),
        (-0.52, 1.49), (-0.21, 1.48), (0.00, 1.55), (0.21, 1.48),
        (0.50, 1.46), (0.80, 1.44), (0.00, 1.78),
    )),
    ("squat", (
        (-0.18, 0.10), (-0.31, 0.46), (-0.14, 0.64), (0.00, 0.63),
        (0.14, 0.64), (0.33, 0.50), (0.21, 0.20), (-0.52, 1.06),
        (-0.34, 1.02), (-0.19, 1.10), (0.00, 1.16), (0.19, 1.10),
        (0.34, 1.00), (0.48, 1.02), (0.00, 1.38),
    )),
    ("lunge", (
        (-0.55, 0.10), (-0.40, 0.52), (-0.10, 0.86), (0.02, 0.86),
        (0.14, 0.86), (0.47, 0.38), (0.74, 0.20), (-0.22, 0.88),
        (-0.30, 1.10), (-0.16, 1.36), (0.02, 1.42), (0.20, 1.36),
        (0.28, 1.10), (0.24, 0.90), (0.02, 1.64),
    )),
    ("arms_raised", (
        (-0.15, 0.10), (-0.14, 0.55), (-0.12, 1.00), (0.00, 1.00),
        (0.12, 1.00), (0.16, 0.62), (0.18, 0.22), (-0.55, 2.02),
        (-0.34, 1.76), (-0.20, 1.48), (0.00, 1.55), (0.20, 1.48),
        (0.32, 1.70), (0.50, 1.90), (0.00, 1.78),
    )),
    ("kick", (
        (-0.95, 1.08), (-0.52, 1.02), (-0.12, 0.98), (0.00, 1.00),
        (0.12, 1.00), (0.13, 0.55), (0.14, 0.10), (-0.60, 1.38),
        (-0.36, 1.44), (-0.18, 1.50), (0.05, 1.56), (0.26, 1.50),
        (0.44, 1.42), (0.68, 1.50), (0.08, 1.78),
    )),
    ("sit", (
        (-0.52, 0.10), (-0.40, 0.56), (-0.13, 0.55), (0.00, 0.55),
        (0.13, 0.55), (0.40, 0.58), (0.50, 0.20), (-0.34, 0.64),
        (-0.27, 0.84), (-0.19, 1.06), (0.00, 1.12), (0.19, 1.06),
        (0.27, 0.84), (0.34, 0.66), (0.00, 1.34),
    )),
    ("bend", (
        (-0.24, 0.10), (-0.13, 0.52), (-0.12, 0.95), (0.00, 1.06),
        (0.12, 0.95), (0.15, 0.54), (0.10, 0.22), (0.24, 0.30),
        (0.30, 0.48), (0.38, 0.66), (0.42, 0.70), (0.46, 0.62),
        (0.50, 0.44), (0.44, 0.26), (0.62, 0.50),
    )),
)

# child -> parent over the skeleton tree, rooted at the pelvis (index 3)
_PARENT = {0: 1, 1: 2, 2: 3, 4: 3, 5: 4, 6: 5, 10: 3, 9: 10, 11: 10,
           14: 10, 8: 9, 7: 8, 12: 11, 13: 12}


# checked_float's ranges of a confidence and of a train fraction
_unit_range, _open_unit_range = (lambda v: 0 <= v <= 1), (lambda v: 0 < v < 1)

# a pose record's fields but its pose, and a pair row's fields, in the
# order of their checked columns
_RECORD_FIELDS = ("id", "confidences", "category", "quality_score")
_PAIR_FIELDS = ("a", "b", "y", "magnitude")


@dataclass(frozen=True)
class PoseRecord:
    """One named pose; confidences are carried through but never modeled.

    pose is the validated Pose itself, so its keypoints are checked once,
    where the Pose is built. The id goes into report.csv's pair ids as it
    is, so it may not hold a comma, a double quote or a line break.
    confidences and quality_score take checked_float's rule (ints or
    floats, not bools or strings) and are kept as a tuple of floats and a
    float. The readers build one per record to apply this rule wherever
    their column checks decline.
    """

    id: str
    pose: Pose
    confidences: tuple | None = None
    category: str | None = None
    quality_score: float | None = None

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValueError(f"record id must be a nonempty string, got {self.id!r}")
        check_csv_ids((self.id,), "record id")
        if self.confidences is not None:
            conf = tuple(self.confidences)
            if len(conf) != NUM_KEYPOINTS:
                raise ValueError(f"confidences must have length "
                                 f"{NUM_KEYPOINTS}, got {len(conf)}")
            object.__setattr__(self, "confidences", tuple(checked_float(
                c, _unit_range, "confidences must be numbers in [0, 1]") for c in conf))
        if self.category is not None and not isinstance(self.category, str):
            raise ValueError("category must be a string")
        if self.quality_score is not None:
            object.__setattr__(self, "quality_score", checked_float(
                self.quality_score, any_finite, "quality_score must be a finite number"))
        if not isinstance(self.pose, Pose):
            raise TypeError(f"pose must be a Pose, got {type(self.pose).__name__}")


@dataclass(frozen=True)
class PairEntry:
    """One row of a pair file: two pose ids, nonempty strings, a label and
    an optional magnitude, both by checked_label's rule. The readers build
    one per row to apply this rule wherever their column checks decline."""

    a: str
    b: str
    y: int
    magnitude: float | None = None

    def __post_init__(self):
        for name, v in (("a", self.a), ("b", self.b)):
            if not isinstance(v, str) or not v:
                raise ValueError(f"pair field {name} must be a nonempty "
                                 f"string, got {v!r}")
        object.__setattr__(self, "magnitude", checked_label(self.y, self.magnitude))


def _check_poses_reference(poses) -> None:
    """The rule of a pair file's poses: a nonempty string, its pose file,
    holding no NUL, which no file name can."""
    if not isinstance(poses, str) or not poses or "\0" in poses:
        raise ValueError("pair file must reference a pose file in 'poses'")


@dataclass(frozen=True)
class PairFile:
    """A pair file: the pose file its ids refer to and its PairEntries."""

    poses: str
    entries: tuple

    def __post_init__(self):
        _check_poses_reference(self.poses)
        entries = tuple(self.entries)
        for i, entry in enumerate(entries):
            if not isinstance(entry, PairEntry):
                raise ValueError(f"pair at index {i} must be a PairEntry, "
                                 f"got {entry!r}")
        object.__setattr__(self, "entries", entries)


@dataclass(frozen=True)
class SynthConfig:
    template_count: int = 8
    pairs_per_template: int = 32
    jitter_levels: tuple = (0.01, 0.03, 0.05, 0.10)
    seed: int = 0

    def __post_init__(self):
        check_count(self.template_count, "template_count")
        if self.template_count < 2:
            raise ValueError("cross-template negatives need template_count >= 2")
        check_count(self.pairs_per_template, "pairs_per_template")
        if not isinstance(self.jitter_levels, (list, tuple)) or not self.jitter_levels:
            raise ValueError(f"jitter_levels must be a nonempty list or tuple, "
                             f"got {self.jitter_levels!r}")
        rule = "jitter_levels must be finite and >= 0 (ints or floats)"
        levels = tuple(checked_float(v, nonnegative, rule) for v in self.jitter_levels)
        if list(levels) != sorted(levels):
            raise ValueError("jitter_levels must be sorted ascending")
        object.__setattr__(self, "jitter_levels", levels)
        check_seed(self.seed)


def parse_pose_file(data: bytes) -> list[PoseRecord]:
    """Parse and validate a pose file of format 1 or 2; record order is
    preserved.

    Errors name the offending record wherever an id is available, and a
    fault of format 2's keypoint block names its field. The keypoints of
    all records are admitted as one stack, of which each record's Pose
    holds a read-only row; if the stack fails, each record's own Pose
    check names the faulty record.
    """
    stack, columns = _record_fields(data)
    return [admitted(PoseRecord, dict(zip(_RECORD_FIELDS, fields),
                                      pose=admitted(Pose, {"keypoints": kp})))
            for kp, *fields in zip(stack, *columns)]


def _record_fields(data: bytes) -> tuple[np.ndarray, tuple]:
    """A pose file's read-only (n, 15, 2) keypoint stack and the checked
    columns of its records' other fields, in _RECORD_FIELDS and file order:
    parse_pose_file short of building the records and their Poses.

    A format 1 record's keypoints are popped into the stack attempt, which
    leaves a format 2 record. An admitted stack's records take the column
    checks of _record_columns; the rest, or those it declines, the per-row
    rule of _checked_records."""
    doc = read_document(data, "pose file", FILE_VERSION, POSE_FILE_VERSION)
    if doc.get("keypoint_order") != list(KEYPOINT_NAMES):
        raise ValueError("pose file keypoint_order does not match the "
                         "15-joint skeleton layout")
    raw_records = doc.get("records")
    if not isinstance(raw_records, list):
        raise ValueError("pose file must carry a 'records' array")
    records, not_object = _objects(raw_records, "record")
    if doc["format_version"] == POSE_FILE_VERSION:
        keypoints = _keypoint_block(doc.get("keypoints"), len(raw_records))
    else:
        keypoints = [record.pop("keypoints", None) for record in records]
        try:
            keypoints = number_array(keypoints, (len(keypoints), NUM_KEYPOINTS, 2),
                                     "keypoints")
            keypoints.setflags(write=False)
        except ValueError:
            pass  # no stack: each record's own Pose check names the faulty one
    stacked = isinstance(keypoints, np.ndarray) and admits_stack(keypoints)
    columns = _record_columns(records) if stacked else None
    columns = columns or _checked_records(records, keypoints, stacked)
    if not_object:
        raise not_object
    # every record passed its Pose check, so the keypoints converted, if any
    return np.reshape(keypoints, (-1, NUM_KEYPOINTS, 2)), columns


def _objects(rows: list, what: str) -> tuple[list, ValueError | None]:
    """rows up to the first that is not a JSON object, and the ValueError
    naming that row for the caller to raise once the rows before it pass, so
    the first fault in file order wins; None for it if every row is one."""
    if set(map(type, rows)) <= {dict}:
        return rows, None
    k = next(i for i, row in enumerate(rows) if not isinstance(row, dict))
    return rows[:k], ValueError(f"{what} at index {k} must be an object")


def _record_columns(records: list) -> tuple | None:
    """_checked_records' columns of records whose stack was admitted, checked
    a column at a time, if every record holds an id and at most a category,
    the ids nonempty, distinct strings report.csv would not quote and the
    categories strings; None for others, which the per-row rule judges."""
    if not set().union(*records) <= {"id", "category"}:
        return None
    ids, categories = (list(map(dict.get, records, repeat(key)))
                       for key in ("id", "category"))
    if not (set(map(type, ids)) <= {str} and all(ids)
            and len(set(ids)) == len(ids) and not _csv_special("".join(ids))
            and set(map(type, categories)) <= {str, NoneType}):
        return None
    absent = [None] * len(ids)
    return ids, absent, categories, absent


def _checked_records(records: list, keypoints, stacked: bool) -> tuple:
    """The record rule, a record at a time: the columns of _record_fields,
    each record's fields as the PoseRecord built from them holds them, or
    the ValueError of the first record, in file order, that breaks it.
    Unless the stack was admitted, keypoints[i] takes record i's Pose check."""
    columns = ([], [], [], [])
    seen = set()
    for i, raw in enumerate(records):
        rec_id = raw.get("id")
        if not isinstance(rec_id, str) or not rec_id:
            raise ValueError(f"record at index {i} is missing a string id")
        if rec_id in seen:
            raise ValueError(f"duplicate record id {rec_id!r}")
        check_csv_ids((rec_id,), "record id")  # the try's prefix would repeat it
        seen.add(rec_id)
        try:
            if "keypoints" in raw:
                raise ValueError("keypoints belong in the file's 'keypoints' "
                                 "block in format_version 2, not in a record")
            pose = (admitted(Pose, {"keypoints": keypoints[i]}) if stacked
                    else Pose(keypoints[i]))  # its exact checks name the faulty record
            record = PoseRecord(rec_id, pose, raw.get("confidences"),
                                raw.get("category"), raw.get("quality_score"))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"record {rec_id!r}: {exc}") from exc
        for column, name in zip(columns, _RECORD_FIELDS):
            column.append(getattr(record, name))
    return columns


def _keypoint_block(block, n: int) -> np.ndarray:
    """The read-only (n, 15, 2) stack of a format 2 pose file's 'keypoints'
    field, which holds n records' keypoints as little-endian float64s in C
    order, base64-encoded with the standard alphabet and padding;
    ValueError naming the field for anything else."""
    if not isinstance(block, str):
        raise ValueError(f"pose file 'keypoints' must be a base64 string, "
                         f"got {type(block).__name__}")
    try:
        raw = base64.b64decode(block, validate=True)
    except ValueError as exc:
        raise ValueError(f"pose file 'keypoints' is not valid base64 "
                         f"({exc})") from exc
    if len(raw) != n * _POSE_BYTES:
        raise ValueError(f"pose file 'keypoints' holds {len(raw)} bytes, "
                         f"not the {n * _POSE_BYTES} of {n} records")
    stack = np.frombuffer(raw, "<f8").reshape(n, NUM_KEYPOINTS, 2)
    stack.setflags(write=False)
    return stack


def write_pose_file(records) -> bytes:
    """Canonical pose-file serialization, format 2: the keypoints of all
    records, in record order, as one base64 block of little-endian float64s
    in C order, which keeps each coordinate's bits, and each record's other
    fields with sorted keys, full-precision floats and optional fields
    omitted when absent. parse(write(r)) == r, each Pose comparing by its
    keypoint bytes, and the bytes are identical across runs."""
    seen = set()
    out, stack = [], []
    for rec in records:
        if rec.id in seen:
            raise ValueError(f"duplicate record id {rec.id!r}")
        seen.add(rec.id)
        stack.append(rec.pose.keypoints)
        fields = zip(_RECORD_FIELDS, attrgetter(*_RECORD_FIELDS)(rec))
        out.append({name: value for name, value in fields if value is not None})
    block = base64.b64encode(np.array(stack, dtype="<f8").tobytes())
    return write_document({"keypoint_order": list(KEYPOINT_NAMES),
                           "keypoints": block.decode("ascii"),
                           "records": out}, POSE_FILE_VERSION)


def parse_pair_file(data: bytes) -> PairFile:
    poses, columns = _pair_rows(data)
    return admitted(PairFile, {"poses": poses, "entries": tuple(
        admitted(PairEntry, dict(zip(_PAIR_FIELDS, row)))
        for row in zip(*columns))})


def _pair_rows(data: bytes) -> tuple[str, tuple]:
    """A pair file's pose-file reference and its rows' checked columns, in
    _PAIR_FIELDS order: parse_pair_file short of building the entries.

    Format 1's objects are taken apart into the four columns format 2
    holds, so both formats take one path and raise one first error: the
    column checks of _pair_columns, then the per-row rule of _checked_pairs
    on columns those decline."""
    doc = read_document(data, "pair file", FILE_VERSION, PAIR_FILE_VERSION)
    poses = doc.get("poses")
    _check_poses_reference(poses)
    raw_pairs = doc.get("pairs")
    if doc["format_version"] == PAIR_FILE_VERSION:
        columns, not_object = _pair_block(raw_pairs), None
    elif not isinstance(raw_pairs, list):
        raise ValueError("pair file must carry a 'pairs' array")
    else:
        rows, not_object = _objects(raw_pairs, "pair")
        columns = [list(map(dict.get, rows, repeat(key))) for key in _PAIR_FIELDS]
    columns = _pair_columns(columns) or _checked_pairs(columns)
    if not_object:
        raise not_object
    return poses, columns


def _pair_block(block) -> list:
    """The four columns of a format 2 pair file's 'pairs', an object holding
    exactly the lists a, b, y and magnitude, all of one length; ValueError
    naming the field for anything else."""
    if not isinstance(block, dict):
        raise ValueError(f"pair file 'pairs' must be an object of the columns "
                         f"{', '.join(_PAIR_FIELDS)}, got {type(block).__name__}")
    for key in _PAIR_FIELDS:
        if key not in block:
            raise ValueError(f"pair file 'pairs' is missing the column {key!r}")
    if len(block) > len(_PAIR_FIELDS):
        extra = min(block.keys() - set(_PAIR_FIELDS))
        raise ValueError(f"pair file 'pairs' has an unknown column {extra!r}")
    columns = [block[key] for key in _PAIR_FIELDS]
    for key, column in zip(_PAIR_FIELDS, columns):
        if not isinstance(column, list):
            raise ValueError(f"pair file 'pairs' column {key!r} must be a "
                             f"list, got {type(column).__name__}")
    if len(set(map(len, columns))) > 1:
        lengths = ", ".join(f"{key} {len(column)}"
                            for key, column in zip(_PAIR_FIELDS, columns))
        raise ValueError(f"pair file 'pairs' columns must have one length, "
                         f"got {lengths}")
    return columns


def _pair_columns(columns: list) -> list | None:
    """columns, a pair file's a, b, y and magnitude lists, if they pass the
    pair rule checked a column at a time: a and b nonempty strings, y the
    int 0 or 1 and each magnitude None or a float in [0, inf); None for any
    other columns, an int magnitude's too, which the per-row rule judges."""
    a, b, y, magnitudes = columns
    given = [m for m in magnitudes if m is not None]
    if not ((set(map(type, a)) | set(map(type, b))) <= {str} and all(a)
            and all(b) and set(map(type, y)) <= {int} and set(y) <= {0, 1}
            and set(map(type, given)) <= {float}
            and all(map(nonnegative, given)) and all(map(math.inf.__gt__, given))):
        return None
    return columns


def _checked_pairs(columns: list) -> tuple:
    """The pair rule, a row at a time: columns, a pair file's a, b, y and
    magnitude lists, each magnitude as the PairEntry built from its row
    holds it, or the ValueError of the first row, in file order, that breaks
    the rule."""
    magnitudes = []
    for i, row in enumerate(zip(*columns)):
        try:
            magnitudes.append(PairEntry(*row).magnitude)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"pair at index {i}: {exc}") from exc
    return *columns[:3], magnitudes


def write_pair_file(pair_file: PairFile) -> bytes:
    """Canonical pair-file serialization, format 2: the entries' a, b, y
    and magnitude as four columns in entry order, a magnitude null where
    absent. parse(write(f)) == f, and the bytes are identical across runs."""
    return write_document({"poses": pair_file.poses, "pairs": {
        key: list(map(attrgetter(key), pair_file.entries))
        for key in _PAIR_FIELDS}}, PAIR_FILE_VERSION)


def build_pose_pairs(records, entries):
    """Join pair entries against records; returns (pairs, pair_ids).

    Each pair holds its records' own Pose objects. An entry that is not a
    PairEntry is made one first, which checks its fields.
    """
    entries = [e if type(e) is PairEntry else PairEntry(e.a, e.b, e.y, e.magnitude)
               for e in entries]
    poses = [rec.pose for rec in records]
    twins, ids = _join([rec.id for rec in records],
                       [e.a for e in entries], [e.b for e in entries])
    return [admitted(PosePair, {"pose_a": poses[a], "pose_b": poses[b],
                                "label_y": e.y, "magnitude": e.magnitude})
            for (a, b), e in zip(twins.tolist(), entries)], ids


def _join(ids: list, a: list, b: list) -> tuple[np.ndarray, list]:
    """The twins, an (m, 2) intp array of (row of a, row of b), and the ids
    "a:b" of pairs whose columns a and b passed PairEntry's rule, given the
    pose id of each row; ValueError naming the first id, in pair order,
    that has no row."""
    rows = dict(zip(ids, range(len(ids))))
    try:
        twins = np.array([list(map(rows.__getitem__, a)),
                          list(map(rows.__getitem__, b))], dtype=np.intp).T
    except KeyError:
        bad = next(ref for pair in zip(a, b) for ref in pair if ref not in rows)
        raise ValueError(f"pair references unknown pose id {bad!r}") from None
    return twins, list(map(":".join, zip(a, b)))


def _rotate_subtree(points: np.ndarray, joint: int, parent: int,
                    angle: float) -> None:
    """Rotate joint and all its descendants about the parent's position."""
    members = [joint]
    for node in members:
        members.extend(c for c, p in _PARENT.items() if p == node)
    c, s = math.cos(angle), math.sin(angle)
    pivot = points[parent].copy()
    for idx in members:
        dx, dy = points[idx] - pivot
        points[idx] = pivot + np.array([c * dx - s * dy, s * dx + c * dy])


def _template_poses(cfg: SynthConfig, rng) -> list[tuple[str, np.ndarray]]:
    """The fixed library, extended past 8 by seeded joint-angle variation."""
    out = []
    for i in range(cfg.template_count):
        name, coords = TEMPLATE_LIBRARY[i % len(TEMPLATE_LIBRARY)]
        points = np.array(coords, dtype=np.float64)
        if i >= len(TEMPLATE_LIBRARY):
            name = f"{name}_v{i // len(TEMPLATE_LIBRARY)}"
            for joint, parent in _PARENT.items():
                _rotate_subtree(points, joint, parent,
                                float(rng.normal(scale=0.15)))
        out.append((name, points))
    return out


def _extent_diagonal(points: np.ndarray) -> float:
    spans = points.max(axis=0) - points.min(axis=0)
    return float(np.hypot(spans[0], spans[1]))


def generate_corpus_files(cfg: SynthConfig = SynthConfig()):
    """Synthesize a labelled corpus; returns (records, entries).

    Positive pairs match a template with a jittered copy of itself and
    record the jitter level as magnitude; negative pairs cross jittered
    poses from two distinct templates. Deterministic in cfg.seed. The
    result is the file-level view for serialization; build_pose_pairs
    joins it into pose pairs.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    records, entries = [], []
    templates = _template_poses(cfg, rng)
    for i, (name, points) in enumerate(templates):
        records.append(PoseRecord(id=f"t{i:02d}", pose=Pose(points),
                                  category=name))
    for i, (name, points) in enumerate(templates):
        diag = _extent_diagonal(points)
        for k in range(cfg.pairs_per_template):
            level = cfg.jitter_levels[k % len(cfg.jitter_levels)]
            jittered = points
            if level > 0.0:
                # per-axis sigma level*diag/sqrt(2): the displacement vector
                # then has RMS length level*diag (mean 0.886 of that)
                sigma = level * diag / math.sqrt(2.0)
                jittered = points + rng.normal(scale=sigma, size=points.shape)
            rec_id = f"t{i:02d}_p{k:03d}"
            records.append(PoseRecord(id=rec_id, pose=Pose(jittered),
                                      category=name))
            entries.append(PairEntry(a=f"t{i:02d}", b=rec_id, y=1,
                                     magnitude=level))
    n_templates = len(templates)
    for i in range(n_templates):
        for k in range(cfg.pairs_per_template):
            # round-robin partner: every template is pushed against every
            # other one equally often, keeping the learned metric balanced
            other = (i + 1 + k % (n_templates - 1)) % n_templates
            entries.append(PairEntry(a=f"t{i:02d}",
                                     b=f"t{other:02d}_p{k:03d}", y=0))
    return records, entries


def split_corpus(items, train_fraction: float, seed: int = 0):
    """Seeded shuffle-then-split of any sequence; returns (train, held_out).

    Disjoint by position and their concatenation is a permutation of the
    input (multiplicity preserved).
    """
    items = list(items)
    if not items:
        raise ValueError("nothing to split")
    fraction = checked_float(train_fraction, _open_unit_range,
                             "train_fraction must be in (0, 1) (an int or a float)")
    check_seed(seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(len(items))
    cut = int(round(len(items) * fraction))
    train = [items[i] for i in order[:cut]]
    held = [items[i] for i in order[cut:]]
    return train, held


def load_corpus(pair_path):
    """Read a pair file, resolve its pose file, and join them.

    Returns (PairTable, pair_ids), the pairs of build_pose_pairs on the two
    parsed files, building no record, entry, Pose or PosePair: the table
    holds the rows of the pose file's admitted stack that a pair uses. The
    'poses' reference is taken relative to the pair file's directory.
    """
    pair_path = Path(pair_path)
    pose_file, (a, b, y, magnitudes) = _pair_rows(pair_path.read_bytes())
    stack, (ids, *_) = _record_fields((pair_path.parent / pose_file).read_bytes())
    twins, pair_ids = _join(ids, a, b)
    used, twins = np.unique(twins, return_inverse=True)
    return _admitted_table(stack[used], twins.reshape(-1, 2),
                           np.array(y, dtype=np.intp), tuple(magnitudes)), pair_ids
