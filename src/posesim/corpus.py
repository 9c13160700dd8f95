"""Pose corpora: JSON file formats, synthetic generation, pairing, splitting.

The pose file carries raw keypoints in pixel-like coordinates; the pair file
references pose ids and stores a label plus an optional ground-truth
perturbation magnitude. The synthetic generator stands in for an upstream
pose-estimation stage: it jitters hand-authored template skeletons by graded
amounts for positive pairs and crosses distinct templates for negatives, all
deterministically from one seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from posesim.network import (check_count, check_seed, json_number, read_document,
                             write_document)
from posesim.skeleton import KEYPOINT_NAMES, NUM_KEYPOINTS, Pose, number_array
from posesim.training import PosePair, checked_label

FILE_VERSION = 1

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


@dataclass(frozen=True)
class PoseRecord:
    """One named pose; confidences are carried through but never modeled.

    pose is the validated Pose itself, so its keypoints are checked once,
    where the Pose is built. confidences and quality_score take JSON numbers
    only (ints or floats, not bools or strings).
    """

    id: str
    pose: Pose
    confidences: tuple | None = None
    category: str | None = None
    quality_score: float | None = None

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValueError(f"record id must be a nonempty string, got {self.id!r}")
        if not isinstance(self.pose, Pose):
            raise TypeError(f"pose must be a Pose, got {type(self.pose).__name__}")
        if self.confidences is not None:
            conf = tuple(json_number(c) for c in self.confidences)
            if len(conf) != NUM_KEYPOINTS:
                raise ValueError(f"confidences must have length "
                                 f"{NUM_KEYPOINTS}, got {len(conf)}")
            if not all(c is not None and 0.0 <= c <= 1.0 for c in conf):
                raise ValueError("confidences must be numbers in [0, 1]")
            object.__setattr__(self, "confidences", conf)
        if self.category is not None and not isinstance(self.category, str):
            raise ValueError("category must be a string")
        if self.quality_score is not None:
            qs = json_number(self.quality_score)
            if qs is None or not math.isfinite(qs):
                raise ValueError(f"quality_score must be a finite number, "
                                 f"got {self.quality_score!r}")
            object.__setattr__(self, "quality_score", qs)


@dataclass(frozen=True)
class PairEntry:
    """One row of a pair file: two pose ids, a label, optional magnitude."""

    a: str
    b: str
    y: int
    magnitude: float | None = None

    def __post_init__(self):
        for name in ("a", "b"):
            v = getattr(self, name)
            if not isinstance(v, str) or not v:
                raise ValueError(f"pair field {name} must be a nonempty string, got {v!r}")
        try:
            mag = checked_label(self.y, self.magnitude)
        except ValueError as exc:
            raise ValueError(f"pair {self.a!r}/{self.b!r}: {exc}") from exc
        object.__setattr__(self, "magnitude", mag)


@dataclass(frozen=True)
class PairFile:
    poses: str
    entries: tuple


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
        levels = tuple(float(v) for v in self.jitter_levels)
        if not levels:
            raise ValueError("jitter_levels must be nonempty")
        if any(not (math.isfinite(v) and v >= 0.0) for v in levels):
            raise ValueError("jitter levels must be finite and >= 0")
        if list(levels) != sorted(levels):
            raise ValueError("jitter levels must be sorted ascending")
        object.__setattr__(self, "jitter_levels", levels)
        check_seed(self.seed)


def parse_pose_file(data: bytes) -> list[PoseRecord]:
    """Parse and validate a pose file; record order is preserved.

    Errors name the offending record wherever an id is available; each
    record's Pose is built once, here.
    """
    doc = read_document(data, "pose file", FILE_VERSION)
    if doc.get("keypoint_order") != list(KEYPOINT_NAMES):
        raise ValueError("pose file keypoint_order does not match the "
                         "15-joint skeleton layout")
    raw_records = doc.get("records")
    if not isinstance(raw_records, list):
        raise ValueError("pose file must carry a 'records' array")
    # One conversion and element check for every record's keypoints; if it
    # fails, each record's own Pose check names the faulty record
    keypoints = [raw.get("keypoints") if isinstance(raw, dict) else None
                 for raw in raw_records]
    try:
        keypoints = number_array(keypoints, (len(keypoints), NUM_KEYPOINTS, 2),
                                 "keypoints")
    except ValueError:
        pass
    records = []
    seen = set()
    for i, raw in enumerate(raw_records):
        if not isinstance(raw, dict):
            raise ValueError(f"record at index {i} must be an object")
        rec_id = raw.get("id")
        if not isinstance(rec_id, str) or not rec_id:
            raise ValueError(f"record at index {i} is missing a string id")
        if rec_id in seen:
            raise ValueError(f"duplicate record id {rec_id!r}")
        seen.add(rec_id)
        try:
            records.append(PoseRecord(
                id=rec_id,
                pose=Pose(keypoints[i]),
                confidences=raw.get("confidences"),
                category=raw.get("category"),
                quality_score=raw.get("quality_score"),
            ))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"record {rec_id!r}: {exc}") from exc
    return records


def write_pose_file(records) -> bytes:
    """Canonical pose-file serialization: sorted keys, full-precision floats,
    optional fields omitted when absent. parse(write(r)) == r and the bytes
    are identical across runs."""
    seen = set()
    out = []
    for rec in records:
        if rec.id in seen:
            raise ValueError(f"duplicate record id {rec.id!r}")
        seen.add(rec.id)
        row = {"id": rec.id, "keypoints": rec.pose.keypoints.tolist()}
        if rec.confidences is not None:
            row["confidences"] = list(rec.confidences)
        if rec.category is not None:
            row["category"] = rec.category
        if rec.quality_score is not None:
            row["quality_score"] = rec.quality_score
        out.append(row)
    return write_document({"keypoint_order": list(KEYPOINT_NAMES),
                           "records": out}, FILE_VERSION)


def parse_pair_file(data: bytes) -> PairFile:
    doc = read_document(data, "pair file", FILE_VERSION)
    poses = doc.get("poses")
    if not isinstance(poses, str) or not poses:
        raise ValueError("pair file must reference a pose file in 'poses'")
    raw_pairs = doc.get("pairs")
    if not isinstance(raw_pairs, list):
        raise ValueError("pair file must carry a 'pairs' array")
    entries = []
    for i, raw in enumerate(raw_pairs):
        if not isinstance(raw, dict):
            raise ValueError(f"pair at index {i} must be an object")
        try:
            entries.append(PairEntry(a=raw.get("a"), b=raw.get("b"),
                                     y=raw.get("y"),
                                     magnitude=raw.get("magnitude")))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"pair at index {i}: {exc}") from exc
    return PairFile(poses=poses, entries=tuple(entries))


def write_pair_file(pair_file: PairFile) -> bytes:
    rows = []
    for e in pair_file.entries:
        row = {"a": e.a, "b": e.b, "y": e.y}
        if e.magnitude is not None:
            row["magnitude"] = e.magnitude
        rows.append(row)
    return write_document({"poses": pair_file.poses, "pairs": rows},
                          FILE_VERSION)


def build_pose_pairs(records, entries):
    """Join pair entries against records; returns (pairs, pair_ids).

    Each pair holds its records' own Pose objects.
    """
    poses = {rec.id: rec.pose for rec in records}
    pairs, ids = [], []
    for e in entries:
        for ref in (e.a, e.b):
            if ref not in poses:
                raise ValueError(f"pair references unknown pose id {ref!r}")
        pairs.append(PosePair(poses[e.a], poses[e.b], e.y,
                              magnitude=e.magnitude))
        ids.append(f"{e.a}:{e.b}")
    return pairs, ids


def _rotate_subtree(points: np.ndarray, joint: int, parent: int,
                    angle: float) -> None:
    """Rotate joint and all its descendants about the parent's position."""
    members = [joint]
    frontier = [joint]
    while frontier:
        node = frontier.pop()
        kids = [c for c, p in _PARENT.items() if p == node]
        members.extend(kids)
        frontier.extend(kids)
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
            jittered = points.copy()
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
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    check_seed(seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(len(items))
    cut = int(round(len(items) * train_fraction))
    train = [items[i] for i in order[:cut]]
    held = [items[i] for i in order[cut:]]
    return train, held


def load_corpus(pair_path):
    """Read a pair file, resolve its pose file, and join them.

    Returns (pairs, pair_ids). The 'poses' reference is taken relative to
    the pair file's directory.
    """
    pair_path = Path(pair_path)
    pf = parse_pair_file(pair_path.read_bytes())
    pose_path = pair_path.parent / pf.poses
    records = parse_pose_file(pose_path.read_bytes())
    return build_pose_pairs(records, pf.entries)
