"""Similarity scores on a 0-100 scale and rank-correlation evaluation.

A cosine distance d maps to a score through a Gaussian-shaped curve
sigma * exp(-1/2 * (d/u)^2), so identical embeddings score exactly 100 and
the score decays smoothly and strictly monotonically with distance.
Ranking quality over a labelled corpus is summarized by Spearman's rank
correlation between predicted scores and negated ground-truth perturbation
magnitudes: a larger perturbation must rank lower in score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from posesim.network import MLP_WIDTHS, EmbeddingModel, check_variant, embed
from posesim.skeleton import (
    Pose,
    SkeletonTopology,
    distinct_poses,
    normalize_stack,
)
from posesim.training import PosePair, cosine_distances

# Distinct poses evaluate() embeds per call; the chunk bounds the memory its
# intermediates take on a large corpus.
EVAL_CHUNK = 256


@dataclass(frozen=True)
class ScoreParams:
    # amplitude_sigma is the score at distance zero, width_u the decay scale
    amplitude_sigma: float = 100.0
    width_u: float = 0.3

    def __post_init__(self):
        if not self.amplitude_sigma > 0:
            raise ValueError("amplitude_sigma must be > 0")
        if not self.width_u > 0:
            raise ValueError("width_u must be > 0")


def similarity_score(d_c: float, p: ScoreParams = ScoreParams()) -> float:
    """Map a cosine distance to a score in (0, amplitude_sigma].

    Strictly decreasing in d_c; score(0) equals amplitude_sigma exactly.
    """
    if not math.isfinite(d_c):
        raise ValueError(f"d_c must be finite, got {d_c!r}")
    if d_c < 0:
        raise ValueError(f"d_c must be >= 0, got {d_c!r}")
    z = d_c / p.width_u
    return p.amplitude_sigma * math.exp(-0.5 * z * z)


def score_pair(model: EmbeddingModel, topo: SkeletonTopology, a: Pose,
               b: Pose, p: ScoreParams = ScoreParams(),
               variant: str = "gcn") -> tuple[float, float]:
    """Normalize, embed and score two poses; returns (d_c, score).

    The raw cosine distance can land a rounding error outside [0, 2] (an
    identical pair can produce -1e-16), so it is clipped to the domain
    before scoring; identical poses therefore score exactly 100. Both poses
    go through one stacked embed, and the result equals evaluate()'s row
    for the same pair bit for bit.
    """
    check_variant(variant)
    emb, _ = embed(model, normalize_stack([a.keypoints, b.keypoints]), topo,
                   variant)
    d = float(_clipped_distances(emb)[0])
    return d, similarity_score(d, p)


def _clipped_distances(e: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(cosine_distances(e), 0.0), 2.0)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; ties share the mean of the ranks they occupy."""
    order = np.argsort(values, kind="stable")
    _, first, counts = np.unique(values[order], return_index=True,
                                 return_counts=True)
    # rank of a tie block = mean of positions first+1 .. first+count
    block_ranks = first + (counts + 1) / 2.0
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat(block_ranks, counts)
    return ranks


def spearman_rho(xs, ys) -> float:
    """Spearman's rank correlation with average-rank tie handling.

    Ranks both lists, then computes the Pearson correlation of the rank
    vectors; on tie-free data this agrees with 1 - 6*sum(d^2)/(n(n^2-1)).
    Undefined (raises) when either list has no rank variance.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.ndim != 1 or ys.ndim != 1 or xs.size != ys.size:
        raise ValueError(f"need two equal-length lists, got shapes "
                         f"{xs.shape} and {ys.shape}")
    if xs.size < 2:
        raise ValueError("need at least 2 observations")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError("inputs must be finite")
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    var_x = float(rx @ rx)
    var_y = float(ry @ ry)
    if var_x == 0.0 or var_y == 0.0:
        raise ValueError("correlation undefined: a list has zero rank variance")
    return float(rx @ ry) / math.sqrt(var_x * var_y)


@dataclass(frozen=True)
class EvalRow:
    pair_id: str
    d_c: float
    score: float
    label: int
    magnitude: float | None


@dataclass(frozen=True)
class EvalReport:
    """Per-pair scores plus corpus-level ranking and separation statistics.

    spearman_rho is None when undefined: fewer than two pairs carry a
    magnitude, or ranks are constant on either side.
    """

    rows: tuple
    spearman_rho: float | None
    mean_pos_dist: float
    mean_neg_dist: float


def evaluate(model: EmbeddingModel, topo: SkeletonTopology, pairs,
             p: ScoreParams = ScoreParams(), variant: str = "gcn",
             pair_ids=None) -> EvalReport:
    """Score every pair and aggregate ranking quality.

    spearman_rho correlates predicted score with negated ground-truth
    magnitude over the magnitude-bearing pairs (larger perturbation must
    rank lower). Distance means cover label 1 and label 0 pairs separately
    (nan when a label is absent). pair_ids defaults to the pair index.

    Each distinct pose is normalized and embedded once, EVAL_CHUNK poses per
    stacked call, with no backward cache kept; every row equals score_pair
    on that pair bit for bit.
    """
    check_variant(variant)
    pairs = list(pairs)
    if not pairs:
        raise ValueError("pairs must be nonempty")
    if pair_ids is None:
        pair_ids = [str(i) for i in range(len(pairs))]
    else:
        pair_ids = [str(i) for i in pair_ids]
        if len(pair_ids) != len(pairs):
            raise ValueError(f"{len(pairs)} pairs but {len(pair_ids)} pair_ids")
    keypoints, index = distinct_poses(
        [pose for pair in pairs for pose in (pair.pose_a, pair.pose_b)])
    emb = np.empty((len(keypoints), MLP_WIDTHS[-1]))
    for start in range(0, len(keypoints), EVAL_CHUNK):
        part = slice(start, start + EVAL_CHUNK)
        emb[part], _ = embed(model, normalize_stack(keypoints[part]), topo,
                             variant)
    dists = _clipped_distances(emb[index]).tolist()
    rows = [EvalRow(pid, d, similarity_score(d, p), pair.label_y,
                    pair.magnitude)
            for pid, pair, d in zip(pair_ids, pairs, dists)]
    pos = [r.d_c for r in rows if r.label == 1]
    neg = [r.d_c for r in rows if r.label == 0]
    graded = [(r.score, r.magnitude) for r in rows if r.magnitude is not None]
    rho = None
    if len(graded) >= 2:
        try:
            rho = spearman_rho([s for s, _ in graded],
                               [-m for _, m in graded])
        except ValueError:
            rho = None
    return EvalReport(
        rows=tuple(rows),
        spearman_rho=rho,
        mean_pos_dist=float(np.mean(pos)) if pos else float("nan"),
        mean_neg_dist=float(np.mean(neg)) if neg else float("nan"),
    )


def report_csv(report: EvalReport) -> str:
    """Per-pair CSV at full float precision; magnitude empty when absent."""
    lines = ["pair_id,d_c,score,label,magnitude"]
    for r in report.rows:
        mag = "" if r.magnitude is None else repr(float(r.magnitude))
        lines.append(f"{r.pair_id},{float(r.d_c)!r},{float(r.score)!r},"
                     f"{r.label},{mag}")
    return "\n".join(lines) + "\n"


def report_summary_csv(report: EvalReport) -> str:
    """One-row companion summary; spearman_rho empty when undefined."""
    rho = "" if report.spearman_rho is None else repr(float(report.spearman_rho))
    return ("spearman_rho,mean_pos_dist,mean_neg_dist\n"
            f"{rho},{float(report.mean_pos_dist)!r},"
            f"{float(report.mean_neg_dist)!r}\n")
