"""Similarity scores on a 0-100 scale and rank-correlation evaluation.

A cosine distance d maps to a score through a Gaussian-shaped curve
sigma * exp(-1/2 * (d/u)^2), so identical embeddings score exactly 100 and
the score decays strictly with distance until the Gaussian underflows to 0.0.
Ranking quality over a labelled corpus is summarized by Spearman's rank
correlation between predicted scores and negated ground-truth perturbation
magnitudes: a larger perturbation must rank lower in score.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from posesim.network import (MLP_WIDTHS, EmbeddingModel, _run_layers,
                             _variant_layers, checked_float, nonnegative,
                             positive)
from posesim.skeleton import TWO, ZERO, Pose, normalize_stack, number_vector
from posesim.training import cosine_distances, pair_table

# Table rows evaluate() embeds per call, and pairs whose distances it takes
# per call; the chunk bounds the memory its intermediates take on a large
# corpus.
EVAL_CHUNK = 256

# report.csv writes each pair id as it is, so none may hold a character that
# a CSV field would have to quote
_csv_special = re.compile('[,"\r\n]').search


def check_csv_ids(ids, what: str) -> None:
    """ValueError naming the first of ids, a sequence of strings, that holds
    a comma, a double quote or a line break; one scan of their join tells
    whether any does."""
    if _csv_special("".join(ids)):
        bad = next(i for i in ids if _csv_special(i))
        raise ValueError(f"{what} {bad!r} holds a comma, a double quote or a "
                         f"line break, which report.csv cannot carry")


@dataclass(frozen=True)
class ScoreParams:
    # amplitude_sigma is the score at distance zero, width_u the decay scale
    amplitude_sigma: float = 100.0
    width_u: float = 0.3

    def __post_init__(self):
        for name in ("amplitude_sigma", "width_u"):
            object.__setattr__(self, name, checked_float(
                getattr(self, name), positive,
                f"{name} must be finite and > 0 (an int or a float)"))


_DEFAULT_PARAMS = ScoreParams()

_D_C_RULE = "d_c must be finite and >= 0"


def similarity_score(d_c: float, p: ScoreParams = _DEFAULT_PARAMS) -> float:
    """Map a cosine distance to a score in [0, amplitude_sigma].

    Decreasing in d_c, strictly until the Gaussian underflows to 0.0, as
    similarity_score(2.0, ScoreParams(width_u=0.01)) does; no d_c in [0, 2]
    underflows at the default width_u. score(0) is amplitude_sigma exactly.
    """
    return _score(checked_float(d_c, nonnegative, _D_C_RULE), p)


def _score(d: float, p: ScoreParams) -> float:
    """similarity_score of d, a float already known to be finite and >= 0."""
    z = d / p.width_u
    return p.amplitude_sigma * math.exp(-0.5 * z * z)


def score_pair(model: EmbeddingModel, topo: np.ndarray | None, a: Pose,
               b: Pose, p: ScoreParams = _DEFAULT_PARAMS,
               variant: str = "gcn") -> tuple[float, float]:
    """Normalize, embed and score two poses; returns (d_c, score).

    The raw cosine distance can land a rounding error outside [0, 2] (an
    identical pair can produce -1e-16), so it is clipped to the domain
    before scoring; identical poses therefore score exactly 100. Both poses
    go through one stacked forward pass, with no backward cache kept. With
    the default p the result equals evaluate()'s row for the same pair bit
    for bit.
    """
    emb = _run_layers(_variant_layers(model, variant), topo,
                      normalize_stack([a.keypoints, b.keypoints]))
    d = _clipped_distances(emb).item()
    return d, similarity_score(d, p)


def _clipped_distances(e: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(cosine_distances(e), ZERO), TWO)


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
    Each list is a vector of numbers by number_vector's rule, so a bool, a
    string, ragged nesting or another rank is refused. Undefined (raises) when either list
    has no rank variance.
    """
    xs, ys = number_vector(xs, "xs"), number_vector(ys, "ys")
    if xs.size != ys.size:
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


class EvalRow(NamedTuple):
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


def evaluate(model: EmbeddingModel, topo: np.ndarray | None, pairs,
             variant: str = "gcn", pair_ids=None) -> EvalReport:
    """Score every pair, of a PairTable or PosePairs (see pair_table), with
    the default ScoreParams and aggregate ranking quality.

    spearman_rho correlates predicted score with negated ground-truth
    magnitude over the magnitude-bearing pairs (larger perturbation must
    rank lower). Distance means cover label 1 and label 0 pairs separately
    (nan when a label is absent). pair_ids defaults to the pair index; no
    id may hold a comma, a double quote or a line break (check_csv_ids).
    A NaN distance, from weights that overflow, raises as in score_pair.

    Each table row is normalized and embedded once, EVAL_CHUNK rows per
    stacked call, with no backward cache kept, and the distances are taken
    EVAL_CHUNK pairs per call; every report row equals score_pair on that
    pair bit for bit.
    """
    layers = _variant_layers(model, variant)
    table = pair_table(pairs)
    pair_ids = list(map(str, range(len(table)) if pair_ids is None else pair_ids))
    if len(pair_ids) != len(table):
        raise ValueError(f"{len(table)} pairs but {len(pair_ids)} pair_ids")
    check_csv_ids(pair_ids, "pair_id")
    emb = np.empty((len(table.keypoints), MLP_WIDTHS[-1]))
    for start in range(0, len(table.keypoints), EVAL_CHUNK):
        part = slice(start, start + EVAL_CHUNK)
        emb[part] = _run_layers(layers, topo, normalize_stack(table.keypoints[part]))
    # each distance is its own pair's vecdot, so the chunks give the bits
    # of one gather of all pairs' embeddings
    dist_array = np.empty(len(table))
    for start in range(0, len(table), EVAL_CHUNK):
        part = slice(start, start + EVAL_CHUNK)
        dist_array[part] = _clipped_distances(emb[table.twins[part].reshape(-1)])
    dists = dist_array.tolist()
    # clipping puts the finite distances in [0, 2] but keeps a NaN
    if not np.isfinite(dist_array).all():
        k = int(np.argmin(np.isfinite(dist_array)))
        raise ValueError(f"pair {pair_ids[k]!r}: {_D_C_RULE}, got {dists[k]!r}")
    scores = [_score(d, _DEFAULT_PARAMS) for d in dists]
    rows = tuple(map(EvalRow._make, zip(pair_ids, dists, scores,
                                        table.labels.tolist(), table.magnitudes)))
    # the masks keep each label's distances in row order, so the means
    # take the same values in the same order as lists of the rows would
    pos = dist_array[table.labels == 1]
    neg = dist_array[table.labels == 0]
    graded = [(s, m) for s, m in zip(scores, table.magnitudes) if m is not None]
    try:
        # arrays: spearman_rho admits them by dtype, not by a scan of each value
        rho = spearman_rho(np.array([s for s, _ in graded]),
                           np.array([-m for _, m in graded]))
    except ValueError:
        rho = None
    return EvalReport(
        rows=rows,
        spearman_rho=rho,
        mean_pos_dist=float(np.mean(pos)) if pos.size else float("nan"),
        mean_neg_dist=float(np.mean(neg)) if neg.size else float("nan"),
    )


def report_csv(report: EvalReport) -> str:
    """Per-pair CSV at full float precision; magnitude empty when absent.

    d_c, score and magnitude must be Python floats, as evaluate's rows hold
    them, and are written as their repr.
    """
    return "pair_id,d_c,score,label,magnitude\n" + "".join([
        f"{pid},{d!r},{s!r},{y},{'' if m is None else repr(m)}\n"
        for pid, d, s, y, m in report.rows])


def report_summary_csv(report: EvalReport) -> str:
    """One-row companion summary; spearman_rho empty when undefined."""
    rho = "" if report.spearman_rho is None else repr(float(report.spearman_rho))
    return ("spearman_rho,mean_pos_dist,mean_neg_dist\n"
            f"{rho},{float(report.mean_pos_dist)!r},"
            f"{float(report.mean_neg_dist)!r}\n")
