"""Topology-aware pose embeddings and contrastive pose-similarity scoring.

The pipeline starts from 15 2D keypoints per pose: the skeleton module turns
them into normalized node features on a fixed graph, the network module embeds
them through two graph convolutions and an MLP head, the training module fits
the embedding with a margin-based contrastive objective, and the scoring
module maps embedding distances to 0-100 similarity scores and evaluates
ranking quality. The corpus module handles pose/pair files and synthetic
corpus generation.
"""

from posesim.corpus import (
    PairEntry,
    PairFile,
    PoseRecord,
    SynthConfig,
    build_pose_pairs,
    generate_corpus_files,
    load_corpus,
    parse_pair_file,
    parse_pose_file,
    split_corpus,
    write_pair_file,
    write_pose_file,
)
from posesim.network import (
    ArchMeta,
    EmbeddingModel,
    forward_variant,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from posesim.scoring import (
    EvalReport,
    EvalRow,
    ScoreParams,
    evaluate,
    report_csv,
    report_summary_csv,
    score_pair,
    similarity_score,
    spearman_rho,
)
from posesim.skeleton import (
    KEYPOINT_NAMES,
    NUM_KEYPOINTS,
    SKELETON_EDGES,
    NormalizedPose,
    Pose,
    build_skeleton_topology,
    normalize_pose,
)
from posesim.training import (
    PairTable,
    PosePair,
    TrainConfig,
    TrainHistory,
    contrastive_loss,
    cosine_distance,
    gradient_check,
    history_csv,
    random_check_instance,
    train,
)

__all__ = [
    "ArchMeta",
    "EmbeddingModel",
    "EvalReport",
    "EvalRow",
    "KEYPOINT_NAMES",
    "NUM_KEYPOINTS",
    "NormalizedPose",
    "PairEntry",
    "PairFile",
    "PairTable",
    "Pose",
    "PoseRecord",
    "PosePair",
    "SKELETON_EDGES",
    "ScoreParams",
    "SynthConfig",
    "TrainConfig",
    "TrainHistory",
    "build_pose_pairs",
    "build_skeleton_topology",
    "contrastive_loss",
    "cosine_distance",
    "evaluate",
    "forward_variant",
    "generate_corpus_files",
    "gradient_check",
    "history_csv",
    "init_model",
    "load_checkpoint",
    "load_corpus",
    "normalize_pose",
    "parse_pair_file",
    "parse_pose_file",
    "random_check_instance",
    "report_csv",
    "report_summary_csv",
    "save_checkpoint",
    "score_pair",
    "similarity_score",
    "spearman_rho",
    "split_corpus",
    "train",
    "write_pair_file",
    "write_pose_file",
]

__version__ = "0.1.0"
