"""Command-line front end: corpus generation, training, scoring, evaluation
and gradient checking.

Every subcommand is deterministic given its flags, diagnostics go to stderr,
and data goes to files or stdout. Flag defaults are the field defaults of the
config dataclasses (SynthConfig, TrainConfig, ScoreParams, ArchMeta), the
reference configuration, so the zero-flag path is the canonical run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from posesim.corpus import (
    PairFile,
    SynthConfig,
    _join,
    _record_fields,
    generate_corpus_files,
    load_corpus,
    write_pair_file,
    write_pose_file,
)
from posesim.network import (VARIANTS, ArchMeta, check_count, check_seed,
                              checked_float, init_model, load_checkpoint,
                              positive, save_checkpoint)
from posesim.scoring import (
    ScoreParams,
    evaluate,
    report_csv,
    report_summary_csv,
    score_pair,
)
from posesim.skeleton import Pose, build_skeleton_topology
from posesim.training import (
    TrainConfig,
    gradient_check,
    history_csv,
    random_check_instance,
    train,
)

POSE_FILE = "poses.json"
PAIR_FILE = "pairs.json"
CHECKPOINT_FILE = "model.json"
HISTORY_FILE = "history.csv"
REPORT_FILE = "report.csv"
SUMMARY_FILE = "summary.csv"

# Default init seed deliberately avoids weight draws whose first GCN layer
# outputs all-negative pre-activations on in-range inputs; those turn the
# whole embedding to zero and training cannot move (ReLU gates every
# gradient). Seed 4 is verified healthy for hidden width 2.
DEFAULT_INIT_SEED = 4


def _parse_jitter(text: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad --jitter list {text!r}: {exc}") from exc


def cmd_gen(args) -> int:
    cfg = SynthConfig(
        template_count=args.templates,
        pairs_per_template=args.pairs_per_template,
        jitter_levels=_parse_jitter(args.jitter),
        seed=args.seed,
    )
    records, entries = generate_corpus_files(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / POSE_FILE).write_bytes(write_pose_file(records))
    (out / PAIR_FILE).write_bytes(
        write_pair_file(PairFile(poses=POSE_FILE, entries=tuple(entries))))
    positives = sum(1 for e in entries if e.y == 1)
    print(f"poses={len(records)} pairs={len(entries)} "
          f"positives={positives} negatives={len(entries) - positives}")
    return 0


def cmd_train(args) -> int:
    pairs, _ = load_corpus(args.pairs)
    cfg = TrainConfig(
        learning_rate=args.lr,
        batch_size=args.batch_size,
        epochs=args.epochs,
        margin_m=args.margin,
        seed=args.seed,
    )
    model = init_model(h=args.hidden, seed=args.init_seed)
    topo = build_skeleton_topology()
    model, history = train(model, topo, pairs, cfg, variant=args.variant)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / CHECKPOINT_FILE).write_bytes(save_checkpoint(model))
    (out / HISTORY_FILE).write_text(history_csv(history), encoding="utf-8")
    print(f"epochs={len(history.mean_loss)} "
          f"first_loss={history.mean_loss[0]!r} "
          f"final_loss={history.mean_loss[-1]!r}")
    return 0


def cmd_score(args) -> int:
    model = load_checkpoint(Path(args.checkpoint).read_bytes())
    stack, (ids, *_) = _record_fields(Path(args.poses).read_bytes())
    (a, b), = _join(ids, [args.id_a], [args.id_b])[0]
    topo = build_skeleton_topology()
    params = ScoreParams(amplitude_sigma=args.sigma, width_u=args.width)
    with np.errstate(over="raise", invalid="raise"):
        d_c, score = score_pair(model, topo, Pose(stack[a]), Pose(stack[b]),
                                params, variant=args.variant)
    if args.round:
        print(f"d_c={d_c:.4f} score={score:.0f}")
    else:
        print(f"d_c={d_c!r} score={score!r}")
    if args.out:
        Path(args.out).write_text(f"d_c,score\n{d_c!r},{score!r}\n",
                                  encoding="utf-8")
    return 0


def cmd_eval(args) -> int:
    model = load_checkpoint(Path(args.checkpoint).read_bytes())
    pairs, ids = load_corpus(args.pairs)
    topo = build_skeleton_topology()
    with np.errstate(over="raise", invalid="raise"):
        report = evaluate(model, topo, pairs, variant=args.variant, pair_ids=ids)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / REPORT_FILE).write_text(report_csv(report), encoding="utf-8")
    (out / SUMMARY_FILE).write_text(report_summary_csv(report),
                                    encoding="utf-8")
    if report.spearman_rho is not None:
        print(f"spearman_rho={report.spearman_rho!r}")
    print(f"mean_pos_dist={report.mean_pos_dist!r}")
    print(f"mean_neg_dist={report.mean_neg_dist!r}")
    return 0


def cmd_gradcheck(args) -> int:
    check_count(args.instances, "--instances")
    threshold = checked_float(args.threshold, positive,
                              "--threshold must be finite and > 0")
    check_seed(args.seed)  # the first and the last instance seed, before any work
    check_seed(args.seed + args.instances - 1)
    topo = build_skeleton_topology()
    errs = []
    for k in range(args.instances):
        model, pair = random_check_instance(args.seed + k)
        errs.append(gradient_check(model, topo, pair, variant=args.variant))
    # np.max, unlike max(), lets a NaN error through to fail the check
    worst = float(np.max(errs))
    print(f"max_rel_err={worst!r}")
    if not worst < threshold:
        print(f"gradient check failed: {worst!r} is not below "
              f"{threshold!r}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posesim",
        description="Skeleton-graph pose similarity: corpus synthesis, "
                    "Siamese training, scoring and evaluation.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    gen = sub.add_parser("gen", help="synthesize a labelled pose corpus")
    gen.add_argument("--templates", type=int, default=SynthConfig.template_count)
    gen.add_argument("--pairs-per-template", type=int,
                     default=SynthConfig.pairs_per_template)
    gen.add_argument("--jitter",
                     default=",".join(map(repr, SynthConfig.jitter_levels)),
                     help="comma-separated jitter levels, ascending")
    gen.add_argument("--seed", type=int, default=SynthConfig.seed)
    gen.add_argument("--out", required=True,
                     help=f"output directory ({POSE_FILE}, {PAIR_FILE})")
    gen.set_defaults(func=cmd_gen)

    tr = sub.add_parser("train", help="train the Siamese embedding")
    tr.add_argument("--pairs", required=True, help="pair file path")
    tr.add_argument("--out", required=True,
                    help=f"output directory ({CHECKPOINT_FILE}, {HISTORY_FILE})")
    tr.add_argument("--variant", choices=VARIANTS, default="gcn")
    tr.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    tr.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    tr.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    tr.add_argument("--margin", type=float, default=TrainConfig.margin_m)
    tr.add_argument("--hidden", type=int, default=ArchMeta.gcn_hidden)
    tr.add_argument("--seed", type=int, default=TrainConfig.seed,
                    help="epoch shuffling seed")
    tr.add_argument("--init-seed", type=int, default=DEFAULT_INIT_SEED,
                    help="weight initialization seed")
    tr.set_defaults(func=cmd_train)

    sc = sub.add_parser("score", help="score one pose pair")
    sc.add_argument("--checkpoint", required=True)
    sc.add_argument("--poses", required=True, help="pose file path")
    sc.add_argument("--a", dest="id_a", required=True, help="first pose id")
    sc.add_argument("--b", dest="id_b", required=True, help="second pose id")
    sc.add_argument("--variant", choices=VARIANTS, default="gcn")
    sc.add_argument("--sigma", type=float, default=ScoreParams.amplitude_sigma)
    sc.add_argument("--width", type=float, default=ScoreParams.width_u)
    sc.add_argument("--round", action="store_true",
                    help="round the printed score; files stay full precision")
    sc.add_argument("--out", default=None, help="optional CSV path")
    sc.set_defaults(func=cmd_score)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on labelled pairs")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--pairs", required=True, help="pair file path")
    ev.add_argument("--out", required=True,
                    help=f"output directory ({REPORT_FILE}, {SUMMARY_FILE})")
    ev.add_argument("--variant", choices=VARIANTS, default="gcn")
    ev.set_defaults(func=cmd_eval)

    gc = sub.add_parser("gradcheck",
                        help="compare analytic gradients with finite differences")
    gc.add_argument("--instances", type=int, default=20)
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--threshold", type=float, default=1e-4)
    gc.add_argument("--variant", choices=VARIANTS, default="gcn")
    gc.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FloatingPointError as exc:
        # raised by score and eval: finite weights can overflow the forward pass
        print(f"error: checkpoint {args.checkpoint}: its embeddings are not "
              f"finite ({exc})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
