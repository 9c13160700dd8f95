"""The traced run: per-layer metrics from spans around public calls.

Each workload alternates its untraced reference operation with a replica
that makes the same public calls with a span around each, on the same
inputs, and the replica's outputs must equal the reference's bit for bit.
On some steps the replica also makes extra timed calls to normalize_pose,
forward_variant and cosine_distance_grads on the same twins ("split"
calls), which split an opaque call such as pair_backward into its parts.
Layers a workload never reaches are then timed by probes: the same public
functions called on that workload's own inputs, recorded as "probe:<span>".
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from posesim.corpus import (
    PairFile,
    SynthConfig,
    build_pose_pairs,
    generate_corpus_files,
    parse_pair_file,
    parse_pose_file,
    write_pair_file,
    write_pose_file,
)
from posesim.network import (
    forward_variant,
    init_model,
    load_checkpoint,
    parameter_count,
    parameter_list,
    save_checkpoint,
)
from posesim.scoring import (
    EvalReport,
    EvalRow,
    evaluate,
    report_csv,
    report_summary_csv,
    score_pair,
    spearman_rho,
)
from posesim.skeleton import Pose, build_skeleton_topology, normalize_pose
from posesim.training import (
    PosePair,
    TrainConfig,
    adam_step,
    contrastive_loss,
    cosine_distance_grads,
    gradient_check,
    init_adam_state,
    pair_backward,
    random_check_instance,
)

from workloads import GRADCHECK_STRIDE, INIT_SEED, MODEL, PAIRS, draw_requests

SPLIT = "split"
PROBE = "probe:"

# name, unit, span it is read from (None: computed), scale from seconds
PER_LAYER = (
    ("skeleton.pose_us", "us", "skeleton.pose", 1e6),
    ("skeleton.normalize_pose_us", "us", "skeleton.normalize_pose", 1e6),
    ("skeleton.normalize_pose_calls", "count", None, None),
    ("skeleton.unique_poses", "count", None, None),
    ("skeleton.normalize_reuse", "calls/pose", None, None),
    ("network.forward_us", "us", "network.forward", 1e6),
    ("network.forward_calls", "count", None, None),
    ("network.save_checkpoint_ms", "ms", "network.save_checkpoint", 1e3),
    ("network.load_checkpoint_ms", "ms", "network.load_checkpoint", 1e3),
    ("training.pair_backward_us", "us", "training.pair_backward", 1e6),
    ("training.cosine_grads_us", "us", "training.cosine_grads", 1e6),
    ("training.backward_self_us", "us", None, None),
    ("training.backward_share", "1", None, None),
    ("training.adam_step_us", "us", "training.adam_step", 1e6),
    ("training.adam_steps", "count", None, None),
    ("training.check_instance_ms", "ms", "training.check_instance", 1e3),
    ("training.gradient_check_ms", "ms", "training.gradient_check", 1e3),
    ("training.gradcheck_loss_evals", "count", None, None),
    ("scoring.score_pair_us", "us", "scoring.score_pair", 1e6),
    ("scoring.evaluate_s", "s", "scoring.evaluate", 1.0),
    ("scoring.spearman_rho_ms", "ms", "scoring.spearman_rho", 1e3),
    ("scoring.report_csv_ms", "ms", "scoring.report_csv", 1e3),
    ("corpus.generate_ms", "ms", "corpus.generate", 1e3),
    ("corpus.parse_pose_file_ms", "ms", "corpus.parse_pose_file", 1e3),
    ("corpus.parse_pair_file_ms", "ms", "corpus.parse_pair_file", 1e3),
    ("corpus.build_pose_pairs_ms", "ms", "corpus.build_pose_pairs", 1e3),
    ("corpus.write_pose_file_ms", "ms", "corpus.write_pose_file", 1e3),
    ("corpus.pose_file_bytes", "bytes", None, None),
    ("cli.self_ms", "ms", None, None),
    ("trace.overhead_share", "1", None, None),
)


@dataclass
class TraceStats:
    """What a traced run gathers besides spans."""

    pair_steps: int = 0          # pair_backward calls
    nonzero: int = 0             # ... whose loss was nonzero
    backward_self_us: list = field(default_factory=list)
    # per alternation: (reference busy s, its units, start, end,
    #                   replica busy s without split calls, start, end)
    walls: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    pose_file_bytes: int = 0


def _timed(tr, name, fn, *args, **kwargs):
    idx = tr.begin(name)
    out = fn(*args, **kwargs)
    return out, tr.end_span(idx)


def split_calls(tr, model, topo, pose_a, pose_b, variant="gcn", label=None,
                margin=None, prefix=""):
    """Time normalize, embed (and, given a label, the cosine term and loss)
    for both twins; returns the summed duration of those calls."""
    idx = tr.begin(prefix + SPLIT)
    na, t1 = _timed(tr, prefix + "skeleton.normalize_pose", normalize_pose, pose_a)
    nb, t2 = _timed(tr, prefix + "skeleton.normalize_pose", normalize_pose, pose_b)
    (e1, _), t3 = _timed(tr, prefix + "network.forward", forward_variant,
                         model, na, topo, variant)
    (e2, _), t4 = _timed(tr, prefix + "network.forward", forward_variant,
                         model, nb, topo, variant)
    total = t1 + t2 + t3 + t4
    if label is not None:
        c = tr.begin(prefix + "training.cosine_grads")
        d, _, _ = cosine_distance_grads(e1, e2)
        contrastive_loss(d, label, margin)
        total += tr.end_span(c)
    tr.end_span(idx)
    return total


def _split_time(tr, root: int) -> float:
    """Summed duration of the split spans directly under span root."""
    ids, start, end, parent = tr.arrays()
    split_id = tr.names.index(SPLIT) if SPLIT in tr.names else -2
    mask = (parent == root) & (ids == split_id)
    return float(np.sum(end[mask] - start[mask]))


def _reference(wl, ctx, tr, stats):
    """Run the workload's reference operation; returns (result, start, end).

    It records only coarse spans, one per public call of the operation.
    """
    start = time.perf_counter()
    ref = wl.op(ctx, tr)
    end = time.perf_counter()
    stats.failures += ref.failures
    return ref, start, end


def _record_root(tr, stats, root, ref, ref_start, ref_end) -> None:
    replica = tr.end[root] - tr.start[root] - _split_time(tr, root)
    stats.walls.append((ref.busy, ref.units, ref_start, ref_end, replica,
                        tr.start[root], tr.end[root]))


# ---- replicas ------------------------------------------------------------

def _parse_corpus(tr, ctx):
    """load_corpus, one public call per step."""
    pf = tr.call("corpus.parse_pair_file", parse_pair_file,
                 (ctx.work / PAIRS).read_bytes())
    pose_bytes = (ctx.work / pf.poses).read_bytes()
    records = tr.call("corpus.parse_pose_file", parse_pose_file, pose_bytes)
    pairs, ids = tr.call("corpus.build_pose_pairs", build_pose_pairs, records,
                         pf.entries)
    return pairs, ids, len(pose_bytes)


def alternate_train(wl, ctx, tr, stats):
    """Reference training, then its replica: seeded permutation, pair_backward
    per pair, mean-scaled accumulation, adam_step per batch."""
    ref, ref_start, ref_end = _reference(wl, ctx, tr, stats)
    model_ref, _, history = ref.output
    cfg = wl.config(ctx)
    topo = build_skeleton_topology()
    root = tr.begin("cli.train")
    pairs, _, stats.pose_file_bytes = _parse_corpus(tr, ctx)
    model = init_model(h=2, seed=INIT_SEED)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    state = init_adam_state(model)
    mean_loss = []
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(len(pairs))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            accum = [np.zeros_like(p) for p in parameter_list(model)]
            for idx in batch:
                pair = pairs[idx]
                (loss, grads), busy = _timed(tr, "training.pair_backward",
                                             pair_backward, model, topo, pair,
                                             cfg, "gcn")
                for a, g in zip(accum, grads):
                    a += g
                losses.append(loss)
                stats.pair_steps += 1
                stats.nonzero += loss != 0.0
                if step % ctx.sizes.split_every == 0:
                    parts = split_calls(tr, model, topo, pair.pose_a,
                                        pair.pose_b, label=pair.label_y,
                                        margin=cfg.margin_m)
                    if loss != 0.0:
                        stats.backward_self_us.append(1e6 * (busy - parts))
                step += 1
            scale = 1.0 / len(batch)
            for a in accum:
                a *= scale
            tr.call("training.adam_step", adam_step, model, accum, state, cfg)
        mean_loss.append(float(np.mean(losses)))
    model_bytes = tr.call("network.save_checkpoint", save_checkpoint, model)
    tr.end_span(root)
    stats.attempted += 2
    if model_bytes != model_ref or mean_loss != history.mean_loss:
        stats.failures.append("train replica differs from train()")
    _record_root(tr, stats, root, ref, ref_start, ref_end)


def alternate_eval(wl, ctx, tr, stats):
    """Reference eval, then its replica: score_pair per pair, then the
    aggregation evaluate performs, spearman_rho and the CSVs."""
    ref, ref_start, ref_end = _reference(wl, ctx, tr, stats)
    report_ref, summary_ref, _ = ref.output
    topo = build_skeleton_topology()
    root = tr.begin("cli.eval")
    pairs, ids, stats.pose_file_bytes = _parse_corpus(tr, ctx)
    model = tr.call("network.load_checkpoint", load_checkpoint,
                    (ctx.work / MODEL).read_bytes())
    rows = []
    for n, (pid, pair) in enumerate(zip(ids, pairs)):
        d, s = tr.call("scoring.score_pair", score_pair, model, topo,
                       pair.pose_a, pair.pose_b)
        rows.append(EvalRow(pid, d, s, pair.label_y, pair.magnitude))
        if n % ctx.sizes.split_every == 0:
            split_calls(tr, model, topo, pair.pose_a, pair.pose_b)
    pos = [r.d_c for r in rows if r.label == 1]
    neg = [r.d_c for r in rows if r.label == 0]
    graded = [(r.score, r.magnitude) for r in rows if r.magnitude is not None]
    rho = None
    if len(graded) >= 2:
        try:
            rho = tr.call("scoring.spearman_rho", spearman_rho,
                          [s for s, _ in graded], [-m for _, m in graded])
        except ValueError:
            rho = None
    report = EvalReport(
        rows=tuple(rows), spearman_rho=rho,
        mean_pos_dist=float(np.mean(pos)) if pos else float("nan"),
        mean_neg_dist=float(np.mean(neg)) if neg else float("nan"))
    report_bytes = tr.call("scoring.report_csv", report_csv,
                           report).encode("utf-8")
    summary_bytes = report_summary_csv(report).encode("utf-8")
    tr.end_span(root)
    stats.attempted += 2
    if (report_bytes, summary_bytes) != (report_ref, summary_ref):
        stats.failures.append("eval replica differs from evaluate()")
    _record_root(tr, stats, root, ref, ref_start, ref_end)


def alternate_score(wl, ctx, tr, stats):
    """One chunk of requests untraced, then the same requests traced."""
    kps, first = wl.next_requests(ctx)
    ref_start = time.perf_counter()
    ref = wl.run_chunk(ctx, kps, first)
    ref_end = time.perf_counter()
    model = ctx.model
    topo = build_skeleton_topology()
    t0 = time.perf_counter()
    split_total = 0.0
    results = []
    for n, kp in enumerate(kps):
        root = tr.begin("cli.score")
        a = tr.call("skeleton.pose", Pose, kp[0])
        b = tr.call("skeleton.pose", Pose, kp[1])
        results.append(tr.call("scoring.score_pair", score_pair, model, topo,
                               a, b))
        if n % ctx.sizes.split_every == 0:
            s0 = time.perf_counter()
            split_calls(tr, model, topo, a, b)
            split_total += time.perf_counter() - s0
        tr.end_span(root)
    t1 = time.perf_counter()
    stats.attempted += 2 * len(kps)
    if results != ref.output:
        stats.failures.append("traced score requests differ from untraced")
    stats.walls.append((ref.busy, ref.units, ref_start, ref_end,
                        t1 - t0 - split_total, t0, t1))


def alternate_gradcheck(wl, ctx, tr, stats):
    """The instance block checked untraced, then traced."""
    ref, ref_start, ref_end = _reference(wl, ctx, tr, stats)
    topo = build_skeleton_topology()
    errs = []
    walls = 0.0
    t0 = time.perf_counter()
    for _, variant, model, pair in ctx.block:
        root = tr.begin("cli.gradcheck")
        errs.append(tr.call("training.gradient_check", gradient_check, model,
                            topo, pair, variant=variant))
        split_calls(tr, model, topo, pair.pose_a, pair.pose_b, variant,
                    label=pair.label_y, margin=TrainConfig().margin_m)
        tr.end_span(root)
        walls += tr.end[root] - tr.start[root] - _split_time(tr, root)
    stats.attempted += 2 * len(errs)
    if errs != ref.output:
        stats.failures.append("traced gradient checks differ from untraced")
    stats.walls.append((ref.busy, ref.units, ref_start, ref_end, walls, t0,
                        time.perf_counter()))


ALTERNATIONS = {
    "train": alternate_train,
    "eval": alternate_eval,
    "score": alternate_score,
    "gradcheck": alternate_gradcheck,
}


# ---- probes ----------------------------------------------------------------

def probe_inputs(wl, ctx):
    """(model, pairs) a workload's probes run on."""
    if wl.name in ("train", "eval"):
        model_path = ctx.work / ("run" if wl.name == "train" else "") / MODEL
        pf = parse_pair_file((ctx.work / PAIRS).read_bytes())
        records = parse_pose_file((ctx.work / pf.poses).read_bytes())
        pairs, _ = build_pose_pairs(records, pf.entries)
        return load_checkpoint(model_path.read_bytes()), pairs
    if wl.name == "score":
        kps = draw_requests(np.random.Generator(np.random.PCG64(ctx.seed + 2)),
                            ctx.sizes.probe_calls)
        return ctx.model, [PosePair(Pose(k[0]), Pose(k[1]), 1) for k in kps]
    return ctx.block[0][2], [pair for _, _, _, pair in ctx.block]


def run_probes(wl, ctx, tr, stats) -> None:
    """Time, on this workload's inputs, every layer it never called."""
    model, pairs = probe_inputs(wl, ctx)
    topo = build_skeleton_topology()
    some = [pairs[i % len(pairs)] for i in range(ctx.sizes.probe_calls)]
    cfg = TrainConfig()

    def missing(*spans):
        return any(not tr.has(span) for span in spans)

    def probe(span, fn, *args, **kwargs):
        return tr.call(PROBE + span, fn, *args, **kwargs)

    if missing("skeleton.pose"):
        for pair in some:
            probe("skeleton.pose", Pose, pair.pose_a.keypoints)
    if missing("skeleton.normalize_pose", "network.forward",
               "training.cosine_grads", "training.pair_backward",
               "training.adam_step"):
        work = load_checkpoint(save_checkpoint(model))
        state = init_adam_state(work)
        on_path = not missing("training.pair_backward")
        for pair in some:
            (loss, grads), busy = _timed(tr, PROBE + "training.pair_backward",
                                         pair_backward, work, topo, pair, cfg)
            parts = split_calls(tr, work, topo, pair.pose_a, pair.pose_b,
                                label=pair.label_y, margin=cfg.margin_m,
                                prefix=PROBE)
            if not on_path:
                stats.pair_steps += 1
                stats.nonzero += loss != 0.0
                if loss != 0.0:
                    stats.backward_self_us.append(1e6 * (busy - parts))
            probe("training.adam_step", adam_step, work, grads, state, cfg)
    if missing("network.save_checkpoint", "network.load_checkpoint"):
        for _ in range(3):
            blob = probe("network.save_checkpoint", save_checkpoint, model)
            probe("network.load_checkpoint", load_checkpoint, blob)
    if missing("training.check_instance", "training.gradient_check"):
        inst_model, inst_pair = probe("training.check_instance",
                                      random_check_instance,
                                      ctx.seed * GRADCHECK_STRIDE + 1)
        probe("training.gradient_check", gradient_check, inst_model, topo,
              inst_pair)
    if missing("scoring.score_pair"):
        for pair in some:
            probe("scoring.score_pair", score_pair, model, topo, pair.pose_a,
                  pair.pose_b)
    if missing("scoring.evaluate", "scoring.spearman_rho", "scoring.report_csv"):
        report = probe("scoring.evaluate", evaluate, model, topo, pairs)
        xs = [r.score for r in report.rows]
        ys = [-r.magnitude if r.magnitude is not None else r.d_c
              for r in report.rows]
        if len(xs) >= 2:
            probe("scoring.spearman_rho", spearman_rho, xs, ys)
        probe("scoring.report_csv", report_csv, report)
    if missing("corpus.generate", "corpus.write_pose_file",
               "corpus.parse_pose_file", "corpus.parse_pair_file",
               "corpus.build_pose_pairs"):
        records, entries = probe("corpus.generate", generate_corpus_files,
                                 SynthConfig(seed=ctx.seed))
        pose_bytes = probe("corpus.write_pose_file", write_pose_file, records)
        pair_bytes = write_pair_file(PairFile(poses="poses.json",
                                              entries=tuple(entries)))
        records = probe("corpus.parse_pose_file", parse_pose_file, pose_bytes)
        entries = probe("corpus.parse_pair_file", parse_pair_file,
                        pair_bytes).entries
        probe("corpus.build_pose_pairs", build_pose_pairs, records, entries)
        if not stats.pose_file_bytes:
            stats.pose_file_bytes = len(pose_bytes)


# ---- metrics ---------------------------------------------------------------

def _mean_span(tr, span) -> float:
    """Mean duration of the on-path spans, else of the probe's."""
    values = tr.per_name(span)
    if values.size == 0:
        values = tr.per_name(PROBE + span)
    if values.size == 0:
        raise RuntimeError(f"no span {span!r} recorded")
    return float(np.mean(values))


def workload_counts(wl, ctx) -> dict:
    """Work per operation that the workload's inputs imply; the same for any
    implementation of the package, so a change that saves calls shows as a
    lower time at the same count."""
    if wl.name in ("train", "eval"):
        epochs = ctx.sizes.epochs if wl.name == "train" else 1
        visits = 2 * ctx.n_pairs * epochs
        batches = -(-ctx.n_pairs // TrainConfig().batch_size)
        return {"normalize": visits, "unique": ctx.unique, "forward": visits,
                "adam": epochs * batches if wl.name == "train" else 0,
                "loss_evals": 0}
    if wl.name == "score":
        return {"normalize": 2, "unique": 2, "forward": 2, "adam": 0,
                "loss_evals": 0}
    # gradcheck: inputs are fixed inside the finite-difference loop, so it
    # needs no normalization; each loss evaluation embeds both twins
    evals = 2 * parameter_count(init_model(h=2, seed=INIT_SEED))
    return {"normalize": 0, "unique": 2, "forward": 2 * evals + 2, "adam": 0,
            "loss_evals": evals}


def layer_metrics(wl, ctx, tr, stats, speed, run_factor) -> dict:
    """Every per-layer metric; times at reference host speed.

    speed(start, end) is the host speed factor over an interval and
    run_factor the one over the whole traced run, which scales span times.
    """
    if not stats.backward_self_us:
        raise RuntimeError("no pair-step ran the backward pass")
    counts = workload_counts(wl, ctx)
    roots = tr.per_name("cli." + wl.name, self_time=True)
    overhead = [rep * speed(rs, re) / (ref * speed(fs, fe)) - 1.0
                for ref, _, fs, fe, rep, rs, re in stats.walls]
    computed = {
        "skeleton.normalize_pose_calls": counts["normalize"],
        "skeleton.unique_poses": counts["unique"],
        "skeleton.normalize_reuse": counts["normalize"] / counts["unique"],
        "network.forward_calls": counts["forward"],
        "training.backward_self_us":
            run_factor * float(np.mean(stats.backward_self_us)),
        "training.backward_share": stats.nonzero / stats.pair_steps,
        "training.adam_steps": counts["adam"],
        "training.gradcheck_loss_evals": counts["loss_evals"],
        "corpus.pose_file_bytes": stats.pose_file_bytes,
        "cli.self_ms": run_factor * 1e3 * float(np.mean(roots)),
        "trace.overhead_share": statistics.median(overhead),
    }
    out = {}
    for name, unit, span, scale in PER_LAYER:
        value = (computed[name] if span is None
                 else run_factor * scale * _mean_span(tr, span))
        out[name] = {"value": value, "unit": unit}
    return out


def shares(wl, metrics, stats, speed) -> dict:
    """Each layer's share of one unit of the reference operation's work."""
    unit_us = statistics.median(1e6 * ref * speed(fs, fe) / units
                                for ref, units, fs, fe, *_ in stats.walls)
    m = {k: v["value"] for k, v in metrics.items()}
    if wl.name == "train":
        parts = {
            "normalize_pose": 2 * m["skeleton.normalize_pose_us"],
            "forward": 2 * m["network.forward_us"],
            "cosine_grads": m["training.cosine_grads_us"],
            "backward_self": m["training.backward_self_us"]
            * m["training.backward_share"],
            "adam_step": m["training.adam_step_us"] * m["training.adam_steps"]
            / (m["skeleton.normalize_pose_calls"] / 2),
        }
    elif wl.name == "eval":
        parts = {
            "normalize_pose": 2 * m["skeleton.normalize_pose_us"],
            "forward": 2 * m["network.forward_us"],
            "score_pair": m["scoring.score_pair_us"],
        }
    elif wl.name == "score":
        parts = {
            "pose": 2 * m["skeleton.pose_us"],
            "normalize_pose": 2 * m["skeleton.normalize_pose_us"],
            "forward": 2 * m["network.forward_us"],
            "score_pair": m["scoring.score_pair_us"],
        }
    else:
        parts = {
            "forward": m["network.forward_us"] * m["network.forward_calls"],
            "gradient_check": 1e3 * m["training.gradient_check_ms"],
        }
    return {"unit_us": unit_us,
            **{k: v / unit_us for k, v in parts.items()}}
