"""The four workloads: inputs drawn from the seed, set-up, the measured
operation and the checks on its outputs.

Every workload reaches the package only through its public functions, in
the order the matching `posesim` subcommand calls them. The weight
initialization stays at the CLI's zero-flag default; the workload seed
drives the corpus draw, the split, the epoch shuffle and the request draw.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from posesim.corpus import (
    TEMPLATE_LIBRARY,
    PairFile,
    SynthConfig,
    build_pose_pairs,
    generate_corpus_files,
    load_corpus,
    split_corpus,
    write_pair_file,
    write_pose_file,
)
from posesim.network import init_model, load_checkpoint, save_checkpoint
from posesim.scoring import evaluate, report_csv, report_summary_csv, score_pair
from posesim.skeleton import Pose, build_skeleton_topology
from posesim.training import (
    PosePair,
    TrainConfig,
    gradient_check,
    history_csv,
    random_check_instance,
    train,
)

# `posesim train --init-seed` default.
INIT_SEED = 4
# The 80/20 split of acceptance criterion 6.
TRAIN_FRACTION = 0.8
GRADCHECK_THRESHOLD = 1e-4
# Gradcheck instance seeds are seed * GRADCHECK_STRIDE + k, k < 4: the
# stride is even, so instance k has label k % 2 and variant
# ("gcn", "mlp")[(k // 2) % 2], all four pairings, as in acceptance
# criterion 1.
GRADCHECK_STRIDE = 10_000
GRADCHECK_BLOCK = 4

POSES = "poses.json"
PAIRS = "pairs.json"
MODEL = "model.json"


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark, tests shrink them."""

    epochs: int = 50                    # posesim train default
    eval_templates: int = 32            # eval corpus: 2,080 poses, 4,096 pairs
    eval_pairs_per_template: int = 64
    checkpoint_epochs: int = 2          # set-up training of the eval/score model
    score_chunk: int = 2048             # requests per measurement window
    check_every: int = 512              # score: every n-th request is re-checked
    check_sample: int = 256             # ... up to this many
    identical_checks: int = 16          # score: identical-pose requests
    setup_reps: int = 5
    split_every: int = 4                # traced runs: split timing on every n-th pair
    probe_calls: int = 64               # traced runs: calls per off-path probe


class NullTracer:
    """Stands in for measure.Tracer when a run is not traced."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


NULL = NullTracer()


@dataclass
class OpResult:
    """One measured operation.

    busy is its time in seconds, units the work it completed (pair-steps,
    pairs, requests or instances) and samples_us the per-unit timing samples
    it contributes, in microseconds.
    """

    busy: float
    units: int
    samples_us: object
    output: object = None
    failures: list = field(default_factory=list)


def _write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def _canonical_split(seed: int, tr):
    """The zero-flag `posesim gen` corpus for this seed and its 80% part."""
    records, entries = tr.call("corpus.generate", generate_corpus_files,
                               SynthConfig(seed=seed))
    train_entries, _ = split_corpus(entries, TRAIN_FRACTION, seed=seed)
    return records, train_entries


def _write_corpus(work: Path, records, entries, tr) -> None:
    _write(work / POSES, tr.call("corpus.write_pose_file", write_pose_file,
                                 records))
    _write(work / PAIRS, tr.call("corpus.write_pair_file", write_pair_file,
                                 PairFile(poses=POSES, entries=tuple(entries))))


def _setup_checkpoint(seed: int, work: Path, sizes: Sizes, tr):
    """A checkpoint trained briefly on the seed's canonical training split."""
    records, train_entries = _canonical_split(seed, NULL)
    pairs, _ = build_pose_pairs(records, train_entries)
    model, _ = train(init_model(h=2, seed=INIT_SEED), build_skeleton_topology(),
                     pairs, TrainConfig(epochs=sizes.checkpoint_epochs,
                                        seed=seed))
    _write(work / MODEL, tr.call("network.save_checkpoint", save_checkpoint,
                                 model))


def _same_files(first, later, files: str) -> list:
    """The two file contents leading each output must repeat exactly."""
    if later[:2] == first[:2]:
        return []
    return [f"{files} differ between repeats of one seed"]


def unique_poses(pairs) -> int:
    return len({p.keypoints.tobytes() for pair in pairs
                for p in (pair.pose_a, pair.pose_b)})


class Workload:
    name = ""
    unit = ""           # what one unit of work is
    min_ops = 1

    def setup(self, seed: int, work: Path, sizes: Sizes, tr=NULL):
        raise NotImplementedError

    def op(self, ctx, tr=NULL) -> OpResult:
        raise NotImplementedError

    def compare(self, first, later) -> list:
        """Failures of a later op's output against the first op's."""
        return []

    def finish(self, ctx) -> list:
        """Checks run once after the measured ops; returns failures."""
        return []

    def extra_attempts(self, ctx) -> int:
        """Checked operations that finish() runs beyond the measured ones."""
        return 0


@dataclass
class CorpusCtx:
    """Set-up of a workload that reads a corpus from files."""

    seed: int
    work: Path
    sizes: Sizes
    n_pairs: int
    unique: int     # distinct poses among the pairs' twins
    clock: object = time.perf_counter


class Train(Workload):
    """`posesim train` with zero flags on the seed's canonical 80% split."""

    name = "train"
    unit = "pair-step"
    min_ops = 2         # model.json and history.csv must repeat byte for byte

    def setup(self, seed, work, sizes, tr=NULL):
        records, train_entries = _canonical_split(seed, tr)
        _write_corpus(work, records, train_entries, tr)
        pairs, _ = build_pose_pairs(records, train_entries)
        return CorpusCtx(seed, work, sizes, len(pairs), unique_poses(pairs))

    def config(self, ctx) -> TrainConfig:
        return TrainConfig(epochs=ctx.sizes.epochs, seed=ctx.seed)

    def op(self, ctx, tr=NULL):
        t0 = ctx.clock()
        pairs, _ = tr.call("corpus.load_corpus", load_corpus, ctx.work / PAIRS)
        model = init_model(h=2, seed=INIT_SEED)
        model, history = tr.call("training.train", train, model,
                                 build_skeleton_topology(), pairs,
                                 self.config(ctx))
        out = ctx.work / "run"
        model_bytes = tr.call("network.save_checkpoint", save_checkpoint, model)
        history_bytes = history_csv(history).encode("utf-8")
        _write(out / MODEL, model_bytes)
        _write(out / "history.csv", history_bytes)
        busy = ctx.clock() - t0
        units = len(pairs) * ctx.sizes.epochs
        failures = []
        if not history.mean_loss[-1] < history.mean_loss[0]:
            failures.append(f"loss did not fall: {history.mean_loss[0]!r} -> "
                            f"{history.mean_loss[-1]!r}")
        return OpResult(busy, units, [1e6 * busy / units],
                        (model_bytes, history_bytes, history), failures)

    def compare(self, first, later):
        return _same_files(first, later, "model.json/history.csv")


class Eval(Workload):
    """`posesim eval` of a set-up checkpoint on a large generated corpus."""

    name = "eval"
    unit = "pair"
    min_ops = 2         # summary.csv must repeat byte for byte

    def setup(self, seed, work, sizes, tr=NULL):
        cfg = SynthConfig(template_count=sizes.eval_templates,
                          pairs_per_template=sizes.eval_pairs_per_template,
                          seed=seed)
        records, entries = tr.call("corpus.generate", generate_corpus_files, cfg)
        _write_corpus(work, records, entries, tr)
        _setup_checkpoint(seed, work, sizes, tr)
        pairs, _ = build_pose_pairs(records, entries)
        return CorpusCtx(seed, work, sizes, len(pairs), unique_poses(pairs))

    def op(self, ctx, tr=NULL):
        t0 = ctx.clock()
        pairs, ids = tr.call("corpus.load_corpus", load_corpus, ctx.work / PAIRS)
        model = tr.call("network.load_checkpoint", load_checkpoint,
                        (ctx.work / MODEL).read_bytes())
        report = tr.call("scoring.evaluate", evaluate, model,
                         build_skeleton_topology(), pairs, pair_ids=ids)
        report_bytes = tr.call("scoring.report_csv", report_csv,
                               report).encode("utf-8")
        summary_bytes = report_summary_csv(report).encode("utf-8")
        out = ctx.work / "eval"
        _write(out / "report.csv", report_bytes)
        _write(out / "summary.csv", summary_bytes)
        busy = ctx.clock() - t0
        failures = []
        if report.spearman_rho is None:
            failures.append("spearman rho undefined on the eval corpus")
        return OpResult(busy, len(pairs), [1e6 * busy / len(pairs)],
                        (report_bytes, summary_bytes, report), failures)

    def compare(self, first, later):
        return _same_files(first, later, "report.csv/summary.csv")


def draw_requests(rng, n: int) -> np.ndarray:
    """n requests of two fresh poses each, shape (n, 2, 15, 2), in pixels.

    Each pose is a library template (units about a metre) plus Gaussian
    noise of a random scale up to 0.1, placed at a random per-axis scale and
    offset; the draws are continuous, so no pose repeats.
    """
    templates = np.array([coords for _, coords in TEMPLATE_LIBRARY])
    pick = rng.integers(len(templates), size=(n, 2))
    level = rng.uniform(0.0, 0.10, size=(n, 2, 1, 1))
    noise = rng.normal(size=(n, 2) + templates.shape[1:])
    scale = rng.uniform(50.0, 500.0, size=(n, 2, 1, 2))
    offset = rng.uniform(0.0, 1000.0, size=(n, 2, 1, 2))
    return (templates[pick] + level * noise) * scale + offset


@dataclass
class ScoreCtx:
    seed: int
    work: Path
    sizes: Sizes
    model: object
    rng: object
    drawn: int = 0
    kept: list = field(default_factory=list)   # (kp_a, kp_b, d, score)
    clock: object = time.perf_counter


class Score(Workload):
    """Closed loop, one client: one score_pair per request on fresh poses."""

    name = "score"
    unit = "request"

    def setup(self, seed, work, sizes, tr=NULL):
        _setup_checkpoint(seed, work, sizes, tr)
        model = tr.call("network.load_checkpoint", load_checkpoint,
                        (work / MODEL).read_bytes())
        rng = np.random.Generator(np.random.PCG64(seed))
        return ScoreCtx(seed, work, sizes, model, rng)

    def next_requests(self, ctx) -> tuple[np.ndarray, int]:
        """The next chunk of request keypoints and the index of its first."""
        first = ctx.drawn
        kps = draw_requests(ctx.rng, ctx.sizes.score_chunk)
        ctx.drawn += len(kps)
        return kps, first

    def keep(self, ctx, first: int, kps, results) -> None:
        sizes = ctx.sizes
        for i in range(-first % sizes.check_every, len(kps), sizes.check_every):
            if len(ctx.kept) < sizes.check_sample:
                # copies: a view would keep the whole chunk alive
                ctx.kept.append((kps[i, 0].copy(), kps[i, 1].copy())
                                + results[i])

    def op(self, ctx, tr=NULL):
        return self.run_chunk(ctx, *self.next_requests(ctx))

    def run_chunk(self, ctx, kps, first) -> OpResult:
        model = ctx.model
        topo = build_skeleton_topology()
        clock = ctx.clock
        lat = []
        results = []
        for kp in kps:
            t0 = clock()
            d, s = score_pair(model, topo, Pose(kp[0]), Pose(kp[1]))
            t1 = clock()
            lat.append(t1 - t0)
            results.append((d, s))
        self.keep(ctx, first, kps, results)
        return OpResult(math.fsum(lat), len(kps),
                        array("d", (1e6 * x for x in lat)), results)

    def finish(self, ctx):
        """A kept sample must match evaluate's rows for the same pairs, and
        identical poses must score exactly 100."""
        failures = []
        topo = build_skeleton_topology()
        pairs = [PosePair(Pose(a), Pose(b), 1) for a, b, _, _ in ctx.kept]
        if pairs:
            report = evaluate(ctx.model, topo, pairs)
            for (_, _, d, s), row in zip(ctx.kept, report.rows):
                if (row.d_c, row.score) != (d, s):
                    failures.append(f"score_pair ({d!r}, {s!r}) != evaluate "
                                    f"({row.d_c!r}, {row.score!r})")
        kps = draw_requests(np.random.Generator(np.random.PCG64(ctx.seed + 1)),
                            ctx.sizes.identical_checks)
        for kp in kps:
            pose = Pose(kp[0])
            d, s = score_pair(ctx.model, topo, pose, pose)
            if s != 100.0:
                failures.append(f"identical poses scored {s!r}, not 100")
        return failures

    def extra_attempts(self, ctx) -> int:
        return len(ctx.kept) + ctx.sizes.identical_checks


@dataclass
class GradcheckCtx:
    seed: int
    work: Path
    sizes: Sizes
    block: list             # (instance seed, variant, model, pair)
    worst: float = 0.0
    clock: object = time.perf_counter


class Gradcheck(Workload):
    """`posesim gradcheck` on one block of consecutive instance seeds that
    alternates variant and label as acceptance criterion 1 does.

    The instances are drawn in set-up and the block is checked again and
    again: drawing is rejection sampling whose cost varies tenfold between
    seeds, which would swamp the finite-difference loop measured here.
    """

    name = "gradcheck"
    unit = "instance"

    def setup(self, seed, work, sizes, tr=NULL):
        block = []
        for k in range(GRADCHECK_BLOCK):
            inst = seed * GRADCHECK_STRIDE + k
            model, pair = tr.call("training.check_instance",
                                  random_check_instance, inst)
            block.append((inst, ("gcn", "mlp")[(k // 2) % 2], model, pair))
        return GradcheckCtx(seed, work, sizes, block)

    def op(self, ctx, tr=NULL):
        topo = build_skeleton_topology()
        t0 = ctx.clock()
        errs = [tr.call("training.gradient_check", gradient_check, model,
                        topo, pair, variant=variant)
                for _, variant, model, pair in ctx.block]
        busy = ctx.clock() - t0
        ctx.worst = max(ctx.worst, *errs)
        failures = [f"instance {inst} ({variant}): max rel err {e!r} >= "
                    f"{GRADCHECK_THRESHOLD}"
                    for (inst, variant, _, _), e in zip(ctx.block, errs)
                    if not e < GRADCHECK_THRESHOLD]
        return OpResult(busy, len(errs), [1e6 * busy / len(errs)], errs,
                        failures)

    def compare(self, first, later):
        return [] if later == first else [
            f"gradient check errors changed between repeats: {later!r}"]


WORKLOADS = {w.name: w for w in (Train(), Eval(), Score(), Gradcheck())}
