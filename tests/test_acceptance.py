"""Acceptance gate: every shipped guarantee, one printed line per criterion.

Verdict lines are echoed immediately (visible with pytest -s) and collected
for the terminal summary, where they print even under output capture.
"""

import itertools
import math
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES

from posesim.cli import DEFAULT_INIT_SEED as INIT_SEED
from posesim.cli import main as cli_main
from posesim.corpus import (
    SynthConfig,
    build_pose_pairs,
    generate_corpus_files,
    split_corpus,
)
from posesim.network import (
    forward_variant,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from posesim.scoring import evaluate, similarity_score, spearman_rho
from posesim.skeleton import (
    NUM_KEYPOINTS,
    SKELETON_EDGES,
    Pose,
    build_skeleton_topology,
    normalize_pose,
)
from posesim.training import (
    TrainConfig,
    contrastive_loss,
    gradient_check,
    random_check_instance,
    train,
)

TOPO = build_skeleton_topology()

# end-to-end fixture: corpus draw seed, shuffle-split seed; the weight init
# seed is the CLI's default
CORPUS_SEED = 1
SPLIT_SEED = 7


def report(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num}: {verdict} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)


@pytest.fixture(scope="module")
def pipeline():
    """Train both variants once on the shared corpus; reused by 6 and 7."""
    records, entries = generate_corpus_files(SynthConfig(seed=CORPUS_SEED))
    train_entries, held_entries = split_corpus(entries, 0.8, seed=SPLIT_SEED)
    train_pairs, _ = build_pose_pairs(records, train_entries)
    held_pairs, held_ids = build_pose_pairs(records, held_entries)
    out = {"n_train": len(train_pairs), "n_held": len(held_pairs)}
    for variant in ("gcn", "mlp"):
        start = time.perf_counter()
        model = init_model(h=2, seed=INIT_SEED)
        model, history = train(model, TOPO, train_pairs, TrainConfig(),
                               variant=variant)
        rep = evaluate(model, TOPO, held_pairs, variant=variant,
                       pair_ids=held_ids)
        out[variant] = {
            "history": history,
            "report": rep,
            "seconds": time.perf_counter() - start,
        }
    return out


class TestCriterion1:
    def test_gradients_match_finite_differences(self):
        start = time.perf_counter()
        errs = []
        labels = set()
        for k in range(20):
            variant = ("gcn", "mlp")[(k // 2) % 2]
            model, pair = random_check_instance(k)
            labels.add((pair.label_y, variant))
            errs.append(gradient_check(model, TOPO, pair, variant=variant))
        # np.max, unlike max(), keeps a NaN error, which then fails the check
        worst = float(np.max(errs))
        elapsed = time.perf_counter() - start
        ok = worst < 1e-4 and elapsed < 30.0
        report(1, ok, f"20 instances, max rel err {worst:.3e}, {elapsed:.1f}s")
        assert {(0, "gcn"), (1, "gcn"), (0, "mlp"), (1, "mlp")} <= labels
        assert worst < 1e-4
        assert elapsed < 30.0


class TestCriterion2:
    def test_embedding_invariant_to_per_axis_affine_maps(self):
        rng = np.random.Generator(np.random.PCG64(2))
        model = init_model(h=2, seed=INIT_SEED)
        deviations = []
        for _ in range(100):
            pts = rng.uniform(-3.0, 3.0, (NUM_KEYPOINTS, 2))
            scale = rng.uniform(0.1, 10.0, 2)
            offset = rng.uniform(-1e3, 1e3, 2)
            moved = pts * scale + offset
            for fn in (lambda p: forward_variant(model, p, TOPO, "gcn")[0],
                       lambda p: forward_variant(model, p, None, "mlp")[0]):
                e1 = fn(normalize_pose(Pose(pts)))
                e2 = fn(normalize_pose(Pose(moved)))
                deviations.append(np.max(np.abs(e1 - e2)))
        # np.max, unlike max(), keeps a NaN deviation, which then fails
        worst = float(np.max(deviations))
        ok = worst < 1e-12
        report(2, ok, f"100 poses, both variants, max deviation {worst:.3e}")
        assert worst < 1e-12


class TestCriterion3:
    def test_normalized_adjacency_matches_brute_force(self):
        c_hat = np.zeros((NUM_KEYPOINTS, NUM_KEYPOINTS))
        for i, j in SKELETON_EDGES:
            c_hat[i, j] = c_hat[j, i] = 1.0
        c_hat += np.eye(NUM_KEYPOINTS)
        reference = np.zeros_like(c_hat)
        degrees = c_hat.sum(axis=1)
        for i in range(NUM_KEYPOINTS):
            for j in range(NUM_KEYPOINTS):
                reference[i, j] = c_hat[i, j] / math.sqrt(degrees[i] * degrees[j])
        a_norm = TOPO
        entry_err = float(np.max(np.abs(a_norm - reference)))
        symmetric = bool(np.array_equal(a_norm, a_norm.T))
        radius = float(np.max(np.abs(np.linalg.eigvalsh(a_norm))))
        ok = entry_err < 1e-12 and symmetric and radius <= 1.0 + 1e-12
        report(3, ok, f"entry err {entry_err:.3e}, symmetric {symmetric}, "
                      f"spectral radius {radius:.15f}")
        assert entry_err < 1e-12
        assert symmetric
        assert radius <= 1.0 + 1e-12


class TestCriterion4:
    def test_score_endpoints_and_monotonicity(self):
        at_zero = similarity_score(0.0)
        grid = np.linspace(0.0, 2.0, 1000)
        values = [similarity_score(float(d)) for d in grid]
        strictly_decreasing = all(a > b for a, b in zip(values, values[1:]))
        at_03 = similarity_score(0.3)
        ok = (at_zero == 100.0 and strictly_decreasing
              and abs(at_03 - 60.6531) < 1e-3)
        report(4, ok, f"score(0)={at_zero}, strictly decreasing on 1000-point "
                      f"grid: {strictly_decreasing}, score(0.3)={at_03:.6f}")
        assert at_zero == 100.0
        assert strictly_decreasing
        assert abs(at_03 - 60.6531) < 1e-3


class TestCriterion5:
    @staticmethod
    def oracle(xs, ys):
        def ranks(vals):
            order = sorted(range(len(vals)), key=lambda i: vals[i])
            out = [0.0] * len(vals)
            i = 0
            while i < len(order):
                j = i
                while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
                    j += 1
                avg = (i + j) / 2.0 + 1.0
                for k in range(i, j + 1):
                    out[order[k]] = avg
                i = j + 1
            return out

        rx, ry = ranks(list(xs)), ranks(list(ys))
        n = len(rx)
        mx = math.fsum(rx) / n
        my = math.fsum(ry) / n
        cov = math.fsum((a - mx) * (b - my) for a, b in zip(rx, ry))
        vx = math.fsum((a - mx) ** 2 for a in rx)
        vy = math.fsum((b - my) ** 2 for b in ry)
        return cov / math.sqrt(vx * vy)

    def test_exact_agreement_with_rank_pearson_oracle(self):
        diffs = []
        checked = 0
        for n in range(2, 7):
            xs = list(range(n))
            for perm in itertools.permutations(range(n)):
                diffs.append(abs(spearman_rho(xs, perm) - self.oracle(xs, perm)))
                checked += 1
        rng = np.random.Generator(np.random.PCG64(5))
        tied = 0
        while tied < 1000:
            n = int(rng.integers(3, 30))
            xs = rng.integers(0, 6, n).astype(float)
            ys = rng.integers(0, 6, n).astype(float)
            if np.ptp(xs) == 0 or np.ptp(ys) == 0:
                continue
            diffs.append(abs(spearman_rho(xs, ys) - self.oracle(xs, ys)))
            tied += 1
        worst = float(np.max(diffs))  # a NaN difference stays NaN and fails
        ok = worst <= 1e-12
        report(5, ok, f"{checked} permutations + 1000 tied lists, "
                      f"max |diff| {worst:.3e}")
        assert worst <= 1e-12


class TestCriterion6:
    def test_end_to_end_training_on_synthetic_corpus(self, pipeline):
        run = pipeline["gcn"]
        history, rep = run["history"], run["report"]
        loss_drops = history.mean_loss[-1] < history.mean_loss[0]
        separated = rep.mean_pos_dist + 0.2 < rep.mean_neg_dist
        rho = rep.spearman_rho
        fast = run["seconds"] < 60.0
        ok = loss_drops and separated and rho is not None and rho >= 0.9 and fast
        report(6, ok,
               f"{pipeline['n_train']} train/{pipeline['n_held']} held-out, "
               f"loss {history.mean_loss[0]:.4f}->{history.mean_loss[-1]:.4f}, "
               f"pos {rep.mean_pos_dist:.3f} + 0.2 < neg {rep.mean_neg_dist:.3f}, "
               f"rho {rho:.4f}, {run['seconds']:.1f}s")
        assert loss_drops
        assert separated
        assert rho >= 0.9
        assert fast


class TestCriterion7:
    def test_gcn_ranks_at_least_as_well_as_mlp_baseline(self, pipeline):
        rho_gcn = pipeline["gcn"]["report"].spearman_rho
        rho_mlp = pipeline["mlp"]["report"].spearman_rho
        ok = rho_gcn >= rho_mlp - 0.02
        report(7, ok, f"gcn rho {rho_gcn:.4f} vs mlp rho {rho_mlp:.4f} - 0.02")
        assert ok


class TestCriterion8:
    def run_chain(self, root):
        corpus = root / "corpus"
        run_dir = root / "run"
        eval_dir = root / "eval"
        assert cli_main(["gen", "--seed", str(CORPUS_SEED),
                         "--out", str(corpus)]) == 0
        assert cli_main(["train", "--pairs", str(corpus / "pairs.json"),
                         "--out", str(run_dir)]) == 0
        assert cli_main(["eval", "--checkpoint", str(run_dir / "model.json"),
                         "--pairs", str(corpus / "pairs.json"),
                         "--out", str(eval_dir)]) == 0
        return {
            "checkpoint": (run_dir / "model.json").read_bytes(),
            "history": (run_dir / "history.csv").read_bytes(),
            "report": (eval_dir / "report.csv").read_bytes(),
            "summary": (eval_dir / "summary.csv").read_bytes(),
        }

    def test_reruns_byte_identical_and_checkpoint_round_trips(self, tmp_path, capsys):
        first = self.run_chain(tmp_path / "a")
        second = self.run_chain(tmp_path / "b")
        capsys.readouterr()
        identical = {name: first[name] == second[name] for name in first}

        model = load_checkpoint(first["checkpoint"])
        restored = load_checkpoint(save_checkpoint(model))
        rng = np.random.Generator(np.random.PCG64(8))
        bit_identical = True
        for _ in range(100):
            pose = normalize_pose(Pose(rng.uniform(-2.0, 2.0, (NUM_KEYPOINTS, 2))))
            for variant in ("gcn", "mlp"):
                e1, _ = forward_variant(model, pose, TOPO, variant)
                e2, _ = forward_variant(restored, pose, TOPO, variant)
                if not np.array_equal(e1, e2):
                    bit_identical = False
        ok = all(identical.values()) and bit_identical
        report(8, ok, f"gen/train/eval artifacts identical: {identical}, "
                      f"round-trip embeddings bit-identical on 100 poses: "
                      f"{bit_identical}")
        assert all(identical.values())
        assert bit_identical


class TestCriterion9:
    def test_contrastive_loss_reference_triple(self):
        beyond = contrastive_loss(1.5, 0, 1.35)
        similar = contrastive_loss(0.4, 1, 1.35)
        at_margin_gap = contrastive_loss(0.35, 0, 1.35)
        ok = (beyond == 0.0
              and similar == 0.5 * 0.4 * 0.4
              and abs(similar - 0.08) < 1e-16
              and at_margin_gap == 0.5)
        report(9, ok, f"loss(1.5,0)={beyond}, loss(0.4,1)={similar!r}, "
                      f"loss(0.35,0)={at_margin_gap}")
        assert beyond == 0.0
        assert similar == 0.5 * 0.4 * 0.4
        assert abs(similar - 0.08) < 1e-16
        assert at_margin_gap == 0.5
