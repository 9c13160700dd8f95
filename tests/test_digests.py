"""Pinned artifact digests: the CLI's byte-identical outputs must not drift.

The sha256 digests below were recorded from the per-pair reference
implementation (one normalize, forward and backward call per twin of every
pair). Any change to the numerics of training, evaluation or scoring shows
up here as a digest mismatch, even if the trainer and its test replica
drift together.
"""

import hashlib

import pytest

from posesim.cli import main
from posesim.skeleton import build_skeleton_topology
from posesim.training import gradient_check, random_check_instance

# (label, train flags) -> digests of model.json, history.csv, report.csv,
# summary.csv and the score CSV for one pair, all on the `gen --seed 1` corpus
PINNED = {
    "gcn": (
        ("--variant", "gcn", "--epochs", "3"),
        {
            "model.json":
                "16ed6222e67da31ed4731e4f0c87ca880b22151eb8ed07b6d6f83291c5a2cd25",
            "history.csv":
                "76360db36d3557932d1ed4a7a446441d253aa0e8f7944ae852a151c281b82b7b",
            "report.csv":
                "477429fc679a199ce5e3d3793daf7bd27d2de30d782d3a7722b7b2624cecf746",
            "summary.csv":
                "66f4aa7fd6ee962ea03039e82f5bd16f39b0d2e4139a37edcf7de7aaa73a4458",
            "score.csv":
                "e605ee99ed498483c613e11aaf9dde0ec082e43fc41500bde7e642da9f084e2d",
        },
    ),
    "mlp": (
        ("--variant", "mlp", "--epochs", "2", "--batch-size", "48",
         "--seed", "3"),
        {
            "model.json":
                "e39cbbf33a9204bf317d8448349643f42c26c1c7d40b1a9a9b92e4ea9588f60d",
            "history.csv":
                "f0957c25b239aa6094e298d936f1a3e4096590c092ce8429f0aefd9a2bd3be29",
            "report.csv":
                "966af06c0c2271e6d7bf7a8c1b6adcb282cece9198dae7dfd927f1f8f6c3ce3a",
            "summary.csv":
                "9619854c00a97cb8b66ff230df7e994452ac4284560786b2471564e9557940f9",
            "score.csv":
                "a69931fa06e598a1b421b8399a4f0cb8e7f03d8f4bac0505beea523596ce383d",
        },
    ),
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["gen", "--seed", "1", "--out", str(out)]) == 0
    return out


def artifacts(corpus, out, flags):
    variant = flags[flags.index("--variant") + 1]
    run, ev = out / "run", out / "eval"
    assert main(["train", "--pairs", str(corpus / "pairs.json"),
                 "--out", str(run), *flags]) == 0
    assert main(["eval", "--checkpoint", str(run / "model.json"),
                 "--pairs", str(corpus / "pairs.json"), "--out", str(ev),
                 "--variant", variant]) == 0
    assert main(["score", "--checkpoint", str(run / "model.json"),
                 "--poses", str(corpus / "poses.json"), "--a", "t00",
                 "--b", "t03_p005", "--variant", variant,
                 "--out", str(out / "score.csv")]) == 0
    return {
        "model.json": sha256(run / "model.json"),
        "history.csv": sha256(run / "history.csv"),
        "report.csv": sha256(ev / "report.csv"),
        "summary.csv": sha256(ev / "summary.csv"),
        "score.csv": sha256(out / "score.csv"),
    }


@pytest.mark.parametrize("label", sorted(PINNED))
def test_artifacts_match_pinned_digests(corpus, tmp_path, capsys, label):
    flags, want = PINNED[label]
    got = artifacts(corpus, tmp_path, flags)
    capsys.readouterr()
    assert got == want


# gradient_check's max relative error on instances 0 and 1, per variant
PINNED_GRADCHECK = {
    "gcn": ("7.506918627561975e-06", "1.519128360332617e-06"),
    "mlp": ("2.2642900202751244e-05", "2.5318883010223584e-06"),
}


@pytest.mark.parametrize("variant", sorted(PINNED_GRADCHECK))
def test_gradient_check_errors_match_pinned_values(variant):
    topo = build_skeleton_topology()
    got = []
    for seed in (0, 1):
        model, pair = random_check_instance(seed)
        got.append(repr(gradient_check(model, topo, pair, variant=variant)))
    assert tuple(got) == PINNED_GRADCHECK[variant]
