"""Pinned artifact digests: the CLI's byte-identical outputs must not drift.

The sha256 digests below were recorded from the per-pair reference
implementation (one normalize, forward and backward call per twin of every
pair). Any change to the numerics of training, evaluation or scoring shows
up here as a digest mismatch, even if the trainer and its test replica
drift together.
"""

import ctypes
import glob
import hashlib
import os

import numpy
import pytest

from posesim.cli import main
from posesim.skeleton import build_skeleton_topology
from posesim.training import gradient_check, random_check_instance

from v1_files import v1_from_v2, v1_pairs_from_v2

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


def kernel():
    """The running OpenBLAS core, or unknown, and numpy's version: the pins
    were recorded under SkylakeX, and another kernel or numpy release may
    move the bytes. CI's "OpenBLAS kernel" step prints this function."""
    try:
        libs = os.path.join(os.path.dirname(numpy.__path__[0]), "numpy.libs")
        lib = ctypes.CDLL(glob.glob(os.path.join(libs, "libscipy_openblas*"))[0])
        lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
        core = lib.scipy_openblas_get_corename64_().decode()
    except (IndexError, OSError, AttributeError):
        core = "unknown"
    return f"OpenBLAS core {core}, numpy {numpy.__version__}"


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


# sha256 of the `gen --seed 1` corpus files themselves, recorded from the
# json.dumps(sort_keys=True, indent=1) writer; they pin the written bytes,
# whitespace and escaping included, which the digests of what is parsed
# back from them cannot. Generation makes no BLAS call, so they hold under
# every OpenBLAS kernel. Both files are pinned as format 1, the layouts the
# pins were recorded from: each written format 2 file must turn back into
# those bytes through a standard-library converter.
PINNED_CORPUS = {
    "poses.json":
        "280f4b8e5647b7c6216ceee576bf06ed8e7b28c4f230ebfb0e47f700ebbfa46e",
    "pairs.json":
        "0daa3b8cd713da8ad8e19adcba66f21be5e699caccb239a3f5510d06f5581d2b",
}
# sha256 of the format 2 poses.json and pairs.json that `gen --seed 1` writes
PINNED_POSES_V2 = "930639be981eb00998ba8b46f00f82a5d7bafa38188ac540d90c5f6f1df6d6b1"
PINNED_PAIRS_V2 = "2c883b2674cecf4528566d9053a8cb4f4512c0c5550710cd9e4206ee82e71491"


def test_corpus_files_match_pinned_digests(corpus):
    poses = (corpus / "poses.json").read_bytes()
    pairs = (corpus / "pairs.json").read_bytes()
    assert hashlib.sha256(poses).hexdigest() == PINNED_POSES_V2
    assert hashlib.sha256(pairs).hexdigest() == PINNED_PAIRS_V2
    assert {
        "poses.json": hashlib.sha256(v1_from_v2(poses)).hexdigest(),
        "pairs.json": hashlib.sha256(v1_pairs_from_v2(pairs)).hexdigest(),
    } == PINNED_CORPUS


@pytest.mark.parametrize("label", sorted(PINNED))
def test_artifacts_match_pinned_digests(corpus, tmp_path, capsys, label):
    flags, want = PINNED[label]
    got = artifacts(corpus, tmp_path, flags)
    capsys.readouterr()
    assert got == want, kernel()


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
    assert tuple(got) == PINNED_GRADCHECK[variant], kernel()


# sha256 over random_check_instance(k): the model's flat parameters, both
# poses' keypoints, then repr((label, gcn_hidden, init seed)); recorded from
# the one-candidate-at-a-time draw that vetted each candidate alone
PINNED_INSTANCES = {
    0: "743d91b639cc2f9e73830c87ebb3db19800b8ccd33dfc263030741b0e05d1b8d",
    1: "1ee9bf01c62868787e8496b1512efa3064c53718aa44fe2c7358e20307b6a96e",
    2: "19610ba47523fa856a216a9a0d5a1f5bfae5ab61ebbbb254020e4897f3dde8cd",
    3: "84994665ed16b4b446f3165f6c5b82b966336feffd391f92ce91965dc5944248",
    4: "af7e0ed42fb1bd3d9c76106b8558ee1f2e4e396eb4a0f725c01ca5f7204a9b6f",
    5: "8d66101920be67dc64c963067c18df8c7498c18b9aaef67b141a39030e89de35",
    6: "2948f7a3827ed489fb07f15a729c5aa1b86dcf5eb5572c7f82cf3134e22b8777",
    7: "fecb8dd9e1a4f0649511a07726f4cbd67c7bde7ce1e979a9f5e7db481a988218",
    8: "8616228d4c9f0893a122a2c6227a6d5f82fb3487150fe5f6c8c737d82f54a20c",
    9: "1b0e559c9806e584e4743ed1473cdf1d4978eb551d9e41286ab4e4628adf8acf",
    10: "f50d32da4533c0c14c5a8c035004bfe2b7cc75639d4292ff5669fa082f8ccc32",
    11: "ad87552f617f6878464aa1bdf1c25c318988187a3be6820f01f474ee86f22ca4",
    12: "466f4793da9ef671b4215c96de14235634bb1c0849d9146b1a9060214d768501",
    13: "0b26f878e4f0c2c9d07872d5d5fa6cbad6b69911c7de02de76bf934611879438",
    14: "4b6c3e1eb2e093b7f3154604e6ff9bd127c1e8b7d6d394cc16e4e803c03cffbf",
    15: "192da6949c46170e599c1c0b927401ffc7cd33ba684e1a3d58487c8ff69b8e62",
    16: "9b154d367fcdc299b8d4cb0799c8f2626a1aa0ebe65e04c1de46ad769dbc6921",
    17: "072b3681bd079bfc974d22e2f31799971fc70587082e20c5377817e99bad39a9",
    18: "2af5876f41c7882965a2c43f356fd0afb01c7da16e386821d73cef07e6d7dc76",
    19: "ac91d70af34365f9c152d7a0b1c5a9f6c05ae4a887f33751999bf23277c5406b",
    10000: "6965961a3c054f2cd04958c6e54b665c773348fe73213b12e60e2e75c4b21122",
    10001: "1985c58ddfaa3f30475ee95b7ee9191b051ad7746668b58f40b2ff07d4e6242e",
    10002: "f236eb3825f27ec233f4e3a2c21275f093fdcb4faffd371cf89fd45b22928e23",
    10003: "4b57af0480df12163549b0ea2c2098d6581eb2c68bf0451e787b2f260dd8e830",
}


def instance_digest(model, pair):
    h = hashlib.sha256()
    for arr in (model.theta, pair.pose_a.keypoints, pair.pose_b.keypoints):
        h.update(arr.tobytes())
    h.update(repr((pair.label_y, model.arch.gcn_hidden,
                   model.arch.seed)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("seed", sorted(PINNED_INSTANCES))
def test_check_instances_match_pinned_digests(seed):
    assert instance_digest(*random_check_instance(seed)) == PINNED_INSTANCES[seed]
