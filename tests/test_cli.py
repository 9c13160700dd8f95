import json
import re
from dataclasses import astuple

import pytest

from posesim.cli import DEFAULT_INIT_SEED, _parse_jitter, build_parser, main
from posesim.corpus import (
    SynthConfig,
    load_corpus,
    parse_pair_file,
    parse_pose_file,
    write_pair_file,
    write_pose_file,
)
from posesim.network import ArchMeta, init_model, load_checkpoint, save_checkpoint
from posesim.scoring import ScoreParams
from posesim.skeleton import build_skeleton_topology
from posesim.training import TrainConfig, history_csv, train

from v1_files import v1_from_v2, v1_pairs_from_v2


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_small(tmp_path, capsys, seed=3, ppt=4):
    out = tmp_path / "corpus"
    code, _, _ = run(capsys, "gen", "--pairs-per-template", str(ppt),
                     "--seed", str(seed), "--out", str(out))
    assert code == 0
    return out


def train_small(tmp_path, capsys, corpus, variant="gcn", epochs=3):
    out = tmp_path / f"run_{variant}"
    code, _, _ = run(capsys, "train", "--pairs", str(corpus / "pairs.json"),
                     "--out", str(out), "--variant", variant,
                     "--epochs", str(epochs))
    assert code == 0
    return out


def overflowing_checkpoint(tmp_path):
    """A checkpoint whose weights are finite but overflow the forward pass."""
    model = init_model(h=2, seed=4)
    model.theta[...] *= 1e200
    path = tmp_path / "overflow.json"
    path.write_bytes(save_checkpoint(model))
    return path


def assert_names_overflow(path, code, stdout, err):
    assert code == 1
    assert stdout == ""
    # one line: no numpy warning precedes it
    assert err.count("\n") == 1
    assert err.startswith(f"error: checkpoint {path}: its embeddings are not "
                          f"finite (overflow encountered in ")


class TestGen:
    def test_writes_both_files_and_counts(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        code, stdout, _ = run(capsys, "gen", "--pairs-per-template", "4",
                              "--seed", "3", "--out", str(out))
        assert code == 0
        assert (out / "poses.json").exists()
        assert (out / "pairs.json").exists()
        assert "poses=40 pairs=64 positives=32 negatives=32" in stdout

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        a = gen_small(tmp_path / "a", capsys)
        b = gen_small(tmp_path / "b", capsys)
        assert (a / "poses.json").read_bytes() == (b / "poses.json").read_bytes()
        assert (a / "pairs.json").read_bytes() == (b / "pairs.json").read_bytes()

    def test_different_seed_changes_poses(self, tmp_path, capsys):
        a = gen_small(tmp_path / "a", capsys, seed=3)
        b = gen_small(tmp_path / "b", capsys, seed=4)
        assert (a / "poses.json").read_bytes() != (b / "poses.json").read_bytes()

    def test_single_template_fails(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--templates", "1",
                           "--out", str(tmp_path / "x"))
        assert code == 1
        assert "template_count >= 2" in err

    def test_bad_jitter_list(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--jitter", "0.01,oops",
                           "--out", str(tmp_path / "x"))
        assert code == 1
        assert "--jitter" in err


class TestTrain:
    def test_writes_checkpoint_and_history(self, tmp_path, capsys):
        corpus = gen_small(tmp_path, capsys)
        out = train_small(tmp_path, capsys, corpus)
        model = load_checkpoint((out / "model.json").read_bytes())
        assert model.arch.gcn_hidden == 2
        history = (out / "history.csv").read_text().strip().splitlines()
        assert history[0] == "epoch,mean_loss,mean_pos_dist,mean_neg_dist"
        assert len(history) == 4

    def test_deterministic_checkpoints(self, tmp_path, capsys):
        corpus = gen_small(tmp_path, capsys)
        a = train_small(tmp_path / "a", capsys, corpus)
        b = train_small(tmp_path / "b", capsys, corpus)
        assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()
        assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()

    def test_mlp_variant_differs(self, tmp_path, capsys):
        corpus = gen_small(tmp_path, capsys)
        a = train_small(tmp_path, capsys, corpus, variant="gcn")
        b = train_small(tmp_path, capsys, corpus, variant="mlp")
        assert (a / "model.json").read_bytes() != (b / "model.json").read_bytes()

    @pytest.mark.parametrize("lr, message", [
        ("inf", "learning_rate must be finite"),
        ("nan", "learning_rate must be finite"),
        ("1e300", "training diverged in epoch 2"),
    ])
    def test_divergent_learning_rate_fails_without_output(self, tmp_path,
                                                          capsys, lr, message):
        corpus = gen_small(tmp_path, capsys)
        out = tmp_path / "run"
        code, _, err = run(capsys, "train", "--pairs", str(corpus / "pairs.json"),
                           "--out", str(out), "--epochs", "3", "--lr", lr)
        assert code == 1
        assert message in err
        assert not out.exists()

    def test_every_flag_reaches_the_run(self, tmp_path, capsys):
        corpus = gen_small(tmp_path, capsys)
        out = tmp_path / "run"
        argv = ["train", "--pairs", str(corpus / "pairs.json"), "--out", str(out)]
        flags = ["--hidden", "3", "--init-seed", "7", "--margin", "1.0",
                 "--batch-size", "16", "--lr", "2e-4", "--seed", "5",
                 "--epochs", "2"]
        # each flag sets a value other than its default, so a flag that the
        # run dropped would change the bytes
        parse = build_parser().parse_args
        given, default = vars(parse(argv + flags)), vars(parse(argv))
        assert {key for key in given if given[key] != default[key]} == {
            "hidden", "init_seed", "margin", "batch_size", "lr", "seed", "epochs"}
        code, _, _ = run(capsys, *argv, *flags)
        assert code == 0
        table, _ = load_corpus(corpus / "pairs.json")
        model, history = train(
            init_model(h=3, seed=7), build_skeleton_topology(), table,
            TrainConfig(learning_rate=2e-4, batch_size=16, epochs=2,
                        margin_m=1.0, seed=5))
        assert (out / "model.json").read_bytes() == save_checkpoint(model)
        assert (out / "history.csv").read_text() == history_csv(history)

    def test_written_files_round_trip_canonically(self, tmp_path, capsys):
        corpus = gen_small(tmp_path, capsys)
        out = train_small(tmp_path, capsys, corpus)
        for path, parse, write in [
            (corpus / "poses.json", parse_pose_file, write_pose_file),
            (corpus / "pairs.json", parse_pair_file, write_pair_file),
            (out / "model.json", load_checkpoint, save_checkpoint),
        ]:
            data = path.read_bytes()
            assert write(parse(data)) == data

    def test_missing_pair_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "train", "--pairs",
                           str(tmp_path / "nope.json"), "--out", str(tmp_path))
        assert code == 1
        assert err.startswith("error:")

    # edits None: the whole file becomes JSON nested too deep to parse;
    # otherwise each (path, value) edit sets that field, of pairs.json as
    # written or of poses.json turned into format 1, whose records hold
    # their keypoints
    @pytest.mark.parametrize("name, edits", [
        ("pairs.json", None),
        ("pairs.json", [(("pairs", "magnitude", 0), 10 ** 400)]),
        ("poses.json", [(("records", 0, "keypoints", 0, 0), 10 ** 400)]),
        ("poses.json", [(("records", 0, "keypoints", 0, 0), -1e308),
                        (("records", 0, "keypoints", 1, 0), 1e308)]),
    ], ids=["deep-nesting", "huge-magnitude", "huge-keypoint",
            "overflowing-extent"])
    def test_unparseable_corpus_fails(self, tmp_path, capsys, name, edits):
        corpus = gen_small(tmp_path, capsys)
        target = corpus / name
        data = b"[" * 100_000
        if edits is not None:
            data = target.read_bytes()
            doc = json.loads(v1_from_v2(data) if name == "poses.json" else data)
            for path, value in edits:
                parent = doc
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = value
            data = json.dumps(doc).encode()
        target.write_bytes(data)
        code, _, err = run(capsys, "train", "--pairs", str(corpus / "pairs.json"),
                           "--out", str(tmp_path / "run"))
        assert code == 1
        assert err.startswith("error:")


class TestScore:
    def test_identical_pose_scores_100(self, tmp_path, capsys):
        corpus = gen_small(tmp_path, capsys)
        out = train_small(tmp_path, capsys, corpus)
        code, stdout, _ = run(capsys, "score",
                              "--checkpoint", str(out / "model.json"),
                              "--poses", str(corpus / "poses.json"),
                              "--a", "t00", "--b", "t00")
        assert code == 0
        assert "d_c=0.0 score=100.0" in stdout

    @pytest.mark.parametrize("flag, field", [("--sigma", "amplitude_sigma"),
                                             ("--width", "width_u")])
    def test_infinite_params_fail(self, tmp_path, capsys, flag, field):
        corpus = gen_small(tmp_path, capsys)
        out = train_small(tmp_path, capsys, corpus)
        code, stdout, err = run(capsys, "score",
                                "--checkpoint", str(out / "model.json"),
                                "--poses", str(corpus / "poses.json"),
                                "--a", "t00", "--b", "t01", flag, "inf")
        assert code == 1
        assert f"{field} must be finite" in err
        assert stdout == ""

    @pytest.mark.parametrize("variant", ["gcn", "mlp"])
    def test_overflowing_checkpoint_named(self, tmp_path, capsys, variant):
        corpus = gen_small(tmp_path, capsys)
        path = overflowing_checkpoint(tmp_path)
        code, stdout, err = run(capsys, "score", "--checkpoint", str(path),
                                "--poses", str(corpus / "poses.json"),
                                "--a", "t00", "--b", "t01",
                                "--variant", variant)
        assert_names_overflow(path, code, stdout, err)

    def test_round_is_display_only(self, tmp_path, capsys):
        corpus = gen_small(tmp_path, capsys)
        out = train_small(tmp_path, capsys, corpus)
        csv_path = tmp_path / "score.csv"
        code, stdout, _ = run(capsys, "score",
                              "--checkpoint", str(out / "model.json"),
                              "--poses", str(corpus / "poses.json"),
                              "--a", "t00", "--b", "t01",
                              "--round", "--out", str(csv_path))
        assert code == 0
        shown = stdout.strip().split("score=")[1]
        assert "." not in shown
        header, row = csv_path.read_text().strip().splitlines()
        assert header == "d_c,score"
        d_c, score = (float(tok) for tok in row.split(","))
        assert 0.0 <= d_c <= 2.0
        assert score != round(score) or score in (0.0, 100.0)

    def test_unknown_id(self, tmp_path, capsys):
        corpus = gen_small(tmp_path, capsys)
        out = train_small(tmp_path, capsys, corpus)
        code, _, err = run(capsys, "score",
                           "--checkpoint", str(out / "model.json"),
                           "--poses", str(corpus / "poses.json"),
                           "--a", "t00", "--b", "ghost")
        assert code == 1
        assert "unknown pose id 'ghost'" in err

    def test_both_ids_unknown_names_the_first(self, tmp_path, capsys):
        # the pair-order rule of the corpus join: --a before --b
        corpus = gen_small(tmp_path, capsys)
        out = train_small(tmp_path, capsys, corpus)
        code, stdout, err = run(capsys, "score",
                                "--checkpoint", str(out / "model.json"),
                                "--poses", str(corpus / "poses.json"),
                                "--a", "ghost-a", "--b", "ghost-b")
        assert code == 1
        assert stdout == ""
        assert err == "error: pair references unknown pose id 'ghost-a'\n"

    def test_missing_checkpoint(self, tmp_path, capsys):
        corpus = gen_small(tmp_path, capsys)
        code, _, err = run(capsys, "score",
                           "--checkpoint", str(tmp_path / "nope.json"),
                           "--poses", str(corpus / "poses.json"),
                           "--a", "t00", "--b", "t01")
        assert code == 1
        assert err.startswith("error:")

    def test_format_1_and_per_row_copies_give_the_same_bytes(self, tmp_path,
                                                             capsys):
        # a format 1 copy takes the column checks as format 2 does; a copy
        # one of whose records carries confidences takes the per-row rule
        corpus = gen_small(tmp_path, capsys)
        run_dir = train_small(tmp_path, capsys, corpus)
        data = (corpus / "poses.json").read_bytes()
        rows = json.loads(data)
        rows["records"][1]["confidences"] = [1] * 15
        outputs = []
        for name, pose_bytes in (("v2", data), ("v1", v1_from_v2(data)),
                                 ("rows", json.dumps(rows).encode())):
            poses, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            poses.write_bytes(pose_bytes)
            assert run(capsys, "score", "--checkpoint", str(run_dir / "model.json"),
                       "--poses", str(poses), "--a", "t00", "--b", "t01_p002",
                       "--out", str(out))[0] == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("v1, path, value", [
        (False, ("records", 9, "quality_score"), "0.5"),
        (False, ("records", 9, "id"), "t00"),
        (True, ("records", 9, "keypoints", 3, 1), float("nan")),
    ], ids=["quality-score", "duplicate-id", "nan-keypoint"])
    def test_faulty_record_named_as_parse_pose_file_names_it(
            self, tmp_path, capsys, v1, path, value):
        corpus = gen_small(tmp_path, capsys)
        run_dir = train_small(tmp_path, capsys, corpus)
        data = (corpus / "poses.json").read_bytes()
        doc = json.loads(v1_from_v2(data) if v1 else data)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        data = json.dumps(doc).encode()
        (corpus / "poses.json").write_bytes(data)
        with pytest.raises(ValueError) as info:
            parse_pose_file(data)
        code, stdout, err = run(capsys, "score",
                                "--checkpoint", str(run_dir / "model.json"),
                                "--poses", str(corpus / "poses.json"),
                                "--a", "t00", "--b", "t01")
        assert (code, stdout) == (1, "")
        assert err == f"error: {info.value}\n"

    def test_does_not_build_the_records(self, tmp_path, capsys, monkeypatch):
        # score reads the pose file as load_corpus does, into columns
        corpus = gen_small(tmp_path, capsys)
        run_dir = train_small(tmp_path, capsys, corpus)
        argv = ["score", "--checkpoint", str(run_dir / "model.json"),
                "--poses", str(corpus / "poses.json"), "--a", "t00",
                "--b", "t01_p002"]
        want = run(capsys, *argv)
        assert want[0] == 0

        def refuse(data):
            raise AssertionError("parse_pose_file called")

        monkeypatch.setattr("posesim.corpus.parse_pose_file", refuse)
        monkeypatch.setattr("posesim.cli.parse_pose_file", refuse, raising=False)
        assert run(capsys, *argv) == want


class TestEval:
    @pytest.mark.parametrize("field", ["seed", "gcn_hidden"])
    def test_overflowing_checkpoint_field_fails(self, tmp_path, capsys, field):
        corpus = gen_small(tmp_path, capsys)
        blob = save_checkpoint(init_model(h=2, seed=0)).decode()
        bad = tmp_path / "bad.json"
        bad.write_text(re.sub(rf'("{field}": )\d+', r"\g<1>1e400", blob))
        code, _, err = run(capsys, "eval", "--checkpoint", str(bad),
                           "--pairs", str(corpus / "pairs.json"),
                           "--out", str(tmp_path / "ev"))
        assert code == 1
        assert err.startswith("error: malformed checkpoint")

    @pytest.mark.parametrize("variant", ["gcn", "mlp"])
    def test_overflowing_checkpoint_named(self, tmp_path, capsys, variant):
        corpus = gen_small(tmp_path, capsys)
        path = overflowing_checkpoint(tmp_path)
        out = tmp_path / "ev"
        code, stdout, err = run(capsys, "eval", "--checkpoint", str(path),
                                "--pairs", str(corpus / "pairs.json"),
                                "--out", str(out), "--variant", variant)
        assert_names_overflow(path, code, stdout, err)
        assert not out.exists()

    def test_writes_report_and_prints_summary(self, tmp_path, capsys):
        corpus = gen_small(tmp_path, capsys)
        run_dir = train_small(tmp_path, capsys, corpus)
        out = tmp_path / "eval"
        code, stdout, _ = run(capsys, "eval",
                              "--checkpoint", str(run_dir / "model.json"),
                              "--pairs", str(corpus / "pairs.json"),
                              "--out", str(out))
        assert code == 0
        assert "spearman_rho=" in stdout
        assert "mean_pos_dist=" in stdout and "mean_neg_dist=" in stdout
        report = (out / "report.csv").read_text().strip().splitlines()
        assert report[0] == "pair_id,d_c,score,label,magnitude"
        assert len(report) == 65
        summary = (out / "summary.csv").read_text().strip().splitlines()
        assert summary[0] == "spearman_rho,mean_pos_dist,mean_neg_dist"

    def test_format_1_files_give_the_same_outputs(self, tmp_path, capsys):
        # train, eval and score read the format 1 pose file of the same
        # records, with the format 2 pair file gen wrote and with its format
        # 1 file, and write the bytes they write on gen's format 2 files
        corpus = gen_small(tmp_path, capsys)
        poses = v1_from_v2((corpus / "poses.json").read_bytes())
        pairs = (corpus / "pairs.json").read_bytes()
        directories = [corpus]
        for name, pair_bytes in (("v1_poses", pairs), ("v1", v1_pairs_from_v2(pairs))):
            directories.append(tmp_path / name)
            directories[-1].mkdir()
            (directories[-1] / "poses.json").write_bytes(poses)
            (directories[-1] / "pairs.json").write_bytes(pair_bytes)
        outputs = []
        for directory in directories:
            run_dir = tmp_path / f"run_{directory.name}"
            ev = tmp_path / f"eval_{directory.name}"
            score = tmp_path / f"score_{directory.name}.csv"
            for argv in (["train", "--pairs", str(directory / "pairs.json"),
                          "--out", str(run_dir), "--epochs", "2"],
                         ["eval", "--checkpoint", str(run_dir / "model.json"),
                          "--pairs", str(directory / "pairs.json"), "--out", str(ev)],
                         ["score", "--checkpoint", str(run_dir / "model.json"),
                          "--poses", str(directory / "poses.json"), "--a", "t00",
                          "--b", "t01_p002", "--out", str(score)]):
                assert run(capsys, *argv)[0] == 0
            outputs.append([path.read_bytes() for path in (
                run_dir / "model.json", run_dir / "history.csv",
                ev / "report.csv", ev / "summary.csv", score)])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_per_row_forms_give_the_same_outputs(self, tmp_path, capsys):
        # int magnitudes and a record's confidences send the pair file and
        # the pose file to their per-row rule, which must read the values
        # the column checks read
        out = tmp_path / "corpus"
        assert run(capsys, "gen", "--jitter", "0,1", "--pairs-per-template", "4",
                   "--out", str(out))[0] == 0
        run_dir = train_small(tmp_path, capsys, out)
        ints = tmp_path / "ints"
        ints.mkdir()
        pairs = json.loads((out / "pairs.json").read_bytes())
        pairs["pairs"]["magnitude"] = [m if m is None else int(m)
                                       for m in pairs["pairs"]["magnitude"]]
        (ints / "pairs.json").write_bytes(json.dumps(pairs).encode())
        poses = json.loads((out / "poses.json").read_bytes())
        poses["records"][1]["confidences"] = [1] * 15
        (ints / "poses.json").write_bytes(json.dumps(poses).encode())
        reports = []
        for directory in (out, ints):
            ev = tmp_path / f"eval_{directory.name}"
            assert run(capsys, "eval", "--checkpoint", str(run_dir / "model.json"),
                       "--pairs", str(directory / "pairs.json"),
                       "--out", str(ev))[0] == 0
            reports.append([(ev / name).read_bytes()
                            for name in ("report.csv", "summary.csv")])
        assert reports[0] == reports[1]
        assert b",0.0\n" in reports[0][0] and b",1.0\n" in reports[0][0]

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_nul_in_the_poses_reference_is_named(self, tmp_path, capsys, command):
        corpus = gen_small(tmp_path, capsys)
        doc = json.loads((corpus / "pairs.json").read_bytes())
        doc["poses"] = "poses.json\0"
        (corpus / "pairs.json").write_bytes(json.dumps(doc).encode())
        argv = ["--pairs", str(corpus / "pairs.json"), "--out", str(tmp_path / "out")]
        if command == "eval":
            argv += ["--checkpoint", str(overflowing_checkpoint(tmp_path))]
        code, stdout, err = run(capsys, command, *argv)
        assert (code, stdout) == (1, "")
        assert err == "error: pair file must reference a pose file in 'poses'\n"

    def test_rho_omitted_without_magnitudes(self, tmp_path, capsys):
        corpus = gen_small(tmp_path, capsys)
        run_dir = train_small(tmp_path, capsys, corpus)
        # strip magnitudes from the pair file
        doc = json.loads((corpus / "pairs.json").read_bytes())
        doc["pairs"]["magnitude"] = [None] * len(doc["pairs"]["magnitude"])
        (corpus / "pairs.json").write_bytes(json.dumps(doc).encode())
        out = tmp_path / "eval"
        code, stdout, _ = run(capsys, "eval",
                              "--checkpoint", str(run_dir / "model.json"),
                              "--pairs", str(corpus / "pairs.json"),
                              "--out", str(out))
        assert code == 0
        assert "spearman_rho=" not in stdout
        assert "mean_pos_dist=" in stdout
        summary = (out / "summary.csv").read_text().strip().splitlines()
        assert summary[1].startswith(",")


class TestGradcheck:
    def test_passes_default_threshold(self, capsys):
        code, stdout, _ = run(capsys, "gradcheck", "--instances", "3",
                              "--seed", "11")
        assert code == 0
        err = float(stdout.strip().split("=")[1])
        assert 0.0 <= err < 1e-4

    def test_mlp_variant_passes(self, capsys):
        code, stdout, _ = run(capsys, "gradcheck", "--instances", "3",
                              "--seed", "11", "--variant", "mlp")
        assert code == 0

    def test_unreachable_threshold_fails(self, capsys):
        code, stdout, err = run(capsys, "gradcheck", "--instances", "2",
                                "--seed", "11", "--threshold", "1e-12")
        assert code == 1
        assert "gradient check failed" in err
        assert "max_rel_err=" in stdout

    @pytest.mark.parametrize("threshold", ["nan", "-1", "0"])
    def test_threshold_not_finite_and_positive_is_refused(self, capsys,
                                                          monkeypatch,
                                                          threshold):
        # refused before any instance is drawn
        monkeypatch.setattr("posesim.cli.random_check_instance", None)
        code, stdout, err = run(capsys, "gradcheck", "--threshold", threshold)
        assert code == 1
        assert stdout == ""
        assert err == (f"error: --threshold must be finite and > 0, "
                       f"got {float(threshold)!r}\n")

    def test_nan_instance_error_fails(self, capsys, monkeypatch):
        errs = iter([1e-6, float("nan"), 1e-6])
        monkeypatch.setattr("posesim.cli.gradient_check",
                            lambda *args, **kwargs: next(errs))
        code, stdout, err = run(capsys, "gradcheck", "--instances", "3",
                                "--seed", "11")
        assert code == 1
        assert "max_rel_err=nan" in stdout
        assert "gradient check failed" in err

    def test_instances_validated(self, capsys):
        code, _, err = run(capsys, "gradcheck", "--instances", "0")
        assert code == 1
        assert err == "error: --instances must be an int >= 1, got 0\n"

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_outside_64_bits_named(self, capsys, seed):
        code, stdout, err = run(capsys, "gradcheck", "--seed", seed)
        assert code == 1
        assert f"seed must fit in 64 unsigned bits: an int in [0, 2**64), " \
               f"got {seed}" in err
        assert stdout == ""

    def test_seed_range_checked_before_any_instance(self, capsys, monkeypatch):
        def draw(seed):
            raise AssertionError(f"instance {seed} drawn")

        monkeypatch.setattr("posesim.cli.random_check_instance", draw)
        code, stdout, err = run(capsys, "gradcheck", "--seed",
                                str(2 ** 64 - 1), "--instances", "3")
        assert code == 1
        assert f"seed must fit in 64 unsigned bits: an int in [0, 2**64), " \
               f"got {2 ** 64 + 1}" in err
        assert stdout == ""


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_zero_flag_defaults_are_the_config_defaults(self):
        parse = build_parser().parse_args
        gen = parse(["gen", "--out", "o"])
        assert astuple(SynthConfig()) == (gen.templates, gen.pairs_per_template,
                                          _parse_jitter(gen.jitter), gen.seed)
        tr = parse(["train", "--pairs", "p", "--out", "o"])
        assert astuple(TrainConfig()) == (tr.lr, tr.batch_size, tr.epochs,
                                          tr.margin, tr.seed)
        assert tr.hidden == ArchMeta().gcn_hidden
        assert tr.init_seed == DEFAULT_INIT_SEED
        sc = parse(["score", "--checkpoint", "c", "--poses", "p",
                    "--a", "x", "--b", "y"])
        assert astuple(ScoreParams()) == (sc.sigma, sc.width)

    def test_rejects_unknown_variant(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--pairs", "x", "--out", "y", "--variant", "cnn"])
