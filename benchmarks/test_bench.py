"""Tests of the benchmark's own code.

    python -m pytest benchmarks -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import traced  # noqa: E402
from measure import HostSpeed, Tracer, self_times, summarize, tail_percentile  # noqa: E402
from workloads import NULL, WORKLOADS, Sizes  # noqa: E402

TINY = Sizes(epochs=2, eval_templates=4, eval_pairs_per_template=4,
             checkpoint_epochs=1, score_chunk=64, check_every=16,
             check_sample=8, identical_checks=2, setup_reps=1, split_every=2,
             probe_calls=4)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class TestTailRule:
    @pytest.mark.parametrize("n, q", [
        (1, 50.0), (19, 50.0), (20, 50.0), (99, 50.0), (100, 90.0),
        (999, 90.0), (1000, 99.0), (10 ** 6, 99.0)])
    def test_highest_ladder_step_with_ten_beyond(self, n, q):
        assert tail_percentile(n) == q
        if n >= 20:
            assert n * (100 - q) >= 1000

    def test_summary_uses_the_rule(self):
        values = list(range(1, 101))            # p90 by the rule
        s = summarize(values)
        assert s["n"] == 100 and s["tail_q"] == 90.0
        assert s["p50"] == 50.5
        assert s["tail"] == pytest.approx(np.percentile(values, 90))
        few = summarize([3.0, 1.0, 2.0])    # no tail in so few samples
        assert few["tail_q"] == 50.0 and few["tail"] == few["p50"] == 2.0


class TestSelfTime:
    def test_nested_overlapping_and_clipped_children(self):
        # 0 root [0, 10]; 1 child [1, 4] with grandchild 3 [2, 3];
        # 2 child [3, 6] overlapping 1; 4 child [8, 12] running past root
        start = [0.0, 1.0, 3.0, 2.0, 8.0]
        end = [10.0, 4.0, 6.0, 3.0, 12.0]
        parent = [-1, 0, 0, 1, 0]
        got = self_times(start, end, parent)
        # root covered by [1, 6] and [8, 10]
        np.testing.assert_allclose(got, [3.0, 2.0, 3.0, 1.0, 4.0])

    def test_tracer_records_parents_and_self_time(self):
        tr = Tracer()
        root = tr.begin("root")
        tr.call("leaf", sum, [1, 2])
        inner = tr.begin("inner")
        tr.call("leaf", sum, [3])
        tr.end_span(inner)
        tr.end_span(root)
        _, start, end, parent = tr.arrays()
        assert parent.tolist() == [-1, 0, 0, 2]
        selfs = tr.per_name("root", self_time=True)
        children = (end[1] - start[1]) + (end[2] - start[2])
        assert selfs[0] == pytest.approx(end[0] - start[0] - children)
        assert tr.per_name("leaf").size == 2

    def test_spans_must_close_innermost_first(self):
        tr = Tracer()
        outer = tr.begin("outer")
        tr.begin("inner")
        with pytest.raises(RuntimeError):
            tr.end_span(outer)


def _setup(name, tmp_path, tr=NULL):
    ctx, setup_s = run.set_up(WORKLOADS[name], 3, tmp_path, TINY, tr,
                              HostSpeed())
    assert setup_s > 0
    return WORKLOADS[name], ctx, setup_s


class TestBackwardSelf:
    def test_derived_from_pair_backward_minus_its_split(self, tmp_path):
        tr = Tracer()
        wl, ctx, _ = _setup("train", tmp_path, tr)
        stats = traced.TraceStats()
        traced.alternate_train(wl, ctx, tr, stats)
        assert not stats.failures
        ids, start, end, parent = tr.arrays()
        dur = end - start
        backward = np.flatnonzero(ids == tr.names.index("training.pair_backward"))
        derived = []
        for i in np.flatnonzero(ids == tr.names.index("split")):
            pb = backward[backward < i].max()     # the same pair-step
            kids = np.flatnonzero(parent == i)
            derived.append(1e6 * (dur[pb] - sum(dur[kids])))
        # only pair-steps with a nonzero loss run the backward pass, so the
        # recorded values are those of a subsequence of the split steps
        rest = iter(derived)
        assert stats.backward_self_us
        for value in stats.backward_self_us:
            assert any(value == pytest.approx(x, rel=1e-9) for x in rest)
        traced.run_probes(wl, ctx, tr, stats)
        metrics = traced.layer_metrics(wl, ctx, tr, stats, lambda a, b: 1.0,
                                       2.0)
        assert metrics["training.backward_self_us"]["value"] == \
            pytest.approx(2.0 * np.mean(stats.backward_self_us))


@pytest.mark.parametrize("name", ["train", "eval", "score", "gradcheck"])
class TestSmoke:
    def test_untraced_run_passes_every_check(self, name, tmp_path):
        wl, ctx, setup_s = _setup(name, tmp_path)
        metrics, attempted, failures, figures = run.run_untraced(
            wl, ctx, 0.0, setup_s, HostSpeed())
        assert failures == []
        assert attempted >= wl.min_ops
        assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
        assert all(math.isfinite(v) and v > 0 for v in metrics.values())
        assert figures

    def test_traced_run_matches_and_reports_every_layer(self, name, tmp_path):
        tr = Tracer()
        wl, ctx, _ = _setup(name, tmp_path, tr)
        metrics, stats, layer_shares = run.run_traced(wl, ctx, 0.0, tr,
                                                      HostSpeed())
        assert stats.failures == []
        assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
        assert all(math.isfinite(m["value"]) for m in metrics.values())
        assert layer_shares["unit_us"] > 0
        tr.write(tmp_path / "spans.npz")
        with np.load(tmp_path / "spans.npz") as spans:
            assert spans["start"].size == len(tr.start)


class TestChecksFire:
    def test_repeat_mismatch_is_a_failure(self):
        for name in ("train", "eval"):
            assert WORKLOADS[name].compare((b"a", b"b", None),
                                           (b"a", b"c", None))
            assert not WORKLOADS[name].compare((b"a", b"b", None),
                                               (b"a", b"b", 1))

    def test_score_sample_must_match_evaluate(self, tmp_path):
        wl, ctx, _ = _setup("score", tmp_path)
        wl.op(ctx)
        assert wl.finish(ctx) == []
        a, b, d, s = ctx.kept[0]
        ctx.kept[0] = (a, b, d, math.nextafter(s, 0.0))
        assert len(wl.finish(ctx)) == 1


def test_exits_nonzero_without_the_package(tmp_path):
    """Holding only BENCHMARK.json and the benchmark, it prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "score",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
