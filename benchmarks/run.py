"""posesim benchmark: one workload per run, end-to-end or traced.

    python3 benchmarks/run.py --workload train --seed 1 --seconds 20 --trace 0

Run from the repository root. The package is imported from ./src. With
--trace 0 the run measures the workload untraced and reports end-to-end
metrics; with --trace 1 it reports per-layer metrics from a traced replica.
Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0
when every output check passed, 1 when one failed and 2 when the run could
not start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# A seed no figure in the benchmark's notes was tuned on; re-check claims
# on it as well as on the seeds they were made with.
UNTUNED_SEED = 9173

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_us", "us"),
    ("op_tail_us", "us"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def import_package():
    """Import posesim from this checkout's src/, and nowhere else."""
    if not (SRC / "posesim" / "__init__.py").is_file():
        print(f"error: no posesim package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import posesim
    if Path(posesim.__file__).resolve().parent != SRC / "posesim":
        print(f"error: imported posesim from {posesim.__file__}",
              file=sys.stderr)
        sys.exit(2)


def host_record(seed: int) -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "seed": seed,
        "untuned_seed": UNTUNED_SEED,
    }


def cold_import() -> None:
    """A fresh interpreter importing the package, as every `posesim`
    command does first."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import posesim"], env=env,
                   cwd=ROOT, check=True)


def set_up(wl, seed, work, sizes, tr, hs):
    """Set the workload up sizes.setup_reps times; returns (ctx, median s).

    Each repetition is a cold package import plus the workload's own input
    preparation in a fresh directory, timed at reference host speed from
    calibration runs just before and after it; the last one's inputs are
    used.
    """
    times = []
    ctx = None
    for rep in range(sizes.setup_reps):
        before = [hs.kernel_seconds() for _ in range(8)]
        t0 = time.perf_counter()
        cold_import()
        ctx = wl.setup(seed, work / f"setup{rep}", sizes, tr)
        elapsed = time.perf_counter() - t0
        after = [hs.kernel_seconds() for _ in range(8)]
        times.append(elapsed * hs.bracket_factor(before, after))
    return ctx, statistics.median(times)


def run_untraced(wl, ctx, seconds, setup_s, hs):
    """Run operations until the next would end past the time budget.

    Each operation is one window: its timing samples leave the sampler's own
    time out and are rescaled by the host speed sampled during it. Outputs
    are checked as they come and then dropped, so memory and the garbage
    collector's work do not grow with the number of operations.
    """
    from measure import summarize
    windows = []
    failures = []
    first = last = None
    ctx.clock = hs.clock
    start = time.perf_counter()
    with hs:
        while True:
            t0 = time.perf_counter()
            r = wl.op(ctx)
            now = time.perf_counter()
            windows.append((r.samples_us, r.busy, r.units, t0, now))
            failures += r.failures
            if first is None:
                first = r.output
            else:
                failures += wl.compare(first, r.output)
            last = r.output
            if (len(windows) >= wl.min_ops
                    and (now - start) + (now - t0) > seconds):
                break
    failures += wl.finish(ctx)
    raw = array("d")
    scaled = array("d")
    busy = 0.0
    units = 0
    for samples, w_busy, w_units, t0, t1 in windows:
        f = hs.factor(t0, t1)
        raw.extend(samples)
        scaled.extend(x * f for x in samples)
        busy += w_busy * f
        units += w_units
    summary = summarize(scaled)
    metrics = {
        "setup_s": setup_s,
        "op_p50_us": summary["p50"],
        "op_tail_us": summary["tail"],
        "ops_per_s": units / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    attempted = (units if wl.name == "score" else len(windows)) \
        + wl.extra_attempts(ctx)
    figures = workload_figures(wl, ctx, last, summary, summarize(raw),
                               metrics, len(windows))
    return metrics, attempted, failures, figures


def workload_figures(wl, ctx, last, summary, raw, metrics, ops) -> dict:
    """The workload's end-to-end figures under their own names, each with
    the raw, unscaled figure beside it."""
    tail = f"p{summary['tail_q']:g}"
    n = summary["n"]
    if wl.name == "train":
        history = last[2]
        return {
            "train_us_per_pair_step": (summary["p50"], "us",
                                       f"median of {n} trainings; raw "
                                       f"{raw['p50']:.6g}"),
            "train_final_loss": (history.mean_loss[-1], "1",
                                 f"first epoch {history.mean_loss[0]!r}"),
        }
    if wl.name == "eval":
        return {
            "eval_pairs_per_s": (metrics["ops_per_s"], "pairs/s",
                                 f"{ctx.n_pairs} pairs x {ops} runs; raw "
                                 f"median {1e6 / raw['p50']:.6g}"),
            "eval_spearman_rho": (last[2].spearman_rho, "1", ""),
        }
    if wl.name == "score":
        return {
            "score_p50_us": (summary["p50"], "us",
                             f"n={n}; raw {raw['p50']:.6g}"),
            f"score_{tail}_us": (summary["tail"], "us",
                                 f"raw {raw['tail']:.6g}"),
            "score_per_s": (metrics["ops_per_s"], "req/s", "one client"),
        }
    return {
        "gradcheck_ms_per_instance": (summary["p50"] / 1e3, "ms",
                                      f"median of {n} passes over "
                                      f"{len(ctx.block)} instances; raw "
                                      f"{raw['p50'] / 1e3:.6g}"),
        "gradcheck_max_rel_err": (ctx.worst, "1", "must stay < 1e-4"),
    }


def run_traced(wl, ctx, seconds, tr, hs):
    from traced import ALTERNATIONS, TraceStats, layer_metrics, run_probes, shares
    stats = TraceStats()
    alternate = ALTERNATIONS[wl.name]
    start = time.perf_counter()
    with hs:
        while True:
            t0 = time.perf_counter()
            alternate(wl, ctx, tr, stats)
            now = time.perf_counter()
            if (now - start) + (now - t0) > seconds:
                break
        run_probes(wl, ctx, tr, stats)
    run_factor = hs.factor(start, time.perf_counter())
    metrics = layer_metrics(wl, ctx, tr, stats, hs.factor, run_factor)
    return metrics, stats, shares(wl, metrics, stats, hs.factor)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "eval", "score", "gradcheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 48:
        parser.error("--seed must be in [0, 2**48)")
    import_package()
    from measure import HostSpeed, Tracer
    from workloads import NULL, WORKLOADS, Sizes

    wl = WORKLOADS[args.workload]
    sizes = Sizes()
    host = host_record(args.seed)
    print("host " + json.dumps(host, sort_keys=True))
    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}; "
          f"one op_* unit is one {wl.unit}")
    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        tr = Tracer() if args.trace else NULL
        hs = HostSpeed()
        ctx, setup_s = set_up(wl, args.seed, work, sizes, tr, hs)
        if args.trace:
            metrics, stats, layer_shares = run_traced(wl, ctx, args.seconds,
                                                      tr, hs)
            attempted, failures = stats.attempted, stats.failures
            detail = {"shares": layer_shares}
            tr.write(OUT / f"spans-{wl.name}.npz")
        else:
            values, attempted, failures, figures = run_untraced(
                wl, ctx, args.seconds, setup_s, hs)
            units = dict(END_TO_END)
            metrics = {k: {"value": v, "unit": units[k]}
                       for k, v in values.items()}
            detail = {"figures": {k: list(v) for k, v in figures.items()}}
            for name, (value, unit, note) in figures.items():
                print(f"  {name:28s} {value!r} {unit}  {note}")
            print(f"  {'error_rate':28s} {len(failures)}/{attempted}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']!r} {m['unit']}")
    if args.trace:
        print("  shares " + json.dumps(detail["shares"]))
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=wl.name, trace=args.trace,
                  seconds=args.seconds, host=host, failures=failures, **detail)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
