"""recdro benchmark: one workload in one process, end to end or traced.

    python3 perfbench/run.py --workload sl-narrow --seed 0 --seconds 40 --trace 0

Inputs come from ``--seed``. Workload iterations run until the next one
would overrun ``--seconds`` (at least one), each preceded by SETUP_REPS
Dataset builds (the set-up); every iteration's outputs are checked. ``--trace 0`` prints the end-to-end metrics, measured
with spans only around the public entry points. ``--trace 1`` first runs one
such iteration as the untraced reference, then traced iterations with a span
at every layer boundary, and prints the per-layer metrics plus the tracing
overhead. The last line of stdout is the result as one JSON object; the
lines above it are the human-readable report. Everything the run writes
goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 3
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Spans whose self time, spans whose call count, and counters that the
#: traced run reports per iteration; README.md maps each to the end-to-end
#: metric and workload it should move.
LAYER_SPANS = ("sampling.sample_negatives", "losses", "model.sampled_batch_grads",
               "model.inbatch_batch_grads", "model.AdamState.apply", "model.train",
               "model.score_all_items", "evaluate.rank_items", "evaluate.evaluate",
               "model.save_checkpoint", "cli.main")
LAYER_CALLS = ("sampling.sample_negatives", "losses", "model.sampled_batch_grads",
               "model.inbatch_batch_grads", "model.score_all_items", "evaluate.rank_items")
LAYER_COUNTS = {"sampling.draws": "count", "model.adam_rows": "count",
                "model.score_all_items.bytes_computed": "B",
                "model.save_checkpoint.bytes": "B"}


@dataclass
class Measurements:
    """What one run recorded; ``lengths`` are iteration times with checks."""

    setup_s: list = field(default_factory=list)
    setup_ids: list = field(default_factory=list)
    iterations: list = field(default_factory=list)
    lengths: list = field(default_factory=list)
    run_ids: set = field(default_factory=set)
    reference: object = None
    peak_rss_mb: float | None = None


def pin_blas_threads() -> int:
    """Run BLAS on one thread; must happen before numpy loads.

    On a machine of two shared vCPUs, a two-thread BLAS call waits for the
    slower vCPU at every synchronisation, so time stolen from the other vCPU
    halves GEMM throughput for minutes at a time; one thread keeps the
    workloads' run-to-run spread within their bounds.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def blas_runtime_threads() -> int | None:
    """Ask the loaded OpenBLAS for its thread count, if it is OpenBLAS."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        l2 = (Path("/sys/devices/system/cpu/cpu0/cache/index2/size")
              .read_text(encoding="utf-8").strip())
    except OSError:
        l2 = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "blas_threads_requested": threads, "blas_threads": blas_runtime_threads(),
            "l2": l2, "machine": platform.machine()}


def describe(samples) -> dict:
    """Median and the highest percentile with at least ten samples beyond it
    (the sorted samples go to the results file, not to stdout)."""
    samples = sorted(samples)
    n = len(samples)
    out = {"n": n, "median": statistics.median(samples) if n else None, "samples": samples}
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = samples[min(n - 1, int(p / 100 * n))]
            break
    return out


def median(samples) -> float:
    samples = list(samples)
    return statistics.median(samples) if samples else math.nan


def spans_of(tracer, run_ids):
    return [s for s in tracer.spans if s[5] in run_ids]


def end_to_end(tracer, m: Measurements) -> tuple[dict, dict]:
    """Metric values plus the per-sample timing summaries behind them."""
    spans = spans_of(tracer, m.run_ids)
    duration = {s[0]: s[4] - s[3] for s in spans}
    eval_rates = [work / duration[sid] for sid, _, name, _, _, _, work in spans
                  if name == "evaluate.evaluate"]
    train_rates = []
    for sid, _, name, _, _, _, work in spans:
        if name == "model.train":
            # periodic evaluation inside `recdro train` is not training time
            inner = sum(duration[s[0]] for s in spans
                        if s[1] == sid and s[2] == "evaluate.evaluate")
            train_rates.append(work / (duration[sid] - inner))
    walls = [o.wall_s for o in m.iterations]
    values = {
        "train_pairs_per_s": (median(train_rates), "pairs/s"),
        "eval_users_per_s": (median(eval_rates), "users/s"),
        "wall_s": (median(walls), "s"),
        "setup_s": (median(m.setup_s), "s"),
        "peak_rss_mb": (m.peak_rss_mb, "MiB"),
    }
    timings = {"wall_s": describe(walls), "setup_s": describe(m.setup_s),
               "train_pairs_per_s": describe(train_rates),
               "eval_users_per_s": describe(eval_rates)}
    return values, timings


def per_layer(tracer, m: Measurements) -> tuple[dict, dict]:
    self_s = tracer.self_times()
    n = len(m.iterations)
    spans = spans_of(tracer, m.run_ids)
    totals, calls, samples = {}, {}, {}
    for sid, _, name, *_ in spans:
        totals[name] = totals.get(name, 0.0) + self_s[sid]
        calls[name] = calls.get(name, 0) + 1
        samples.setdefault(name, []).append(self_s[sid])
    counts: dict[str, float] = {}
    for rid in m.run_ids:
        for key, value in tracer.counters[rid].items():
            counts[key] = counts.get(key, 0.0) + value
    values = {}
    for name in LAYER_SPANS:
        values[f"{name}.self_s"] = (totals.get(name, 0.0) / n, "s")
    for name in LAYER_CALLS:
        values[f"{name}.calls"] = (calls.get(name, 0) / n, "count")
    for key, unit in LAYER_COUNTS.items():
        values[key] = (counts.get(key, 0.0) / n, unit)
    draws = counts.get("sampling.draws", 0.0)
    values["sampling.false_negative_share"] = (
        counts.get("sampling.false_negatives", 0.0) / draws if draws else 0.0, "share")
    batches = calls.get("model.sampled_batch_grads", 0)
    values["model.unique_items_per_batch"] = (
        counts.get("model.unique_items", 0.0) / batches if batches else 0.0, "count")
    builds = dict.fromkeys(m.setup_ids, 0.0)
    for sid, _, name, _, _, rid, _ in tracer.spans:
        if name == "data.dataset_build" and rid in builds:
            builds[rid] += self_s[sid]
    values["data.dataset_build.self_s"] = (median(builds.values()), "s")
    walls = [o.wall_s for o in m.iterations]
    values["trace.overhead_s"] = (median(walls) - m.reference.wall_s, "s")
    timings = {f"{name}.self_s per call": describe(samples[name]) for name in samples}
    for summary in timings.values():
        del summary["samples"]  # the spans file already holds every call
    timings["traced wall_s"] = describe(walls)
    timings["untraced reference wall_s"] = describe([m.reference.wall_s])
    return values, timings


def measure(args, workload, tracer, workdir):
    """Run set-up and iterations; returns what the metrics are derived from.

    Set-up rounds of SETUP_REPS builds precede every iteration, so that its
    samples spread over the whole run like the iterations' do.
    """
    from tracer import ENTRY, LAYER, Instrumentation

    level = LAYER if args.trace else ENTRY
    inputs = workload.make_inputs(args.seed, workdir)
    m = Measurements()
    deadline = None
    while True:
        with Instrumentation(tracer, level):
            for _ in range(SETUP_REPS):
                tracer.run_id = f"setup.{len(m.setup_s)}"
                m.setup_ids.append(tracer.run_id)
                start = perf_counter()
                ds = workload.build(inputs)
                m.setup_s.append(perf_counter() - start)
        if deadline is None:
            deadline = perf_counter() + args.seconds
            if args.trace:
                tracer.run_id = "reference"
                m.reference = workload.iterate(ds, -1, lambda: Instrumentation(tracer, ENTRY))
        tracer.run_id = f"iter.{len(m.iterations)}"
        m.run_ids.add(tracer.run_id)
        start = perf_counter()
        m.iterations.append(workload.iterate(ds, len(m.iterations),
                                             lambda: Instrumentation(tracer, level)))
        m.lengths.append(perf_counter() - start)
        if m.peak_rss_mb is None:
            # later iterations reuse freed memory unevenly; the first one is
            # what a single train-and-evaluate costs
            m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if perf_counter() + median(m.lengths) > deadline:
            return m


def main(argv=None) -> int:
    threads = pin_blas_threads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the benchmark's own smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "recdro" / "__init__.py").is_file():
        print(f"error: no recdro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import recdro

    if Path(recdro.__file__).resolve().parent != SRC / "recdro":
        print(f"error: imported recdro from {recdro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from tracer import Tracer
    from workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    env = environment(threads)
    tracer = Tracer()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        m = measure(args, make_workload(args.workload, args.toy), tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values, timings = per_layer(tracer, m)
        tracer.write(OUT / f"{tag}.spans.jsonl")
    else:
        values, timings = end_to_end(tracer, m)
    checked = m.iterations + ([m.reference] if m.reference else [])
    for outcome in checked:
        # the same inputs must give bit-identical outputs, traced or not
        if outcome.fingerprint != checked[0].fingerprint:
            outcome.failed = outcome.attempted
    attempted = sum(o.attempted for o in checked)
    failed = sum(o.failed for o in checked)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "iterations": len(m.iterations), "env": env,
        "fingerprint": checked[0].fingerprint, "failed_share": failed / attempted,
        "ndcg_at_20": median(o.ndcg_at_20 for o in m.iterations), "timings": timings,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                          for k, (v, u) in values.items()}}
    (OUT / f"{tag}.json").write_text(json.dumps(dict(report, result=result), indent=2) + "\n",
                                     encoding="utf-8")
    for key in ("workload", "seed", "iterations", "env", "fingerprint", "failed_share",
                "ndcg_at_20"):
        print(f"{key}: {json.dumps(report[key])}")
    for name, summary in timings.items():
        shown = {k: v for k, v in summary.items() if k != "samples"}
        print(f"timing {name}: {json.dumps(shown)}")
    for name, (value, unit) in values.items():
        print(f"metric {name} = {value!r} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
