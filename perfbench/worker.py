"""One workload run in a fresh process: set-up, then a closed loop.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|plain|traced

Set-up is ``import nilmat`` plus generating the first round's inputs.
``setup`` mode stops there.  The other modes run whole rounds, one job
at a time on one thread, until the jobs have taken ``--seconds`` of wall
time and at least MIN_JOBS jobs in RSS_ROUNDS rounds ran.  Later rounds
are generated between jobs, outside the timed region.  The last stdout
line is a JSON object with the raw results; ``run.py`` turns it into
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from collections import Counter
from time import perf_counter

from tracer import LAYERS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
MIN_JOBS = 100  # so that at least ten jobs lie beyond p90
# Peak RSS is read after this many rounds, a fixed amount of work, so
# that caches filled by extra rounds on a faster machine do not count.
RSS_ROUNDS = 3
SMOKE_JOBS = 3  # --smoke: jobs kept of each round, for the self-test
LOOP_CAP_S = 75.0  # stop starting rounds after this much loop wall time

# per-layer counts and times reported per job, from the traced spans
PER_JOB_OPS = (
    "distortion.standardize",
    "distortion.depth",
    "distortion.member",
    "matgroup.inverse",
    "matgroup.log",
    "matgroup.ratmat",
    "matgroup.mul",
    "presentation.collect",
    "jennings.element_matrix",
    "nickel.act",
)
SELF_ONLY_OPS = (
    "presentation.relators",
    "jennings.basis",
    "nickel.function_module",
    "nickel.orderings",
    "cli.json",
)
# operation -> (metric, function of the result giving (numerator, denominator))
RATIOS = {
    "distortion.standardize": ("distortion.slots", lambda seq: (len(seq), 1)),
    "jennings.embedding": ("jennings.dim", lambda emb: (emb.d, 1)),
    "nickel.function_module": (
        "nickel.module_dim", lambda module: (module.dimension, 1)
    ),
    "nickel.orderings": (
        "nickel.orderings.hit_ratio",
        lambda records: (sum(1 for r in records if r["unitriangular"]),
                         len(records)),
    ),
}


def import_nilmat():
    """Import the package from this checkout's sources, never from an
    installed copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import nilmat

    if not os.path.abspath(nilmat.__file__).startswith(src + os.sep):
        raise ImportError(f"nilmat imported from {nilmat.__file__}, not {src}")
    return nilmat


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, walls, windows, counters, cache):
    """Per-layer metrics of a traced loop, per job where it is a count
    or a time.  Checks that spans nest inside their parents and jobs,
    so that layer self times plus the time outside every span add up to
    the traced job wall time."""
    starts, ends = tracer.start_col, tracer.end_col
    for span, parent in enumerate(tracer.parent_col):
        lo, hi = (
            (starts[parent], ends[parent]) if parent >= 0
            else windows[tracer.job_col[span]]
        )
        if not (lo <= starts[span] <= ends[span] <= hi):
            raise RuntimeError(f"span {span} is not inside its parent")
    ops, outside = tracer.summary(walls)
    jobs = len(walls)
    metrics = {}
    for op in PER_JOB_OPS:
        calls, self_s = ops.get(op, (0, 0.0))
        metrics[f"{op}.calls"] = calls / jobs
        metrics[f"{op}.self_s"] = self_s / jobs
    for op in SELF_ONLY_OPS:
        metrics[f"{op}.self_s"] = ops.get(op, (0, 0.0))[1] / jobs
    for op, (name, _) in RATIOS.items():
        metrics[name] = ratio(*tracer.ratios.get(op, (0, 0)))
    metrics["distortion.standardize.hit_ratio"] = ratio(
        cache["hits"], cache["hits"] + cache["misses"]
    )
    metrics["cli.bytes"] = counters["cli.bytes"] / jobs
    accounted = sum(outside)
    for layer in LAYERS:
        layer_s = sum(s for op, (_, s) in ops.items()
                      if op.split(".")[0] == layer)
        metrics[f"layer.{layer}.self_s"] = layer_s / jobs
        accounted += layer_s
    metrics["trace.residual_s"] = sum(outside) / jobs
    wall = sum(walls)
    if abs(accounted - wall) > 1e-6 * max(wall, 1.0):
        raise RuntimeError(
            f"layer self times plus residual {accounted} != job wall {wall}"
        )
    return metrics


def run_loop(args, workloads, first_round, tracer, cache_info):
    _, run, check = workloads.WORKLOADS[args.workload]
    latencies, windows, failed_jobs, round_sizes = [], [], [], []
    kinds = Counter()
    counters = Counter()
    cache = Counter()
    min_jobs, rss_rounds = (1, 1) if args.smoke else (MIN_JOBS, RSS_ROUNDS)
    jobs = first_round
    timed = 0.0
    peak_rss = None
    loop_start = perf_counter()
    while True:
        for kind, arg in jobs:
            index = len(latencies)
            if tracer is not None:
                before = cache_info()
                tracer.job = index
            start = perf_counter()
            try:
                result = run(arg, counters)
                error = None
            except Exception:
                error = traceback.format_exc()
            end = perf_counter()
            if tracer is not None:
                tracer.job = -1
                after = cache_info()
                cache["hits"] += after.hits - before.hits
                cache["misses"] += after.misses - before.misses
            latencies.append(end - start)
            windows.append((start, end))
            timed += end - start
            kinds[kind] += 1
            if error is None:
                try:
                    check(arg, result)
                except Exception:
                    error = traceback.format_exc()
            if error is not None:
                failed_jobs.append(index)
                print(
                    f"FAILED job: workload={args.workload} seed={args.seed} "
                    f"index={index} kind={kind}\n{error}",
                    file=sys.stderr,
                )
        round_sizes.append(len(jobs))
        if len(round_sizes) == rss_rounds:
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if (
            timed >= args.seconds
            and len(latencies) >= min_jobs
            and len(round_sizes) >= rss_rounds
        ):
            break
        if perf_counter() - loop_start > LOOP_CAP_S:
            peak_rss = peak_rss or resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss
            break
        jobs = round_inputs(workloads, args, len(round_sizes))
    out = {
        "attempted": len(latencies),
        "failed": len(failed_jobs),
        "failed_jobs": failed_jobs,
        "timed_s": timed,
        "round_sizes": round_sizes,
        "kinds": dict(sorted(kinds.items())),
        "latencies": latencies,
        "peak_rss_mb": peak_rss / 1024,
    }
    if tracer is not None:
        out["per_layer"] = layer_metrics(
            tracer, latencies, windows, counters, cache
        )
        out["spans"] = len(tracer.op_col)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        )
        tracer.write(path)
        out["spans_file"] = os.path.relpath(path, ROOT)
    return out


def round_inputs(workloads, args, r):
    jobs = workloads.round_inputs(args.workload, args.seed, r)
    return jobs[:SMOKE_JOBS] if args.smoke else jobs


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument(
        "--mode", choices=("setup", "plain", "traced"), required=True
    )
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    start = perf_counter()
    nilmat = import_nilmat()
    import workloads

    first_round = round_inputs(workloads, args, 0)
    out = {
        "setup_s": perf_counter() - start,
        "nilmat_threads": os.environ.get("NILMAT_THREADS"),
    }
    if args.mode != "setup":
        tracer = None
        cache_info = nilmat.standardize.cache_info
        if args.mode == "traced":
            tracer = Tracer()
            tracer.install({op: fn for op, (_, fn) in RATIOS.items()})
        out.update(
            run_loop(args, workloads, first_round, tracer, cache_info)
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
