"""nilmat benchmark: one seeded, oracle-checked workload per call.

    python3 perfbench/run.py --workload distortion|jennings|nickel \
        --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Every workload runs in fresh worker processes (see
worker.py), one job at a time on one thread; NILMAT_THREADS is removed
from their environment.

--trace 0 prints the end-to-end metrics: jobs_per_s, job_p50_ms,
job_p90_ms, setup_s (median of SETUP_SAMPLES fresh imports plus input
generation) and peak_rss_mb.  The error rate is ``failed / attempted``
of the result line.  --trace 1 runs the same jobs untraced and then
traced, and prints the per-layer metrics and trace.overhead.

The last stdout line is the JSON result; run metadata and the raw
figures go to .perfbench_out/ in the checkout.  Exits 1 without a result
if a worker fails, e.g. when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("distortion", "jennings", "nickel")
SETUP_SAMPLES = 7  # SETUP_SAMPLES - 1 set-up-only workers plus the loop worker
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def run_worker(args, mode, deadline):
    env = dict(os.environ)
    env.pop("NILMAT_THREADS", None)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ] + (["--smoke"] if args.smoke else [])
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(deadline - monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker timed out") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerError(f"{mode} worker printed no result")
    return json.loads(lines[-1])


def jobs_per_s(res):
    return (res["attempted"] - res["failed"]) / res["timed_s"]


def end_to_end(res, setups):
    lat_ms = sorted(1000 * t for t in res["latencies"])
    return {
        "jobs_per_s": (jobs_per_s(res), "1/s"),
        "job_p50_ms": (statistics.median(lat_ms), "ms"),
        "job_p90_ms": (
            statistics.quantiles(lat_ms, n=10, method="inclusive")[-1], "ms"
        ),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def layer_unit(name):
    if name.endswith(".calls"):
        return "calls/job"
    if name.endswith("_s"):
        return "s/job"
    if name.endswith("hit_ratio"):
        return "ratio"
    if name == "cli.bytes":
        return "B/job"
    return "count"


def per_layer(res, base):
    metrics = {
        name: (value, layer_unit(name))
        for name, value in res["per_layer"].items()
    }
    metrics["trace.overhead"] = (jobs_per_s(res) / jobs_per_s(base), "ratio")
    return metrics


def git_commit():
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def metadata(args, workers):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "NILMAT_THREADS": {
            "caller": os.environ.get("NILMAT_THREADS"),
            "workers": [w["nilmat_threads"] for w in workers.values()],
        },
        "runs": {
            mode: {
                "timed_s": res["timed_s"],
                "rounds": len(res["round_sizes"]),
                "jobs": res["attempted"],
                "failed": res["failed"],
                "error_rate": res["failed"] / res["attempted"],
                "jobs_by_kind": res["kinds"],
                "round_sizes": res["round_sizes"],
                "failed_jobs": res["failed_jobs"],
                "latencies_s": res["latencies"],
                **({"spans": res["spans"], "spans_file": res["spans_file"]}
                   if "spans" in res else {}),
            }
            for mode, res in workers.items()
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="three jobs a round, one round: checks the output, not speed",
    )
    args = parser.parse_args(argv)
    deadline = monotonic() + DEADLINE_S

    try:
        if args.trace:
            base = run_worker(args, "plain", deadline)
            traced = run_worker(args, "traced", deadline)
            workers = {"plain": base, "traced": traced}
            metrics = per_layer(traced, base)
        else:
            setups = [
                run_worker(args, "setup", deadline)["setup_s"]
                for _ in range(SETUP_SAMPLES - 1)
            ]
            res = run_worker(args, "plain", deadline)
            setups.append(res["setup_s"])
            workers = {"plain": res}
            metrics = end_to_end(res, setups)
    except (WorkerError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(w["attempted"] for w in workers.values())
    failed = sum(w["failed"] for w in workers.values())
    meta = metadata(args, workers)
    meta["metrics"] = {
        k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)

    for mode, run in meta["runs"].items():
        print(
            f"# {args.workload} {mode}: {run['jobs']} jobs in {run['rounds']} "
            f"rounds, {run['timed_s']:.2f} s timed, error_rate "
            f"{run['error_rate']:.4f} ({run['failed']}/{run['jobs']})"
        )
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"# metadata: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": meta["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
