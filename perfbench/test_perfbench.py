"""Self-tests of the benchmark: its input generator and its output.

    python3 -m pytest perfbench -q

The repository's own test suite collects ``tests/`` only, so these run
when the benchmark is worked on.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from worker import import_nilmat  # noqa: E402

nm = import_nilmat()
import workloads  # noqa: E402


@pytest.mark.parametrize("p,q", [(2, 2), (5, 2), (7, 3), (16, 6)])
@pytest.mark.parametrize("seed", [0, 1])
def test_disguise_conjugates_back_to_the_same_subgroup(p, q, seed):
    rng = random.Random(f"selftest:{seed}")
    n, gens, c = workloads.disguise(p, q, rng)
    ci = workloads.mat_inv(c)
    back = [
        nm.UnitriangularMatrix(workloads.mat_mul(workloads.mat_mul(c, g), ci))
        for g in gens
    ]
    original = nm.distorted_subgroup(p, q)
    assert all(nm.member(g, original) for g in back)
    back_sub = nm.SubgroupGens(n, back)
    assert all(nm.member(g, back_sub) for g in original.generators)


def test_disguise_is_seeded():
    a = workloads.round_inputs("distortion", 7, 2)
    b = workloads.round_inputs("distortion", 7, 2)
    c = workloads.round_inputs("distortion", 8, 2)
    assert a == b
    assert a != c


def declared_metrics(key):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[key]}, spec


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    want, spec = declared_metrics("per_layer" if trace else "end_to_end")
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        workloads.WORKLOADS
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    table = "\n".join(lines[:-1])
    for name, unit in want.items():
        assert f"{name} " in table and unit in table
