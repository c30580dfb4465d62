"""Self-test of the benchmark at tiny size.

    python3 -m pytest bench/test_bench.py

Every workload runs one round in tiny mode, traced and untraced, with the
same output checks as a full run. Not part of the repository's test suite.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

KNOWN_FAULTS = {"bv-range": 0, "algebra": 0, "counterexample-1e7": 1}


def bench(*args, root=ROOT):
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args], cwd=root,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_round(workload, trace, tmp_path):
    out = bench("--workload", workload, "--seed", "7", "--seconds", "0",
                "--trace", trace, "--size", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stderr
    w = workloads.WORKLOADS[workload](workloads.SIZES["tiny"][workload], 7, tmp_path)
    assert result["attempted"] == run.SETUP_REPEATS + len(w.ops())
    assert result["failed"] == KNOWN_FAULTS[workload], out.stderr
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected


def test_benchmark_json_lists_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_tracing_keeps_output_bytes(tmp_path):
    argv = ["bv-sum", "--f", workloads.MOEBIUS, "--x", "3000", "--Q", "40",
            "--xi", workloads.XI, "--threads", "2"]
    env = run.child_env()
    for name, extra in (("plain.csv", []), ("traced.csv", ["--trace-out", "t.jsonl"])):
        subprocess.run([sys.executable, str(run.RUNNER), *extra, "--", *argv, "--out", name],
                       cwd=tmp_path, env=env, check=True, capture_output=True, timeout=60)
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "traced.csv").read_bytes()
    recorded, counts, _cost = spans.read(tmp_path / "t.jsonl")
    by_id = {s["id"]: s for s in recorded}
    buckets = [s for s in recorded if s["name"] == "discrepancy.residue_buckets"]
    assert len(buckets) == 40
    # pool threads report to the bv_sum span that submitted their chunk
    assert {by_id[s["parent"]]["name"] for s in buckets} == {"discrepancy.bv_sum"}
    assert counts["characters.induce"] > 0


def test_self_time_subtracts_the_union_of_children():
    assert spans.covered([(1, 3), (2, 4), (6, 7), (9, 12)], 0, 10) == 5
    recorded = [
        {"id": 1, "name": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "name": "b", "parent": 1, "start": 1.0, "end": 5.0},
        {"id": 3, "name": "b", "parent": 1, "start": 4.0, "end": 6.0},
    ]
    figures = spans.layer_figures(recorded, {"c": 7})
    assert figures["a.self_s"] == 5.0 and figures["b.self_s"] == 6.0
    assert figures["b.calls"] == 2 and figures["c.calls"] == 7


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "bv-range", "--seed", "1", "--seconds", "1", "--trace", "0",
                root=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
