"""Self-test of the benchmark on tiny shapes (a few seconds in all).

Run from the repository root:  python -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("sweep-64x100", "vocab-16k", "wide-512x2000", "gm-table4")


def bench(workload, trace, seed=3, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=120, check=False)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(trace):
    spec = declared()
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    for workload in (w["name"] for w in spec["workloads"]):
        info, result = parse(bench(workload, trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], info["problems"]
        assert result["attempted"] >= 1
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == wanted, workload
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_runs_agree(workload):
    untraced, _ = parse(bench(workload, 0, seed=5))
    traced, result = parse(bench(workload, 1, seed=5))
    assert untraced["digest"] == traced["digest"]
    assert untraced["quality"] == traced["quality"]
    assert result["correct"], traced["problems"]
    assert 0.9 <= result["metrics"]["trace.coverage"]["value"] <= 1.0 + 1e-9
    assert os.path.exists(os.path.join(ROOT, traced["spans"]))


def test_degenerate_update_is_counted_not_fatal():
    # the tiny sweep holds one all-zero update, on which rlg must fail
    info, result = parse(bench("sweep-64x100", 0))
    assert result["correct"], info["problems"]
    assert result["failed"] >= 1
    assert info["quality"]["failed_share"] > 0.0
    assert any(e.startswith("zero/batch/rlg: DegenerateUpdateError") for e in info["errors"])
    assert info["quality"]["recall_min"] == 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("sweep-64x100", 0, cwd=tmp_path,
                 script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
