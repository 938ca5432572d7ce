"""Smoke test of the benchmark itself.

Runs every workload at its smallest size (--seconds 1, so one job) in
both modes and checks the result line against the schema BENCHMARK.json
fixes; and checks that a directory holding only the benchmark fails
without printing a result.  About two minutes:

    python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_matches_schema(workload: str, trace: int) -> None:
    out = run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert type(result["attempted"]) is int and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"]
        value = entry["value"]
        assert type(value) in (int, float) and math.isfinite(value), metric["name"]
        if not trace:
            assert value > 0, metric["name"]
    if trace:
        # Every layer the workload should reach was found and called.
        assert result["metrics"]["trace.missing_names"]["value"] == 0
        assert result["metrics"]["trace.uncalled_expected"]["value"] == 0


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
