"""Runs every workload at toy size, untraced and traced, so the harness cannot rot.

    python -m pytest perfbench
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


@functools.cache
def run_all(trace: int) -> dict[str, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(WORKLOADS)
    return dict(zip(WORKLOADS, results))


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_is_correct_and_reports_every_metric(trace):
    wanted = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    for name, result in run_all(trace).items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, name
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, name
        assert {m: v["unit"] for m, v in result["metrics"].items()} == wanted, name
        if not trace:
            assert all(v["value"] > 0 for v in result["metrics"].values()), name


def test_traced_shapes():
    layers = {name: {m: v["value"] for m, v in r["metrics"].items()} for name, r in run_all(1).items()}
    assert layers["words-zipf"]["trainer.phrase_step_calls"] == 0
    assert layers["phrases-dense"]["trainer.phrase_step_calls"] > 0
    assert layers["words-zipf"]["corpus.parse_passes"] == 3  # vocab, mapping, CLI hash
    assert layers["phrases-dense"]["corpus.parse_passes"] == 4  # plus the phrase vocabulary
    q = layers["query-serve"]
    assert q["evaluation.unit_matrix_calls"] >= q["embeddings_io.neighbors_calls"] > 0


def test_fails_without_the_program(tmp_path):
    """Outside a checkout that holds src/, the benchmark exits non-zero and prints no result."""
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
