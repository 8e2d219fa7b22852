"""Self-tests of the benchmark, on the smoke instances.

    PYTHONPATH=src python3 -m pytest bench -q

They check the harness (metric names and units, repeatable counts, failure
accounting, timeouts), never a timing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from run import key

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> tuple[int, str, dict | None]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, proc.stdout, last


def test_workload_names_match_the_benchmark_file():
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)


def test_every_invocation_has_a_reference():
    refs = json.loads((BENCH / "references.json").read_text())["stdout_sha256"]
    assert [args for args in workloads.all_invocations() if key(args) not in refs] == []


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_end_to_end_metrics_have_names_and_units(workload):
    code, out, result = run_bench("--workload", workload, "--trace", "0")
    assert code == 0, out
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert f"{workload}  fail_ratio = 0.0 1" in out


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_metrics_have_names_and_counts_repeat(workload):
    first = run_bench("--workload", workload, "--trace", "1")
    second = run_bench("--workload", workload, "--trace", "1")
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = []
    for code, out, result in (first, second):
        assert code == 0, out
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        counts.append({k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"
                       or (v["unit"] == "1" and k != "trace.overhead_ratio")})
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] == len(workloads.invocations(workload, smoke=True))


def test_corrupted_reference_drives_fail_ratio_up(tmp_path):
    refs = json.loads((BENCH / "references.json").read_text())
    refs["stdout_sha256"]["series 'H(8)' --route pipeline"] = "0" * 64
    path = tmp_path / "references.json"
    path.write_text(json.dumps(refs))
    code, out, result = run_bench("--workload", "chain", "--references", str(path))
    assert code == 1
    assert result["correct"] is False and 0 < result["failed"] < result["attempted"]
    assert "stdout differs from the reference" in out
    assert "chain  fail_ratio = 0.0 1" not in out


def test_missing_reference_is_a_failure(tmp_path):
    refs = json.loads((BENCH / "references.json").read_text())
    del refs["stdout_sha256"]["witten 'H(8)'"]
    path = tmp_path / "references.json"
    path.write_text(json.dumps(refs))
    code, out, result = run_bench("--workload", "chain", "--references", str(path))
    assert code == 1 and 0 < result["failed"] < result["attempted"]
    assert "no reference; run --record" in out


def test_peak_rss_is_the_childs_own():
    """The benchmark's own peak must not leak into the child's figure."""
    run.OUT.mkdir(exist_ok=True)
    ballast = b"\x01" * (64 << 20)
    child = run.run_child(workloads.SETUP_PROBE, timeout=60)
    assert len(ballast) and child.code == 0
    assert 5 < child.peak_rss_mb < 48


def test_an_exception_in_process_counts_as_a_failure(monkeypatch):
    from blowdown import cli

    def boom(argv):
        raise RuntimeError("invariant broken")

    monkeypatch.setattr(cli, "main", boom)
    checker = run.Checker({}, timeout=1)
    run._in_process_pass([("witten", "H(8)")], None, checker)
    assert (checker.attempted, checker.failed) == (1, 1)
    assert "raised RuntimeError: invariant broken" in next(iter(checker.problems))


def test_timeout_kills_and_counts_the_invocation():
    code, out, result = run_bench("--workload", "exhaustive", "--timeout", "0.001")
    assert code == 1
    assert result["failed"] == result["attempted"]
    assert "timed out" in out


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, out, result = run_bench("--workload", "chain", cwd=tmp_path)
    assert code == 2 and result is None and out == ""
