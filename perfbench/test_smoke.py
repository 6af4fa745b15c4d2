"""Smoke test of the benchmark harness on its tiny ``smoke`` workload.

Run with ``python3 -m pytest perfbench/test_smoke.py``.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "smoke",
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_untraced_run_reports_every_end_to_end_metric_with_its_unit():
    result = _run(0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    got = {name: value["unit"] for name, value in result["metrics"].items()}
    assert got == expected
    assert all(value["value"] > 0 for value in result["metrics"].values())


def test_traced_run_reports_every_layer_metric_and_its_spans_link_up():
    result = _run(1)
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["error_rate"]["value"] == 0
    expected = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {name: value["unit"] for name, value in result["metrics"].items()} == expected

    path = os.path.join(ROOT, ".perfbench_work", f"spans-smoke-s{SEED}.jsonl")
    with open(path, encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    ids = {span["id"] for span in spans}
    assert len(ids) == len(spans)
    assert len({span["run"] for span in spans}) == 1
    for span in spans:
        assert span["parent"] is None or span["parent"] in ids
        assert span["end"] >= span["start"]
    assert {span["phase"] for span in spans} == {"setup", "cli", "replay", "probe"}
