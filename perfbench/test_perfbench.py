"""Smoke tests of the benchmark itself: `python3 -m pytest perfbench -q`.

Each runs the benchmark with --smoke (tiny sizes) in a subprocess and checks
the report schema: the exact result keys, every metric named in
BENCHMARK.json with its unit, a correct result, and (through the benchmark's
own checks) nested spans and repeatable counts.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(HERE / "run.py")]


def _run(args, cwd=ROOT):
    return subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_report_schema(workload, trace, tmp_path):
    out = tmp_path / "records.jsonl"
    proc = _run(["--smoke", "--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--out", str(out)])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))

    record = json.loads(out.read_text())
    assert record["workload"] == workload and record["correct"]
    for key in ("git_sha", "python", "numpy", "scipy", "nproc", "blas_threads",
                "l2_bytes", "l3_bytes"):
        assert key in record["env"]
    if not trace:
        # Scaled times are wall times times PROBE_NOMINAL_S over the probe time.
        samples = record["samples"]
        assert len(samples["wall_s"]) == len(samples["probe_s"]) == len(samples["run_s"])
        assert all(p > 0 for p in samples["probe_s"])
    if trace:
        # Seed-independent counts that the sizes fix.
        counts = {k: v["value"] for k, v in result["metrics"].items()}
        assert counts["trace.spans"] > 0
        if workload == "power_sweep":
            assert counts["detectors.calibrations"] == 5
            assert counts["detectors.calibration_useful_ratio"] == pytest.approx(0.2)


def test_compare_marks_regressions(tmp_path):
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"

    def record(run_s, cells):
        return json.dumps({
            "workload": "power_sweep", "correct": True,
            "metrics": {"run_s": {"value": run_s, "unit": "s"},
                        "rng.cells": {"value": cells, "unit": "count"}},
        })

    old.write_text("\n".join(record(v, 100) for v in (1.0, 1.01, 0.99)) + "\n")
    new.write_text("\n".join(record(v, 100) for v in (1.0, 1.02, 0.98)) + "\n")
    same = _run(["--compare", str(old), str(new)])
    assert same.returncode == 0, same.stdout
    new.write_text("\n".join(record(v, c) for v, c in ((1.5, 100), (1.6, 90))) + "\n")
    worse = _run(["--compare", str(old), str(new)])
    assert worse.returncode == 1
    assert "WORSE" in worse.stdout and "UNSTEADY" in worse.stdout


def test_refuses_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "power_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
