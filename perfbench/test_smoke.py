"""Smoke test of the benchmark at tiny trial counts.

Run from the repository root with ``python3 -m pytest perfbench -q``. It
checks that every metric named in BENCHMARK.json prints with its unit, that
the chebyshev+failures consensus path runs, and that two runs of one seed
emit byte-identical CSV and JSON files. The roc workload is left out: its
trial count cannot go below the 200 that its threshold calibration needs.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, *extra: str) -> tuple[dict, str]:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
        "--seconds", "1", "--trace", str(trace), "--trials", "1", *extra,
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1]), done.stdout


def test_metrics_print_with_units():
    for workload in ("ac-compare", "eig-converge"):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result, stdout = bench(workload, trace)
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            for spec in SPEC[group]:
                metric = result["metrics"][spec["name"]]
                assert metric["unit"] == spec["unit"]
                assert f"{spec['name']}: " in stdout
            if trace == 1 and workload == "ac-compare":
                assert result["metrics"]["consensus.fail.redraws"]["value"] > 0
                assert result["metrics"]["consensus.fail.busy_s"]["value"] > 0


def test_two_runs_emit_identical_files():
    kept = ROOT / ".bench_out" / "smoke"
    for run in ("a", "b"):
        bench("ac-compare", 0, "--keep", str(kept / run))
    for name in ("ac-compare.csv", "ac-compare_report.json"):
        assert (kept / "a" / name).read_bytes() == (kept / "b" / name).read_bytes()
