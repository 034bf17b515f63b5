"""The benchmark's own tests, at smoke size: ``python3 -m pytest bench``.

They check the output contract of ``run.py`` (last line, metric names,
zero failed operations), that it refuses to run without the sources, and
the tracer's self-time arithmetic.  They say nothing about speed.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path("bench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_meets_output_contract(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "protocol", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_direct_children():
    sys.path.insert(0, str(BENCH))
    from tracing import Tracer

    tracer = Tracer()
    with tracer.span("cli.analyze"):
        with tracer.span("analysis.count_dataset"):
            with tracer.span("analysis.count_sub_run"):
                time.sleep(0.02)
            time.sleep(0.01)
    table = tracer.summary()
    outer, mid, inner = (table[n] for n in ("cli.analyze", "analysis.count_dataset",
                                            "analysis.count_sub_run"))
    assert outer["s"] >= mid["s"] >= inner["s"] >= 0.02
    assert mid["self_s"] == pytest.approx(mid["s"] - inner["s"])
    assert outer["self_s"] == pytest.approx(outer["s"] - mid["s"])
    total_self = sum(row["self_s"] for row in table.values())
    assert total_self == pytest.approx(tracer.top_level_s())
