"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is emitted in both modes,
that a planted wrong expectation shows up in the failure counts, and
that the command fails without printing a result when the package is
not next to it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from common import expect  # noqa: E402

SPEC = run.load_spec()


def _names(kind):
    return [m["name"] for m in SPEC[kind]]


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted(workload, trace):
    result, notes = run.run(workload, seed=3, seconds=0.01, trace=trace, small=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == _names("per_layer" if trace else "end_to_end")
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], notes
    if workload != "long_streams" and not trace:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0
    for line in notes:
        if line.startswith("known defect"):
            assert line.startswith("known defect probe/"), line


def test_known_defects_count_in_ok_ratio():
    result, notes = run.run("long_streams", seed=3, seconds=0.01, trace=0, small=True)
    named = [line for line in notes if line.startswith("known defect")]
    ok = result["metrics"]["ok_ratio"]["value"]
    jobs = result["attempted"]
    assert ok == pytest.approx(1 - len(named) / jobs)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_planted_wrong_expectation_counts_as_failure(workload):
    def plant(jobs):
        victim = next(j for j in jobs if not j.defect)
        victim.check = expect("an outcome no job produces")

    base, _ = run.run(workload, seed=3, seconds=0.01, trace=0, small=True)
    result, notes = run.run(workload, seed=3, seconds=0.01, trace=0, small=True, plant=plant)
    assert result["failed"] >= 1 and not result["correct"]
    assert result["metrics"]["ok_ratio"]["value"] < base["metrics"]["ok_ratio"]["value"]
    assert any(line.startswith("FAILED") for line in notes)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    got = subprocess.run(
        SPEC["command"] + ["--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert got.returncode != 0
    for line in got.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
