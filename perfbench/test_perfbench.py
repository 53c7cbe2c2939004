"""Tests of the benchmark itself (run from the root of a checkout):

    python3 -m pytest perfbench/test_perfbench.py -q

They check that every metric of BENCHMARK.json is printed with its unit,
that the traced counters repeat exactly between two traced runs with the
same seed, and that bad arguments are usage errors.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNTER_SUFFIXES = (
    ".calls",
    ".terms_out",
    ".cells",
    ".nullity",
    ".kernel_dim",
    ".rank_per_candidate",
    ".truncated_results",
)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def _result(workload: str, seed: int, trace: int) -> dict:
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def _units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_end_to_end_metrics_printed_with_units():
    result = _result("suite", 7, 0)
    assert _units(result) == {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["fock-dual-route", "character-route", "suite"])
def test_traced_counters_repeat(workload):
    first = _result(workload, 11, 1)
    second = _result(workload, 11, 1)
    assert _units(first) == {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    counters = [n for n in first["metrics"] if n.endswith(COUNTER_SUFFIXES)]
    assert {s for s in COUNTER_SUFFIXES if any(n.endswith(s) for n in counters)} == set(
        COUNTER_SUFFIXES
    )
    for name in counters:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize(
    "args",
    [
        ["--workload", "nonsense", "--seed", "1", "--seconds", "1", "--trace", "0"],
        ["--workload", "suite", "--seed", "x1", "--seconds", "1", "--trace", "0"],
    ],
)
def test_bad_arguments_exit_2_with_one_line(args):
    proc = _run(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1


def test_checkout_without_program_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "suite", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
