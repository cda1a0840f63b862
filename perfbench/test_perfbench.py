"""Smoke tests of the benchmark: tiny corpora, every workload, both modes.

Run from the repository root:  python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if trace and workload == "tables":
        basis_builds = result["metrics"]["ring_algebra.king_product.basis_builds_per_call"]
        assert basis_builds["value"] == 1.0


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_checks_catch_a_wrong_basis_and_a_wrong_product():
    workload = workloads.Tables(smoke=True)
    inp = next(workload.inputs(3))
    outcome = workload.run(inp)
    assert workload.verify(inp, outcome.output) == []
    labels = inp["labels"]
    elements = [e.entries for e in outcome.output[1]]
    assert workloads.flow_up_problems(labels, elements) == []
    doubled = elements[:2] + [tuple(2 * v for v in elements[2])] + elements[3:]
    assert workloads.flow_up_problems(labels, doubled) == ["element 2: leading entry "
                                                           f"{doubled[2][2]} is not minimal"]
    cell = outcome.output[2][1]  # the product of elements 0 and 1
    projection = workloads.Projection("test", elements)
    product = [a * b for a, b in zip(elements[cell.i], elements[cell.j])]
    assert projection.matches(cell.terms, product)
    wrong = [(k, c + 1) for k, c in cell.terms]
    assert not projection.matches(wrong, product)


def test_cli_check_catches_a_wrong_exit_code():
    workload = workloads.Cli(smoke=True)
    inp = next(workload.inputs(3))
    assert inp["template"] == "verify" and inp["exit"] == 0
    code, stdout = workload.run(inp, in_process=True).output
    assert workload.verify(inp, (code, stdout)) == []
    assert workload.verify(inp, (1, stdout)) != []
    assert workload.verify(inp, (code, stdout.replace("true", "false"))) != []
