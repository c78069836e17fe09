"""Smoke test of the benchmark at tiny sizes.

    python -m pytest perfbench/test_smoke.py

Checks that every metric of BENCHMARK.json is printed with its unit, that a
corrupted output or an unexpected exit code raises the failure count and
makes the run incorrect, and that the benchmark refuses to run without the
package sources.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _tiny(workload: str, trace: bool, corrupt=None):
    return run.run_workload(ROOT, workload, seed=1, seconds=0, trace=trace, tiny=True,
                            corrupt=corrupt)


def _assert_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_benchmark_json_declares_the_measured_metrics():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["perfbench"]
    names = [w["name"] for w in BENCH["workloads"]] + \
        [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCH["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert [w["name"] for w in BENCH["workloads"]] == list(run.workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == run.PER_LAYER


@pytest.mark.parametrize("workload", ["readme", "sampling", "sweep"])
def test_end_to_end_metrics_printed_with_units(workload):
    result, lines = _tiny(workload, trace=False)
    _assert_metrics(result, BENCH["end_to_end"])
    report = "\n".join(lines)
    for m in BENCH["end_to_end"]:
        assert re.search(rf"^{m['name']}\s+\S+ {re.escape(m['unit'])}\s+\(.*n=\d+", report, re.M)
    assert result["correct"]
    # the D=3 nu self-test ends in a traceback at this commit; nothing else fails
    ops = run.workloads.build(workload, 1, tiny=True).ops
    passes = result["attempted"] // len(ops)
    assert result["failed"] == passes * sum(op.kind == "nu" and ".D3." in op.point for op in ops)


def test_per_layer_metrics_printed_with_units():
    result, lines = _tiny("sweep", trace=True)
    _assert_metrics(result, BENCH["per_layer"])
    metrics = result["metrics"]
    assert metrics["cli.main.calls"]["value"] == len(run.workloads.build("sweep", 1, tiny=True).ops)
    assert metrics["oracle.amplitudes"]["value"] > 0
    assert any(line.startswith("trace.overhead_s") for line in lines)


def _corrupt_gate(op, pass_dir):
    if op.kind == "gate":
        path = pass_dir / op.out / "gate_summary.json"
        doc = json.loads(path.read_text())
        doc["distances"] = {n: d * (1 + 1e-6) for n, d in doc["distances"].items()}
        path.write_text(json.dumps(doc))


def _corrupt_born(op, pass_dir):
    if op.kind == "born":
        path = pass_dir / op.out / "born.csv"
        lines = path.read_text().splitlines()
        rows = [line.split(",") for line in lines[3:]]
        rows[0][1], rows[1][1] = rows[1][1], rows[0][1]   # swap the two frequencies
        path.write_text("\n".join(lines[:3] + [",".join(r) for r in rows]) + "\n")


def _corrupt_boundary(op, pass_dir):
    if op.kind == "boundary":
        path = pass_dir / op.out / "boundary_summary.json"
        doc = json.loads(path.read_text())
        doc["tv_sampled"] = [1.0 for _ in doc["tv_sampled"]]   # the two modes never agree
        path.write_text(json.dumps(doc))


@pytest.mark.parametrize("workload, corrupt, kind", [
    ("sweep", _corrupt_gate, "gate"),            # an exact output off by one part in a million
    ("sampling", _corrupt_born, "born"),         # a sampled output far outside its 5 sigma band
    ("sampling", _corrupt_boundary, "boundary"),
])
def test_corrupted_output_raises_fail_frac(workload, corrupt, kind):
    clean, _ = _tiny(workload, trace=False)
    bad, lines = _tiny(workload, trace=False, corrupt=corrupt)
    ops = run.workloads.build(workload, 1, tiny=True).ops
    passes = bad["attempted"] // len(ops)
    assert bad["failed"] == clean["failed"] + passes * sum(op.kind == kind for op in ops)
    assert bad["failed"] / bad["attempted"] > clean["failed"] / clean["attempted"]
    assert not bad["correct"]


def test_unexpected_exit_code_makes_the_run_incorrect(monkeypatch):
    build = run.workloads.build

    def expect_gate_to_fail(workload, seed, tiny=False):
        plan = build(workload, seed, tiny)
        plan.ops = [dataclasses.replace(op, expect=3) if op.kind == "gate" else op for op in plan.ops]
        return plan

    clean, _ = _tiny("sweep", trace=False)
    monkeypatch.setattr(run.workloads, "build", expect_gate_to_fail)
    bad, _ = _tiny("sweep", trace=False)
    ops = build("sweep", 1, tiny=True).ops
    passes = bad["attempted"] // len(ops)
    assert bad["failed"] == clean["failed"] + passes * sum(op.kind == "gate" for op in ops)
    assert clean["correct"] and not bad["correct"]


def test_refuses_to_run_without_sources():
    bare = ROOT / ".bench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(BENCH["command"] + ["--workload", "readme", "--seed", "1",
                                                  "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
