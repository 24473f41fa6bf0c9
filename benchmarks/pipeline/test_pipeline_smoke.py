"""Smoke test of the pipeline benchmark.

Runs every workload with ``--quick`` (one set-up, one pass) twice with
the same seed, end to end and traced, and checks that the printed
metrics are exactly those ``BENCHMARK.json`` declares and that the
deterministic counters repeat.  Run with::

    PYTHONPATH=src:. python -m pytest benchmarks/pipeline -q
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

from benchmarks.pipeline.compare import DETERMINISTIC, verdict
from benchmarks.pipeline.spans import Span, self_times
from benchmarks.pipeline.workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    assert done.returncode == 0, done.stdout
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def test_declared_workloads_are_the_implemented_ones():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_metrics_and_counters(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        first, second = _run(workload, trace), _run(workload, trace)
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        for result in (first, second):
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == declared
        if trace:
            for name in DETERMINISTIC:
                assert (first["metrics"][name]["value"]
                        == second["metrics"][name]["value"]), name


def test_self_time_on_a_hand_built_tree():
    spans = [
        Span(1, None, 1, "request", 0, 100),
        Span(2, 1, 1, "translate", 10, 40),
        Span(3, 2, 1, "translate.enf", 12, 20),
        Span(4, 2, 1, "translate.compile", 18, 30),   # overlaps enf
        Span(5, 1, 1, "execute.drain", 35, 120),      # overruns its parent
        Span(6, None, 2, "data.fingerprint", 200, 205),
    ]
    assert self_times(spans) == {
        1: 100 - (30 + 60),       # children cover [10, 100)
        2: 30 - 18,               # [12, 30) covered once
        3: 8,
        4: 12,
        5: 85,
        6: 5,
    }


def test_compare_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0]
    assert verdict(base, [10.1, 9.9, 10.2, 10.0, 10.0], "lower", 0.1) == "within bound"
    assert verdict(base, [8.0, 8.1, 7.9, 8.2, 8.0], "lower", 0.1) == "improved"
    assert verdict(base, [12.0, 12.1, 11.9, 12.2, 12.0], "lower", 0.1) == "regressed"
    assert verdict([10, 14, 9, 12, 10], [10, 13, 9, 8, 11], "lower", 0.1) == "unresolved"
    assert verdict([100, 101], [120, 121], "higher", 0.1) == "improved"
