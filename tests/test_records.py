"""The perf record: each BENCH_*.json at the repository root names the commit it was compared
against, the workloads it ran and the machine and numpy it ran on, so a later reader can tell
a change of code from a change of machine."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda path: path.name)
def test_bench_record_names_its_parent_workloads_and_machine(path):
    record = json.loads(path.read_text())
    assert isinstance(record["parent"], str) and record["parent"]
    assert isinstance(record["workloads"], dict) and record["workloads"]
    for key in ("cpu", "python", "numpy"):
        assert isinstance(record["machine"][key], str) and record["machine"][key], key
