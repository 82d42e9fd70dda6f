"""BENCHMARK.json is well formed and agrees with perfbench.metrics."""

import json
import re
from pathlib import Path

import pytest

from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.run import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_top_level_shape(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60


def test_workloads_match_the_runner(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"]
        assert len(workload["why"]) <= 200


def test_metrics_match_the_definitions(spec):
    for entries, defined, keys in (
            (spec["end_to_end"], END_TO_END,
             {"name", "unit", "better", "bound"}),
            (spec["per_layer"], PER_LAYER, {"name", "unit", "better"})):
        assert [e["name"] for e in entries] == [m.name for m in defined]
        for entry, metric in zip(entries, defined):
            assert set(entry) == keys
            assert NAME.match(entry["name"])
            assert UNIT.match(entry["unit"])
            assert entry["unit"] == metric.unit
            assert entry["better"] == metric.better
            assert entry["better"] in ("higher", "lower")
            if "bound" in entry:
                assert entry["bound"] == metric.bound
                assert 0 < entry["bound"] <= 0.25
    setup = next(e for e in spec["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in spec["end_to_end"])
    names = [e["name"] for e in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
