"""The committed benchmark records (BENCH_*.json at the repo root) match the
benchmark they report on (BENCHMARK.json): the claim names one of its
workloads and end-to-end metrics, every workload carries a parent and a
change median for every end-to-end metric, and the claim's "met" agrees
with the numbers recorded for its own workload and metric."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
END_TO_END = [metric["name"] for metric in BENCHMARK["end_to_end"]]
BETTER = {metric["name"]: metric["better"] for metric in BENCHMARK["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.fixture(params=RECORDS, ids=[path.name for path in RECORDS])
def record(request):
    return json.loads(request.param.read_text(encoding="utf-8"))


def test_claim_names_a_workload_and_end_to_end_metric(record):
    claim = record["claim"]
    assert claim["workload"] in WORKLOADS
    assert claim["metric"] in END_TO_END


def test_every_workload_has_parent_and_change_medians(record):
    for name in WORKLOADS:
        assert name in record["workloads"], name
        metrics = record["workloads"][name]["metrics"]
        for metric in END_TO_END:
            assert metric in metrics, (name, metric)
            for side in ("parent", "change"):
                median = metrics[metric][side].get("median")
                assert isinstance(median, (int, float)) and math.isfinite(median), \
                    (name, metric, side)


def test_claim_met_agrees_with_its_numbers(record):
    # A gain is met when the change wins at least nine tenths of the pairs and
    # its median beats the parent's, in the metric's better direction, by more
    # than the parent's interquartile range.
    claim = record["claim"]
    numbers = record["workloads"][claim["workload"]]["metrics"][claim["metric"]]
    parent, change = numbers["parent"], numbers["change"]
    gain = parent["median"] - change["median"]
    if BETTER[claim["metric"]] == "higher":
        gain = -gain
    wins, pairs = (int(n) for n in numbers["change_better_in"].split("/"))
    met = gain > parent["q3"] - parent["q1"] and wins >= 0.9 * pairs
    assert claim["met"] == met, (claim, numbers)
