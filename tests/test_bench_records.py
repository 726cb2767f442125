"""The committed benchmark records (BENCH_*.json at the repo root) match the
benchmark they report on (BENCHMARK.json): the claim names one of its
workloads and end-to-end metrics, and every workload carries a parent and a
change median for every end-to-end metric."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
END_TO_END = [metric["name"] for metric in BENCHMARK["end_to_end"]]
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
