"""Metrics tests: normalization table, exact FLOPs, comparisons, reports."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftbeam import (
    Comparison,
    DatasetError,
    PerExample,
    PreconditionError,
    RunMetrics,
    answers_match,
    canonical_json,
    compare_runs,
    emit_report,
    flops,
    normalize_answer,
    parse_report,
)


class TestNormalization:
    # (raw, canonical) pairs derived by applying the documented pipeline by hand.
    TABLE = [
        ("  42 ", "42"),
        ("Answer", "answer"),
        ('"yes"', "yes"),
        ("'Paris'", "paris"),
        ("The end.", "the end"),
        ("3.5.", "3.5"),      # trailing period after a number is sentence-final
        ("4.0", "4"),
        ("0.50", "0.5"),
        ("+3", "3"),
        ("-0", "0"),
        ("1,234", "1234"),
        ("12,345,678", "12345678"),
        ("1,234.5", "1234.5"),
        ("2e3", "2000"),
        ("1.5e-2", "0.015"),
        ("007", "7"),
        ("  A  ", "a"),
        ("", ""),
    ]

    @pytest.mark.parametrize("raw,canonical", TABLE)
    def test_table(self, raw, canonical):
        assert normalize_answer(raw) == canonical

    def test_comma_in_words_untouched(self):
        assert normalize_answer("yes, it is") == "yes, it is"

    def test_decimal_point_survives(self):
        assert normalize_answer("3.5") == "3.5"

    def test_match_is_symmetric_on_forms(self):
        assert answers_match("4.0", "4")
        assert answers_match("1,234", "1234")
        assert answers_match('"B"', "b")
        assert not answers_match("4", "5")

    @given(st.text(max_size=40))
    @settings(max_examples=200)
    def test_idempotent(self, text):
        once = normalize_answer(text)
        assert normalize_answer(once) == once


class TestFlops:
    def test_examples(self):
        assert flops(100, 7_000_000_000) == 4_200_000_000_000
        assert flops(0, 7_000_000_000) == 0
        assert flops(1, 1) == 6

    def test_exact_integer_at_scale(self):
        # Large enough that float arithmetic would round; int must not.
        n, p = 5_687_500, 8_000_000_000
        assert flops(n, p) == 273_000_000_000_000_000
        assert isinstance(flops(n, p), int)

    def test_integral_float_coerced(self):
        assert flops(10.0, 100) == 6000

    def test_rejects_non_counts(self):
        with pytest.raises(PreconditionError):
            flops(1.5, 100)
        with pytest.raises(PreconditionError):
            flops(-1, 100)
        with pytest.raises(PreconditionError):
            flops(10, 0)
        with pytest.raises(PreconditionError):
            flops(True, 100)

    @given(n=st.integers(min_value=0, max_value=10**9),
           p=st.integers(min_value=1, max_value=10**13))
    @settings(max_examples=200)
    def test_always_divisible_by_six(self, n, p):
        assert flops(n, p) % 6 == 0
        assert flops(n, p) == 6 * n * p


def ex(task_id, predicted, gold, tokens=10, stop_step=2, prune_count=0):
    return PerExample(task_id=task_id, predicted=predicted, gold=gold,
                      tokens=tokens, stop_step=stop_step, prune_count=prune_count)


class TestRunMetrics:
    def test_from_examples(self):
        metrics = RunMetrics.from_examples(
            [ex("t1", "4", "4", tokens=30), ex("t2", "5", "4", tokens=20)],
            model_params=1_000_000,
        )
        assert metrics.tokens_generated == 50
        assert metrics.flops == 6 * 50 * 1_000_000
        assert metrics.correct == 1 and metrics.total == 2
        assert metrics.accuracy_value == pytest.approx(0.5)

    def test_grading_uses_normalization(self):
        metrics = RunMetrics.from_examples(
            [ex("t1", "4.0", "4"), ex("t2", '"b"', "B")], model_params=10
        )
        assert metrics.correct == 2

    def test_flops_invariant_enforced(self):
        with pytest.raises(PreconditionError):
            RunMetrics(tokens_generated=10, model_params=10, flops=599,
                       correct=0, total=0, per_example=())

    def test_roundtrip(self):
        metrics = RunMetrics.from_examples([ex("t1", "4", "4")], model_params=123)
        assert RunMetrics.from_dict(metrics.to_dict()) == metrics


class TestCompareRuns:
    def _runs(self):
        a = RunMetrics.from_examples(
            [ex("t1", "4", "4", tokens=100), ex("t2", "9", "9", tokens=150)],
            model_params=8_000_000_000,
        )
        b = RunMetrics.from_examples(
            [ex("t1", "4", "4", tokens=180), ex("t2", "0", "9", tokens=190)],
            model_params=8_000_000_000,
        )
        return a, b

    def test_fields(self):
        a, b = self._runs()
        cmp = compare_runs(a, b)
        assert cmp.accuracy_delta == pytest.approx(0.5)
        assert cmp.flops_ratio == pytest.approx(370 / 250)
        assert cmp.token_deltas == (("t1", -80), ("t2", -40))
        assert cmp.flagged is False

    def test_pinned_ratio(self):
        # 8,354,167 tokens against 5,687,500 at the same parameter count.
        a = RunMetrics.from_examples([ex("t1", "4", "4", tokens=5_687_500)],
                                     model_params=8_000_000_000)
        b = RunMetrics.from_examples([ex("t1", "4", "4", tokens=8_354_167)],
                                     model_params=8_000_000_000)
        assert a.flops == 273_000_000_000_000_000
        assert compare_runs(a, b).flops_ratio == pytest.approx(1.468864, abs=1e-4)

    def test_mismatched_tasks_rejected(self):
        a = RunMetrics.from_examples([ex("t1", "4", "4")], model_params=10)
        b = RunMetrics.from_examples([ex("t2", "4", "4")], model_params=10)
        with pytest.raises(DatasetError):
            compare_runs(a, b)

    def test_zero_cost_run_flagged_infinite(self):
        a = RunMetrics.from_examples([ex("t1", "4", "4", tokens=0)], model_params=10)
        b = RunMetrics.from_examples([ex("t1", "4", "4", tokens=10)], model_params=10)
        cmp = compare_runs(a, b)
        assert math.isinf(cmp.flops_ratio)
        assert cmp.flagged is True
        assert cmp.to_dict()["flops_ratio"] == "inf"

    def test_deltas_sorted_by_task_id(self):
        a = RunMetrics.from_examples(
            [ex("z", "1", "1", tokens=5), ex("a", "1", "1", tokens=7)], model_params=10
        )
        b = RunMetrics.from_examples(
            [ex("a", "1", "1", tokens=2), ex("z", "1", "1", tokens=2)], model_params=10
        )
        cmp = compare_runs(a, b)
        assert [tid for tid, _ in cmp.token_deltas] == ["a", "z"]


class TestReports:
    def _table(self):
        gsm = RunMetrics.from_examples(
            [ex("g1", "4", "4", tokens=10), ex("g2", "5", "4", tokens=10)],
            model_params=1_000_000,
        )
        arc = RunMetrics.from_examples(
            [ex("a1", "B", "B", tokens=20)], model_params=1_000_000
        )
        return {"mfs": {"gsm": gsm, "arc": arc}, "ar-cot": {"gsm": gsm}}

    def test_markdown_layout(self):
        text = emit_report(self._table(), "markdown").decode()
        lines = text.splitlines()
        assert lines[0] == "| Method | gsm | arc | Avg. | FLOPs |"
        assert lines[1] == "|---|---|---|---|---|"
        assert lines[2] == "| mfs | 50.00 | 100.00 | 75.00 | 2.400e+08 |"
        assert lines[3] == "| ar-cot | 50.00 | - | 50.00 | 1.200e+08 |"

    def test_csv_layout(self):
        text = emit_report(self._table(), "csv").decode()
        rows = text.splitlines()
        assert rows[0] == "method,gsm,arc,avg,flops"
        assert rows[1].startswith("mfs,50.00,100.00,75.00,")

    def test_json_roundtrip_lossless(self):
        table = self._table()
        parsed = parse_report(emit_report(table, "json"))
        assert parsed == {
            label: dict(row) for label, row in table.items()
        }

    def test_empty_table_headers_only(self):
        md = emit_report({}, "markdown").decode()
        assert md.splitlines() == ["| Method | Avg. | FLOPs |", "|---|---|---|"]
        csv_text = emit_report({}, "csv").decode()
        assert csv_text.splitlines() == ["method,avg,flops"]

    def test_unknown_format_rejected(self):
        with pytest.raises(PreconditionError):
            emit_report({}, "xml")

    def test_canonical_json_is_stable(self):
        assert canonical_json({"b": 1, "a": [1.5, "x"]}) == b'{"a":[1.5,"x"],"b":1}'
        # Key order of the input never leaks into the bytes.
        assert canonical_json({"a": 0, "b": 1}) == canonical_json({"b": 1, "a": 0})


class TestComparisonSerialization:
    def test_to_dict(self):
        cmp = Comparison(
            accuracy_delta=0.25,
            flops_ratio=1.5,
            token_deltas=(("t1", -3),),
            flagged=False,
        )
        assert cmp.to_dict() == {
            "accuracy_delta": 0.25,
            "flops_ratio": 1.5,
            "token_deltas": [["t1", -3]],
            "flagged": False,
        }
