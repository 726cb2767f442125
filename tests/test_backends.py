"""Backend tests: sample validation, the synthetic grammar, scripted replay."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import json_values
from driftbeam import DecodeConfig, NumericInputError, PreconditionError, ProtocolError, engine
from driftbeam.backends import scripted
from driftbeam.backends.base import (
    FINISH_DELIMITER,
    FINISH_EOS,
    FINISH_LENGTH,
    StepSample,
    quality_of,
)
from driftbeam.backends.scripted import (
    RecordingModel,
    ScriptedModel,
    fixture_key,
    load_fixture,
    parse_fixture,
    save_fixture,
)
from driftbeam.backends.synthetic import SyntheticModel, SyntheticTask
from driftbeam.runner import decode_with


def rng_for(*seed):
    return np.random.default_rng(seed)


class TestStepSample:
    def test_quality_is_mean_logprob(self):
        sample = StepSample("a b c", (-0.3, -0.6, -0.9), FINISH_LENGTH)
        assert quality_of(sample) == pytest.approx(-0.6, abs=1e-12)
        assert len(sample.token_logprobs) == 3

    def test_invalid_finish_reason(self):
        with pytest.raises(PreconditionError):
            StepSample("x", (-0.1,), "banana")

    def test_non_finite_logprob(self):
        with pytest.raises(NumericInputError):
            StepSample("x", (float("nan"),), FINISH_LENGTH)

    def test_finite_tokens_whose_sum_overflows_are_accepted(self):
        sample = StepSample("a b", (1e308, 1e308), FINISH_LENGTH)
        assert sample.token_logprobs == (1e308, 1e308)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("position", [0, 2])
    def test_non_finite_token_named_by_index(self, bad, position):
        logprobs = [1e308, -0.5, -1e308]
        logprobs[position] = bad
        message = rf"token_logprobs\[{position}\] must be finite"
        with pytest.raises(NumericInputError, match=message):
            StepSample("a b c", tuple(logprobs), FINISH_LENGTH)

    def test_empty_sample_has_no_quality(self):
        empty = StepSample("", (), FINISH_EOS)
        with pytest.raises(PreconditionError, match="cannot score a sample with no tokens"):
            quality_of(empty)

    @given(st.lists(st.floats(-1e6, 0.0), min_size=1, max_size=32))
    @settings(max_examples=200)
    def test_quality_is_the_exactly_rounded_mean(self, lps):
        sample = StepSample("x", tuple(lps), FINISH_LENGTH)
        assert sample.quality == quality_of(sample) == math.fsum(lps) / len(lps)

    def test_overflowing_sum_has_no_quality(self):
        sample = StepSample("a b", (1e308, 1e308), FINISH_LENGTH)
        with pytest.raises(NumericInputError,
                           match="^token_logprobs sum overflows the float range$"):
            quality_of(sample)

    def test_quality_is_not_compared(self):
        # Equal logprobs give equal qualities; the field is derived, not data.
        assert StepSample("x", (-0.5,), FINISH_LENGTH) == StepSample("x", (-0.5,), FINISH_LENGTH)
        with pytest.raises(TypeError):
            StepSample("x", (-0.5,), FINISH_LENGTH, quality=0.0)


class TestSyntheticTask:
    def test_two_arm_defaults(self, two_arm_task):
        assert two_arm_task.labels == ("A", "B")
        assert two_arm_task.correct_arm == 0
        assert two_arm_task.gold_label == "A"

    def test_permuted_moves_gold(self, two_arm_task):
        flipped = two_arm_task.permuted([1, 0])
        assert flipped.gold_label == "B"
        assert sorted(flipped.drifts) == sorted(two_arm_task.drifts)

    def test_validation(self):
        with pytest.raises(PreconditionError):
            SyntheticTask(arm_count=2, drifts=(0.1,), noise_std=0.1, horizon=4)
        with pytest.raises(PreconditionError):
            SyntheticTask(arm_count=2, drifts=(0.1, 0.1), noise_std=0.1, horizon=4)
        with pytest.raises(PreconditionError):
            SyntheticTask(arm_count=0, drifts=(), noise_std=0.1, horizon=4)
        with pytest.raises(PreconditionError):
            two = SyntheticTask.two_arm()
            two.permuted([0, 0])

    @pytest.mark.parametrize("drifts, noise_std, message", [
        ((math.nan, 0.1), 0.1, "drifts must be finite"),
        ((0.1, -math.inf), 0.1, "drifts must be finite"),
        ((0.1, -0.1), math.nan, "noise_std must be finite >= 0"),
        ((0.1, -0.1), math.inf, "noise_std must be finite >= 0"),
    ])
    def test_non_finite_world_rejected(self, drifts, noise_std, message):
        with pytest.raises(PreconditionError, match=message):
            SyntheticTask(arm_count=2, drifts=drifts, noise_std=noise_std, horizon=4)


class TestSyntheticModel:
    def test_root_proposals_stratify(self, two_arm_model):
        texts = [
            two_arm_model.propose_step(
                "Pick an arm.\n", rng_for(0, i), max_tokens=8, sample_index=i
            ).text
            for i in range(4)
        ]
        assert texts[0].startswith("consider arm A")
        assert texts[1].startswith("consider arm B")
        assert texts[2].startswith("consider arm A")
        assert all(t.endswith("\n") for t in texts)

    def test_deliberation_counts_up(self, two_arm_model):
        prefix = "Pick.\nconsider arm A\n"
        step = two_arm_model.propose_step(prefix, rng_for(1), max_tokens=8)
        assert step.text == "deliberate 2\n"
        assert step.finish_reason == FINISH_DELIMITER
        deeper = prefix + "deliberate 2\ndeliberate 3\n"
        nxt = two_arm_model.propose_step(deeper, rng_for(2), max_tokens=8)
        assert nxt.text == "deliberate 4\n"

    def test_answer_at_horizon(self, two_arm_task):
        model = SyntheticModel(two_arm_task)
        prefix = "Pick.\nconsider arm B\n" + "".join(
            f"deliberate {k}\n" for k in range(2, two_arm_task.horizon + 1)
        )
        final = model.propose_step(prefix, rng_for(3), max_tokens=8)
        assert final.text == "Answer: B"
        assert final.finish_reason == FINISH_EOS

    def test_answered_prefix_is_terminal(self, two_arm_model):
        done = "Pick.\nconsider arm A\nAnswer: A"
        assert two_arm_model.propose_step(done, rng_for(4), max_tokens=8).text == ""
        assert two_arm_model.complete(done, 8, rng_for(4)).finish_reason == FINISH_EOS

    def test_level_rises_with_steps_on_good_arm(self):
        task = SyntheticTask.two_arm(drift=0.5, noise_std=0.0, horizon=4)
        model = SyntheticModel(task)
        prefix = "Pick.\nconsider arm A\n"
        one = model.rollout(prefix, 4, rng_for(5))
        deep = model.rollout(prefix + "deliberate 2\ndeliberate 3\n", 4, rng_for(5))
        assert quality_of(one) == pytest.approx(0.5)
        assert quality_of(deep) == pytest.approx(1.5)

    def test_level_caps_at_horizon(self):
        task = SyntheticTask.two_arm(drift=0.5, noise_std=0.0, horizon=2)
        model = SyntheticModel(task)
        prefix = "Pick.\nconsider arm A\n" + "".join(
            f"deliberate {k}\n" for k in range(2, 9)
        )
        capped = model.rollout(prefix, 3, rng_for(6))
        assert quality_of(capped) == pytest.approx(2 * 0.5)

    def test_rollout_carries_answer_when_deep_enough(self, two_arm_model):
        roll = two_arm_model.rollout("Pick.\nconsider arm A\n", 5, rng_for(7))
        assert roll.text.endswith("Answer: A")
        assert len(roll.token_logprobs) == 5
        shallow = two_arm_model.rollout("Pick.\nconsider arm A\n", 2, rng_for(7))
        assert "Answer" not in shallow.text
        assert len(shallow.token_logprobs) == 2

    def test_armless_completion_rate_is_uniform(self, two_arm_model):
        hits = sum(
            two_arm_model.complete("Pick.\n", 4, rng_for(11, i)).text.endswith("A")
            for i in range(400)
        )
        assert 160 <= hits <= 240  # ~Binomial(400, 0.5)

    def test_max_tokens_truncates_to_length_finish(self, two_arm_model):
        step = two_arm_model.propose_step("Pick.\n", rng_for(8), max_tokens=2, sample_index=0)
        assert step.finish_reason == FINISH_LENGTH
        assert len(step.token_logprobs) == 2

    def test_same_substream_is_reproducible(self, two_arm_model):
        a = two_arm_model.rollout("Pick.\nconsider arm A\n", 6, rng_for(9, 1))
        b = two_arm_model.rollout("Pick.\nconsider arm A\n", 6, rng_for(9, 1))
        assert a == b

    def test_unknown_arm_label_rejected(self, two_arm_model):
        with pytest.raises(PreconditionError):
            two_arm_model.propose_step("consider arm Q\n", rng_for(10), max_tokens=8)


def grammar_prefix(arm, steps, answered):
    """A prompt, then (with an arm) the grammar's lines up to `steps`."""
    if arm is None:
        return "Pick.\n"
    lines = [f"consider arm {arm}\n"] + [f"deliberate {k}\n" for k in range(2, steps + 1)]
    return "Pick.\n" + "".join(lines) + (f"Answer: {arm}" if answered else "")


GRAMMAR_PREFIXES = st.builds(
    grammar_prefix, st.one_of(st.none(), st.sampled_from("ABC")),
    st.integers(1, 6), st.booleans(),
)
CALL_KINDS = ("propose", "rollout", "complete")
THREE_ARMS = SyntheticTask(arm_count=3, drifts=(0.1, -0.05, 0.02), noise_std=0.2, horizon=4)


def call(model, kind, prefix, limit, sample_index, stream):
    """One call of `kind`, with `limit` as its max_tokens or depth."""
    rng = rng_for(13, stream)
    if kind == "propose":
        return model.propose_step(prefix, rng, max_tokens=limit, sample_index=sample_index)
    if kind == "rollout":
        return model.rollout(prefix, limit, rng)
    return model.complete(prefix, limit, rng)


def reply(model, kind, prefix, stream):
    return call(model, kind, prefix, 4 if kind == "rollout" else 8, stream, stream)


# Every prefix kind the grammar knows, plus prefixes naming an arm the
# three-arm world does not have.
ANY_PREFIXES = st.one_of(GRAMMAR_PREFIXES, st.sampled_from(
    ["Pick.\nconsider arm Q\n", "Pick.\nconsider arm D\ndeliberate 5\n"]))


class TestSyntheticParseMemo:
    """The model memoizes each reply's shape for the decode it serves;
    replies never depend on what it has stored before."""

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_memoized_replies_equal_a_fresh_model(self, data):
        # Limits of 1 to 4 cut every proposal and completion short and give
        # rollouts with and without the answer; the error text stands for a
        # call that raises.
        def outcome(model, args):
            try:
                return call(model, *args)
            except PreconditionError as exc:
                return str(exc)

        pool = data.draw(st.lists(ANY_PREFIXES, min_size=1, max_size=6))
        calls = data.draw(st.lists(
            st.tuples(st.sampled_from(CALL_KINDS), st.sampled_from(pool), st.integers(1, 4),
                      st.integers(0, 5), st.integers(0, 3)),
            min_size=1, max_size=60,
        ))
        model = SyntheticModel(THREE_ARMS)
        for args in calls:
            warm = outcome(model, args)
            assert warm == outcome(SyntheticModel(THREE_ARMS), args), args
            unknown = "arm Q" in args[1] or "arm D" in args[1]
            assert isinstance(warm, str) == unknown, (args, warm)

    @pytest.mark.parametrize("kind, message", [
        ("propose", "max_tokens must be >= 1, got 0"),
        ("rollout", "depth must be >= 1, got 0"),
        ("complete", "max_tokens must be >= 1, got 0"),
    ])
    @pytest.mark.parametrize("prefix", ["Pick.\n", "Pick.\nconsider arm B\n",
                                        "Pick.\nAnswer: A", "Pick.\nconsider arm B\nAnswer: B"])
    def test_limit_below_one_raises_on_every_call_and_is_not_stored(self, kind, message,
                                                                      prefix):
        model = SyntheticModel(THREE_ARMS)
        for _ in range(3):
            with pytest.raises(PreconditionError, match=f"^{message}$"):
                call(model, kind, prefix, 0, 1, 0)
        assert model._shapes == {}
        assert isinstance(call(model, kind, prefix, 1, 1, 0), StepSample)

    def test_unknown_arm_raises_on_every_call(self):
        model = SyntheticModel(THREE_ARMS)
        bad = "Pick.\nconsider arm Q\n"
        for kind in CALL_KINDS * 2:
            with pytest.raises(PreconditionError, match="unknown arm 'Q'"):
                reply(model, kind, bad, 0)
        assert reply(model, "rollout", "Pick.\nconsider arm C\n", 0).text.endswith("Answer: C")

    def test_fresh_is_a_distinct_model_with_the_same_replies(self):
        model = SyntheticModel(THREE_ARMS)
        prefix = "Pick.\nconsider arm B\ndeliberate 2\n"
        before = [reply(model, kind, prefix, 1) for kind in CALL_KINDS]
        other = model.fresh()
        assert other is not model and other.task == model.task
        assert [reply(other, kind, prefix, 1) for kind in CALL_KINDS] == before
        assert [reply(other.fresh(), kind, "Pick.\n", 2) for kind in CALL_KINDS] == \
            [reply(model, kind, "Pick.\n", 2) for kind in CALL_KINDS]


class TestScripted:
    def test_key_separates_kind_and_prefix(self):
        assert fixture_key("propose", "ab") != fixture_key("rollout", "ab")
        assert fixture_key("propose", "ab") != fixture_key("propose", "a")
        # The kind/prefix boundary is explicit, not concatenation-ambiguous.
        assert fixture_key("a", "bc") != fixture_key("ab", "c")

    def _records(self):
        return [
            {
                "prefix_hash": fixture_key("propose", "Q\n"),
                "text": "step one\n",
                "logprobs": [-0.1, -0.2, -0.3],
                "finish_reason": "delimiter",
            },
            {
                "prefix_hash": fixture_key("propose", "Q\n"),
                "text": "step two\n",
                "logprobs": [-0.4, -0.5, -0.6],
                "finish_reason": "delimiter",
            },
            {
                "prefix_hash": fixture_key("complete", "Q\nstep one\n"),
                "text": "Answer: 9",
                "logprobs": [-0.7, -0.8],
                "finish_reason": "end-of-sequence",
            },
        ]

    def test_replays_in_file_order(self):
        model = ScriptedModel(self._records())
        first = model.propose_step("Q\n", rng_for(0), max_tokens=8)
        second = model.propose_step("Q\n", rng_for(99), max_tokens=8)
        assert first.text == "step one\n"
        assert second.text == "step two\n"
        done = model.complete("Q\nstep one\n", 8, rng_for(1))
        assert done.text == "Answer: 9"

    def test_fresh_rewinds(self):
        model = ScriptedModel(self._records())
        assert model.propose_step("Q\n", rng_for(0), max_tokens=8).text == "step one\n"
        model.fresh()
        assert model.propose_step("Q\n", rng_for(0), max_tokens=8).text == "step one\n"

    def test_unscripted_query_raises(self):
        model = ScriptedModel(self._records())
        with pytest.raises(ProtocolError):
            model.rollout("Q\n", 4, rng_for(0))
        model.propose_step("Q\n", rng_for(0), max_tokens=8)
        model.propose_step("Q\n", rng_for(0), max_tokens=8)
        with pytest.raises(ProtocolError):
            model.propose_step("Q\n", rng_for(0), max_tokens=8)  # queue exhausted

    def test_unscripted_and_exhausted_messages(self):
        model = ScriptedModel(self._records())
        rollout_key = fixture_key("rollout", "Q\n")[:12]
        propose_key = fixture_key("propose", "Q\n")[:12]
        with pytest.raises(ProtocolError) as unscripted:
            model.rollout("Q\n", 4, None)
        assert str(unscripted.value) == (
            f"no scripted rollout sample for prefix of 2 chars (key {rollout_key}..., consumed 0)"
        )
        model.propose_step("Q\n", None, max_tokens=8)
        model.propose_step("Q\n", None, max_tokens=8)
        with pytest.raises(ProtocolError) as exhausted:
            model.propose_step("Q\n", None, max_tokens=8)
        assert str(exhausted.value) == (
            f"no scripted propose sample for prefix of 2 chars (key {propose_key}..., consumed 2)"
        )

    def test_fixture_io_roundtrip(self, tmp_path):
        path = tmp_path / "fx.jsonl"
        save_fixture(path, self._records())
        loaded = load_fixture(path)
        assert loaded == self._records()

    def test_fixture_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"prefix_hash": "x", "text": "y", "logprobs": []}\n')
        with pytest.raises(ProtocolError, match="bad.jsonl:1"):
            load_fixture(path)

    def test_fixture_bad_json_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ProtocolError, match="invalid JSON"):
            load_fixture(path)

    @pytest.mark.parametrize("line", ["5", '"abc"', "[1]", "null"])
    def test_fixture_non_object_line_rejected(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ProtocolError, match="bad.jsonl:1: not a JSON object"):
            load_fixture(path)

    @pytest.mark.parametrize("record", ["abc", 5, None])
    def test_record_list_non_object_is_protocol_error(self, record):
        records = self._records()
        records[1] = record
        with pytest.raises(ProtocolError, match="fixture record 1: not a JSON object"):
            ScriptedModel(records)

    @pytest.mark.parametrize("field", ["prefix_hash", "text", "logprobs", "finish_reason"])
    def test_record_list_missing_field_is_protocol_error(self, field):
        records = self._records()
        del records[1][field]
        with pytest.raises(ProtocolError, match=f"fixture record 1: missing field '{field}'"):
            ScriptedModel(records)

    @pytest.mark.parametrize("logprobs", [None, [None], [[1]], ["-0.5"], [True]])
    def test_non_numeric_logprobs_are_protocol_errors(self, tmp_path, logprobs):
        records = self._records()
        records[1]["logprobs"] = logprobs
        path = tmp_path / "fx.jsonl"
        save_fixture(path, records)
        # Both construction paths, a record list and a fixture file.
        for source in (records, path):
            with pytest.raises(ProtocolError, match="logprobs must be a list of numbers"):
                ScriptedModel(source)

    @pytest.mark.parametrize("field", ["prefix_hash", "text"])
    @pytest.mark.parametrize("value", [[1], 5, None, {"a": 1}])
    def test_non_string_hash_or_text_is_protocol_error(self, tmp_path, field, value):
        records = self._records()
        records[1][field] = value
        path = tmp_path / "fx.jsonl"
        save_fixture(path, records)
        for source in (records, path):
            with pytest.raises(ProtocolError,
                               match=f"fixture record 1: {field} must be a string"):
                ScriptedModel(source)

    @pytest.mark.parametrize("field, value, message", [
        ("logprobs", "zz", "logprobs must be a list of numbers, got 'zz'"),
        ("logprobs", [-0.1, float("nan")], "token_logprobs[1] must be finite, got nan"),
        ("logprobs", [-(10 ** 400)], "logprobs holds an integer beyond the float range"),
        ("finish_reason", "banana", "finish_reason must be one of"),
    ])
    def test_bad_sample_is_protocol_error_naming_its_record(self, field, value, message):
        records = self._records()
        records[1][field] = value
        with pytest.raises(ProtocolError) as raised:
            parse_fixture(records)
        assert str(raised.value).startswith(f"fixture record 1: {message}")

    def test_parsed_queues_are_shared_with_cursors_of_their_own(self):
        queues = parse_fixture(self._records())
        assert queues[fixture_key("propose", "Q\n")] == (
            StepSample("step one\n", (-0.1, -0.2, -0.3), FINISH_DELIMITER),
            StepSample("step two\n", (-0.4, -0.5, -0.6), FINISH_DELIMITER),
        )
        with pytest.raises(TypeError):
            queues["other"] = ()
        first, second = ScriptedModel(queues), ScriptedModel(queues)
        assert first.propose_step("Q\n", rng_for(0), max_tokens=8).text == "step one\n"
        assert second.propose_step("Q\n", rng_for(0), max_tokens=8).text == "step one\n"
        assert first.propose_step("Q\n", rng_for(0), max_tokens=8).text == "step two\n"


# Records near the valid shape, so most examples reach the sample's own checks.
fixture_records = st.fixed_dictionaries({}, optional={
    "prefix_hash": st.text(max_size=4) | json_values,
    "text": st.text(max_size=4) | json_values,
    "logprobs": st.lists(st.floats() | st.integers(-(10 ** 400), 10 ** 400), max_size=4)
    | json_values,
    "finish_reason": st.sampled_from(("delimiter", "length", "end-of-sequence")) | json_values,
})


class TestFixtureBoundary:
    @given(st.lists(fixture_records | json_values, max_size=3))
    @example([{"prefix_hash": "h", "text": "t", "logprobs": [math.inf, -math.inf],
               "finish_reason": "length"}])  # fsum raises ValueError on inf - inf
    @settings(max_examples=300)
    def test_any_json_records_load_or_are_a_protocol_error(self, records):
        try:
            queues = parse_fixture(records)
        except ProtocolError:
            return
        for queue in queues.values():
            for sample in queue:
                assert sample.quality is None or math.isfinite(sample.quality)


class TestRecording:
    def test_record_then_replay_matches_live(self, two_arm_model, tmp_path):
        recorder = RecordingModel(two_arm_model)
        live = [
            recorder.propose_step("Pick.\n", rng_for(0, i), max_tokens=8, sample_index=i)
            for i in range(2)
        ]
        live.append(recorder.rollout("Pick.\nconsider arm A\n", 4, rng_for(1)))
        live.append(recorder.complete("Pick.\nconsider arm A\n", 4, rng_for(2)))

        path = tmp_path / "recorded.jsonl"
        recorder.save(path)
        replay = ScriptedModel(load_fixture(path))
        got = [
            replay.propose_step("Pick.\n", rng_for(50, i), max_tokens=8, sample_index=i)
            for i in range(2)
        ]
        got.append(replay.rollout("Pick.\nconsider arm A\n", 4, rng_for(51)))
        got.append(replay.complete("Pick.\nconsider arm A\n", 4, rng_for(52)))
        for want, have in zip(live, got):
            assert have.text == want.text
            assert have.finish_reason == want.finish_reason
            assert all(
                math.isclose(a, b, rel_tol=0, abs_tol=0) or a == b
                for a, b in zip(have.token_logprobs, want.token_logprobs)
            )


RECORDED_TASK = SyntheticTask(arm_count=3, drifts=(0.1, -0.05, 0.02), noise_std=0.2, horizon=3)


def record_decode(method, config):
    """A synthetic decode recorded through RecordingModel: its result and
    the fixture records it left."""
    recorder = RecordingModel(SyntheticModel(RECORDED_TASK))
    result = decode_with(method, recorder, "Pick.\n", config)
    return result, recorder.records


class QueryLog(ScriptedModel):
    """A scripted model that lists every (kind, prefix) it is asked for."""

    def __init__(self, records):
        super().__init__(records)
        self.queries = []

    def _next(self, kind, prefix):
        self.queries.append((kind, prefix))
        return super()._next(kind, prefix)


class TestScriptedDecode:
    CONFIG = DecodeConfig(beam_size=3, rollouts_per_candidate=3, rollout_depth=3,
                          max_steps=4, seed=21)

    def test_each_kind_and_prefix_is_hashed_once_per_decode(self, monkeypatch):
        _, records = record_decode("mfs", self.CONFIG)
        hashed = []

        def counting_key(kind, prefix):
            hashed.append((kind, prefix))
            return fixture_key(kind, prefix)

        monkeypatch.setattr(scripted, "fixture_key", counting_key)
        model = QueryLog(records)
        for _ in range(2):
            hashed.clear()
            model.queries.clear()
            decode_with("mfs", model, "Pick.\n", self.CONFIG)
            assert sorted(hashed) == sorted(set(model.queries))
            # Candidates of one path share their propose prefix, so the
            # decode asks about most pairs more than once.
            assert len(model.queries) > len(hashed)

    def test_decodes_through_fresh_repeat(self):
        live, records = record_decode("mfs", self.CONFIG)
        model = ScriptedModel(records)
        first = decode_with("mfs", model, "Pick.\n", self.CONFIG)
        second = decode_with("mfs", model, "Pick.\n", self.CONFIG)
        assert first.to_dict() == second.to_dict() == live.to_dict()

    def test_replay_derives_no_proposal_or_rollout_streams(self, monkeypatch):
        live, records = record_decode("mfs", self.CONFIG)

        def no_words(*args):
            raise AssertionError("substream_words called during replay")

        monkeypatch.setattr(engine, "substream_words", no_words)
        replayed = decode_with("mfs", ScriptedModel(records), "Pick.\n", self.CONFIG)
        assert replayed.to_dict() == live.to_dict()


@given(
    method=st.sampled_from(["mfs", "phi"]),
    beam_size=st.integers(1, 3),
    rollouts_per_candidate=st.integers(1, 3),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_recorded_decode_replays_to_the_same_result(
    method, beam_size, rollouts_per_candidate, seed, data
):
    rollout_samples = data.draw(st.integers(1, rollouts_per_candidate), label="rollout_samples")
    config = DecodeConfig(
        beam_size=beam_size, rollouts_per_candidate=rollouts_per_candidate,
        rollout_samples=rollout_samples, rollout_depth=3, max_steps=4, seed=seed,
    )
    live, records = record_decode(method, config)
    replayed = decode_with(method, ScriptedModel(records), "Pick.\n", config)
    assert replayed.to_dict() == live.to_dict()
