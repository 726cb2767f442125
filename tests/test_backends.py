"""Backend tests: sample validation, the synthetic grammar, scripted replay."""

import math

import numpy as np
import pytest

from driftbeam import NumericInputError, PreconditionError, ProtocolError
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
    save_fixture,
)
from driftbeam.backends.synthetic import SyntheticModel, SyntheticTask


def rng_for(*seed):
    return np.random.default_rng(seed)


class TestStepSample:
    def test_quality_is_mean_logprob(self):
        sample = StepSample("a b c", (-0.3, -0.6, -0.9), FINISH_LENGTH)
        assert quality_of(sample) == pytest.approx(-0.6, abs=1e-12)
        assert sample.token_count == 3

    def test_invalid_finish_reason(self):
        with pytest.raises(PreconditionError):
            StepSample("x", (-0.1,), "banana")

    def test_non_finite_logprob(self):
        with pytest.raises(NumericInputError):
            StepSample("x", (float("nan"),), FINISH_LENGTH)

    def test_empty_sample_has_no_quality(self):
        empty = StepSample("", (), FINISH_EOS)
        with pytest.raises(PreconditionError):
            quality_of(empty)


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
        assert roll.token_count == 5
        shallow = two_arm_model.rollout("Pick.\nconsider arm A\n", 2, rng_for(7))
        assert "Answer" not in shallow.text
        assert shallow.token_count == 2

    def test_armless_completion_rate_is_uniform(self, two_arm_model):
        hits = sum(
            two_arm_model.complete("Pick.\n", 4, rng_for(11, i)).text.endswith("A")
            for i in range(400)
        )
        assert 160 <= hits <= 240  # ~Binomial(400, 0.5)

    def test_max_tokens_truncates_to_length_finish(self, two_arm_model):
        step = two_arm_model.propose_step("Pick.\n", rng_for(8), max_tokens=2, sample_index=0)
        assert step.finish_reason == FINISH_LENGTH
        assert step.token_count == 2

    def test_same_substream_is_reproducible(self, two_arm_model):
        a = two_arm_model.rollout("Pick.\nconsider arm A\n", 6, rng_for(9, 1))
        b = two_arm_model.rollout("Pick.\nconsider arm A\n", 6, rng_for(9, 1))
        assert a == b

    def test_unknown_arm_label_rejected(self, two_arm_model):
        with pytest.raises(PreconditionError):
            two_arm_model.propose_step("consider arm Q\n", rng_for(10), max_tokens=8)


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
