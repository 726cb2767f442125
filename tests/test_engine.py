"""Engine tests: loop phases in isolation, then whole decodes on the
synthetic family. Pinned numbers are hand-derived from the definitions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftbeam import (
    DecodeConfig,
    DecodeStalledError,
    PreconditionError,
    decode,
)
from driftbeam.backends.scripted import ScriptedModel, fixture_key
from driftbeam.backends.synthetic import SyntheticModel, SyntheticTask
from driftbeam.engine import (
    STOP_CONVERGED,
    STOP_EXHAUSTED,
    STOP_MAX_STEPS,
    BeamPath,
    BeamState,
    Candidate,
    PruneRecord,
    check_stop,
    expand_beam,
    extract_answer,
    finalize,
    prune_beam,
    sample_without_replacement,
    score_candidates,
    select_beam,
    softmax_weights,
    substream,
)
from driftbeam.metrics import canonical_json
from driftbeam.process import QualityTrajectory, adaptive_threshold


def mk_candidate(parent=0, index=0, quality=0.0, text="step\n",
                 finish="delimiter", tokens=2):
    return Candidate(
        parent_path_id=parent,
        index=index,
        step_text=text,
        step_tokens=tokens,
        finish_reason=finish,
        rollout_texts=("mull",),
        rollout_qualities=(quality,),
    )


def mk_beam(qualities, step_index=1):
    paths = []
    for pid, q in enumerate(qualities):
        traj = QualityTrajectory(pid)
        traj.append(step_index, q)
        paths.append(BeamPath(path_id=pid, prefix=f"P{pid}\n", trajectory=traj))
    beam = BeamState(paths=paths)
    beam.step_index = step_index
    beam.next_path_id = len(paths)
    return beam


class TestConfig:
    def test_defaults_valid(self):
        cfg = DecodeConfig()
        assert cfg.beam_size == 8 and cfg.rollouts_per_candidate == 8
        assert cfg.lambda1 == 0.8 and cfg.epsilon_stop == 1e-6

    @pytest.mark.parametrize(
        "changes",
        [
            {"beam_size": 0},
            {"rollouts_per_candidate": 0},
            {"temperature": 0.0},
            {"lambda1": -0.1},
            {"epsilon_stop": -1e-9},
            {"max_steps": 0},
            {"rollout_samples": 9},  # > rollouts_per_candidate
            {"selection": "greedy"},
            {"step_delimiter": ""},
        ],
    )
    def test_rejects(self, changes):
        with pytest.raises(PreconditionError):
            DecodeConfig(**changes)

    def test_epsilon_disable_spellings(self):
        assert DecodeConfig(epsilon_stop=None).epsilon_stop is None
        assert DecodeConfig(epsilon_stop=-math.inf).epsilon_stop == -math.inf


class TestExtractAnswer:
    def test_basic_and_case(self):
        assert extract_answer("blah\nAnswer: 42") == "42"
        assert extract_answer("answer= B") == "B"

    def test_last_match_wins(self):
        text = "Answer: 1\nwait\nAnswer: 2"
        assert extract_answer(text) == "2"

    def test_none_when_absent(self):
        assert extract_answer("no verdict here") is None
        assert extract_answer("Answer: \t ") is None  # whitespace-only capture

    def test_custom_pattern_without_group(self):
        assert extract_answer("the code is X9", r"X\d") == "X9"


class TestSoftmax:
    def test_pinned_two_score_example(self):
        w = softmax_weights([0.1, 0.3], 1.0)
        assert w[0] == pytest.approx(0.4502, abs=1e-4)
        assert w[1] == pytest.approx(0.5498, abs=1e-4)
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-12)

    def test_temperature_sharpens(self):
        cold = softmax_weights([0.1, 0.3], 0.1)
        warm = softmax_weights([0.1, 0.3], 10.0)
        assert cold[1] > warm[1] > 0.5

    def test_shift_invariance(self):
        a = softmax_weights([0.1, 0.3, -0.2], 1.0)
        b = softmax_weights([100.1, 100.3, 99.8], 1.0)
        for x, y in zip(a, b):
            assert x == pytest.approx(y, abs=1e-12)

    def test_extreme_scores_stable(self):
        w = softmax_weights([-1000.0, 0.0], 1.0)
        assert w[1] == pytest.approx(1.0, abs=1e-12)
        assert all(math.isfinite(x) for x in w)


class TestSampleWithoutReplacement:
    def test_deterministic_for_fixed_stream(self):
        w = [0.1, 0.5, 0.4]
        a = sample_without_replacement(w, 2, substream(0, 4, 1))
        b = sample_without_replacement(w, 2, substream(0, 4, 1))
        assert a == b
        assert len(set(a)) == 2

    def test_k_exceeding_population_returns_all(self):
        picks = sample_without_replacement([0.2, 0.8], 5, substream(0, 4, 2))
        assert sorted(picks) == [0, 1]

    def test_zero_mass_falls_back_to_index_order(self):
        picks = sample_without_replacement([0.0, 0.0, 0.0], 2, substream(0, 4, 3))
        assert picks == [0, 1]

    def test_degenerate_weight_always_picked_first(self):
        for trial in range(20):
            picks = sample_without_replacement([0.0, 1.0, 0.0], 1, substream(trial, 4, 4))
            assert picks == [1]


class TestExpand:
    def test_budget_and_baseline(self, two_arm_model):
        cfg = DecodeConfig(beam_size=2, rollouts_per_candidate=4, rollout_depth=4, seed=3)
        beam = BeamState.initial("Pick an arm.\n")
        candidates = expand_beam(two_arm_model, beam, cfg, step_index=1)
        assert len(candidates) == 4  # one live path x N
        # Step-0 baseline: pooled mean over every first-expand rollout.
        pooled = [q for c in candidates for q in c.rollout_qualities]
        root = beam.paths[0].trajectory
        assert len(root.points) == 1 and root.points[0].step_index == 0
        assert root.points[0].quality == pytest.approx(
            math.fsum(pooled) / len(pooled), abs=1e-12
        )
        # Tokens: every step and rollout token is counted; rollouts tracked apart.
        assert beam.rollout_tokens == 4 * len(candidates)  # depth-4 rollouts
        step_tokens = sum(c.step_tokens for c in candidates)
        assert beam.tokens_generated == step_tokens + beam.rollout_tokens

    def test_budget_shrinks_with_beam(self, two_arm_model):
        cfg = DecodeConfig(beam_size=3, rollouts_per_candidate=2, rollout_depth=4, seed=3)
        beam = mk_beam([0.1, 0.2, 0.3])
        for p in beam.paths:
            p.prefix = "Pick.\nconsider arm A\n"
        beam.paths[0].active = False
        candidates = expand_beam(two_arm_model, beam, cfg, step_index=2)
        assert len(candidates) == 2 * 2  # two live paths remain

    def test_no_live_paths_stalls(self, two_arm_model):
        beam = mk_beam([0.1])
        beam.paths[0].active = False
        with pytest.raises(DecodeStalledError):
            expand_beam(two_arm_model, beam, DecodeConfig(), step_index=2)


class TestScore:
    def test_drift_against_parent_latest(self):
        beam = mk_beam([-1.0])
        cands = [
            mk_candidate(parent=0, quality=-0.7),
            mk_candidate(parent=0, index=1, quality=-1.2),
        ]
        scored = score_candidates(cands, beam)
        assert scored[0][1] == pytest.approx(0.3, abs=1e-12)
        assert scored[1][1] == pytest.approx(-0.2, abs=1e-12)


class TestCheckStop:
    def test_converged_below_epsilon(self):
        cfg = DecodeConfig(epsilon_stop=1e-6, max_steps=10)
        assert check_stop([1e-7, -0.5], cfg, 3) == (True, STOP_CONVERGED)

    def test_not_converged_above_epsilon(self):
        cfg = DecodeConfig(epsilon_stop=1e-6, max_steps=10)
        assert check_stop([0.5], cfg, 3) == (False, None)

    def test_max_steps_cap(self):
        cfg = DecodeConfig(epsilon_stop=1e-6, max_steps=3)
        assert check_stop([0.5], cfg, 3) == (True, STOP_MAX_STEPS)

    def test_converged_takes_precedence_at_cap(self):
        cfg = DecodeConfig(epsilon_stop=1e-6, max_steps=3)
        assert check_stop([0.0], cfg, 3) == (True, STOP_CONVERGED)

    def test_disabled_epsilon_never_converges(self):
        cfg = DecodeConfig(epsilon_stop=None, max_steps=10)
        assert check_stop([-5.0], cfg, 2) == (False, None)


class TestSelect:
    def test_fills_beam_and_appends_quality(self):
        beam = mk_beam([0.0, 0.0])
        scored = [
            (mk_candidate(parent=0, index=i, quality=0.1 * i), 0.1 * i)
            for i in range(4)
        ]
        cfg = DecodeConfig(beam_size=2, rollouts_per_candidate=4)
        picks = select_beam(scored, beam, cfg, substream(0, 4, 1))
        assert len(picks) == 2
        assert beam.step_index == 2
        assert len(beam.paths) == 2
        for pid, cand, weight in picks:
            path = next(p for p in beam.paths if p.path_id == pid)
            assert path.trajectory.latest_quality == pytest.approx(cand.quality)
            assert path.trajectory.points[-1].step_index == 2
            assert 0.0 <= weight <= 1.0

    def test_path_ids_are_fresh_and_increasing(self):
        beam = mk_beam([0.0])
        scored = [(mk_candidate(parent=0, index=i), 0.0) for i in range(3)]
        cfg = DecodeConfig(beam_size=3, rollouts_per_candidate=3)
        picks = select_beam(scored, beam, cfg, substream(0, 4, 2))
        new_ids = [pid for pid, _, _ in picks]
        assert sorted(new_ids) == new_ids
        assert min(new_ids) >= 1  # never reuses the parent's id
        assert beam.next_path_id == 1 + len(new_ids)

    def test_finished_paths_hold_slots(self):
        beam = mk_beam([0.5, 0.1])
        beam.paths[0].finished = True
        scored = [(mk_candidate(parent=1, index=i), 0.0) for i in range(4)]
        cfg = DecodeConfig(beam_size=2, rollouts_per_candidate=4)
        select_beam(scored, beam, cfg, substream(0, 4, 3))
        assert len(beam.paths) == 2
        assert beam.paths[0].path_id == 0 and beam.paths[0].finished

    def test_eos_candidate_becomes_finished_child(self):
        beam = mk_beam([0.0])
        scored = [(mk_candidate(parent=0, text="Answer: A", finish="end-of-sequence"), 0.3)]
        cfg = DecodeConfig(beam_size=1, rollouts_per_candidate=1)
        select_beam(scored, beam, cfg, substream(0, 4, 4))
        assert beam.paths[0].finished is True
        assert beam.paths[0].prefix.endswith("Answer: A")

    def test_delimiter_restored_when_stripped(self):
        # HTTP backends consume the stop string; the prefix must get it back.
        beam = mk_beam([0.0])
        scored = [(mk_candidate(parent=0, text="deliberate 2", finish="delimiter"), 0.1)]
        cfg = DecodeConfig(beam_size=1, rollouts_per_candidate=1)
        select_beam(scored, beam, cfg, substream(0, 4, 5))
        assert beam.paths[0].prefix.endswith("deliberate 2\n")

    def test_uniform_selection_ignores_scores(self):
        cfg = DecodeConfig(beam_size=1, rollouts_per_candidate=2, selection="uniform")
        counts = [0, 0]
        for trial in range(200):
            beam = mk_beam([0.0])
            scored = [
                (mk_candidate(parent=0, index=0), 50.0),
                (mk_candidate(parent=0, index=1), -50.0),
            ]
            picks = select_beam(scored, beam, cfg, substream(trial, 4, 6))
            counts[picks[0][1].index] += 1
        # Softmax would pick index 0 essentially always; uniform stays ~50/50.
        assert 60 <= counts[0] <= 140


class TestPrune:
    def test_spec_shaped_beam_prunes_only_straggler(self):
        beam = mk_beam([0.30, 0.20, 0.02])
        threshold, deficits, pruned = prune_beam(beam, DecodeConfig(lambda1=0.8))
        assert threshold is not None
        # mu = 0.52/3, sigma = sqrt(0.0402667/3): value = 0.266017 by hand.
        assert threshold.value == pytest.approx(0.266017, abs=1e-6)
        assert dict(deficits)[2] == pytest.approx(0.28, abs=1e-12)
        assert [r.path_id for r in pruned] == [2]
        assert [p.path_id for p in beam.active_paths()] == [0, 1]

    def test_all_equal_prunes_nothing(self):
        beam = mk_beam([0.1, 0.1, 0.1])
        threshold, _, pruned = prune_beam(beam, DecodeConfig(lambda1=0.8))
        assert threshold is not None and threshold.sigma == 0.0
        assert pruned == []
        assert len(beam.active_paths()) == 3

    def test_single_path_skips_threshold(self):
        beam = mk_beam([0.4])
        threshold, deficits, pruned = prune_beam(beam, DecodeConfig())
        assert threshold is None
        assert deficits == [(0, 0.0)]
        assert pruned == []

    def test_best_path_survives_even_at_huge_lambda(self):
        beam = mk_beam([0.9, -5.0, -9.0])
        _, _, pruned = prune_beam(beam, DecodeConfig(lambda1=0.0))
        survivors = [p.path_id for p in beam.active_paths()]
        assert 0 in survivors

    def test_prune_record_invariant(self):
        th = adaptive_threshold([0.3, 0.2, 0.02], 0.8)
        with pytest.raises(PreconditionError):
            PruneRecord(path_id=1, step_index=1, deficit_value=0.1, threshold=th)

    @given(
        qualities=st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=8
        ),
        lam=st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=200)
    def test_prune_safety_properties(self, qualities, lam):
        beam = mk_beam(qualities)
        threshold, deficits, pruned = prune_beam(beam, DecodeConfig(lambda1=lam))
        best = max(qualities)
        first_best = qualities.index(best)
        survivors = {p.path_id for p in beam.active_paths()}
        assert first_best in survivors  # the leader is never pruned
        assert survivors  # beam never empties
        for record in pruned:
            assert record.deficit_value >= record.threshold.value
        if threshold is not None and threshold.sigma == 0.0:
            assert pruned == []


class TestFinalize:
    def _scripted_completer(self, answers):
        records = []
        for pid, ans in answers.items():
            text = f"done\nAnswer: {ans}" if ans is not None else "no verdict"
            records.append({
                "prefix_hash": fixture_key("complete", f"T\nP{pid}\n"),
                "text": text,
                "logprobs": [-0.1, -0.2, -0.3],
                "finish_reason": "end-of-sequence",
            })
        return ScriptedModel(records)

    def _beam(self, pids):
        paths = []
        for pid in pids:
            traj = QualityTrajectory(pid)
            traj.append(1, 0.0)
            paths.append(BeamPath(path_id=pid, prefix=f"T\nP{pid}\n", trajectory=traj))
        beam = BeamState(paths=paths)
        beam.step_index = 1
        beam.stop_reason = "converged"
        return beam

    def test_majority_vote(self):
        model = self._scripted_completer({1: "4", 2: "5", 3: "4"})
        beam = self._beam([1, 2, 3])
        result = finalize(model, beam, DecodeConfig(), task_prompt="T\n",
                          method="mfs", trace=[])
        assert result.final_answer == "4"
        assert result.flagged is False
        assert dict(result.per_path_answers) == {1: "4", 2: "5", 3: "4"}

    def test_tie_breaks_to_lowest_first_path(self):
        model = self._scripted_completer({1: "5", 2: "4", 3: "4", 4: "5"})
        beam = self._beam([1, 2, 3, 4])
        result = finalize(model, beam, DecodeConfig(), task_prompt="T\n",
                          method="mfs", trace=[])
        assert result.final_answer == "5"  # first seen on path 1 < path 2

    def test_abstainers_do_not_block_vote(self):
        model = self._scripted_completer({1: None, 2: "7"})
        beam = self._beam([1, 2])
        result = finalize(model, beam, DecodeConfig(), task_prompt="T\n",
                          method="mfs", trace=[])
        assert result.final_answer == "7" and not result.flagged

    def test_no_answers_flags(self):
        model = self._scripted_completer({1: None})
        beam = self._beam([1])
        result = finalize(model, beam, DecodeConfig(), task_prompt="T\n",
                          method="mfs", trace=[])
        assert result.flagged is True
        assert result.final_answer == ""
        assert result.per_path_answers == ()

    def test_prompt_text_never_votes(self):
        # An "Answer:" inside the task prompt itself must not be extracted.
        model = self._scripted_completer({1: None})
        beam = self._beam([1])
        result = finalize(model, beam, DecodeConfig(), task_prompt="T\n",
                          method="mfs", trace=[])
        assert result.flagged is True

    def test_finalize_emits_trace_event(self):
        model = self._scripted_completer({1: "4"})
        beam = self._beam([1])
        trace = []
        finalize(model, beam, DecodeConfig(), task_prompt="T\n", method="mfs", trace=trace)
        assert trace[-1]["event"] == "finalize"
        assert trace[-1]["completions"] == [[1, "4"]]


class TestDecodeEndToEnd:
    def test_two_arm_decode_finds_gold(self, two_arm_task):
        cfg = DecodeConfig(beam_size=4, rollouts_per_candidate=4, rollout_depth=5,
                           max_steps=10, seed=11)
        result = decode(SyntheticModel(two_arm_task), "Pick the best arm.\n", cfg)
        assert result.final_answer == two_arm_task.gold_label
        assert result.stop_reason in (STOP_CONVERGED, STOP_EXHAUSTED, STOP_MAX_STEPS)
        assert result.tokens_generated > result.rollout_tokens > 0

    def test_trace_event_grammar(self, two_arm_task, small_config):
        result = decode(SyntheticModel(two_arm_task), "Pick.\n", small_config)
        events = [e["event"] for e in result.trace]
        assert events[-1] == "finalize"
        assert events[-2] == "stop"
        body = events[:-2]
        assert body[::4] == ["expand"] * (len(body) // 4)
        assert body[1::4] == ["score"] * (len(body) // 4)
        assert body[2::4] == ["select"] * (len(body) // 4)
        assert body[3::4] == ["prune"] * (len(body) // 4)
        assert all(e["method"] == "mfs" for e in result.trace)

    def test_budget_bound_every_step(self, two_arm_task, small_config):
        result = decode(SyntheticModel(two_arm_task), "Pick.\n", small_config)
        bound = small_config.beam_size * small_config.rollouts_per_candidate
        for event in result.trace:
            if event["event"] == "expand":
                assert len(event["candidates"]) <= bound

    def test_converged_step_selection_still_lands(self, two_arm_task):
        # Force convergence at step 1 with an enormous epsilon: the stop event
        # must record step 1 and a selection must still have happened.
        cfg = DecodeConfig(beam_size=2, rollouts_per_candidate=2, rollout_depth=4,
                           epsilon_stop=100.0, seed=5)
        result = decode(SyntheticModel(two_arm_task), "Pick.\n", cfg)
        assert result.stop_reason == STOP_CONVERGED
        assert result.stop_step == 1
        events = [e["event"] for e in result.trace]
        assert "select" in events

    def test_max_steps_stop(self, two_arm_task):
        cfg = DecodeConfig(beam_size=2, rollouts_per_candidate=2, rollout_depth=4,
                           epsilon_stop=None, max_steps=2, seed=5)
        result = decode(SyntheticModel(two_arm_task), "Pick.\n", cfg)
        assert result.stop_reason == STOP_MAX_STEPS
        assert result.stop_step == 2

    def test_exhausted_stop(self):
        task = SyntheticTask.two_arm(horizon=1)
        cfg = DecodeConfig(beam_size=2, rollouts_per_candidate=2, rollout_depth=4,
                           epsilon_stop=None, max_steps=10, seed=5)
        result = decode(SyntheticModel(task), "Pick.\n", cfg)
        assert result.stop_reason == STOP_EXHAUSTED

    def test_same_seed_same_result(self, two_arm_task, small_config):
        a = decode(SyntheticModel(two_arm_task), "Pick.\n", small_config)
        b = decode(SyntheticModel(two_arm_task), "Pick.\n", small_config)
        assert canonical_json(a.to_dict()) == canonical_json(b.to_dict())

    def test_to_dict_shape(self, two_arm_task, small_config):
        result = decode(SyntheticModel(two_arm_task), "Pick.\n", small_config)
        payload = result.to_dict()
        assert set(payload) == {
            "final_answer", "flagged", "per_path_answers", "rollout_tokens",
            "stop_reason", "stop_step", "tokens_generated", "trace",
        }
        assert isinstance(payload["trace"], list)
