"""Consensus-decoder and plain-completion baseline tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftbeam import (
    DecodeConfig,
    PhiConfig,
    PreconditionError,
    ar_cot_decode,
    decode,
    phi_decode,
)
from driftbeam.backends.synthetic import SyntheticModel, SyntheticTask
from driftbeam.baselines import (
    STOP_COMPLETED,
    STOP_CONSENSUS,
    cluster_candidates,
    combine_scores,
    phi_advantage,
    phi_alignment,
    phi_stop,
)
from driftbeam.engine import Candidate
from driftbeam.process import estimate_predictable_advantage

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


def mk_candidate(answer=None, quality=0.0, index=0):
    """Candidate whose single rollout commits to `answer` (or to nothing)."""
    text = f"mull\nAnswer: {answer}" if answer is not None else "mull mull"
    return Candidate(
        parent_path_id=0,
        index=index,
        step_text="step\n",
        step_tokens=2,
        finish_reason="delimiter",
        rollout_texts=(text,),
        rollout_qualities=(quality,),
    )


class TestPhiAdvantage:
    def test_pinned_example(self):
        assert phi_advantage(-1.0, [-0.8, -0.6, -0.7]) == pytest.approx(0.3, abs=1e-12)

    @given(prev=finite, qs=st.lists(finite, min_size=1, max_size=12))
    @settings(max_examples=300)
    def test_bit_identical_to_drift_estimator(self, prev, qs):
        # Not approximately equal: the same function, hence the same bits.
        drift = estimate_predictable_advantage(prev, qs).drift
        assert phi_advantage(prev, qs) == drift


class TestPhiConfig:
    def test_defaults(self):
        phi = PhiConfig()
        assert phi.delta == 0.6 and phi.combine_mode == "sum"

    def test_validation(self):
        with pytest.raises(PreconditionError):
            PhiConfig(delta=-0.1)
        with pytest.raises(PreconditionError):
            PhiConfig(combine_mode="product")
        with pytest.raises(PreconditionError):
            PhiConfig(cluster_distance=-1.0)

    def test_delta_above_one_is_legal_disable(self):
        assert PhiConfig(delta=1.5).delta == 1.5

    def test_combine_modes(self):
        assert combine_scores(0.2, 0.5, PhiConfig()) == pytest.approx(0.7)
        weighted = PhiConfig(combine_mode="weighted-sum", alignment_weight=0.25)
        assert combine_scores(0.2, 0.5, weighted) == pytest.approx(0.325)


class TestClustering:
    def test_answer_equality_clusters(self):
        cands = [mk_candidate("A"), mk_candidate("B"), mk_candidate("A")]
        clusters = cluster_candidates(cands, PhiConfig(), DecodeConfig().answer_pattern)
        as_sets = sorted(map(sorted, clusters))
        assert as_sets == [[0, 2], [1]]

    def test_alignment_fractions(self):
        cands = [mk_candidate("A"), mk_candidate("B"), mk_candidate("A")]
        assert phi_alignment(cands, PhiConfig()) == pytest.approx([2 / 3, 1 / 3, 2 / 3])

    def test_answerless_fall_back_to_quality_proximity(self):
        cands = [
            mk_candidate(None, quality=0.00),
            mk_candidate(None, quality=0.04),  # within 0.05 of the founder
            mk_candidate(None, quality=0.30),  # founds its own cluster
        ]
        clusters = cluster_candidates(cands, PhiConfig(), DecodeConfig().answer_pattern)
        as_sets = sorted(map(sorted, clusters))
        assert as_sets == [[0, 1], [2]]

    def test_fallback_anchors_on_founder_not_members(self):
        # 0.04 joins the founder at 0.00; 0.08 is within 0.05 of 0.04 but not
        # of the founder, so it starts a new cluster.
        cands = [
            mk_candidate(None, quality=0.00),
            mk_candidate(None, quality=0.04),
            mk_candidate(None, quality=0.08),
        ]
        clusters = cluster_candidates(cands, PhiConfig(), DecodeConfig().answer_pattern)
        as_sets = sorted(map(sorted, clusters))
        assert as_sets == [[0, 1], [2]]

    def test_mixed_answered_and_answerless(self):
        cands = [mk_candidate("A"), mk_candidate(None, quality=5.0), mk_candidate("A")]
        alignment = phi_alignment(cands, PhiConfig())
        assert alignment == pytest.approx([2 / 3, 1 / 3, 2 / 3])

    def test_last_rollout_answer_wins(self):
        cand = Candidate(
            parent_path_id=0, index=0, step_text="s\n", step_tokens=1,
            finish_reason="delimiter",
            rollout_texts=("Answer: A", "Answer: B"),
            rollout_qualities=(0.0, 0.0),
        )
        clusters = cluster_candidates([cand, mk_candidate("B")], PhiConfig(),
                                      DecodeConfig().answer_pattern)
        assert sorted(map(sorted, clusters)) == [[0, 1]]


class TestPhiStop:
    def test_stops_at_delta(self):
        cands = [mk_candidate("A"), mk_candidate("A"), mk_candidate("B")]
        assert phi_stop(cands, PhiConfig(delta=0.6)) is True  # 2/3 >= 0.6
        assert phi_stop(cands, PhiConfig(delta=0.7)) is False

    def test_boundary_inclusive(self):
        cands = [mk_candidate("A"), mk_candidate("B")]
        assert phi_stop(cands, PhiConfig(delta=0.5)) is True  # exactly 1/2

    def test_delta_zero_always_stops(self):
        assert phi_stop([mk_candidate("A"), mk_candidate("B")], PhiConfig(delta=0.0))

    @given(answers=st.lists(st.sampled_from(["A", "B", "C"]), min_size=1, max_size=10))
    @settings(max_examples=100)
    def test_delta_above_one_never_stops(self, answers):
        cands = [mk_candidate(a, index=i) for i, a in enumerate(answers)]
        assert phi_stop(cands, PhiConfig(delta=1.0 + 1e-9)) is False

    @given(answers=st.lists(st.sampled_from(["A", "B"]), min_size=1, max_size=10))
    @settings(max_examples=100)
    def test_unanimous_always_stops_at_delta_one(self, answers):
        cands = [mk_candidate(answers[0], index=i) for i in range(len(answers))]
        assert phi_stop(cands, PhiConfig(delta=1.0)) is True


class TestPhiDecode:
    def test_consensus_stop_on_synthetic(self, two_arm_task):
        cfg = DecodeConfig(beam_size=3, rollouts_per_candidate=3, rollout_depth=5,
                           max_steps=8, seed=2)
        result = phi_decode(SyntheticModel(two_arm_task), "Pick.\n", cfg)
        assert result.stop_reason in (STOP_CONSENSUS, "max_steps")
        assert all(e["method"] == "phi" for e in result.trace)

    def test_never_prunes(self, two_arm_task):
        cfg = DecodeConfig(beam_size=3, rollouts_per_candidate=3, rollout_depth=5,
                           max_steps=6, seed=2)
        result = phi_decode(SyntheticModel(two_arm_task), "Pick.\n", cfg)
        assert not any(e["event"] == "prune" for e in result.trace)

    def test_score_event_carries_three_fields(self, two_arm_task):
        cfg = DecodeConfig(beam_size=2, rollouts_per_candidate=2, rollout_depth=5,
                           max_steps=4, seed=2)
        result = phi_decode(SyntheticModel(two_arm_task), "Pick.\n", cfg)
        score_events = [e for e in result.trace if e["event"] == "score"]
        assert score_events
        for event in score_events:
            assert set(event) >= {"advantage", "alignment", "combined"}
            for adv, ali, comb in zip(event["advantage"], event["alignment"],
                                      event["combined"]):
                assert comb == pytest.approx(adv + ali, abs=1e-12)
                assert 0.0 <= ali <= 1.0

    def test_disabled_consensus_runs_to_cap(self, two_arm_task):
        cfg = DecodeConfig(beam_size=2, rollouts_per_candidate=2, rollout_depth=5,
                           max_steps=3, seed=2, epsilon_stop=None)
        result = phi_decode(SyntheticModel(two_arm_task), "Pick.\n", cfg,
                            PhiConfig(delta=2.0))
        assert result.stop_reason == "max_steps"
        assert result.stop_step == 3

    def test_phi_tokens_at_least_mfs_tokens(self, two_arm_task):
        # No pruning and a later stop: the reference point spends at least
        # as much as the drift decoder on the same world and seed.
        cfg = DecodeConfig(beam_size=3, rollouts_per_candidate=3, rollout_depth=5,
                           max_steps=6, seed=13)
        mfs = decode(SyntheticModel(two_arm_task), "Pick.\n", cfg)
        phi = phi_decode(SyntheticModel(two_arm_task), "Pick.\n", cfg,
                         PhiConfig(delta=2.0))
        assert mfs.tokens_generated <= phi.tokens_generated


class TestArCot:
    def test_single_completion_shape(self, two_arm_task):
        cfg = DecodeConfig(seed=4)
        result = ar_cot_decode(SyntheticModel(two_arm_task), "Pick.\n", cfg)
        assert result.stop_reason == STOP_COMPLETED
        assert result.stop_step == 0
        assert result.rollout_tokens == 0
        assert result.tokens_generated == 2  # "Answer: X"
        assert result.final_answer in two_arm_task.labels
        assert [e["event"] for e in result.trace] == ["stop", "finalize"]
        assert all(e["method"] == "ar-cot" for e in result.trace)

    def test_uniform_hit_rate(self, two_arm_task):
        model = SyntheticModel(two_arm_task)
        hits = sum(
            ar_cot_decode(model, "Pick.\n", DecodeConfig(seed=s)).final_answer
            == two_arm_task.gold_label
            for s in range(300)
        )
        assert 110 <= hits <= 190  # ~Binomial(300, 1/2)

    def test_deterministic_per_seed(self, two_arm_task):
        model = SyntheticModel(two_arm_task)
        a = ar_cot_decode(model, "Pick.\n", DecodeConfig(seed=77))
        b = ar_cot_decode(model, "Pick.\n", DecodeConfig(seed=77))
        assert a == b
