"""Engine tests: loop phases in isolation, then whole decodes on the
synthetic family. Pinned numbers are hand-derived from the definitions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftbeam import (
    DecodeConfig,
    PreconditionError,
    TransportError,
    decode,
    engine,
)
from driftbeam.backends.base import FINISH_REASONS, SequenceModel, StepSample
from driftbeam.backends.http import HttpCompletionsModel
from driftbeam.backends.scripted import RecordingModel, ScriptedModel, fixture_key
from driftbeam.backends.synthetic import SyntheticModel, SyntheticTask
from driftbeam.engine import (
    STOP_CONVERGED,
    STOP_EXHAUSTED,
    STOP_MAX_STEPS,
    TAG_PROPOSE,
    TAG_ROLLOUT,
    BeamPath,
    BeamState,
    Candidate,
    check_stop,
    expand_beam,
    extract_answer,
    finalize,
    prune_beam,
    sample_without_replacement,
    score_candidates,
    select_beam,
    softmax_weights,
    _Words,
    substream,
    substream_words,
)
from driftbeam.baselines import PhiConfig
from driftbeam.metrics import canonical_json
from driftbeam.process import AdaptiveThreshold
from driftbeam.runner import BackendSpec, decode_with


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
    paths = [BeamPath(path_id=pid, prefix=f"P{pid}\n", quality=q)
             for pid, q in enumerate(qualities)]
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
            {"rollout_samples": 0},
            {"selection": "greedy"},
            {"step_delimiter": ""},
        ],
    )
    def test_rejects(self, changes):
        with pytest.raises(PreconditionError):
            DecodeConfig(**changes)

    def test_epsilon_disable_spellings(self):
        # Both spellings of a disabled stop are stored as None.
        assert DecodeConfig(epsilon_stop=None).epsilon_stop is None
        assert DecodeConfig(epsilon_stop=-math.inf).epsilon_stop is None


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

    @given(st.data())
    @settings(max_examples=400)
    def test_same_picks_and_draws_as_the_linear_walk(self, data):
        n = data.draw(st.integers(0, 12), label="n")
        masses = st.one_of(st.sampled_from([0.0, 0.125, 0.5, 1.0]), st.floats(0.0, 1.0))
        weights = data.draw(st.one_of(
            st.lists(masses, min_size=n, max_size=n),  # zeros and ties
            st.just([1.0 / n] * n if n else []),  # uniform
            st.just([0.0] * n),  # all zero
            st.lists(st.floats(-50.0, 50.0), min_size=max(n, 1), max_size=max(n, 1))
            .map(lambda scores: softmax_weights(scores, 0.7)),
        ), label="weights")
        k = data.draw(st.integers(0, len(weights) + 2), label="k")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        fast, slow = substream(seed, 4, 6), substream(seed, 4, 6)
        assert sample_without_replacement(weights, k, fast) == linear_walk(weights, k, slow)
        assert fast.random() == slow.random()  # both drew the same number of times


def linear_walk(weights, k, rng):
    """sample_without_replacement as a walk over the remaining items, adding
    one mass at a time: the reference its prefix-sum search must match."""
    remaining = list(range(len(weights)))
    picks = []
    while remaining and len(picks) < k:
        masses = [weights[i] for i in remaining]
        total = math.fsum(masses)
        if total <= 0:
            picks.extend(remaining[: k - len(picks)])
            break
        target = rng.random() * total
        acc = 0.0
        chosen = remaining[-1]
        for pos, index in enumerate(remaining):
            acc += masses[pos]
            if target < acc:
                chosen = index
                break
        picks.append(chosen)
        remaining.remove(chosen)
    return picks


def reference_state(seed, key):
    return np.random.PCG64(np.random.SeedSequence(entropy=[seed, *key])).state


def reference_words(seed, key):
    return np.random.SeedSequence(entropy=[seed, *key]).generate_state(4, np.uint64).tolist()


def assert_words_match_seed_sequence(seed, keys):
    words = substream_words(seed, keys)
    assert words.tolist() == [reference_words(seed, k) for k in keys]
    states = [np.random.PCG64(_Words(row)).state for row in words]
    assert states == [reference_state(seed, k) for k in keys]


seeds = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]),
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
)
fields = st.one_of(st.just(0), st.integers(0, 64), st.integers(0, 2**32 - 1))


def mixed_draws(rng):
    return (rng.integers(7, size=3).tolist(), rng.normal(size=3).tolist(),
            rng.integers(7, size=2).tolist())


class TestSubstreamStates:
    @given(
        seed=seeds,
        keys=st.integers(1, 6).flatmap(
            lambda width: st.lists(st.lists(fields, min_size=width, max_size=width),
                                   min_size=1, max_size=128)
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_seed_sequence(self, seed, keys):
        assert_words_match_seed_sequence(seed, keys)

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("width", [3, 6])
    def test_one_and_two_word_seeds_with_zero_fields(self, seed, width):
        assert_words_match_seed_sequence(
            seed, [[0] * width, [2**32 - 1] * width, list(range(width))])

    def test_words_built_generator_draws_like_a_fresh_substream(self):
        seed = 2**63 + 5
        keys = [(TAG_PROPOSE, 1, 0, c, 0) for c in range(3)]
        for key, words in zip(keys, substream_words(seed, keys)):
            rng = np.random.Generator(np.random.PCG64(_Words(words)))
            # Small integers() draws buffer a 32-bit half between calls.
            assert mixed_draws(rng) == mixed_draws(substream(seed, *key))

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**63 + 5])
    def test_a_uint32_array_gives_the_words_of_its_rows_as_tuples(self, seed):
        keys = [(TAG_PROPOSE, 5, p, c, s) for p in (3, 7, 12) for c in range(3) for s in range(2)]
        want = substream_words(seed, keys).tolist()
        rows = np.array(keys, dtype=np.uint32)
        fields_major = np.ascontiguousarray(rows.T)
        assert substream_words(seed, rows).tolist() == want
        assert substream_words(seed, fields_major.T).tolist() == want

    def test_words_serve_only_pcg64(self):
        words = substream_words(3, [(TAG_PROPOSE, 1, 0, 0, 0)])[0]
        with pytest.raises(PreconditionError, match="4 uint64s"):
            np.random.MT19937(_Words(words))


class DrawRecorder(SequenceModel):
    """Records one draw from each call's stream; every step is one token."""

    def __init__(self):
        self.draws = []

    def _sample(self, kind, prefix, rng):
        self.draws.append((kind, prefix, rng.random()))
        return StepSample("x\n", (-0.5,), "delimiter")

    def propose_step(self, prefix, rng, *, max_tokens, stop=None, sample_index=0):
        return self._sample("propose", prefix, rng)

    def rollout(self, prefix, depth, rng):
        return self._sample("rollout", prefix, rng)

    def complete(self, prefix, max_tokens, rng):
        return self._sample("complete", prefix, rng)


class KeepsEveryRng(DrawRecorder):
    """Keeps each call's rng and draws from every kept one before it draws
    from its own."""

    def __init__(self):
        super().__init__()
        self.kept = []

    def _sample(self, kind, prefix, rng):
        for old in self.kept:
            old.normal(size=3)
        self.kept.append(rng)
        return super()._sample(kind, prefix, rng)


class EmptyThenDown(DrawRecorder):
    """The first rollout comes back with no tokens, which cannot be scored;
    the backend goes down at the second proposal."""

    def propose_step(self, prefix, rng, *, max_tokens, stop=None, sample_index=0):
        if sample_index == 1:
            raise TransportError("connection reset")
        return super().propose_step(prefix, rng, max_tokens=max_tokens)

    def rollout(self, prefix, depth, rng):
        self.draws.append(("rollout", prefix, rng.random()))
        return StepSample("", (), "length")


class NoDrawStub(SequenceModel):
    """Declares that it never draws, and keeps the rng of every call."""

    uses_rng = False

    def __init__(self):
        self.rngs = []

    def _sample(self, rng):
        self.rngs.append(rng)
        return StepSample("x\n", (-0.5,), "delimiter")

    def propose_step(self, prefix, rng, *, max_tokens, stop=None, sample_index=0):
        return self._sample(rng)

    def rollout(self, prefix, depth, rng):
        return self._sample(rng)

    def complete(self, prefix, max_tokens, rng):
        return self._sample(rng)


class DeclaresNoDrawButDraws(DrawRecorder):
    uses_rng = False


class TestUsesRng:
    CONFIG = DecodeConfig(beam_size=2, rollouts_per_candidate=3, rollout_samples=2, seed=4)

    def test_non_drawing_backend_gets_no_stream(self):
        model = NoDrawStub()
        candidates = expand_beam(model, mk_beam([0.1, 0.2]), self.CONFIG)
        assert len(candidates) == 2 * 3
        assert len(model.rngs) == 2 * 3 * (1 + 2)
        assert all(rng is None for rng in model.rngs)

    def test_non_drawing_backend_derives_no_state(self, monkeypatch):
        def no_words(*args):
            raise AssertionError("substream_words called for a non-drawing backend")

        monkeypatch.setattr(engine, "substream_words", no_words)
        candidates = expand_beam(NoDrawStub(), mk_beam([0.1, 0.2]), self.CONFIG)
        assert len(candidates) == 2 * 3
        with pytest.raises(AssertionError, match="non-drawing"):
            expand_beam(DrawRecorder(), mk_beam([0.1, 0.2]), self.CONFIG)

    def test_backend_that_declares_no_draws_but_draws_raises(self):
        model = DeclaresNoDrawButDraws()
        with pytest.raises(AttributeError):
            expand_beam(model, mk_beam([0.1]), self.CONFIG)
        assert model.draws == []

    @pytest.mark.parametrize("inner", [DrawRecorder, NoDrawStub])
    def test_recording_model_reports_its_inner_model(self, inner):
        assert RecordingModel(inner()).uses_rng is inner.uses_rng

    def test_declared_by_each_backend(self, two_arm_model):
        assert two_arm_model.uses_rng is True
        assert ScriptedModel([]).uses_rng is False
        assert HttpCompletionsModel("http://127.0.0.1:9", "m").uses_rng is True


class TestExpand:
    CONFIG = DecodeConfig(beam_size=2, rollouts_per_candidate=3, rollout_samples=2,
                          seed=2**40 + 9)

    def test_transport_error_wins_over_an_earlier_unscorable_rollout(self):
        # Every backend call of a step comes before any quality is computed.
        cfg = DecodeConfig(beam_size=1, rollouts_per_candidate=2, seed=5)
        model = EmptyThenDown()
        with pytest.raises(TransportError, match="path 0 candidate 1: connection reset"):
            expand_beam(model, mk_beam([0.1]), cfg)
        assert [kind for kind, _, _ in model.draws] == ["propose", "rollout"]

    def expected_draws(self, beam, config=CONFIG):
        step = beam.step_index + 1
        want = []
        for path in beam.paths:
            for cand in range(config.rollouts_per_candidate):
                stream = substream(config.seed, TAG_PROPOSE, step, path.path_id, cand, 0)
                want.append(("propose", path.prefix, stream.random()))
                for sample in range(config.rollout_samples):
                    stream = substream(config.seed, TAG_ROLLOUT, step, path.path_id,
                                       cand, sample)
                    want.append(("rollout", path.prefix + "x\n", stream.random()))
        return want

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**63 + 5])
    @pytest.mark.parametrize("candidates", [1, 3])
    @pytest.mark.parametrize("rollouts", [1, 3])
    def test_keys_of_the_array_are_the_keys_of_the_calls(self, seed, candidates, rollouts):
        config = DecodeConfig(beam_size=3, rollouts_per_candidate=candidates,
                              rollout_samples=rollouts, seed=seed)
        beam = mk_beam([0.1, 0.2, 0.3], step_index=4)
        for path, path_id in zip(beam.paths, [3, 7, 12]):
            path.path_id = path_id
        model = DrawRecorder()
        expand_beam(model, beam, config)
        assert model.draws == self.expected_draws(beam, config)

    def test_each_call_draws_from_its_own_substream(self):
        beam = mk_beam([0.1, 0.2], step_index=4)
        model = DrawRecorder()
        expand_beam(model, beam, self.CONFIG)
        assert model.draws == self.expected_draws(beam)

    def test_a_kept_generator_cannot_change_the_next_calls_draws(self):
        beam = mk_beam([0.1, 0.2], step_index=4)
        model = KeepsEveryRng()
        expand_beam(model, beam, self.CONFIG)
        assert model.draws == self.expected_draws(beam)
        assert len({id(rng) for rng in model.kept}) == len(model.kept) == 2 * 3 * 3

    def test_budget_and_baseline(self, two_arm_model):
        cfg = DecodeConfig(beam_size=2, rollouts_per_candidate=4, rollout_depth=4, seed=3)
        beam = BeamState.initial("Pick an arm.\n")
        assert beam.paths[0].quality is None
        candidates = expand_beam(two_arm_model, beam, cfg)
        assert len(candidates) == 4  # one live path x N
        # Step-0 baseline: pooled mean over every first-expand rollout.
        pooled = [q for c in candidates for q in c.rollout_qualities]
        assert beam.paths[0].quality == pytest.approx(
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
        beam.paths[0].finished = True
        candidates = expand_beam(two_arm_model, beam, cfg)
        assert len(candidates) == 2 * 2  # two live paths remain

    def test_no_live_paths_stalls(self, two_arm_model):
        beam = mk_beam([0.1])
        beam.paths[0].finished = True
        with pytest.raises(PreconditionError, match="no live paths"):
            expand_beam(two_arm_model, beam, DecodeConfig())

    def test_more_rollout_samples_than_candidates(self, two_arm_model):
        # A rollout's stream key does not involve N, so nothing ties the two.
        cfg = DecodeConfig(beam_size=2, rollouts_per_candidate=2, rollout_samples=3,
                           rollout_depth=4, max_steps=3, seed=7)
        expands = [e for e in decode(two_arm_model, "Pick an arm.\n", cfg).trace
                   if e["event"] == "expand"]
        assert expands
        assert all(len(c["qualities"]) == 3 for e in expands for c in e["candidates"])


class TestScore:
    def test_drift_against_parent_latest(self):
        beam = mk_beam([-1.0])
        cands = [
            mk_candidate(parent=0, quality=-0.7),
            mk_candidate(parent=0, index=1, quality=-1.2),
        ]
        drifts = score_candidates(cands, beam)
        assert drifts[0] == pytest.approx(0.3, abs=1e-12)
        assert drifts[1] == pytest.approx(-0.2, abs=1e-12)


    def test_parent_without_quality_is_precondition_error(self):
        beam = BeamState.initial("Q\n")
        with pytest.raises(PreconditionError, match="path 0 has no quality"):
            score_candidates([mk_candidate(parent=0)], beam)


class TestCheckStop:
    def test_converged_below_epsilon(self):
        cfg = DecodeConfig(epsilon_stop=1e-6, max_steps=10)
        assert check_stop([1e-7, -0.5], cfg) == STOP_CONVERGED

    def test_not_converged_above_epsilon(self):
        cfg = DecodeConfig(epsilon_stop=1e-6, max_steps=10)
        assert check_stop([0.5], cfg) is None

    def test_converged_takes_precedence_at_cap(self):
        cfg = DecodeConfig(epsilon_stop=1e-6, max_steps=3)
        assert check_stop([0.0], cfg) == STOP_CONVERGED

    def test_disabled_epsilon_never_converges(self):
        cfg = DecodeConfig(epsilon_stop=None, max_steps=10)
        assert check_stop([-5.0], cfg) is None


class TestSelect:
    def test_fills_beam_and_appends_quality(self):
        beam = mk_beam([0.0, 0.0])
        cands = [mk_candidate(parent=0, index=i, quality=0.1 * i) for i in range(4)]
        cfg = DecodeConfig(beam_size=2, rollouts_per_candidate=4)
        picks = select_beam(cands, [0.1 * i for i in range(4)], beam, cfg, substream(0, 4, 1))
        assert len(picks) == 2
        assert beam.step_index == 2
        assert beam.paths == [child for child, _, _ in picks]
        for child, cand, weight in picks:
            assert child.quality == cand.quality
            assert 0.0 <= weight <= 1.0

    def test_path_ids_are_fresh_and_increasing(self):
        beam = mk_beam([0.0])
        cands = [mk_candidate(parent=0, index=i) for i in range(3)]
        cfg = DecodeConfig(beam_size=3, rollouts_per_candidate=3)
        picks = select_beam(cands, [0.0] * 3, beam, cfg, substream(0, 4, 2))
        new_ids = [child.path_id for child, _, _ in picks]
        assert sorted(new_ids) == new_ids
        assert min(new_ids) >= 1  # never reuses the parent's id
        assert beam.next_path_id == 1 + len(new_ids)

    def test_finished_paths_hold_slots(self):
        beam = mk_beam([0.5, 0.1])
        beam.paths[0].finished = True
        cands = [mk_candidate(parent=1, index=i) for i in range(4)]
        cfg = DecodeConfig(beam_size=2, rollouts_per_candidate=4)
        select_beam(cands, [0.0] * 4, beam, cfg, substream(0, 4, 3))
        assert len(beam.paths) == 2
        assert beam.paths[0].path_id == 0 and beam.paths[0].finished

    def test_eos_candidate_becomes_finished_child(self):
        beam = mk_beam([0.0])
        cands = [mk_candidate(parent=0, text="Answer: A", finish="end-of-sequence")]
        cfg = DecodeConfig(beam_size=1, rollouts_per_candidate=1)
        select_beam(cands, [0.3], beam, cfg, substream(0, 4, 4))
        assert beam.paths[0].finished is True
        assert beam.paths[0].prefix.endswith("Answer: A")

    def test_delimiter_restored_when_stripped(self):
        # HTTP backends consume the stop string; the prefix must get it back.
        beam = mk_beam([0.0])
        cands = [mk_candidate(parent=0, text="deliberate 2", finish="delimiter")]
        cfg = DecodeConfig(beam_size=1, rollouts_per_candidate=1)
        select_beam(cands, [0.1], beam, cfg, substream(0, 4, 5))
        assert beam.paths[0].prefix.endswith("deliberate 2\n")

    def test_uniform_selection_ignores_scores(self):
        cfg = DecodeConfig(beam_size=1, rollouts_per_candidate=2, selection="uniform")
        counts = [0, 0]
        for trial in range(200):
            beam = mk_beam([0.0])
            cands = [mk_candidate(parent=0, index=0), mk_candidate(parent=0, index=1)]
            picks = select_beam(cands, [50.0, -50.0], beam, cfg, substream(trial, 4, 6))
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
        assert pruned == [2]
        assert [p.path_id for p in beam.paths] == [0, 1]

    def test_all_equal_prunes_nothing(self):
        beam = mk_beam([0.1, 0.1, 0.1])
        threshold, _, pruned = prune_beam(beam, DecodeConfig(lambda1=0.8))
        assert threshold is not None and threshold.sigma == 0.0
        assert pruned == []
        assert len(beam.paths) == 3

    def test_single_path_skips_threshold(self):
        beam = mk_beam([0.4])
        threshold, deficits, pruned = prune_beam(beam, DecodeConfig())
        assert threshold is None
        assert deficits == [(0, 0.0)]
        assert pruned == []

    @pytest.mark.parametrize("beam", [BeamState(paths=[]), BeamState.initial("Q\n")])
    def test_empty_beam_or_missing_quality_rejected(self, beam):
        with pytest.raises(PreconditionError):
            prune_beam(beam, DecodeConfig())

    def test_best_path_survives_even_at_huge_lambda(self):
        beam = mk_beam([0.9, -5.0, -9.0])
        _, _, pruned = prune_beam(beam, DecodeConfig(lambda1=0.0))
        survivors = [p.path_id for p in beam.paths]
        assert 0 in survivors

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
        survivors = {p.path_id for p in beam.paths}
        assert first_best in survivors  # the leader is never pruned
        assert survivors  # beam never empties
        assert survivors.isdisjoint(pruned)
        for pid in pruned:
            assert dict(deficits)[pid] >= threshold.value
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
        paths = [BeamPath(path_id=pid, prefix=f"T\nP{pid}\n", quality=0.0) for pid in pids]
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
        result = finalize(model, beam, DecodeConfig(), task_prompt="T\n", method="mfs",
                          trace=[])
        assert result.trace[-1]["event"] == "finalize"
        assert result.trace[-1]["completions"] == [[1, "4"]]


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

    def test_pruned_paths_never_return(self, two_arm_task):
        # Pruning is a stopping time: once a path id is listed as pruned, no
        # later expand, select, prune or finalize event may refer to it.
        cfg = DecodeConfig(beam_size=4, rollouts_per_candidate=4, rollout_depth=5,
                           max_steps=10, seed=1)
        result = decode(SyntheticModel(two_arm_task), "Pick the best arm.\n", cfg)
        gone: set[int] = set()
        for event in result.trace:
            if event["event"] == "expand":
                referenced = {c["parent"] for c in event["candidates"]}
            elif event["event"] == "select":
                referenced = {s["parent"] for s in event["selected"]}
            elif event["event"] == "prune":
                referenced = {pid for pid, _ in event["deficits"]}
            elif event["event"] == "finalize":
                referenced = {pid for pid, _ in event["completions"]}
            else:
                continue
            assert gone.isdisjoint(referenced), event["event"]
            gone.update(event.get("pruned", ()))
        assert len(gone) >= 3  # the seed prunes, so the check has teeth

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

    def test_converged_beats_cap_on_the_same_step(self, two_arm_task):
        cfg = DecodeConfig(beam_size=2, rollouts_per_candidate=2, rollout_depth=4,
                           epsilon_stop=1000.0, max_steps=1, seed=5)
        result = decode(SyntheticModel(two_arm_task), "Pick.\n", cfg)
        assert result.stop_reason == STOP_CONVERGED
        assert result.stop_step == 1
        stops = [e for e in result.trace if e["event"] == "stop"]
        assert stops == [{"event": "stop", "method": "mfs", "step": 1,
                          "reason": STOP_CONVERGED}]

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

    # The 2-arm, one-sample world keeps the bare method as its id. Each world
    # names the fewest prunes its mfs decode must make (it makes 8, 7, 2, 4).
    @pytest.mark.parametrize("method, arms, rollout_samples, min_prunes", [
        pytest.param(method, arms, samples, min_prunes,
                     id=method if (arms, samples) == (2, 1)
                     else f"{method}-{arms}arms-{samples}samples")
        for arms, samples, min_prunes in [(2, 1, 3), (4, 1, 3), (2, 3, 2), (4, 3, 3)]
        for method in ["mfs", "phi", "ar-cot"]])
    def test_trace_stored_as_canonical_bytes(self, method, arms, rollout_samples,
                                             min_prunes, check_trace_encoding):
        cfg = DecodeConfig(beam_size=4, rollouts_per_candidate=4, rollout_depth=5,
                           max_steps=10, seed=1, rollout_samples=rollout_samples)
        task = BackendSpec(arm_count=arms).base_task()
        result = decode_with(method, SyntheticModel(task), "Pick the best arm.\n",
                             cfg, PhiConfig(delta=0.9) if method == "phi" else None)
        check_trace_encoding(result)
        assert all(type(event) is bytes for event in result.trace_json)
        if method == "mfs":
            assert result.prune_count >= min_prunes  # the seed prunes, so the count has teeth
        if method != "ar-cot":
            expands = [e for e in result.trace if e["event"] == "expand"]
            assert {len(c["qualities"]) for e in expands for c in e["candidates"]} == {
                rollout_samples}

    def test_integer_lambda1_stays_an_integer(self, two_arm_task, check_trace_encoding):
        cfg = DecodeConfig(beam_size=4, rollouts_per_candidate=4, rollout_depth=5,
                           max_steps=10, seed=1, lambda1=1)
        result = decode(SyntheticModel(two_arm_task), "Pick the best arm.\n", cfg)
        check_trace_encoding(result)
        prunes = [e for e in result.trace_json if e.startswith(b'{"deficits"')]
        assert prunes and all(b'"threshold":{"lambda1":1,"mu":' in e for e in prunes)

    def test_to_dict_shape(self, two_arm_task, small_config):
        result = decode(SyntheticModel(two_arm_task), "Pick.\n", small_config)
        payload = result.to_dict()
        assert set(payload) == {
            "final_answer", "flagged", "per_path_answers", "rollout_tokens",
            "stop_reason", "stop_step", "tokens_generated", "trace",
        }
        assert isinstance(payload["trace"], list)


# -- step-event writers against canonical_json --------------------------------

# The dicts run_loop built before its events had writers of their own: the
# oracle that each writer's bytes must match under canonical_json.
def expand_dict(method, step, candidates):
    return {"event": "expand", "method": method, "step": step, "candidates": [
        {"parent": c.parent_path_id, "index": c.index, "text": c.step_text,
         "tokens": c.step_tokens, "finish": c.finish_reason, "qualities": c.rollout_qualities}
        for c in candidates]}


def select_dict(method, step, selections):
    return {"event": "select", "method": method, "step": step, "selected": [
        {"path_id": child.path_id, "parent": cand.parent_path_id, "index": cand.index,
         "weight": weight, "quality": child.quality, "finished": child.finished}
        for child, cand, weight in selections]}


def prune_dict(method, step, threshold, deficits, pruned):
    return {"event": "prune", "method": method, "step": step,
            "threshold": None if threshold is None else {
                "mu": threshold.mu, "sigma": threshold.sigma,
                "lambda1": threshold.lambda1, "value": threshold.value},
            "deficits": deficits, "pruned": pruned}


# Every float the writers may be handed, the edges of float spelling among them.
event_floats = st.floats() | st.sampled_from([
    -0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308, -1.7976931348623157e308,
    math.inf, -math.inf, math.nan])
# Step texts: any code point (lone surrogates too), with quotes, backslashes,
# controls and a non-BMP character drawn often.
event_texts = st.text(st.characters(blacklist_categories=())
                      | st.sampled_from('"\\\n\t\x00\x1f\x7fé \U0001F600'), max_size=8)
ids = st.integers(min_value=0, max_value=2**40)


@st.composite
def event_candidates(draw):
    """A step's candidates, each with 1-3 rollout qualities (rollout_samples)."""
    samples = draw(st.integers(min_value=1, max_value=3))
    return draw(st.lists(st.builds(
        Candidate, parent_path_id=ids, index=ids, step_text=event_texts, step_tokens=ids,
        finish_reason=st.sampled_from(FINISH_REASONS) | event_texts,
        rollout_texts=st.just(("r",) * samples),
        rollout_qualities=st.lists(event_floats, min_size=samples,
                                   max_size=samples).map(tuple)), max_size=6))


class TestEventWriters:
    """Each writer emits canonical_json of the dict run_loop used to build."""

    @given(method=event_texts, step=ids, candidates=event_candidates())
    @settings(max_examples=200, deadline=None)
    def test_expand(self, method, step, candidates):
        assert engine._expand_event(method, step, candidates) == canonical_json(
            expand_dict(method, step, candidates))

    @given(method=event_texts, step=ids, selections=st.lists(st.tuples(
        st.builds(BeamPath, path_id=ids, prefix=st.just(""), quality=event_floats,
                  finished=st.booleans()),
        st.builds(mk_candidate, parent=ids, index=ids),
        event_floats), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_select(self, method, step, selections):
        assert engine._select_event(method, step, selections) == canonical_json(
            select_dict(method, step, selections))

    @given(method=event_texts, step=ids,
           threshold=st.none() | st.builds(
               AdaptiveThreshold, mu=event_floats, sigma=event_floats,
               lambda1=event_floats | st.integers(min_value=0, max_value=10**20),
               value=event_floats),
           deficits=st.lists(st.tuples(ids, event_floats), max_size=4),
           pruned=st.lists(ids, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_prune(self, method, step, threshold, deficits, pruned):
        assert engine._prune_event(method, step, threshold, deficits, pruned) == canonical_json(
            prune_dict(method, step, threshold, deficits, pruned))
