"""Process-core unit tests: drift, deficit, threshold, convergence, pooling.
The deficit and prune decision are tested through `engine.prune_beam` and
the convergence test through `engine.check_stop`, which hold them.

Numeric expectations are computed by hand from the definitions (means and
population standard deviations under exact summation) and pinned here.
"""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftbeam import (
    DecodeConfig,
    NumericInputError,
    PreconditionError,
    adaptive_threshold,
    check_stop,
    estimate_predictable_advantage,
    prune_beam,
    trajectory_statistics,
)
from driftbeam.engine import STOP_CONVERGED, BeamPath, BeamState

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def prune(qualities, lambda1=0.8):
    """prune_beam over a beam whose path i has quality qualities[i]."""
    beam = BeamState(paths=[BeamPath(path_id=pid, prefix=f"P{pid}\n", quality=q)
                            for pid, q in enumerate(qualities)])
    threshold, deficits, pruned = prune_beam(beam, DecodeConfig(lambda1=lambda1))
    return threshold, dict(deficits), pruned


class TestDriftEstimate:
    def test_mean_minus_previous(self):
        drift = estimate_predictable_advantage(-1.0, [-0.8, -0.6, -0.7])
        assert drift == pytest.approx(0.3, abs=1e-12)

    def test_single_rollout(self):
        assert estimate_predictable_advantage(-0.5, [-0.4]) == pytest.approx(0.1)

    def test_negative_drift(self):
        drift = estimate_predictable_advantage(-0.2, [-0.9, -0.7])
        assert drift == pytest.approx(-0.6, abs=1e-12)

    def test_empty_rollouts_rejected(self):
        with pytest.raises(PreconditionError):
            estimate_predictable_advantage(0.0, [])

    @pytest.mark.parametrize("qualities", [
        [-1e308, -1e308],  # the sum leaves the float range
    ])
    def test_overflow_is_a_named_numeric_error(self, qualities):
        with pytest.raises(NumericInputError, match="rollout_qualities"):
            estimate_predictable_advantage(0.0, qualities)

    def test_squared_deviation_overflow_accepted(self):
        # The drift needs only the mean, which is in range; no spread is taken.
        assert estimate_predictable_advantage(0.25, [1e200, -1e200]) == 0.0 - 0.25

    def test_non_finite_rejected(self):
        with pytest.raises(NumericInputError):
            estimate_predictable_advantage(float("nan"), [0.1])
        with pytest.raises(NumericInputError):
            estimate_predictable_advantage(0.0, [0.1, float("inf")])

    @pytest.mark.parametrize("previous, qualities, message", [
        (float("nan"), [0.1], "previous_quality must be finite, got nan"),
        (float("-inf"), [float("inf")], "previous_quality must be finite, got -inf"),
        (0.0, [0.1, float("inf")], r"rollout_qualities\[1\] must be finite, got inf"),
        (0.0, [float("inf"), float("-inf")], r"rollout_qualities\[0\] must be finite, got inf"),
        (0.0, [-0.5, float("nan")], r"rollout_qualities\[1\] must be finite, got nan"),
        (0.0, [-1e308, -1e308], "rollout_qualities sum overflows the float range"),
    ])
    def test_bad_input_is_named(self, previous, qualities, message):
        with pytest.raises(NumericInputError, match=f"^{message}$"):
            estimate_predictable_advantage(previous, qualities)

    def test_finite_inputs_whose_drift_overflows_give_infinity(self):
        assert estimate_predictable_advantage(-1e308, [1e308]) == math.inf

    @given(prev=finite, qs=st.lists(finite, min_size=1, max_size=16))
    def test_drift_is_the_exactly_rounded_mean_minus_previous(self, prev, qs):
        assert estimate_predictable_advantage(prev, qs) == math.fsum(qs) / len(qs) - prev

    @given(prev=finite, qs=st.lists(finite, min_size=1, max_size=16))
    def test_drift_shift_identity(self, prev, qs):
        # Shifting every input by c shifts the mean by c, leaving drift fixed.
        base = estimate_predictable_advantage(prev, qs)
        shifted = estimate_predictable_advantage(prev + 10.0, [q + 10.0 for q in qs])
        assert shifted == pytest.approx(base, abs=1e-9)


class TestDeficit:
    def test_examples(self):
        assert prune([0.30, 0.02])[1][1] == pytest.approx(0.28, abs=1e-12)
        assert prune([-0.458, -1.027])[1][1] == pytest.approx(0.569, abs=1e-12)

    def test_self_deficit_zero(self):
        assert prune([0.5, 0.5])[1] == {0: 0.0, 1: 0.0}
        assert prune([0.1, 0.5])[1][1] == 0.0

    @given(best=finite, q=finite)
    def test_antisymmetry(self, best, q):
        # The deficit is the exact difference best - q, so it negates when
        # the operands swap.
        top = max(best, q)
        deficits = prune([best, q])[1]
        assert deficits == {0: top - best, 1: top - q}
        assert deficits[1] == -(q - top)


class TestAdaptiveThreshold:
    def test_pinned_example(self):
        th = adaptive_threshold([0.1, 0.2, 0.3], 0.8)
        assert th.mu == pytest.approx(0.2, abs=1e-12)
        assert th.sigma == pytest.approx(math.sqrt(0.02 / 3), abs=1e-12)
        assert th.value == pytest.approx(0.265320, abs=1e-6)

    def test_all_equal_sigma_exactly_zero(self):
        th = adaptive_threshold([0.1, 0.1, 0.1], 2.5)
        assert th.sigma == 0.0
        assert th.value == th.mu == pytest.approx(0.1)

    def test_single_score(self):
        th = adaptive_threshold([-0.7], 1.0)
        assert th.sigma == 0.0
        assert th.value == pytest.approx(-0.7)

    def test_squared_deviation_overflow_is_a_named_numeric_error(self):
        with pytest.raises(NumericInputError, match="scores"):
            adaptive_threshold([1e200, -1e200], 1.0)

    def test_lambda_validation(self):
        with pytest.raises(PreconditionError):
            adaptive_threshold([0.1], -0.1)
        with pytest.raises(PreconditionError):
            adaptive_threshold([], 0.8)

    @given(
        scores=st.lists(finite, min_size=1, max_size=12),
        lam_a=st.floats(min_value=0.0, max_value=4.0),
        lam_b=st.floats(min_value=0.0, max_value=4.0),
    )
    def test_monotone_in_lambda(self, scores, lam_a, lam_b):
        lo, hi = sorted((lam_a, lam_b))
        assert adaptive_threshold(scores, lo).value <= adaptive_threshold(scores, hi).value

    @given(
        scores=st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=12),
        shift=st.floats(min_value=-100, max_value=100),
        lam=st.floats(min_value=0.0, max_value=4.0),
    )
    def test_shift_equivariance(self, scores, shift, lam):
        base = adaptive_threshold(scores, lam)
        moved = adaptive_threshold([s + shift for s in scores], lam)
        assert moved.value == pytest.approx(base.value + shift, abs=1e-9)
        assert moved.sigma == pytest.approx(base.sigma, abs=1e-9)


class TestShouldPrune:
    def test_inclusive_boundary(self):
        # mu = 0.5 and sigma = 0.5 exactly, so lambda1 = 1 puts the threshold
        # at 1.0, the lagging path's deficit; a larger lambda1 keeps it.
        threshold, deficits, pruned = prune([1.0, 0.0], lambda1=1.0)
        assert threshold.value == deficits[1] == 1.0
        assert pruned == [1]
        threshold, _, pruned = prune([1.0, 0.0], lambda1=1.0 + 1e-12)
        assert threshold.value > 1.0 and pruned == []

    def test_spec_shaped_beam(self):
        # Qualities {0.30, 0.20, 0.02}: only the straggler's deficit clears
        # the threshold built from the same qualities.
        threshold, deficits, pruned = prune([0.30, 0.20, 0.02])
        assert [deficits[pid] >= threshold.value for pid in range(3)] == [False, False, True]
        assert pruned == [2]

    @given(qualities=st.lists(st.floats(min_value=-50, max_value=50), max_size=6))
    def test_never_prunes_below_zero_threshold_gap(self, qualities):
        # +-10 give sigma >= 5, so the largest finite lambda1 overflows the
        # threshold to +inf, which no finite deficit reaches.
        threshold, _, pruned = prune(qualities + [10.0, -10.0], lambda1=sys.float_info.max)
        assert threshold.value == math.inf
        assert pruned == []


class TestHasConverged:
    def test_examples(self):
        assert check_stop([1e-7], DecodeConfig(epsilon_stop=1e-6)) == STOP_CONVERGED
        assert check_stop([0.5], DecodeConfig(epsilon_stop=1e-6)) is None
        for epsilon in (0.0, 1e-6):  # the boundary is inclusive
            config = DecodeConfig(epsilon_stop=epsilon)
            assert check_stop([epsilon], config) == STOP_CONVERGED
            assert check_stop([math.nextafter(epsilon, 1.0)], config) is None

    def test_negative_drift_converges(self):
        assert check_stop([-0.3], DecodeConfig(epsilon_stop=1e-6)) == STOP_CONVERGED

    def test_epsilon_validation(self):
        with pytest.raises(PreconditionError):
            DecodeConfig(epsilon_stop=-1e-9)


class TestTrajectoryStatistics:
    def test_pooled_example(self):
        stats = trajectory_statistics([[0.1, 0.3], [0.2]])
        assert stats["mean_advantage"] == pytest.approx(0.2, abs=1e-12)
        assert stats["variance"] == pytest.approx(0.02 / 3, abs=1e-12)
        assert stats["trajectory_count"] == 2

    def test_constant_pool_zero_variance(self):
        stats = trajectory_statistics([[0.1, 0.1], [0.1]])
        assert stats["variance"] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            trajectory_statistics([])
        with pytest.raises(PreconditionError):
            trajectory_statistics([[0.1], []])
