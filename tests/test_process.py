"""Process-core unit tests: drift, deficit, threshold, convergence, pooling.

Numeric expectations are computed by hand from the definitions (means and
population standard deviations under exact summation) and pinned here.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftbeam import (
    AdaptiveThreshold,
    DoobEstimate,
    NumericInputError,
    PreconditionError,
    QualityTrajectory,
    adaptive_threshold,
    deficit,
    estimate_predictable_advantage,
    has_converged,
    should_prune,
    trajectory_statistics,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestDriftEstimate:
    def test_mean_minus_previous(self):
        est = estimate_predictable_advantage(-1.0, [-0.8, -0.6, -0.7])
        assert est.drift == pytest.approx(0.3, abs=1e-12)
        assert est.sample_count == 3

    def test_residual_std_is_population(self):
        est = estimate_predictable_advantage(0.0, [0.1, 0.2, 0.3])
        assert est.residual_std == pytest.approx(math.sqrt(0.02 / 3), abs=1e-12)

    def test_single_rollout_zero_residual(self):
        est = estimate_predictable_advantage(-0.5, [-0.4])
        assert est == DoobEstimate(drift=pytest.approx(0.1), residual_std=0.0, sample_count=1)

    def test_negative_drift(self):
        est = estimate_predictable_advantage(-0.2, [-0.9, -0.7])
        assert est.drift == pytest.approx(-0.6, abs=1e-12)

    def test_empty_rollouts_rejected(self):
        with pytest.raises(PreconditionError):
            estimate_predictable_advantage(0.0, [])

    @pytest.mark.parametrize("qualities", [
        [-1e308, -1e308],  # the sum leaves the float range
        [1e200, -1e200],  # a squared deviation does
    ])
    def test_overflow_is_a_named_numeric_error(self, qualities):
        with pytest.raises(NumericInputError, match="rollout_qualities"):
            estimate_predictable_advantage(0.0, qualities)

    def test_non_finite_rejected(self):
        with pytest.raises(NumericInputError):
            estimate_predictable_advantage(float("nan"), [0.1])
        with pytest.raises(NumericInputError):
            estimate_predictable_advantage(0.0, [0.1, float("inf")])

    @given(prev=finite, qs=st.lists(finite, min_size=1, max_size=16))
    def test_drift_shift_identity(self, prev, qs):
        # Shifting every input by c shifts the mean by c, leaving drift fixed.
        base = estimate_predictable_advantage(prev, qs)
        shifted = estimate_predictable_advantage(prev + 10.0, [q + 10.0 for q in qs])
        assert shifted.drift == pytest.approx(base.drift, abs=1e-9)


class TestDeficit:
    def test_examples(self):
        assert deficit(0.30, 0.02) == pytest.approx(0.28, abs=1e-12)
        assert deficit(-0.458, -1.027) == pytest.approx(0.569, abs=1e-12)

    def test_self_deficit_zero(self):
        assert deficit(0.5, 0.5) == 0.0

    @given(best=finite, q=finite)
    def test_antisymmetry(self, best, q):
        assert deficit(best, q) == -deficit(q, best)


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
        th = AdaptiveThreshold(mu=0.2, sigma=0.0, lambda1=0.8, value=0.2)
        assert should_prune(0.2, th) is True
        assert should_prune(0.2 - 1e-12, th) is False

    def test_spec_shaped_beam(self):
        # Qualities {0.30, 0.20, 0.02}: only the straggler's deficit clears
        # the threshold built from the same qualities.
        qualities = [0.30, 0.20, 0.02]
        th = adaptive_threshold(qualities, 0.8)
        best = max(qualities)
        decisions = [should_prune(deficit(best, q), th) for q in qualities]
        assert decisions == [False, False, True]

    @given(d=finite)
    def test_never_prunes_below_zero_threshold_gap(self, d):
        th = AdaptiveThreshold(mu=0.0, sigma=0.0, lambda1=0.0, value=math.inf)
        assert should_prune(d, th) is False


class TestHasConverged:
    def test_examples(self):
        assert has_converged(1e-7, 1e-6) is True
        assert has_converged(0.5, 1e-6) is False
        assert has_converged(0.0, 0.0) is True  # boundary is inclusive

    def test_negative_drift_converges(self):
        assert has_converged(-0.3, 1e-6) is True

    def test_epsilon_validation(self):
        with pytest.raises(PreconditionError):
            has_converged(0.1, -1e-9)


class TestTrajectory:
    def test_append_and_latest(self):
        traj = QualityTrajectory(path_id=0)
        traj.append(0, -0.5)
        traj.append(1, -0.4)
        assert traj.latest_quality == -0.4
        assert len(traj) == 2

    def test_contiguity_enforced(self):
        traj = QualityTrajectory(path_id=0)
        traj.append(2, -0.1)
        with pytest.raises(PreconditionError):
            traj.append(4, -0.2)

    def test_fork_isolated(self):
        parent = QualityTrajectory(path_id=0)
        parent.append(0, -0.9)
        child = parent.fork(5)
        child.append(1, -0.3)
        assert len(parent) == 1
        assert child.path_id == 5
        assert child.points[0] == parent.points[0]

    def test_empty_latest_raises(self):
        with pytest.raises(PreconditionError):
            QualityTrajectory(path_id=3).latest_quality

    @given(qs=st.lists(finite, min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_append_only_history(self, qs):
        traj = QualityTrajectory(path_id=1)
        for i, q in enumerate(qs):
            before = list(traj.points)
            traj.append(i, q)
            assert traj.points[: len(before)] == before


class TestTrajectoryStatistics:
    def test_pooled_example(self):
        stats = trajectory_statistics([[0.1, 0.3], [0.2]])
        assert stats.mean_advantage == pytest.approx(0.2, abs=1e-12)
        assert stats.variance == pytest.approx(0.02 / 3, abs=1e-12)
        assert stats.trajectory_count == 2

    def test_constant_pool_zero_variance(self):
        stats = trajectory_statistics([[0.1, 0.1], [0.1]])
        assert stats.variance == 0.0

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            trajectory_statistics([])
        with pytest.raises(PreconditionError):
            trajectory_statistics([[0.1], []])
