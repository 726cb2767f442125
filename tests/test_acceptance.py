"""Acceptance suite: ten criteria, one test each, one verdict line each.

Every criterion runs on the synthetic and scripted backends only — no
network, no GPU. Tolerances are pinned in the assertions; a criterion
passes only through its stated bound. The verdict lines are echoed in the
terminal summary (see conftest.ACCEPTANCE_LINES).
"""

import itertools
from collections import Counter

import numpy as np
import pytest

import conftest
from driftbeam import (
    DecodeConfig,
    PhiConfig,
    RunMetrics,
    ScriptedModel,
    adaptive_threshold,
    canonical_json,
    compare_runs,
    decode,
    estimate_predictable_advantage,
    flops,
    has_converged,
    phi_advantage,
    phi_decode,
    phi_stop,
    prune_beam,
)
from driftbeam.backends import load_fixture
from driftbeam.backends.synthetic import SyntheticModel, SyntheticTask
from driftbeam.engine import BeamPath, BeamState, Candidate
from driftbeam.metrics import PerExample
from driftbeam.process import QualityTrajectory
from driftbeam.runner import decode_with, execute_run, parse_config, write_outputs

from fixture_specs import METHODS, SPECS, decode_config_for, phi_config_for


def record(number: int, detail: str) -> None:
    conftest.ACCEPTANCE_LINES.append(f"criterion {number:2d}: PASS — {detail}")


def replay(spec, method, *, epsilon_stop=1e-6):
    model = ScriptedModel(load_fixture(spec.fixture_path))
    config = decode_config_for(spec, epsilon_stop=epsilon_stop)
    return decode_with(method, model, spec.prompt, config, phi_config_for(spec))


def test_criterion_01_doob_estimator_consistency():
    """|estimated drift − 0.05| ≤ 4σ/√N for N = 1e4 in ≥ 99% of 1000 trials."""
    rng = np.random.default_rng(20260801)
    sigma, n, trials = 0.2, 10_000, 1000
    bound = 4.0 * sigma / np.sqrt(n)
    hits = 0
    for _ in range(trials):
        parent = float(rng.normal(0.0, 1.0))
        rollouts = parent + rng.normal(0.05, sigma, n)
        est = estimate_predictable_advantage(parent, rollouts.tolist())
        hits += abs(est.drift - 0.05) <= bound
    assert hits >= 990
    record(1, f"drift within 4σ/√N in {hits}/{trials} trials")


def test_criterion_02_convergence_stop_soundness():
    """ε_stop = 3σ/√N: fires ≥ 99% at zero drift, ≤ 1% at drift 0.05."""
    rng = np.random.default_rng(20260802)
    sigma, n, trials = 0.2, 10_000, 1000
    epsilon = 3.0 * sigma / np.sqrt(n)

    def fire_count(mu: float) -> int:
        fired = 0
        for _ in range(trials):
            est = estimate_predictable_advantage(
                0.0, rng.normal(mu, sigma, n).tolist()
            )
            fired += has_converged(est.drift, epsilon)
        return fired

    null_fires = fire_count(0.0)
    drift_fires = fire_count(0.05)
    assert null_fires >= 990
    assert drift_fires <= 10
    record(2, f"stop fired {null_fires}/1000 at zero drift, {drift_fires}/1000 at drift 0.05")


def test_criterion_03_threshold_exactness():
    """Pinned hand value plus λ1-monotonicity and shift-equivariance."""
    pinned = adaptive_threshold([0.10, 0.20, 0.30], 0.8).value
    assert pinned == pytest.approx(0.265320, abs=1e-6)

    rng = np.random.default_rng(20260803)
    for _ in range(10_000):
        scores = rng.normal(0.0, 1.0, int(rng.integers(2, 9))).tolist()
        lam_low, lam_high = sorted(rng.uniform(0.0, 2.0, 2).tolist())
        shift = float(rng.uniform(-5.0, 5.0))
        low = adaptive_threshold(scores, lam_low).value
        high = adaptive_threshold(scores, lam_high).value
        assert low <= high
        shifted = adaptive_threshold([s + shift for s in scores], lam_low).value
        assert shifted == pytest.approx(low + shift, abs=1e-9)
    record(3, f"value(0.10,0.20,0.30; 0.8) = {pinned:.6f}; both properties held on 10^4 sets")


def test_criterion_04_best_arm_identification():
    """≥ 90/100 seeds find the favorable arm; beats uniform-random selection.

    The uniform baseline selects the beam at random and manages paths
    without the foresight signal: uniform weights, pruning off, and no
    convergence shortcut — so it spends the full step budget. MFS must
    win strictly while never spending more tokens on the same seed.
    """
    task = SyntheticTask.two_arm(drift=0.05, noise_std=0.2, horizon=5)
    model = SyntheticModel(task)
    prompt = "Pick the best arm.\n"

    def config(seed: int, selection: str) -> DecodeConfig:
        guided = selection == "softmax"
        return DecodeConfig(
            beam_size=8,
            rollouts_per_candidate=8,
            rollout_depth=5,
            max_steps=6,
            lambda1=0.8,
            epsilon_stop=1e-6 if guided else None,
            selection=selection,
            prune_enabled=guided,
            seed=seed,
        )

    mfs_hits = uniform_hits = 0
    for seed in range(100):
        mfs = decode(model, prompt, config(seed, "softmax"))
        uniform = decode(model, prompt, config(seed, "uniform"))
        assert mfs.tokens_generated <= uniform.tokens_generated
        mfs_hits += mfs.final_answer == task.gold_label
        uniform_hits += uniform.final_answer == task.gold_label
    assert mfs_hits >= 90
    assert mfs_hits > uniform_hits
    record(4, f"foresight {mfs_hits}/100 vs uniform-random {uniform_hits}/100, never over budget")


def test_criterion_05_efficiency_direction():
    """Stopping saves tokens on every fixture; aggregate FLOPs ratio ≥ 1.2×."""
    params = 8_000_000_000
    mfs_total = phi_total = 0
    convergent = 0
    for spec in SPECS:
        stopped = replay(spec, "mfs").tokens_generated
        unstopped = replay(spec, "mfs", epsilon_stop=None).tokens_generated
        assert stopped <= unstopped, spec.name
        if spec.k_mfs >= spec.max_steps or spec.k_phi >= spec.max_steps:
            continue
        convergent += 1
        phi_tokens = replay(spec, "phi").tokens_generated
        assert stopped <= phi_tokens, spec.name
        mfs_total += stopped
        phi_total += phi_tokens
    ratio = flops(phi_total, params) / flops(mfs_total, params)
    assert ratio >= 1.2
    record(5, f"ε_stop never cost tokens on 10 fixtures; "
              f"aggregate FLOPs ratio {ratio:.4f} over {convergent} convergent fixtures")


def test_criterion_06_prune_safety():
    """1e5 randomized prune rounds: best path kept, bounds and records hold."""
    rng = np.random.default_rng(20260806)
    rounds = 100_000
    pruned_total = 0
    for i in range(rounds):
        width = int(rng.integers(1, 9))
        qualities = rng.normal(0.0, 1.0, width)
        if i % 10 == 0:
            qualities[:] = qualities[0]  # zero-sigma round
        paths = []
        for pid, quality in enumerate(qualities.tolist()):
            trajectory = QualityTrajectory(pid)
            trajectory.append(1, quality)
            paths.append(BeamPath(path_id=pid, prefix=f"P{pid}\n", trajectory=trajectory))
        beam = BeamState(paths=paths)
        beam.step_index = 1
        beam.next_path_id = width

        best_before = max(qualities.tolist())
        config = DecodeConfig(beam_size=8, lambda1=float(rng.uniform(0.0, 2.0)))
        threshold, _, records = prune_beam(beam, config)
        survivors = beam.active_paths()
        assert 1 <= len(survivors) <= config.beam_size
        assert max(p.trajectory.latest_quality for p in survivors) == best_before
        for entry in records:
            assert entry.deficit_value >= entry.threshold.value
        pruned_total += len(records)
    record(6, f"best path survived all {rounds} rounds ({pruned_total} prunes recorded)")


def test_criterion_07_bench_determinism(tmp_path):
    """Worker counts 1 and 8 yield byte-identical reports and traces."""
    files = ("metrics.json", "traces.jsonl", "report.md", "report.json")
    out_dirs = []
    for workers in (1, 8):
        out_dir = tmp_path / f"w{workers}"
        config = parse_config({
            "dataset": "synthetic:6",
            "seed": 21,
            "workers": workers,
            "output_dir": str(out_dir),
            "decode": {"beam_size": 2, "rollouts_per_candidate": 2,
                       "rollout_depth": 4, "max_steps": 6},
        })
        write_outputs(config, execute_run(config))
        out_dirs.append(out_dir)
    for name in files:
        assert (out_dirs[0] / name).read_bytes() == (out_dirs[1] / name).read_bytes(), name
    record(7, f"workers 1 vs 8: {len(files)} output files byte-identical")


def test_criterion_08_flops_exactness():
    """flops(n, p) = 6np exactly; pinned comparison ratio 1.469 ± 0.001."""
    rng = np.random.default_rng(20260808)
    for _ in range(1000):
        n = int(rng.integers(0, 10**7))
        p = int(rng.integers(1, 10**12))
        assert flops(n, p) == 6 * n * p

    def run_with(tokens: int) -> RunMetrics:
        examples = [PerExample(task_id="t1", predicted="4", gold="4",
                               tokens=tokens, stop_step=2, prune_count=0)]
        return RunMetrics.from_examples(examples, model_params=8_000_000_000)

    lean = run_with(5_687_500)
    heavy = run_with(8_354_167)
    assert lean.flops == 273_000_000_000_000_000
    ratio = compare_runs(lean, heavy).flops_ratio
    assert ratio == pytest.approx(1.469, abs=1e-3)
    record(8, f"6np exact on 10^3 pairs; comparison ratio {ratio:.6f}")


def test_criterion_09_baseline_equivalence():
    """phi advantage ≡ drift bit-for-bit; consensus stop matches the oracle."""
    rng = np.random.default_rng(20260809)
    for _ in range(10_000):
        parent = float(rng.normal(0.0, 2.0))
        rollouts = rng.normal(0.0, 2.0, int(rng.integers(1, 17))).tolist()
        assert phi_advantage(parent, rollouts) == (
            estimate_predictable_advantage(parent, rollouts).drift
        )

    def candidate_with_answer(index: int, label: int) -> Candidate:
        return Candidate(
            parent_path_id=0,
            index=index,
            step_text="step\n",
            step_tokens=2,
            finish_reason="delimiter",
            rollout_texts=(f"mull\nAnswer: a{label}",),
            rollout_qualities=(0.0,),
        )

    cases = 0
    deltas = (0.2, 0.4, 0.5, 0.6, 2.0 / 3.0, 0.75, 1.0)
    for width in range(1, 6):
        for labels in itertools.product(range(width), repeat=width):
            candidates = [candidate_with_answer(i, lab) for i, lab in enumerate(labels)]
            top_fraction = max(Counter(labels).values()) / width
            for delta in deltas:
                oracle = top_fraction >= delta
                assert phi_stop(candidates, PhiConfig(delta=delta)) == oracle
                cases += 1
    record(9, f"advantage bit-equal on 10^4 inputs; consensus matched oracle on {cases} cases")


def test_criterion_10_golden_traces():
    """All stored golden results reproduce byte-for-byte."""
    checked = 0
    for spec in SPECS:
        for method in METHODS:
            got = canonical_json(replay(spec, method).to_dict()) + b"\n"
            assert got == spec.golden_path(method).read_bytes(), (spec.name, method)
            checked += 1
    assert checked == 30
    record(10, f"{checked} golden replays byte-identical (10 fixtures × 3 methods)")
