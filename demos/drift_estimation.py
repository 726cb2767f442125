"""
Estimating drift from foresight rollouts
========================================

A path's quality over deliberation steps behaves like a random walk:
a predictable trend (is this line of reasoning getting anywhere?) buried
in rollout noise. The engine's scoring rule recovers that trend by
averaging lookahead qualities and subtracting the parent's latest value.
This script shows the estimator contracting at the 1/sqrt(N) rate and the
convergence test telling a flat process from a drifting one.
"""

import numpy as np

from driftbeam import DecodeConfig, check_stop, estimate_predictable_advantage

rng = np.random.default_rng(42)

# -- error contraction --------------------------------------------------------
# true drift 0.05 per step, rollout noise 0.2: exactly the regime the
# two-arm synthetic world runs in.
true_drift, sigma = 0.05, 0.2
parent_quality = -1.3

print("rollouts    mean |error|    4*sigma/sqrt(N)")
for n in (4, 16, 64, 256, 1024, 4096):
    errors = []
    for _ in range(200):
        rollouts = parent_quality + rng.normal(true_drift, sigma, n)
        drift = estimate_predictable_advantage(parent_quality, rollouts.tolist())
        errors.append(abs(drift - true_drift))
    bound = 4 * sigma / np.sqrt(n)
    print(f"{n:8d}    {np.mean(errors):11.5f}    {bound:15.5f}")

# -- residual spread ----------------------------------------------------------
# the estimate is the drift alone; the noise it was extracted from is the
# rollouts' own spread. (The adaptive prune threshold reads a different
# spread: that of the live beam's path qualities.)
rollouts = parent_quality + rng.normal(true_drift, sigma, 4096)
drift = estimate_predictable_advantage(parent_quality, rollouts.tolist())
print(f"\ndrift from 4096 rollouts: {drift:.4f} (true {true_drift})")
print(f"residual std of those rollouts: {np.std(rollouts):.4f} (true {sigma})")

# -- convergence test ---------------------------------------------------------
# the engine's stop rule, check_stop, with epsilon at 3*sigma/sqrt(N): a flat
# process should read as converged almost always and a drifting one almost
# never.
n = 10_000
epsilon = float(3 * sigma / np.sqrt(n))
config = DecodeConfig(epsilon_stop=epsilon)
for label, mu in (("flat", 0.0), ("drifting", true_drift)):
    fired = 0
    for _ in range(300):
        drift = estimate_predictable_advantage(0.0, rng.normal(mu, sigma, n).tolist())
        fired += check_stop([drift], config) is not None
    print(f"{label:9s} process: converged in {fired}/300 trials (epsilon {epsilon:.4f})")
