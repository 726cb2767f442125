"""
Three decoders on the two-arm world
===================================

The synthetic family poses the smallest interesting decision: two
reasoning lines, one drifting up at +0.05 per step, the other down at
-0.05, noise 0.2 on every observation. We run the drift-guided decoder,
the consensus-stopped foresight baseline, and plain autoregressive
completion over paired seeds, then compare accuracy against spend.
"""

import numpy as np

from driftbeam import DecodeConfig, PhiConfig, flops
from driftbeam.backends.synthetic import SyntheticModel, SyntheticTask
from driftbeam.runner import decode_with

task = SyntheticTask.two_arm(drift=0.05, noise_std=0.2, horizon=5)
model = SyntheticModel(task)
prompt = "Pick the best arm.\n"
params = 8_000_000_000
seeds = range(40)

config = DecodeConfig(
    beam_size=4,
    rollouts_per_candidate=4,
    rollout_depth=5,
    max_steps=6,
    lambda1=0.8,
    epsilon_stop=1e-6,
)


def run(method, seed):
    return decode_with(method, model, prompt, config.replace(seed=seed), PhiConfig(delta=0.8))


print(f"gold arm is {task.gold_label}; {len(list(seeds))} paired seeds\n")
print("method    hits   mean tokens   mean FLOPs @8B   stop reasons")
for method in ("mfs", "phi", "ar-cot"):
    hits, tokens, reasons = 0, [], {}
    for seed in seeds:
        result = run(method, seed)
        hits += result.final_answer == task.gold_label
        tokens.append(result.tokens_generated)
        reasons[result.stop_reason] = reasons.get(result.stop_reason, 0) + 1
    mean_tokens = float(np.mean(tokens))
    print(f"{method:8s}  {hits:4d}   {mean_tokens:11.1f}   {flops(int(mean_tokens), params):.3e}"
          f"   {reasons}")

# the ordering to look for: the drift-guided decoder finds the favorable
# arm far above chance at the lowest foresight spend, the consensus
# baseline agrees with itself without telling the arms apart, and plain
# completion is nearly free but guesses blind.
