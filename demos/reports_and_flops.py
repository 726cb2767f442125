"""
Benchmark reports and exact FLOPs accounting
============================================

Runs are graded by normalized exact match, costed at exactly 6 * tokens *
params FLOPs, and compared as (accuracy delta, FLOPs ratio, per-task token
deltas). This script benches two methods on a small synthetic suite, emits
the markdown report, and shows the answer normalizer's edge cases.
"""

from driftbeam import compare_runs, emit_report, flops, normalize_answer
from driftbeam.runner import execute_run, parse_config

# -- bench two methods -------------------------------------------------------
decode_knobs = {"beam_size": 2, "rollouts_per_candidate": 2,
                "rollout_depth": 4, "max_steps": 5}
runs = {}
for method in ("mfs", "ar-cot"):
    config = parse_config({
        "method": method,
        "dataset": "synthetic:8",
        "seed": 17,
        "decode": decode_knobs,
    })
    runs[method] = execute_run(config).metrics
    print(f"{method:7s}: {runs[method].correct}/{runs[method].total} correct, "
          f"{runs[method].tokens_generated} tokens, {runs[method].flops:.3e} FLOPs")

# -- compare -------------------------------------------------------------------
# The same dict `driftbeam compare` prints; the ratio is "inf" when mfs cost nothing.
comparison = compare_runs(runs["mfs"], runs["ar-cot"])
print(f"\naccuracy delta (mfs - ar-cot): {comparison['accuracy_delta']:+.3f}")
print(f"FLOPs ratio (ar-cot / mfs):    {comparison['flops_ratio']:.3f}")
print(f"first token deltas: {comparison['token_deltas'][:3]}")

# -- report table ----------------------------------------------------------------
table = {
    method: {"synthetic:8": metrics}
    for method, metrics in runs.items()
}
print("\n" + emit_report(table, format="markdown").decode())

# -- the cost rule is exact integer arithmetic -------------------------------------
n, p = 5_687_500, 8_000_000_000
print(f"flops({n}, {p:.0e}) = {flops(n, p)} (exactly 6np)")

# -- normalization corner cases ----------------------------------------------------
pairs = [("  42. ", "42"), ("2e3", "2000"), ("1,234", "1234"),
         ("'YES'", "yes"), ("007", "7"), ("3.50", "3.5")]
print("\nraw          -> normalized")
for raw, _ in pairs:
    print(f"{raw!r:12s} -> {normalize_answer(raw)!r}")
