"""
Anatomy of one pruning round
============================

Lagging paths are cut when their deficit behind the best path crosses an
adaptive band: mean + lambda1 * std of the live beam's current qualities.
The band widens when the beam disagrees with itself and collapses to the
mean when every path looks alike, so nothing is ever cut on a tie. This
script walks one beam through the arithmetic, then sweeps lambda1.
"""

import math

from driftbeam import DecodeConfig, adaptive_threshold, prune_beam
from driftbeam.engine import BeamPath, BeamState


def beam_with(qualities):
    paths = [BeamPath(path_id=pid, prefix=f"path {pid}\n", quality=quality)
             for pid, quality in enumerate(qualities)]
    state = BeamState(paths=paths)
    state.step_index = 1
    state.next_path_id = len(paths)
    return state


# -- the arithmetic, by hand ---------------------------------------------------
qualities = [0.30, 0.20, 0.02]
mu = math.fsum(qualities) / len(qualities)
var = math.fsum((q - mu) ** 2 for q in qualities) / len(qualities)
print(f"beam qualities {qualities}")
print(f"mu = {mu:.6f}, sigma = {math.sqrt(var):.6f}")

threshold = adaptive_threshold(qualities, lambda1=0.8)
print(f"threshold value at lambda1=0.8: {threshold.value:.6f}")
for q in qualities:
    gap = max(qualities) - q
    verdict = "prune" if gap >= threshold.value else "keep"
    print(f"  quality {q:5.2f}: deficit {gap:.4f} -> {verdict}")

# -- the same decision through the engine ---------------------------------------
beam = beam_with(qualities)
threshold, deficits, pruned = prune_beam(beam, DecodeConfig(beam_size=8, lambda1=0.8))
print(f"\nprune_beam cut paths {pruned}, {len(beam.paths)} remain active")
for pid in pruned:
    print(f"  record: path {pid} deficit {dict(deficits)[pid]:.4f} "
          f">= value {threshold.value:.4f}")

# -- lambda1 sweep ---------------------------------------------------------------
# larger lambda1 means a wider tolerance band: fewer cuts, more exploration.
print("\nlambda1   band value   paths cut")
for lam in (0.0, 0.4, 0.8, 1.2, 2.0):
    beam = beam_with(qualities)
    _, _, pruned = prune_beam(beam, DecodeConfig(beam_size=8, lambda1=lam))
    value = adaptive_threshold(qualities, lam).value
    print(f"{lam:7.1f}   {value:10.4f}   {sorted(pruned)}")

# -- the degenerate round ---------------------------------------------------------
beam = beam_with([0.25, 0.25, 0.25])
_, _, pruned = prune_beam(beam, DecodeConfig(beam_size=8, lambda1=0.8))
print(f"\nall-equal beam: sigma 0, cut {len(pruned)} paths (zero-width band binds nothing)")
