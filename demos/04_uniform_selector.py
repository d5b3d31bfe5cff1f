#!/usr/bin/env python3
"""From a replica ensemble to a uniformly distributed selector.

An ensemble of sampled replicas induces a replica-by-bin support mask; a full
coupling on that mask (when it exists) drives a selector whose value is
always one of its replica's own points yet is uniformly distributed across
bins.  A deliberately thin ensemble shows the obstruction: the cheap cover
whose complement names the unreachable bins.
"""

import numpy as np

from dcset import (
    Ensemble,
    Enumeration,
    InsufficientDensity,
    Seed,
    UnitGrid,
    build_support_mask,
    ks_uniform,
    sample_ensemble,
    uniform_selector,
    verify_selector,
)

SEED = 7
grid = UnitGrid(8)

print("=== rich ensemble: 2000 replicas, 64 points each ===")
ensemble = sample_ensemble(64, 2000, grid, SEED)
mask = build_support_mask(ensemble)
print(f"support mask fills {mask.count() / (2000 * 8):.2%} of its cells")

table = uniform_selector(ensemble, Seed(SEED + 1))
print(f"selector sound (every value is its replica's own point): "
      f"{verify_selector(ensemble, table)}")
report = ks_uniform(table.values, level=0.01)
print(f"KS against uniform: {report.statistic:.4f} < {report.threshold:.4f} "
      f"-> {report.passed}")
print("per-bin counts:", np.bincount(grid.bins(table.values), minlength=8))

print("\n=== thin ensemble: every replica avoids the lower quarter ===")

upper = 0.25 + 0.75 * sample_ensemble(12, 200, grid, SEED).points
thin = Ensemble([Enumeration(row, depth=12, provenance="upper-only") for row in upper], grid)
try:
    uniform_selector(thin, Seed(SEED + 2))
except InsufficientDensity as obstruction:
    print(f"no uniform selector: cover cost {obstruction.cost} < 1")
    print(f"bins no replica reaches: {sorted(obstruction.thin_bins)}")
    print("the cover is the finite-scale echo of a set the random set misses.")
