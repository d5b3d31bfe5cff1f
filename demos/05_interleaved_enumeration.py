#!/usr/bin/env python3
"""The interleaved enumeration: fresh uniform selectors woven between base points.

Odd tables walk through each replica's own enumeration (first unused point);
even tables are uniform selectors conditioned on everything so far.  The
telltale property: after round j, the first j+1 base points of every replica
are already among the 2j+1 tables - the enumeration gets rebuilt with fresh
uniform randomness threaded through it.
"""

import numpy as np

from dcset import (
    Seed,
    UnitGrid,
    chi_square_independence,
    interleave_containment,
    interleaved_enumeration,
    ks_uniform,
    sample_ensemble,
)

SEED = 314
grid = UnitGrid(8)
rounds = 6

ensemble = sample_ensemble(256, 800, grid, SEED)
tables = interleaved_enumeration(ensemble, rounds, UnitGrid(2), Seed(SEED + 1))
print(f"built {len(tables)} tables over {rounds} rounds for 800 replicas")

contained = interleave_containment(ensemble, tables)
print("\ncontainment of the first j+1 base points, per round:")
for j in range(rounds + 1):
    print(f"  round {j}: holds in {contained[:, j].mean():.0%} of replicas")

print("\none replica's story (replica 0):")
base = ensemble.points[0, : ensemble.lengths[0]]
print("  base points:", np.round(base[: rounds + 1], 3))
print("  tables:     ", np.round([t.values[0] for t in tables], 3))

print("\neven tables are fresh uniform selectors:")
first_bins = grid.bins(tables[0].values)
for j in range(1, rounds + 1):
    even = tables[2 * j - 1]
    ks = ks_uniform(even.values, level=0.01)
    chi = chi_square_independence(first_bins, grid.bins(even.values), 8, 8, 0.01)
    print(f"  table {2 * j}: KS {ks.statistic:.3f} ({'ok' if ks.passed else 'FAIL'}), "
          f"independence of the first table {'ok' if chi.passed else 'FAIL'}")
