#!/usr/bin/env python3
"""Telling the mixed set apart from the pure sample, two ways.

The mixed set agrees with the sample on every intensity check, but counting
points inside the Cantor set separates them decisively, and a randomized
cyclic shift exposes its non-stationarity.  Both directions of the
stationarity test are shown: the sample passes, the mix fails.
"""

from fractions import Fraction
from functools import partial

from dcset import (
    distinguish_counterexample,
    fat_cantor_build,
    stationarity_test,
    BinSet,
    UnitGrid,
)
# Row makers: all replicas of one range drawn at once, as NaN-padded rows.
from dcset.generators import _counterexample_rows, _sample_rows

SEED = 99
cantor = fat_cantor_build(Fraction(1, 2), 10)

print("=== count-in-C separates the two constructions ===")
report = distinguish_counterexample(cantor, depth=200, replicas=500, seed=SEED, level=1e-6)
print(f"sample arm mean:        {report.details['mean_sample']:.1f}  (~ depth * mes C)")
print(f"counterexample arm mean: {report.details['mean_counterexample']:.2f}  (~ mes C, depth-free)")
print(f"homogeneity statistic {report.statistic:.1f} vs threshold {report.threshold:.1f} "
      f"-> equality rejected: {report.rejected}")

print("\n=== stationarity under a random cyclic shift ===")
half = BinSet(UnitGrid(2), frozenset({0}))
passing = stationarity_test(partial(_sample_rows, 200), half, 400, SEED)
print(f"uniform sample:  statistic {passing.statistic:.1f} < {passing.threshold:.1f} "
      f"-> stationary ({passing.passed})")

failing = stationarity_test(partial(_counterexample_rows, 200, cantor), cantor, 400, SEED)
print(f"counterexample:  statistic {failing.statistic:.1f} > {failing.threshold:.1f} "
      f"-> shift detected ({not failing.passed})")
print("\nshifting scatters the Cantor-bound Poisson points into the gaps and")
print("sweeps sample points onto the Cantor set, so the count-in-C law moves.")
