#!/usr/bin/env python3
"""Exact marginal/cover duality on small grids, step by step.

Walks through the two dual problems on hand-sized masks: the largest mass a
capped coupling can place on the allowed cells, and the cheapest row/column
cross covering them.  One integer max-flow yields both values plus witnesses,
and the gap is exactly zero every time.
"""

from fractions import Fraction

from dcset import (
    MarginalCaps,
    SupportMask,
    all_masks,
    full_coupling,
    monotone_chain_check,
    solve,
)

print("=== the 2x2 diagonal ===")
diag = SupportMask.from_cells(2, 2, [(0, 0), (1, 1)])
cert = solve(diag)
cover = cert.cover
print(f"coupling value {cert.value}, witness mass {cert.coupling().mass}")
print(f"cover value {cert.cover_cost}, witness U={sorted(cover.U)} V={sorted(cover.V)}")
print(f"gap = {cert.gap}  (always exactly 0)")

print("\n=== a single allowed cell caps the mass at the row budget ===")
corner = SupportMask.from_cells(2, 2, [(0, 0)])
print(f"value {solve(corner).value}; the cover buys just row 0 at cost 1/2")

print("\n=== growing the mask can only grow both values ===")
chain = [SupportMask.empty(2, 2), corner, diag]
report = monotone_chain_check(chain)
print(f"coupling values along the chain: {[str(v) for v in report.coupling_values]}")
print(f"cover values along the chain:    {[str(v) for v in report.cover_values]}")

print("\n=== probability couplings live exactly on rich-enough masks ===")
fc = full_coupling(diag)
print(f"row sums {fc.row_sums()} == caps; col sums {fc.col_sums()} == caps")

print("\n=== non-uniform budgets work the same way ===")
caps = MarginalCaps(
    (Fraction(1, 4), Fraction(3, 4)), (Fraction(2, 3), Fraction(1, 3))
)
value = solve(SupportMask.from_cells(2, 2, [(0, 0), (1, 0), (1, 1)]), caps).value
print(f"value with skewed caps: {value}")

print("\n=== sweeping every 3x3 mask: 512 instances, 512 zero gaps ===")
nonzero = sum(1 for mask in all_masks(3, 3) if solve(mask).gap != 0)
print(f"nonzero gaps found: {nonzero}")
