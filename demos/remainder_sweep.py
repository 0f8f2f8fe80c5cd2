#!/usr/bin/env python3
"""Sweeping the remainder term: S_k(x) - P_k(loglog x) across a grid.

Runs the verification harness on a desk-scale grid, prints the per-point
normalized ratios, and contrasts two normalizations of the remainder.
Dividing by (loglog x)^(k-1), the paper's exponent, is a valid bound but
not a sharp one: at k = 2 the ratio stays bounded yet drifts down, from
1.66 at x = 10^3 to 1.11 at 10^6.  Dividing by (loglog x)^k makes it
decay faster still, from 0.86 to 0.42.

Writes remainder_sweep.csv next to this script (override with argv[1]).
"""

import math
import sys
from pathlib import Path

from mpmath import mpf

from mertens_sums import GridSpec, emit_report, verify_grid

grid = GridSpec(start=10**3, stop=10**6, points=10)

# one engine pass per x yields every k; rows come back k-major
all_rows = verify_grid((1, 2, 3), grid)
for k in (1, 2, 3):
    rows = [r for r in all_rows if r.k == k]
    print(f"=== k = {k} ===")
    print(f"{'x':>10} {'S_k':>14} {'P_k':>14} {'ratio':>10}")
    for r in rows:
        print(f"{r.x:>10} {float(mpf(r.s_value)):>14.8f} "
              f"{float(mpf(r.main_term)):>14.8f} {float(mpf(r.ratio)):>10.5f}")
    print()

print("=== exponent check (k=2): k-1 stays bounded, k decays faster ===")
rows2 = [r for r in all_rows if r.k == 2]
print(f"{'x':>10} {'/(loglog x)^1':>14} {'/(loglog x)^2':>14}")
for r in rows2:
    corrected = float(mpf(r.ratio))
    uncorrected = corrected / math.log(math.log(r.x))
    print(f"{r.x:>10} {corrected:>14.6f} {uncorrected:>14.6f}")

out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).with_name("remainder_sweep.csv")
out.write_bytes(emit_report(all_rows, "csv"))
print(f"\nwrote {out}")
