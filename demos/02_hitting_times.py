#!/usr/bin/env python3
"""Exact extinction times of the two chains behind the analysis.

The uniform policy's Hamming distance from an adversary that reveals one
server per request walks a birth-death chain: down 1/k, up (k-i)/k. When
every metric has just two points the walk instead steps down i/k and up
(k-i)/k, which changes the hitting time of 0 from Theta(k!) to
Theta(2^k). Everything below is computed twice: once by closed form,
once by exact elimination of the tridiagonal system, and compared for
rational equality, then cross-checked by Monte Carlo.
"""

import numpy as np

from gkserver import (
    binary_chain,
    binary_eet,
    eet_oracle_table,
    eet_table,
    harmonic_chain,
    harmonic_eet,
    simulate_extinction_times,
    stationary_and_return_check,
)

k = 6
print(f"k = {k}: h(l) = expected steps to reach 0 from Hamming distance l\n")
print(f"{'l':>3} {'harmonic h(l)':>15} {'binary h(l)':>14}")
for ell in range(k + 1):
    hh = harmonic_eet(k, ell)
    hb = binary_eet(k, ell)
    print(f"{ell:>3} {hh:>15} {str(hb):>14}")

for kind, chain in (("harmonic", harmonic_chain(k)), ("binary", binary_chain(k))):
    assert eet_table(chain) == eet_oracle_table(chain)
    assert stationary_and_return_check(chain)
print("\nclosed form == tridiagonal solve == detailed-balance return time, exactly.")

print("\nMonte Carlo from l = 1 (50k walks each):")
for kind, chain, exact in (
    ("harmonic", harmonic_chain(k), harmonic_eet(k, 1)),
    ("binary", binary_chain(k), binary_eet(k, 1)),
):
    times = simulate_extinction_times(chain, 1, walks=50_000, seed=7)
    mean = float(np.mean(times))
    se = float(np.std(times, ddof=1) / np.sqrt(len(times)))
    print(f"  {kind:>8}: {mean:10.3f} +- {se:.3f}   exact {float(exact):g}")
