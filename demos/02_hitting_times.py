#!/usr/bin/env python3
"""Exact extinction times of the two chains behind the analysis.

The uniform policy's Hamming distance from an adversary that reveals one
server per request walks a birth-death chain: down 1/k, up (k-i)/k. When
every metric has just two points the walk instead steps down i/k and up
(k-i)/k, which changes the hitting time of 0 from Theta(k!) to
Theta(2^k). Everything below is computed twice: once by closed form,
once by exact elimination of the tridiagonal system, and compared for
rational equality, then cross-checked by Monte Carlo through run(): with
the uniform policy a phase against the lower_bound adversary (n = 3) is
one harmonic walk from l = 1, and against the n2 adversary (n = 2) one
binary walk, so the mean phase length estimates h(1).

A harmonic phase averages 1956 steps at k = 6 and a binary one 63, so
the demo runs 20k harmonic phases and 50k binary ones.
"""

from gkserver import (
    ExperimentConfig,
    binary_chain,
    binary_eet,
    eet_oracle_table,
    eet_table,
    harmonic_chain,
    harmonic_eet,
    run,
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

print("\nMonte Carlo from l = 1: mean phase length of run() with the uniform policy")
for kind, adversary, n, phases, exact in (
    ("harmonic", "lower_bound", 3, 20_000, harmonic_eet(k, 1)),
    ("binary", "n2", 2, 50_000, binary_eet(k, 1)),
):
    summary, _ = run(ExperimentConfig.from_dict({
        "k": k, "n": [n] * k, "policy": [f"1/{k}"] * k,
        "adversary": adversary, "phases": phases, "seed": 7,
    }))
    mean, se = summary.mean_phase_length, summary.phase_length_se
    assert abs(mean - float(exact)) <= 3 * se
    print(f"  {kind:>8} ({adversary}, {phases} phases): {mean:10.3f} +- {se:.3f}"
          f"   exact {float(exact):g}")
