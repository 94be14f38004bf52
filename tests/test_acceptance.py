"""Acceptance suite: one test per release criterion, full scale, timed.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion with its runtime against the budget.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from conftest import random_policy
from gkserver.chains import (
    binary_chain,
    binary_eet,
    eet_oracle_table,
    eet_table,
    harmonic_chain,
    harmonic_eet,
    random_chain,
)
from gkserver.harmonic import alpha, alpha_closed_form, alpha_table
from gkserver.potential import PotentialContext, expected_drift, verify_trace
from gkserver.simulate import ExperimentConfig, run
from gkserver.subsets import (
    MemorylessPolicy,
    check_monotonicity,
    check_subset_alpha_bound,
    lower_bound_hk,
    solve_system,
)


def _report(criterion: int, started: float, budget: float, detail: str) -> None:
    elapsed = time.monotonic() - started
    print(f"\ncriterion {criterion}: PASS in {elapsed:.2f}s (budget {budget:.0f}s) - {detail}")
    assert elapsed < budget, f"criterion {criterion} exceeded its {budget}s budget"


def test_criterion_1_harmonic_recursion():
    t0 = time.monotonic()
    for ell in range(1, 31):
        assert alpha(ell) == alpha_closed_form(ell)
    assert alpha(4) == 16
    assert alpha(5) == 65
    _report(1, t0, 1, "recursion = closed form for ell <= 30; a(4)=16, a(5)=65")


def test_criterion_2_harmonic_chain_eet_vs_oracle():
    t0 = time.monotonic()
    checked = 0
    for k in range(1, 13):
        oracle = eet_oracle_table(harmonic_chain(k))
        for ell in range(k + 1):
            assert harmonic_eet(k, ell) == oracle[ell]
            checked += 1
    _report(2, t0, 10, f"harmonic-chain EET exact vs oracle, {checked} states, k <= 12")


def test_criterion_3_closed_form_vs_oracle_all_chains():
    t0 = time.monotonic()
    rng = random.Random(303)
    count = 0
    for k in range(1, 13):
        for chain in (harmonic_chain(k), binary_chain(k)):
            assert eet_table(chain) == eet_oracle_table(chain)
            count += 1
    for _ in range(200):
        k = rng.randint(1, 12)
        chain = random_chain(k, rng)
        assert eet_table(chain) == eet_oracle_table(chain)
        count += 1
    _report(3, t0, 30, f"closed form = oracle on {count} chains (incl. 200 random)")


def test_criterion_4_uniform_system_collapse():
    t0 = time.monotonic()
    headline = {2: 4, 3: 15, 4: 64, 5: 325}
    for k in range(1, 11):
        sol = solve_system(MemorylessPolicy.uniform(k))
        for mask in range(1 << k):
            assert sol.h[mask] == harmonic_eet(k, mask.bit_count())
        assert sol.h_k == k * alpha(k)
        if k in headline:
            assert sol.h_k == headline[k]
    _report(4, t0, 60, "uniform 2^k system = Hamming chain for k <= 10; h({k}) = k*a(k)")


def test_criterion_5_and_6_random_policy_bounds():
    t0 = time.monotonic()
    rng = random.Random(505)
    solved = 0
    for k in range(2, 9):
        a_k = alpha(k)
        for _ in range(500):
            policy = random_policy(k, rng)
            sol = solve_system(policy)
            assert sol.h_k >= lower_bound_hk(policy)
            if policy.is_uniform:
                assert sol.h_k == k * a_k
            else:
                assert sol.h_k > k * a_k
            # criterion 6: the two structural inequalities hold with no violations
            assert check_monotonicity(sol) == []
            assert check_subset_alpha_bound(sol) == []
            solved += 1
    tight = solve_system(MemorylessPolicy.from_probs([Fraction(2, 3), Fraction(1, 3)]))
    assert tight.h_k == 6 == lower_bound_hk(tight.policy)
    _report(5, t0, 300, f"{solved} random policies, k in 2..8: floor + strict-gap hold")
    print("criterion 6: PASS (within criterion 5) - zero monotonicity/drop-floor violations")


def test_criterion_7_lower_bound_simulation_agreement():
    t0 = time.monotonic()
    details = []
    for k, seed in ((2, 701), (3, 702), (4, 703)):
        cfg = ExperimentConfig.from_dict({
            "k": k, "n": [3] * k, "policy": [f"1/{k}"] * k,
            "adversary": "lower_bound", "phases": 100_000, "seed": seed,
        })
        summary, _ = run(cfg)
        target = k * alpha(k)
        assert summary.adv_cost == summary.phases          # adversary pays 1 per phase
        assert summary.alg_cost == summary.steps           # never serves in place
        assert summary.phase_length_se > 0
        assert abs(summary.mean_phase_length - target) <= 3 * summary.phase_length_se
        details.append(f"k={k}: {summary.mean_phase_length:.3f} vs {target}")
    _report(7, t0, 120, "; ".join(details))


def test_criterion_8_binary_chain_and_n2_simulation():
    t0 = time.monotonic()
    for k in range(1, 13):
        oracle = eet_oracle_table(binary_chain(k))
        for ell in range(k + 1):
            assert binary_eet(k, ell) == oracle[ell]
    for k in range(1, 21):
        for ell in range(1, k + 1):
            assert 2**k - 1 <= binary_eet(k, ell) <= 5 * 2**k
    details = []
    for k, seed in ((2, 801), (3, 802), (4, 803)):
        cfg = ExperimentConfig.from_dict({
            "k": k, "n": [2] * k, "policy": [f"1/{k}"] * k,
            "adversary": "n2", "phases": 100_000, "seed": seed,
        })
        summary, _ = run(cfg)
        target = float(binary_eet(k, 1))
        assert abs(summary.mean_phase_length - target) <= 3 * summary.phase_length_se
        details.append(f"k={k}: {summary.mean_phase_length:.3f} vs {target:g}")
    _report(8, t0, 60, "binary EET exact k<=12, bounds k<=20; n2 sim " + "; ".join(details))


def test_criterion_9_potential_verifier():
    t0 = time.monotonic()
    # exhaustive expected-drift floor for the uniform policy, k <= 6
    combos = 0
    for k in range(1, 7):
        ctx = PotentialContext.for_k(k)
        policy = MemorylessPolicy.uniform(k)
        a = alpha_table(k)
        for ell in range(1, k + 1):
            for served in range(1, ell + 1):
                q = tuple([1] * ell + [0] * (k - ell))
                adv = tuple(0 for _ in range(k))
                r = tuple([0] * served + [2] * (ell - served) + [1] * (k - ell))
                drift = expected_drift(q, adv, r, policy, ctx)
                assert drift == (served - 1) * a[k - ell] + 1
                assert drift >= 1
                combos += 1
    # 100 seeded k=3 traces: no hard violations, residual mean straddles 0
    ctx3 = PotentialContext.for_k(3)
    residuals = []
    for seed in range(100):
        cfg = ExperimentConfig.from_dict({
            "k": 3, "n": [3, 3, 3], "policy": ["1/3", "1/3", "1/3"],
            "adversary": "lower_bound", "phases": 200, "seed": 900 + seed,
            "emit_trace": True,
        })
        _, trace = run(cfg)
        report = verify_trace(trace, ctx3)
        assert report.hard_violations == []
        assert report.bound_holds
        residuals.append(float(report.residual))
    n = len(residuals)
    mean = sum(residuals) / n
    se = math.sqrt(sum((x - mean) ** 2 for x in residuals) / (n - 1) / n)
    assert abs(mean) <= 3 * se
    _report(9, t0, 120,
            f"{combos} drift combos >= 1; 100 traces clean; residual {mean:.2f} +- {se:.2f}")


def test_criterion_10_byte_identical_traces(tmp_path):
    t0 = time.monotonic()
    outs = []
    for name in ("a", "b"):
        trace_path = tmp_path / f"{name}.csv"
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps({
            "k": 3, "n": [3, 3, 3], "policy": ["1/3", "1/3", "1/3"],
            "adversary": "lower_bound", "phases": 500, "seed": 1010,
            "emit_trace": True, "trace_path": str(trace_path),
        }))
        proc = subprocess.run(
            [sys.executable, "-m", "gkserver", "simulate", str(cfg_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(trace_path.read_bytes())
    assert outs[0] == outs[1]
    _report(10, t0, 60, f"two seeded CLI runs, {len(outs[0])} identical bytes")
