"""Subset-state system: assembly, exact and iterative solves, bound checks."""

import hashlib
import random
from fractions import Fraction

import pytest

from conftest import random_policy
from gkserver.chains import harmonic_eet
from gkserver.harmonic import alpha, rational_to_str
from gkserver.subsets import (
    DEFAULT_TOLERANCE,
    MemorylessPolicy,
    SolverError,
    build_system,
    check_monotonicity,
    check_subset_alpha_bound,
    competitive_gap,
    lower_bound_hk,
    phi_transform,
    solve_system,
)

HALF = Fraction(1, 2)


def test_policy_validation():
    with pytest.raises(ValueError):
        MemorylessPolicy.from_probs([HALF, HALF, Fraction(0)])
    with pytest.raises(ValueError):
        MemorylessPolicy.from_probs([HALF, HALF, HALF])
    with pytest.raises(ValueError):
        MemorylessPolicy.from_probs([Fraction(3, 2), Fraction(-1, 2)])
    with pytest.raises(ValueError):
        MemorylessPolicy.from_probs([])


def test_policy_canonicalization_is_stable():
    p = MemorylessPolicy.from_probs([Fraction(1, 4), HALF, Fraction(1, 4)])
    assert p.probs == (HALF, Fraction(1, 4), Fraction(1, 4))
    assert p.source_order == (1, 0, 2)  # ties keep original order
    assert not p.is_uniform
    assert MemorylessPolicy.uniform(3).is_uniform


def test_build_system_k1():
    system = build_system(MemorylessPolicy.uniform(1))
    coeffs, rhs = system.rows[0b1]
    assert coeffs == {0b1: Fraction(1)} and rhs == 1
    assert solve_system(MemorylessPolicy.uniform(1)).h == (0, 1)


def test_build_system_k2_shape():
    system = build_system(MemorylessPolicy.uniform(2))
    assert set(system.rows) == {0b01, 0b10, 0b11}
    for coeffs, _ in system.rows.values():
        assert len(coeffs) <= 4  # k + 2


def test_build_system_top_equation_skewed():
    # S = {1,2} with p = (2/3, 1/3): (2/3)(h(S) - h({2})) = 1, no outside terms
    policy = MemorylessPolicy.from_probs([Fraction(2, 3), Fraction(1, 3)])
    coeffs, rhs = build_system(policy).rows[0b11]
    assert rhs == 1
    assert coeffs == {0b11: Fraction(2, 3), 0b10: Fraction(-2, 3)}


# hand elimination for p = (1/2, 1/2): h({1}) = h({2}) = 4, h({1,2}) = 6;
# for p = (2/3, 1/3): h({2}) = 6, h({1,2}) - h({2}) = 3/2
def test_solve_system_hand_values():
    sol = solve_system(MemorylessPolicy.uniform(2))
    assert (sol.h[0b01], sol.h[0b10], sol.h[0b11]) == (4, 4, 6)
    assert sol.max_residual == 0
    skew = solve_system(MemorylessPolicy.from_probs([Fraction(2, 3), Fraction(1, 3)]))
    assert skew.h[0b10] == 6
    assert skew.h[0b11] - skew.h[0b10] == Fraction(3, 2)


def test_solve_system_uniform_k3_matches_chain():
    sol = solve_system(MemorylessPolicy.uniform(3))
    assert sol.h_k == 15
    assert sol.h_k == harmonic_eet(3, 1)


def test_uniform_collapse_to_hamming_chain():
    for k in range(1, 7):
        sol = solve_system(MemorylessPolicy.uniform(k))
        for mask in range(1 << k):
            assert sol.h[mask] == harmonic_eet(k, mask.bit_count())


def test_lower_bound_hk_values():
    assert lower_bound_hk(MemorylessPolicy.uniform(2)) == 4
    assert lower_bound_hk(MemorylessPolicy.from_probs([Fraction(2, 3), Fraction(1, 3)])) == 6
    assert lower_bound_hk(MemorylessPolicy.uniform(3)) == 15


def test_competitive_gap_values():
    assert competitive_gap(MemorylessPolicy.uniform(2)) == 0
    assert competitive_gap(MemorylessPolicy.from_probs([Fraction(2, 3), Fraction(1, 3)])) == 2
    assert competitive_gap(MemorylessPolicy.uniform(3)) == 0


def test_hk_floor_and_gap_sign_random(rng):
    for k in range(2, 7):
        for _ in range(60):
            policy = random_policy(k, rng)
            sol = solve_system(policy)
            assert sol.h_k >= lower_bound_hk(policy)
            gap = competitive_gap(policy, sol)
            if policy.is_uniform:
                assert gap == 0
            else:
                assert gap > 0


def test_checks_empty_on_solved_systems(rng):
    cases = [
        solve_system(MemorylessPolicy.uniform(2)),
        solve_system(MemorylessPolicy.from_probs([Fraction(2, 3), Fraction(1, 3)])),
        solve_system(random_policy(4, rng)),
    ]
    for sol in cases:
        assert check_monotonicity(sol) == []
        assert check_subset_alpha_bound(sol) == []


def test_alpha_bound_tight_cases():
    # equality at |S| = k for the uniform policy and at S = {k} for (2/3, 1/3)
    sol = solve_system(MemorylessPolicy.uniform(2))
    assert HALF * (sol.h[0b11] - sol.h[0b10]) == alpha(1)
    skew = solve_system(MemorylessPolicy.from_probs([Fraction(2, 3), Fraction(1, 3)]))
    assert Fraction(1, 3) * skew.h[0b10] == alpha(2)
    s3 = solve_system(MemorylessPolicy.uniform(3))
    assert Fraction(1, 3) * s3.h[0b100] == alpha(3)


def test_phi_transform_values_and_round_trip(rng):
    sol = solve_system(MemorylessPolicy.uniform(2))
    phi = phi_transform(sol)
    assert phi[0] == 0
    assert phi[0b11] == 6
    assert phi[0b01] == 2  # h({1,2}) - h({2})
    for k in (3, 4, 5):
        policy = random_policy(k, rng)
        sol = solve_system(policy)
        phi = phi_transform(sol)
        full = (1 << k) - 1
        for mask in range(1 << k):
            assert sol.h[mask] == sol.h[full] - phi[full & ~mask]


def test_phi_transform_flags_inconsistent_solution():
    sol = solve_system(MemorylessPolicy.uniform(2))
    broken = type(sol)(
        policy=sol.policy,
        h=(sol.h[0], sol.h[1] + 1, sol.h[2], sol.h[3]),
        mode=sol.mode, max_residual=sol.max_residual,
    )
    with pytest.raises(ValueError, match="transformed equation"):
        phi_transform(broken)


def test_iterative_matches_exact(rng):
    cases = [random_policy(k, rng) for k in (2, 3, 4, 5, 6, 8)]
    cases.append(MemorylessPolicy.uniform(10))
    for policy in cases:
        k = policy.k
        exact = solve_system(policy, mode="exact")
        approx = solve_system(policy, mode="iterative")
        assert approx.max_residual < DEFAULT_TOLERANCE
        assert approx.iterations is not None and approx.iterations >= 1
        worst = max(abs(approx.h[m] - exact.h[m]) for m in range(1 << k))
        assert worst <= 10 * DEFAULT_TOLERANCE


def _h_digest(sol) -> str:
    text = ",".join(rational_to_str(x) for x in sol.h)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


WEIGHTED_10 = MemorylessPolicy.from_probs(
    [Fraction(w, 154) for w in (40, 33, 29, 17, 12, 9, 7, 4, 2, 1)]
)


# Golden values. The iterates are sums of float64 corrections, so any change
# to the float factors or to the order of their operations moves h, the pass
# count or the residual; the solver's internals must keep them bit-identical.
@pytest.mark.parametrize("policy, iterations, residual, digest", [
    (MemorylessPolicy.uniform(11), 3, Fraction(5, 425541888504349469496573952),
     "e8370c493f909469"),
    (WEIGHTED_10, 4, Fraction(467, 23271822027581611613093888), "855049512325cfd2"),
], ids=["uniform11", "weighted10"])
def test_iterative_golden(policy, iterations, residual, digest):
    sol = solve_system(policy, mode="iterative")
    assert sol.iterations == iterations
    assert sol.max_residual == residual
    assert _h_digest(sol) == digest


def test_iterative_golden_budget_exhaustion():
    with pytest.raises(SolverError) as err:
        solve_system(WEIGHTED_10, mode="iterative", max_iterations=2)
    assert err.value.iterations == 2
    assert err.value.residual == Fraction(421, 21165598834688)


def test_iterative_uniform_k13():
    k = 13
    sol = solve_system(MemorylessPolicy.uniform(k), mode="iterative")
    assert sol.iterations >= 1
    assert abs(sol.h_k - k * alpha(k)) < DEFAULT_TOLERANCE


def test_iterative_reports_residual_on_budget_exhaustion():
    policy = MemorylessPolicy.uniform(4)
    with pytest.raises(SolverError) as err:
        solve_system(policy, mode="iterative", max_iterations=0)
    assert err.value.residual > 0
    assert err.value.iterations == 0


def test_mode_caps():
    with pytest.raises(ValueError):
        solve_system(MemorylessPolicy.uniform(13), mode="exact")
    with pytest.raises(ValueError):
        solve_system(MemorylessPolicy.uniform(15), mode="iterative")
    with pytest.raises(ValueError):
        solve_system(MemorylessPolicy.uniform(25), mode="iterative")
    with pytest.raises(ValueError):
        solve_system(MemorylessPolicy.uniform(2), mode="fancy")
