"""Subset-state system: assembly, exact and iterative solves, bound checks."""

import dataclasses
import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_policy
from gkserver import subsets
from gkserver.chains import harmonic_eet
from gkserver.harmonic import alpha, alpha_table, rational_to_str
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


@pytest.mark.parametrize("make, message", [
    (lambda: MemorylessPolicy((Fraction(1, 3), Fraction(2, 3)), (0, 1)),
     "canonical order violated (must be descending)"),
    (lambda: MemorylessPolicy((HALF, HALF), (0, 0)),
     "source_order must be a permutation of 0..k-1"),
    (lambda: MemorylessPolicy.uniform(0), "need k >= 1, got 0"),
    (lambda: solve_system(MemorylessPolicy.uniform(2), "iterative", tolerance=0),
     "tolerance must be positive"),
])
def test_input_checks_raise_their_messages(make, message):
    with pytest.raises(ValueError) as raised:
        make()
    assert raised.type is ValueError
    assert str(raised.value) == message


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


def test_competitive_gap_rejects_a_solution_of_another_policy():
    with pytest.raises(ValueError, match=r"the solution is of policy \['1/3', '1/3', '1/3'\], "
                                         r"not of \['1/2', '1/2'\]"):
        competitive_gap(MemorylessPolicy.uniform(2), solve_system(MemorylessPolicy.uniform(3)))


@pytest.mark.parametrize("length", [3, 9])
def test_solution_rejects_an_h_of_the_wrong_length(length):
    with pytest.raises(ValueError, match=f"h has {length} entries; a k = 3 system has 8 masks"):
        subsets.SubsetSolution(MemorylessPolicy.uniform(3), [Fraction(0)] * length, "exact",
                               Fraction(0))


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


def test_phi_transform_flags_nonzero_h_of_the_empty_set():
    sol = solve_system(MemorylessPolicy.uniform(3))
    broken = dataclasses.replace(sol, h=(Fraction(1), *sol.h[1:]))
    with pytest.raises(ValueError, match="transformed equation violated at Sbar mask 0x3"):
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


@pytest.mark.parametrize("k", [4, 8])
@pytest.mark.parametrize("tolerance", [Fraction(2), Fraction(3, 2)])
def test_iterative_tolerance_above_one_bounds_the_error_by_one(k, tolerance):
    """The certified bound holds for tolerances up to 1: a larger one stops as 1 would."""
    for policy in (MemorylessPolicy.uniform(k), random_policy(k, random.Random(k))):
        exact = solve_system(policy)
        approx = solve_system(policy, mode="iterative", tolerance=tolerance)
        assert approx.iterations >= 1 and approx.tolerance == tolerance
        assert max(abs(a - b) for a, b in zip(approx.h, exact.h)) < 1


def test_iterative_reports_residual_on_budget_exhaustion():
    policy = MemorylessPolicy.uniform(4)
    with pytest.raises(SolverError) as err:
        solve_system(policy, mode="iterative", max_iterations=0)
    assert err.value.residual > 0
    assert err.value.iterations == 0


@pytest.mark.parametrize("max_iterations", [-1, 2.5, True, None])
def test_iterative_rejects_a_bad_pass_budget_before_factoring(monkeypatch, max_iterations):
    monkeypatch.setattr(subsets, "_eliminate", lambda *args: pytest.fail("the system was factored"))
    with pytest.raises(ValueError, match=r"max_iterations must be an int >= 0, got "):
        solve_system(MemorylessPolicy.uniform(3), mode="iterative", max_iterations=max_iterations)


@pytest.mark.parametrize("bad, error", [(math.inf, OverflowError), (-math.inf, OverflowError),
                                        (math.nan, ValueError)])
def test_iterative_raises_on_a_non_finite_correction(monkeypatch, bad, error):
    # a correction that is no dyadic rational raises as float.as_integer_ratio does
    substitute = subsets._substitute
    monkeypatch.setattr(subsets, "_substitute",
                        lambda *args: [0.5, bad, *substitute(*args)[2:]])
    with pytest.raises(error, match="integer ratio"):
        solve_system(MemorylessPolicy.uniform(3), mode="iterative")


@pytest.mark.parametrize("length", [7, 9])
def test_residual_rejects_an_h_of_the_wrong_length(length):
    with pytest.raises(ValueError, match=f"h has {length} entries; a k = 3 system has 8 masks"):
        build_system(MemorylessPolicy.uniform(3)).residual([Fraction(1)] * length)


def test_mode_caps():
    with pytest.raises(ValueError):
        solve_system(MemorylessPolicy.uniform(13), mode="exact")
    with pytest.raises(ValueError):
        solve_system(MemorylessPolicy.uniform(15), mode="iterative")
    with pytest.raises(ValueError):
        solve_system(MemorylessPolicy.uniform(25), mode="iterative")
    with pytest.raises(ValueError):
        solve_system(MemorylessPolicy.uniform(2), mode="fancy")


def _fraction_oracle(policy):
    """h by the shared elimination core over Fraction: the rational reference."""
    system = build_system(policy)
    k, n = policy.k, 1 << policy.k
    store = subsets._eliminate([Fraction(v, system.w) for v in system.coefficients], k)
    return tuple(subsets._substitute(store, k, [Fraction(0)] + [Fraction(1)] * (n - 1)))


# one weight: small ones tie often, large ones skew the policy
_weights = st.one_of(st.integers(1, 3), st.integers(1, 10**6))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(_weights, min_size=1, max_size=9))
def test_exact_matches_fraction_oracle(weights):
    total = sum(weights)
    policy = MemorylessPolicy.from_probs([Fraction(w, total) for w in weights])
    sol = solve_system(policy)
    assert sol.h == _fraction_oracle(policy)
    assert all(type(v) is Fraction for v in sol.h)


SKEWED_5 = MemorylessPolicy.from_probs([Fraction(w, 100) for w in (40, 30, 20, 7, 3)])


@pytest.mark.parametrize("target", ["_substitute", "_lifted"])
def test_corrupted_lift_digit_raises(monkeypatch, target):
    """A digit off by one must fail the integer certificate, never be returned.

    Corrupting digit 0 of one entry either in the lift itself (the residual
    carries the error forward) or only where the vector is rebuilt (the
    reconstruction accepts the wrong numerator) leaves an h that does not
    solve the system.
    """
    real = getattr(subsets, target)

    if target == "_substitute":
        calls = []

        def corrupt(*args):
            y = real(*args)
            calls.append(y)
            if len(calls) == 1:
                y[2] = (y[2] + 1) % subsets._PRIME
            return y
    else:
        def corrupt(digits, i):
            return real(digits, i) + (i == 2)

    monkeypatch.setattr(subsets, target, corrupt)
    result = None
    with pytest.raises(ArithmeticError, match="integer check"):
        result = solve_system(SKEWED_5)
    assert result is None


def test_unsettled_lift_raises_at_the_cap(monkeypatch):
    """No reconstruction ever settles: the lift stops at its cap and raises."""
    monkeypatch.setattr(subsets, "_reconstruct", lambda *args: None)
    with pytest.raises(ArithmeticError, match="no stable solution"):
        solve_system(SKEWED_5)


@pytest.mark.parametrize("weights", [(1, 1, 1), (3, 2, 2)])
def test_rebuild_waits_for_the_digits_it_needs(weights):
    """Given one P-adic digit, `_rebuild` asks for the next before it settles an entry.

    `_lift` starts the rebuild only once the probe is stable, which in the
    other tests leaves enough digits that the numerator wait never runs;
    feeding the digits one at a time reaches it.
    """
    system = build_system(MemorylessPolicy.from_probs([Fraction(c, sum(weights)) for c in weights]))
    w = system.w
    k, n = system.k, 1 << system.k
    store = subsets._eliminate(system.coefficients, k, subsets._PRIME)
    lifted, r = [], [0] + [w] * (n - 1)
    for _ in range(12):
        y = subsets._substitute(store, k, r, subsets._PRIME)
        lifted.append(y)
        r = [v // subsets._PRIME for v in subsets._residual(system, r, y)]
    m = subsets._PRIME ** len(lifted)
    bound = math.isqrt(m >> 1)
    probe = subsets._reconstruct(subsets._lifted(lifted, n - 1), m, bound, bound)
    digits = lifted[:1]
    rebuild = subsets._rebuild(digits, probe)
    found = next(rebuild)
    assert found is None  # one digit cannot settle an entry: need >= 2
    while found is None:
        digits.append(lifted[len(digits)])
        found = next(rebuild)
    assert found == subsets._lift(system)


def test_pivot_vanishing_modulo_the_prime_raises():
    with pytest.raises(ArithmeticError, match="zero pivot at mask 0x1 modulo the prime"):
        subsets._eliminate([6], 1, 3)


@pytest.mark.parametrize("modulus", [2, 5, 1 << 521, (1 << 521) + 1])
def test_residue_paths_reject_a_modulus_that_is_not_mersenne(modulus):
    """Folding is exact only modulo 2^b - 1: both residue paths name any other modulus."""
    with pytest.raises(ValueError, match=f"modulus {modulus} is not of the form 2\\^b - 1"):
        subsets._eliminate([6], 1, modulus)
    store = subsets._eliminate([6], 1, 7)
    with pytest.raises(ValueError, match=f"modulus {modulus} is not of the form 2\\^b - 1"):
        subsets._substitute(store, 1, [0, 1], modulus)


def test_fold_keeps_residues_congruent_and_narrow():
    """Within [-P, P] a value comes back as it is; beyond, one fold keeps it
    congruent, and a value under 2b + 2 bits lands under b + 3 bits."""
    p, b = subsets._PRIME, subsets._PRIME_BITS
    top = (1 << 2 * b + 2) - 1
    values = [0, 1, p, p + 1, 1 << b, (1 << 1100) + 7, top, (p - 2) * (p - 4) * ((1 << 528) + 3)]
    assert values[-1].bit_length() == 1570
    values += [-v for v in values]
    folded = subsets._folds(np.array(values, object), np.array(p, object)).tolist()
    for v, f in zip(values, folded):
        assert f == subsets._fold(v, p) and type(f) is int
        assert (f - v) % p == 0
        if abs(v) <= p:
            assert f == v
        elif abs(v) <= top:
            assert abs(f) < 1 << b + 3
    # 13 = 3 * 2^2 + 1 folds to 3 + 1, and -13 = -4 * 2^2 + 3 to -4 + 3
    assert subsets._fold(13, 3) == 4 and subsets._fold(-13, 3) == -1


@pytest.mark.parametrize("k", range(1, 10))
def test_residue_store_stays_narrow_and_digits_canonical(k):
    """Folded factors stay within a few bits of P, and `_substitute` still returns
    the canonical residues of the sequential walk, which solve the system
    modulo P: that last check reads the system, not the factors."""
    rng, p = random.Random(k), subsets._PRIME
    for policy in (MemorylessPolicy.uniform(k), random_policy(k, random.Random(k))):
        system = build_system(policy)
        store = subsets._eliminate(system.coefficients, k, p)
        assert max(abs(v).bit_length() for v in store.tolist()) <= subsets._PRIME_BITS + 8
        r = [0] + [rng.randrange(-system.w << 8, system.w << 8) for _ in range((1 << k) - 1)]
        y = subsets._substitute(store, k, r, p)
        assert all(0 <= v < p for v in y)
        assert y == _sequential_substitute(store, k, r, p)
        assert all(v % p == 0 for v in subsets._residual(system, r, y))


@pytest.mark.parametrize("k, u_entries, l_entries",
                         [(8, 448, 2808), (10, 2304, 16630), (12, 11264, 92148)])
def test_factor_fill_in(k, u_entries, l_entries):
    """Decreasing mask order keeps fill-in small, and the same for every policy:
    residue and float factors hold the same count of U and L entries."""
    for policy in (MemorylessPolicy.uniform(k), random_policy(k, random.Random(k))):
        system = build_system(policy)
        w = system.w
        for scale, modulus in ((lambda a: a, subsets._PRIME), (lambda a: a / w, 0)):
            subsets._eliminate([scale(a) for a in system.coefficients], k, modulus)
            plan = subsets._plan(k)
            # pivot x's U row is ustart[x]:lstart[x], its L column lstart[x]:ustart[x - 1]
            assert sum(b - a for a, b in zip(plan.ustart, plan.lstart)) == u_entries
            assert sum(b - a for a, b in zip(plan.lstart[1:], plan.ustart)) == l_entries


def test_solves_at_one_k_reuse_its_cached_schedule():
    """An exact and then an iterative solve at one k work out its plan, and so
    the schedule their factorizations replay, once."""
    subsets._plan.cache_clear()
    solve_system(MemorylessPolicy.uniform(6))
    solve_system(random_policy(6, random.Random(6)), mode="iterative")
    info = subsets._plan.cache_info()
    assert info.misses == 1 and info.hits >= 1


def test_solves_at_one_k_reuse_their_cached_pattern_and_block_plan():
    """Each k's pattern and block plan are worked out once, then read by every
    build and substitution."""
    subsets._plan.cache_clear()
    solve_system(MemorylessPolicy.uniform(6))
    plan = subsets._plan(6)
    sol = solve_system(random_policy(6, random.Random(6)), mode="iterative")
    assert sol.iterations >= 1 and subsets._plan(6) is plan
    info = subsets._plan.cache_info()
    assert info.misses == 1 and info.hits >= 3
    system = build_system(MemorylessPolicy.uniform(6))
    assert len(system.coefficients) == len(plan.columns)


def test_plan_cache_keeps_the_last_plans_only():
    """Solving k = 3..8 in turn keeps _PLANS plans; the first k's plan is built
    again, and the solve it serves is unchanged."""
    subsets._plan.cache_clear()
    policy = random_policy(3, random.Random(3))
    first = solve_system(policy)
    for k in range(4, 9):
        solve_system(random_policy(k, random.Random(k)))
    info = subsets._plan.cache_info()
    assert info.currsize == subsets._PLANS
    again = solve_system(policy)
    assert subsets._plan.cache_info().misses == info.misses + 1
    assert again.h == first.h


def test_float_and_residue_factors_index_through_the_schedule():
    """Both numeric types replay the one cached schedule of their k: no solve
    builds index arrays of its own."""
    k = 6
    system = build_system(random_policy(k, random.Random(k)))
    w, coefficients = system.w, system.coefficients
    plan = subsets._plan(k)
    for values, modulus in (([a / w for a in coefficients], 0),
                            (coefficients.tolist(), subsets._PRIME)):
        store = subsets._eliminate(values, k, modulus)
        assert subsets._plan(k) is plan and len(store) == len(plan.index)


@pytest.mark.parametrize("k", [3, 7])
def test_store_type_follows_the_values_not_their_container(k):
    """Python ints, in a list or an object array, factor into an object store of
    Python ints, never int64, and floats, in a list or a float64 array, into
    float64; each pair gives equal stores and equal substitutions."""
    system = build_system(random_policy(k, random.Random(k)))
    w, coefficients, n, rng = system.w, system.coefficients, 1 << k, random.Random(k)
    residues = [0] + [rng.randrange(subsets._PRIME) for _ in range(n - 1)]
    stores = [subsets._eliminate(values, k, subsets._PRIME)
              for values in (coefficients.tolist(), coefficients)]
    assert [s.dtype for s in stores] == [np.dtype(object)] * 2
    assert all(type(v) is int for v in stores[0].tolist())
    assert stores[0].tolist() == stores[1].tolist()
    assert (subsets._substitute(stores[0], k, residues, subsets._PRIME)
            == subsets._substitute(stores[1], k, residues, subsets._PRIME))
    floats = [0.0] + [rng.uniform(-1, 1) for _ in range(n - 1)]
    stores = [subsets._eliminate(values, k)
              for values in ([a / w for a in coefficients], (coefficients / w).astype(float))]
    assert [s.dtype for s in stores] == [np.dtype(np.float64)] * 2
    assert [v.hex() for v in stores[0].tolist()] == [v.hex() for v in stores[1].tolist()]
    assert ([v.hex() for v in subsets._substitute(stores[0], k, floats)]
            == [v.hex() for v in subsets._substitute(stores[1], k, floats)])


def _columns(k: int):
    """The masks each row of the k-metric system is over, row by row in mask order.

    Row S lists S \\ {m} (none for a singleton, as h(empty) = 0), then
    S u {j} for the j not in S in increasing order, then S. Every policy
    at k has this pattern, since every p_i > 0.
    """
    for mask in range(1, 1 << k):
        low = mask & -mask
        yield ((mask ^ low,) if mask != low else ()) + tuple(
            mask | 1 << j for j in range(k) if not mask >> j & 1) + (mask,)


@pytest.mark.parametrize("k", range(1, 13))
def test_pattern_matches_the_row_oracle(k):
    """`_pattern`'s grid lists the rows `_columns` lists, and each entry's row and
    weight bit (the one bit of S ^ column, min S on the diagonal), dtypes included."""
    pattern = list(_columns(k))
    rows = [mask for mask, cols in enumerate(pattern, 1) for _ in cols]
    columns = [c for cols in pattern for c in cols]
    expected = {
        "starts": np.array([0, *itertools.accumulate(map(len, pattern))], np.int32),
        "columns": np.array(columns, np.int32),
        "bits": np.array([((c ^ r) or r & -r).bit_length() - 1 for r, c in zip(rows, columns)],
                         np.int8),
        "rows": np.array(rows, np.int32),
    }
    for (name, want), got in zip(expected.items(), subsets._pattern(k), strict=True):
        assert got.dtype == want.dtype and got.tolist() == want.tolist(), name


def _symbolic_schedule(n):
    """The schedule fields of `_plan(k)`, n = 2^k, as lists by field name, from an
    elimination of the pattern itself.

    Each row is an insertion-ordered dict of its columns, in `_columns`'
    order. Pivots go in decreasing mask order: pivot x's U row is what is
    left of row x without its diagonal, in dict order, and its L column
    the rows below x that hold column x, in increasing order; each of
    those drops x and appends the U columns it lacks. The store positions
    follow the layout of `_Plan`.
    """
    pattern = list(_columns(n.bit_length() - 1))
    rows = {mask: dict.fromkeys(cols) for mask, cols in enumerate(pattern, 1)}
    holders = {c: set() for c in range(1, n)}  # the rows below c that hold column c
    for mask, cols in enumerate(pattern, 1):
        for c in cols:
            if c > mask:
                holders[c].add(mask)
    upper, lower = {}, {}
    for x in range(n - 1, 0, -1):
        row = rows.pop(x)
        del row[x]
        upper[x], lower[x] = list(row), sorted(holders.pop(x))
        for r in lower[x]:
            del rows[r][x]
            for c in upper[x]:
                if c not in rows[r]:
                    rows[r][c] = None
                    if c > r:
                        holders[c].add(r)
    ustart, lstart, qstart = [0] * n, [0] * n, [0] * n
    end, updated = n, 0
    for x in range(n - 1, 0, -1):
        ustart[x], lstart[x], qstart[x] = end, end + len(upper[x]), updated
        end, updated = lstart[x] + len(lower[x]), updated + len(lower[x]) * len(upper[x])
    ustart[0] = lstart[0] = end
    qstart[0] = updated
    urank = {x: {c: i for i, c in enumerate(cols)} for x, cols in upper.items()}
    lrank = {x: {r: i for i, r in enumerate(rids)} for x, rids in lower.items()}

    def position(r, c):
        if r == c:
            return r
        return ustart[r] + urank[r][c] if c < r else lstart[c] + lrank[c][r]

    return dict(
        sources=[position(mask, c) for mask, cols in enumerate(pattern, 1) for c in cols],
        index=[*range(n), *(i for x in range(n - 1, 0, -1) for i in upper[x] + lower[x])],
        ustart=ustart, lstart=lstart, qstart=qstart,
        updates=[position(r, c) for x in range(n - 1, 0, -1) for r in lower[x] for c in upper[x]])


@pytest.mark.parametrize("k", range(1, 11))
def test_schedule_matches_a_symbolic_elimination(k):
    """`_schedule`'s closed form is the elimination it replays, entry by entry."""
    n = 1 << k
    plan, expected = subsets._plan(k), _symbolic_schedule(n)
    for field, values in expected.items():
        assert getattr(plan, field).tolist() == values, field


def _sequential_substitute(store, k, rhs, modulus=0):
    """`_substitute` as a walk entry by entry: the oracle of its block plan.

    Applies the L columns in pivot order, then back-substitutes through U
    in increasing mask order. Residue factors return residues.
    """
    plan = subsets._plan(k)
    values = store.tolist()  # Python scalars, one per store entry
    index, ustart, lstart = plan.index, plan.ustart, plan.lstart
    h = list(rhs)
    for x, l0, l1 in zip(range(len(h) - 1, 0, -1), lstart[:0:-1], ustart[-2::-1]):
        hx = h[x] = h[x] * values[x] % modulus if modulus else h[x] / values[x]
        for rid, f in zip(index[l0:l1], values[l0:l1]):
            h[rid] -= f * hx
    for x, u0, u1 in zip(range(1, len(h)), ustart[1:], lstart[1:]):
        val = h[x]
        for c, v in zip(index[u0:u1], values[u0:u1]):
            val -= v * h[c]
        h[x] = val % modulus if modulus else val
    return h


@pytest.mark.parametrize("k", range(1, 11))
def test_block_substitution_matches_the_sequential_walk(k):
    """Floats bit for bit, residues and Fractions exactly, on random right sides;
    k <= 5 is one block."""
    n, rng = 1 << k, random.Random(k)
    for policy in (MemorylessPolicy.uniform(k), random_policy(k, random.Random(k))):
        system = build_system(policy)
        w, values = system.w, system.coefficients.tolist()
        cases = [(subsets._eliminate([v / w for v in values], k), 0,
                  [0.0] + [rng.uniform(-1, 1) for _ in range(n - 1)]),
                 (subsets._eliminate(values, k, subsets._PRIME), subsets._PRIME,
                  [0] + [rng.randrange(subsets._PRIME) for _ in range(n - 1)]),
                 (subsets._eliminate([Fraction(v, w) for v in values], k), 0,
                  [Fraction(0)] + [Fraction(rng.randint(-99, 99), rng.randint(1, 99))
                                   for _ in range(n - 1)])]
        for store, modulus, rhs in cases:
            got = subsets._substitute(store, k, rhs, modulus)
            expected = _sequential_substitute(store, k, rhs, modulus)
            assert [type(v) for v in got] == [type(v) for v in expected]
            if store.dtype == float:
                assert [v.hex() for v in got] == [v.hex() for v in expected]
            else:
                assert got == expected


@pytest.mark.parametrize("k", range(1, 13))
def test_block_plan_splits_each_l_column_into_a_prefix_and_an_in_block_suffix(k):
    """Each L column's rows in its pivot's block are the column's suffix, and the
    plan lists both parts block by block, from the top, in pivot order."""
    n = 1 << k
    plan = subsets._plan(k)
    inner, outer, pivot = [], [], []
    for base in range((n - 1) & -subsets._BLOCK, -1, -subsets._BLOCK):
        inner.append([])
        outer.append([])
        pivot.append([])
        for x in range(min(base + subsets._BLOCK, n) - 1, max(base, 1) - 1, -1):
            rows = list(plan.index[plan.lstart[x]:plan.ustart[x - 1]])
            split = sum(r < base for r in rows)
            assert all(r >= base for r in rows[split:])
            suffix = range(plan.lstart[x] + split, plan.ustart[x - 1])
            assert plan.local[base > 0][x - base] == tuple(r - base for r in rows[split:])
            inner[-1] += suffix
            outer[-1] += range(plan.lstart[x], suffix.start)
            pivot[-1] += [x - base] * split
    assert [a.tolist() for a in plan.inner] == inner
    assert [a.tolist() for a in plan.outer] == outer
    assert [a.tolist() for a in plan.pivot] == pivot


@pytest.mark.parametrize("k", [9, 10])
def test_residual_over_chunk_boundaries_matches_the_row_formula(k):
    """b_i - sum v x[c] row by row, for a right side that changes from row to row
    and for a constant one, across every chunk of rows."""
    rng = random.Random(k)
    system = build_system(random_policy(k, rng))
    w, values = system.w, iter(system.coefficients.tolist())
    rows = [(cols, [next(values) for _ in cols]) for cols in _columns(k)]
    x = [rng.randrange(-1 << 300, 1 << 300) for _ in range(1 << k)]
    for b in ([0] + [rng.randrange(1 << 400) for _ in rows], w << 300):
        bi = b if isinstance(b, list) else [b] * (len(rows) + 1)
        expected = [0] + [bi[mask] - sum(v * x[c] for c, v in zip(cols, vals))
                          for mask, (cols, vals) in enumerate(rows, 1)]
        assert len(rows) > subsets._RESIDUAL_ROWS
        assert subsets._residual(system, b, x) == expected


def _fraction_monotonicity(sol):
    """check_monotonicity in Fraction arithmetic: the reference formula."""
    p, k, slack = sol.policy.probs, sol.k, sol.check_slack
    out = []
    for mask in range(1, 1 << k):
        members = [i for i in range(1, k + 1) if mask & (1 << (i - 1))]
        drops = {i: p[i - 1] * (sol.h[mask] - sol.h[mask & ~(1 << (i - 1))]) for i in members}
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                i, j = members[a], members[b]
                if drops[i] > drops[j] + slack:
                    out.append((mask, i, j, drops[i], drops[j]))
    return out


def _fraction_alpha_bound(sol):
    """check_subset_alpha_bound in Fraction arithmetic: the reference formula."""
    p, k, slack = sol.policy.probs, sol.k, sol.check_slack
    a = alpha_table(k)
    out = []
    for mask in range(1, 1 << k):
        floor = a[k - mask.bit_count()]
        for i in range(1, k + 1):
            bit = 1 << (i - 1)
            if mask & bit:
                val = p[i - 1] * (sol.h[mask] - sol.h[mask & ~bit])
                if val < floor - slack:
                    out.append((mask, i, val, floor))
    return out


def _fraction_residual(system, h):
    return max(abs(sum(v * h[c] for c, v in coeffs.items()) - rhs)
               for coeffs, rhs in system.rows.values())


def _assert_integer_checks_match(sol):
    mono, bound = check_monotonicity(sol), check_subset_alpha_bound(sol)
    assert mono == _fraction_monotonicity(sol)
    assert bound == _fraction_alpha_bound(sol)
    assert all(type(v) is Fraction for row in mono for v in row[3:])
    assert all(type(row[2]) is Fraction for row in bound)
    residual = build_system(sol.policy).residual(sol.h)
    assert residual == _fraction_residual(build_system(sol.policy), sol.h)
    assert type(residual) is Fraction
    return mono, bound


@pytest.mark.parametrize("mode", ["exact", "iterative"])
def test_integer_checks_match_fraction_formulas_on_tampered_solutions(mode):
    rng = random.Random(77)
    found_mono = found_bound = 0
    for k in (2, 3, 4, 5, 6):
        for _ in range(3):
            sol = solve_system(random_policy(k, rng), mode=mode)
            h = list(sol.h)
            for _ in range(k):
                mask = rng.randrange(1, len(h))
                h[mask] += Fraction(rng.randint(-400, 400), rng.randint(1, 9))
            mono, bound = _assert_integer_checks_match(dataclasses.replace(sol, h=tuple(h)))
            found_mono += len(mono)
            found_bound += len(bound)
    assert found_mono and found_bound


@pytest.mark.parametrize("excess, violations", [(0, 0), (Fraction(1, 10**30), 1)])
def test_integer_checks_keep_iterative_slack_boundary(excess, violations):
    """Drops exactly at the slack pass, a hair beyond it fail, as with Fractions."""
    sol = solve_system(MemorylessPolicy.uniform(2), mode="iterative")
    slack = sol.check_slack
    h = list(sol.h)
    # drop_1 - drop_2 = (h({1}) - h({2})) / 2 at S = {1, 2}
    h[0b01] = h[0b10] + 2 * (slack + excess)
    mono, _ = _assert_integer_checks_match(dataclasses.replace(sol, h=tuple(h)))
    assert len(mono) == violations
    # the drop at S = {2} is h({2}) / 2 against the floor alpha(2) = 2
    h = list(sol.h)
    h[0b10] = 2 * (2 - slack - excess)
    _, bound = _assert_integer_checks_match(dataclasses.replace(sol, h=tuple(h)))
    assert sum(1 for mask, *_ in bound if mask == 0b10) == violations


@pytest.mark.parametrize("mode", ["exact", "iterative"])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_h_is_a_view_over_the_solver_pair(mode, k):
    sol = solve_system(random_policy(k, random.Random(k)), mode=mode)
    delta, x = sol.scaled
    h = tuple(Fraction(v, delta) for v in x)
    assert tuple(sol.h) == h
    assert all(type(v) is Fraction and v.denominator > 0
               and math.gcd(v.numerator, v.denominator) == 1 for v in sol.h)
    assert sol.h == h and h == sol.h
    assert sol.h != h[:-1] + (h[-1] + 1,) and h[:-1] + (h[-1] + 1,) != sol.h
    assert sol.h[1:3] == h[1:3] and type(sol.h[1:3]) is tuple
    assert sol.h[-1] == h[-1] and sol.h_k == h[1 << (k - 1)]
    assert len(sol.h) == 1 << k
    assert dataclasses.replace(sol, h=tuple(sol.h)) == sol


def test_solve_and_checks_build_no_fraction_per_subset(monkeypatch):
    """h is not materialised: the solve, the gap and both checks build O(k) Fractions."""
    made = []

    def counting(*args):
        made.append(args)
        return Fraction(*args)

    k = 8
    policy = random_policy(k, random.Random(1))
    monkeypatch.setattr(subsets, "Fraction", counting)
    sol = solve_system(policy)
    competitive_gap(policy, sol)
    assert not check_monotonicity(sol) and not check_subset_alpha_bound(sol)
    assert 0 < len(made) <= k


def test_h_view_compares_only_to_sequences_of_values_and_prints_as_a_tuple():
    sol = solve_system(MemorylessPolicy.from_probs([Fraction(2, 3), Fraction(1, 3)]))
    # __eq__ returns NotImplemented for anything but a tuple or a view: Python falls back
    # to identity, so an int or a list of the same values is unequal
    assert sol.h.__eq__(5) is NotImplemented
    assert not sol.h == 5 and sol.h != 5
    assert sol.h != list(sol.h)
    assert repr(sol.h) == repr(tuple(sol.h)) == ("(Fraction(0, 1), Fraction(7, 2), "
                                                  "Fraction(6, 1), Fraction(15, 2))")
