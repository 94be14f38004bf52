"""Birth-death chains: closed form vs linear-system oracle, named chains, bounds."""

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from gkserver.chains import (
    BirthDeathChain,
    binary_chain,
    binary_eet,
    eet_closed_form,
    eet_oracle,
    eet_oracle_table,
    eet_table,
    harmonic_chain,
    harmonic_eet,
    random_chain,
    simulate_extinction_times,
    stationary_and_return_check,
)
from gkserver.harmonic import alpha_table


def test_harmonic_chain_probabilities():
    c = harmonic_chain(2)
    assert c.down == (Fraction(1, 2), Fraction(1, 2))
    assert c.up == (Fraction(1, 2), Fraction(0))
    c1 = harmonic_chain(1)
    assert c1.down == (Fraction(1),) and c1.up == (Fraction(0),)
    c4 = harmonic_chain(4)
    assert c4.up == (Fraction(3, 4), Fraction(2, 4), Fraction(1, 4), Fraction(0))


def test_binary_chain_probabilities():
    c = binary_chain(2)
    assert c.down == (Fraction(1, 2), Fraction(1)) and c.up == (Fraction(1, 2), Fraction(0))
    assert binary_chain(3).down == (Fraction(1, 3), Fraction(2, 3), Fraction(1))
    c1 = binary_chain(1)
    assert c1.down == (Fraction(1),) and c1.up == (Fraction(0),)


def test_chain_constructors_reject_k_zero():
    with pytest.raises(ValueError):
        harmonic_chain(0)
    with pytest.raises(ValueError):
        binary_chain(0)


def test_chain_invariants_enforced():
    with pytest.raises(ValueError):  # q must be positive
        BirthDeathChain(up=(Fraction(0),), down=(Fraction(0),))
    with pytest.raises(ValueError):  # p + q <= 1
        BirthDeathChain(up=(Fraction(2, 3), Fraction(0)), down=(Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):  # p_k = 0
        BirthDeathChain(up=(Fraction(1, 4), Fraction(1, 4)), down=(Fraction(1, 2), Fraction(1, 2)))


# hand-solved 3-state harmonic chain: h(1) = 1 + h(2)/2, h(2) = 1 + h(1)/2 + h(2)/2
# => h(1) = 4, h(2) = 6; binary k=2: h(1) = 3, h(2) = 4
def test_eet_closed_form_hand_values():
    assert eet_closed_form(harmonic_chain(2), 1) == 4
    assert eet_closed_form(harmonic_chain(2), 2) == 6
    assert eet_closed_form(binary_chain(2), 2) == 4
    assert eet_closed_form(binary_chain(2), 0) == 0


def test_eet_oracle_hand_values():
    assert eet_oracle(harmonic_chain(3), 1) == 15
    assert eet_oracle(binary_chain(2), 1) == 3
    assert eet_oracle(harmonic_chain(7), 0) == 0
    assert eet_oracle(binary_chain(4), 0) == 0


def test_eet_range_checks():
    chain = harmonic_chain(3)
    with pytest.raises(ValueError):
        eet_closed_form(chain, 4)
    with pytest.raises(ValueError):
        eet_closed_form(chain, -1)
    with pytest.raises(ValueError):
        eet_oracle(chain, 5)


def test_closed_form_rejects_degenerate_interior_up():
    # p_1 = 0 makes the ratio q1/p1 undefined for ell >= 2; the oracle still works
    chain = BirthDeathChain(up=(Fraction(0), Fraction(0)), down=(Fraction(1, 2), Fraction(1, 2)))
    assert eet_closed_form(chain, 1) == 2
    with pytest.raises(ValueError):
        eet_closed_form(chain, 2)
    table = eet_oracle_table(chain)
    assert table == (0, 2, 4)


def test_closed_form_matches_oracle_named_chains():
    for k in range(1, 13):
        for chain in (harmonic_chain(k), binary_chain(k)):
            closed = eet_table(chain)
            oracle = eet_oracle_table(chain)
            assert closed == oracle


def test_closed_form_matches_oracle_random_chains(rng):
    for _ in range(40):
        k = rng.randint(1, 12)
        chain = random_chain(k, rng)
        assert eet_table(chain) == eet_oracle_table(chain)


def test_harmonic_eet_values():
    assert harmonic_eet(2, 1) == 4
    assert harmonic_eet(3, 3) == 24  # 3 * (1 + 2 + 5)
    assert harmonic_eet(4, 1) == 64  # 4 * 16
    assert harmonic_eet(5, 0) == 0
    with pytest.raises(ValueError):
        harmonic_eet(3, 4)
    with pytest.raises(ValueError):
        harmonic_eet(0, 0)


def test_harmonic_eet_matches_oracle():
    for k in range(1, 13):
        table = eet_oracle_table(harmonic_chain(k))
        for ell in range(k + 1):
            assert harmonic_eet(k, ell) == table[ell]


def test_binary_eet_values():
    assert binary_eet(2, 1) == 3  # 2^2 - 1
    assert binary_eet(2, 2) == 4  # 3 + (1/1)*(4 - 3)
    assert binary_eet(3, 1) == 7
    assert binary_eet(4, 0) == 0
    with pytest.raises(ValueError):
        binary_eet(3, 4)


def test_binary_eet_matches_oracle():
    for k in range(1, 13):
        table = eet_oracle_table(binary_chain(k))
        for ell in range(k + 1):
            assert binary_eet(k, ell) == table[ell]


def test_binary_eet_two_sided_bounds():
    for k in range(1, 21):
        for ell in range(1, k + 1):
            h = binary_eet(k, ell)
            assert 2**k - 1 <= h <= 5 * 2**k


def test_stationary_and_return_check():
    # harmonic k=2: pi_0 = 1/5 and h(1) = 4, so 1/pi_0 = h(1) + 1
    assert stationary_and_return_check(harmonic_chain(2))
    assert stationary_and_return_check(binary_chain(2))  # pi_0 = 1/4, h(1) = 3
    assert stationary_and_return_check(harmonic_chain(5))
    for k in (1, 3, 4, 6, 9):
        assert stationary_and_return_check(harmonic_chain(k))
        assert stationary_and_return_check(binary_chain(k))


def test_stationary_check_rejects_degenerate_interior():
    chain = BirthDeathChain(up=(Fraction(0), Fraction(0)), down=(Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        stationary_and_return_check(chain)


def test_ratio_of_eet_to_start_state_maximal_at_one():
    # on the harmonic chain h(ell)/ell < h(1) strictly for ell >= 2
    for k in range(2, 13):
        table = eet_oracle_table(harmonic_chain(k))
        for ell in range(2, k + 1):
            assert Fraction(table[ell], ell) < table[1]


def test_eet_differences_telescope_to_alpha_sums():
    # h(l') - h(l) = k * sum_{i=l}^{l'-1} a(k-i) on the harmonic chain
    for k in range(1, 13):
        a = alpha_table(k)
        table = [harmonic_eet(k, ell) for ell in range(k + 1)]
        for ell in range(k + 1):
            for ell_p in range(ell + 1, k + 1):
                expected = k * sum(a[k - i - 1] for i in range(ell, ell_p))
                assert table[ell_p] - table[ell] == expected


def test_eet_strictly_increasing():
    for k in (1, 4, 9):
        for chain in (harmonic_chain(k), binary_chain(k)):
            table = eet_oracle_table(chain)
            assert all(table[i + 1] > table[i] for i in range(k))


def test_monte_carlo_extinction_time_matches_closed_form():
    chain = harmonic_chain(3)
    times = simulate_extinction_times(chain, 1, walks=100_000, seed=2024)
    mean = float(np.mean(times))
    se = float(np.std(times, ddof=1) / np.sqrt(len(times)))
    assert se > 0
    assert abs(mean - float(eet_closed_form(chain, 1))) <= 3 * se


def _walk_sha256(chain, ell, walks, seed):
    times = simulate_extinction_times(chain, ell, walks=walks, seed=seed)
    assert times.dtype == np.int64 and times.shape == (walks,)
    return hashlib.sha256(times.tobytes()).hexdigest()


# recorded with the int64-lcm walk that compared numpy scalars; the same
# draws must give the same absorption times
WALK_SHA256 = {
    "harmonic6": ((harmonic_chain(6), 1, 400, 7),
                  "b23c94fb12de2b3b01482175ea28a46044e8de8abf2123690022a714ca144d83"),
    "binary6": ((binary_chain(6), 2, 3000, 11),
                "4a5d17c54f87c239bc4c7fdcbfd68e72d1316e38fc95fe88f9e72d7a203ddae5"),
    "random5": ((random_chain(5, random.Random(3)), 3, 3000, 5),
                "52e018d4a9a90e78303391246dc9e8f4a7b0f4235682b5015c4da34daca6a6fb"),
    # 4294967311 is prime, so the denominator 5 * 4294967311 needs numpy's 64-bit draws
    "above_2_32": ((BirthDeathChain(up=(Fraction(1, 4294967311), Fraction(0)),
                                    down=(Fraction(2147483655, 4294967311), Fraction(3, 5))),
                    1, 3000, 9),
                   "6b2427551bb641f6b4127b17707ff594e8ac450b9057e164328784a251acae0f"),
}


@pytest.mark.parametrize("name", sorted(WALK_SHA256))
def test_extinction_time_walks_golden(name):
    args, digest = WALK_SHA256[name]
    assert _walk_sha256(*args) == digest


def test_walk_rejects_denominator_beyond_int64_draws():
    # the lcm 8198598465731368029274 wrapped to 8244097004327111770 in int64
    chain = BirthDeathChain(
        up=(Fraction(1, 1000003), Fraction(1, 1000037), Fraction(0)),
        down=(Fraction(1, 4099), Fraction(1, 1000033), Fraction(1, 2)),
    )
    with pytest.raises(ValueError, match="2\\^63"):
        simulate_extinction_times(chain, 1, walks=10, seed=1)


def test_walk_samples_denominator_just_below_2_63():
    chain = BirthDeathChain(up=(Fraction(0),), down=(Fraction(2**62, 2**63 - 1),))
    times = simulate_extinction_times(chain, 1, walks=2000, seed=3)
    # geometric with success probability just above 1/2
    assert times.min() == 1 and abs(times.mean() - 2) < 0.15
