"""Birth-death chains: closed form vs linear-system oracle, named chains, bounds."""

from fractions import Fraction

import pytest

from gkserver import chains
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


def test_stationary_check_does_not_use_the_closed_form(monkeypatch):
    # the return-time sum holds the closed form's products, so its h(1) comes from the oracle
    def closed_form(chain, ell):
        raise AssertionError("the check must not call eet_closed_form")

    monkeypatch.setattr(chains, "eet_closed_form", closed_form)
    assert stationary_and_return_check(harmonic_chain(5))


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

