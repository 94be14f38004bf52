"""Harmonic recursion: recurrence vs closed form, factorial sandwich, rationals."""

import re
from decimal import Decimal
from fractions import Fraction
from math import ceil, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gkserver.harmonic import (
    alpha,
    alpha_bounds_check,
    alpha_closed_form,
    alpha_table,
    e_over_approximation,
    int_to_str,
    rational_from_str,
    rational_to_str,
)

# hand-unrolled: a(1)=1, then 1+1*1=2, 1+2*2=5, 1+3*5=16, 1+4*16=65
ALPHA_HEAD = [1, 2, 5, 16, 65]


@pytest.mark.parametrize("make, message", [
    (lambda: alpha_table(0), "alpha_table needs max_ell >= 1, got 0"),
    (lambda: e_over_approximation(0), "need at least one series term"),
])
def test_input_checks_raise_their_messages(make, message):
    with pytest.raises(ValueError) as raised:
        make()
    assert raised.type is ValueError
    assert str(raised.value) == message


def test_alpha_small_values():
    assert [alpha(l) for l in range(1, 6)] == ALPHA_HEAD


def test_alpha_rejects_zero():
    with pytest.raises(ValueError):
        alpha(0)
    with pytest.raises(ValueError):
        alpha_closed_form(0)
    with pytest.raises(ValueError):
        alpha_bounds_check(0)


def test_closed_form_small_values():
    assert alpha_closed_form(1) == 1
    assert alpha_closed_form(3) == 5  # 2!*(1 + 1 + 1/2) = 2 + 2 + 1
    assert alpha_closed_form(10) == alpha(10)


def test_closed_form_agrees_with_recursion_through_30():
    for l in range(1, 31):
        assert alpha(l) == alpha_closed_form(l)


def test_alpha_strictly_increasing_through_30():
    vals = alpha_table(31)
    for i in range(30):
        assert vals[i + 1] > vals[i]


def test_alpha_table_matches_alpha():
    assert alpha_table(12) == [alpha(l) for l in range(1, 13)]


def test_factorial_sandwich_through_30():
    e_up = e_over_approximation(64)
    for l in range(1, 31):
        a = alpha(l)
        f = factorial(l - 1)
        assert f <= a
        assert a <= ceil(e_up * f)


def test_bounds_check_examples():
    assert alpha_bounds_check(1)
    assert alpha_bounds_check(5)   # 24 <= 65 <= ceil(24e) = 66
    assert alpha_bounds_check(12)
    assert all(alpha_bounds_check(l) for l in range(1, 65))


def test_e_over_approximation_brackets_e():
    # certified: strictly above e, and within the documented tail of the
    # truncated series (which is strictly below e)
    from math import factorial as fact

    e_up = e_over_approximation(50)
    partial = sum(Fraction(1, fact(i)) for i in range(50))
    assert partial < e_up
    assert e_up - partial == Fraction(2, fact(50))
    # float cross-check only sanity-checks the magnitude
    assert abs(float(e_up) - 2.718281828459045) < 1e-12


def test_alpha_5_upper_bound_is_tight():
    # e * 4! = 65.23...: the ceiling is 66 and a(5) = 65 sits just below it
    e_up = e_over_approximation(64)
    assert ceil(e_up * factorial(4)) == 66
    assert alpha(5) == 65


rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=10**6
)


@given(rationals, rationals, rationals)
def test_fraction_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if a != 0:
        assert a * (1 / a) == 1


@given(rationals)
def test_fraction_normalization_idempotent(a):
    # lowest terms with positive denominator, and renormalizing changes nothing
    assert a.denominator > 0
    from math import gcd

    assert gcd(a.numerator, a.denominator) == 1
    assert Fraction(a.numerator, a.denominator) == a


@given(rationals)
def test_rational_string_round_trip(a):
    assert rational_from_str(rational_to_str(a)) == a


@given(st.integers())
def test_int_to_str_matches_str(n):
    assert int_to_str(n) == str(n)


def test_serializers_write_ints_beyond_the_parse_limit():
    n = 7**6000  # 5071 digits; str(n) refuses more than 4300
    digits = int_to_str(n)
    assert len(digits) == 5071 and int(Decimal(digits)) == n
    assert int_to_str(-n) == "-" + digits
    assert rational_to_str(Fraction(n, 3)) == digits + "/3"
    with pytest.raises(ValueError, match="4300"):  # parsing keeps the limit
        rational_from_str(rational_to_str(Fraction(n, 3)))


# a regression here would build 10^|exponent|, so the exponents stay small enough to fail fast;
# CI runs 1e-1000000000 through the installed entry point under a timeout
@pytest.mark.parametrize("literal", ["1e-5000", "1e5000", "1E+5_000", "1e+0004301"])
def test_rational_from_str_rejects_an_exponent_beyond_the_digit_limit(literal):
    """Fraction would build 10^|exponent| first; the parser refuses, naming the literal."""
    with pytest.raises(ValueError, match=re.escape(f"the exponent of '{literal}' exceeds 4300")):
        rational_from_str(literal)


@pytest.mark.parametrize("literal, value", [
    ("1e-12", Fraction(1, 10**12)), ("3/7", Fraction(3, 7)), ("0.25", Fraction(1, 4)),
    ("1e4300", Fraction(10**4300)), ("2.5E-3", Fraction(1, 400))])
def test_rational_from_str_reads_decimals_within_the_limit(literal, value):
    assert rational_from_str(literal) == value
