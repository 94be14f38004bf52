"""Exact arithmetic layer: the harmonic recursion and its factorial bounds.

Everything in this package computes over Python ints (arbitrary precision)
and fractions.Fraction (always normalized, positive denominator, value
equality), so no result is ever rounded.

The harmonic recursion is

    a(1) = 1,   a(l) = 1 + (l-1) * a(l-1)

with closed form a(l) = (l-1)! * sum_{i=0}^{l-1} 1/i! and the sandwich
(l-1)! <= a(l) <= e*(l-1)!.  a(l) governs the competitive ratio of the
uniform ("harmonic") memoryless policy: k * a(k) for k metric spaces.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate
from math import ceil, factorial, lcm

__all__ = [
    "alpha",
    "alpha_closed_form",
    "alpha_table",
    "alpha_bounds_check",
    "common_denominator",
    "exact_thresholds",
    "e_over_approximation",
    "int_to_str",
    "rational_to_str",
    "rational_from_str",
]


def alpha(ell: int) -> int:
    """Harmonic recursion a(ell): the last entry of alpha_table(ell).

    Rejects ell < 1: the recursion has no value at 0.
    """
    if ell < 1:
        raise ValueError(f"alpha is defined for ell >= 1, got {ell}")
    return alpha_table(ell)[-1]


def alpha_closed_form(ell: int) -> int:
    """a(ell) via the closed form (ell-1)! * sum_{i<ell} 1/i!.

    Each summand (ell-1)!/i! is an exact integer, so the whole sum is
    computed without rationals. Agrees with alpha() for every ell.
    """
    if ell < 1:
        raise ValueError(f"alpha_closed_form is defined for ell >= 1, got {ell}")
    f = factorial(ell - 1)
    return sum(f // factorial(i) for i in range(ell))


def alpha_table(max_ell: int) -> list[int]:
    """[a(1), a(2), ..., a(max_ell)] in one pass."""
    if max_ell < 1:
        raise ValueError(f"alpha_table needs max_ell >= 1, got {max_ell}")
    out = [1]
    for i in range(2, max_ell + 1):
        out.append(1 + (i - 1) * out[-1])
    return out


def e_over_approximation(terms: int = 50) -> Fraction:
    """A certified rational upper bound on e.

    Truncated series sum_{i=0}^{terms-1} 1/i! plus the tail bound
    2/terms!; the true tail sum_{i>=terms} 1/i! is below 2/terms! for
    terms >= 1, so the result always exceeds e.  With the default 50
    terms the overshoot is under 10^-64.
    """
    if terms < 1:
        raise ValueError("need at least one series term")
    partial = sum(Fraction(1, factorial(i)) for i in range(terms))
    return partial + Fraction(2, factorial(terms))


def alpha_bounds_check(ell: int) -> bool:
    """True iff (ell-1)! <= a(ell) and a(ell) is below e*(ell-1)!.

    The upper bound involves the irrational e, so it is checked two ways,
    both exact: the coarse rational bound a(ell)/(ell-1)! <= 3, and the
    tight bound a(ell) <= ceil(E * (ell-1)!) where E is a certified
    rational over-approximation of e (series terms scale with ell so the
    ceiling stays sharp through the CLI's supported range).
    """
    if ell < 1:
        raise ValueError(f"alpha_bounds_check is defined for ell >= 1, got {ell}")
    a = alpha(ell)
    f = factorial(ell - 1)
    return f <= a <= 3 * f and a <= ceil(e_over_approximation(max(50, ell + 2)) * f)


def int_to_str(n: int) -> str:
    """Decimal digits of n, of any length.

    str(n) refuses ints beyond the interpreter's 4300-digit limit, which
    terms of h pass at k = 12. Decimal converts without that limit, so
    no global setting is lifted and parsing keeps it.
    """
    return str(Decimal(n))


def rational_to_str(x: Fraction) -> str:
    """Serialize exactly as "num/den" (always with the slash), of any length."""
    return f"{int_to_str(x.numerator)}/{int_to_str(x.denominator)}"


# the exponent digits of a decimal literal, as Fraction reads them
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


def rational_from_str(s: str) -> Fraction:
    """Parse "num/den", an integer or a decimal literal into a Fraction.

    ValueError if den is 0, or if a decimal exponent exceeds in magnitude
    sys.get_int_max_str_digits(), the limit int() puts on digit strings:
    Fraction would build 10^|exponent| first, in time that grows with it.
    """
    limit, exponent = sys.get_int_max_str_digits(), _EXPONENT.search(s)
    if limit and exponent:
        digits = exponent[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(limit)) or int(digits or 0) > limit:
            raise ValueError(f"the exponent of {s.strip()!r} exceeds {limit} in magnitude")
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def common_denominator(values) -> tuple[int, list[int]]:
    """(den, nums) with den the lcm of the denominators of values and nums = values * den."""
    den = 1
    for v in values:
        if den % v.denominator:
            den = lcm(den, v.denominator)
    return den, [v.numerator * (den // v.denominator) for v in values]


def exact_thresholds(probs) -> tuple[int, list[int]]:
    """(den, thresholds): the common denominator of probs and their cumulative integer
    numerators t, so u uniform below den lies in [t[j-1], t[j]) with probability probs[j].
    Raises ValueError unless den < 2^63: draws are int64, and numpy compares 2^63 in float64."""
    den, nums = common_denominator(probs)
    if den >= 2**63:
        raise ValueError(f"common denominator {den} is not below 2^63")
    return den, list(accumulate(nums))
