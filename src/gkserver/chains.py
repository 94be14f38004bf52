"""Finite birth-death chains absorbing at 0, with exact extinction times.

A chain lives on states {0, 1, ..., k}. From state i it steps up with
probability p_i = up[i-1], down with probability q_i = down[i-1], and
stays put otherwise; state 0 is absorbing. The expected extinction time
(EET) h(l) is the expected number of steps to first reach 0 from state l.

Two exact routes to h are provided and kept independent on purpose:

* eet_closed_form: the product-ratio formula for h(1) and h(l),
* eet_oracle: direct rational elimination of the tridiagonal system
  h(l) = 1 + q_l h(l-1) + p_l h(l+1) + (1 - p_l - q_l) h(l).

stationary_and_return_check (Kac's return-time identity) forms the same
products as the closed form, so it compares against the oracle instead.

Two named chains drive the analysis of memoryless k-server policies on
uniform metrics: the *harmonic chain* (down 1/k, up (k-i)/k) tracks the
Hamming distance between the uniform policy and an adversary that always
reveals one of its servers, and the *binary chain* (down i/k, up (k-i)/k)
is the same walk when every metric space has only two points. Nothing here
samples: a uniform-policy phase of simulate.run() walks the harmonic chain
from l = 1 against the lower_bound adversary, and the binary chain against n2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .harmonic import alpha_table

__all__ = [
    "BirthDeathChain",
    "harmonic_chain",
    "binary_chain",
    "eet_closed_form",
    "eet_oracle",
    "eet_oracle_table",
    "eet_table",
    "harmonic_eet",
    "binary_eet",
    "stationary_and_return_check",
    "random_chain",
]


@dataclass(frozen=True)
class BirthDeathChain:
    """Transition probabilities, indexed so up[i-1], down[i-1] belong to state i.

    Constraints checked at construction: probabilities in [0, 1] with
    p_i + q_i <= 1, every q_i > 0 (absorption reachable from everywhere),
    and p_k = 0 (no step above the top state).
    """

    up: tuple[Fraction, ...]
    down: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.up) != len(self.down) or not self.up:
            raise ValueError("up and down must be equal-length, non-empty")
        k = len(self.up)
        for i, (p, q) in enumerate(zip(self.up, self.down), start=1):
            if p < 0 or q < 0 or p + q > 1:
                raise ValueError(f"state {i}: need 0 <= p, q and p + q <= 1, got p={p}, q={q}")
            if q == 0:
                raise ValueError(f"state {i}: down-probability must be positive for absorption")
        if self.up[k - 1] != 0:
            raise ValueError(f"top state must have up-probability 0, got {self.up[k - 1]}")

    @property
    def k(self) -> int:
        return len(self.up)


def harmonic_chain(k: int) -> BirthDeathChain:
    """Down q_i = 1/k for all i, up p_i = (k-i)/k."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    up = tuple(Fraction(k - i, k) for i in range(1, k + 1))
    down = tuple(Fraction(1, k) for _ in range(k))
    return BirthDeathChain(up=up, down=down)


def binary_chain(k: int) -> BirthDeathChain:
    """Down q_i = i/k, up p_i = (k-i)/k (two-point metric spaces)."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    up = tuple(Fraction(k - i, k) for i in range(1, k + 1))
    down = tuple(Fraction(i, k) for i in range(1, k + 1))
    return BirthDeathChain(up=up, down=down)


def eet_closed_form(chain: BirthDeathChain, ell: int) -> Fraction:
    """h(ell) by the product-ratio formula.

    h(1) = 1/q_1 + sum_{i=2}^{k} (p_1...p_{i-1})/(q_1...q_i)
    h(l) = h(1) + sum_{i=1}^{l-1} (q_1...q_i)/(p_1...p_i)
                  * sum_{j=i+1}^{k} (p_1...p_{j-1})/(q_1...q_j)

    Empty products are 1, empty sums 0. The second line divides by
    p_1..p_{l-1}, so chains with an interior up-probability of zero below
    ell are rejected; eet_oracle handles those.
    """
    k = chain.k
    if not 0 <= ell <= k:
        raise ValueError(f"state out of range: {ell} not in 0..{k}")
    if ell == 0:
        return Fraction(0)
    if any(chain.up[i - 1] == 0 for i in range(1, ell)):
        raise ValueError(
            "closed form inapplicable: up-probability 0 below the start state; use eet_oracle"
        )
    # T[i] = (p_1...p_{i-1}) / (q_1...q_i) for i = 1..k; h(1) = sum of T
    terms = []
    num = Fraction(1)
    den = Fraction(1)
    for i in range(1, k + 1):
        den *= chain.down[i - 1]
        terms.append(num / den)
        num *= chain.up[i - 1]
    h1 = sum(terms, Fraction(0))
    if ell == 1:
        return h1
    # suffix sums of T, then R[i] = (q_1...q_i)/(p_1...p_i)
    suffix = [Fraction(0)] * (k + 1)
    for j in range(k, 0, -1):
        suffix[j - 1] = suffix[j] + terms[j - 1]
    total = h1
    ratio = Fraction(1)
    for i in range(1, ell):
        ratio *= chain.down[i - 1] / chain.up[i - 1]
        total += ratio * suffix[i]
    return total


def eet_oracle_table(chain: BirthDeathChain) -> tuple[Fraction, ...]:
    """All of h(0..k) by exact elimination of the tridiagonal system.

    Forward sweep removes the sub-diagonal, back substitution recovers h.
    Works for any valid chain, including interior p_i = 0.
    """
    k = chain.k
    # state l equation: (p_l + q_l) h(l) - q_l h(l-1) - p_l h(l+1) = 1
    diag = [chain.up[i] + chain.down[i] for i in range(k)]
    lower = [-chain.down[i] for i in range(k)]   # coefficient of h(l-1)
    upper = [-chain.up[i] for i in range(k)]     # coefficient of h(l+1)
    rhs = [Fraction(1)] * k
    # h(0) = 0 removes the first lower term; eliminate the rest
    for i in range(1, k):
        f = lower[i] / diag[i - 1]
        diag[i] -= f * upper[i - 1]
        rhs[i] -= f * rhs[i - 1]
    h = [Fraction(0)] * (k + 1)
    h[k] = rhs[k - 1] / diag[k - 1]
    for i in range(k - 1, 0, -1):
        h[i] = (rhs[i - 1] - upper[i - 1] * h[i + 1]) / diag[i - 1]
    return tuple(h)


def eet_oracle(chain: BirthDeathChain, ell: int) -> Fraction:
    """h(ell) from the exact linear-system solve."""
    k = chain.k
    if not 0 <= ell <= k:
        raise ValueError(f"state out of range: {ell} not in 0..{k}")
    return eet_oracle_table(chain)[ell]


def eet_table(chain: BirthDeathChain) -> tuple[Fraction, ...]:
    """h(0..k) from the closed form; eet_oracle_table gives the same from the linear solve."""
    return tuple(eet_closed_form(chain, ell) for ell in range(chain.k + 1))


def harmonic_eet(k: int, ell: int) -> int:
    """EET of the harmonic chain: h(l) = k * sum_{i=k-l+1}^{k} a(i), an exact integer.

    h(0) = 0 by convention (absorbing state).
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if not 0 <= ell <= k:
        raise ValueError(f"state out of range: {ell} not in 0..{k}")
    if ell == 0:
        return 0
    a = alpha_table(k)
    return k * sum(a[i - 1] for i in range(k - ell + 1, k + 1))


def binary_eet(k: int, ell: int) -> Fraction:
    """EET of the binary chain:

    h(l) = 2^k - 1 + sum_{i=1}^{l-1} (1/C(k-1, i)) * (2^k - sum_{j=0}^{i} C(k, j))

    h(0) = 0 by the same convention as harmonic_eet.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if not 0 <= ell <= k:
        raise ValueError(f"state out of range: {ell} not in 0..{k}")
    if ell == 0:
        return Fraction(0)
    total = Fraction(2**k - 1)
    partial = 1  # sum_{j=0}^{0} C(k, j)
    for i in range(1, ell):
        partial += comb(k, i)
        total += Fraction(2**k - partial, comb(k - 1, i))
    return total


def stationary_and_return_check(chain: BirthDeathChain) -> bool:
    """Detailed-balance cross-check of h(1).

    Setting p_0 = 1 makes the chain irreducible without changing any
    extinction time. Its stationary distribution satisfies
    pi_l = (p_0 p_1 ... p_{l-1})/(q_1 ... q_l) * pi_0, and the expected
    return time of state 0 is 1/pi_0, which must equal h(1) + 1 exactly.
    h(1) comes from eet_oracle_table: the closed form sums these products.
    """
    k = chain.k
    for i in range(1, k):
        if chain.up[i - 1] == 0:
            raise ValueError("stationary check needs p_i > 0 for every interior state")
    z = Fraction(1)  # pi_0-relative masses, starting with state 0 itself
    ratio = Fraction(1)
    for i in range(1, k + 1):
        num = Fraction(1) if i == 1 else chain.up[i - 2]  # p_{i-1}, with p_0 = 1
        ratio *= num / chain.down[i - 1]
        z += ratio
    return z == eet_oracle_table(chain)[1] + 1


def random_chain(k: int, rng, max_denominator: int = 20) -> BirthDeathChain:
    """A random valid chain with all probabilities rational, denominators bounded.

    Interior up-probabilities stay positive so the closed form applies at
    every start state. `rng` is a random.Random; k < 1 raises ValueError.
    """
    up = []
    down = []
    for i in range(1, k + 1):
        while True:
            dq = rng.randint(1, max_denominator)
            q = Fraction(rng.randint(1, dq), dq)
            if i == k:
                p = Fraction(0)
            else:
                dp = rng.randint(1, max_denominator)
                cap = (1 - q) * dp
                if cap < 1:
                    continue
                p = Fraction(rng.randint(1, int(cap)), dp)
            if p + q <= 1:
                up.append(p)
                down.append(q)
                break
    return BirthDeathChain(up=tuple(up), down=tuple(down))

