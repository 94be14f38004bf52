"""The 2^k subset-state system for memoryless policies.

A memoryless policy on k uniform metric spaces is a probability vector
p_1 >= ... >= p_k > 0 (canonical descending order). Against the adversary
that always reveals its server in the *lowest-index* differing metric,
the set S of metrics where the policy's servers differ from the
adversary's performs a random walk on subsets of {1..k}:

    from S (min element m):  -> S \\ {m}   with prob p_m,
                             -> S u {j}   with prob p_j for each j not in S,
                             -> S         otherwise.

The expected number of steps h(S) to reach the empty set solves, for
every nonempty S with m = min(S),

    p_m (h(S) - h(S\\{m})) = 1 + sum_{j not in S} p_j (h(S u {j}) - h(S))

with h(empty) = 0. h({k}) lower-bounds the policy's competitive ratio,
and h({k}) >= alpha(k)/p_k always, with equality to k*alpha(k) exactly
for the uniform policy.

Subsets are k-bit masks: metric i (canonical order) is bit i-1.

Solving: equations are eliminated in decreasing mask order, which keeps
fill-in tiny (each reduced row touches only a handful of "tail" subsets).
Every policy at a given k shares the sparsity pattern, and the pattern
has a closed form, so where each pivot reads and writes is worked out
once per k and cached (`_schedule`); each factorization replays it with
numpy over one flat store, in float64 or over Python ints.
The system is assembled in integers, as W A h = W b straight from the
weights W p, W the lcm of p's denominators; its Fraction rows are only a
view. The exact mode factors W A once modulo a 521-bit prime, lifts the
solution p-adically by substitution, rebuilds h = x / delta by rational
reconstruction and returns it only if W A x == delta W b holds in
integers; it runs through k = 12. The iterative mode factors once with
the same elimination in float64, then refines by substitution alone,
with exact integer residuals, until the requested tolerance is met.
Either solver's (delta, x) is the solution: h is a view over it that
builds a Fraction only for an entry that is read, and the inequality
checks and the phi transform compare integer drops on it. A solve that
fails raises an ArithmeticError (SolverError for iterative refinement).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, islice, repeat
from math import gcd, isqrt
from operator import eq, mul
from typing import NamedTuple

import numpy as np

from .harmonic import alpha, alpha_table, common_denominator, rational_to_str

__all__ = [
    "MemorylessPolicy",
    "SubsetSystem",
    "SubsetSolution",
    "SolverError",
    "build_system",
    "solve_system",
    "lower_bound_hk",
    "check_monotonicity",
    "check_subset_alpha_bound",
    "phi_transform",
    "competitive_gap",
    "EXACT_MODE_MAX_K",
    "ITERATIVE_MODE_MAX_K",
    "DEFAULT_TOLERANCE",
]

# Every exact solve at k = 12 ends in seconds. Measured on a shared
# 2-vCPU Xeon, Python 3.11, as whole `gkserver system` runs: random
# policies (weights 1..40, random.Random(1), (2), (3)) take 7.0-9.4,
# 7.0-7.5 and 4.3-5.9 s at a peak RSS of 71, 66 and 62.5 MB; time follows
# the common denominator of h (16.8, 13.0 and 10.9 k bits). With --csv,
# Random(1) takes 12.7-12.8 s at 71 MB: the CSV alone builds h's 4095
# Fractions and their decimal digits. Uniform k = 12 takes 1.0-1.1 s at
# 46.7 MB.
EXACT_MODE_MAX_K = 12
# The largest k at which every iterative solve ends within about 10 s and
# 0.6 GB, one that spends the whole 60-pass budget included. Measured on a
# shared 2-vCPU Xeon, Python 3.11, as whole `gkserver system` runs: at
# k = 14 uniform takes 1.3-1.7 s (4 passes), random policies 2.0-3.1 s
# (12-18 passes) and a policy that exhausts the budget 8.3-9.4 s, at a
# peak RSS of 65-69 MB. Random k = 15 policies need 30-37 passes and
# 7.1-8.2 s a solve, at 114 MB; a random k = 16 one exhausted the budget
# in 38 s.
ITERATIVE_MODE_MAX_K = 14
DEFAULT_TOLERANCE = Fraction(1, 10**12)


class SolverError(ArithmeticError):
    """Iterative solve failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: Fraction, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class MemorylessPolicy:
    """Probability vector over metrics, stored in canonical descending order.

    `source_order[i]` is the caller's original index of canonical metric
    i+1, so results can be mapped back to the input labeling. Ties sort
    stably by original position.
    """

    probs: tuple[Fraction, ...]
    source_order: tuple[int, ...]

    def __post_init__(self):
        if not self.probs:
            raise ValueError("policy needs at least one metric")
        if any(p <= 0 for p in self.probs):
            raise ValueError("every probability must be positive; a zero-probability "
                             "metric makes the policy non-competitive")
        if sum(self.probs) != 1:
            raise ValueError(f"probabilities must sum to exactly 1, got {sum(self.probs)}")
        if any(self.probs[i] < self.probs[i + 1] for i in range(len(self.probs) - 1)):
            raise ValueError("canonical order violated (must be descending)")
        if sorted(self.source_order) != list(range(len(self.probs))):
            raise ValueError("source_order must be a permutation of 0..k-1")

    @classmethod
    def from_probs(cls, probs) -> "MemorylessPolicy":
        """Validate and canonicalize an arbitrary-order probability vector."""
        vec = [Fraction(p) for p in probs]
        order = sorted(range(len(vec)), key=lambda i: (-vec[i], i))
        return cls(probs=tuple(vec[i] for i in order), source_order=tuple(order))

    @classmethod
    def uniform(cls, k: int) -> "MemorylessPolicy":
        if k < 1:
            raise ValueError(f"need k >= 1, got {k}")
        return cls(probs=tuple(Fraction(1, k) for _ in range(k)),
                   source_order=tuple(range(k)))

    @property
    def k(self) -> int:
        return len(self.probs)

    @property
    def is_uniform(self) -> bool:
        return all(p == self.probs[0] for p in self.probs)

    def as_strs(self) -> list[str]:
        return [rational_to_str(p) for p in self.probs]


@dataclass(frozen=True)
class SubsetSystem:
    """The subset-state equations times W = lcm of p's denominators, in integers.

    scaled_rows = (W, [(columns, W coefficients), ...]), the row of mask
    i + 1 at index i, each over at most k + 2 masks; every right side is
    1, so W b is W in every row, and h(0) = 0 is implicit.
    """

    policy: MemorylessPolicy
    scaled_rows: tuple[int, list[tuple[tuple[int, ...], tuple[int, ...]]]]

    @property
    def k(self) -> int:
        return self.policy.k

    @cached_property
    def rows(self) -> dict[int, tuple[dict[int, Fraction], Fraction]]:
        """The rows in Fractions: rows[mask] = (coefficients over masks, rhs)."""
        w, rows = self.scaled_rows
        return {mask: ({c: Fraction(v, w) for c, v in zip(cols, vals)}, Fraction(1))
                for mask, (cols, vals) in enumerate(rows, 1)}

    def residual(self, h) -> Fraction:
        """Max absolute violation of the equations by a candidate h over the masks.

        h is a solution's view or a sequence of rationals, one per mask.
        """
        w, rows = self.scaled_rows
        if len(h) != len(rows) + 1:
            raise ValueError(f"h has {len(h)} entries; a k = {self.k} system has {len(rows) + 1} masks")
        h = _scaled(h)
        unit = w * h.delta
        return Fraction(max(map(abs, _residual(rows, repeat(unit), h.x))), unit)


def _residual(rows: list, b, x: list[int]) -> list[int]:
    """b - (W A) x in integers, b and x indexed by mask; entry 0 is 0.

    With h = x / delta and every entry of b equal to delta W (W b is W),
    this is the scaled residual W delta (b - A h); the p-adic lift passes
    its running residual as b.
    """
    return [0] + [bi - sum(map(mul, vals, map(x.__getitem__, cols)))
                  for bi, (cols, vals) in zip(islice(b, 1, None), rows)]


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


def build_system(policy: MemorylessPolicy) -> SubsetSystem:
    """Assemble the integer equations W A h = W b for every nonempty subset.

    Each row's columns come from `_columns`; the coefficient of a
    neighbour S ^ {i} is -W p_i, and the diagonal W (p_m + sum_{j not in
    S} p_j) is built from the running complement sums W (1 - sum_{j in S}
    p_j), one subtraction a mask.
    """
    k = policy.k
    w, weights = common_denominator(policy.probs)
    outside = [w] * (1 << k)
    rows = []
    for mask, cols in enumerate(_columns(k), 1):
        low = mask & -mask
        wm = weights[low.bit_length() - 1]
        outside[mask] = outside[mask ^ low] - wm
        rows.append((cols, (*[-weights[(c ^ mask).bit_length() - 1] for c in cols[:-1]],
                            wm + outside[mask])))
    return SubsetSystem(policy=policy, scaled_rows=(w, rows))


class _Scaled(Sequence):
    """Read-only x / delta over an integer pair: reading an entry builds one
    normalised Fraction, a slice a tuple of them. It equals a tuple or another
    view exactly when their values agree."""

    def __init__(self, delta: int, x: list[int]):
        self.delta, self.x = delta, x

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(Fraction(v, self.delta) for v in self.x[i])
        return Fraction(self.x[i], self.delta)

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, _Scaled)):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))


def _scaled(h) -> _Scaled:
    """h itself if it is a view, else a view over its lcm form."""
    return h if isinstance(h, _Scaled) else _Scaled(*common_denominator(h))


@dataclass(frozen=True)
class SubsetSolution:
    """Solved h values, indexed by subset mask (h[0] == 0).

    h is a view over the solver's (delta, x); an h passed in as values,
    one per mask, becomes one over their lcm form. max_residual is the
    exact residual of the stored values: zero in exact mode, below the
    requested tolerance in iterative mode.
    """

    policy: MemorylessPolicy
    h: Sequence[Fraction]
    mode: str
    max_residual: Fraction
    tolerance: Fraction | None = None
    iterations: int | None = None

    def __post_init__(self):
        if len(self.h) != 1 << self.k:
            raise ValueError(f"h has {len(self.h)} entries; a k = {self.k} system has "
                             f"{1 << self.k} masks")
        object.__setattr__(self, "h", _scaled(self.h))

    @property
    def k(self) -> int:
        return self.policy.k

    @property
    def h_k(self) -> Fraction:
        """h({k}): the singleton holding only the smallest-probability metric."""
        return self.h[1 << (self.k - 1)]

    @property
    def check_slack(self) -> Fraction:
        """Comparison slack for inequality checks: 0 exact, 10x tolerance iterative."""
        if self.mode == "exact":
            return Fraction(0)
        return 10 * (self.tolerance if self.tolerance is not None else DEFAULT_TOLERANCE)

    @property
    def scaled(self) -> tuple[int, list[int]]:
        """(delta, x) with h = x / delta in integers (delta = 2^E in iterative mode)."""
        return self.h.delta, self.h.x


class _Schedule(NamedTuple):
    """Where the elimination of every system with n masks reads and writes.

    Entries live in one flat store. Entry x < n is pivot x's diagonal;
    from n on come the pivots in decreasing mask order, each one's U row
    at ustart[x]:lstart[x], then its L column at lstart[x]:ustart[x - 1]
    (ustart[0] is the store's size). index[p] is the column of a U entry
    and the row of an L entry at store position p. Pivot x's outer-product
    update L x U, row-major, writes the store positions
    updates[qstart[x]:qstart[x - 1]], and sources[j] is the position of
    the j-th coefficient of `scaled_rows`, row by row. The offsets and
    the index are memoryviews, which read as Python ints.
    """

    sources: np.ndarray
    index: memoryview
    ustart: memoryview
    lstart: memoryview
    qstart: memoryview
    updates: np.ndarray


# rows of `_columns` whose sources are placed at once; bounds the scratch arrays
_ROWS_AT_ONCE = 1 << 10


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The runs starts[i], starts[i] + 1, ... of counts[i] numbers each, end to end."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1] if len(ends) else 0)


def _above(a: np.ndarray) -> np.ndarray:
    """For each mask, the sum of a over the masks above it."""
    return np.cumsum(a[::-1])[::-1] - a


@cache
def _schedule(n: int) -> _Schedule:
    """The structure of the elimination of the systems with n masks; cached.

    Elimination in decreasing mask order fills a pattern with a closed
    form. With low the lowest bit of pivot x and y = x ^ low:
    - its U row holds y (none for a singleton), then y & -b for each b
      that starts a run of ones in y above its lowest run, highest b
      first. That is the order in which an elimination that keeps each
      row as a dict inserts them, hence the order `_substitute` sums in;
    - its L column holds the rows (x ^ b) | t for each bit b of x and
      each t < low, but the empty set: one run of rows per bit, in
      increasing order when b goes from the highest bit down.
    Both match such an elimination, run on column sets alone, at every
    k <= 14. So an entry's store position follows from its row and
    column alone (`position` below), and the index, the update targets
    and the sources are computed bit by bit for all pivots at once.
    """
    x = np.arange(n)
    low = x & -x
    y = x ^ low
    runs = y & ~(y << 1)  # the lowest bit of each run of ones in y
    ulen = np.bitwise_count(runs)
    llen = np.bitwise_count(x) * low - (y == 0)
    llen[0] = 0
    ustart = (n + _above(ulen + llen)).astype(np.int32)
    lstart = ustart + ulen
    qstart = _above(ulen * llen).astype(np.int32)

    def position(r: np.ndarray, c: np.ndarray) -> np.ndarray:
        """The store position of entry (r, c): r's diagonal, a U entry of row r
        or an L entry of column c, at its rank in the closed form above."""
        c_low, r_y = c & -c, r ^ (r & -r)
        # U: y first, then one entry per run of y above the lowest, highest first
        urank = np.where(c == r_y, 0, 1 + np.bitwise_count(r_y & ~(r_y << 1) & -(c_low << 1)))
        # L: the run of rows for the bit of c that r lacks (a singleton's starts at 1)
        lrank = (np.bitwise_count(c & -((c & ~r) << 1)) * c_low + (r & c_low - 1)
                 - (c == c_low))
        return np.where(c == r, r, np.where(c < r, ustart[r] + urank, lstart[c] + lrank))

    index = np.empty(ustart[0], np.min_scalar_type(n - 1))  # masks, in the narrowest type
    index[:n] = x
    updates = np.empty(qstart[0], np.int32)
    for j in range(n.bit_length() - 1):
        b = 1 << j
        on = np.flatnonzero(runs & b)  # the U rows holding y & -b
        rank = np.where(y[on] & -y[on] == b, 0, 1 + np.bitwise_count(runs[on] >> j + 1))
        index[ustart[on] + rank] = y[on] & -b
    for j in range(n.bit_length() - 1):  # after every U row: the updates read them
        b = 1 << j
        on = np.flatnonzero(x & b)  # the L columns holding the run of rows x ^ b
        first = np.maximum(on ^ b, 1)
        count = (on ^ b) + low[on] - first
        rows, pivot = _ranges(first, count), np.repeat(on, count)
        place = _ranges(np.bitwise_count(on >> j + 1) * low[on], count)  # in the L column
        index[lstart[pivot] + place] = rows
        for slot in range(int(ulen.max())):  # each row's update from the pivot's slot-th U entry
            keep = ulen[pivot] > slot
            p = pivot[keep]
            updates[qstart[p] + place[keep] * ulen[p] + slot] = position(
                rows[keep], index[ustart[p] + slot])
    sources, pattern = [], _columns(n.bit_length() - 1)
    for first in range(1, n, _ROWS_AT_ONCE):
        part = list(islice(pattern, _ROWS_AT_ONCE))
        sources.append(position(np.repeat(np.arange(first, first + len(part)), [*map(len, part)]),
                                np.fromiter(chain.from_iterable(part), np.int64)))
    return _Schedule(np.concatenate(sources).astype(np.int32), memoryview(index),
                     memoryview(ustart), memoryview(lstart), memoryview(qstart), updates)


class _Factors(NamedTuple):
    """LU factors of a subset system, pivoted in decreasing mask order.

    `values` is the store `_eliminate` filled, laid out as `plan` (a
    `_Schedule`) says: pivot x's diagonal, U row and L column are its
    slices, and `plan.index` names their columns and rows. Float values
    stay packed behind a memoryview, which reads them as Python floats;
    residues and Fractions are a list. With a nonzero modulus the
    entries are residues and values[x] holds the inverse of the pivot,
    so substitution multiplies by it.
    """

    values: Sequence
    plan: _Schedule
    modulus: int


def _eliminate(rows, n: int, zero, modulus: int = 0) -> _Factors:
    """Factor step of the shared elimination core: a numeric replay of `_schedule(n)`.

    `rows` holds the coefficients in one numeric type (int residues
    modulo a prime for the exact path, float for the preconditioner,
    Fraction for the test oracle): one iterable per row in mask order,
    each in `scaled_rows`' column order. The `_Schedule`'s sources place
    them in a float64 store for floats, else an object one. Each pivot
    divides its U row by the diagonal and subtracts its outer product
    L x U from the entries the schedule names, so every entry sees the
    same operations in the same order as in an elimination that keeps
    each row as a dict, and float factors are bit for bit the same.

    Given a modulus, integer rows are factored modulo it. Updates are not
    reduced: the pivot row and each L factor are reduced when read, so
    live entries only grow by sums of products of two residues.
    """
    plan = _schedule(n)
    store = np.full(len(plan.index), zero, float if isinstance(zero, float) else object)
    store[plan.sources] = np.fromiter(chain.from_iterable(rows), store.dtype, len(plan.sources))
    ustart, lstart, qstart = plan.ustart, plan.lstart, plan.qstart
    prime = np.array(modulus, object)  # numpy reads a 0-d object array faster than a big int
    # pivot x, where its U row starts, its L column starts and ends, its updates start and end
    for x, u0, l0, l1, q0, q1 in zip(range(n - 1, 0, -1), ustart[:0:-1], lstart[:0:-1],
                                     ustart[-2::-1], qstart[:0:-1], qstart[-2::-1]):
        d = store[x]
        if modulus:
            d %= modulus
        if d == zero:
            where = " modulo the prime" if modulus else ""
            raise ArithmeticError(f"zero pivot at mask {x:#x}{where}; system unexpectedly singular")
        f = store[l0:l1]
        if modulus:
            store[x] = inv = pow(d, -1, modulus)
            f %= prime
        if u0 == l0:  # a singleton's U row is empty: it updates nothing
            continue
        expr = store[u0:l0]
        if modulus:
            expr *= np.array(inv, object)
            expr %= prime
        else:
            expr /= d
        np.subtract.at(store, plan.updates[q0:q1], np.multiply.outer(f, expr).ravel())
    return _Factors(memoryview(store) if store.dtype == float else store.tolist(), plan, modulus)


def _substitute(factors: _Factors, rhs) -> list:
    """Solve A h = rhs from the factors; rhs[0] is returned as h[0].

    Applies the L columns in pivot order, then back-substitutes through U
    in increasing mask order. Residue factors return residues.
    """
    values, plan, modulus = factors
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


# The Mersenne prime 2^521 - 1: the base of the p-adic lift. Elimination
# modulo it breaks down only where a leading minor of W A, in pivot
# order, is a multiple of this 521-bit prime.
_PRIME_BITS = 521
_PRIME = (1 << _PRIME_BITS) - 1


def _reconstruct(u: int, m: int, num_bound: int, den_bound: int) -> tuple[int, int] | None:
    """The fraction n/d = u (mod m) with |n| <= num_bound, 0 < d <= den_bound.

    Wang's half-extended Euclid; with 2 num_bound den_bound < m at most
    one such fraction exists. Returns (n, d), or None if there is none.
    """
    r0, r1, t0, t1 = m, u % m, 0, 1
    while r1 > num_bound:
        q, r = divmod(r0, r1)
        r0, r1, t0, t1 = r1, r, t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 > den_bound or gcd(r1, t1) != 1:
        return None
    return r1, t1


def _lifted(digits: list[list[int]], i: int) -> int:
    """Entry i of sum_j digits[j] P^j, by Horner's rule; x P is (x << 521) - x."""
    v = 0
    for y in reversed(digits):
        v = (v << _PRIME_BITS) - v + y[i]
    return v


def _rebuild(digits: list[list[int]], probe: tuple[int, int]):
    """Rebuild h = x / delta from the growing P-adic digits of x; a generator.

    Yields None whenever the digits so far cannot settle the next entry;
    the caller appends the next lift's digits and resumes it. Yields
    (delta, x) once every entry is settled.

    `probe` is h(full) as a fraction. h grows with S, so hmax = ceil(h(full))
    bounds every entry, and the probe's denominator starts the running
    common denominator den. Entries go in decreasing mask order, block by
    block: the equations of the masks whose largest element is j involve
    only the empty set and masks whose largest element is at least j, so
    W A is block triangular and each block adds one factor to den. An
    entry times den is either already a numerator of size at most
    hmax den, which the fewest digits whose modulus exceeds 2 P hmax den
    decide, or it is reconstructed and its new factor joins den; delta
    ends as the lcm of the denominators. Every bound keeps a factor P of
    slack: a residue that is not yet the image of such a fraction passes
    with probability below 1/P, and the certificate rejects it then.
    """
    n = len(digits[0])
    hmax = -(-probe[0] // probe[1])
    den = probe[1]
    nums, dens = [0] * n, [den] * n
    for i in range(n - 1, 0, -1):
        limit = hmax * den
        need = (2 * _PRIME * limit).bit_length() // _PRIME_BITS + 1
        while len(digits) < need:
            yield None
        low = _PRIME ** need
        v = _lifted(digits[:need], i) * den % low
        if v > low >> 1:
            v -= low
        if abs(v) > limit:
            while True:
                m = _PRIME ** len(digits)
                den_bound = isqrt(m // (2 * _PRIME * limit))
                frac = _reconstruct(_lifted(digits, i) * den, m, limit * den_bound, den_bound)
                if frac is not None:
                    break
                yield None
            v, d = frac
            den *= d
        nums[i], dens[i] = v, den
    for i, d in enumerate(dens):
        if d != den:
            nums[i] *= den // d
    yield den, nums


def _lift(scaled_rows: tuple, n: int) -> tuple[int, list[int]]:
    """Dixon's p-adic lift: (delta, x) with W A x = delta W b, uncertified.

    W A is factored once modulo the prime P. Each lift solves for the
    next P-adic digit of (W A)^-1 W b by substitution alone and divides
    the integer residual by P exactly. Once the probe h(full) reconstructs
    to the same fraction at two lifts in a row, `_rebuild` settles the
    entries, asking for more lifts as it needs them.
    """
    w, rows = scaled_rows
    factors = _eliminate((vals for _, vals in rows), n, 0, _PRIME)
    r = [0] + [w] * (n - 1)
    hadamard_bits = sum((w * w + sum(v * v for v in vals)).bit_length() for _, vals in rows)
    # Numerators and denominators are Cramer determinants, below the
    # Hadamard bound H = 2^(hadamard_bits / 2). A rebuilt entry needs
    # m > 2 P hmax den d^2 with hmax, den and its new factor d below H.
    max_lifts = 2 * hadamard_bits // _PRIME_BITS + 3
    digits: list[list[int]] = []
    m, last, rebuild = 1, None, None
    for _ in range(max_lifts):
        y = _substitute(factors, r)
        digits.append(y)
        r = [v // _PRIME for v in _residual(rows, r, y)]
        m *= _PRIME
        if rebuild is None:
            bound = isqrt(m >> 1)
            probe = _reconstruct(_lifted(digits, n - 1), m, bound, bound)
            if probe is None or probe != last or probe[0] <= 0:
                last = probe
                continue
            rebuild = _rebuild(digits, probe)
        found = next(rebuild)
        if found is not None:
            return found
    raise ArithmeticError(f"p-adic solve found no stable solution in {max_lifts} lifts")


def _solve_exact(system: SubsetSystem) -> _Scaled:
    """h from the p-adic lift, returned only if W A x == delta W b holds exactly.

    Raises ArithmeticError if the integer check fails, if a pivot
    vanishes modulo P, or if no reconstruction settles within the
    Hadamard bound.
    """
    w, rows = system.scaled_rows
    delta, x = _lift(system.scaled_rows, 1 << system.k)
    for mask, v in enumerate(_residual(rows, repeat(w * delta), x)):
        if v:
            raise ArithmeticError(f"p-adic solution fails the integer check at mask {mask:#x}")
    return _Scaled(delta, x)


def _solve_iterative(system: SubsetSystem, tolerance: Fraction, max_iterations: int):
    """Float64 LU factors once, then refinement with exact integer residuals.

    The float factors are computed once; each pass solves for the
    correction by substitution alone. Every correction is a float, hence
    a dyadic rational, so h is held exactly as integers X * 2^-E. With
    W = lcm of the denominators of p, the scaled residual
    W * 2^E * (b - A h) is the integer vector `_residual` forms with
    delta = 2^E, from the rows of `system`. Contraction per pass
    is roughly machine-epsilon times the solution magnitude, so a few
    passes reach any practical tolerance.

    Stopping is certified: the system matrix is an M-matrix whose inverse
    is nonnegative with row sums h(S), so every component error is at
    most max(h) times the max residual. The loop stops once that product
    is below the tolerance, which also puts the residual itself far below
    it. Returns (h as a view over (2^E, X), iterations, residual).
    """
    n = 1 << system.k
    w, rows = system.scaled_rows
    # a / w is float(Fraction(a, w)): int true division rounds correctly
    factors = _eliminate(([a / w for a in vals] for _, vals in rows), n, 0.0)
    tn, td = tolerance.numerator, tolerance.denominator
    x = [0] * n
    e = 0
    for iteration in range(max_iterations + 1):
        scale = w << e
        r = _residual(rows, repeat(scale), x)
        worst = max(map(abs, r))
        # worst / scale * (1 + max(x) / 2^E) < tn / td, cross-multiplied
        if worst * ((1 << e) + max(x)) * td < (tn * scale) << e:
            return _Scaled(1 << e, x), iteration, Fraction(worst, scale)
        if iteration == max_iterations:
            break
        correction = [c.as_integer_ratio() for c in _substitute(factors, [v / scale for v in r])]
        e_new = max(e, max(den.bit_length() for _, den in correction) - 1)
        x = [(xi << (e_new - e)) + (num << (e_new + 1 - den.bit_length()))
             for xi, (num, den) in zip(x, correction)]
        e = e_new
    residual = Fraction(worst, scale)
    raise SolverError(
        f"iterative solve did not reach tolerance {tolerance} after "
        f"{max_iterations} refinement passes (residual {float(residual):.3e})",
        residual=residual,
        iterations=max_iterations,
    )


def solve_system(
    policy: MemorylessPolicy,
    mode: str = "exact",
    tolerance: Fraction = DEFAULT_TOLERANCE,
    max_iterations: int = 60,
) -> SubsetSolution:
    """Solve the subset-state system.

    exact: p-adic solve certified by an exact integer residual of zero,
    k <= EXACT_MODE_MAX_K; raises ArithmeticError rather than return an
    uncertified answer.
    iterative: float64 factors refined to a certified error below
    tolerance, k <= ITERATIVE_MODE_MAX_K.
    """
    if mode == "exact":
        if policy.k > EXACT_MODE_MAX_K:
            raise ValueError(f"exact mode supports k <= {EXACT_MODE_MAX_K}, got {policy.k}")
        h = _solve_exact(build_system(policy))
        res, tolerance, iterations = Fraction(0), None, None
    elif mode == "iterative":
        if policy.k > ITERATIVE_MODE_MAX_K:
            raise ValueError(
                f"iterative mode supports k <= {ITERATIVE_MODE_MAX_K}, got {policy.k}"
            )
        tolerance = Fraction(tolerance)
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if type(max_iterations) is not int or max_iterations < 0:
            raise ValueError(f"max_iterations must be an int >= 0, got {max_iterations!r}")
        h, iterations, res = _solve_iterative(build_system(policy), tolerance, max_iterations)
    else:
        raise ValueError(f"unknown mode {mode!r}; expected 'exact' or 'iterative'")
    return SubsetSolution(policy=policy, h=h, mode=mode, max_residual=res,
                          tolerance=tolerance, iterations=iterations)


def lower_bound_hk(policy: MemorylessPolicy) -> Fraction:
    """alpha(k) / p_k: the proven floor for h({k}) under any policy."""
    return Fraction(alpha(policy.k)) / policy.probs[policy.k - 1]


def _scaled_drops(sol: SubsetSolution):
    """Integer form of the drops p_i (h(S) - h(S\\{i})) and of the slack.

    Returns (drops, unit, sn, sd): drops(mask, i) is the integer
    W delta p_i (h(S) - h(S\\{i})), so the drop is drops(mask, i) / unit
    with unit = W delta, and the slack is sn / sd.
    """
    w, weights = common_denominator(sol.policy.probs)
    delta, x = sol.scaled
    slack = sol.check_slack

    def drops(mask: int, i: int) -> int:
        return weights[i - 1] * (x[mask] - x[mask & ~(1 << (i - 1))])

    return drops, w * delta, slack.numerator, slack.denominator


def check_monotonicity(sol: SubsetSolution) -> list[tuple[int, int, int, Fraction, Fraction]]:
    """Weighted-difference ordering inside every subset.

    For i < j both in S (so p_i >= p_j) the solution must satisfy
    p_i (h(S) - h(S\\{i})) <= p_j (h(S) - h(S\\{j})). Returns violations
    as (mask, i, j, lhs, rhs); empty means all hold within slack. The
    comparisons run on the integer drops, with the slack cross-multiplied.
    """
    k = sol.k
    drops, unit, sn, sd = _scaled_drops(sol)
    margin = sn * unit
    out = []
    for mask in range(1, 1 << k):
        members = [i for i in range(1, k + 1) if mask & (1 << (i - 1))]
        vals = [drops(mask, i) for i in members]
        cmp = [v * sd for v in vals]
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                if cmp[a] > cmp[b] + margin:
                    out.append((mask, members[a], members[b],
                                Fraction(vals[a], unit), Fraction(vals[b], unit)))
    return out


def check_subset_alpha_bound(sol: SubsetSolution) -> list[tuple[int, int, Fraction, int]]:
    """Per-element drop floor: p_i (h(S) - h(S\\{i})) >= alpha(k - |S| + 1).

    Returns violations as (mask, i, value, floor); empty means all hold.
    The comparisons run on the integer drops, with the slack
    cross-multiplied.
    """
    k = sol.k
    drops, unit, sn, sd = _scaled_drops(sol)
    a = alpha_table(k)
    out = []
    for mask in range(1, 1 << k):
        floor = a[k - mask.bit_count()]  # alpha(k - |S| + 1)
        limit = (floor * sd - sn) * unit
        for i in range(1, k + 1):
            if mask & (1 << (i - 1)):
                val = drops(mask, i)
                if val * sd < limit:
                    out.append((mask, i, Fraction(val, unit), floor))
    return out


def phi_transform(sol: SubsetSolution) -> Sequence[Fraction]:
    """phi(S) = h(full) - h(full \\ S), verified against its own equations.

    phi satisfies phi(empty) = 0 and, for every Sbar != full with
    m = min(full \\ Sbar),

        p_m (phi(Sbar u {m}) - phi(Sbar))
            = 1 + sum_{j in Sbar} p_j (phi(Sbar) - phi(Sbar \\ {j})).

    Raises ValueError naming the first violated equation if the input
    solution is inconsistent. The equation at Sbar is the original one at
    S = full \\ Sbar, so its residual is the system's residual at S,
    compared against the solution's check_slack.
    Returns phi as a view like h, over x(full) - x(full \\ S) and h's delta.
    """
    full = (1 << sol.k) - 1
    w, rows = build_system(sol.policy).scaled_rows
    delta, x = sol.scaled
    unit = w * delta
    slack = sol.check_slack
    # phi's equations are the system's over h - h(empty): phi(full) reads h(empty)
    r = _residual(rows, repeat(unit), [v - x[0] for v in x])
    for sbar in range(full):
        if abs(r[full ^ sbar]) * slack.denominator > slack.numerator * unit:
            raise ValueError(f"transformed equation violated at Sbar mask {sbar:#x}: "
                             f"residual {Fraction(r[full ^ sbar], unit)}")
    return _Scaled(delta, [x[full] - x[full & ~mask] for mask in range(full + 1)])


def competitive_gap(policy: MemorylessPolicy, solution: SubsetSolution | None = None) -> Fraction:
    """h({k}) - k*alpha(k): zero exactly when the policy is uniform.

    A given solution must be of `policy`; raises ValueError otherwise.
    """
    if solution is None:
        solution = solve_system(policy, mode="exact")
    elif solution.policy != policy:
        raise ValueError(f"the solution is of policy {solution.policy.as_strs()}, "
                         f"not of {policy.as_strs()}")
    return solution.h_k - policy.k * alpha(policy.k)
