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
fill-in tiny (each reduced row touches only a handful of "tail"
subsets). Every policy at a given k shares the sparsity pattern, which
`_pattern` states, so what a solve needs to know of it is worked
out once per k, as one plan of arrays (`_plan`), and kept for the last
_PLANS values of k. The plan says where each pivot reads and writes
(`_schedule`) in one flat store, which each factorization fills by
replaying that with numpy, in float64 or over Python ints: the store is
the whole of the factors, pivot x's diagonal, U row and L column being
slices of it that the plan names. The plan also says how substitution
walks the factors (`_blocks`): the L solve walks aligned blocks of 32
masks, entry by entry within a block and with one vector update for the
entries that leave it, and the U solve goes a popcount level at a time.
The system is assembled in integers, as W A h = W b straight from the
weights W p, W the lcm of p's denominators, into one flat array of
coefficients over the plan's columns, which the integer residual reads
too; its Fraction rows are only a view. The exact mode factors W A once
modulo the Mersenne prime P = 2^521 - 1, lifts the solution p-adically by
substitution, rebuilds h = x / delta by rational reconstruction and
returns it only if W A x == delta W b holds in integers; it runs through
k = 12. Its residues are folded, not divided: 2^521 is 1 modulo P, so a
product or a sum beyond [-P, P] becomes (v & P) + (v >> 521), a few bits
wider than P at most (`_fold`). Residues are canonical, in [0, P), only
where a value must be: each pivot before its zero test and its inverse,
and the digits a substitution returns. The
iterative mode factors once with the same elimination in float64, then
refines by substitution alone, with exact integer residuals, until the
requested tolerance is met. Either solver's (delta, x) is the solution:
h is a view over it that builds a Fraction only for an entry that is
read, and the inequality checks and the phi transform compare integer
drops on it. A solve that fails raises an ArithmeticError (SolverError
for iterative refinement).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt
from operator import eq
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
# 2-vCPU Xeon, Python 3.11, numpy 2.4, as whole `gkserver system` runs:
# random policies (weights 1..40, random.Random(1), (2), (3)) take
# 4.8, 3.5-3.8 and 2.7-2.9 s at a peak RSS of 68, 63.3 and 59.4 MB; time
# follows the common denominator of h (16.8, 13.0 and 10.9 k bits). With
# --csv, Random(1) takes 9.3-9.4 s at 68 MB: the CSV alone builds h's 4095
# Fractions and their decimal digits. Uniform k = 12 takes 0.5 s at 44 MB.
EXACT_MODE_MAX_K = 12
# The largest k at which every iterative solve ends within about 10 s and
# 0.6 GB, one that spends the whole 60-pass budget included. Measured on a
# shared 2-vCPU Xeon, Python 3.11, as whole `gkserver system` runs: at
# k = 14 uniform takes 0.8 s (4 passes), random policies
# (`random.Random(1)`-(3), weights 1..40) 1.2-1.7 s (12-18 passes) and a
# policy that exhausts the budget 3.0-3.8 s, at a peak RSS of 64-67 MB.
# Random k = 15 policies need 30-37 passes and 4.0-4.6 s a solve, at
# 111 MB; a random k = 16 one exhausted the budget in 38 s, measured
# before substitution went by blocks and levels.
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

    coefficients holds the W coefficients of every row end to end, as an
    object array: the row of mask i + 1 is coefficients[starts[i]:starts[i
    + 1]] over the masks columns[starts[i]:starts[i + 1]] of the k's
    `_plan`, at most k + 2 of them. Every right side is 1, so W b is w in
    every row, and h(0) = 0 is implicit.
    """

    policy: MemorylessPolicy
    w: int
    coefficients: np.ndarray = field(repr=False, compare=False)

    @property
    def k(self) -> int:
        return self.policy.k

    @cached_property
    def rows(self) -> dict[int, tuple[dict[int, Fraction], Fraction]]:
        """The rows in Fractions: rows[mask] = (coefficients over masks, rhs)."""
        plan, values = _plan(self.k), self.coefficients.tolist()
        columns, bounds = plan.columns.tolist(), plan.starts.tolist()
        return {mask: ({c: Fraction(v, self.w) for c, v in zip(columns[i:j], values[i:j])},
                       Fraction(1))
                for mask, i, j in zip(range(1, 1 << self.k), bounds, bounds[1:])}

    def residual(self, h) -> Fraction:
        """Max absolute violation of the equations by a candidate h over the masks.

        h is a solution's view or a sequence of rationals, one per mask.
        """
        h = _scaled(h, self.k)
        unit = self.w * h.delta
        return Fraction(max(map(abs, _residual(self, unit, h.x))), unit)


# rows whose residual sums are taken at once; bounds the products held, which
# grow with the bits of x in exact mode
_RESIDUAL_ROWS = 1 << 8


def _residual(system: SubsetSystem, b, x: list[int]) -> list[int]:
    """b - (W A) x in integers, x indexed by mask; entry 0 is 0.

    b is one integer for every row, or a list indexed by mask. With
    h = x / delta and b = delta W (W b is W), this is the scaled residual
    W delta (b - A h); the p-adic lift passes its running residual as b.
    The products of `system.coefficients` with the entries of x they
    meet are summed row by row, _RESIDUAL_ROWS rows at a time.
    """
    plan = _plan(system.k)
    starts, coefficients = plan.starts, system.coefficients
    x, b = np.array(x, object), np.array(b, object)
    out = [0]
    for r0 in range(0, len(starts) - 1, _RESIDUAL_ROWS):
        r1 = min(r0 + _RESIDUAL_ROWS, len(starts) - 1)
        e0, e1 = starts[r0], starts[r1]
        sums = np.add.reduceat(coefficients[e0:e1] * x[plan.columns[e0:e1]],
                               starts[r0:r1] - e0)
        out += ((b[r0 + 1:r1 + 1] if b.ndim else b) - sums).tolist()
    return out


def _pattern(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(starts, columns, bits, rows): the pattern of the k-metric systems, and the one
    statement of the subset walk's row rule. Every policy at k has it, as every p_i > 0.

    Row S, low its lowest bit, is over the cells of the grid (S ^ low, S | 1 << 0, ...,
    S | 1 << k - 1, S) that differ from S and are nonzero, then S: S \\ {min S} but for a
    singleton (h(empty) = 0), then S u {j} for the j not in S in increasing order, then
    the diagonal. Row i, of mask i + 1, is over columns[starts[i]:starts[i + 1]]; entry e
    is in row rows[e] and carries the weight of metric bits[e], the one bit of S ^ column,
    or min S on the diagonal.
    """
    masks = np.arange(1, 1 << k, dtype=np.int32)[:, None]
    low = masks & -masks
    grid = np.hstack((masks ^ low, masks | 1 << np.arange(k, dtype=np.int32), masks))
    keep = (grid != masks) & (grid != 0)
    keep[:, -1] = True
    starts = np.concatenate(([0], np.cumsum(np.count_nonzero(keep, axis=1))), dtype=np.int32)
    columns, rows = grid[keep], np.broadcast_to(masks, grid.shape)[keep]
    grid ^= masks
    grid[:, -1:] = low  # the diagonal carries min S
    return starts, columns, np.bitwise_count(grid[keep] - 1).astype(np.int8), rows


class _Plan(NamedTuple):
    """What every system with k metrics shares, worked out once per k (`_plan`).

    First the sparsity pattern, as `_pattern` states it: row i, of mask i + 1, is over
    the masks columns[starts[i]:starts[i + 1]], and entry j weighs metric bits[j].

    Then where their elimination reads and writes (`_schedule`): the
    factors live in one flat store. Entry x < n = 2^k is pivot x's
    diagonal; from n on come the pivots in decreasing mask order, each
    one's U row at ustart[x]:lstart[x], then its L column at
    lstart[x]:ustart[x - 1] (ustart[0] is the store's size). index[p] is
    the column of a U entry and the row of an L entry at store position
    p. Pivot x's outer-product update L x U, row-major, writes the store
    positions updates[qstart[x]:qstart[x - 1]], and sources[j] is the
    position of the system's j-th coefficient, entry j of the pattern.

    Then how `_substitute` walks the factors (`_blocks`).

    The masks fall into aligned blocks of _BLOCK, walked from the top.
    Pivot x's L column holds the rows (x ^ b) | t for each bit b of x and
    t < low (`_schedule`), so the rows in x's own block, those of the
    bits b below _BLOCK, are the column's suffix, and their offsets in
    the block depend on x's offset alone: local[0][r] lists them for
    block 0 (which lacks the empty set), local[1][r] for every other
    block. Per block from the top, inner holds the store positions of
    those suffixes and outer those of the columns' other entries, pivots
    in decreasing order, and pivot the offset of each outer entry's pivot.

    Every U column of a mask is a subset of it, so the U solve goes by
    popcount level: levels[j - 1] is (the masks with j bits, one
    (targets, store positions, columns) per U slot s, over the masks
    whose U row has an s-th entry).
    """

    starts: np.ndarray
    columns: np.ndarray
    bits: np.ndarray
    sources: np.ndarray
    index: np.ndarray
    ustart: np.ndarray
    lstart: np.ndarray
    qstart: np.ndarray
    updates: np.ndarray
    local: tuple[tuple[tuple[int, ...], ...], ...]
    inner: list[np.ndarray]
    outer: list[np.ndarray]
    pivot: list[np.ndarray]
    levels: list[tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray, np.ndarray]]]]


# The values of k whose plans are kept. At least 2: each solve workload of the
# bench alternates two values of k, and a plan costs a fair share of a solve
# (2-vCPU Xeon, Python 3.11, best of 5: k = 8 2.7 ms against 9.5-17.8 ms for an
# exact solve, k = 12 22 ms against 53-74 ms for an iterative one). A plan holds
# 10.1 MB at k = 14 and 52.8 MB at k = 16 (tracemalloc).
_PLANS = 2


@lru_cache(_PLANS)
def _plan(k: int) -> _Plan:
    """The plan of the k-metric systems; cached for the last _PLANS values of k."""
    starts, columns, bits, rows = _pattern(k)
    schedule = _schedule(1 << k, rows, columns)
    return _Plan(starts, columns, bits, *schedule, *_blocks(*schedule[1:4]))


def build_system(policy: MemorylessPolicy) -> SubsetSystem:
    """Assemble the integer equations W A h = W b for every nonempty subset.

    The entries follow the pattern of the k's `_plan`, which is worked out
    here if it is not cached; the coefficient of a neighbour S ^ {i} is
    -W p_i, and the diagonal W (p_m + sum_{j not in S} p_j) is W p_m plus
    W minus the weight of S, the weights of every mask summed in one
    doubling pass over the metrics.
    """
    w, weights = common_denominator(policy.probs)
    plan = _plan(policy.k)
    inside = np.zeros(1, object)  # W sum_{i in S} p_i, by mask
    for weight in weights:
        inside = np.concatenate((inside, inside + weight))
    # negated before the gather, so entries share the k weights' int objects
    coefficients = np.array([-v for v in weights], object)[plan.bits]
    diagonal = plan.starts[1:] - 1
    coefficients[diagonal] = w - inside[1:] - coefficients[diagonal]
    return SubsetSystem(policy=policy, w=w, coefficients=coefficients)


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


def _scaled(h, k: int) -> _Scaled:
    """h itself if it is a view, else a view over its lcm form; h must hold one
    entry per mask of k metrics."""
    if len(h) != 1 << k:
        raise ValueError(f"h has {len(h)} entries; a k = {k} system has {1 << k} masks")
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
        object.__setattr__(self, "h", _scaled(self.h, self.k))

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


# entries of the pattern whose sources are placed at once; bounds the scratch arrays
_ENTRIES_AT_ONCE = 1 << 14


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The runs starts[i], starts[i] + 1, ... of counts[i] numbers each, end to end."""
    ends = np.cumsum(counts, dtype=np.int32)
    return (np.repeat(starts - ends + counts, counts)
            + np.arange(ends[-1] if len(ends) else 0, dtype=np.int32))


def _above(a: np.ndarray) -> np.ndarray:
    """For each mask, the sum of a over the masks above it."""
    return np.cumsum(a[::-1])[::-1] - a


def _schedule(n: int, rows: np.ndarray, columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """Where the elimination of the n-mask systems whose pattern is (rows[j], columns[j])
    reads and writes: `_Plan`'s fields sources, index, ustart, lstart, qstart and updates.

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
        lrows, pivot = _ranges(first, count), np.repeat(on, count)
        place = _ranges(np.bitwise_count(on >> j + 1) * low[on], count)  # in the L column
        index[lstart[pivot] + place] = lrows
        for slot in range(int(ulen.max())):  # each row's update from the pivot's slot-th U entry
            keep = ulen[pivot] > slot
            p = pivot[keep]
            updates[qstart[p] + place[keep] * ulen[p] + slot] = position(
                lrows[keep], index[ustart[p] + slot])
    sources = [position(rows[j:j + _ENTRIES_AT_ONCE], columns[j:j + _ENTRIES_AT_ONCE])
               for j in range(0, len(columns), _ENTRIES_AT_ONCE)]
    return np.concatenate(sources).astype(np.int32), index, ustart, lstart, qstart, updates


def _fold(v: int, modulus: int) -> int:
    """v itself within [-modulus, modulus], else v folded once modulo the
    Mersenne number modulus = 2^b - 1: v = hi 2^b + lo is hi + lo modulo it.

    The result is congruent to v, and under b + 3 bits when v is under
    2b + 2 bits: one mask and one shift instead of a long division.
    """
    if -modulus <= v <= modulus:
        return v
    return (v & modulus) + (v >> modulus.bit_length())


_folds = np.frompyfunc(_fold, 2, 1)  # `_fold` over an object array and a 0-d modulus


def _mersenne(modulus: int) -> None:
    """Raise ValueError unless modulus is 0 (no modulus) or 2^b - 1, the moduli `_fold` serves."""
    if modulus & (modulus + 1):
        raise ValueError(f"modulus {modulus} is not of the form 2^b - 1; residues fold only "
                         "modulo a Mersenne number")


def _eliminate(values, k: int, modulus: int = 0) -> np.ndarray:
    """Factor step of the shared elimination core: a numeric replay of `_plan(k)`'s schedule.

    `values` holds the coefficients of a system with k metrics in one
    numeric type (int residues modulo a prime for the exact path, float
    for the preconditioner, Fraction for the test oracle), end to end in
    the order of `SubsetSystem.coefficients`. The schedule's sources
    place them in the store, float64 for floats, else an object array,
    so Python ints stay Python ints. Each pivot divides its U row by the
    diagonal and subtracts its outer product L x U from the entries the
    schedule names, so every entry sees the same operations in the same
    order as in an elimination that keeps each row as a dict, and float
    factors are bit for bit the same. Returns the store, the factors laid
    out as `_Plan` says.

    Given a modulus, a Mersenne number 2^b - 1 (ValueError otherwise),
    integer rows are factored modulo it: the entries are residues and
    store[x] holds the inverse of pivot x, so substitution multiplies by
    it. Only that pivot is canonical: it is reduced with % before its zero
    test and its inverse. Every other residue is folded (`_fold`) when its
    pivot reads it: the L column, whose raw coefficients -W p_i stay the
    few bits they are, and the U row before and after its product with
    the inverse. Updates are not reduced, so an entry holds its residue
    less a few products of residues of about b bits until it is read.
    """
    _mersenne(modulus)
    plan = _plan(k)
    store = np.zeros(len(plan.index), float if isinstance(values[0], float) else object)
    store[plan.sources] = values
    ustart, lstart, qstart = plan.ustart.tolist(), plan.lstart.tolist(), plan.qstart.tolist()
    prime = np.array(modulus, object)  # numpy reads a 0-d object array faster than a big int
    # pivot x, where its U row starts, its L column starts and ends, its updates start and end
    for x, u0, l0, l1, q0, q1 in zip(range((1 << k) - 1, 0, -1), ustart[:0:-1], lstart[:0:-1],
                                     ustart[-2::-1], qstart[:0:-1], qstart[-2::-1]):
        d = store[x]
        if modulus:
            d %= modulus
        if not d:
            where = " modulo the prime" if modulus else ""
            raise ArithmeticError(f"zero pivot at mask {x:#x}{where}; system unexpectedly singular")
        f = store[l0:l1]
        if modulus:
            store[x] = inv = pow(d, -1, modulus)
            _folds(f, prime, out=f)
        if u0 == l0:  # a singleton's U row is empty: it updates nothing
            continue
        expr = store[u0:l0]
        if modulus:
            _folds(expr, prime, out=expr)
            expr *= np.array(inv, object)
            _folds(expr, prime, out=expr)
        else:
            expr /= d
        np.subtract.at(store, plan.updates[q0:q1], np.multiply.outer(f, expr).ravel())
    return store


# masks in a block of the forward substitution: L updates within a block are
# applied one by one, those that leave it all at once
_BLOCK = 1 << 5


def _blocks(index: np.ndarray, ustart: np.ndarray, lstart: np.ndarray) -> tuple:
    """The block plan of the substitutions of the systems with n masks, from
    their schedule: `_Plan`'s fields local, inner, outer, pivot and levels."""
    n = len(ustart)
    x = np.arange(n - 1, 0, -1, dtype=np.int32)  # the pivots, in elimination order
    low, end = x & -x, ustart[x - 1]
    # the rows of the bits at or above _BLOCK leave the block; all of them when low is there
    split = np.where(low < _BLOCK, lstart[x] + np.bitwise_count(x // _BLOCK) * low, end)
    local = tuple(tuple(tuple(int(i) - base for i in index[split[n - 1 - p]:end[n - 1 - p]])
                        if p else () for p in range(base, min(base + _BLOCK, n)))
                  for base in (0, _BLOCK))

    def by_block(a: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
        """a, counts[i] entries for x[i], cut after the bottom pivot of each block."""
        return np.split(a, np.cumsum(counts)[_BLOCK - 1:-1:_BLOCK])

    icount, ocount = end - split, split - lstart[x]
    inner = by_block(_ranges(split, icount), icount)
    outer = by_block(_ranges(lstart[x], ocount), ocount)
    pivot = by_block(np.repeat((x % _BLOCK).astype(np.uint8), ocount), ocount)
    pop, ulen = np.bitwise_count(np.arange(n)), lstart - ustart
    levels = []
    for j in range(1, n.bit_length()):
        masks = np.flatnonzero(pop == j)
        slots = []
        for slot in range(int(ulen[masks].max())):
            targets = masks[ulen[masks] > slot]
            at = ustart[targets] + slot
            slots.append((targets.astype(np.int32), at, index[at]))
        levels.append((masks.astype(np.int32), slots))
    return local, inner, outer, pivot, levels


def _substitute(store: np.ndarray, k: int, rhs, modulus: int = 0) -> list:
    """Solve A h = rhs from the store `_eliminate(values, k, modulus)` returned;
    rhs[0] is returned as h[0].

    Applies the L columns in pivot order, block by block (`_Plan`):
    within a block one by one over a list of its h, then every update
    that leaves it in one `np.subtract.at`, in pivot order, so each
    entry receives its subtractions in decreasing pivot order. Then
    back-substitutes through U a popcount level at a time, one vector op
    per U slot, in each row's order. Every float sees the operations of
    a walk entry by entry, in the same order. Residue factors (modulo a
    Mersenne number, ValueError otherwise) fold each h the L solve reads,
    and its product with the pivot inverse, and each level of the U
    solve; the residues returned are canonical, in [0, modulus).
    """
    _mersenne(modulus)
    plan, n = _plan(k), 1 << k
    h = np.array(rhs, store.dtype)
    for base, inner, outer, pivot in zip(range((n - 1) & -_BLOCK, -1, -_BLOCK),
                                         plan.inner, plan.outer, plan.pivot):
        top = min(base + _BLOCK, n)
        hb, diagonal = h[base:top].tolist(), store[base:top].tolist()
        factor, local = iter(store[inner].tolist()), plan.local[base > 0]
        for r in range(top - base - 1, -1 if base else 0, -1):  # mask 0 is no pivot
            if modulus:
                hx = hb[r] = _fold(_fold(hb[r], modulus) * diagonal[r], modulus)
            else:
                hx = hb[r] = hb[r] / diagonal[r]
            for rid, f in zip(local[r], factor):  # local first: zip then leaves factor's next
                hb[rid] -= f * hx
        h[base:top] = hb
        np.subtract.at(h, plan.index[outer], store[outer] * h[base:top][pivot])
    prime = np.array(modulus, object)
    for masks, slots in plan.levels:
        for targets, at, columns in slots:
            h[targets] -= store[at] * h[columns]
        if modulus:
            h[masks] = _folds(h[masks], prime)
    if modulus:
        h %= prime
    return h.tolist()


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


def _lift(system: SubsetSystem) -> tuple[int, list[int]]:
    """Dixon's p-adic lift: (delta, x) with W A x = delta W b, uncertified.

    W A is factored once modulo the prime P. Each lift solves for the
    next P-adic digit of (W A)^-1 W b by substitution alone and divides
    the integer residual by P exactly. Once the probe h(full) reconstructs
    to the same fraction at two lifts in a row, `_rebuild` settles the
    entries, asking for more lifts as it needs them.
    """
    w, c, k, n = system.w, system.coefficients, system.k, 1 << system.k
    store = _eliminate(c, k, _PRIME)
    r = [0] + [w] * (n - 1)
    squares = np.add.reduceat(c * c, _plan(k).starts[:-1]).tolist()  # row by row
    hadamard_bits = sum((w * w + s).bit_length() for s in squares)
    # Numerators and denominators are Cramer determinants, below the
    # Hadamard bound H = 2^(hadamard_bits / 2). A rebuilt entry needs
    # m > 2 P hmax den d^2 with hmax, den and its new factor d below H.
    max_lifts = 2 * hadamard_bits // _PRIME_BITS + 3
    digits: list[list[int]] = []
    m, last, rebuild = 1, None, None
    for _ in range(max_lifts):
        y = _substitute(store, k, r, _PRIME)
        digits.append(y)
        r = [v // _PRIME for v in _residual(system, r, y)]
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
    delta, x = _lift(system)
    for mask, v in enumerate(_residual(system, system.w * delta, x)):
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
    delta = 2^E, from the coefficients of `system`. Contraction per pass
    is roughly machine-epsilon times the solution magnitude, so a few
    passes reach any practical tolerance.

    Stopping is certified: the system matrix is an M-matrix whose inverse
    is nonnegative with row sums h*(S), the exact solution, so with rho
    the max residual every error is |h* - h| <= rho max h*, at most
    rho (max h + |h* - h|). The loop stops once rho (1 + max h) is below
    the tolerance t, which bounds every error below t when t <= 1, so a
    larger tolerance is met as 1. That also puts the residual itself far
    below it. Returns (h as a view over (2^E, X), iterations, residual).
    """
    k, w, n = system.k, system.w, 1 << system.k
    # a / w is float(Fraction(a, w)): int true division rounds correctly
    store = _eliminate((system.coefficients / w).astype(float), k)
    tn, td = min(tolerance, 1).as_integer_ratio()  # the error bound needs t <= 1
    x = np.zeros(n, object)
    e = 0
    for iteration in range(max_iterations + 1):
        scale = w << e
        r = _residual(system, scale, x)
        worst = max(map(abs, r))
        # worst / scale * (1 + max(x) / 2^E) < tn / td, cross-multiplied
        if worst * ((1 << e) + x.max()) * td < (tn * scale) << e:
            return _Scaled(1 << e, x.tolist()), iteration, Fraction(worst, scale)
        if iteration == max_iterations:
            break
        # int / int rounds correctly, entry by entry
        correction = np.array(_substitute(store, k, np.array(r, object) / scale))
        for c in correction[~np.isfinite(correction)][:1]:
            c.as_integer_ratio()  # raises, as the ratio of an infinity or a NaN does
        # c = m 2^(exponent - 53) with m an integer below 2^53, whose trailing zeros (64 for
        # m = 0) cancel against 2^(53 - exponent): c's ratio has the denominator 2^d
        mantissa, exponent = np.frexp(correction)
        m = np.ldexp(mantissa, 53).astype(np.int64)
        zeros = np.bitwise_count((m & -m).view(np.uint64) - np.uint64(1))
        e_new = max(e, int(np.maximum(53 - exponent - zeros, 0).max()))
        # x 2^(e_new - E) + c 2^e_new, where c 2^e_new = m 2^shift is an integer
        shift = exponent - 53 + e_new
        m = (m >> np.maximum(-shift, 0)).astype(object) << np.maximum(shift, 0).astype(object)
        x = (x << (e_new - e)) + m
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
    system = build_system(sol.policy)
    delta, x = sol.scaled
    unit = system.w * delta
    slack = sol.check_slack
    # phi's equations are the system's over h - h(empty): phi(full) reads h(empty)
    r = _residual(system, unit, [v - x[0] for v in x])
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
