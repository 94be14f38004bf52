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
fill-in tiny (each reduced row touches only a handful of "tail" subsets),
so the exact rational solve runs through k = 12. The iterative mode
factors once with the same elimination in float64, then refines by
substitution alone, with exact integer residuals, until the requested
tolerance is met.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import islice
from math import lcm
from operator import mul
from typing import NamedTuple

from .harmonic import alpha, alpha_table, rational_to_str

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

EXACT_MODE_MAX_K = 12
# The largest k at which every iterative solve ends within about 10 s and
# 0.6 GB, one that spends the whole 60-pass budget included. Measured on a
# shared 2-vCPU Xeon, Python 3.11: at k = 14 uniform takes 1.4-1.8 s
# (4 passes), random policies 2.3-3.6 s (12-18 passes) and a policy that
# exhausts the budget 8.6-9.9 s, at a peak RSS of 83 MB. Random k = 15
# policies need 30-37 passes and 9-10.4 s; a random k = 16 one exhausts the
# budget in 38 s.
ITERATIVE_MODE_MAX_K = 14
DEFAULT_TOLERANCE = Fraction(1, 10**12)


class SolverError(RuntimeError):
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


def _min_element(mask: int) -> int:
    """Lowest set bit as a 1-based metric index."""
    return (mask & -mask).bit_length()


@dataclass(frozen=True)
class SubsetSystem:
    """Sparse rows of the subset-state equations.

    rows[mask] = (coefficients, rhs) with coefficients a dict over masks;
    each row touches at most k + 2 unknowns. h(0) = 0 is implicit.
    """

    policy: MemorylessPolicy
    rows: dict[int, tuple[dict[int, Fraction], Fraction]]

    @property
    def k(self) -> int:
        return self.policy.k

    def residual(self, h) -> Fraction:
        """Max absolute violation of the equations by a candidate h (indexable by mask)."""
        worst = Fraction(0)
        for mask, (coeffs, rhs) in self.rows.items():
            acc = -rhs
            for c, v in coeffs.items():
                acc += v * h[c]
            if abs(acc) > worst:
                worst = abs(acc)
        return worst


def build_system(policy: MemorylessPolicy) -> SubsetSystem:
    """Assemble the sparse equations for every nonempty subset.

    Rows share the policy's coefficient objects; only the diagonals are
    new. The diagonal p_m + sum_{j not in S} p_j is built from the
    running complement sums 1 - sum_{j in S} p_j, one subtraction a mask.
    """
    k = policy.k
    p = policy.probs
    neg = [-q for q in p]
    one = Fraction(1)
    outside = [one] * (1 << k)
    rows: dict[int, tuple[dict[int, Fraction], Fraction]] = {}
    for mask in range(1, 1 << k):
        m = _min_element(mask)
        bit_m = 1 << (m - 1)
        outside[mask] = outside[mask ^ bit_m] - p[m - 1]
        coeffs: dict[int, Fraction] = {mask ^ bit_m: neg[m - 1]} if mask != bit_m else {}
        for j in range(k):
            bit = 1 << j
            if not mask & bit:
                coeffs[mask | bit] = neg[j]
        coeffs[mask] = p[m - 1] + outside[mask]
        rows[mask] = (coeffs, one)
    return SubsetSystem(policy=policy, rows=rows)


@dataclass(frozen=True)
class SubsetSolution:
    """Solved h values, indexed by subset mask (h[0] == 0).

    max_residual is the exact residual of the stored values: zero in
    exact mode, below the requested tolerance in iterative mode.
    """

    policy: MemorylessPolicy
    h: tuple[Fraction, ...]
    mode: str
    max_residual: Fraction
    tolerance: Fraction | None = None
    iterations: int | None = None

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


class _Factors(NamedTuple):
    """LU factors of a subset system, pivoted in decreasing mask order.

    Pivot x keeps diag[x], its U row (ucol[i], uval[i]) for i in
    range(ubound[x + 1], ubound[x]) over masks below x, and its L updates
    (lrow[i], lval[i]) for i in range(lbound[x + 1], lbound[x]). Float
    factors live in flat arrays; Fraction factors in lists.
    """

    diag: Sequence
    ucol: array
    uval: Sequence
    ubound: array
    lrow: array
    lval: Sequence
    lbound: array


def _eliminate(rows: dict, n: int, zero) -> _Factors:
    """Factor step of the shared elimination core, decreasing mask order.

    `rows` maps mask -> coefficient dict over one numeric type (Fraction
    for the exact path, float for the preconditioner) and is consumed:
    each row is popped once it is eliminated, and only rows still live
    (below the pivot) receive updates. A live row gets the same updates
    in the same pivot order as when eliminated rows were updated too, so
    the float factors are unchanged by the skip.
    """
    values = partial(array, "d") if isinstance(zero, float) else list
    diag = values([zero]) * n
    ucol, lrow = array("l"), array("l")
    uval, lval = values([]), values([])
    ubound, lbound = array("l", [0]) * (n + 1), array("l", [0]) * (n + 1)
    occ: dict[int, set[int]] = {x: set() for x in range(1, n)}
    for rid, coeffs in rows.items():
        for c in coeffs:
            occ[c].add(rid)
    for x in range(n - 1, 0, -1):
        coeffs = rows.pop(x)
        d = coeffs.pop(x, zero)
        if d == zero:
            raise ArithmeticError(f"zero pivot at mask {x:#x}; system unexpectedly singular")
        diag[x] = d
        expr = {c: v / d for c, v in coeffs.items()}
        ucol.extend(expr)
        uval.extend(expr.values())
        ubound[x] = len(ucol)
        for rid in occ.pop(x):
            if rid >= x:
                continue
            rc = rows[rid]
            f = rc.pop(x)
            lrow.append(rid)
            lval.append(f)
            for c, v in expr.items():
                nv = rc.get(c, zero) - f * v
                if nv == zero:
                    rc.pop(c, None)
                    occ[c].discard(rid)
                else:
                    rc[c] = nv
                    occ[c].add(rid)
        lbound[x] = len(lrow)
    return _Factors(diag, ucol, uval, ubound, lrow, lval, lbound)


def _substitute(factors: _Factors, rhs) -> list:
    """Solve A h = rhs from the factors; rhs[0] is returned as h[0].

    Replays the L updates in pivot order, which is their storage order,
    then back-substitutes through U in increasing mask order; every U row
    reads only lower masks.
    """
    diag, ucol, uval, ubound, lrow, lval, lbound = factors
    h = list(rhs)
    updates = zip(lrow, lval)
    for x in range(len(diag) - 1, 0, -1):
        hx = h[x] = h[x] / diag[x]
        for rid, f in islice(updates, lbound[x] - lbound[x + 1]):
            h[rid] -= f * hx
    for x in range(1, len(diag)):
        val = h[x]
        for i in range(ubound[x + 1], ubound[x]):
            val -= uval[i] * h[ucol[i]]
        h[x] = val
    return h


def _solve_exact(system: SubsetSystem) -> list[Fraction]:
    n = 1 << system.k
    rhs = [Fraction(0)] * n
    for mask, (_, b) in system.rows.items():
        rhs[mask] = b
    rows = {mask: dict(coeffs) for mask, (coeffs, _) in system.rows.items()}
    return _substitute(_eliminate(rows, n, Fraction(0)), rhs)


def _solve_iterative(system: SubsetSystem, tolerance: Fraction, max_iterations: int):
    """Float64 LU factors once, then refinement with exact integer residuals.

    The float factors are computed once; each pass solves for the
    correction by substitution alone. Every correction is a float, hence
    a dyadic rational, so h is held exactly as integers X * 2^-E. With
    W = lcm of the denominators of p, the scaled residual
    W * 2^E * (b - A h) is the integer vector (W b) << E - (W A) X, where
    W A and W b are scaled from the rows of `system`. Contraction per pass
    is roughly machine-epsilon times the solution magnitude, so a few
    passes reach any practical tolerance.

    Stopping is certified: the system matrix is an M-matrix whose inverse
    is nonnegative with row sums h(S), so every component error is at
    most max(h) times the max residual. The loop stops once that product
    is below the tolerance, which also puts the residual itself far below
    it. Returns (h, iterations, residual).
    """
    n = 1 << system.k
    w = lcm(*(q.denominator for q in system.policy.probs))
    int_rows = [
        (mask, b.numerator * (w // b.denominator), tuple(coeffs),
         tuple(v.numerator * (w // v.denominator) for v in coeffs.values()))
        for mask, (coeffs, b) in system.rows.items()
    ]
    # a / w is float(Fraction(a, w)): int true division rounds correctly
    factors = _eliminate(
        {mask: {c: a / w for c, a in zip(cols, vals)} for mask, _, cols, vals in int_rows},
        n, 0.0,
    )
    tn, td = tolerance.numerator, tolerance.denominator
    x = [0] * n
    e = 0
    for iteration in range(max_iterations + 1):
        scale = w << e
        r = [0] * n
        for mask, b, cols, vals in int_rows:
            r[mask] = (b << e) - sum(map(mul, vals, map(x.__getitem__, cols)))
        worst = max(map(abs, r))
        # worst / scale * (1 + max(x) / 2^E) < tn / td, cross-multiplied
        if worst * ((1 << e) + max(x)) * td < (tn * scale) << e:
            h = [Fraction(v, 1 << e) for v in x]
            return h, iteration, Fraction(worst, scale)
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

    exact: rational elimination, zero residual, k <= 12.
    iterative: float64 factors refined to a certified error below
    tolerance, k <= ITERATIVE_MODE_MAX_K.
    """
    if mode == "exact":
        if policy.k > EXACT_MODE_MAX_K:
            raise ValueError(f"exact mode supports k <= {EXACT_MODE_MAX_K}, got {policy.k}")
        system = build_system(policy)
        h = _solve_exact(system)
        res = system.residual(h)
        if res != 0:
            raise ArithmeticError("exact solve left a nonzero residual (bug)")
        return SubsetSolution(policy=policy, h=tuple(h), mode="exact", max_residual=res)
    if mode == "iterative":
        if policy.k > ITERATIVE_MODE_MAX_K:
            raise ValueError(
                f"iterative mode supports k <= {ITERATIVE_MODE_MAX_K}, got {policy.k}"
            )
        tolerance = Fraction(tolerance)
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        system = build_system(policy)
        h, iterations, res = _solve_iterative(system, tolerance, max_iterations)
        return SubsetSolution(
            policy=policy, h=tuple(h), mode="iterative",
            max_residual=res, tolerance=tolerance, iterations=iterations,
        )
    raise ValueError(f"unknown mode {mode!r}; expected 'exact' or 'iterative'")


def lower_bound_hk(policy: MemorylessPolicy) -> Fraction:
    """alpha(k) / p_k: the proven floor for h({k}) under any policy."""
    return Fraction(alpha(policy.k)) / policy.probs[policy.k - 1]


def check_monotonicity(sol: SubsetSolution) -> list[tuple[int, int, int, Fraction, Fraction]]:
    """Weighted-difference ordering inside every subset.

    For i < j both in S (so p_i >= p_j) the solution must satisfy
    p_i (h(S) - h(S\\{i})) <= p_j (h(S) - h(S\\{j})). Returns violations
    as (mask, i, j, lhs, rhs); empty means all hold within slack.
    """
    p = sol.policy.probs
    k = sol.k
    slack = sol.check_slack
    out = []
    for mask in range(1, 1 << k):
        members = [i for i in range(1, k + 1) if mask & (1 << (i - 1))]
        drops = {
            i: p[i - 1] * (sol.h[mask] - sol.h[mask & ~(1 << (i - 1))]) for i in members
        }
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                i, j = members[a], members[b]
                if drops[i] > drops[j] + slack:
                    out.append((mask, i, j, drops[i], drops[j]))
    return out


def check_subset_alpha_bound(sol: SubsetSolution) -> list[tuple[int, int, Fraction, int]]:
    """Per-element drop floor: p_i (h(S) - h(S\\{i})) >= alpha(k - |S| + 1).

    Returns violations as (mask, i, value, floor); empty means all hold.
    """
    p = sol.policy.probs
    k = sol.k
    slack = sol.check_slack
    a = alpha_table(k)
    out = []
    for mask in range(1, 1 << k):
        size = mask.bit_count()
        floor = a[k - size]  # alpha(k - |S| + 1)
        for i in range(1, k + 1):
            bit = 1 << (i - 1)
            if mask & bit:
                val = p[i - 1] * (sol.h[mask] - sol.h[mask & ~bit])
                if val < floor - slack:
                    out.append((mask, i, val, floor))
    return out


def phi_transform(sol: SubsetSolution) -> tuple[Fraction, ...]:
    """phi(S) = h(full) - h(full \\ S), verified against its own equations.

    phi satisfies phi(empty) = 0 and, for every Sbar != full with
    m = min(full \\ Sbar),

        p_m (phi(Sbar u {m}) - phi(Sbar))
            = 1 + sum_{j in Sbar} p_j (phi(Sbar) - phi(Sbar \\ {j})).

    Raises ValueError naming the first violated equation if the input
    solution is inconsistent.
    """
    k = sol.k
    p = sol.policy.probs
    full = (1 << k) - 1
    phi = tuple(sol.h[full] - sol.h[full & ~mask] for mask in range(1 << k))
    slack = sol.check_slack
    for sbar in range(full):
        m = _min_element(full & ~sbar)
        lhs = p[m - 1] * (phi[sbar | (1 << (m - 1))] - phi[sbar])
        rhs = Fraction(1)
        for j in range(1, k + 1):
            bit = 1 << (j - 1)
            if sbar & bit:
                rhs += p[j - 1] * (phi[sbar] - phi[sbar & ~bit])
        if abs(lhs - rhs) > slack:
            raise ValueError(
                f"transformed equation violated at Sbar mask {sbar:#x}: "
                f"lhs {lhs} != rhs {rhs}"
            )
    return phi


def competitive_gap(policy: MemorylessPolicy, solution: SubsetSolution | None = None) -> Fraction:
    """h({k}) - k*alpha(k): zero exactly when the policy is uniform."""
    if solution is None:
        solution = solve_system(policy, mode="exact")
    return solution.h_k - policy.k * alpha(policy.k)
