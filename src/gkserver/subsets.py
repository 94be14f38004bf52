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

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import islice
from math import gcd, isqrt
from operator import eq, mul
from typing import NamedTuple

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
# policies (weights 1..40, random.Random(1), (2), (3)) take 5.9-8.4, 5.7
# and 4.4 s at a peak RSS of 71, 66 and 62 MB; time follows the common
# denominator of h (16.8, 13.0 and 10.9 k bits). With --csv, Random(1)
# takes 12.3-14.0 s at 70 MB: the CSV alone builds h's 4095 Fractions
# (2.3 s) and their decimal digits (1.8 s). Uniform k = 12 takes 0.6-0.9 s.
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


def _min_element(mask: int) -> int:
    """Lowest set bit as a 1-based metric index."""
    return (mask & -mask).bit_length()


@dataclass(frozen=True)
class SubsetSystem:
    """The subset-state equations times W = lcm of p's denominators, in integers.

    scaled_rows = (W, [(mask, W b, columns, W coefficients), ...]), one row
    per nonempty mask in increasing order, each over at most k + 2 masks;
    h(0) = 0 is implicit.
    """

    policy: MemorylessPolicy
    scaled_rows: tuple[int, list[tuple[int, int, tuple[int, ...], tuple[int, ...]]]]

    @property
    def k(self) -> int:
        return self.policy.k

    @cached_property
    def rows(self) -> dict[int, tuple[dict[int, Fraction], Fraction]]:
        """The rows in Fractions: rows[mask] = (coefficients over masks, rhs)."""
        w, rows = self.scaled_rows
        return {mask: ({c: Fraction(v, w) for c, v in zip(cols, vals)}, Fraction(wb, w))
                for mask, wb, cols, vals in rows}

    def residual(self, h) -> Fraction:
        """Max absolute violation of the equations by a candidate h over the masks.

        h is a solution's view or a sequence of rationals. With h = x / delta,
        the scaled residual W delta (b - A h) is the integer vector
        delta (W b) - (W A) x.
        """
        w, rows = self.scaled_rows
        h = _scaled(h)
        ax = _times(rows, h.x)
        return Fraction(max(abs(wb * h.delta - ax[mask]) for mask, wb, _, _ in rows), w * h.delta)


def _times(rows: list, x: list[int]) -> list[int]:
    """(W A) x in integers, indexed by mask like x; entry 0 is 0."""
    return [0] + [sum(map(mul, vals, map(x.__getitem__, cols))) for _, _, cols, vals in rows]


def build_system(policy: MemorylessPolicy) -> SubsetSystem:
    """Assemble the integer equations W A h = W b for every nonempty subset.

    Each row lists h(S \\ {m}), then h(S u {j}) for the j not in S in
    increasing order, then the diagonal W (p_m + sum_{j not in S} p_j),
    built from the running complement sums W (1 - sum_{j in S} p_j), one
    subtraction a mask.
    """
    k = policy.k
    w, weights = common_denominator(policy.probs)
    outside = [w] * (1 << k)
    rows = []
    for mask in range(1, 1 << k):
        low = mask & -mask
        wm = weights[low.bit_length() - 1]
        outside[mask] = outside[mask ^ low] - wm
        free = [j for j in range(k) if not mask >> j & 1]
        first = mask == low  # a singleton's h(S \ {m}) is h(empty) = 0
        rows.append((mask, w, (mask ^ low, *(mask | 1 << j for j in free), mask)[first:],
                     (-wm, *(-weights[j] for j in free), wm + outside[mask])[first:]))
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

    h is a view over the solver's (delta, x); an h passed in as values
    becomes one over their lcm form. max_residual is the exact residual
    of the stored values: zero in exact mode, below the requested
    tolerance in iterative mode.
    """

    policy: MemorylessPolicy
    h: Sequence[Fraction]
    mode: str
    max_residual: Fraction
    tolerance: Fraction | None = None
    iterations: int | None = None

    def __post_init__(self):
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


class _Factors(NamedTuple):
    """LU factors of a subset system, pivoted in decreasing mask order.

    Pivot x keeps diag[x], its U row (ucol[i], uval[i]) for i in
    range(ubound[x + 1], ubound[x]) over masks below x, and its L updates
    (lrow[i], lval[i]) for i in range(lbound[x + 1], lbound[x]). Float
    factors live in flat arrays; Fraction and residue factors in lists.
    With a nonzero modulus the entries are residues and diag[x] holds the
    inverse of the pivot, so substitution multiplies by it.
    """

    diag: Sequence
    ucol: array
    uval: Sequence
    ubound: array
    lrow: array
    lval: Sequence
    lbound: array
    modulus: int


def _eliminate(rows: dict, n: int, zero, modulus: int = 0) -> _Factors:
    """Factor step of the shared elimination core, decreasing mask order.

    `rows` maps mask -> coefficient dict over one numeric type (int
    residues modulo a prime for the exact path, float for the
    preconditioner, Fraction for the test oracle) and is consumed: each
    row is popped once it is eliminated, and only rows still live (below
    the pivot) receive updates. A live row gets the same updates in the
    same pivot order as when eliminated rows were updated too, so the
    float factors are unchanged by the skip.

    Given a modulus, integer rows are factored modulo it. Updates are not
    reduced: the pivot row and each L factor are reduced when read, so
    live entries only grow by sums of products of two residues.
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
        if modulus:
            d %= modulus
        if d == zero:
            where = " modulo the prime" if modulus else ""
            raise ArithmeticError(f"zero pivot at mask {x:#x}{where}; system unexpectedly singular")
        if modulus:
            diag[x] = inv = pow(d, -1, modulus)
            expr = {c: v * inv % modulus for c, v in coeffs.items()}
        else:
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
            if modulus:
                f %= modulus
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
    return _Factors(diag, ucol, uval, ubound, lrow, lval, lbound, modulus)


def _substitute(factors: _Factors, rhs) -> list:
    """Solve A h = rhs from the factors; rhs[0] is returned as h[0].

    Replays the L updates in pivot order, which is their storage order,
    then back-substitutes through U in increasing mask order; every U row
    reads only lower masks. Residue factors return residues.
    """
    diag, ucol, uval, ubound, lrow, lval, lbound, modulus = factors
    h = list(rhs)
    updates = zip(lrow, lval)
    for x in range(len(diag) - 1, 0, -1):
        hx = h[x] = h[x] * diag[x] % modulus if modulus else h[x] / diag[x]
        for rid, f in islice(updates, lbound[x] - lbound[x + 1]):
            h[rid] -= f * hx
    for x in range(1, len(diag)):
        val = h[x]
        for i in range(ubound[x + 1], ubound[x]):
            val -= uval[i] * h[ucol[i]]
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


def _lift(rows: list, n: int) -> tuple[int, list[int]]:
    """Dixon's p-adic lift: (delta, x) with W A x = delta W b, uncertified.

    W A is factored once modulo the prime P. Each lift solves for the
    next P-adic digit of (W A)^-1 W b by substitution alone and divides
    the integer residual by P exactly. Once the probe h(full) reconstructs
    to the same fraction at two lifts in a row, `_rebuild` settles the
    entries, asking for more lifts as it needs them.
    """
    factors = _eliminate({mask: dict(zip(cols, vals)) for mask, _, cols, vals in rows},
                         n, 0, _PRIME)
    r = [0] * n
    hadamard_bits = 0
    for mask, wb, _, vals in rows:
        r[mask] = wb
        hadamard_bits += (wb * wb + sum(v * v for v in vals)).bit_length()
    # Numerators and denominators are Cramer determinants, below the
    # Hadamard bound H = 2^(hadamard_bits / 2). A rebuilt entry needs
    # m > 2 P hmax den d^2 with hmax, den and its new factor d below H.
    max_lifts = 2 * hadamard_bits // _PRIME_BITS + 3
    digits: list[list[int]] = []
    m, last, rebuild = 1, None, None
    for _ in range(max_lifts):
        y = _substitute(factors, r)
        digits.append(y)
        r = [(ri - ai) // _PRIME for ri, ai in zip(r, _times(rows, y))]
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
    _, rows = system.scaled_rows
    delta, x = _lift(rows, 1 << system.k)
    ax = _times(rows, x)
    for mask, wb, _, _ in rows:
        if ax[mask] != wb * delta:
            raise ArithmeticError(f"p-adic solution fails the integer check at mask {mask:#x}")
    return _Scaled(delta, x)


def _solve_iterative(system: SubsetSystem, tolerance: Fraction, max_iterations: int):
    """Float64 LU factors once, then refinement with exact integer residuals.

    The float factors are computed once; each pass solves for the
    correction by substitution alone. Every correction is a float, hence
    a dyadic rational, so h is held exactly as integers X * 2^-E. With
    W = lcm of the denominators of p, the scaled residual
    W * 2^E * (b - A h) is the integer vector (W b) << E - (W A) X, where
    W A and W b are the rows of `system`. Contraction per pass
    is roughly machine-epsilon times the solution magnitude, so a few
    passes reach any practical tolerance.

    Stopping is certified: the system matrix is an M-matrix whose inverse
    is nonnegative with row sums h(S), so every component error is at
    most max(h) times the max residual. The loop stops once that product
    is below the tolerance, which also puts the residual itself far below
    it. Returns (h as a view over (2^E, X), iterations, residual).
    """
    n = 1 << system.k
    w, int_rows = system.scaled_rows
    wb = [0] + [b for _, b, _, _ in int_rows]
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
        r = [(b << e) - ax for b, ax in zip(wb, _times(int_rows, x))]
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
    S = full \\ Sbar, checked on the integer drops:
    drop(S, m) = 1 + sum_{j not in S} drop(S u {j}, j).
    Returns phi as a view like h, over x(full) - x(full \\ S) and h's delta.
    """
    k = sol.k
    full = (1 << k) - 1
    drops, unit, sn, sd = _scaled_drops(sol)
    margin = sn * unit
    for sbar in range(full):
        mask = full ^ sbar
        lhs = drops(mask, _min_element(mask))
        rhs = unit + sum(drops(mask | 1 << (j - 1), j)
                         for j in range(1, k + 1) if sbar >> (j - 1) & 1)
        if abs(lhs - rhs) * sd > margin:
            raise ValueError(
                f"transformed equation violated at Sbar mask {sbar:#x}: "
                f"lhs {Fraction(lhs, unit)} != rhs {Fraction(rhs, unit)}"
            )
    delta, x = sol.scaled
    return _Scaled(delta, [x[full] - x[full & ~mask] for mask in range(1 << k)])


def competitive_gap(policy: MemorylessPolicy, solution: SubsetSolution | None = None) -> Fraction:
    """h({k}) - k*alpha(k): zero exactly when the policy is uniform."""
    if solution is None:
        solution = solve_system(policy, mode="exact")
    return solution.h_k - policy.k * alpha(policy.k)
