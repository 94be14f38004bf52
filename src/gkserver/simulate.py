"""Seeded simulation of memoryless policies against adaptive adversaries.

Every metric space is uniform (unit distance between any two of its
points), so a configuration is a tuple of point indices, one per metric,
and moving any single server costs 1. Requests are generated *after*
observing the policy's realized configuration (adaptive online
adversary), the policy moves, and costs accumulate on both sides.

Two adversaries are built in:

* "lower_bound" (needs >= 3 points per metric): moves a single server in
  the smallest-probability metric whenever the configurations coincide,
  then keeps requesting its own position in the lowest-index differing
  metric while blocking everything else. The policy can never serve in
  place, pays 1 per step, and the adversary pays 1 per phase.
* "n2" (exactly 2 points per metric): flips its server in the last
  metric when matched; every request is the anti-configuration of the
  policy (the only request that forces a move when n = 2).

A *phase* runs from one coincidence of the two configurations to the
next. Phases are i.i.d. (memorylessness), so the mean phase length
estimates the competitive ratio; the subset-state analysis gives its
exact value h({k}).

Reproducibility: one master seed; phase i draws the integers that
numpy's Generator.integers draws from the PCG64 stream of
SeedSequence((seed, i)), so phases can be replayed or distributed
without changing any sample. run() seeds 1024 phases at once and draws
their streams side by side in numpy arrays; PolicySampler seeds one
stream through numpy itself.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_right
from collections import Counter, deque
from collections.abc import Iterable
from dataclasses import MISSING, asdict, dataclass, fields, replace
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from itertools import chain, compress, count, islice, permutations, product, starmap
from math import sqrt
from operator import attrgetter, itemgetter, length_hint, ne

import numpy as np

from .harmonic import exact_thresholds, rational_from_str, rational_to_str
from .subsets import MemorylessPolicy

__all__ = [
    "ADVERSARY_KINDS",
    "ConfigError",
    "StepBudgetExhausted",
    "MetricSpec",
    "ExperimentConfig",
    "TraceStep",
    "Trace",
    "RunSummary",
    "PolicySampler",
    "memoryless_step",
    "lower_bound_adversary_step",
    "n2_adversary_step",
    "diff_mask",
    "run",
    "raise_if_exhausted",
    "estimate_ratio",
    "state_histogram",
    "transition_counts",
    "write_trace_csv",
    "read_trace_csv",
]

ADVERSARY_KINDS = ("lower_bound", "n2")
DEFAULT_MAX_STEPS = 10**9
# entries in each cache of a trace's distinct configurations, moves, rows and audited
# step pairs: a run of 200 k steps at k <= 8 has fewer distinct moves, while at k = 64
# nearly every step is new, so there each cache costs memory and saves nothing; a trace
# file is read through one cache, keyed on text (_audited_lines)
_CACHE_SIZE = 2**14


class ConfigError(ValueError):
    """Experiment configuration rejected; message says what to fix."""


class StepBudgetExhausted(RuntimeError):
    """max_steps ran out before the phase budget completed."""


@dataclass(frozen=True)
class MetricSpec:
    """Number of points in each uniform metric space (canonical metric order)."""

    n: tuple[int, ...]

    def __post_init__(self):
        if not self.n:
            raise ConfigError("need at least one metric space")
        for i, ni in enumerate(self.n, start=1):
            if type(ni) is not int or ni < 2:
                raise ConfigError(f"metric {i}: a uniform metric needs >= 2 points, got {ni!r}")

    @property
    def k(self) -> int:
        return len(self.n)

    @cached_property
    def _smallest(self) -> int:
        """The size of the smallest metric: points 0.._smallest - 1 lie in every metric."""
        return min(self.n)


def _validate_config_point(spec: MetricSpec, cfg, what: str):
    """cfg, once it is checked to be a point of spec's metrics; what names it in an error."""
    if len(cfg) != spec.k:
        raise ConfigError(f"{what} has {len(cfg)} coordinates, expected {spec.k}")
    # a point inside every metric passes on its few distinct coordinates, in C-level passes;
    # others go coordinate by coordinate
    distinct = set(cfg)
    if min(distinct) < 0 or max(distinct) >= spec._smallest:
        for i, (x, ni) in enumerate(zip(cfg, spec.n), start=1):
            if not 0 <= x < ni:
                raise ConfigError(f"{what} coordinate {i} = {x} outside 0..{ni - 1}")
    return cfg


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation run: spaces, policy, adversary, horizon, seed.

    The policy is canonicalized (descending probabilities); n is stored
    in the same canonical metric order.
    """

    spec: MetricSpec
    policy: MemorylessPolicy
    adversary: str
    phases: int
    seed: int
    max_steps: int = DEFAULT_MAX_STEPS
    emit_trace: bool = False
    trace_path: str | None = None
    summary_path: str | None = None

    def __post_init__(self):
        if self.spec.k != self.policy.k:
            raise ConfigError(
                f"policy covers {self.policy.k} metrics but n lists {self.spec.k}"
            )
        if self.adversary not in ADVERSARY_KINDS:
            raise ConfigError(
                f"unknown adversary {self.adversary!r}; expected one of {ADVERSARY_KINDS}"
            )
        if self.adversary == "lower_bound" and any(ni < 3 for ni in self.spec.n):
            raise ConfigError(
                "the lower_bound adversary needs >= 3 points in every metric "
                f"(step 4 must avoid both current servers); got n={list(self.spec.n)}"
            )
        if self.adversary == "n2" and any(ni != 2 for ni in self.spec.n):
            raise ConfigError(
                f"the n2 adversary needs exactly 2 points in every metric; got n={list(self.spec.n)}"
            )
        try:
            exact_thresholds(self.policy.probs)
        except ValueError as exc:
            raise ConfigError(f"the policy's {exc}") from exc
        # JSON's true is an int to Python, and a float passes the range check
        for name, low in (("phases", 1), ("max_steps", 1), ("seed", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
        if type(self.emit_trace) is not bool:
            raise ConfigError(f"emit_trace must be true or false, got {self.emit_trace!r}")
        # an int path would make open() write to that file descriptor
        for name in ("trace_path", "summary_path"):
            value = getattr(self, name)
            if value is not None and type(value) is not str:
                raise ConfigError(f"{name} must be a file path string, got {value!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        required = {"k", "n", "policy", "adversary", "phases", "seed"}
        missing = required - d.keys()
        if missing:
            raise ConfigError(f"config missing fields: {sorted(missing)}")
        # the fields with a default are the config's optional keys, and keep that default
        optional = {f.name for f in fields(cls) if f.default is not MISSING}
        unknown = d.keys() - required - optional
        if unknown:
            raise ConfigError(f"config has unknown fields: {sorted(unknown)}")
        k = d["k"]
        if type(k) is not int or k < 1:
            raise ConfigError(f"k must be a positive integer, got {k!r}")
        n = d["n"]
        if not isinstance(n, list) or len(n) != k:
            raise ConfigError(f"n must list exactly k={k} point counts, got {n!r}")
        raw_policy = d["policy"]
        if not isinstance(raw_policy, list) or len(raw_policy) != k:
            raise ConfigError(f"policy must list exactly k={k} rationals, got {raw_policy!r}")
        try:
            probs = [rational_from_str(str(p)) for p in raw_policy]
            policy = MemorylessPolicy.from_probs(probs)
        except ValueError as exc:
            raise ConfigError(f"bad policy {raw_policy!r}: {exc}") from exc
        # metrics travel with their probabilities under canonicalization
        n_canonical = tuple(n[i] for i in policy.source_order)
        return cls(
            spec=MetricSpec(n=n_canonical),
            policy=policy,
            adversary=d["adversary"],
            phases=d["phases"],
            seed=d["seed"],
            **{name: d[name] for name in optional & d.keys()},
        )

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                d = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError: JSON is UTF-8
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(d, dict):
            raise ConfigError("config file must hold a JSON object")
        return cls.from_dict(d)


class PolicySampler:
    """Exact sampler for a rational policy from a seeded integer stream.

    Draws one uniform integer below the common denominator per step and
    picks the metric by cumulative integer thresholds, so the sampled
    distribution matches the policy exactly (no float rounding). Seeded
    with (seed, i) it draws what phase i of run() draws.
    """

    def __init__(self, policy: MemorylessPolicy, seed_key):
        den, self._thresholds = exact_thresholds(policy.probs)
        rng = np.random.default_rng(np.random.SeedSequence(seed_key))
        self._draws = chain.from_iterable(rng.integers(0, den, size=_CHUNK).tolist()
                                          for _ in count())

    def draw(self) -> int:
        """0-based canonical metric index."""
        return bisect_right(self._thresholds, next(self._draws))


def memoryless_step(q, r, policy: MemorylessPolicy, sampler: PolicySampler):
    """One policy move: serve in place if possible, else move one sampled server.

    Returns (new_config, moved_index) with moved_index None when the
    request was already served.
    """
    if len(q) != policy.k or len(r) != policy.k:
        raise ValueError("configuration and request must have one coordinate per metric")
    if any(qi == ri for qi, ri in zip(q, r)):
        return tuple(q), None
    j = sampler.draw()
    new = list(q)
    new[j] = r[j]
    return tuple(new), j


@lru_cache(_CACHE_SIZE)
def _free(a: int, b: int) -> int:
    """The smallest point other than a and b: below 3, so a point of every metric of >= 3."""
    return min({0, 1, 2} - {a, b})


def lower_bound_adversary_step(q_prev, adv_prev, q0, spec: MetricSpec):
    """Adversary update + request for the hard instance (>= 3 points per metric).

    If the policy has caught up, the adversary re-bases on q0 and moves
    its last-metric server to a fresh point; otherwise it stays. The
    request reveals the adversary's position in the lowest-index
    differing metric m and blocks both sides everywhere else:
    r_m = adv_m, and r_j avoids {adv_j, q_prev_j} for j != m. Free
    choices always take the smallest valid point, keeping runs
    deterministic.
    """
    k = spec.k
    if spec._smallest < 3:
        raise ConfigError(
            f"lower_bound adversary needs >= 3 points in every metric, got n={list(spec.n)}"
        )
    _validate_config_point(spec, q_prev, "q_prev")
    _validate_config_point(spec, adv_prev, "adv_prev")
    if tuple(q_prev) == tuple(adv_prev):
        _validate_config_point(spec, q0, "q0")
        adv_next = tuple(q0[:k - 1]) + (_free(adv_prev[k - 1], q_prev[k - 1]),)
    else:
        adv_next = tuple(adv_prev)
    m = list(map(ne, q_prev, adv_next)).index(True)
    r = list(map(_free, adv_next, q_prev))
    r[m] = adv_next[m]
    return adv_next, tuple(r)


def n2_adversary_step(q_prev, adv_prev):
    """Adversary update + request when every metric has 2 points.

    The only request a two-point metric can force a move with is the
    policy's anti-configuration, so r complements q_prev everywhere.
    When matched, the adversary flips its server in the last metric.
    """
    k = len(q_prev)
    if len(adv_prev) != k:
        raise ValueError("configurations must have equal length")
    if not k:
        raise ValueError("configurations need at least one coordinate")
    if not {0, 1}.issuperset(chain(q_prev, adv_prev)):
        raise ConfigError("n2 adversary requires two-point metrics (coordinates 0/1)")
    if tuple(q_prev) == tuple(adv_prev):
        adv_next = tuple(adv_prev[: k - 1]) + (1 - adv_prev[k - 1],)
    else:
        adv_next = tuple(adv_prev)
    r = tuple(1 - x for x in q_prev)
    return adv_next, r


@dataclass(slots=True)
class TraceStep:
    t: int
    request: tuple[int, ...]
    alg_config: tuple[int, ...]
    adv_config: tuple[int, ...]
    alg_cost: int
    adv_cost: int
    hamming: int
    state_mask: int


@dataclass
class Trace:
    """Step-by-step record of one run; `steps` is one-pass, produced as it is read."""

    k: int
    n: tuple[int, ...]
    policy: MemorylessPolicy
    adversary: str
    seed: int
    q0: tuple[int, ...]
    adv0: tuple[int, ...]
    steps: Iterable[TraceStep]


@dataclass(frozen=True)
class RunSummary:
    alg_cost: int
    adv_cost: int
    ratio: Fraction | None
    phases: int
    mean_phase_length: float
    max_phase_length: int
    phase_length_se: float
    steps: int
    seed: int
    policy: tuple[str, ...]
    adversary: str
    k: int
    n: tuple[int, ...]
    exhausted: bool

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "ratio": None if self.ratio is None else rational_to_str(self.ratio),
            "ratio_float": None if self.ratio is None else float(self.ratio),
            "policy": list(self.policy),
            "n": list(self.n),
        }


def diff_mask(a, b, bits) -> int:
    """Bit i set exactly where configurations a and b differ in coordinate i.

    `bits` is (1, 2, 4, ...), one bit per coordinate.
    """
    return sum(compress(bits, map(ne, a, b)))


# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and PCG64's
# multiplier; 1024-phase blocks divide 2^32, so a block shares one word count
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64 = (1 << 32) - 1, (1 << 64) - 1
_BLOCK, _CHUNK = 1024, 256  # phases seeded at once, integers PolicySampler draws per call
# PCG64 outputs a lane draws in a block's first round, and at most in one round; outputs
# of all lanes in one round, and in one _draws call (arrays of 64 KiB); steps a lane may
# walk while a phase before it is still running
_ROUND_MIN, _ROUND_MAX, _ROUND_OUTPUTS, _GRID, _LEAD = 8, 2**11, 2**15, 2**13, 2**12
_LOCKSTEP = 32  # lanes of a round from which they walk in lockstep (_lockstep)
_AHEAD = 16  # the lanes after the first unfinished one walk together ~1/_AHEAD of steps left
_TABLE_MAX = 2**16  # largest denominator whose draws find their metric in a table
# the draws a lane walks per lookup in the mask table of k metrics: the largest m <= 8 with
# 2^k k^m <= 2^16 entries; from k = 10 on m would be 1, and the walk keeps the mask rule
_GRAM = {k: max(m for m in range(1, 9) if 2**k * k**m <= 2**16) for k in range(1, 10)}


def _words(n: int) -> list[int]:
    """SeedSequence's little-endian uint32 words of n (0 is the word [0])."""
    return [n >> shift & _M32 for shift in range(0, max(n.bit_length(), 1), 32)]


def _mulhi(a, b):
    """The high 64 bits of the 128-bit products a * b of uint64 arrays, from 32-bit halves."""
    a1, a0, b1, b0 = a >> 32, a & _M32, b >> 32, b & _M32
    t = a1 * b0 + (a0 * b0 >> 32)
    return a1 * b1 + (t >> 32) + (a0 * b1 + (t & _M32) >> 32)


def _mul128(a, b):
    """a * b mod 2^128 for limb pairs (hi, lo) of uint64 arrays; array products wrap."""
    (ah, al), (bh, bl) = a, b
    return _mulhi(al, bl) + ah * bl + al * bh, al * bl


def _add128(a, b):
    """a + b mod 2^128 for limb pairs (hi, lo) of uint64 arrays."""
    (ah, al), (bh, bl) = a, b
    lo = al + bl
    return ah + bh + (lo < al), lo


def _phase_lanes(seed: int, start: int, stop: int):
    """PCG64 of SeedSequence((seed, i)) for start <= i < stop, one row (state hi, state lo,
    inc hi, inc lo) of uint64 limbs a phase.

    Within one 1024-phase block only the low word of i varies, so the
    pool mix, generate_state(4, uint64) and PCG64's set-seed rule run as
    vector ops over the block.
    """
    if not 0 <= start < stop or start // _BLOCK != (stop - 1) // _BLOCK:
        raise ValueError(f"phases {start}..{stop - 1} do not lie in one {_BLOCK}-phase block")
    n = stop - start
    index = _words(start)
    entropy = [np.full(n, w, np.uint32) for w in _words(seed) + index]
    entropy[-len(index)] = np.arange(index[0], index[0] + n, dtype=np.uint32)
    entropy += [np.zeros(n, np.uint32)] * (4 - len(entropy))

    def hasher(mult, step):
        def hashmix(v):
            nonlocal mult
            v, mult = v ^ mult, mult * step & _M32
            v = v * mult
            return v ^ v >> 16
        return hashmix

    def mix(x, y):
        v = x * _MIX_L - y * _MIX_R
        return v ^ v >> 16

    hashmix = hasher(_INIT_A, _MULT_A)
    pool = [hashmix(v) for v in entropy[:4]]
    for src, dst in permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for v, dst in product(entropy[4:], range(4)):
        pool[dst] = mix(pool[dst], hashmix(v))
    hashmix = hasher(_INIT_B, _MULT_B)
    words = np.stack([hashmix(pool[i % 4]) for i in range(8)], axis=1)
    a, b, c, d = words.astype("<u4").view("<u8").T
    # the set-seed rule: inc = 2 (c, d) + 1 and state = (inc + (a, b)) * mult + inc
    inc = c << 1 | d >> 63, d << 1 | 1
    state = _add128(_mul128(_add128(inc, (a, b)), (_PCG_MULT >> 64, _PCG_MULT & _M64)), inc)
    return np.stack((*state, *inc), axis=1)


@cache
def _jump_tables():
    """PCG64 advanced t steps from (state s, increment inc) is A_t * s + G_t * inc mod 2^128,
    with A_t = mult^t and G_t = 1 + mult + ... + mult^(t-1): (A, G) as (hi, lo) rows of
    uint64 limbs over t = 1.._ROUND_MAX, doubled by A_{T+u} = A_u * A_T and
    G_{T+u} = A_u * G_T + G_u."""
    steps = np.array([[_PCG_MULT >> 64], [_PCG_MULT & _M64]], np.uint64)
    incs = np.array([[0], [1]], np.uint64)
    while steps.shape[1] < _ROUND_MAX:
        a_t, g_t = tuple(map(int, steps[:, -1])), tuple(map(int, incs[:, -1]))
        incs = np.concatenate((incs, _add128(_mul128(steps, g_t), incs)), axis=1)
        steps = np.concatenate((steps, _mul128(steps, a_t)), axis=1)
    return steps, incs


def _draws(den: int, lanes, width: int):
    """Each lane's next draws below den as numpy's Generator.integers(0, den) makes them:
    (the accepted draws, lane by lane, and how many each lane got).

    `lanes` holds one row (state hi, state lo, inc hi, inc lo) per lane, whose state
    advances `width` PCG64 steps in place. Below 2^32 numpy applies Lemire's method to
    the 32-bit halves of each output, low half first; from 2^32 on, to whole outputs;
    both reject a product whose low word falls below 2^32 (2^64) mod den. numpy draws
    den = 1 and 2^32 without the method, but its draws are the same: 0, and the half.
    """
    steps, incs = (table[:, :width] for table in _jump_tables())
    sh, sl, ih, il = (lanes[:, c, None] for c in range(4))
    hi, lo = _add128(_mul128(steps, (sh, sl)), _mul128(incs, (ih, il)))
    lanes[:, 0], lanes[:, 1] = hi[:, -1], lo[:, -1]
    # PCG64's XSL-RR output: the xor of the two halves, rotated right by the top 6 bits
    x, rot = hi ^ lo, hi >> 58
    out = x >> rot | x << (64 - rot & 63)
    if den <= 1 << 32:
        product = out.astype("<u8", copy=False).view("<u4").astype(np.uint64) * den
        low, draws, bound = product & _M32, product >> 32, (1 << 32) % den
    else:
        low, draws, bound = out * den, _mulhi(out, den), (1 << 64) % den
    if not bound:
        return draws.ravel(), np.full(len(lanes), draws.shape[1])
    accepted = low >= bound
    return draws[accepted], accepted.sum(1)


def _rule(mask: int, drawn: list[int], flip: bool, bit: list[int]) -> tuple[int, int]:
    """The mask after the drawn metric indices, and how many of them it used.

    The mask rule: the drawn metric j (bit[j] = 1 << j) always flips in
    the mask (n2, flip) or leaves it if it is its lowest and joins it
    otherwise (lower_bound). The walk stops where the mask, and the phase,
    ends at 0.
    """
    steps = iter(drawn)
    for j in steps:
        b = bit[j]
        mask = mask ^ b if flip or b == mask & -mask else mask | b
        if not mask:
            break
    return mask, len(drawn) - length_hint(steps)


@cache
def _lockstep_tables(k: int, flip: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The m-gram mask table (m = _GRAM[k]) and the one-step table of _rule as flat arrays
    (grams, ends, steps) that _lockstep indexes by a lane's state plus a code. In grams and
    ends mask S has the state S w, w = k^m + 1, and in steps S (k + 1).

    Code c < k^m stands for the m draws whose metric indices are c's
    base-k digits, first draw most significant. grams[S w + c] is the
    state after them, or 0 if the phase ends within them; then
    ends[S w + c] is the draw, 1 to m, at which it ends. grams is m
    compositions of the one-step table: steps[S (k + 1) + d] is the state
    after drawing metric d < k. The pad codes, k^m of grams and k of steps,
    keep every state, and row 0 is all 0, so an ended lane stays ended.
    """
    bit = [1 << j for j in range(k)]
    step = np.array([[_rule(s, [j], flip, bit)[0] if s else 0 for j in range(k)]
                     for s in range(1 << k)])
    keep = np.arange(1 << k)[:, None]
    masks, ends = keep, np.zeros((1 << k, 1), np.uint8)
    for _ in range(_GRAM[k]):
        # a column c of i draws becomes the columns c k + d: draw d follows
        ends = np.repeat(ends + (masks > 0), k, axis=1)  # draws before the mask reached 0
        masks = step[masks].reshape(len(masks), -1)
    # the largest state, (2^k - 1) (k^m + 1), stays below 2^16 up to k = 9
    grams = (np.hstack((masks, keep)) * (masks.shape[1] + 1)).astype(np.uint16)
    ends = np.hstack((ends, np.zeros_like(keep, np.uint8)))
    steps = (np.hstack((step, keep)) * (k + 1)).astype(np.uint16)
    return grams.ravel(), ends.ravel(), steps.ravel()


@cache
def _gram_table(k: int, flip: bool) -> tuple[list, list]:
    """_lockstep_tables' m-gram table as (masks, ends), one row a mask S, without the pad
    code, for the per-lane walk: masks[S][c] is the mask after the m-gram c from mask S,
    or 0, and then ends[S][c] is the draw at which the phase ends. A row of entries below
    2^8 is a bytes object, which Python indexes fastest; masks at k = 9 take array rows of
    two bytes an entry."""
    grams, ends, _ = _lockstep_tables(k, flip)
    w = k ** _GRAM[k] + 1
    masks = grams.reshape(-1, w)[:, :-1] // w
    masks = masks.astype(np.min_scalar_type(masks.max()))
    return tuple([bytes(row) if t.itemsize == 1 else array(t.dtype.char, row.tobytes())
                  for row in t] for t in (masks, ends.reshape(-1, w)[:, :-1]))


def _lockstep(tables, k: int, masks, metrics, counts):
    """(masks after, draws used) of lanes that walk their draws in lockstep, up to k = 9:
    lane l's draws are the next counts[l] metric indices of `metrics`.

    Row c of a grams x lanes array holds every lane's m-gram c, or the pad
    code past the lane's grams; one gather over _lockstep_tables a row walks
    all lanes, then one a draw of the last count % m draws, padded with k.
    A lane's nonzero states after the first count the rows it walked
    through, so they give the gram, and `ends` the draw, at which it ended.
    """
    if not len(metrics):  # every draw rejected: there is nothing to take from
        return masks, counts
    gram_states, ends, steps = tables
    m = _GRAM[k]
    w = k ** m + 1
    starts, grams = np.cumsum(counts) - counts, counts // m
    cols = int(grams.max())
    column = np.arange(cols)[:, None]
    at = starts + m * column
    codes = metrics.take(at, mode="clip").astype(np.intp)
    for i in range(1, m):
        codes = codes * k + metrics.take(at + i, mode="clip")
    codes[column >= grams] = w - 1
    draw = np.arange(m - 1)[:, None]
    tail = metrics.take(starts + m * grams + draw, mode="clip").astype(np.intp)
    tail[draw >= counts - m * grams] = k
    path = np.empty((cols + m, len(counts)), np.intp)
    path[0] = masks * w
    for c in range(cols):
        path[c + 1] = gram_states[path[c] + codes[c]]
    path[cols] = path[cols] // w * (k + 1)  # the states of steps
    for c in range(cols, cols + m - 1):
        path[c + 1] = steps[path[c] + tail[c - cols]]
    rows = np.count_nonzero(path[1:], axis=0)
    used = np.where(path[-1] != 0, counts, m * grams + rows - cols + 1)
    ended = np.flatnonzero(rows < cols)  # within a gram
    c = rows[ended]
    used[ended] = m * c + ends[path[c, ended] + codes[c, ended]]
    return path[-1] // (k + 1), used


class _Round:
    """A wide round's metric indices and the lanes after the head that walked in it, each
    with the start and count of its draws among them."""

    def __init__(self, metrics: memoryview, lanes, starts, used):
        self.metrics, self.lanes, self.starts, self.used = metrics, lanes, starts, used

    @cached_property
    def slices(self) -> dict:
        """Each lane's slice of the metric indices, worked out when the round is first read."""
        ends = (self.starts + self.used).tolist()
        return dict(zip(self.lanes.tolist(), map(slice, self.starts.tolist(), ends)))


class _Held:
    """The steps lanes walked while a phase before them still ran, lane after lane: their
    slices of the rounds' metric indices, read only when iterated; len() is their count."""

    __slots__ = ("rounds", "lanes", "size")

    def __init__(self, rounds: list[_Round], lanes: range, size: int):
        self.rounds, self.lanes, self.size = rounds, lanes, size

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return chain.from_iterable(self._slices())  # the steps, read at C speed

    def _slices(self):
        for lane in self.lanes:
            # a lane after the head walks in every wide round until it stops walking ahead,
            # so its slices lie in a prefix of the rounds
            for walked in self.rounds:
                if (where := walked.slices.get(lane)) is None:
                    break
                yield walked.metrics[where]


def _walk(config: ExperimentConfig, lengths: list[int]):
    """Walk the mask S of differing metrics; yield sized iterables of the metric indices
    drawn and used, in phase order.

    Both adversaries force a policy move every step and move one server
    per phase, so a run is a walk on S: a phase starts at S = {k}, the
    drawn metric leaves S if it is min S and joins S otherwise
    (lower_bound) or always flips (n2), and the phase ends at S = {}.
    The phases of a 1024-phase block are lanes walked in lockstep rounds.
    A round draws every walking lane's next outputs (_draws, _GRID outputs
    a call at most), then walks them. A lane's outputs a round double from
    _ROUND_MIN to _ROUND_MAX, and a round takes at most _ROUND_OUTPUTS over
    all its lanes.

    Up to k = 9 a lane walks m = _GRAM[k] draws per lookup in the m-gram
    table, keyed by their m-gram code, and the mask rule walks its last
    count % m draws. So a round walks its lanes one of two ways, with the
    same result. A round of at least _LOCKSTEP lanes walks them in
    lockstep (_lockstep): one numpy gather over all lanes per gram
    position, so no Python runs per lane. A narrower round, and the head
    lane walking alone, walks lane by lane in Python over _gram_table's
    rows. A gather costs about 1 us however few lanes it reads, a Python
    lookup 35-60 ns, and a lockstep call some 40 us more, while lanes that
    end early in a round stop costing Python lookups only; measured on the
    benchmark's configs and demo 02, the two paths break even near 20-30
    lanes, and at 32 the runs with at most 25 phases keep the lane-by-lane
    walk throughout. From k = 10 on _rule walks every draw, lane by lane.

    A lane's steps are yielded once every phase before it has ended; until
    then it holds them, and it pauses after _LEAD steps. Held steps are not
    copied: a round of several lanes keeps its metric indices with each
    lane's start and count, and a lane's steps are yielded as its slices
    (_Held), read only if the caller iterates them. The lanes after the
    first unfinished one walk only while they hold, together, under
    1/_AHEAD of the steps left, so the steps walked past a budget cut stay
    a small share of it.
    config.max_steps cuts the walk in phase order: a lane stops once the
    lanes up to it have walked the steps left. A finished phase appends its
    length to `lengths`. So the walk yields the sum of `lengths` steps when
    every phase finishes, and exactly config.max_steps when the cut ends it.
    """
    k = config.spec.k
    den, thresholds = exact_thresholds(config.policy.probs)
    index = np.min_scalar_type(k - 1)  # the dtype of the metric indices
    if den <= _TABLE_MAX:  # a draw's metric, looked up
        metric = np.repeat(np.arange(k, dtype=index), np.diff(thresholds, prepend=0)).take
    else:  # uint64 cuts beside uint64 draws: int64 would make searchsorted compare in float64
        cuts = np.array(thresholds, dtype=np.uint64)
        metric = lambda drawn: cuts.searchsorted(drawn, "right").astype(index)
    flip = config.adversary == "n2"
    bit = [1 << j for j in range(k)]
    gram = _GRAM.get(k)
    if gram:
        table, ends = _gram_table(k, flip)
        tables = _lockstep_tables(k, flip)

    def by_lane(masks: list[int], metrics, got):
        """(masks after, draws used) of lanes walked one after another in Python: lane l's
        draws are the next got[l] metric indices of `metrics`."""
        after, used, end = [], [], 0
        if not gram:
            drawn = metrics.tolist()
            for mask, count in zip(masks, got.tolist()):
                start, end = end, end + count
                mask, steps = _rule(mask, drawn[start:end], flip, bit)
                after.append(mask)
                used.append(steps)
            return after, used
        # lane l's gram g starts at draw start_l + m (g - first gram of l)
        grams = got // gram
        at = np.repeat(np.cumsum(got) - got - gram * (np.cumsum(grams) - grams),
                       grams) + gram * np.arange(grams.sum())
        codes = metrics[at].astype(np.intp)
        for i in range(1, gram):
            codes = codes * k + metrics[at + i]
        codes, high, raw = codes.tolist(), 0, memoryview(metrics)
        for mask, count, lookups in zip(masks, got.tolist(), grams.tolist()):
            end += count
            low, high = high, high + lookups
            after_gram = mask
            lane = iter(codes[low:high])
            for code in lane:
                if not (after_gram := table[mask][code]):
                    break
                mask = after_gram
            if after_gram:  # the rule walks the last count % m draws
                tail = raw[end - count % gram:end].tolist()
                mask, steps = _rule(mask, tail, flip, bit)
                steps += count - len(tail)
            else:  # the phase ended in the gram of `code`
                mask, steps = 0, gram * (lookups - length_hint(lane) - 1) + ends[mask][code]
            after.append(mask)
            used.append(steps)
        return after, used

    room = config.max_steps  # steps left when the first unfinished phase starts
    for first in range(0, config.phases, _BLOCK):
        lanes = _phase_lanes(config.seed, first, min(first + _BLOCK, config.phases))
        n = len(lanes)
        # Python ints from k = 64 on
        masks = np.full(n, 1 << (k - 1), np.int64 if k < 64 else object)
        walked = np.zeros(n, np.int64)
        rounds = []  # the wide rounds (_Round)
        head = sent = 0  # the first unfinished lane, and its steps yielded so far
        held = ()  # the head's steps since `sent`
        live, width = np.arange(1, n), _ROUND_MIN  # the lanes after head that may walk
        while True:
            if not masks[head]:
                # the lanes from head on whose phases have ended within the steps left
                ended = np.flatnonzero(masks[head:])
                done = int(ended[0]) if len(ended) else n - head
                total = walked[head:head + done].cumsum()
                if total[-1] > room:
                    done = int(total.searchsorted(room, "right"))
                if done:
                    yield held
                    yield _Held(rounds, range(head + 1, head + done),
                                int(total[done - 1] - total[0]))
                    lengths.extend(walked[head:head + done].tolist())
                    room -= int(total[done - 1])
                    head, sent = head + done, 0
                    if head == n:
                        break
                    held = _Held(rounds, range(head, head + 1), int(walked[head]))
            if walked[head] >= room:  # the step budget ends inside this phase
                yield list(islice(held, room - sent))
                return
            yield held
            sent = int(walked[head])
            walking = [head]
            if len(live):
                ahead = walked[head:].cumsum()  # ahead[i]: the steps lanes head to head + i hold
                # the lanes after head walk while they hold, together, under 1/_AHEAD of room,
                # so the steps walked past the cut stay near room
                if ahead[-1] - ahead[0] < room // _AHEAD:
                    # lane j walks on while it holds under _LEAD steps and the lanes from head
                    # to j hold under room, which keeps a prefix of the lanes
                    stop = head + ahead.searchsorted(min(room, int(ahead[-1]) + 1))
                    live = live[live.searchsorted(head, "right"):live.searchsorted(stop)]
                    live = live[(masks[live] != 0) & (walked[live] < _LEAD)]
                    walking = np.concatenate((walking, live))
            outputs = min(width, _ROUND_OUTPUTS // len(walking))
            lanes_a_call = _GRID // outputs
            bufs, counts = [], []
            for g in range(0, len(walking), lanes_a_call):
                group = walking[g:g + lanes_a_call]
                rows = lanes[group]
                drawn, got = _draws(den, rows, outputs)
                lanes[group] = rows
                bufs.append(metric(drawn))
                counts.append(got)
            metrics, got = np.concatenate(bufs), np.concatenate(counts)
            if gram and len(walking) >= _LOCKSTEP:
                masks[walking], used = _lockstep(tables, k, masks[walking], metrics, got)
            else:
                masks[walking], used = by_lane(masks[walking].tolist(), metrics, got)
            walked[walking] += used
            buf = memoryview(metrics)
            held = buf[:used[0]]  # the head's: walking[0]'s draws come first
            if len(walking) > 1:
                rounds.append(_Round(buf, walking[1:], (np.cumsum(got) - got)[1:], used[1:]))
            width = min(2 * width, _ROUND_MAX)


def _rows(config: ExperimentConfig, lengths: list[int], encode):
    """encode(row) of each step's row (its columns after `t`, as values), from a fresh walk
    over the run's seeds, which appends each finished phase's length to `lengths` as the
    rows are read.

    The adversary's update and request come from its public step
    function, called once per distinct (policy, adversary) configuration
    pair; each distinct (pair, drawn metric) move is built, and its row
    encoded, once. The costs, the Hamming distance and the state mask are
    read off the configurations. Each cache keeps its _CACHE_SIZE most
    recent entries.
    """
    spec = config.spec
    q0 = q = adv = (0,) * spec.k
    bits = tuple(1 << i for i in range(spec.k))
    if config.adversary == "n2":
        adversary = lru_cache(_CACHE_SIZE)(n2_adversary_step)
    else:
        adversary = lru_cache(_CACHE_SIZE)(
            lambda q, adv: lower_bound_adversary_step(q, adv, q0, spec))

    @lru_cache(_CACHE_SIZE)
    def move(q, adv, j):
        adv_next, r = adversary(q, adv)
        q_next = q[:j] + r[j:j + 1] + q[j + 1:]
        mask = diff_mask(q_next, adv_next, bits)
        row = r, q_next, adv_next, 1, sum(map(ne, adv, adv_next)), mask.bit_count(), mask
        return q_next, adv_next, encode(row)

    for j in chain.from_iterable(_walk(config, lengths)):
        q, adv, row = move(q, adv, j)
        yield row


def _trace(config: ExperimentConfig, steps) -> Trace:
    """The trace of a run from the start (0, ..., 0) of both sides, with these steps."""
    q0 = (0,) * config.spec.k
    return Trace(k=config.spec.k, n=config.spec.n, policy=config.policy,
                 adversary=config.adversary, seed=config.seed, q0=q0, adv0=q0, steps=steps)


def _replay(config: ExperimentConfig, lengths: list[int]) -> Trace:
    """A run's trace, whose TraceSteps come from a fresh walk (_rows) as they are read."""
    rows = _rows(config, lengths, lambda row: row)
    return _trace(config, (TraceStep(t, *row) for t, row in enumerate(rows, 1)))


def _write_run(config: ExperimentConfig, path: str) -> RunSummary:
    """Walk a run once: write its trace to path, each step's line built from its row's text
    as the walk yields it, and return the run's summary."""
    lengths: list[int] = []
    rows = _rows(config, lengths, _row_text)
    _write_lines(_trace(config, (f"{t},{text}\n" for t, text in enumerate(rows, 1))), path)
    return _summarize(config, lengths)


def _summarize(config: ExperimentConfig, lengths: list[int]) -> RunSummary:
    """The summary of a walk whose finished phases had these lengths: its steps are their
    sum, or config.max_steps if the budget cut the walk (which then yields that many)."""
    phases = len(lengths)
    alg_cost = sum(lengths)
    exhausted = phases < config.phases
    mean_len, max_len, se, ratio = 0.0, 0, 0.0, None
    if phases:
        mean_len, max_len, ratio = alg_cost / phases, max(lengths), Fraction(alg_cost, phases)
    if phases > 1:
        se = sqrt(sum((x - mean_len) ** 2 for x in lengths) / (phases - 1) / phases)
    return RunSummary(
        alg_cost=alg_cost, adv_cost=phases, ratio=ratio, phases=phases,
        mean_phase_length=mean_len, max_phase_length=max_len, phase_length_se=se,
        steps=config.max_steps if exhausted else alg_cost, seed=config.seed,
        policy=tuple(config.policy.as_strs()), adversary=config.adversary, k=config.spec.k,
        n=config.spec.n, exhausted=exhausted,
    )


def run(config: ExperimentConfig):
    """Drive the request loop until the phase budget or step budget runs out.

    Returns (RunSummary, Trace or None); the summary keeps no per-step
    record. The trace's steps walk the same seeds again as they are read.
    """
    lengths: list[int] = []
    deque(_walk(config, lengths), maxlen=0)  # drained: the summary needs only the lengths
    return _summarize(config, lengths), _replay(config, []) if config.emit_trace else None


def raise_if_exhausted(config: ExperimentConfig, summary: RunSummary) -> None:
    """Raise StepBudgetExhausted if the run hit max_steps before its phase budget."""
    if summary.exhausted:
        raise StepBudgetExhausted(f"step budget {config.max_steps} exhausted after "
                                  f"{summary.phases}/{config.phases} phases")


def estimate_ratio(config: ExperimentConfig):
    """Point estimate of ALG/ADV with the phase-length standard error.

    Phases are i.i.d. by memorylessness and the built-in adversaries pay
    exactly 1 per phase, so the ratio is the mean phase length.
    """
    summary, _ = run(replace(config, emit_trace=False))
    raise_if_exhausted(config, summary)
    return summary.ratio, summary.phase_length_se


def state_histogram(trace: Trace) -> dict[int, int]:
    """Visit counts of each post-step subset state (bitmask of differing metrics)."""
    return dict(Counter(s.state_mask for s in trace.steps))


def transition_counts(trace: Trace) -> dict[tuple[int, int], int]:
    """Counts of (state before move, state after move) over policy moves.

    The before-state pairs the previous policy configuration with the
    *current* adversary configuration (post-update), which is the state
    the subset walk steps from.
    """
    counts: Counter[tuple[int, int]] = Counter()
    bits = tuple(1 << i for i in range(trace.k))
    prev_q = trace.q0
    for s in trace.steps:
        counts[diff_mask(prev_q, s.adv_config, bits), s.state_mask] += 1
        prev_q = s.alg_config
    return dict(counts)


# The trace format is Trace's fields other than `steps`, one `# name=value` header line
# each, then a column header and one line per step of TraceStep's fields. Each field's
# annotation (a string, under `from __future__ import annotations`) picks its
# (encode, decode) pair.
_CODECS = {
    "int": (str, int),
    "str": (str, str),
    "tuple[int, ...]": (lambda cfg: ";".join(map(str, cfg)),
                        lambda s: tuple(map(int, s.split(";")))),
    "MemorylessPolicy": (lambda policy: ";".join(policy.as_strs()),
                         lambda s: MemorylessPolicy.from_probs(
                             map(rational_from_str, s.split(";")))),
}
_HEADER = {f.name: f for f in fields(Trace) if f.name != "steps"}
_COLUMNS = ",".join(f.name for f in fields(TraceStep))
# a step's row: its columns after t, which is new at every step, so the caches of the
# writer and the audits key on the row, as values or as text
_ROW = fields(TraceStep)[1:]
_ROW_VALUES = attrgetter(*(f.name for f in _ROW))
# the policy's and the adversary's configuration among a row's columns
_CONFIGS = itemgetter(*(i for i, f in enumerate(_ROW) if f.name in ("alg_config", "adv_config")))
_ENCODERS = [_CODECS[f.type][0] for f in _ROW]


def _row_text(row) -> str:
    """The text of a row's values, as its step's line holds it after `t,`."""
    return ",".join([encode(v) for encode, v in zip(_ENCODERS, row)])


def _check_points(spec: MetricSpec, row):
    """row, once its configurations and request are checked to be points of spec's metrics."""
    for f, value in zip(_ROW, row):
        if type(value) is tuple:
            _validate_config_point(spec, value, f.name)
    return row


def write_trace_csv(trace: Trace, path: str) -> None:
    """Deterministic CSV with a self-describing comment header; consumes trace.steps."""
    text = lru_cache(_CACHE_SIZE)(_row_text)  # built once per distinct row
    lines = (f"{s.t},{text(_ROW_VALUES(s))}\n" for s in trace.steps)
    _write_lines(replace(trace, steps=lines), path)


def _write_lines(trace: Trace, path: str) -> None:
    """Write trace's header, then its steps, which are the lines of the steps, as they come."""
    with open(path, "w", newline="\n") as fh:
        fh.write("# gkserver-trace v1\n")
        fh.writelines(f"# {name}={_CODECS[f.type][0](getattr(trace, name))}\n"
                      for name, f in _HEADER.items())
        fh.write(_COLUMNS + "\n")
        fh.writelines(trace.steps)


def _numbered_lines(path: str):
    """(line number, line) of a UTF-8 file, open while iterated."""
    with open(path, encoding="utf-8") as fh:
        yield from enumerate(fh, start=1)


def read_trace_csv(path: str) -> Trace:
    """Parse a trace written by write_trace_csv; raises ValueError on malformed input.

    The header is checked here. The steps are a one-pass iterator, parsed
    as they are read by the text loop verify_trace audits the file with
    (_audited_lines), so a bad step raises then. Malformed includes a `#`
    line after the column header, a repeated or unknown header key (a `#`
    line without `=` is a comment), a header n that does not list k metrics
    and a configuration or request of the wrong width or with a point
    outside its metric's 0..n_i - 1; the error names the first such step.
    A step's `t` is read as int() reads it.
    """
    lines = _numbered_lines(path)
    meta: dict[str, str] = {}
    for lineno, line in lines:
        line = line.rstrip("\n")
        if line == _COLUMNS:
            break
        if line.startswith("#"):
            key, eq, val = map(str.strip, line[1:].partition("="))
            if not eq:
                continue
            if key in meta:
                raise ValueError(f"line {lineno}: repeated header key {key!r}")
            meta[key] = val
        elif line:
            raise ValueError(f"line {lineno}: unexpected column header {line!r}")
    missing = _HEADER.keys() - meta.keys()
    if missing:
        raise ValueError(f"trace header missing fields: {sorted(missing)}")
    unknown = meta.keys() - _HEADER.keys()
    if unknown:
        raise ValueError(f"trace header has unknown fields: {sorted(unknown)}")
    head = {name: _CODECS[f.type][1](meta[name]) for name, f in _HEADER.items()}
    if not head["k"] == len(head["n"]) == len(head["q0"]) == head["policy"].k:
        raise ValueError("trace header is inconsistent (k vs n vs q0 vs policy length)")
    spec = MetricSpec(n=head["n"])
    start = (_validate_config_point(spec, head["q0"], "q0"),
             _validate_config_point(spec, head["adv0"], "adv0"))
    return Trace(**head, steps=_FileSteps(spec, start, lines))


class _FileSteps(starmap):
    """The TraceSteps of a trace file's numbered `lines` after its column header, parsed and
    checked against its header's spec, from (q0, adv0) = start, as they are iterated: one
    pass, as a generator's. verify_trace audits the lines themselves (_audited)."""

    def __new__(cls, spec: MetricSpec, start, lines):
        rows = _audited_lines(spec, start, lines, lambda q_prev, adv_prev, *row: row)
        steps = super().__new__(cls, lambda t, row: TraceStep(t, *row), rows)
        steps.lines = lines
        return steps


def _step_t(lineno: int, line: str) -> int | None:
    """The `t` of a line after the column header, or None for a blank line.

    Raises ValueError naming the line for a `#` line, a wrong field count
    or a `t` that int() does not read, in that order.
    """
    line = line.rstrip("\n")
    if not line:
        return None
    if line.startswith("#"):
        raise ValueError(f"line {lineno}: '#' line after the column header")
    if line.count(",") != len(_ROW):
        raise ValueError(f"line {lineno}: expected {len(_ROW) + 1} fields, "
                         f"got {line.count(',') + 1}")
    try:
        return int(line.partition(",")[0])
    except ValueError as exc:  # not a number, or beyond int()'s digits
        raise ValueError(f"line {lineno}: {exc}") from exc


def _audited(trace: Trace, audit):
    """(t, audit(q_prev, adv_prev, *row)) for each step of trace, q_prev and adv_prev being
    the step before's configurations from trace's own q0 and adv0, checked at once; the
    steps of a file (read_trace_csv) are audited on its lines, as text."""
    spec = MetricSpec(n=trace.n)
    start = (_validate_config_point(spec, trace.q0, "q0"),
             _validate_config_point(spec, trace.adv0, "adv0"))
    if isinstance(trace.steps, _FileSteps):
        return _audited_lines(spec, start, trace.steps.lines, audit)
    return _audited_steps(spec, start, trace.steps, audit)


def _audited_steps(spec: MetricSpec, start, steps, audit):
    """_audited's pairs for TraceSteps, with audit cached on the values of each distinct
    (q_prev, adv_prev, row), _CACHE_SIZE of them. Each distinct row's points are checked as
    read_trace_csv checks them, and a bad one raises its ConfigError."""
    q_prev, adv_prev = start
    checked = lru_cache(_CACHE_SIZE)(lambda q, adv, *row: audit(q, adv, *_check_points(spec, row)))
    for s in steps:
        try:
            value = checked(q_prev, adv_prev, *_ROW_VALUES(s))
        except ConfigError as exc:  # named by its step, as in _audited_lines
            raise ConfigError(f"step t={s.t}: {exc}") from exc
        yield s.t, value
        q_prev, adv_prev = s.alg_config, s.adv_config


def _audited_lines(spec: MetricSpec, start, lines, audit):
    """_audited's pairs for the numbered lines of a trace file after its column header, with
    audit cached on the text of each distinct (step before's configurations, row), which is
    parsed and checked on a miss. A step's `t` is compared as text with the number after the
    previous `t`, and read by int() only when the two differ. A malformed row raises
    ValueError named by its line, a point outside its metric ConfigError named by its step,
    and a file without steps ValueError."""
    decoders = [_CODECS[f.type][1] for f in _ROW]
    encode_config, decode_config = _CODECS["tuple[int, ...]"]
    last = None, None  # the state the last miss left, and its configurations

    # the state a step leaves is its configurations: the text of their columns
    @lru_cache(_CACHE_SIZE)
    def pair(state, text):
        nonlocal last
        cells = text.rstrip("\n").split(",")
        if len(cells) != len(_ROW):
            raise ValueError(f"expected {len(_ROW)} fields after t, got {len(cells)}")
        row = _check_points(spec, [parse(cell) for parse, cell in zip(decoders, cells)])
        configs = last[1] if state is last[0] else map(decode_config, state.split(","))
        last = ",".join(_CONFIGS(cells)), _CONFIGS(row)
        return audit(*configs, *row), last[0]

    state, value = ",".join(map(encode_config, start)), None
    t_next, expected = "1", 1  # the text, and the number, of a consecutive t
    for lineno, line in lines:
        t_text, _, text = line.partition(",")
        if t_text == t_next:
            t = expected
        elif (t := _step_t(lineno, line)) is None:
            continue
        try:
            value, state = pair(state, text)
        except ConfigError as exc:  # a configuration outside its metrics: name its step
            raise ConfigError(f"step t={t}: {exc}") from exc
        except ValueError as exc:
            _step_t(lineno, line)  # a wrong field count raises here, as it would before t
            raise ValueError(f"line {lineno}: {exc}") from exc
        yield t, value
        expected = t + 1
        try:
            t_next = str(expected)
        except ValueError:  # beyond int()'s digits: no text is equal, int() compares
            t_next = None
    if value is None:
        raise ValueError("trace holds no steps")
