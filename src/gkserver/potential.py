"""Potential-function audit of simulation traces.

The potential between two configurations is phi(p, q) = h(d_H(p, q)),
where h is the harmonic-chain extinction-time table and d_H the Hamming
distance. Against any adversary it satisfies, for the uniform policy:

* adversary moves raise the potential by at most k * a(k) per unit of
  adversary cost (hard per-step inequality on realized values), and
* each forced policy move lowers the potential by at least 1 *in
  expectation* (an expectation statement: the realized drop can be
  negative, so the verifier recomputes the exact expectation of each
  move from the configurations and accounts the realized-minus-expected
  difference as a martingale residual).

Telescoping the two gives total policy cost <= k * a(k) * adversary cost
plus boundary potentials minus the residual, which verify_trace checks
as an exact rational inequality on every finished trace.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import accumulate
from operator import eq, ne

from .harmonic import alpha_table, rational_to_str
from .simulate import _audited, diff_mask
from .subsets import MemorylessPolicy

__all__ = [
    "PotentialContext",
    "hamming",
    "potential",
    "delta_h",
    "expected_drift",
    "TraceReport",
    "verify_trace",
]


@dataclass(frozen=True)
class PotentialContext:
    """Precomputed h(0..k) and a(1..k) for one k."""

    k: int
    h: tuple[int, ...]
    alphas: tuple[int, ...]

    @classmethod
    def for_k(cls, k: int) -> "PotentialContext":
        if k < 1:
            raise ValueError(f"need k >= 1, got {k}")
        alphas = alpha_table(k)
        # h(l) = k (a(k) + ... + a(k - l + 1)), the harmonic chain's EET (`harmonic_eet`)
        return cls(k=k, h=(0, *accumulate(k * a for a in reversed(alphas))), alphas=tuple(alphas))

    @property
    def step_bound(self) -> int:
        """k * a(k): the max potential increase per unit adversary move."""
        return self.k * self.alphas[self.k - 1]


def hamming(a, b) -> int:
    """Number of coordinates where two configurations differ."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(1 for x, y in zip(a, b) if x != y)


def potential(a, b, ctx: PotentialContext) -> int:
    """phi(a, b) = h(d_H(a, b))."""
    d = hamming(a, b)
    if len(a) != ctx.k:
        raise ValueError(f"configurations have {len(a)} coordinates, context is for k={ctx.k}")
    return ctx.h[d]


def delta_h(ell: int, ell_prime: int, ctx: PotentialContext) -> int:
    """h(ell') - h(ell) via the telescoped sum k * sum_{i=ell}^{ell'-1} a(k-i)."""
    if not 0 <= ell < ell_prime <= ctx.k:
        raise ValueError(f"need 0 <= ell < ell' <= k, got ell={ell}, ell'={ell_prime}, k={ctx.k}")
    return ctx.k * sum(ctx.alphas[ctx.k - i - 1] for i in range(ell, ell_prime))


def expected_drift(q, adv, r, policy: MemorylessPolicy, ctx: PotentialContext) -> Fraction:
    """Exact expected potential drop of one forced policy move.

    Enumerates all k moves with their probabilities (no sampling).
    Preconditions: q serves the request nowhere; adv serves it somewhere.
    For the uniform policy the value equals (C-1)*a(j) + 1 with
    C = |{i : adv_i = r_i}| and j = k - d_H(q, adv) + 1, hence >= 1.
    """
    k = policy.k
    if len(q) != k or len(adv) != k or len(r) != k or ctx.k != k:
        raise ValueError("q, adv, r, and context must all describe the same k metrics")
    if any(qi == ri for qi, ri in zip(q, r)):
        raise ValueError("request is already served by the policy configuration")
    if not any(ai == ri for ai, ri in zip(adv, r)):
        raise ValueError("adversary configuration does not serve the request")
    dist = hamming(q, adv)
    drift = Fraction(0)
    for j in range(k):
        d_new = dist - (1 if q[j] != adv[j] else 0) + (1 if r[j] != adv[j] else 0)
        drift += policy.probs[j] * (ctx.h[dist] - ctx.h[d_new])
    return drift


@dataclass(frozen=True)
class TraceReport:
    """Outcome of a trace audit; hard_violations empty means the audit passed."""

    steps: int
    alg_cost: int
    adv_cost: int
    potential_start: int
    potential_end: int
    residual: Fraction             # sum of (realized - expected) potential drops
    expected_drop_total: Fraction
    realized_drop_total: int
    min_expected_drift: Fraction | None
    hard_violations: list[dict]
    bound_holds: bool              # ALG <= k a(k) ADV + phi_0 - phi_T - residual

    @property
    def ok(self) -> bool:
        return not self.hard_violations and self.bound_holds

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "residual": rational_to_str(self.residual),
            "residual_float": float(self.residual),
            "expected_drop_total": float(self.expected_drop_total),
            "min_expected_drift": None if self.min_expected_drift is None
            else float(self.min_expected_drift),
            "ok": self.ok,
        }


def _scaled_drops(ctx: PotentialContext) -> list[list[int]]:
    """k times the expected drop of a forced uniform-policy move, indexed [d][c].

    d = d_H(q, adv) before the move and c = |{i : adv_i = r_i}|, with
    1 <= c <= d: q serves r nowhere, so every metric where the adversary
    serves lies among the d that differ. Moving one of those c servers
    lowers the distance by one, moving one of the k - d servers that agree
    raises it by one, and any other move keeps it, so
    k * E[drop] = c (h[d] - h[d-1]) - (k - d) (h[d+1] - h[d]).
    """
    k, h = ctx.k, ctx.h + (0,)  # h[k + 1] is weighted by k - d = 0
    return [[c * (h[d] - h[d - 1]) - (k - d) * (h[d + 1] - h[d]) for c in range(d + 1)]
            for d in range(k + 1)]


def _stamped(t: int, records) -> list[dict]:
    """Fresh report records of step t from cached t-free ones; a tuple value becomes a list."""
    return [{"t": t, **{key: list(v) if type(v) is tuple else v for key, v in record.items()}}
            for record in records]


def verify_trace(trace, ctx: PotentialContext | None = None) -> TraceReport:
    """Audit a uniform-policy trace step by step, in one pass over trace.steps.

    Hard checks per step: the adversary's move may not raise the
    potential by more than k * a(k) per unit of its cost, and the facts
    the audit rests on are recomputed rather than trusted: `t` rises by
    one, the declared costs equal the Hamming moves of the two
    configurations, the policy's configuration serves the request and
    every coordinate it moved now equals the request, and the `hamming`
    and `state_mask` columns match the configurations. Policy moves are
    accounted in expectation (the exact expected drop is recomputed per
    step; realized-minus-expected accumulates into the residual, whose
    mean over independent traces straddles zero). A step whose request
    the previous policy configuration already serves, or the adversary
    does not serve, breaks the premises of that expectation: it is a
    hard violation and adds no drift. Finally the telescoped bound is
    checked exactly. Every expected drop is an integer over k, so the
    audit keeps k times each expected quantity as an integer and builds
    the report's fractions once at the end. Every check but the `t` check
    runs once per distinct (previous configurations, row) pair
    (simulate._audited); its records get their step's `t` as they are
    reported. The steps of read_trace_csv are audited on their file's
    lines, as text, with the trace's own n, q0 and adv0; `gkserver verify`
    is this call. A trace whose steps yield nothing, such as an already
    consumed stream, raises ValueError; a point outside its metric, or a
    configuration of another width, raises the ConfigError that
    read_trace_csv's steps raise for it.
    """
    ctx = _context(trace, ctx)
    return _report(ctx, trace, _audited(trace, _auditor(ctx)))


def _context(trace, ctx: PotentialContext | None = None) -> PotentialContext:
    """The context to audit trace with: ctx, or one for its k; the policy must be uniform."""
    if not trace.policy.is_uniform:
        raise ValueError("trace audit is defined for the uniform policy only")
    if ctx is None:
        ctx = PotentialContext.for_k(trace.k)
    if ctx.k != trace.k:
        raise ValueError(f"context is for k={ctx.k}, trace has k={trace.k}")
    return ctx


def _auditor(ctx: PotentialContext):
    """The checks of one (previous configurations, row) pair, uncached.

    audit(q_prev, adv_prev, *row) gives the t-free records found before
    the `t` check and after it, the scaled expected and the realized drop
    (None when the premises fail), the new distance, and the declared
    policy and adversary costs.
    """
    k, h, bound = ctx.k, ctx.h, ctx.step_bound
    drops = _scaled_drops(ctx)
    bits = tuple(1 << i for i in range(k))
    full = (1 << k) - 1

    def audit(q_prev, adv_prev, r, q, adv, alg_paid, adv_paid, d_declared, mask_declared):
        d_prev = sum(map(ne, q_prev, adv_prev))
        d_mid = sum(map(ne, q_prev, adv))
        state = diff_mask(q, adv, bits)
        d_new = state.bit_count()
        moved = diff_mask(q_prev, q, bits)
        unserved = diff_mask(q, r, bits)
        jump = h[d_mid] - h[d_prev]
        before = ({"kind": "adversary_potential_jump", "jump": jump,
                   "allowed": bound * adv_paid},) if jump > bound * adv_paid else ()
        after = [{"kind": kind, "declared": declared, "actual": actual}
                 for kind, declared, actual in (
                     ("alg_cost_mismatch", alg_paid, moved.bit_count()),
                     ("adv_cost_mismatch", adv_paid, sum(map(ne, adv_prev, adv))),
                     ("hamming_mismatch", d_declared, d_new),
                     ("state_mask_mismatch", mask_declared, state),
                 ) if declared != actual]
        if unserved == full:
            after.append({"kind": "request_not_served"})
        if stray := moved & unserved:
            after.append({"kind": "move_not_to_request",
                          "coordinates": tuple(i for i in range(k) if stray >> i & 1)})
        # the expected drop's premises: the move is forced, the adversary serves r
        forced = not any(map(eq, q_prev, r))
        if not forced:
            after.append({"kind": "request_already_served"})
        served = sum(map(eq, adv, r))
        if not served:
            after.append({"kind": "request_not_served_by_adversary"})
        drop = (drops[d_mid][served], h[d_mid] - h[d_new]) if served and forced else None
        return before, tuple(after), drop, d_new, alg_paid, adv_paid

    return audit


def _report(ctx: PotentialContext, trace, audited) -> TraceReport:
    """The report on trace from (t, audit) of each of its steps, in order."""
    k, h = ctx.k, ctx.h
    phi_start = potential(trace.q0, trace.adv0, ctx)
    t_prev = 0
    expected_total = 0             # k * the sum of expected drops
    realized_total = 0
    min_drift: int | None = None   # k * the smallest expected drop
    violations: list[dict] = []
    alg_cost = adv_cost = steps = 0
    for steps, (t, (before, after, drop, d_prev, alg_paid, adv_paid)) in enumerate(audited, 1):
        if before:
            violations += _stamped(t, before)
        if t != t_prev + 1:
            violations.append({"t": t, "kind": "time_not_consecutive",
                               "declared": t, "actual": t_prev + 1})
        if after:
            violations += _stamped(t, after)
        if drop:
            exp_drop, realized = drop
            expected_total += exp_drop
            realized_total += realized
            if min_drift is None or exp_drop < min_drift:
                min_drift = exp_drop
        alg_cost += alg_paid
        adv_cost += adv_paid
        t_prev = t
    if not steps:
        raise ValueError("trace holds no steps")

    phi_end = h[d_prev]
    residual = k * realized_total - expected_total  # k * (realized - expected)
    bound_holds = k * alg_cost <= k * (ctx.step_bound * adv_cost + phi_start - phi_end) - residual
    return TraceReport(
        steps=steps,
        alg_cost=alg_cost,
        adv_cost=adv_cost,
        potential_start=phi_start,
        potential_end=phi_end,
        residual=Fraction(residual, k),
        expected_drop_total=Fraction(expected_total, k),
        realized_drop_total=realized_total,
        min_expected_drift=None if min_drift is None else Fraction(min_drift, k),
        hard_violations=violations,
        bound_holds=bound_holds,
    )
