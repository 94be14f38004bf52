"""Simulation engine: adversary steps, runs, traces, determinism, histograms."""

import dataclasses
import json
import math
import random
from fractions import Fraction
from itertools import chain, islice, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkserver import simulate
from gkserver.cli import EXIT_VALIDATION, main
from gkserver.simulate import (
    TraceStep,
    ConfigError,
    ExperimentConfig,
    MetricSpec,
    PolicySampler,
    StepBudgetExhausted,
    estimate_ratio,
    lower_bound_adversary_step,
    memoryless_step,
    n2_adversary_step,
    read_trace_csv,
    run,
    state_histogram,
    transition_counts,
    write_trace_csv,
)
from gkserver.harmonic import exact_thresholds
from gkserver.potential import verify_trace
from gkserver.simulate import _draws, _phase_lanes, _summarize, _validate_config_point
from gkserver.subsets import MemorylessPolicy


def _cfg(**overrides):
    base = {
        "k": 2, "n": [3, 3], "policy": ["1/2", "1/2"], "adversary": "lower_bound",
        "phases": 100, "seed": 7,
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def test_metric_spec_validation():
    with pytest.raises(ConfigError):
        MetricSpec(n=())
    with pytest.raises(ConfigError):
        MetricSpec(n=(3, 1))


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="lower_bound adversary needs >= 3"):
        _cfg(n=[2, 2])
    with pytest.raises(ConfigError, match="n2 adversary needs exactly 2"):
        _cfg(adversary="n2", n=[3, 3])
    with pytest.raises(ConfigError, match="missing fields"):
        ExperimentConfig.from_dict({"k": 2})
    with pytest.raises(ConfigError, match="policy"):
        _cfg(policy=["1/2", "0"])
    with pytest.raises(ConfigError, match="unknown adversary"):
        _cfg(adversary="oblivious")
    with pytest.raises(ConfigError, match="phases"):
        _cfg(phases=0)
    with pytest.raises(ConfigError, match="seed"):
        _cfg(seed=-1)
    with pytest.raises(ConfigError, match=r"^policy covers 2 metrics but n lists 3$"):
        ExperimentConfig(MetricSpec((3, 3, 3)), MemorylessPolicy.uniform(2), "lower_bound", 1, 0)


@pytest.mark.parametrize("key, value, message", [
    ("n", [3, 3, 3], "n must list exactly k=2 point counts, got [3, 3, 3]"),
    ("policy", ["1"], "policy must list exactly k=2 rationals, got ['1']"),
])
def test_config_lists_must_hold_k_entries(key, value, message, tmp_path, capsys):
    config = {"k": 2, "n": [3, 3], "policy": ["1/2", "1/2"], "adversary": "lower_bound",
              "phases": 2, "seed": 0, key: value}
    with pytest.raises(ConfigError) as raised:
        ExperimentConfig.from_dict(config)
    assert raised.type is ConfigError
    assert str(raised.value) == message
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["simulate", str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_config_canonicalizes_policy_and_n_together():
    cfg = ExperimentConfig.from_dict({
        "k": 2, "n": [5, 3], "policy": ["1/3", "2/3"], "adversary": "lower_bound",
        "phases": 1, "seed": 0,
    })
    assert cfg.policy.probs == (Fraction(2, 3), Fraction(1, 3))
    assert cfg.spec.n == (3, 5)  # metric travels with its probability


def test_memoryless_step_serves_in_place():
    policy = MemorylessPolicy.uniform(2)
    sampler = PolicySampler(policy, (0, 0))
    q, moved = memoryless_step((0, 0), (0, 5), policy, sampler)
    assert q == (0, 0) and moved is None


def test_memoryless_step_moves_exactly_one_server():
    policy = MemorylessPolicy.uniform(2)
    sampler = PolicySampler(policy, (1, 0))
    outcomes = set()
    for _ in range(200):
        q, moved = memoryless_step((0, 0), (1, 1), policy, sampler)
        assert q in ((1, 0), (0, 1))
        assert moved in (0, 1)
        outcomes.add(q)
    assert outcomes == {(1, 0), (0, 1)}


def test_memoryless_step_distribution_uniform_k4():
    # from the worked instance: q=(1,0,0,1), r=(0,2,2,2) -> four successors, 1/4 each
    policy = MemorylessPolicy.uniform(4)
    sampler = PolicySampler(policy, (123, 0))
    expected = {(0, 0, 0, 1), (1, 2, 0, 1), (1, 0, 2, 1), (1, 0, 0, 2)}
    counts = {}
    n = 8000
    for _ in range(n):
        q, _ = memoryless_step((1, 0, 0, 1), (0, 2, 2, 2), policy, sampler)
        assert q in expected
        counts[q] = counts.get(q, 0) + 1
    se = math.sqrt(0.25 * 0.75 / n)
    for q in expected:
        assert abs(counts[q] / n - 0.25) <= 4 * se


def test_sampler_matches_skewed_policy():
    policy = MemorylessPolicy.from_probs([Fraction(2, 3), Fraction(1, 3)])
    sampler = PolicySampler(policy, (5, 1))
    n = 9000
    hits = sum(1 for _ in range(n) if sampler.draw() == 0)
    se = math.sqrt((2 / 3) * (1 / 3) / n)
    assert abs(hits / n - 2 / 3) <= 4 * se


def test_lower_bound_adversary_phase_start():
    spec = MetricSpec(n=(3, 3, 3, 3))
    q0 = (0, 0, 0, 0)
    adv, r = lower_bound_adversary_step(q0, q0, q0, spec)
    assert adv == (0, 0, 0, 1)  # smallest Z distinct from both occupied points
    assert r == (1, 1, 1, 1)


def test_lower_bound_adversary_mid_phase():
    spec = MetricSpec(n=(3, 3, 3, 3))
    q0 = (0, 0, 0, 0)
    adv, r = lower_bound_adversary_step((1, 0, 0, 1), (0, 0, 0, 0), q0, spec)
    assert adv == (0, 0, 0, 0)
    # lowest differing metric is revealed; everything else avoids both sides
    assert r[0] == 0
    for j in range(1, 4):
        assert r[j] != adv[j] and r[j] != (1, 0, 0, 1)[j]
    assert r == (0, 1, 1, 2)


def test_lower_bound_adversary_reveals_metric_two():
    spec = MetricSpec(n=(3, 3))
    adv, r = lower_bound_adversary_step((0, 1), (0, 0), (0, 0), spec)
    assert adv == (0, 0)
    assert r == (1, 0)


def test_lower_bound_adversary_rejects_two_point_metrics():
    with pytest.raises(ConfigError):
        lower_bound_adversary_step((0, 0), (0, 0), (0, 0), MetricSpec(n=(3, 2)))


N333 = MetricSpec(n=(3, 3, 3))
UNIFORM2 = MemorylessPolicy.uniform(2)


@pytest.mark.parametrize("step, args, error, message", [
    (lower_bound_adversary_step, ((0, 3, 0), (0, 0, 0), (0, 0, 0), N333), ConfigError,
     "q_prev coordinate 2 = 3 outside 0..2"),
    (lower_bound_adversary_step, ((0, 0), (0, 0, 0), (0, 0, 0), N333), ConfigError,
     "q_prev has 2 coordinates, expected 3"),
    (lower_bound_adversary_step, ((0, 0, 0), (-1, 0, 0), (0, 0, 0), N333), ConfigError,
     "adv_prev coordinate 1 = -1 outside 0..2"),
    (n2_adversary_step, ((0, 1), (0, 1, 0)), ValueError, "configurations must have equal length"),
    (n2_adversary_step, ((0, 1, 0), (0, 1)), ValueError, "configurations must have equal length"),
    (lower_bound_adversary_step, ((0, 0, 0), (0, 0, 0), (5, 5, 0), N333), ConfigError,
     "q0 coordinate 1 = 5 outside 0..2"),
    (lower_bound_adversary_step, ((0, 0, 0), (0, 0, 0), (0,), N333), ConfigError,
     "q0 has 1 coordinates, expected 3"),
    (n2_adversary_step, ((), ()), ValueError, "configurations need at least one coordinate"),
    (memoryless_step, ((0, 0), (1,), UNIFORM2, PolicySampler(UNIFORM2, (0, 0))), ValueError,
     "configuration and request must have one coordinate per metric"),
], ids=["lb_point_outside", "lb_narrow", "lb_negative", "n2_shorter_q", "n2_longer_q",
        "lb_q0_outside", "lb_q0_narrow", "n2_empty", "policy_narrow_r"])
def test_adversary_steps_reject_bad_configurations(step, args, error, message):
    with pytest.raises(error) as exc:
        step(*args)
    assert exc.type is error
    assert str(exc.value) == message


def test_points_beyond_the_smallest_metric_are_checked_per_metric():
    # 4 lies outside the 3-point metric but inside the 5-point one
    spec = MetricSpec(n=(5, 3))
    assert lower_bound_adversary_step((4, 0), (4, 1), (0, 0), spec) == ((4, 1), (0, 1))
    for q_prev, message in (((5, 0), "q_prev coordinate 1 = 5 outside 0..4"),
                            ((0, 4), "q_prev coordinate 2 = 4 outside 0..2")):
        with pytest.raises(ConfigError) as exc:
            lower_bound_adversary_step(q_prev, (0, 0), (0, 0), spec)
        assert str(exc.value) == message


def test_points_of_huge_metrics_are_checked_on_their_coordinates():
    # the check never builds anything the size of a metric: n = 10**12 passes and fails at once
    spec = MetricSpec(n=(10**12,) * 3)
    assert _validate_config_point(spec, (10**12 - 1, 0, 5), "q") == (10**12 - 1, 0, 5)
    with pytest.raises(ConfigError) as exc:
        _validate_config_point(spec, (0, 10**12, 0), "q")
    assert str(exc.value) == "q coordinate 2 = 1000000000000 outside 0..999999999999"


def test_traced_lower_bound_run_at_huge_n_verifies(tmp_path, capsys):
    # the walk, the writer, the reader and both audits at n = 10**9 per metric
    config = {"k": 3, "n": [10**9] * 3, "policy": ["1/3"] * 3, "adversary": "lower_bound",
              "phases": 20, "seed": 1, "emit_trace": True, "trace_path": str(tmp_path / "t.csv")}
    (tmp_path / "c.json").write_text(json.dumps(config))
    assert main(["simulate", str(tmp_path / "c.json")]) == 0
    assert json.loads(capsys.readouterr().out)["phases"] == 20
    assert main(["verify", str(tmp_path / "t.csv")]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]
    assert verify_trace(read_trace_csv(str(tmp_path / "t.csv"))).ok


def test_n2_adversary_steps():
    adv, r = n2_adversary_step((0, 0), (0, 0))
    assert adv == (0, 1) and r == (1, 1)
    adv, r = n2_adversary_step((1, 0), (0, 1))
    assert adv == (0, 1) and r == (0, 1)
    adv, r = n2_adversary_step((1, 1), (1, 1))
    assert adv == (1, 0) and r == (0, 0)
    with pytest.raises(ConfigError):
        n2_adversary_step((0, 2), (0, 0))


def test_run_k1_every_phase_length_one():
    cfg = ExperimentConfig.from_dict({
        "k": 1, "n": [3], "policy": ["1"], "adversary": "lower_bound",
        "phases": 1000, "seed": 3,
    })
    summary, _ = run(cfg)
    assert summary.ratio == 1
    assert summary.mean_phase_length == 1.0
    assert summary.max_phase_length == 1
    assert summary.phase_length_se == 0.0


def test_run_accounting_invariants():
    summary, trace = run(_cfg(phases=300, emit_trace=True, trace_path=None))
    assert summary.adv_cost == summary.phases == 300  # adversary pays 1 per phase
    assert summary.alg_cost == summary.steps          # the policy moves every step
    assert not summary.exhausted
    steps = list(trace.steps)
    assert len(steps) == summary.steps
    assert sum(s.alg_cost for s in steps) == summary.alg_cost
    assert sum(s.adv_cost for s in steps) == summary.adv_cost
    # phase boundaries are exactly the zero-distance steps
    boundaries = sum(1 for s in steps if s.hamming == 0)
    assert boundaries == summary.phases


def test_run_respects_step_budget():
    summary, _ = run(_cfg(phases=10**6, max_steps=500))
    assert summary.exhausted
    assert summary.steps == 500
    assert summary.phases < 10**6
    # the summary derives its step count from the cut: the walk's own steps are counted here
    assert sum(map(len, simulate._walk(_cfg(phases=10**6, max_steps=500), []))) == 500


def test_run_deterministic_given_seed():
    a, ta = run(_cfg(phases=200, emit_trace=True))
    b, tb = run(_cfg(phases=200, emit_trace=True))
    assert a == b
    assert list(ta.steps) == list(tb.steps)


def test_run_skewed_policy_matches_subset_system():
    # simulated mean phase length estimates h({k}) from the subset system: 6 here
    from gkserver.subsets import MemorylessPolicy as MP, solve_system

    cfg = _cfg(policy=["2/3", "1/3"], phases=50000, seed=61)
    summary, _ = run(cfg)
    target = float(solve_system(MP.from_probs([Fraction(2, 3), Fraction(1, 3)])).h_k)
    assert target == 6.0
    assert abs(summary.mean_phase_length - target) <= 3 * summary.phase_length_se


def test_run_n2_matches_binary_chain_mean():
    from gkserver.chains import binary_eet

    cfg = ExperimentConfig.from_dict({
        "k": 3, "n": [2, 2, 2], "policy": ["1/3", "1/3", "1/3"], "adversary": "n2",
        "phases": 20000, "seed": 11,
    })
    summary, _ = run(cfg)
    expect = float(binary_eet(3, 1))
    assert abs(summary.mean_phase_length - expect) <= 3 * summary.phase_length_se


def test_state_histogram_k1():
    cfg = ExperimentConfig.from_dict({
        "k": 1, "n": [3], "policy": ["1"], "adversary": "lower_bound",
        "phases": 50, "seed": 1, "emit_trace": True,
    })
    _, trace = run(cfg)
    hist = state_histogram(trace)
    assert set(hist) <= {0b0, 0b1}


def test_transitions_follow_the_three_cases():
    cfg = ExperimentConfig.from_dict({
        "k": 3, "n": [3, 3, 3], "policy": ["1/3", "1/3", "1/3"],
        "adversary": "lower_bound", "phases": 2000, "seed": 23, "emit_trace": True,
    })
    _, trace = run(cfg)
    trans = transition_counts(trace)
    for (before, after), _count in trans.items():
        assert before != 0  # the walk only steps from nonempty states
        m = (before & -before).bit_length()
        allowed = {before, before & ~(1 << (m - 1))}
        for j in range(3):
            if not before & (1 << j):
                allowed.add(before | (1 << j))
        assert after in allowed


def test_transition_frequency_matches_policy():
    # from any state, the drop to S \ {min} happens with probability p_min
    cfg = ExperimentConfig.from_dict({
        "k": 3, "n": [3, 3, 3], "policy": ["1/3", "1/3", "1/3"],
        "adversary": "lower_bound", "phases": 4000, "seed": 29, "emit_trace": True,
    })
    _, trace = run(cfg)
    trans = transition_counts(trace)
    from_mask = 1 << 2  # state {3}, visited at every phase start
    total = sum(c for (b, _), c in trans.items() if b == from_mask)
    drops = sum(c for (b, a), c in trans.items() if b == from_mask and a == 0)
    p = 1 / 3
    se = math.sqrt(p * (1 - p) / total)
    assert abs(drops / total - p) <= 4 * se


def _replay_with_reference_functions(cfg):
    """Re-drive a run through the public step functions, drawing from the
    same per-phase streams the run loop uses, up to cfg.max_steps steps."""
    k = cfg.spec.k
    q0 = tuple(0 for _ in range(k))
    q, adv = q0, q0
    sampler = PolicySampler(cfg.policy, (cfg.seed, 0))
    steps = []
    t = 0
    phases = 0
    while phases < cfg.phases and t < cfg.max_steps:
        t += 1
        if cfg.adversary == "lower_bound":
            adv, r = lower_bound_adversary_step(q, adv, q0, cfg.spec)
        else:
            adv, r = n2_adversary_step(q, adv)
        adv_inc = sum(1 for a, b in zip(adv, (q if t == 1 else steps[-1].adv_config)) if a != b) \
            if t > 1 else sum(1 for a, b in zip(adv, q0) if a != b)
        assert not any(qi == ri for qi, ri in zip(q, r))
        new_q, moved = memoryless_step(q, r, cfg.policy, sampler)
        assert moved is not None
        q = new_q
        d = sum(1 for a, b in zip(q, adv) if a != b)
        mask = 0
        for i in range(k):
            if q[i] != adv[i]:
                mask |= 1 << i
        steps.append(TraceStep(t=t, request=r, alg_config=q, adv_config=adv,
                               alg_cost=1, adv_cost=adv_inc, hamming=d, state_mask=mask))
        if d == 0:
            phases += 1
            sampler = PolicySampler(cfg.policy, (cfg.seed, phases))
    return steps


@pytest.mark.parametrize("adversary,n_point", [("lower_bound", 3), ("n2", 2)])
def test_run_matches_reference_step_functions(adversary, n_point):
    cfg = ExperimentConfig.from_dict({
        "k": 3, "n": [n_point] * 3, "policy": ["1/3", "1/3", "1/3"],
        "adversary": adversary, "phases": 120, "seed": 31, "emit_trace": True,
    })
    _, trace = run(cfg)
    replayed = _replay_with_reference_functions(cfg)
    assert list(trace.steps) == replayed


def test_run_matches_reference_step_functions_skewed_policy():
    cfg = ExperimentConfig.from_dict({
        "k": 2, "n": [4, 3], "policy": ["3/5", "2/5"], "adversary": "lower_bound",
        "phases": 150, "seed": 57, "emit_trace": True,
    })
    _, trace = run(cfg)
    assert list(trace.steps) == _replay_with_reference_functions(cfg)


def test_run_matches_reference_step_functions_denominator_above_2_32():
    # 4294967311 is prime, so the common denominator needs numpy's 64-bit draws
    cfg = ExperimentConfig.from_dict({
        "k": 3, "n": [3, 3, 3],
        "policy": ["1/3", "1431655770/4294967311", "4294967312/12884901933"],
        "adversary": "lower_bound", "phases": 60, "seed": 2**33, "emit_trace": True,
    })
    _, trace = run(cfg)
    assert list(trace.steps) == _replay_with_reference_functions(cfg)


def test_run_matches_reference_step_functions_denominator_just_below_2_63():
    # 2^63 - 1 is the largest common denominator that int64 draws allow
    cfg = ExperimentConfig.from_dict({
        "k": 2, "n": [3, 3], "policy": [f"{2**62}/{2**63 - 1}", f"{2**62 - 1}/{2**63 - 1}"],
        "adversary": "lower_bound", "phases": 60, "seed": 2**33, "emit_trace": True,
    })
    assert exact_thresholds(cfg.policy.probs)[0] == 2**63 - 1
    _, trace = run(cfg)
    assert list(trace.steps) == _replay_with_reference_functions(cfg)


# common denominators on both sides of 2^32 and up to 2^63 - 1; at 3 * 2^30 + 1 Lemire's
# method rejects about 25 % of the 32-bit halves, and at 2^62 + 3 about 25 % of the outputs
DENOMINATORS = [1, 2, 3, 2**31 + 1, 3 * 2**30 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**62 + 3,
                2**63 - 1]


def _policy_over(den):
    """A policy whose common denominator is den: ["1"], or two fractions p/den coprime to it."""
    if den == 1:
        return ["1"]
    p = next(p for p in range(den // 2, den) if math.gcd(p, den) == 1)
    return [f"{p}/{den}", f"{den - p}/{den}"]


def _summary_from_reference(cfg):
    """run()'s summary, rebuilt from the phase lengths of the reference re-drive, once the
    steps _walk yields are counted and match the re-drive's."""
    lengths, t = [], 0
    for step in _replay_with_reference_functions(cfg):
        if step.hamming == 0:
            lengths.append(step.t - t)
            t = step.t
    # _summarize derives the step count, so the walked count is checked here
    assert sum(map(len, simulate._walk(cfg, []))) == step.t
    summary = _summarize(cfg, lengths)
    assert summary.steps == step.t
    return summary


# numpy warns on a uint64 scalar product that wraps; the kernel's arrays wrap silently
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("den", DENOMINATORS)
def test_kernel_draws_are_numpy_integers(den):
    seed, phases = 2**33 + 5, 7
    lanes = _phase_lanes(seed, 0, phases)
    rows = [[] for _ in range(phases)]
    # rounds of uneven widths up to the longest, odd ones too
    widths = (8, 16, 3, 64, 8, simulate._ROUND_MAX, 1)
    for width in widths:
        drawn, counts = _draws(den, lanes, width)
        drawn = iter(drawn.tolist())
        for row, count in zip(rows, counts.tolist()):
            row.extend(islice(drawn, count))
    # a share 2^w mod den / 2^w of the w-bit words is rejected, w = 32 up to 2^32 (two
    # words an output) and 64 above
    bits = 32 if den <= 2**32 else 64
    words = sum(widths) * 64 // bits
    for i, row in enumerate(rows):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i))))
        assert gen.integers(0, den, size=len(row)).tolist() == row
        assert abs(len(row) / words - (1 - (2**bits % den) / 2**bits)) < 0.1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("den", DENOMINATORS)
def test_run_matches_a_policy_sampler_redrive(den):
    policy = _policy_over(den)
    cfg = ExperimentConfig.from_dict({
        "k": len(policy), "n": [3] * len(policy), "policy": policy,
        "adversary": "lower_bound", "phases": 300, "seed": 2**32 + 9,
    })
    assert exact_thresholds(cfg.policy.probs)[0] == den
    assert run(cfg)[0] == _summary_from_reference(cfg)


@pytest.mark.filterwarnings("error")
def test_run_matches_a_policy_sampler_redrive_across_three_blocks():
    cfg = _cfg(phases=2100, seed=2**32 + 11)
    assert run(cfg)[0] == _summary_from_reference(cfg)


@pytest.mark.filterwarnings("error")
def test_run_matches_a_policy_sampler_redrive_where_a_lane_walks_its_lead_ahead():
    # here a lane walks _LEAD steps while a phase before it still runs, so it stops walking
    # ahead; once it is the first unfinished lane it must walk on to its phase's end
    cfg = _cfg(k=6, n=[3] * 6, policy=["1/6"] * 6, phases=20, seed=2)
    assert run(cfg)[0] == _summary_from_reference(cfg)


@pytest.mark.filterwarnings("error")
def test_run_ends_by_the_step_budget_when_no_phase_ends():
    # no phase at k = 64 ends within 5000 steps: a lane stops walking once the lanes
    # before it have walked the budget, so the 1024 endless lanes of a block terminate
    cfg = ExperimentConfig.from_dict({
        "k": 64, "n": [3] * 64, "policy": ["1/64"] * 64, "adversary": "lower_bound",
        "phases": 10**6, "seed": 26, "max_steps": 5000,
    })
    summary, _ = run(cfg)
    assert summary == _summarize(cfg, [])
    assert (summary.steps, summary.phases, summary.exhausted) == (5000, 0, True)
    assert sum(map(len, simulate._walk(cfg, []))) == 5000


def test_walk_yields_metric_indices_beyond_one_byte():
    # 300 metrics need two-byte indices; phase 0 does not end within the 3000-step budget
    cfg = ExperimentConfig.from_dict({
        "k": 300, "n": [3] * 300, "policy": ["1/300"] * 300, "adversary": "lower_bound",
        "phases": 5, "seed": 9, "max_steps": 3000,
    })
    sampler = PolicySampler(cfg.policy, (cfg.seed, 0))
    lengths = []
    assert list(chain.from_iterable(simulate._walk(cfg, lengths))) == [
        sampler.draw() for _ in range(3000)]
    assert lengths == []


def test_gram_lengths_follow_the_table_size():
    # m is the largest gram length <= 8 whose table of 2^k k^m entries fits 2^16
    assert simulate._GRAM == {1: 8, 2: 8, 3: 8, 4: 6, 5: 4, 6: 3, 7: 3, 8: 2, 9: 2}
    for k, m in simulate._GRAM.items():
        assert 2**k * k**m <= 2**16 and (m == 8 or 2**k * k ** (m + 1) > 2**16)
    assert 2**10 * 10**2 > 2**16  # from k = 10 on a gram of two draws does not fit


def _rule_reference(k, flip, mask, metrics):
    """(mask, draw at which the phase ends or 0) after the drawn metrics, on a set of metrics."""
    s = {i for i in range(k) if mask >> i & 1}
    for t, j in enumerate(metrics, 1):
        if flip or j == min(s):
            s ^= {j}
        else:
            s.add(j)
        if not s:
            return 0, t
    return sum(1 << i for i in s), 0


@pytest.mark.parametrize("adversary", ["lower_bound", "n2"])
@pytest.mark.parametrize("k", range(1, 10))
def test_gram_table_matches_the_rule(k, adversary):
    flip, m = adversary == "n2", simulate._GRAM[k]
    masks, ends = simulate._gram_table(k, flip)
    assert len(masks) == len(ends) == 2**k
    for mask in range(1, 2**k):
        assert len(masks[mask]) == len(ends[mask]) == k**m
        for code, digits in enumerate(product(range(k), repeat=m)):
            after, end = _rule_reference(k, flip, mask, digits)
            assert masks[mask][code] == after
            if not after:
                assert ends[mask][code] == end


# k = 10 walks by the rule alone: a cut case on that path
TABLE_CASES = [(k, adversary, policy) for k in range(1, 10) for adversary in ("lower_bound", "n2")
               for policy in (("uniform", "random", "den") if k > 1 else ("uniform",))] + [
    (10, adversary, "uniform") for adversary in ("lower_bound", "n2")]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k, adversary, policy", TABLE_CASES)
def test_table_walk_matches_a_policy_sampler_redrive(k, adversary, policy):
    # 4001 steps end inside a gram of every length m > 1; the den policy's common
    # denominator 3 * 2^30 + 1 rejects about 25 % of the draws, so lanes get uneven counts
    if policy == "uniform":
        den, weights = k, [1] * k
    elif policy == "random":
        rng = random.Random(k)
        weights = [rng.randint(1, 9) for _ in range(k)]
        den = sum(weights)
    else:
        den = 3 * 2**30 + 1
        weights = [den // k] * (k - 1) + [den - den // k * (k - 1)]
    cfg = ExperimentConfig.from_dict({
        "k": k, "n": [2 if adversary == "n2" else 3] * k,
        "policy": [f"{w}/{den}" for w in weights], "adversary": adversary,
        "phases": 60, "seed": 2**32 + k, "max_steps": 4001,
    })
    if policy == "den":
        assert exact_thresholds(cfg.policy.probs)[0] == den
    assert run(cfg)[0] == _summary_from_reference(cfg)


@pytest.mark.parametrize("k, table", [(1, True), (9, True), (10, False), (64, False)])
def test_walk_takes_the_table_up_to_k_9(monkeypatch, k, table):
    built, gram_table = [], simulate._gram_table
    monkeypatch.setattr(simulate, "_gram_table",
                        lambda *key: built.append(key) or gram_table(*key))
    run(ExperimentConfig.from_dict({
        "k": k, "n": [3] * k, "policy": [f"1/{k}"] * k, "adversary": "lower_bound",
        "phases": 3, "seed": 1, "max_steps": 500,
    }))
    assert built == ([(k, False)] if table else [])


@pytest.mark.filterwarnings("error")
def test_walk_past_a_budget_cut_stays_near_the_budget(monkeypatch):
    # no phase at k = 64 ends within the budget, so the first phase walks all of it; the
    # lanes ahead of it walk together about 1/16 of it, plus at most one round
    drawn, outputs = [], []

    def counted(den, lanes, width):
        draws, counts = _draws(den, lanes, width)
        drawn.append(len(draws))
        outputs.append(len(lanes) * width)
        return draws, counts

    monkeypatch.setattr(simulate, "_draws", counted)
    max_steps = 2 * 10**5
    cfg = ExperimentConfig.from_dict({
        "k": 64, "n": [3] * 64, "policy": ["1/64"] * 64, "adversary": "lower_bound",
        "phases": 10**6, "seed": 5, "max_steps": max_steps,
    })
    lengths = []
    assert sum(map(len, simulate._walk(cfg, lengths))) == max_steps
    assert lengths == []
    # den = 64: each PCG64 output gives two draws, one from each 32-bit half
    assert max_steps <= sum(drawn) <= 1.25 * max_steps + 2 * simulate._ROUND_OUTPUTS
    assert max(outputs) <= simulate._GRID
    assert run(cfg)[0] == _summarize(cfg, [])
    # every lane of a 1024-lane block walks its first round, and at k = 4 (phases of about
    # 64 steps) most lanes walk the rounds after it too, whose outputs a round exceed the
    # bound of a call
    for k in (2, 4):
        outputs.clear()
        run(_cfg(k=k, n=[3] * k, policy=[f"1/{k}"] * k, phases=1024))
        assert max(outputs) == simulate._GRID


@pytest.mark.parametrize("adversary,n_point", [("lower_bound", 3), ("n2", 2)])
def test_trace_takes_each_adversary_move_from_its_step_function(monkeypatch, adversary, n_point):
    # the replay calls the public step once per distinct (policy, adversary)
    # configuration pair it visits; a run without a trace calls neither
    calls = {"lower_bound_adversary_step": [], "n2_adversary_step": []}
    for name, seen in calls.items():
        def counted(q, adv, *rest, _step=getattr(simulate, name), _seen=seen):
            _seen.append((tuple(q), tuple(adv)))
            return _step(q, adv, *rest)
        monkeypatch.setattr(simulate, name, counted)
    d = {"k": 3, "n": [n_point] * 3, "policy": ["1/2", "1/3", "1/6"], "adversary": adversary,
         "phases": 200, "seed": 43}
    run(ExperimentConfig.from_dict(d))
    assert calls == {"lower_bound_adversary_step": [], "n2_adversary_step": []}
    _, trace = run(ExperimentConfig.from_dict({**d, "emit_trace": True}))
    steps = list(trace.steps)
    before = zip([trace.q0] + [s.alg_config for s in steps[:-1]],
                 [trace.adv0] + [s.adv_config for s in steps[:-1]])
    used = f"{adversary}_adversary_step"
    assert sorted(calls[used]) == sorted(set(before))
    assert all(not seen for name, seen in calls.items() if name != used)


def test_estimate_ratio_is_the_run_summary(monkeypatch):
    cfg = _cfg(policy=["2/3", "1/3"], phases=400, seed=67)
    summary, _ = run(cfg)
    # a config that asks for a trace still builds none
    monkeypatch.setattr(simulate, "_replay", None)
    assert estimate_ratio(dataclasses.replace(cfg, emit_trace=True)) == (
        summary.ratio, summary.phase_length_se)


def test_estimate_ratio_raises_on_exhaustion():
    cfg = _cfg(phases=10**6, max_steps=100)
    summary, _ = run(cfg)
    with pytest.raises(StepBudgetExhausted) as info:
        estimate_ratio(cfg)
    assert str(info.value) == f"step budget 100 exhausted after {summary.phases}/1000000 phases"


@pytest.mark.parametrize("den, accepted", [(2**63 - 1, True), (2**63, False), (2**64 + 13, False)])
def test_config_rejects_denominator_beyond_int64_draws(den, accepted):
    half = den // 2 - 1  # coprime to den for the three cases
    d = {"k": 2, "n": [3, 3], "policy": [f"{half}/{den}", f"{den - half}/{den}"],
         "adversary": "lower_bound", "phases": 3, "seed": 1, "max_steps": 200}
    if not accepted:
        with pytest.raises(ConfigError, match="2\\^63"):
            ExperimentConfig.from_dict(d)
        return
    cfg = ExperimentConfig.from_dict(d)
    assert exact_thresholds(cfg.policy.probs)[0] == den
    assert run(cfg)[0].steps > 0


def _numpy_stream(seed, i):
    """The PCG64 that numpy seeds from SeedSequence((seed, i)), as a _phase_lanes row:
    (state hi, state lo, inc hi, inc lo), 64-bit limbs."""
    state = np.random.PCG64(np.random.SeedSequence((seed, i))).state
    assert state["has_uint32"] == 0 and state["uinteger"] == 0
    state, inc = state["state"]["state"], state["state"]["inc"]
    return [state >> 64, state & 2**64 - 1, inc >> 64, inc & 2**64 - 1]


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32, 2**200])
def test_phase_streams_match_numpy_seeding(seed):
    for i in (0, 1, 1023, 1024, 2**32 - 1, 2**32):
        first = i - i % 1024
        block = _phase_lanes(seed, first, first + 1024)
        assert block[i - first].tolist() == _numpy_stream(seed, i)
        assert _phase_lanes(seed, i, i + 1).tolist() == [_numpy_stream(seed, i)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**300), st.integers(0, 2**70), st.integers(0, 1023), st.integers(1, 1024))
def test_phase_streams_property(seed, block, offset, length):
    first = block * 1024 + offset
    stop = min(first + length, (block + 1) * 1024)
    lanes = _phase_lanes(seed, first, stop)
    assert lanes.shape == (stop - first, 4)
    for i in {first, (first + stop) // 2, stop - 1}:
        assert lanes[i - first].tolist() == _numpy_stream(seed, i)


def test_phase_streams_reject_ranges_across_blocks():
    for start, stop in ((1000, 1100), (5, 5), (-1, 3)):
        with pytest.raises(ValueError):
            _phase_lanes(0, start, stop)


def test_trace_csv_round_trip(tmp_path):
    _, trace = run(_cfg(phases=50, emit_trace=True))
    trace.steps = list(trace.steps)  # a one-pass stream: keep it to compare after writing
    path = tmp_path / "t.csv"
    write_trace_csv(trace, str(path))
    back = read_trace_csv(str(path))
    assert back.k == trace.k and back.n == trace.n and back.seed == trace.seed
    assert back.policy == trace.policy
    assert back.q0 == trace.q0 and back.adv0 == trace.adv0
    assert next(back.steps) == trace.steps[0]  # an iterator, as a generator is
    assert list(back.steps) == trace.steps[1:]


def test_trace_reader_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("")
    with pytest.raises((ValueError, OSError)):
        read_trace_csv(str(path))
    path.write_text("# gkserver-trace v1\n# k=2\nnot,a,header\n")
    with pytest.raises(ValueError):
        read_trace_csv(str(path))
