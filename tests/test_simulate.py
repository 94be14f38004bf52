"""Simulation engine: adversary steps, runs, traces, determinism, histograms."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkserver import simulate
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
from gkserver.simulate import _phase_streams
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
], ids=["lb_point_outside", "lb_narrow", "lb_negative", "n2_shorter_q", "n2_longer_q",
        "lb_q0_outside", "lb_q0_narrow", "n2_empty"])
def test_adversary_steps_reject_bad_configurations(step, args, error, message):
    with pytest.raises(error) as exc:
        step(*args)
    assert str(exc.value) == message


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
    same per-phase streams the run loop uses."""
    k = cfg.spec.k
    q0 = tuple(0 for _ in range(k))
    q, adv = q0, q0
    sampler = PolicySampler(cfg.policy, (cfg.seed, 0))
    steps = []
    t = 0
    phases = 0
    while phases < cfg.phases:
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
    """(state, inc) of the PCG64 that numpy seeds from SeedSequence((seed, i))."""
    state = np.random.PCG64(np.random.SeedSequence((seed, i))).state
    assert state["has_uint32"] == 0 and state["uinteger"] == 0
    return state["state"]["state"], state["state"]["inc"]


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32, 2**200])
def test_phase_streams_match_numpy_seeding(seed):
    for i in (0, 1, 1023, 1024, 2**32 - 1, 2**32):
        first = i - i % 1024
        assert _phase_streams(seed, first, first + 1024)[i - first] == _numpy_stream(seed, i)
        assert _phase_streams(seed, i, i + 1) == [_numpy_stream(seed, i)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**300), st.integers(0, 2**70), st.integers(0, 1023), st.integers(1, 1024))
def test_phase_streams_property(seed, block, offset, length):
    first = block * 1024 + offset
    stop = min(first + length, (block + 1) * 1024)
    streams = _phase_streams(seed, first, stop)
    assert len(streams) == stop - first
    for i in {first, (first + stop) // 2, stop - 1}:
        assert streams[i - first] == _numpy_stream(seed, i)


def test_phase_streams_reject_ranges_across_blocks():
    for start, stop in ((1000, 1100), (5, 5), (-1, 3)):
        with pytest.raises(ValueError):
            _phase_streams(0, start, stop)


def test_trace_csv_round_trip(tmp_path):
    _, trace = run(_cfg(phases=50, emit_trace=True))
    trace.steps = list(trace.steps)  # a one-pass stream: keep it to compare after writing
    path = tmp_path / "t.csv"
    write_trace_csv(trace, str(path))
    back = read_trace_csv(str(path))
    assert back.k == trace.k and back.n == trace.n and back.seed == trace.seed
    assert back.policy == trace.policy
    assert back.q0 == trace.q0 and back.adv0 == trace.adv0
    assert list(back.steps) == trace.steps


def test_trace_reader_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("")
    with pytest.raises((ValueError, OSError)):
        read_trace_csv(str(path))
    path.write_text("# gkserver-trace v1\n# k=2\nnot,a,header\n")
    with pytest.raises(ValueError):
        read_trace_csv(str(path))
