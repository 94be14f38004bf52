"""Potential machinery: table consistency, exact drifts, trace audits."""

import dataclasses
import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkserver import simulate
from gkserver.chains import harmonic_eet
from gkserver.cli import EXIT_OK, EXIT_VALIDATION, EXIT_VERIFY, main
from gkserver.harmonic import alpha, alpha_table
from gkserver.potential import (
    PotentialContext,
    _scaled_drops,
    delta_h,
    expected_drift,
    hamming,
    potential,
    verify_trace,
)
from gkserver.simulate import (
    ADVERSARY_KINDS,
    ConfigError,
    ExperimentConfig,
    read_trace_csv,
    run,
    write_trace_csv,
)
from gkserver.subsets import MemorylessPolicy


def test_hamming():
    assert hamming((0, 0), (0, 0)) == 0
    assert hamming((0, 0, 0, 0), (1, 0, 0, 1)) == 2
    assert hamming((0,), (1,)) == 1
    with pytest.raises(ValueError):
        hamming((0, 0), (0,))


@pytest.mark.parametrize("make, message", [
    (lambda: PotentialContext.for_k(0), "need k >= 1, got 0"),
    (lambda: potential((0, 0), (1, 1), PotentialContext.for_k(3)),
     "configurations have 2 coordinates, context is for k=3"),
    (lambda: expected_drift((0, 0), (1, 1), (1, 1), MemorylessPolicy.uniform(2),
                            PotentialContext.for_k(3)),
     "q, adv, r, and context must all describe the same k metrics"),
    (lambda: verify_trace(_uniform_trace(3, 1, 0), PotentialContext.for_k(2)),
     "context is for k=2, trace has k=3"),
])
def test_input_checks_raise_their_messages(make, message):
    with pytest.raises(ValueError) as raised:
        make()
    assert raised.type is ValueError
    assert str(raised.value) == message


def test_potential_values():
    ctx2 = PotentialContext.for_k(2)
    assert potential((0, 1), (0, 1), ctx2) == 0
    assert potential((0, 0), (0, 1), ctx2) == 4
    ctx3 = PotentialContext.for_k(3)
    assert potential((0, 0, 0), (1, 1, 1), ctx3) == 24


def test_context_table_matches_chain_eet():
    for k in range(1, 21):
        ctx = PotentialContext.for_k(k)
        assert ctx.h == tuple(harmonic_eet(k, ell) for ell in range(k + 1))
        assert ctx.alphas == tuple(alpha_table(k))
        assert ctx.step_bound == k * alpha(k)


def test_delta_h_values():
    ctx3 = PotentialContext.for_k(3)
    assert delta_h(0, 1, ctx3) == 15
    assert delta_h(2, 3, ctx3) == 3
    ctx2 = PotentialContext.for_k(2)
    assert delta_h(0, 2, ctx2) == 6
    with pytest.raises(ValueError):
        delta_h(2, 2, ctx3)
    with pytest.raises(ValueError):
        delta_h(3, 1, ctx3)


def test_delta_h_matches_table_difference():
    for k in range(1, 21):
        ctx = PotentialContext.for_k(k)
        for ell in range(k + 1):
            for ell_p in range(ell + 1, k + 1):
                assert delta_h(ell, ell_p, ctx) == ctx.h[ell_p] - ctx.h[ell]


def test_potential_jump_per_unit_distance_bounded():
    # h(l') - h(l) <= (l' - l) * k * a(k) for all 0 <= l < l' <= k <= 20
    for k in range(1, 21):
        ctx = PotentialContext.for_k(k)
        for ell in range(k + 1):
            for ell_p in range(ell + 1, k + 1):
                assert ctx.h[ell_p] - ctx.h[ell] <= (ell_p - ell) * ctx.step_bound


def _drift_instance(k: int, ell: int, served: int):
    """Configurations with d(q, adv) = ell and `served` metrics where adv = r != q."""
    q = tuple([1] * ell + [0] * (k - ell))
    adv = tuple(0 for _ in range(k))
    r = tuple([0] * served + [2] * (ell - served) + [1] * (k - ell))
    return q, adv, r


def test_expected_drift_uniform_examples():
    # one adversary-served metric: the expected drop is exactly 1 at any distance
    for k in (2, 3, 4):
        ctx = PotentialContext.for_k(k)
        policy = MemorylessPolicy.uniform(k)
        for ell in range(1, k + 1):
            q, adv, r = _drift_instance(k, ell, served=1)
            assert expected_drift(q, adv, r, policy, ctx) == 1
    # k=2, distance 2, both metrics served: a(1) + 1 = 2
    ctx2 = PotentialContext.for_k(2)
    q, adv, r = _drift_instance(2, 2, served=2)
    assert expected_drift(q, adv, r, MemorylessPolicy.uniform(2), ctx2) == 2


def test_expected_drift_closed_form_all_reachable_combos():
    # uniform policy: drift = (C-1) * a(k - l + 1) + 1 for every reachable (l, C)
    for k in range(1, 7):
        ctx = PotentialContext.for_k(k)
        policy = MemorylessPolicy.uniform(k)
        a = alpha_table(k)
        for ell in range(1, k + 1):
            for served in range(1, ell + 1):
                q, adv, r = _drift_instance(k, ell, served)
                drift = expected_drift(q, adv, r, policy, ctx)
                assert drift == (served - 1) * a[k - ell] + 1
                assert drift >= 1


def test_expected_drift_nonuniform_policy_enumerates():
    ctx = PotentialContext.for_k(2)
    policy = MemorylessPolicy.from_probs([Fraction(2, 3), Fraction(1, 3)])
    q, adv, r = _drift_instance(2, 1, served=1)
    # q=(1,0), adv=(0,0), r=(0,1): move 1 drops h(1), move 2 raises to h(2)
    expect = Fraction(2, 3) * (ctx.h[1] - ctx.h[0]) + Fraction(1, 3) * (ctx.h[1] - ctx.h[2])
    assert expected_drift(q, adv, r, policy, ctx) == expect


def test_expected_drift_rejects_bad_inputs():
    ctx = PotentialContext.for_k(2)
    policy = MemorylessPolicy.uniform(2)
    with pytest.raises(ValueError, match="already served"):
        expected_drift((0, 0), (0, 1), (0, 1), policy, ctx)
    with pytest.raises(ValueError, match="does not serve"):
        expected_drift((0, 0), (1, 1), (2, 2), policy, ctx)


def _uniform_trace(k: int, phases: int, seed: int, adversary: str = "lower_bound"):
    n = 2 if adversary == "n2" else 3
    cfg = ExperimentConfig.from_dict({
        "k": k, "n": [n] * k, "policy": [f"1/{k}"] * k, "adversary": adversary,
        "phases": phases, "seed": seed, "emit_trace": True,
    })
    _, trace = run(cfg)
    return trace


def test_verify_trace_k1_zero_residual():
    trace = _uniform_trace(1, 100, seed=4)
    report = verify_trace(trace)
    assert report.ok
    assert report.hard_violations == []
    assert report.residual == 0  # deterministic dynamics
    assert report.min_expected_drift == 1


def test_verify_trace_k2_clean():
    trace = _uniform_trace(2, 2000, seed=9)
    report = verify_trace(trace)
    assert report.ok and not report.hard_violations
    assert report.min_expected_drift >= 1
    assert report.bound_holds


def test_verify_trace_bound_is_exact_identity_on_phase_boundaries():
    # runs that end exactly at a phase boundary turn the audit bound into equality
    trace = _uniform_trace(3, 500, seed=13)
    report = verify_trace(trace)
    bound = PotentialContext.for_k(3).step_bound
    lhs = Fraction(report.alg_cost)
    rhs = bound * report.adv_cost + report.potential_start - report.potential_end - report.residual
    assert lhs == rhs


def test_verify_trace_detects_teleporting_adversary():
    trace = _uniform_trace(2, 50, seed=21)
    trace.steps = list(trace.steps)  # a one-pass stream: keep it to index and re-read
    # corrupt one step: adversary jumps two metrics while claiming zero cost
    # (still serving the request, so the trace stays auditable)
    s = trace.steps[0]
    assert s.request == (1, 1)
    trace.steps[0] = type(s)(
        t=s.t, request=s.request, alg_config=s.alg_config,
        adv_config=(1, 2), alg_cost=s.alg_cost, adv_cost=0,
        hamming=s.hamming, state_mask=s.state_mask,
    )
    report = verify_trace(trace)
    assert report.hard_violations
    assert report.hard_violations[0]["kind"] == "adversary_potential_jump"
    assert not report.ok


def test_verify_trace_requires_uniform_policy():
    cfg = ExperimentConfig.from_dict({
        "k": 2, "n": [3, 3], "policy": ["2/3", "1/3"], "adversary": "lower_bound",
        "phases": 5, "seed": 2, "emit_trace": True,
    })
    _, trace = run(cfg)
    with pytest.raises(ValueError, match="uniform"):
        verify_trace(trace)


def test_verify_trace_rejects_a_spent_stream(tmp_path):
    trace = _uniform_trace(2, 5, seed=3)
    path = str(tmp_path / "t.csv")
    write_trace_csv(trace, path)  # consumes the one-pass steps
    from_file = read_trace_csv(path)
    assert list(from_file.steps) and list(from_file.steps) == []  # as a spent generator's
    for spent in (trace, from_file):
        with pytest.raises(ValueError, match="trace holds no steps"):
            verify_trace(spent)


def test_a_file_trace_is_audited_from_its_own_q0_and_adv0(tmp_path):
    trace = _uniform_trace(3, 5, seed=1)
    trace.steps = list(trace.steps)  # a one-pass stream: keep it to audit after writing
    path = str(tmp_path / "t.csv")
    write_trace_csv(trace, path)
    moved = verify_trace(dataclasses.replace(read_trace_csv(path), q0=(1, 0, 0)))
    assert len(moved.hard_violations) == 3
    assert moved == verify_trace(dataclasses.replace(trace, q0=(1, 0, 0)))
    for start in ("q0", "adv0"):
        with pytest.raises(ConfigError, match=f"^{start} coordinate 2 = 7 outside 0..2$"):
            verify_trace(dataclasses.replace(read_trace_csv(path), **{start: (0, 7, 0)}))


def test_verify_trace_rejects_no_steps():
    trace = dataclasses.replace(_uniform_trace(2, 5, seed=3), steps=[])
    with pytest.raises(ValueError, match="trace holds no steps"):
        verify_trace(trace)


def test_residual_mean_near_zero_across_seeds():
    residuals = []
    for seed in range(30):
        report = verify_trace(_uniform_trace(3, 150, seed=seed))
        assert not report.hard_violations
        residuals.append(float(report.residual))
    n = len(residuals)
    mean = sum(residuals) / n
    var = sum((x - mean) ** 2 for x in residuals) / (n - 1)
    se = math.sqrt(var / n)
    assert abs(mean) <= 3 * se


def _first_move_off_adversary(trace):
    """Index of the first step whose policy move is not where the adversary serves."""
    q_prev = trace.q0
    for index, s in enumerate(trace.steps):
        j = next(i for i in range(trace.k) if s.alg_config[i] != q_prev[i])
        if s.adv_config[j] != s.request[j]:
            return index, j, q_prev
        q_prev = s.alg_config
    raise AssertionError("no such step")


def _unserved_request(trace):
    # the moved coordinate's request becomes the third point: neither the old
    # nor the new configuration serves it, the adversary still does
    index, j, q_prev = _first_move_off_adversary(trace)
    s = trace.steps[index]
    r = list(s.request)
    r[j] = 3 - s.alg_config[j] - q_prev[j]
    return index, {"request": tuple(r)}


def _stray_move(trace):
    # the policy moves its coordinate to the third point instead of the request
    index, j, q_prev = _first_move_off_adversary(trace)
    s = trace.steps[index]
    q = list(s.alg_config)
    q[j] = 3 - s.request[j] - q_prev[j]
    return index, {"alg_config": tuple(q)}


def _request_off_adversary(trace):
    # the revealed coordinate's request becomes the third point: the policy
    # still serves the request where it moved, the adversary nowhere
    q_prev = trace.q0
    for index, s in enumerate(trace.steps):
        j = next(i for i in range(trace.k) if s.alg_config[i] != q_prev[i])
        m = next(i for i in range(trace.k) if s.adv_config[i] == s.request[i])
        if m != j:
            r = list(s.request)
            r[m] = 3 - s.adv_config[m] - q_prev[m]
            return index, {"request": tuple(r)}
        q_prev = s.alg_config
    raise AssertionError("no such step")


# kind -> tamper(trace) giving (step index, field changes)
_TAMPERS = {
    # step 2 requests step 1's configuration, which the policy still holds
    "request_already_served": lambda tr: (1, {"request": tr.steps[0].alg_config}),
    "request_not_served_by_adversary": _request_off_adversary,
    "alg_cost_mismatch": lambda tr: (0, {"alg_cost": 0}),
    "adv_cost_mismatch": lambda tr: (1, {"adv_cost": tr.steps[1].adv_cost + 1}),
    "time_not_consecutive": lambda tr: (1, {"t": tr.steps[1].t + 1}),
    "hamming_mismatch": lambda tr: (1, {"hamming": tr.steps[1].hamming + 1}),
    "state_mask_mismatch": lambda tr: (1, {"state_mask": tr.steps[1].state_mask ^ 0b10}),
    "request_not_served": _unserved_request,
    "move_not_to_request": _stray_move,
}


@pytest.mark.parametrize("kind", sorted(_TAMPERS))
def test_verify_trace_flags_tampered_premise(kind):
    trace = _uniform_trace(3, 50, seed=21)
    trace.steps = list(trace.steps)  # a one-pass stream: keep it to index and re-read
    assert verify_trace(trace).ok
    index, changes = _TAMPERS[kind](trace)
    trace.steps[index] = dataclasses.replace(trace.steps[index], **changes)
    report = verify_trace(trace)
    assert not report.ok
    assert any(v["kind"] == kind and v["t"] == trace.steps[index].t
               for v in report.hard_violations)


@pytest.mark.parametrize("kind", ["request_already_served", "request_not_served_by_adversary"])
def test_verify_cli_reports_broken_drift_premise(kind, tmp_path, capsys):
    trace = _uniform_trace(3, 50, seed=21)
    trace.steps = list(trace.steps)  # a one-pass stream: keep it to index and re-read
    index, changes = _TAMPERS[kind](trace)
    trace.steps[index] = dataclasses.replace(trace.steps[index], **changes)
    path = tmp_path / "t.csv"
    write_trace_csv(trace, str(path))
    assert main(["verify", str(path)]) == EXIT_VERIFY
    report = json.loads(capsys.readouterr().out)
    assert {"t": trace.steps[index].t, "kind": kind} in report["hard_violations"]


_COLUMN_KINDS = {
    "t": "time_not_consecutive",
    "alg_cost": "alg_cost_mismatch",
    "adv_cost": "adv_cost_mismatch",
    "hamming": "hamming_mismatch",
    "state_mask": "state_mask_mismatch",
}


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.sampled_from(sorted(_COLUMN_KINDS)), st.integers(1, 3))
def test_edited_trace_column_fails_audit_after_csv_round_trip(tmp_path_factory, pick, column,
                                                              delta):
    trace = _uniform_trace(2, 30, seed=pick % 7)
    trace.steps = list(trace.steps)  # a one-pass stream: keep it to index and re-read
    path = tmp_path_factory.mktemp("trace") / "t.csv"
    index = pick % len(trace.steps)
    s = trace.steps[index]
    trace.steps[index] = dataclasses.replace(s, **{column: getattr(s, column) + delta})
    write_trace_csv(trace, str(path))
    report = verify_trace(read_trace_csv(str(path)))
    assert not report.ok
    assert _COLUMN_KINDS[column] in {v["kind"] for v in report.hard_violations}


def _report_sha256(report) -> str:
    return hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()


# sha256 of verify_trace(...).to_dict() as sorted JSON, recorded from the audit
# that summed expected_drift's Fractions step by step; the integer accounting
# must reproduce every report exactly. name -> ((k, adversary, phases, seed), digest)
_GOLDEN_REPORTS = {
    "lb_k1": ((1, "lower_bound", 100, 4),
              "3362d3e9bc784aca4e0b642988900be36bbc1c48c9f1d752867d940bead2d089"),
    "lb_k2": ((2, "lower_bound", 300, 9),
              "7448a2ab6d4af70a9f41983fd99a4afaec3385de494f398eebca3ba8b607d547"),
    "lb_k3": ((3, "lower_bound", 100, 13),
              "a7cc6c9cbb865b33d17ed21c533b17c2f1fb5e3222633dc46f22fe08cf012ce4"),
    "lb_k4": ((4, "lower_bound", 15, 5),
              "e367777e2728717dacfb0351111cd8151e98400077ebeaec5d2b27d3a392085d"),
    "lb_k5": ((5, "lower_bound", 4, 7),
              "39fa594e32f818f1788b0c4c33cf0dd999e1eb70f9a05ff2c34be76a98736739"),
    "lb_k6": ((6, "lower_bound", 2, 3),
              "0734c5cbf28eadd188dd2c0524b3033ebb58fd16b835471cecff63d2a7ddf330"),
    # n2 requests are anti-configurations: expected drops above 1 occur
    "n2_k2": ((2, "n2", 100, 1),
              "dcb33971c15f3d0f6116cc3da20bb5242381f5ce6f2c0d05a39e784eb68c2286"),
    "n2_k3": ((3, "n2", 40, 2),
              "60f0cf57b0fb0ed2b9fb30d50fd198b8169cbda36041dbc286ed3429ffe20432"),
    "n2_k4": ((4, "n2", 10, 3),
              "25f192041306564f1154ea0cc4a48510ec9cf1020294260e8ea7a2266ac9408a"),
    "n2_k5": ((5, "n2", 3, 4),
              "db3ed9514a0c6538356cec3a2c827b8e095effee845688c3fe381a2bb5b19261"),
    "n2_k6": ((6, "n2", 1, 6),
              "f182b7bb00935372805710d74fcb1804f66a033f2ffb85fcfaa313baf9af22b3"),
}

# the same digests for each _TAMPERS case applied to _uniform_trace(3, 50, seed=21)
_GOLDEN_TAMPERED_REPORTS = {
    "adv_cost_mismatch": "05f99254b98d655210883c731b5401515e9bd9fbeb6b8a3f767e6d89cbab32c1",
    "alg_cost_mismatch": "3920d06428a997cd35ddc8f22f1e40c2bde9417b72bfba71266529a44cda4001",
    "hamming_mismatch": "c56052bbf471a5151a9a4f847d76e5e4e98aeab24e541b2115aa317d0f6f7677",
    "move_not_to_request": "2c1f96a8f1156050a4c51d3554d4a0f601b2447f67b030bb3984937c75f993a9",
    "request_already_served":
        "74e50d3a168d90f340671f5db01a1d9dffdca6202c2e4549cea780673e9b52a1",
    "request_not_served": "a3a50af157070f210a0e275bf7cb76fa139e07566586f6375b76d37b85a9ab85",
    "request_not_served_by_adversary":
        "939e02fca0b50f9f5871c58431cac20e8d5b19b3a3899faf28e5c15f05aedce5",
    "state_mask_mismatch": "8e62455ddae37fea86ffeab7ae83ccee0625c4fa19f690c357fdedf799ad2c02",
    "time_not_consecutive": "5b7e7a3f60701d6540f927966d1738e6348c0a8e7c9fe26b39a28c9574f47cc4",
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_REPORTS))
def test_verify_trace_report_golden(name):
    (k, adversary, phases, seed), digest = _GOLDEN_REPORTS[name]
    report = verify_trace(_uniform_trace(k, phases, seed, adversary))
    assert report.ok
    assert _report_sha256(report) == digest


@pytest.mark.parametrize("kind", sorted(_TAMPERS))
def test_verify_trace_tampered_report_golden(kind):
    trace = _uniform_trace(3, 50, seed=21)
    trace.steps = list(trace.steps)  # a one-pass stream: keep it to index and re-read
    index, changes = _TAMPERS[kind](trace)
    trace.steps[index] = dataclasses.replace(trace.steps[index], **changes)
    assert _report_sha256(verify_trace(trace)) == _GOLDEN_TAMPERED_REPORTS[kind]


_POINTS = st.lists(st.integers(0, 2), min_size=6, max_size=6)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.sampled_from(ADVERSARY_KINDS), st.integers(0, 10**6),
       st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(["request", "adv_config"]),
                          _POINTS), max_size=8))
def test_scaled_expected_drop_equals_expected_drift(k, adversary, seed, edits):
    # random traces, some steps with a random request or adversary configuration
    trace = _uniform_trace(k, 2, seed, adversary)
    trace.steps = list(trace.steps)  # a one-pass stream: keep it to index and re-read
    n = 2 if adversary == "n2" else 3
    for pick, column, points in edits:
        index = pick % len(trace.steps)
        trace.steps[index] = dataclasses.replace(
            trace.steps[index], **{column: tuple(x % n for x in points[:k])})
    ctx = PotentialContext.for_k(k)
    drops = _scaled_drops(ctx)
    q_prev = trace.q0
    for s in trace.steps:
        served = sum(a == r for a, r in zip(s.adv_config, s.request))
        if served and all(q != r for q, r in zip(q_prev, s.request)):
            scaled = drops[hamming(q_prev, s.adv_config)][served]
            assert scaled == k * expected_drift(q_prev, s.adv_config, s.request, trace.policy, ctx)
        q_prev = s.alg_config


def _repeated_pair(trace, keep=lambda s: True):
    """Indices i < j of two kept steps with the same previous configurations and the same
    columns after t, and those previous policy and adversary configurations."""
    first = {}
    prev = (trace.q0, trace.adv0)
    for index, s in enumerate(trace.steps):
        key = prev + dataclasses.astuple(s)[1:]
        if keep(s):
            if key in first:
                return first[key], index, prev
            first[key] = index
        prev = (s.alg_config, s.adv_config)
    raise AssertionError("no repeated pair")


def test_repeated_step_pairs_report_their_own_t():
    trace = _uniform_trace(3, 50, seed=21)
    trace.steps = list(trace.steps)  # a one-pass stream: keep it to index and re-read
    i, j, _ = _repeated_pair(trace)
    for index in (i, j):
        trace.steps[index] = dataclasses.replace(trace.steps[index], alg_cost=0)
    assert verify_trace(trace).hard_violations == [
        {"t": trace.steps[index].t, "kind": "alg_cost_mismatch", "declared": 0, "actual": 1}
        for index in (i, j)]


def test_time_gap_on_a_repeated_pair_keeps_its_place_among_the_records():
    # two steps of one pair where the adversary moves, each declaring it free: the
    # potential jump is over the bound; the second step also skips a t
    trace = _uniform_trace(3, 50, seed=21)
    trace.steps = list(trace.steps)  # a one-pass stream: keep it to index and re-read
    i, j, (q_prev, adv_prev) = _repeated_pair(trace, keep=lambda s: s.adv_cost == 1)
    h = PotentialContext.for_k(3).h
    jump = h[hamming(q_prev, trace.steps[i].adv_config)] - h[hamming(q_prev, adv_prev)]
    t_i, t_j = trace.steps[i].t, trace.steps[j].t
    trace.steps[i] = dataclasses.replace(trace.steps[i], adv_cost=0)
    trace.steps[j] = dataclasses.replace(trace.steps[j], adv_cost=0, t=t_j + 2)
    assert verify_trace(trace).hard_violations == [
        {"t": t_i, "kind": "adversary_potential_jump", "jump": jump, "allowed": 0},
        {"t": t_i, "kind": "adv_cost_mismatch", "declared": 0, "actual": 1},
        {"t": t_j + 2, "kind": "adversary_potential_jump", "jump": jump, "allowed": 0},
        {"t": t_j + 2, "kind": "time_not_consecutive", "declared": t_j + 2, "actual": t_j},
        {"t": t_j + 2, "kind": "adv_cost_mismatch", "declared": 0, "actual": 1},
        {"t": t_j + 1, "kind": "time_not_consecutive", "declared": t_j + 1, "actual": t_j + 3},
    ]


def test_blank_lines_between_steps_leave_the_report_unchanged(tmp_path):
    trace = _uniform_trace(3, 20, seed=5)
    clean = tmp_path / "clean.csv"
    write_trace_csv(trace, str(clean))
    lines = clean.read_text().splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line.startswith("t,")) + 1
    spaced = tmp_path / "spaced.csv"  # a blank line before each step and after the last
    spaced.write_text("".join(lines[:first]) + "".join("\n" + line for line in lines[first:])
                      + "\n")
    assert (verify_trace(read_trace_csv(str(spaced))).to_dict()
            == verify_trace(read_trace_csv(str(clean))).to_dict())


def _cli_and_library_reports(trace, path, capsys):
    """gkserver verify's exit code and JSON report on trace written to path, and the
    report dict of the library's in-memory audit of trace, before it was written."""
    trace.steps = list(trace.steps)  # a one-pass stream: keep it to write and audit
    write_trace_csv(trace, str(path))
    code = main(["verify", str(path)])
    return code, json.loads(capsys.readouterr().out), verify_trace(trace).to_dict()


# `gkserver verify` audits a file's lines as text (simulate._audited_lines), the library an
# in-memory trace's values (simulate._audited_steps): the two loops must report alike
@pytest.mark.parametrize("kind", sorted(_TAMPERS))
def test_cli_and_library_reports_agree_on_tampered_traces(kind, tmp_path, capsys):
    trace = _uniform_trace(3, 50, seed=21)
    trace.steps = list(trace.steps)  # a one-pass stream: keep it to index and re-read
    index, changes = _TAMPERS[kind](trace)
    trace.steps[index] = dataclasses.replace(trace.steps[index], **changes)
    code, cli_report, library_report = _cli_and_library_reports(trace, tmp_path / "t.csv", capsys)
    assert code == EXIT_VERIFY
    assert cli_report == library_report


@pytest.mark.parametrize("column", sorted(_COLUMN_KINDS))
def test_cli_and_library_reports_agree_on_edited_columns(column, tmp_path, capsys):
    trace = _uniform_trace(2, 30, seed=3)
    trace.steps = list(trace.steps)  # a one-pass stream: keep it to index and re-read
    for index in (0, len(trace.steps) // 2, len(trace.steps) - 1):
        s = trace.steps[index]
        trace.steps[index] = dataclasses.replace(s, **{column: getattr(s, column) + 2})
    code, cli_report, library_report = _cli_and_library_reports(trace, tmp_path / "t.csv", capsys)
    assert code == EXIT_VERIFY
    assert _COLUMN_KINDS[column] in {v["kind"] for v in cli_report["hard_violations"]}
    assert cli_report == library_report


@pytest.mark.parametrize("name", sorted(_GOLDEN_REPORTS))
def test_cli_and_library_reports_agree_on_golden_traces(name, tmp_path, capsys):
    (k, adversary, phases, seed), digest = _GOLDEN_REPORTS[name]
    code, cli_report, library_report = _cli_and_library_reports(
        _uniform_trace(k, phases, seed, adversary), tmp_path / "t.csv", capsys)
    assert code == EXIT_OK
    assert hashlib.sha256(json.dumps(cli_report, sort_keys=True).encode()).hexdigest() == digest
    assert cli_report == library_report


def test_cli_and_library_reports_agree_where_no_row_repeats(tmp_path, capsys):
    # at k = 64 no (previous row, row) pair repeats, so every step misses the audit's caches
    cfg = ExperimentConfig.from_dict({
        "k": 64, "n": [3] * 64, "policy": ["1/64"] * 64, "adversary": "lower_bound",
        "phases": 10**6, "seed": 5, "max_steps": 2000, "emit_trace": True})
    path = tmp_path / "t.csv"
    code, cli_report, library_report = _cli_and_library_reports(run(cfg)[1], path, capsys)
    rows = [line.partition(",")[2] for line in path.read_text().splitlines()[9:]]
    assert len(set(zip([None] + rows, rows))) == len(rows) == 2000
    assert code == EXIT_OK
    assert cli_report == library_report


def test_the_library_checks_each_rows_points_once_as_the_cli_does(tmp_path, monkeypatch):
    cfg = ExperimentConfig.from_dict({
        "k": 64, "n": [3] * 64, "policy": ["1/64"] * 64, "adversary": "lower_bound",
        "phases": 10**6, "seed": 5, "max_steps": 2000, "emit_trace": True})
    path = str(tmp_path / "t.csv")
    write_trace_csv(run(cfg)[1], path)
    checks = []
    check = simulate._validate_config_point
    monkeypatch.setattr(simulate, "_validate_config_point",
                        lambda *args: checks.append(args) or check(*args))
    assert main(["--out", str(tmp_path / "report.json"), "verify", path]) == EXIT_OK
    cli_checks = len(checks)
    assert verify_trace(read_trace_csv(path)).ok
    # the header's q0 and adv0 when read and when audited, and at most each row's three points
    assert len(checks) - cli_checks == cli_checks <= 2 + 2 + 3 * 2000


def _each_step(edit):
    return lambda trace: dataclasses.replace(trace, steps=[edit(s) for s in trace.steps])


def _seven(cfg):
    return tuple(7 if x == 2 else x for x in cfg)


_CONFIG_COLUMNS = ("request", "alg_config", "adv_config")
# name -> (edit of a k = 3, 20-phase trace of seed 1, the ConfigError message it must raise)
_BAD_POINTS = {
    "point_outside_metric": (_each_step(lambda s: dataclasses.replace(
        s, **{c: _seven(getattr(s, c)) for c in _CONFIG_COLUMNS})),
        "step t=2: request coordinate 3 = 7 outside 0..2"),
    "narrow_alg_config": (_each_step(lambda s: dataclasses.replace(
        s, alg_config=s.alg_config[:2])), "step t=1: alg_config has 2 coordinates, expected 3"),
    "wide_configurations": (_each_step(lambda s: dataclasses.replace(
        s, **{c: getattr(s, c) + (0,) for c in _CONFIG_COLUMNS})),
        "step t=1: request has 4 coordinates, expected 3"),
    "q0_outside_metric": (lambda trace: dataclasses.replace(trace, q0=(0, 7, 0)),
                          "q0 coordinate 2 = 7 outside 0..2"),
}


# an audit must not read a point outside its metric, nor a configuration of another width:
# the in-memory trace, its file's steps, their audit and `gkserver verify` raise one message
@pytest.mark.parametrize("name", sorted(_BAD_POINTS))
def test_bad_points_raise_one_message_in_memory_from_a_file_and_in_the_cli(name, tmp_path,
                                                                          capsys):
    edit, message = _BAD_POINTS[name]
    trace = edit(_uniform_trace(3, 20, seed=1))
    trace.steps = list(trace.steps)
    path = str(tmp_path / "t.csv")
    write_trace_csv(trace, path)
    raised = []
    for check in (lambda: verify_trace(trace), lambda: list(read_trace_csv(path).steps),
                  lambda: verify_trace(read_trace_csv(path))):
        with pytest.raises(ConfigError) as exc:
            check()
        raised.append(str(exc.value))
    assert raised == [message] * 3
    assert main(["verify", path]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: malformed trace: {message}\n"
