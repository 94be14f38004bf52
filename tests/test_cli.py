"""CLI: subcommands, exit codes, output round trips."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from gkserver import simulate, subsets
from gkserver.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VALIDATION,
    EXIT_VERIFY,
    main,
)
from gkserver.harmonic import rational_to_str
from gkserver.potential import verify_trace


def run_cli(*argv):
    return main(list(argv))


def test_alpha_table(capsys):
    assert run_cli("--format", "csv", "alpha", "--max", "4") == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "ell,alpha,factorial,bounds_ok"
    assert out[1:] == ["1,1,1,True", "2,2,1,True", "3,5,2,True", "4,16,6,True"]


def test_alpha_single_row(capsys):
    assert run_cli("--format", "csv", "alpha", "--max", "1") == EXIT_OK
    assert capsys.readouterr().out.strip().splitlines()[1] == "1,1,1,True"


def test_alpha_rejects_bad_range(capsys):
    assert run_cli("alpha", "--max", "0") == EXIT_VALIDATION
    assert run_cli("alpha", "--max", "65") == EXIT_VALIDATION


def test_chain_harmonic_k2(capsys):
    assert run_cli("--format", "csv", "chain", "harmonic", "--k", "2") == EXIT_OK
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    h = [r.split(",")[2] for r in rows]
    assert h == ["0", "4", "6"]
    assert all(r.endswith("True") for r in rows)


def test_chain_binary_k2(capsys):
    assert run_cli("--format", "csv", "chain", "binary", "--k", "2") == EXIT_OK
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [r.split(",")[2] for r in rows] == ["0", "3", "4"]


def test_chain_harmonic_k3_h1(capsys):
    assert run_cli("--format", "csv", "chain", "harmonic", "--k", "3") == EXIT_OK
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert rows[1].split(",")[2] == "15"


def test_chain_rejects_bad_k():
    assert run_cli("chain", "harmonic", "--k", "0") == EXIT_VALIDATION
    assert run_cli("chain", "harmonic", "--k", "21") == EXIT_VALIDATION


# --format json and --format table, pinned byte for byte; the CSV tests above
# cover the third renderer
_ALPHA = ("alpha", "--max", "3")
_CHAIN = ("chain", "harmonic", "--k", "2")
_SWEEP = ("sweep", "--k", "2", "--grid", "2/3,1/3")


@pytest.mark.parametrize("argv, fmt, expected", [
    (_ALPHA, "json", (
        '[\n'
        '  {\n'
        '    "alpha": 1,\n'
        '    "bounds_ok": true,\n'
        '    "ell": 1,\n'
        '    "factorial": 1\n'
        '  },\n'
        '  {\n'
        '    "alpha": 2,\n'
        '    "bounds_ok": true,\n'
        '    "ell": 2,\n'
        '    "factorial": 1\n'
        '  },\n'
        '  {\n'
        '    "alpha": 5,\n'
        '    "bounds_ok": true,\n'
        '    "ell": 3,\n'
        '    "factorial": 2\n'
        '  }\n'
        ']\n'
    )),
    (_ALPHA, "table", (
        'ell  alpha  factorial  bounds_ok\n'
        '1    1      1          True     \n'
        '2    2      1          True     \n'
        '3    5      2          True     \n'
    )),
    (_CHAIN, "json", (
        '[\n'
        '  {\n'
        '    "chain_kind": "harmonic",\n'
        '    "ell": 0,\n'
        '    "h_den": 1,\n'
        '    "h_num": 0,\n'
        '    "k": 2,\n'
        '    "oracle_match": true\n'
        '  },\n'
        '  {\n'
        '    "chain_kind": "harmonic",\n'
        '    "ell": 1,\n'
        '    "h_den": 1,\n'
        '    "h_num": 4,\n'
        '    "k": 2,\n'
        '    "oracle_match": true\n'
        '  },\n'
        '  {\n'
        '    "chain_kind": "harmonic",\n'
        '    "ell": 2,\n'
        '    "h_den": 1,\n'
        '    "h_num": 6,\n'
        '    "k": 2,\n'
        '    "oracle_match": true\n'
        '  }\n'
        ']\n'
    )),
    (_CHAIN, "table", (
        'k  ell  h_num  h_den  chain_kind  oracle_match\n'
        '2  0    0      1      harmonic    True        \n'
        '2  1    4      1      harmonic    True        \n'
        '2  2    6      1      harmonic    True        \n'
    )),
    (_SWEEP, "json", (
        '[\n'
        '  {\n'
        '    "bound": "6/1",\n'
        '    "gap": "2/1",\n'
        '    "h_k": "6/1",\n'
        '    "policy": "2/3,1/3",\n'
        '    "sim_ratio": "",\n'
        '    "status": "ok"\n'
        '  }\n'
        ']\n'
    )),
    (_SWEEP, "table", (
        'policy   h_k  bound  gap  sim_ratio  status\n'
        '2/3,1/3  6/1  6/1    2/1             ok    \n'
    )),
])
def test_format_json_and_table_stdout(capsys, argv, fmt, expected):
    assert run_cli("--format", fmt, *argv) == EXIT_OK
    assert capsys.readouterr().out == expected


def test_system_uniform(capsys):
    assert run_cli("system", "--p", "1/2,1/2") == EXIT_OK
    d = json.loads(capsys.readouterr().out)
    assert d["h_k"] == "4/1" and d["lower_bound"] == "4/1" and d["gap"] == "0/1"
    assert d["monotonicity_violations"] == 0 and d["alpha_bound_violations"] == 0


def test_system_skewed(capsys):
    assert run_cli("system", "--p", "2/3,1/3") == EXIT_OK
    d = json.loads(capsys.readouterr().out)
    assert d["h_k"] == "6/1" and d["lower_bound"] == "6/1" and d["gap"] == "2/1"


def test_system_rejects_zero_probability():
    assert run_cli("system", "--p", "1/2,1/2,0") == EXIT_VALIDATION


def test_system_csv_dump(tmp_path, capsys):
    out = tmp_path / "h.csv"
    assert run_cli("system", "--p", "1/2,1/2", "--csv", str(out)) == EXIT_OK
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "subset_mask,subset_size,h_num,h_den"
    assert len(lines) == 5  # header + 4 subsets of {1,2}


def test_system_iterative_mode(capsys):
    assert run_cli("system", "--p", "1/3,1/3,1/3", "--mode", "iterative") == EXIT_OK
    d = json.loads(capsys.readouterr().out)
    assert d["mode"] == "iterative"
    assert d["iterations"] >= 1
    assert abs(d["h_k_float"] - 15.0) < 1e-9


def test_system_iterative_tolerance_above_one_still_bounds_the_error(capsys):
    """The stop rule bounds the error only at tolerances up to 1; a larger one is met as 1."""
    assert run_cli("system", "--p", ",".join(["1/8"] * 8), "--mode", "iterative",
                   "--tolerance", "2") == EXIT_OK
    d = json.loads(capsys.readouterr().out)
    assert d["iterations"] >= 1
    assert abs(Fraction(d["h_k"]) - 109600) < 1 and abs(Fraction(d["gap"])) < 1


@pytest.mark.parametrize("mode", ["exact", "iterative"])
@pytest.mark.parametrize("tolerance", ["abc", "nan", "inf", "1/0", "0", "-0.5"])
def test_system_rejects_bad_tolerance(tolerance, mode, capsys):
    assert run_cli("system", "--p", "1/2,1/2", "--mode", mode,
                   "--tolerance", tolerance) == EXIT_VALIDATION
    assert "tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [("--p", "1e-5000,1/2"), ("--tolerance", "1e-5000")])
def test_system_rejects_a_huge_exponent(option, value, capsys):
    """Fraction would build 10^5000 first; the parser refuses the literal with one error line."""
    argv = ["system", "--p", "1/2,1/2", "--mode", "iterative", option, value]  # the last --p wins
    assert run_cli(*argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "the exponent of '1e-5000' exceeds 4300" in err


def test_simulate_rejects_a_huge_exponent_in_the_config_policy(tmp_path, capsys):
    path = _write_config(tmp_path, policy=["1e-5000", "1/2"])
    assert run_cli("simulate", str(path)) == EXIT_VALIDATION
    assert "the exponent of '1e-5000' exceeds 4300" in capsys.readouterr().err


def _write_config(tmp_path, **overrides):
    cfg = {
        "k": 2, "n": [3, 3], "policy": ["1/2", "1/2"], "adversary": "lower_bound",
        "phases": 200, "seed": 42,
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_simulate_summary(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert run_cli("simulate", str(path)) == EXIT_OK
    d = json.loads(capsys.readouterr().out)
    assert d["phases"] == 200 and d["adv_cost"] == 200
    assert d["alg_cost"] == d["steps"]
    assert not d["exhausted"]


def test_simulate_writes_summary_path_unless_out_is_given(tmp_path, capsys):
    summary = tmp_path / "summary.json"
    path = _write_config(tmp_path, summary_path=str(summary))
    assert run_cli("simulate", str(path)) == EXIT_OK
    assert capsys.readouterr().out == ""
    d = json.loads(summary.read_text())
    assert d["phases"] == 200 and d["adv_cost"] == 200
    summary.unlink()
    out = tmp_path / "out.json"
    assert run_cli("--out", str(out), "simulate", str(path)) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text()) == d and not summary.exists()


def test_simulate_rejects_two_point_lower_bound(tmp_path):
    path = _write_config(tmp_path, n=[2, 2])
    assert run_cli("simulate", str(path)) == EXIT_VALIDATION


def test_simulate_step_budget_exit(tmp_path, capsys):
    path = _write_config(tmp_path, phases=10**6, max_steps=100)
    assert run_cli("simulate", str(path)) == EXIT_BUDGET
    d = json.loads(capsys.readouterr().out)
    assert d["exhausted"]


def test_simulate_missing_trace_path(tmp_path):
    path = _write_config(tmp_path, emit_trace=True)
    assert run_cli("simulate", str(path)) == EXIT_VALIDATION


def test_simulate_verify_round_trip(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    path = _write_config(tmp_path, emit_trace=True, trace_path=str(trace))
    assert run_cli("simulate", str(path)) == EXIT_OK
    capsys.readouterr()
    assert run_cli("verify", str(trace)) == EXIT_OK
    d = json.loads(capsys.readouterr().out)
    assert d["ok"] and not d["hard_violations"]


@pytest.mark.parametrize("overrides, code", [
    ({}, EXIT_OK),
    ({"k": 3, "n": [3] * 3, "policy": ["1/3"] * 3, "phases": 10**6, "max_steps": 1000},
     EXIT_BUDGET),
])
def test_traced_simulate_walks_its_seeds_once(overrides, code, tmp_path, capsys, monkeypatch):
    # the walk that feeds the trace also records the phase lengths of the summary,
    # which matches run()'s byte for byte, also for a walk the step budget cut mid-phase
    trace = tmp_path / "t.csv"
    path = _write_config(tmp_path, emit_trace=True, trace_path=str(trace), **overrides)
    walks = []
    walk = simulate._walk

    def counted(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(simulate, "_walk", counted)
    assert run_cli("simulate", str(path)) == code
    assert len(walks) == 1
    summary, _ = simulate.run(simulate.ExperimentConfig.from_json_file(str(path)))
    assert capsys.readouterr().out == json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n"
    assert trace.read_text().splitlines()[-1].startswith(f"{summary.steps},")
    if code == EXIT_BUDGET:
        assert summary.steps == 1000 > summary.alg_cost  # the last phase is cut, not finished


def test_traced_simulate_ends_by_the_step_budget_when_no_phase_ends(tmp_path, capsys):
    # no phase at k = 64 ends within 5000 steps, so every lane of the first block is
    # endless: the walk stops at the budget and writes the first phase's 5000 steps
    trace = tmp_path / "t.csv"
    path = _write_config(tmp_path, k=64, n=[3] * 64, policy=["1/64"] * 64, phases=10**6,
                         seed=26, max_steps=5000, emit_trace=True, trace_path=str(trace))
    assert run_cli("simulate", str(path)) == EXIT_BUDGET
    summary = json.loads(capsys.readouterr().out)
    assert (summary["steps"], summary["phases"], summary["alg_cost"]) == (5000, 0, 0)
    assert summary["exhausted"]
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == (
        "1c6fa7fcda288be29982b13f34e47fb2df1f525897bf497a496d5e81fea8fa5d")


def test_verify_flags_corrupted_trace(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    path = _write_config(tmp_path, emit_trace=True, trace_path=str(trace), phases=20)
    assert run_cli("simulate", str(path)) == EXIT_OK
    capsys.readouterr()
    # teleport the adversary two metrics with zero declared cost; the first
    # request is always (1,1) here, so an adversary at (1,2) still serves it
    lines = trace.read_text().splitlines()
    first = lines[9].split(",")
    assert first[0] == "1" and first[1] == "1;1"
    first[3] = "1;2"
    first[5] = "0"
    lines[9] = ",".join(first)
    trace.write_text("\n".join(lines) + "\n")
    assert run_cli("verify", str(trace)) == EXIT_VERIFY
    d = json.loads(capsys.readouterr().out)
    assert d["hard_violations"]


def test_verify_flags_understated_policy_cost(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    path = _write_config(tmp_path, emit_trace=True, trace_path=str(trace), phases=20)
    assert run_cli("simulate", str(path)) == EXIT_OK
    capsys.readouterr()
    lines = trace.read_text().splitlines()
    first = lines[9].split(",")
    assert first[0] == "1" and first[4] == "1"
    first[4] = "0"
    lines[9] = ",".join(first)
    trace.write_text("\n".join(lines) + "\n")
    assert run_cli("verify", str(trace)) == EXIT_VERIFY
    d = json.loads(capsys.readouterr().out)
    assert {"t": 1, "kind": "alg_cost_mismatch", "declared": 0, "actual": 1} in d["hard_violations"]


# run in a fresh interpreter, so the peak RSS it prints is that one command's
_PEAK_RSS = ("import resource, sys; from gkserver.cli import main; code = main(sys.argv[1:]); "
             "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss); sys.exit(code)")


def _peak_rss_kib(*argv, code=EXIT_OK):
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv], capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    return int(proc.stdout)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss counts KiB on Linux")
def test_traced_simulate_and_verify_hold_flat_memory(tmp_path):
    # ten times the phases (about 30 k against 300 k steps) may not cost 8 MB more
    peaks = []
    for phases in (2000, 20000):
        trace = tmp_path / f"t{phases}.csv"
        path = _write_config(tmp_path, k=3, n=[3] * 3, policy=["1/3"] * 3, phases=phases,
                             emit_trace=True, trace_path=str(trace))
        peaks.append((_peak_rss_kib("--out", str(tmp_path / "s.json"), "simulate", str(path)),
                      _peak_rss_kib("--out", str(tmp_path / "r.json"), "verify", str(trace))))
    growth = [large - small for small, large in zip(*peaks)]
    assert max(growth) < 8 * 1024, f"peak RSS grew by {growth} KiB (simulate, verify)"


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss counts KiB on Linux")
def test_traced_simulate_and_verify_hold_flat_memory_at_large_k(tmp_path):
    # at k = 64 nearly every step is a new configuration pair, so only the caches'
    # bound keeps twice the steps from costing 8 MB more; the step budget ends mid-phase
    peaks = []
    for max_steps in (20000, 40000):
        trace = tmp_path / f"t{max_steps}.csv"
        path = _write_config(tmp_path, k=64, n=[3] * 64, policy=["1/64"] * 64, phases=10,
                             max_steps=max_steps, emit_trace=True, trace_path=str(trace))
        peaks.append((_peak_rss_kib("--out", str(tmp_path / "s.json"), "simulate", str(path),
                                    code=EXIT_BUDGET),
                      _peak_rss_kib("--out", str(tmp_path / "r.json"), "verify", str(trace))))
    growth = [large - small for small, large in zip(*peaks)]
    assert max(growth) < 8 * 1024, f"peak RSS grew by {growth} KiB (simulate, verify)"


def test_system_uncertified_exact_solve_exits_solver(monkeypatch, capsys):
    real = subsets._lifted
    monkeypatch.setattr(subsets, "_lifted", lambda digits, i: real(digits, i) + (i == 2))
    assert run_cli("system", "--p", "2/5,3/10,1/5,1/10") == EXIT_SOLVER
    assert "integer check" in capsys.readouterr().err


def test_system_writes_h_beyond_the_digit_limit(tmp_path, capsys):
    # 2200-digit probabilities parse; h({1,2}) has 4401-digit terms, past str()'s 4300
    e = Fraction(1, 10**2200)
    policy = subsets.MemorylessPolicy.from_probs([Fraction(1, 2) + e, Fraction(1, 2) - e])
    out = tmp_path / "h.csv"
    assert run_cli("system", "--p", ",".join(policy.as_strs()), "--csv", str(out)) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    rows = _parse_csv(out.read_text())[1:]
    h = [Fraction(int(Decimal(num)), int(Decimal(den))) for _, _, num, den in rows]
    assert len(rows[3][2]) == 4401 and rational_to_str(h[2]) == summary["h_k"]
    assert subsets.build_system(policy).residual(h) == 0


def test_sweep_failed_cell_exits_solver_with_an_error_line(monkeypatch, capsys):
    real = subsets._lifted
    monkeypatch.setattr(subsets, "_lifted", lambda digits, i: real(digits, i) + (i == 2))
    assert run_cli("--format", "csv", "sweep", "--k", "4",
                   "--grid", "2/5,3/10,1/5,1/10;1,0,0,0") == EXIT_SOLVER
    captured = capsys.readouterr()
    rows = _parse_csv(captured.out)[1:]
    assert [r[5].split(":")[0] for r in rows] == ["solver_failed", "rejected"]
    assert captured.err == "error: 1 of 2 sweep cells failed to solve\n"


def test_verify_rejects_empty_trace(tmp_path):
    trace = tmp_path / "empty.csv"
    trace.write_text("")
    assert run_cli("verify", str(trace)) == EXIT_VALIDATION


def _simulated_trace(tmp_path, capsys, k=3):
    trace = tmp_path / "t.csv"
    path = _write_config(tmp_path, k=k, n=[3] * k, policy=[f"1/{k}"] * k, phases=20,
                         emit_trace=True, trace_path=str(trace))
    assert run_cli("simulate", str(path)) == EXIT_OK
    capsys.readouterr()
    return trace


def test_verify_rejects_points_outside_the_metric(tmp_path, capsys):
    trace = _simulated_trace(tmp_path, capsys)
    lines = trace.read_text().splitlines()
    head, rows = lines[:9], lines[9:]
    first = next(i for i, row in enumerate(rows) if "2" in row.split(",")[1])
    # every point 2 of the 3-point metrics becomes 7 in the step columns
    rows = [",".join([f[0], *(c.replace("2", "7") for c in f[1:4]), *f[4:]])
            for f in (row.split(",") for row in rows)]
    trace.write_text("\n".join(head + rows) + "\n")
    assert run_cli("verify", str(trace)) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"step t={first + 1}: request coordinate" in err and "= 7 outside 0..2" in err


@pytest.mark.parametrize("prefix, column, text, message", [
    ("4,", 2, "0;0", "step t=4: alg_config has 2 coordinates, expected 3"),
    # the first bad coordinate is named, though a negative one follows it
    ("4,", 1, "0;5;-1", "step t=4: request coordinate 2 = 5 outside 0..2"),
    ("# q0=", 0, "# q0=0;3;0", "q0 coordinate 2 = 3 outside 0..2"),
    ("# adv0=", 0, "# adv0=0;0;-1", "adv0 coordinate 3 = -1 outside 0..2"),
], ids=["narrow_alg_config", "request_point_then_negative", "q0_point", "adv0_negative"])
def test_verify_names_the_first_bad_coordinate(tmp_path, capsys, prefix, column, text, message):
    # column `column` of the line starting with `prefix` becomes `text`
    trace = _simulated_trace(tmp_path, capsys)
    lines = trace.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    fields = lines[i].split(",")
    fields[column] = text
    lines[i] = ",".join(fields)
    trace.write_text("\n".join(lines) + "\n")
    assert run_cli("verify", str(trace)) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: malformed trace: {message}\n"


def test_verify_rejects_header_n_of_another_width(tmp_path, capsys):
    trace = _simulated_trace(tmp_path, capsys)
    text = trace.read_text()
    assert "# n=3;3;3\n" in text
    trace.write_text(text.replace("# n=3;3;3\n", "# n=3;3\n"))
    assert run_cli("verify", str(trace)) == EXIT_VALIDATION
    assert "malformed trace" in capsys.readouterr().err


_CLEAN_REPORT = "050cdc713cb41b3c8559cb04cb836a7eddd61c25e75a1de3920a4751ec87429f"
# name -> (step index, its new t text, its new request text or None; exit code, sha256 of
# stdout, stderr), recorded when every t was read by int(): the reader now compares a t's
# text with the consecutive number's first, and must keep int()'s meaning and order
_T_TEXTS = {
    "plus_sign": ((6, "+7", None), (EXIT_OK, _CLEAN_REPORT, "")),
    "zero_padded": ((6, "07", None), (EXIT_OK, _CLEAN_REPORT, "")),
    "leading_space": ((6, " 7", None), (EXIT_OK, _CLEAN_REPORT, "")),
    "trailing_space": ((6, "7 ", None), (EXIT_OK, _CLEAN_REPORT, "")),
    "underscore": ((6, "1_0", None), (
        EXIT_VERIFY, "ee5652e88e17d8582e949c5d88a98cf429983567298601c4e120d02736f73194", "")),
    # starts with the consecutive number's text, but is another number
    "consecutive_prefix": ((6, "77", None), (
        EXIT_VERIFY, "1f6fc580fafde19ecaa4cdebb9953c6d49418043a68b8db1a98fe749f9e5cd68", "")),
    # the bad t is reported first, as int(t) raised before the row was parsed
    "bad_t_and_request": ((6, "x7", "0;5;0"), (
        EXIT_VALIDATION, hashlib.sha256(b"").hexdigest(),
        "error: malformed trace: line 16: invalid literal for int() with base 10: 'x7'\n")),
    "spaced_t_and_bad_request": ((6, "7 ", "0;5;0"), (
        EXIT_VALIDATION, hashlib.sha256(b"").hexdigest(),
        "error: malformed trace: step t=7: request coordinate 2 = 5 outside 0..2\n")),
    # the last t has int()'s 4300 digits at most; the number after it has more
    "digit_limit_last": ((-1, "9" * 4300, None), (
        EXIT_VERIFY, "2ca838cc12a400aa9b7395810877587c816e503fb3d03ff782e9eb7e3560ec4a", "")),
    "digit_limit_then_step": ((-2, "9" * 4300, None), (
        EXIT_VALIDATION, hashlib.sha256(b"").hexdigest(),
        "error: Exceeds the limit (4300 digits) for integer string conversion; "
        "use sys.set_int_max_str_digits() to increase the limit\n")),
}


@pytest.mark.parametrize("name", sorted(_T_TEXTS))
def test_verify_reads_t_as_int_does(name, tmp_path, capsys):
    (index, t, request), expected = _T_TEXTS[name]
    cfg = simulate.ExperimentConfig.from_dict({
        "k": 3, "n": [3] * 3, "policy": ["1/3"] * 3, "adversary": "lower_bound",
        "phases": 20, "seed": 5, "emit_trace": True})
    trace = tmp_path / "t.csv"
    simulate.write_trace_csv(simulate.run(cfg)[1], str(trace))
    lines = trace.read_text().splitlines()
    i = 9 + index if index >= 0 else len(lines) + index
    cells = lines[i].split(",")
    cells[0] = t
    cells[1] = request or cells[1]
    lines[i] = ",".join(cells)
    trace.write_text("\n".join(lines) + "\n")
    code = run_cli("verify", str(trace))
    out, err = capsys.readouterr()
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == expected
    if code != EXIT_VALIDATION:  # the library reads t with int() alone
        assert json.loads(out) == verify_trace(simulate.read_trace_csv(str(trace))).to_dict()


# a common denominator of 2^64 - 59 cannot be drawn by int64 generators
HUGE_DEN = ["9223372036854775783/18446744073709551557", "9223372036854775774/18446744073709551557"]


def test_simulate_rejects_denominator_beyond_int64(tmp_path, capsys):
    path = _write_config(tmp_path, policy=HUGE_DEN)
    assert run_cli("simulate", str(path)) == EXIT_VALIDATION
    assert "2^63" in capsys.readouterr().err


def test_sweep_reports_unsimulable_cell(capsys):
    grid = ",".join(HUGE_DEN) + ";1/2,1/2"
    assert run_cli("--format", "csv", "sweep", "--k", "2", "--grid", grid,
                   "--phases", "50") == EXIT_OK
    rows = _parse_csv(capsys.readouterr().out)[1:]
    assert rows[0][4] == "" and rows[0][5].startswith("simulation rejected:")
    assert rows[0][1] == "18446744073709551557/4611686018427387887"
    assert rows[1][5] == "ok" and rows[1][4]


def _parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def test_sweep_gaps(capsys):
    assert run_cli("--format", "csv", "sweep", "--k", "2",
                   "--grid", "1/2,1/2;3/5,2/5;2/3,1/3") == EXIT_OK
    rows = _parse_csv(capsys.readouterr().out)[1:]
    assert [r[3] for r in rows] == ["0/1", "1/1", "2/1"]


def test_sweep_rejects_invalid_cell_with_diagnostic(capsys):
    assert run_cli("--format", "csv", "sweep", "--k", "2", "--grid", "1/2,1/2;1,0") == EXIT_OK
    out = capsys.readouterr().out
    assert "rejected" in out
    rows = _parse_csv(out)
    assert rows[1][3] == "0/1"  # the valid row still solves


def test_sweep_rejects_policy_of_the_wrong_length(capsys):
    assert run_cli("--format", "csv", "sweep", "--k", "2",
                   "--grid", "1/3,1/3,1/3;1/2,1/2") == EXIT_OK
    assert _parse_csv(capsys.readouterr().out)[1:] == [
        ["1/3,1/3,1/3", "", "", "", "", "rejected: policy '1/3,1/3,1/3' has 3 entries, expected 2"],
        ["1/2,1/2", "4/1", "4/1", "0/1", "", "ok"],
    ]


def test_sweep_uniform_only_grid(capsys):
    assert run_cli("--format", "csv", "sweep", "--k", "3", "--grid", "1/3,1/3,1/3") == EXIT_OK
    rows = _parse_csv(capsys.readouterr().out)[1:]
    assert len(rows) == 1 and rows[0][3] == "0/1"


def test_sweep_with_simulation_column(capsys):
    assert run_cli("--seed", "5", "--format", "csv", "sweep", "--k", "2",
                   "--grid", "1/2,1/2;2/3,1/3", "--phases", "4000") == EXIT_OK
    rows = _parse_csv(capsys.readouterr().out)[1:]
    # simulated ratios sit near the solved h({k}) values 4 and 6
    assert abs(float(rows[0][4]) - 4) < 0.5
    assert abs(float(rows[1][4]) - 6) < 0.8


def test_sweep_parallel_preserves_order(capsys):
    assert run_cli("--jobs", "2", "--format", "csv", "sweep", "--k", "2",
                   "--grid", "1/2,1/2;3/5,2/5;2/3,1/3;3/4,1/4") == EXIT_OK
    rows = _parse_csv(capsys.readouterr().out)[1:]
    assert [r[0] for r in rows] == ["1/2,1/2", "3/5,2/5", "2/3,1/3", "3/4,1/4"]


SWEEP_K2 = ["sweep", "--k", "2", "--grid", "1/2,1/2"]


@pytest.mark.parametrize("argv", [
    ["--jobs", "0", *SWEEP_K2], ["--jobs", "-1", *SWEEP_K2], ["--jobs", "-3", *SWEEP_K2],
    [*SWEEP_K2, "--phases", "-1"],
])
def test_sweep_rejects_bad_numbers(argv, capsys):
    assert run_cli(*argv) == EXIT_VALIDATION
    assert "must be >=" in capsys.readouterr().err


def test_seed_flag_overrides_config(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert run_cli("--seed", "7", "simulate", str(path)) == EXIT_OK
    d = json.loads(capsys.readouterr().out)
    assert d["seed"] == 7


def test_cli_subprocess_end_to_end(tmp_path):
    cfg = _write_config(tmp_path, phases=50)
    proc = subprocess.run(
        [sys.executable, "-m", "gkserver", "simulate", str(cfg)],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["phases"] == 50


def test_verify_rejects_a_huge_exponent_in_header_policy(tmp_path, capsys):
    trace = _simulated_trace(tmp_path, capsys, k=2)
    trace.write_text(trace.read_text().replace("# policy=1/2;1/2\n", "# policy=1e-5000;1/2\n"))
    assert run_cli("verify", str(trace)) == EXIT_VALIDATION
    assert "the exponent of '1e-5000' exceeds 4300" in capsys.readouterr().err


def test_verify_rejects_zero_denominator_in_header_policy(tmp_path, capsys):
    trace = _simulated_trace(tmp_path, capsys, k=2)
    text = trace.read_text()
    assert "# policy=1/2;1/2\n" in text
    trace.write_text(text.replace("# policy=1/2;1/2\n", "# policy=1/0;1/2\n"))
    assert run_cli("verify", str(trace)) == EXIT_VALIDATION
    assert "zero denominator" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, message", [
    ({"phases": "10"}, "phases must be an integer >= 1, got '10'"),
    ({"max_steps": "9"}, "max_steps must be an integer >= 1, got '9'"),
    ({"phases": 1.5}, "phases must be an integer >= 1, got 1.5"),
    ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
    ({"seed": True}, "seed must be an integer >= 0, got True"),
    ({"n": ["3", 3]}, "needs >= 2 points, got '3'"),
    ({"n": [3.0, 3]}, "needs >= 2 points, got 3.0"),
    ({"emit_trace": 0}, "emit_trace must be true or false, got 0"),
    ({"k": True, "n": [3], "policy": ["1"]}, "k must be a positive integer, got True"),
    ({"emit_trace": True, "trace_path": 7}, "trace_path must be a file path string, got 7"),
    ({"summary_path": ["x"]}, "summary_path must be a file path string, got ['x']"),
])
def test_simulate_rejects_mistyped_config_field(overrides, message, tmp_path, capsys):
    path = _write_config(tmp_path, **overrides)
    assert run_cli("simulate", str(path)) == EXIT_VALIDATION
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, config_overrides", [
    (["--out", "/nonexistent/o.json", "system", "--p", "1/2,1/2"], None),
    (["system", "--p", "1/2,1/2", "--csv", "/nonexistent/x.csv"], None),
    (["simulate"], {"emit_trace": True, "trace_path": "/nonexistent/t.csv"}),
], ids=["out", "csv", "trace_path"])
def test_unwritable_output_path_exits_validation(argv, config_overrides, tmp_path, capsys):
    if config_overrides is not None:
        argv = [*argv, str(_write_config(tmp_path, phases=2, **config_overrides))]
    assert run_cli(*argv) == EXIT_VALIDATION
    assert "error: [Errno 2] No such file or directory: '/nonexistent/" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["system", "--p", "1/2,1/4,1/4"],
    ["system", "--p", "1/2,1/4,1/4", "--csv", "/dev/stdout"],
], ids=["stdout", "csv"])
def test_closed_stdout_pipe_exits_141_quietly(argv):
    """A reader that is already gone is SIGPIPE's exit code, with nothing on stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "gkserver", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (EXIT_BROKEN_PIPE, "")
