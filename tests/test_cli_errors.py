"""Golden table of the CLI's error paths: exit code, exact stderr and stdout digest.

Each case was recorded before `cli.main()` became the one place that maps
an exception to an `error: ...` line and an exit code, and must not change.
Stdout is pinned by its sha256 ("" when empty): the `simulate` summary
written before exit 4 and the `verify` report before exit 5 included.
The divergent k = 14 iterative solve (exit 3 after about 10 s) is left out.
The header-only and mid-trace row cases were recorded before `verify`
parsed the trace as a stream, so they pin what the stream must keep; with
the header-order cases, they also check that a rejected trace leaves no
report file behind.
"""

import contextlib
import hashlib
import io
import json
from unittest import mock

import pytest

from gkserver import subsets
from gkserver.cli import main

CONFIG = {"k": 2, "n": [3, 3], "policy": ["1/2", "1/2"], "adversary": "lower_bound",
          "phases": 2, "seed": 0}
# a common denominator of 2^64 - 59 cannot be drawn by int64 generators
HUGE_DEN = ["9223372036854775783/18446744073709551557", "9223372036854775774/18446744073709551557"]
LONG = "1" * 4400  # beyond the interpreter's 4300-digit limit on parsing an int
NOWHERE = "/nonexistent"  # a directory that does not exist, so nothing can be written in it

CONFIGS = {
    "budget.json": {**CONFIG, "phases": 10**6, "max_steps": 100},
    "partial.json": {"k": 2},
    "typo_key.json": {**CONFIG, "max_step": 5},
    "no_trace_path.json": {**CONFIG, "emit_trace": True},
    "huge_den.json": {**CONFIG, "policy": HUGE_DEN},
    "long_policy.json": {**CONFIG, "policy": [f"{LONG}/{LONG}0", "1/2"]},
    "trace_nowhere.json": {**CONFIG, "emit_trace": True, "trace_path": f"{NOWHERE}/t.csv"},
}
RAW = {
    "not_json.json": b"{",
    "list.json": b"[1]",
    "latin1.json": json.dumps({**CONFIG, "adversary": "lower_b\xf6und"},
                              ensure_ascii=False).encode("latin-1"),
    "empty.csv": b"",
}
# trace files derived from a simulated uniform k = 2 trace: (old, new) replaced once
TRACE_EDITS = {
    "narrow_n.csv": ("# n=3;3\n", "# n=3\n"),
    "zero_den.csv": ("# policy=1/2;1/2\n", "# policy=1/0;1/2\n"),
    "long_t.csv": ("\n1,", f"\n{LONG},"),
    "bad_column.csv": ("t,request,", "step,request,"),
    "latin1.csv": ("# adversary=lower_bound\n", "# adversary=lower_b\xf6und\n"),
    "unknown_key.csv": ("# seed=", "# sede=5\n# seed="),
}


def _row(lines, i, edit):
    return lines[:i] + [",".join(edit(lines[i].split(",")))] + lines[i + 1:]


# trace files derived line by line from a simulated uniform k = 2, 20-phase
# trace of 77 steps; line index 40 holds step t = 32
TRACE_LINES = {
    "header_only.csv": lambda lines: lines[:9],
    "short_row.csv": lambda lines: _row(lines, 40, lambda f: f[:7]),
    "cost_not_int.csv": lambda lines: _row(lines, 40, lambda f: f[:4] + ["one"] + f[5:]),
    "late_q0.csv": lambda lines: lines + ["# q0=1;1"],
    "late_policy.csv": lambda lines: lines + ["# policy=2/3;1/3"],
    "repeated_key.csv": lambda lines: lines[:8] + ["# q0=1;1"] + lines[8:],
}


def _inputs(tmp):
    """Write every file the cases name, under tmp."""
    for name, d in CONFIGS.items():
        (tmp / name).write_text(json.dumps(d))
    for name, data in RAW.items():
        (tmp / name).write_bytes(data)
    (tmp / "path_without_emit.json").write_text(
        json.dumps({**CONFIG, "trace_path": str(tmp / "unwanted.csv")}))
    for name, policy, phases in (("uniform", ["1/2", "1/2"], 2), ("skewed", ["2/3", "1/3"], 2),
                                 ("long", ["1/2", "1/2"], 20)):
        cfg = {**CONFIG, "policy": policy, "phases": phases, "emit_trace": True,
               "trace_path": str(tmp / f"{name}.csv")}
        (tmp / f"{name}.json").write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", str(tmp / f"{name}.json")]) == 0
    text = (tmp / "uniform.csv").read_text()
    for name, (old, new) in TRACE_EDITS.items():
        assert old in text
        (tmp / name).write_bytes(text.replace(old, new, 1).encode("latin-1"))
    lines = (tmp / "long.csv").read_text().splitlines()
    assert len(lines) == 9 + 77 and lines[40].startswith("32,")
    for name, edit in TRACE_LINES.items():
        (tmp / name).write_text("\n".join(edit(lines)) + "\n")
    # the adversary teleports two metrics at zero declared cost: exit 5, not an error
    lines = text.splitlines()
    first = lines[9].split(",")
    first[3], first[5] = "1;2", "0"
    lines[9] = ",".join(first)
    (tmp / "teleport.csv").write_text("\n".join(lines) + "\n")


def _uncertified(digits, i, real=subsets._lifted):
    return real(digits, i) + (i == 2)


def run_case(argv, tmp):
    """(exit code, stdout, stderr) of one CLI call; `{tmp}` in argv names tmp.

    An `--uncertified` argument is not passed on: it breaks the exact solver's
    lifted digits instead, so that its integer certificate fails (exit 3)."""
    _inputs(tmp)
    out, err = io.StringIO(), io.StringIO()
    argv = [a.replace("{tmp}", str(tmp)) for a in argv]
    patch = (mock.patch.object(subsets, "_lifted", _uncertified) if "--uncertified" in argv
             else contextlib.nullcontext())
    argv = [a for a in argv if a != "--uncertified"]
    with patch, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue().replace(str(tmp), "{tmp}")


K13 = ",".join(["1/13"] * 13)
K15 = ",".join(["1/15"] * 15)
SWEEP = ["sweep", "--k", "2", "--grid", "1/2,1/2"]
SYSTEM = ["system", "--p", "1/2,1/2"]

CASES = {
    "alpha_max_0": (
        ["alpha", "--max", "0"], 2, "error: --max must be in 1..64, got 0\n", ""),
    "alpha_max_65": (
        ["alpha", "--max", "65"], 2, "error: --max must be in 1..64, got 65\n", ""),
    "chain_k_0": (
        ["chain", "harmonic", "--k", "0"], 2, "error: --k must be in 1..20, got 0\n", ""),
    "chain_k_21": (
        ["chain", "binary", "--k", "21"], 2, "error: --k must be in 1..20, got 21\n", ""),
    "sweep_k_0": (
        ["sweep", "--k", "0", "--grid", "1"], 2,
        "error: --k must be in 1..8 for exact sweeps, got 0\n",
        ""),
    "sweep_k_9": (
        ["sweep", "--k", "9", "--grid", "1"], 2,
        "error: --k must be in 1..8 for exact sweeps, got 9\n",
        ""),
    "sweep_jobs_0": (
        ["--jobs", "0", *SWEEP], 2, "error: --jobs must be >= 1, got 0\n", ""),
    "sweep_phases_negative": (
        [*SWEEP, "--phases", "-1"], 2, "error: --phases must be >= 0, got -1\n", ""),
    "sweep_seed_negative": (
        ["--seed", "-1", *SWEEP], 2, "error: --seed must be >= 0, got -1\n", ""),
    "sweep_empty_grid": (
        ["sweep", "--k", "2", "--grid", " ; "], 2, "error: empty policy grid\n", ""),
    "policy_zero_probability": (
        ["system", "--p", "1/2,1/2,0"], 2,
        "error: bad policy '1/2,1/2,0': every probability must be positive; a "
        "zero-probability metric makes the policy non-competitive\n",
        ""),
    "policy_not_a_number": (
        ["system", "--p", "1/2,x"], 2,
        "error: bad policy '1/2,x': Invalid literal for Fraction: 'x'\n",
        ""),
    "policy_zero_denominator": (
        ["system", "--p", "1/2,1/0"], 2,
        "error: bad policy '1/2,1/0': zero denominator in '1/0'\n",
        ""),
    "policy_not_summing_to_one": (
        ["system", "--p", "1/2,1/3"], 2,
        "error: bad policy '1/2,1/3': probabilities must sum to exactly 1, got "
        "5/6\n",
        ""),
    "policy_beyond_digit_limit": (
        ["system", "--p", f"{LONG}/{LONG}0,1/2"], 2,
        f"error: bad policy '{LONG}/{LONG}0,1/2': Exceeds the limit (4300 digits) "
        "for integer string conversion: value has 4400 digits; use "
        "sys.set_int_max_str_digits() to increase the limit\n",
        ""),
    "tolerance_not_a_number": (
        [*SYSTEM, "--mode", "iterative", "--tolerance", "abc"], 2,
        "error: bad tolerance 'abc': Invalid literal for Fraction: 'abc'\n",
        ""),
    "tolerance_zero_denominator": (
        [*SYSTEM, "--tolerance", "1/0"], 2,
        "error: bad tolerance '1/0': zero denominator in '1/0'\n",
        ""),
    "tolerance_zero": (
        [*SYSTEM, "--mode", "iterative", "--tolerance", "0"], 2,
        "error: tolerance must be positive, got '0'\n",
        ""),
    "exact_mode_cap": (
        ["system", "--p", K13], 2, "error: exact mode supports k <= 12, got 13\n", ""),
    "iterative_mode_cap": (
        ["system", "--p", K15, "--mode", "iterative"], 2,
        "error: iterative mode supports k <= 14, got 15\n",
        ""),
    "uncertified_exact_solve": (
        ["system", "--p", "2/5,3/10,1/5,1/10", "--uncertified"], 3,
        "error: p-adic solution fails the integer check at mask 0x2\n",
        ""),
    "step_budget": (
        ["simulate", "{tmp}/budget.json"], 4,
        "error: step budget 100 exhausted after 29/1000000 phases\n",
        "9d987bd3763609a2c6a7b4c1736d7f10b8e9c7937b573084d0ff777f2a320809"),
    "config_missing": (
        ["simulate", "{tmp}/missing.json"], 2,
        "error: [Errno 2] No such file or directory: '{tmp}/missing.json'\n",
        ""),
    "config_not_json": (
        ["simulate", "{tmp}/not_json.json"], 2,
        "error: config file is not valid JSON: Expecting property name enclosed "
        "in double quotes: line 1 column 2 (char 1)\n",
        ""),
    "config_not_an_object": (
        ["simulate", "{tmp}/list.json"], 2, "error: config file must hold a JSON object\n", ""),
    "config_missing_fields": (
        ["simulate", "{tmp}/partial.json"], 2,
        "error: config missing fields: ['adversary', 'n', 'phases', 'policy', "
        "'seed']\n",
        ""),
    "config_unknown_field": (
        ["simulate", "{tmp}/typo_key.json"], 2,
        "error: config has unknown fields: ['max_step']\n",
        ""),
    "config_not_utf8": (
        ["simulate", "{tmp}/latin1.json"], 2,
        "error: config file is not valid JSON: 'utf-8' codec can't decode byte "
        "0xf6 in position 69: invalid start byte\n",
        ""),
    "config_emit_trace_without_path": (
        ["simulate", "{tmp}/no_trace_path.json"], 2,
        "error: emit_trace is set but trace_path is missing from the config\n",
        ""),
    "config_trace_path_without_emit_trace": (
        ["simulate", "{tmp}/path_without_emit.json"], 2,
        "error: trace_path is set but emit_trace is not true in the config\n",
        ""),
    "config_denominator_beyond_int64": (
        ["simulate", "{tmp}/huge_den.json"], 2,
        "error: the policy's common denominator 18446744073709551557 is not "
        "below 2^63\n",
        ""),
    "config_policy_beyond_digit_limit": (
        ["simulate", "{tmp}/long_policy.json"], 2,
        f"error: bad policy ['{LONG}/{LONG}0', '1/2']: Exceeds the limit (4300 "
        "digits) for integer string conversion: value has 4400 digits; use "
        "sys.set_int_max_str_digits() to increase the limit\n",
        ""),
    "seed_negative": (
        ["--seed", "-1", "simulate", "{tmp}/budget.json"], 2,
        "error: seed must be an integer >= 0, got -1\n",
        ""),
    "trace_missing": (
        ["verify", "{tmp}/missing.csv"], 2,
        "error: malformed trace: [Errno 2] No such file or directory: "
        "'{tmp}/missing.csv'\n",
        ""),
    "trace_empty": (
        ["verify", "{tmp}/empty.csv"], 2,
        "error: malformed trace: trace header missing fields: ['adv0', "
        "'adversary', 'k', 'n', 'policy', 'q0', 'seed']\n",
        ""),
    "trace_unknown_header_key": (
        ["verify", "{tmp}/unknown_key.csv"], 2,
        "error: malformed trace: trace header has unknown fields: ['sede']\n",
        ""),
    "trace_header_n_too_narrow": (
        ["verify", "{tmp}/narrow_n.csv"], 2,
        "error: malformed trace: trace header is inconsistent (k vs n vs q0 vs "
        "policy length)\n",
        ""),
    "trace_policy_zero_denominator": (
        ["verify", "{tmp}/zero_den.csv"], 2,
        "error: malformed trace: zero denominator in '1/0'\n",
        ""),
    "trace_t_beyond_digit_limit": (
        ["verify", "{tmp}/long_t.csv"], 2,
        "error: malformed trace: line 10: Exceeds the limit (4300 digits) for integer "
        "string conversion: value has 4400 digits; use "
        "sys.set_int_max_str_digits() to increase the limit\n",
        ""),
    "trace_bad_column_header": (
        ["verify", "{tmp}/bad_column.csv"], 2,
        "error: malformed trace: line 9: unexpected column header "
        "'step,request,alg_config,adv_config,alg_cost,adv_cost,hamming,state_mask'\n",
        ""),
    "trace_not_utf8": (
        ["verify", "{tmp}/latin1.csv"], 2,
        "error: malformed trace: 'utf-8' codec can't decode byte 0xf6 in "
        "position 70: invalid start byte\n",
        ""),
    "trace_skewed_policy": (
        ["verify", "{tmp}/skewed.csv"], 2,
        "error: trace audit is defined for the uniform policy only\n",
        ""),
    "trace_header_only": (
        ["--out", "{tmp}/report.json", "verify", "{tmp}/header_only.csv"], 2,
        "error: malformed trace: trace holds no steps\n",
        ""),
    "trace_short_row_mid_trace": (
        ["--out", "{tmp}/report.json", "verify", "{tmp}/short_row.csv"], 2,
        "error: malformed trace: line 41: expected 8 fields, got 7\n",
        ""),
    "trace_cost_not_int_mid_trace": (
        ["--out", "{tmp}/report.json", "verify", "{tmp}/cost_not_int.csv"], 2,
        "error: malformed trace: line 41: invalid literal for int() with base 10: 'one'\n",
        ""),
    "trace_header_key_after_steps": (
        ["--out", "{tmp}/report.json", "verify", "{tmp}/late_q0.csv"], 2,
        "error: malformed trace: line 87: '#' line after the column header\n",
        ""),
    "trace_policy_after_steps": (
        ["--out", "{tmp}/report.json", "verify", "{tmp}/late_policy.csv"], 2,
        "error: malformed trace: line 87: '#' line after the column header\n",
        ""),
    "trace_repeated_header_key": (
        ["--out", "{tmp}/report.json", "verify", "{tmp}/repeated_key.csv"], 2,
        "error: malformed trace: line 9: repeated header key 'q0'\n",
        ""),
    "trace_violation": (
        ["verify", "{tmp}/teleport.csv"], 5,
        "",
        "9e4fa007eee398390c3cee4e82ce715f3c7dd22e0ace5e54b225bac1651b3576"),
    "out_unwritable": (
        ["--out", f"{NOWHERE}/o.json", *SYSTEM], 2,
        "error: [Errno 2] No such file or directory: '/nonexistent/o.json'\n",
        ""),
    "csv_unwritable": (
        [*SYSTEM, "--csv", f"{NOWHERE}/h.csv"], 2,
        "error: [Errno 2] No such file or directory: '/nonexistent/h.csv'\n",
        ""),
    "trace_path_unwritable": (
        ["simulate", "{tmp}/trace_nowhere.json"], 2,
        "error: [Errno 2] No such file or directory: '/nonexistent/t.csv'\n",
        ""),
    "summary_unwritable": (
        ["--out", f"{NOWHERE}/s.json", "simulate", "{tmp}/budget.json"], 2,
        "error: [Errno 2] No such file or directory: '/nonexistent/s.json'\n",
        ""),
}


@pytest.mark.parametrize("argv, code, stderr, stdout_sha256", CASES.values(), ids=CASES.keys())
def test_cli_error_golden(argv, code, stderr, stdout_sha256, tmp_path):
    got_code, out, err = run_case(argv, tmp_path)
    assert err == stderr
    assert got_code == code
    if code == 2 and "--out" in argv:  # a rejected input leaves no report behind
        assert not (tmp_path / "report.json").exists()
    assert (hashlib.sha256(out.encode()).hexdigest() if out else "") == stdout_sha256


def test_trace_path_without_emit_trace_writes_no_trace(tmp_path):
    assert run_case(["simulate", "{tmp}/path_without_emit.json"], tmp_path)[0] == 2
    assert not (tmp_path / "unwanted.csv").exists()
