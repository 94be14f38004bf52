"""Command-line interface.

Subcommands: alpha, chain, system, simulate, verify, sweep. They only
raise; main() alone maps an exception to one `error: ...` line and its
exit code: 2 for a ValueError (ConfigError is one) or an OSError, such as
an unusable file path; 3 for an ArithmeticError (SolverError is one);
4 for StepBudgetExhausted. Exit 5 is a verification violation, after
verify has written its report; 0 is ok. A reader that closes the output
pipe early ends the command with 141, as SIGPIPE would, and no error line.

alpha, chain and sweep write a human table on a TTY and CSV when
redirected; --format forces one of table/csv/json for them. system,
simulate and verify always write JSON. Rationals serialize as "num/den"
strings and integers as plain digits, both of any length, so nothing is
rounded on the way out.
"""

from __future__ import annotations

import argparse
import csv as _csv
import dataclasses
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from math import factorial

from .chains import binary_chain, eet_oracle_table, eet_table, harmonic_chain
from .harmonic import alpha, alpha_bounds_check, int_to_str, rational_from_str, rational_to_str
from .potential import _context, verify_trace
from .simulate import (
    ConfigError,
    ExperimentConfig,
    MetricSpec,
    StepBudgetExhausted,
    _write_run,
    estimate_ratio,
    raise_if_exhausted,
    read_trace_csv,
    run,
)
from .subsets import (
    MemorylessPolicy,
    check_monotonicity,
    check_subset_alpha_bound,
    competitive_gap,
    lower_bound_hk,
    solve_system,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_BUDGET = 4
EXIT_VERIFY = 5
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell shows for a writer whose reader left
# what main() maps each exception type to; a failed audit is exit 5 without an error
EXIT_CODES = {ValueError: EXIT_VALIDATION, OSError: EXIT_VALIDATION,
              ArithmeticError: EXIT_SOLVER, StepBudgetExhausted: EXIT_BUDGET}

ALPHA_MAX_ELL = 64  # alpha(64) is ~90 digits; nothing beyond is ever exercised
CHAIN_MAX_K = 20
SWEEP_MAX_K = 8
CHAINS = {"harmonic": harmonic_chain, "binary": binary_chain}


def _pick_format(args) -> str:
    return args.format or ("table" if sys.stdout.isatty() else "csv")


def _cells(row) -> list[str]:
    """A row's cells as text; ints (not bools) of any length through int_to_str."""
    return [int_to_str(x) if type(x) is int else str(x) for x in row]


def _emit(headers, rows, fmt: str, out_path: str | None) -> None:
    """Render rows as table/csv/json to stdout or --out; CSV rows are written as they come."""
    if fmt == "json":
        _emit_json([dict(zip(headers, r)) for r in rows], out_path)
        return
    with _destination(out_path) as fh:
        if fmt == "csv":
            w = _csv.writer(fh, lineterminator="\n")
            w.writerow(headers)
            w.writerows(map(_cells, rows))
        else:
            lines = [headers, *map(_cells, rows)]
            widths = [max(len(line[i]) for line in lines) for i in range(len(headers))]
            fh.write("\n".join("  ".join(x.ljust(w) for x, w in zip(line, widths))
                               for line in lines) + "\n")


def _emit_json(obj, out_path: str | None) -> None:
    with _destination(out_path) as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


@contextmanager
def _destination(out_path: str | None):
    """out_path opened for writing and closed after the block, or stdout flushed after it."""
    if out_path:
        with open(out_path, "w") as fh:
            yield fh
    else:
        yield sys.stdout
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at exit


@contextmanager
def _prefixed(prefix: str):
    """Re-raise a ValueError or OSError of the block as a ConfigError that starts with prefix."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _parse_policy(spec: str) -> MemorylessPolicy:
    with _prefixed(f"bad policy {spec!r}: "):
        return MemorylessPolicy.from_probs([rational_from_str(tok) for tok in spec.split(",")])


def _parse_tolerance(s: str) -> Fraction:
    with _prefixed(f"bad tolerance {s!r}: "):
        tolerance = rational_from_str(s)
    if tolerance <= 0:
        raise ConfigError(f"tolerance must be positive, got {s!r}")
    return tolerance


def cmd_alpha(args) -> int:
    if args.max < 1 or args.max > ALPHA_MAX_ELL:
        raise ConfigError(f"--max must be in 1..{ALPHA_MAX_ELL}, got {args.max}")
    rows = [(ell, alpha(ell), factorial(ell - 1), alpha_bounds_check(ell))
            for ell in range(1, args.max + 1)]
    _emit(["ell", "alpha", "factorial", "bounds_ok"], rows, _pick_format(args), args.out)
    return EXIT_OK


def cmd_chain(args) -> int:
    if args.k < 1 or args.k > CHAIN_MAX_K:
        raise ConfigError(f"--k must be in 1..{CHAIN_MAX_K}, got {args.k}")
    chain = CHAINS[args.kind](args.k)
    closed = eet_table(chain)
    oracle = eet_oracle_table(chain)
    rows = [(args.k, ell, h.numerator, h.denominator, args.kind, h == oracle[ell])
            for ell, h in enumerate(closed)]
    _emit(["k", "ell", "h_num", "h_den", "chain_kind", "oracle_match"],
          rows, _pick_format(args), args.out)
    return EXIT_OK


def cmd_system(args) -> int:
    policy = _parse_policy(args.p)
    tolerance = _parse_tolerance(args.tolerance)
    sol = solve_system(policy, mode=args.mode, tolerance=tolerance)
    bound = lower_bound_hk(policy)
    gap = competitive_gap(policy, sol)
    mono = check_monotonicity(sol)
    alpha_bound = check_subset_alpha_bound(sol)
    summary = {
        "policy": policy.as_strs(),
        "k": policy.k,
        "mode": sol.mode,
        "h_k": rational_to_str(sol.h_k),
        "h_k_float": float(sol.h_k),
        "lower_bound": rational_to_str(bound),
        "gap": rational_to_str(gap),
        "gap_float": float(gap),
        "residual": rational_to_str(sol.max_residual),
        "iterations": sol.iterations,
        "monotonicity_violations": len(mono),
        "alpha_bound_violations": len(alpha_bound),
    }
    if args.csv:
        rows = ((mask, mask.bit_count(), h.numerator, h.denominator)
                for mask, h in enumerate(sol.h))
        _emit(["subset_mask", "subset_size", "h_num", "h_den"], rows, "csv", args.csv)
    _emit_json(summary, args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = ExperimentConfig.from_json_file(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)  # re-runs the config's checks
    if config.emit_trace and not config.trace_path:
        raise ConfigError("emit_trace is set but trace_path is missing from the config")
    if config.trace_path and not config.emit_trace:
        raise ConfigError("trace_path is set but emit_trace is not true in the config")
    summary = _write_run(config, config.trace_path) if config.emit_trace else run(config)[0]
    out_path = args.out or config.summary_path
    _emit_json(summary.to_dict(), out_path)
    raise_if_exhausted(config, summary)
    return EXIT_OK


def cmd_verify(args) -> int:
    # a policy the audit rejects is not a malformed trace
    with _prefixed("malformed trace: "):
        trace = read_trace_csv(args.trace)
    ctx = _context(trace)
    with _prefixed("malformed trace: "):
        report = verify_trace(trace, ctx)
    _emit_json(report.to_dict(), args.out)
    return EXIT_OK if report.ok else EXIT_VERIFY


def _sweep_cell(payload):
    """One grid cell: solve exactly, optionally simulate. Runs in a worker."""
    policy_spec, k, phases, seed, index = payload
    try:
        policy = _parse_policy(policy_spec)
        if policy.k != k:
            raise ConfigError(f"policy {policy_spec!r} has {policy.k} entries, expected {k}")
    except ConfigError as exc:
        return {"policy": policy_spec, "status": f"rejected: {exc}"}
    try:
        sol = solve_system(policy, mode="exact")
    except (ArithmeticError, ValueError) as exc:
        return {"policy": policy_spec, "status": f"solver_failed: {exc}", "_failed": True}
    bound = lower_bound_hk(policy)
    gap = competitive_gap(policy, sol)
    sim_ratio = ""
    status = "ok"
    if phases > 0:
        try:
            config = ExperimentConfig(
                spec=MetricSpec(n=tuple(3 for _ in range(k))), policy=policy,
                adversary="lower_bound", phases=phases, seed=seed + index,
            )
        except ConfigError as exc:
            status = f"simulation rejected: {exc}"
        else:
            ratio, _ = estimate_ratio(config)
            sim_ratio = f"{float(ratio):.6g}"
    return {
        "policy": ",".join(policy.as_strs()),
        "status": status,
        "h_k": rational_to_str(sol.h_k),
        "bound": rational_to_str(bound),
        "gap": rational_to_str(gap),
        "sim_ratio": sim_ratio,
    }


def cmd_sweep(args) -> int:
    if args.k < 1 or args.k > SWEEP_MAX_K:
        raise ConfigError(f"--k must be in 1..{SWEEP_MAX_K} for exact sweeps, got {args.k}")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    if args.phases < 0:
        raise ConfigError(f"--phases must be >= 0, got {args.phases}")
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    specs = [tok.strip() for tok in args.grid.split(";") if tok.strip()]
    if not specs:
        raise ConfigError("empty policy grid")
    payloads = [(spec, args.k, args.phases, args.seed or 0, i)
                for i, spec in enumerate(specs)]
    if args.jobs > 1:
        # imported here, as only a sweep with workers needs it: the pool's modules would
        # add to the start-up time of every command
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(args.jobs, len(payloads))) as pool:
            results = list(pool.map(_sweep_cell, payloads))
    else:
        results = [_sweep_cell(p) for p in payloads]
    headers = ["policy", "h_k", "bound", "gap", "sim_ratio", "status"]
    rows = [tuple(r.get(h, "") for h in headers) for r in results]
    _emit(headers, rows, _pick_format(args), args.out)
    failed = sum(1 for r in results if r.get("_failed"))
    if failed:
        raise ArithmeticError(f"{failed} of {len(results)} sweep cells failed to solve")
    return EXIT_OK


@cache  # one parser a process: its objects form cycles, which only the cycle collector frees
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkserver",
        description="Memoryless policies for generalized k-server on uniform metrics: "
                    "exact hitting times, adversarial instances, seeded simulation.",
    )
    parser.add_argument("--format", choices=("table", "csv", "json"), default=None,
                        help="output format (default: table on a TTY, csv otherwise)")
    parser.add_argument("--out", default=None, help="write output to this file")
    parser.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes for sweep")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alpha", help="tabulate the harmonic recursion with bound checks")
    p.add_argument("--max", type=int, required=True, help=f"largest ell (1..{ALPHA_MAX_ELL})")
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("chain", help="extinction-time table of a named birth-death chain")
    p.add_argument("kind", choices=tuple(CHAINS))
    p.add_argument("--k", type=int, required=True, help=f"number of states (1..{CHAIN_MAX_K})")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("system", help="solve the 2^k subset-state system for a policy")
    p.add_argument("--p", required=True, help="comma-separated rationals, e.g. 1/2,1/2")
    p.add_argument("--mode", choices=("exact", "iterative"), default="exact")
    p.add_argument("--tolerance", default="1/1000000000000",
                   help="iterative-mode residual target (rational or float literal)")
    p.add_argument("--csv", default=None, help="also dump all h(S) values to this CSV")
    p.set_defaults(func=cmd_system)

    p = sub.add_parser("simulate", help="run a seeded simulation from a JSON config")
    p.add_argument("config", help="path to the experiment config (JSON)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="audit a trace CSV against the potential argument")
    p.add_argument("trace", help="path to a trace CSV produced by simulate")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="solve + optionally simulate a grid of policies")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--grid", required=True,
                   help="semicolon-separated policies, e.g. '1/2,1/2;2/3,1/3'")
    p.add_argument("--phases", type=int, default=0,
                   help="simulation phases per cell (0 skips simulation)")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader is gone: no error line, and the flush at exit writes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
