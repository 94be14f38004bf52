#!/usr/bin/env python3
"""Benchmark of gkserver: one client in a closed loop, one process, one thread.

Run from the repository root:

    python3 bench/run.py --workload exact_solve --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload runs in a fresh interpreter, so setup_s and peak_rss_mb
belong to that workload alone (`all` starts one child per workload).
gkserver is imported from src/ of the same checkout. Every op's output
is checked outside its timed span; an op that fails its check counts in
`failed` and its time is left out of every latency figure.

--trace 0 measures the end-to-end metrics. Op cost is gated in
reference units (speed.py): seconds divided by the time of a fixed piece
of work sampled around the op, which stays steady while the speed of a
shared machine swings. The seconds are printed as well. --trace 1 runs
every op twice on the same input, once untraced and once inside spans
(the order alternates), and reports the per-layer metrics and the
tracing overhead. Every metric is printed by name with its unit and
sample count; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics, holding the metrics that
BENCHMARK.json names.

Not measured on purpose: `sweep --jobs` and any process pool. On a
small shared machine a pool measures the scheduler, not gkserver.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from speed import SpeedSampler
from tracing import OP, Tracer, summarise

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"        # scratch files of a running workload, removed after it
OUT = BENCH / "_out"          # span dumps of traced runs
SETUP_SAMPLES = 5             # set-ups per run; setup_s is their median
COUNT_UNITS = {"subsets.h_den_bits_max": "bits", "subsets.error_bound_over_tol": "ratio",
               "simulate.steps_per_phase": "steps", "simulate.trace_bytes": "bytes"}

NO_SPAN = nullcontext()


def no_span(name):
    return NO_SPAN


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def setup(name: str, seed: int, tiny: bool):
    """Import gkserver from src/ and build the workload: (workload, seconds taken)."""
    start = time.perf_counter()
    if not (SRC / "gkserver" / "__init__.py").is_file():
        raise SystemExit(f"error: gkserver sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads  # imports gkserver and numpy

    WORK.mkdir(exist_ok=True)
    workload = workloads.make(name, seed, tiny, str(WORK))
    return workload, time.perf_counter() - start


def run_op(workload, inp, span, tamper, speed):
    """One op and its check: (ok, counts, probe values, seconds, start, end)."""
    busy = speed.busy
    start = time.perf_counter()
    with span(OP):
        out = workload.op(inp, span)
    end = time.perf_counter()
    seconds = end - start - (speed.busy - busy)
    if tamper is not None:
        out = tamper(out)
    ok, counts = workload.check(inp, out, span)
    values = workload.probe(inp, out, span) if span is not no_span else {}
    return ok, counts, values, seconds, start, end


def safe_op(workload, inp, span, tamper, speed, errors):
    try:
        return run_op(workload, inp, span, tamper, speed)
    except Exception:  # an op that raises is a failed op, not a crashed benchmark
        if not errors:
            traceback.print_exc(file=sys.stderr)
        errors.append(1)
        return False, {}, {}, 0.0, 0.0, 0.0


def measure(workload, seconds: float, traced: bool, tamper=None) -> dict:
    """Run whole cycles of the workload for about `seconds`.

    Returns the untraced ops that passed their check, as (class, seconds,
    seconds in reference units, counts), and for the traced run its spans,
    the traced ops' counts and probe values, and (untraced, traced)
    seconds of each op that passed both times.
    """
    tracer = Tracer() if traced else None
    ops, timed, counts, values, pairs, errors = [], [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    i = 0
    with SpeedSampler() as speed:
        while True:
            for label in workload.cycle:
                inp = workload.make_input(i, label)
                runs = [False, True] if traced else [False]
                if (i + i // len(workload.cycle)) % 2:  # each class runs both orders
                    runs.reverse()
                times = {}
                for with_spans in runs:
                    if with_spans:
                        tracer.op_index = i
                    ok, c, v, dt, t0, t1 = safe_op(workload, inp,
                                                   tracer.span if with_spans else no_span,
                                                   tamper, speed, errors)
                    attempted += 1
                    if not ok:
                        failed += 1
                        continue
                    times[with_spans] = dt
                    if with_spans:
                        counts.append(c)
                        values.append(v)
                    else:
                        ops.append((label, dt, c))
                        timed.append((t0, t1))
                if len(times) == 2:
                    pairs.append((times[False], times[True]))
                i += 1
            # whole cycles keep each class's share; stop at the cycle end nearest `seconds`
            elapsed = time.perf_counter() - start
            if elapsed * (1 + 0.5 * len(workload.cycle) / i) >= seconds:
                break
    ops = [(label, dt, dt / speed.reference(t0, t1), c)
           for (label, dt, c), (t0, t1) in zip(ops, timed)]
    return {"ops": ops, "counts": counts, "values": values, "pairs": pairs,
            "attempted": attempted, "failed": failed, "cycle": len(workload.cycle),
            "ref_s": speed.durations, "tracer": tracer}


def quantile(xs, q: int) -> float:
    """q-th decile of xs (inclusive method)."""
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[q - 1]


def end_to_end(res: dict, setup_s: list[float]) -> dict:
    """name -> (value, unit, samples), from the untraced op times.

    Op cost is given twice: in seconds, and in reference units (see
    speed.py), which stay steady when the machine's speed swings. The
    figures in reference units are the ones BENCHMARK.json gates.
    """
    lat = [dt for _, dt, _, _ in res["ops"]]
    rel = [r for _, _, r, _ in res["ops"]]
    n, busy = len(lat), sum(lat)
    m = {"setup_s": (statistics.median(setup_s), "s", len(setup_s)),
         "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
         "fail_frac": (res["failed"] / res["attempted"], "ratio", res["attempted"]),
         "ref_us": (1e6 * statistics.mean(res["ref_s"]), "us", len(res["ref_s"]))}
    if n:
        m["ops_per_s"] = (n / busy, "1/s", n)
        m["op_ms_p50"] = (1000 * quantile(lat, 5), "ms", n)
        m["op_ms_p90"] = (1000 * quantile(lat, 9), "ms", n)
        m["ops_per_kref"] = (1000 * n / sum(rel), "1/kref", n)
        m["op_ref_p50"] = (quantile(rel, 5), "ref", n)
        m["op_ref_p90"] = (quantile(rel, 9), "ref", n)
        for key, name in (("simulate.steps", "steps_per_s"), ("simulate.phases", "phases_per_s")):
            work = sum(c.get(key, 0) for _, _, _, c in res["ops"])
            if work:
                m[name] = (work / busy, "1/s", n)
    return m


def class_lines(res: dict, cycle) -> list[str]:
    """Median seconds of each op class, and its steps per second where it has steps."""
    lines = []
    for label in dict.fromkeys(cycle):
        ops = [(dt, c.get("simulate.steps", 0)) for lb, dt, _, c in res["ops"] if lb == label]
        if ops:
            line = f"class {label}: median {1000 * statistics.median(t for t, _ in ops):.6g} ms"
            if ops[0][1]:
                line += f", {sum(n for _, n in ops) / sum(t for t, _ in ops):.6g} steps/s"
            lines.append(f"{line} (n={len(ops)})")
    return lines


def per_layer(res: dict) -> dict:
    """name -> (value, unit, samples), from the traced run."""
    per_name, shares = summarise(res["tracer"].spans)
    m = {}
    for name, (calls, ns) in per_name.items():
        m[f"{name}_ms"] = (ns / calls / 1e6, "ms", calls)
    # counts repeat exactly for a seed: take them over the first cycle
    first = res["counts"][:res["cycle"]]
    for key in sorted({k for c in first for k in c}):
        xs = [c[key] for c in first if key in c]
        value = max(xs) if key.endswith("_max") else sum(xs) / len(xs)
        m[key] = (value, COUNT_UNITS.get(key, "count"), len(xs))
    for key in sorted({k for v in res["values"] for k in v}):
        xs = [v[key] for v in res["values"] if key in v]
        m[key] = (sum(xs) / len(xs), "us", len(xs))
    totals = {k: sum(c.get(k, 0) for c in res["counts"]) for k in ("simulate.steps",
                                                                     "simulate.phases")}
    if "simulate.stream_setup_us" in m and "simulate.run" in per_name:
        run_us = per_name["simulate.run"][1] / 1e3
        m["simulate.stream_setup_share_est"] = (
            m["simulate.stream_setup_us"][0] * totals["simulate.phases"] / run_us, "ratio",
            per_name["simulate.run"][0])
    if "potential.verify_trace" in per_name:
        calls, ns = per_name["potential.verify_trace"]
        m["potential.audit_steps_per_s"] = (totals["simulate.steps"] / (ns / 1e9), "1/s", calls)
    if "cli.simulate" in per_name:
        cli_ns = per_name["cli.simulate"][1] + per_name["cli.verify"][1]
        lib_ns = per_name.get("probe.library_pass", [0, 0])[1]
        calls = per_name["cli.simulate"][0]
        m["cli.self_ms"] = ((cli_ns - lib_ns) / calls / 1e6, "ms", calls)
    for layer, share in shares.items():
        m[f"share.{layer}"] = (share, "ratio", per_name[OP][0])
    pairs = res["pairs"]
    if pairs:
        plain = sum(p[0] for p in pairs) / len(pairs)
        spanned = sum(p[1] for p in pairs) / len(pairs)
        m["trace.overhead_ms"] = (1000 * (spanned - plain), "ms", len(pairs))
        m["trace.overhead_frac"] = ((spanned - plain) / plain, "ratio", len(pairs))
    return m


def cpu_context() -> dict:
    """CPU model and cache sizes, read from /proc and /sys where Linux has them."""
    ctx = {"cpu_model": platform.processor() or None, "caches": {}}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    ctx["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type",
                                                                            "size"))
        except OSError:
            continue
        ctx["caches"][f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return ctx


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one (exported copies do not)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_context(args, workload) -> dict:
    import numpy

    return {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "cycle": list(workload.cycle),
        "loop": "closed loop, 1 client, 1 process, 1 thread; no process pool",
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), **cpu_context(), "git_commit": git_commit(),
    }


def setup_probe(args) -> float:
    """setup_s of a fresh interpreter, measured by a child process."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"] + (["--tiny"] if args.tiny else [])
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def report(metrics: dict, names: list[str], res: dict) -> tuple[dict, list]:
    for name, (value, unit, n) in sorted(metrics.items()):
        print(f"metric {name} = {value:.6g} {unit} (n={n})")
    missing = [name for name in names if name not in metrics]
    return {"correct": res["failed"] == 0 and not missing, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                        for name in names if name in metrics}}, missing


def run_one(args) -> int:
    workload, setup_s = setup(args.workload, args.seed, args.tiny)
    try:
        if args.setup_probe:
            print(f"{setup_s!r}")
            return 0
        context = run_context(args, workload)
        print("context " + json.dumps(context, sort_keys=True))
        res = measure(workload, args.seconds, bool(args.trace))
    finally:
        workload.close()
    setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    declared = spec()
    print(f"workload {args.workload}: {res['attempted']} ops attempted, {res['failed']} failed")
    for line in class_lines(res, workload.cycle):
        print(line)
    if args.trace:
        metrics = per_layer(res)
        names = [m["name"] for m in declared["per_layer"]]
        for name in names:  # a layer the workload never enters reads 0
            metrics.setdefault(name, (0.0, next(m["unit"] for m in declared["per_layer"]
                                               if m["name"] == name), 0))
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"context": context, "spans": res["tracer"].to_json()}, fh)
    else:
        metrics = end_to_end(res, setups)
        names = [m["name"] for m in declared["end_to_end"]]
    result, missing = report(metrics, names, res)
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload of BENCHMARK.json, each in its own interpreter."""
    results, code = {}, 0
    for w in spec()["workloads"]:
        cmd = [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += ["--tiny"] if args.tiny else []
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        print(out.stdout, end="", flush=True)
        code = code or out.returncode
        lines = out.stdout.strip().splitlines()
        if out.returncode not in (0, 1) or not lines:
            print(f"error: workload {w['name']} exited with {out.returncode}", file=sys.stderr)
            return out.returncode or 1
        results[w["name"]] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{name}": v for w, r in results.items()
                    for name, v in r["metrics"].items()},
    }, sort_keys=True))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    names = [w["name"] for w in spec()["workloads"]]
    if args.workload == "all":
        return run_all(args)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names} or 'all'")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
