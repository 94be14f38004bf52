#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes. Run from the repository root:

    python3 bench/selftest.py

It exits 0 when every check holds and prints each failed check otherwise:

1. every workload, untraced and traced, ends with a result line that
   holds every metric BENCHMARK.json names, each with its declared unit;
2. two traced runs with the same seed give identical counts;
3. a corrupted output (one changed h value) is counted as failed and
   never timed as a success;
4. in a directory that holds only BENCHMARK.json and bench/, the
   benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

import run

SEED = 7
EXACT_UNITS = ("count", "bits", "bytes", "steps")   # per-layer values that repeat exactly


def bench(workload: str, trace: int, cwd=run.ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "0.3", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    spec = run.spec()
    failures = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)

    for w in (w["name"] for w in spec["workloads"]):
        traced = []
        for trace, key in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
            proc = bench(w, trace)
            r = result(proc)
            declared = {m["name"]: m["unit"] for m in spec[key]}
            expect(proc.returncode == 0 and r is not None,
                   f"{w} trace={trace}: exit {proc.returncode}: {proc.stderr[-300:]}")
            if r is None:
                continue
            expect(set(r) == {"correct", "attempted", "failed", "metrics"},
                   f"{w} trace={trace}: result keys {sorted(r)}")
            expect(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                   f"{w} trace={trace}: {r['failed']} of {r['attempted']} ops failed")
            expect(set(r["metrics"]) == set(declared),
                   f"{w} trace={trace}: metrics differ from BENCHMARK.json: "
                   f"{sorted(set(r['metrics']) ^ set(declared))}")
            for name, unit in declared.items():
                got = r["metrics"].get(name, {})
                expect(got.get("unit") == unit and isinstance(got.get("value"), (int, float)),
                       f"{w} trace={trace}: {name} is {got}, expected a number in {unit}")
            if trace:
                traced.append(r["metrics"])
        if len(traced) == 2:
            for m in spec["per_layer"]:
                if m["unit"] in EXACT_UNITS:
                    a, b = (t[m["name"]]["value"] for t in traced)
                    expect(a == b, f"{w}: {m['name']} differs between runs of one seed: {a} {b}")

    workload, _ = run.setup("exact_solve", SEED, tiny=True)
    res = run.measure(workload, 0.2, traced=False, tamper=workload.tamper)
    expect(res["attempted"] >= 1 and res["failed"] == res["attempted"] and not res["ops"],
           f"tampered h: {res['failed']} of {res['attempted']} ops failed, "
           f"{len(res['ops'])} timed as successes")

    run.WORK.mkdir(exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.WORK)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, f"{bare}/bench",
                        ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
        proc = bench("simulate", 0, cwd=bare)
        expect(proc.returncode != 0 and result(proc) is None,
               f"without src/: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print(f"FAIL {f}")
    print(f"selftest: {len(failures)} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
