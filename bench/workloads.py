"""The four workloads of the gkserver benchmark.

A workload is a fixed cycle of op classes. One client runs the ops back
to back, in one process and one thread: a closed loop, where each op
starts when the previous one has ended. The input of op i depends only
on the seed and on i, so a seed fixes every input of a run.

The measuring loop in run.py times `op`, then calls `check` outside the
timed span. `check` says whether the output is right and returns the
op's counts. In the traced run, `check` and `probe` wrap their calls in
spans as well; those probe spans split an op into its layers.

How the cycles are mixed: within one workload, op cost varies up to 20x
between classes (k = 8 against k = 10) and up to 2x between random
policies of one class. A percentile that falls on the edge between two
classes, or among a handful of random policies, jumps with the seed.
Each cycle is therefore weighted so that the p50 and p90 ranks of op
latency fall well inside one class that has many samples or a fixed
input. The costly random-policy classes are few per cycle and weigh
most in ops_per_s. Where every class can be made to cost about the same
(simulate, trace_audit), the phase counts do that instead.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import tempfile
import time
from fractions import Fraction

import numpy as np

from gkserver import cli
from gkserver.chains import binary_chain, binary_eet
from gkserver.harmonic import alpha
from gkserver.potential import PotentialContext, verify_trace
from gkserver.simulate import (
    ExperimentConfig,
    MetricSpec,
    PolicySampler,
    read_trace_csv,
    run,
    write_trace_csv,
)
from gkserver.subsets import (
    DEFAULT_TOLERANCE,
    MemorylessPolicy,
    build_system,
    check_monotonicity,
    check_subset_alpha_bound,
    competitive_gap,
    lower_bound_hk,
    solve_system,
)


def random_policy(k: int, rng: random.Random, max_weight: int = 40) -> MemorylessPolicy:
    """Integer weights 1..max_weight, normalised: the draw of tests/conftest.py."""
    weights = [rng.randint(1, max_weight) for _ in range(k)]
    total = sum(weights)
    return MemorylessPolicy.from_probs([Fraction(w, total) for w in weights])


def policy_for(label: str, rng: random.Random) -> MemorylessPolicy:
    """'u10' is the uniform policy at k = 10, 'r10' a random one."""
    k = int(label[1:])
    return MemorylessPolicy.uniform(k) if label[0] == "u" else random_policy(k, rng)


def solve_counts(sol, system) -> dict:
    return {
        "subsets.h_den_bits_max": max(x.denominator.bit_length() for x in sol.h),
        "subsets.nnz": sum(len(coeffs) for coeffs, _ in system.rows.values()),
        "subsets.unknowns": len(system.rows),
    }


def phase_length_sd(a: np.ndarray, h: np.ndarray, start: int) -> float:
    """Standard deviation of the hitting time from `start`.

    `a` is I - P over the transient states and `h` the expected hitting
    times (a h = 1). The second moments m solve a m = 2h - 1.
    """
    m = np.linalg.solve(a, 2 * h - 1)
    return float(np.sqrt(m[start] - h[start] ** 2))


class Workload:
    """Defaults for the optional parts of a workload."""

    name = ""
    why = ""
    cycle: tuple[str, ...] = ()

    def op_rng(self, i: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{i}")

    def probe(self, inp, out, span) -> dict:
        """Extra traced-run calls; returns timing-derived values."""
        return {}

    def close(self) -> None:
        pass


class ExactSolve(Workload):
    name = "exact_solve"
    why = ("exact solves plus the checks of `gkserver system`: the criterion-5 and sweep "
           "traffic, most of tier-1 time; uniform policies have small denominators, random "
           "ones about 1 k bits (k = 8) and 5 k bits (k = 10), so a change to the arithmetic "
           "shows how its gain scales with denominator size. p50 lands on random k = 8, p90 "
           "on uniform k = 10; random k = 10 weighs most in ops_per_s.")

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        small, large = (3, 4) if tiny else (8, 10)
        half = (f"u{small}", *[f"r{small}"] * 14, *[f"u{large}"] * 4)
        self.cycle = (*half, *half, f"r{large}")
        self.ka = {k: k * alpha(k) for k in (small, large)}

    def make_input(self, i: int, label: str):
        return policy_for(label, self.op_rng(i))

    def op(self, policy, span):
        with span("subsets.solve_system"):
            sol = solve_system(policy)
        with span("subsets.lower_bound_hk"):
            bound = lower_bound_hk(policy)
        with span("subsets.competitive_gap"):
            gap = competitive_gap(policy, sol)
        with span("subsets.check_monotonicity"):
            mono = check_monotonicity(sol)
        with span("subsets.check_subset_alpha_bound"):
            alpha_bound = check_subset_alpha_bound(sol)
        return sol, bound, gap, mono, alpha_bound

    def check(self, policy, out, span):
        sol, bound, gap, mono, alpha_bound = out
        with span("subsets.build_system"):
            system = build_system(policy)
        with span("subsets.residual"):
            residual = system.residual(sol.h)
        ka = self.ka[policy.k]
        ok = (residual == 0 and sol.h_k >= bound and gap == sol.h_k - ka
              and (sol.h_k == ka if policy.is_uniform else sol.h_k > ka)
              and not mono and not alpha_bound)
        return ok, solve_counts(sol, system)

    @staticmethod
    def tamper(out):
        """Change one h value; the residual check catches it."""
        sol = out[0]
        h = list(sol.h)
        h[1] += 1
        return (dataclasses.replace(sol, h=tuple(h)),) + out[1:]


class IterativeSolve(Workload):
    name = "iterative_solve"
    why = ("solve_system(mode='iterative') at the default tolerance: the same _eliminate "
           "core as exact_solve in float64 plus an exact residual per pass, the target of "
           "ROADMAP item 5; it also exposes a change to the shared core that speeds one "
           "path and slows the other. p50 and p90 land on uniform k = 12; the random "
           "policies, whose pass counts vary, weigh most in ops_per_s.")

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        small, large = (4, 5) if tiny else (11, 12)
        self.cycle = (f"u{small}", f"r{small}", *[f"u{large}"] * 8, f"r{large}")
        self.ka = {k: k * alpha(k) for k in (small, large)}

    def make_input(self, i: int, label: str):
        return policy_for(label, self.op_rng(i))

    def op(self, policy, span):
        with span("subsets.solve_system"):
            return solve_system(policy, mode="iterative")

    def check(self, policy, sol, span):
        with span("subsets.build_system"):
            system = build_system(policy)
        with span("subsets.residual"):
            residual = system.residual(sol.h)
        tol = DEFAULT_TOLERANCE
        error_bound = residual * (1 + max(sol.h))
        ok = (residual == sol.max_residual and error_bound < tol
              and (not policy.is_uniform or abs(sol.h_k - self.ka[policy.k]) < tol))
        counts = solve_counts(sol, system)
        counts["subsets.refine_passes"] = sol.iterations
        counts["subsets.error_bound_over_tol"] = float(error_bound / tol)
        return ok, counts


class Simulate(Workload):
    name = "simulate"
    why = ("run() with no trace, one config at one seed per op: mean phase length goes from "
           "4 steps (k = 2) to about 2 k steps (k = 6), so per-phase stream setup dominates "
           "at k = 2 and the step loop at k = 6; ROADMAP item 3 could change either.")

    # (adversary, policy, points per metric, phases per op); the phase counts
    # give every config about the same op time (40-45 ms on a 2-vCPU Xeon).
    CONFIGS = {
        "lb2": ("lower_bound", ("1/2",) * 2, 3, 1200),
        "lb4": ("lower_bound", ("1/4",) * 4, 3, 500),
        "lb6": ("lower_bound", ("1/6",) * 6, 3, 25),
        "n2k4": ("n2", ("1/4",) * 4, 2, 1000),
        "skew3": ("lower_bound", ("1/2", "1/3", "1/6"), 3, 800),
    }
    BAND_SD = 6          # allowed distance of the mean phase length, in exact SEs
    STREAM_PROBES = 20   # PolicySampler constructions per traced op

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.cycle = tuple(self.CONFIGS)
        self.configs = {}
        self.expected = {}
        for label, (adversary, probs, n, phases) in self.CONFIGS.items():
            policy = MemorylessPolicy.from_probs([Fraction(p) for p in probs])
            k = policy.k
            phases = max(2, phases // 50) if tiny else phases
            self.configs[label] = ExperimentConfig(
                spec=MetricSpec(n=(n,) * k), policy=policy, adversary=adversary,
                phases=phases, seed=0)
            self.expected[label] = self._phase_length(adversary, policy)

    @staticmethod
    def _phase_length(adversary: str, policy: MemorylessPolicy):
        """Exact mean phase length and its float standard deviation."""
        k = policy.k
        if adversary == "n2":
            chain = binary_chain(k)
            a = np.zeros((k, k))
            for i in range(k):
                a[i, i] = float(chain.up[i] + chain.down[i])
                if i:
                    a[i, i - 1] = -float(chain.down[i])
                if i + 1 < k:
                    a[i, i + 1] = -float(chain.up[i])
            h = np.linalg.solve(a, np.ones(k))
            return binary_eet(k, 1), phase_length_sd(a, h, 0)
        sol = solve_system(policy)
        system = build_system(policy)
        n = len(system.rows)
        a = np.zeros((n, n))
        for mask, (coeffs, _) in system.rows.items():
            for c, v in coeffs.items():
                a[mask - 1, c - 1] = float(v)
        h = np.array([float(x) for x in sol.h[1:]])
        return sol.h_k, phase_length_sd(a, h, (1 << (k - 1)) - 1)

    def make_input(self, i: int, label: str):
        seed = self.op_rng(i).randrange(2**31)
        return label, dataclasses.replace(self.configs[label], seed=seed)

    def op(self, inp, span):
        with span("simulate.run"):
            summary, _ = run(inp[1])
        return summary

    def check(self, inp, summary, span):
        label, config = inp
        mean, sd = self.expected[label]
        band = self.BAND_SD * sd / config.phases ** 0.5
        ok = (not summary.exhausted and summary.phases == config.phases
              and summary.adv_cost == summary.phases and summary.alg_cost == summary.steps
              and abs(summary.mean_phase_length - float(mean)) <= band)
        return ok, {"simulate.steps": summary.steps, "simulate.phases": summary.phases,
                    "simulate.steps_per_phase": summary.steps / summary.phases}

    def probe(self, inp, summary, span):
        """Time the per-phase stream setup that run() repeats once a phase."""
        config = inp[1]
        with span("simulate.stream_setup"):
            start = time.perf_counter()
            for j in range(self.STREAM_PROBES):
                PolicySampler(config.policy, (config.seed, j))
            elapsed = time.perf_counter() - start
        return {"simulate.stream_setup_us": 1e6 * elapsed / self.STREAM_PROBES}


class TraceAudit(Workload):
    name = "trace_audit"
    why = ("the user's CLI path in-process: `simulate` with emit_trace, then `verify` on the "
           "trace it wrote, uniform lower_bound at k = 3 (criterion-9 traffic) and k = 5; the "
           "only workload that reaches potential and cli, and the trace branch of run(). "
           "p50 and p90 land on k = 3; k = 5 weighs in the mean.")

    # k -> phases per op. A k = 3 op costs about 2.5 k = 5 ops (about 210 ms
    # against 75 ms on a 2-vCPU Xeon): the k = 5 op's step count spreads widely
    # (a few long phases), so it is kept below the k = 3 ops, out of the p50
    # and p90 ranks.
    PHASES = {3: 250, 5: 4}

    def __init__(self, seed: int, tiny: bool, work_root: str):
        self.seed = seed
        self.dir = tempfile.mkdtemp(prefix=f"{self.name}-", dir=work_root)
        self.cycle = ("k5", "k3", "k3", "k3")
        self.paths = {}
        self.configs = {}
        for k, phases in self.PHASES.items():
            label = f"k{k}"
            path = os.path.join(self.dir, label)
            d = {"k": k, "n": [3] * k, "policy": [f"1/{k}"] * k, "adversary": "lower_bound",
                 "phases": max(1, phases // 50) if tiny else phases, "seed": 0,
                 "emit_trace": True, "trace_path": path + ".trace.csv"}
            with open(path + ".json", "w") as fh:
                json.dump(d, fh)
            self.configs[label] = ExperimentConfig.from_dict(d)
            self.paths[label] = path

    def make_input(self, i: int, label: str):
        return label, self.op_rng(i).randrange(2**31)

    def op(self, inp, span):
        label, seed = inp
        path = self.paths[label]
        with span("cli.simulate"):
            rc_sim = cli.main(["--out", path + ".summary.json", "--seed", str(seed),
                               "simulate", path + ".json"])
        with span("cli.verify"):
            rc_verify = cli.main(["--out", path + ".report.json", "verify",
                                  path + ".trace.csv"])
        return rc_sim, rc_verify

    def check(self, inp, out, span):
        path = self.paths[inp[0]]
        with open(path + ".summary.json") as fh:
            summary = json.load(fh)
        with open(path + ".report.json") as fh:
            report = json.load(fh)
        ok = (out == (0, 0) and report["ok"] and report["steps"] == summary["steps"]
              and report["alg_cost"] == summary["alg_cost"]
              and report["adv_cost"] == summary["adv_cost"] == summary["phases"])
        return ok, {"simulate.steps": summary["steps"], "simulate.phases": summary["phases"],
                    "simulate.steps_per_phase": summary["steps"] / summary["phases"],
                    "simulate.trace_bytes": os.path.getsize(path + ".trace.csv"),
                    "potential.hard_violations": len(report["hard_violations"])}

    def probe(self, inp, out, span):
        """The library calls behind the two CLI calls, on the same seed."""
        label, seed = inp
        path = self.paths[label] + ".library.csv"
        with span("probe.library_pass"):
            with span("simulate.run"):
                _, trace = run(dataclasses.replace(self.configs[label], seed=seed))
            with span("simulate.write_trace_csv"):
                write_trace_csv(trace, path)
            with span("simulate.read_trace_csv"):
                trace = read_trace_csv(path)
            with span("potential.context"):
                ctx = PotentialContext.for_k(trace.k)
            with span("potential.verify_trace"):
                report = verify_trace(trace, ctx)
        if not report.ok:
            raise AssertionError("library audit of a CLI-verified trace failed")
        return {}

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (ExactSolve, IterativeSolve, Simulate, TraceAudit)}


def make(name: str, seed: int, tiny: bool, work_root: str) -> Workload:
    if name == TraceAudit.name:
        return TraceAudit(seed, tiny, work_root)
    return WORKLOADS[name](seed, tiny)
