"""Golden outputs of run(): summaries and trace bytes pinned for fixed seeds.

The values were recorded from the per-phase loop that predates the
mask-walk kernel; the kernel must reproduce them exactly (same draws,
same summary floats, byte-identical trace CSV).
"""

import hashlib
import json
from fractions import Fraction

import pytest

from gkserver.cli import EXIT_BUDGET, EXIT_OK, main
from gkserver.simulate import ExperimentConfig, run, write_trace_csv


def _cfg(k, n, policy, adversary, phases, seed, **extra):
    d = {"k": k, "n": n if isinstance(n, list) else [n] * k, "policy": policy,
         "adversary": adversary, "phases": phases, "seed": seed}
    d.update(extra)
    return d


CONFIGS = {
    # the five configs of the benchmark's simulate cycle, at small phase counts
    "lb2": _cfg(2, 3, ["1/2"] * 2, "lower_bound", 60, 11),
    "lb4": _cfg(4, 3, ["1/4"] * 4, "lower_bound", 20, 12),
    "lb6": _cfg(6, 3, ["1/6"] * 6, "lower_bound", 4, 20),
    "n2k4": _cfg(4, 2, ["1/4"] * 4, "n2", 40, 14),
    "skew3": _cfg(3, 3, ["1/2", "1/3", "1/6"], "lower_bound", 40, 15),
    # more than two 1024-phase seeding blocks
    "lb2_blocks": _cfg(2, 3, ["1/2"] * 2, "lower_bound", 2100, 16),
    # weights up to 10^6: a common denominator of 2265432
    "weights_1e6": _cfg(3, 3, ["1000000/2265432", "765433/2265432", "499999/2265432"],
                        "lower_bound", 30, 17),
    # ends by the step budget in the middle of a phase
    "max_steps": _cfg(4, 3, ["1/4"] * 4, "lower_bound", 10**6, 19, max_steps=777),
    # seeds of two words and of seven words (longer than the 4-word pool)
    "seed_2_40": _cfg(3, 3, ["1/3"] * 3, "lower_bound", 30, 2**40),
    "seed_2_200": _cfg(3, 2, ["1/3"] * 3, "n2", 30, 2**200),
}

GOLDEN = {
    "lb2": {"alg_cost": 194, "adv_cost": 60, "ratio": "97/30", "phases": 60,
            "mean_phase_length": 3.2333333333333334, "max_phase_length": 29,
            "phase_length_se": 0.5499700385607393, "steps": 194, "exhausted": False},
    "lb4": {"alg_cost": 1332, "adv_cost": 20, "ratio": "333/5", "phases": 20,
            "mean_phase_length": 66.6, "max_phase_length": 201,
            "phase_length_se": 14.927791108145271, "steps": 1332, "exhausted": False},
    "lb6": {"alg_cost": 3848, "adv_cost": 4, "ratio": "962/1", "phases": 4,
            "mean_phase_length": 962.0, "max_phase_length": 2876,
            "phase_length_se": 677.6492455540698, "steps": 3848, "exhausted": False},
    "n2k4": {"alg_cost": 654, "adv_cost": 40, "ratio": "327/20", "phases": 40,
             "mean_phase_length": 16.35, "max_phase_length": 65,
             "phase_length_se": 2.3851974062258803, "steps": 654, "exhausted": False},
    "skew3": {"alg_cost": 959, "adv_cost": 40, "ratio": "959/40", "phases": 40,
              "mean_phase_length": 23.975, "max_phase_length": 128,
              "phase_length_se": 4.338629037273977, "steps": 959, "exhausted": False},
    "lb2_blocks": {"alg_cost": 8470, "adv_cost": 2100, "ratio": "121/30", "phases": 2100,
                   "mean_phase_length": 4.033333333333333, "max_phase_length": 46,
                   "phase_length_se": 0.10117805454737513, "steps": 8470, "exhausted": False},
    "weights_1e6": {"alg_cost": 952, "adv_cost": 30, "ratio": "476/15", "phases": 30,
                    "mean_phase_length": 31.733333333333334, "max_phase_length": 141,
                    "phase_length_se": 6.3167235311182, "steps": 952, "exhausted": False},
    "max_steps": {"alg_cost": 770, "adv_cost": 12, "ratio": "385/6", "phases": 12,
                  "mean_phase_length": 64.16666666666667, "max_phase_length": 294,
                  "phase_length_se": 24.678795134546768, "steps": 777, "exhausted": True},
    "seed_2_40": {"alg_cost": 354, "adv_cost": 30, "ratio": "59/5", "phases": 30,
                  "mean_phase_length": 11.8, "max_phase_length": 60,
                  "phase_length_se": 3.17801354857756, "steps": 354, "exhausted": False},
    "seed_2_200": {"alg_cost": 238, "adv_cost": 30, "ratio": "119/15", "phases": 30,
                   "mean_phase_length": 7.933333333333334, "max_phase_length": 31,
                   "phase_length_se": 1.6378661007495923, "steps": 238, "exhausted": False},
}

TRACE_SHA256 = {
    # the config of acceptance criterion 10
    "criterion_10": (_cfg(3, 3, ["1/3"] * 3, "lower_bound", 500, 1010, emit_trace=True),
                     "8284eb463faf02fbd79becb5f2bda7d6fd54b20b3dc0ea835d2841fc243daff5"),
    "n2k4": (_cfg(4, 2, ["1/4"] * 4, "n2", 200, 5, emit_trace=True),
             "b0ea72b30083399055fb0f1bca2b336521327240636a8f659ca03c447c01e075"),
    # k = 1: every phase is one step
    "lb1": (_cfg(1, 3, ["1"], "lower_bound", 50, 21, emit_trace=True),
            "13c3f88f22a71b7e2dfaadc639eef492c065adc748cfe6da195742ca6936fbdd"),
    # the k = 5 shape of the benchmark's trace_audit workload
    "lb5": (_cfg(5, 3, ["1/5"] * 5, "lower_bound", 4, 22, emit_trace=True),
            "698d9b764a137c2e02318e2d8d8f4d6debd6e6d4426c1cadb7253a26e8c2b275"),
    # a skewed policy over metrics of 5, 4 and 3 points
    "skew_n543": (_cfg(3, [5, 4, 3], ["1/2", "1/3", "1/6"], "lower_bound", 40, 23,
                       emit_trace=True),
                  "52e79498237aa5bfa40bde16bf7b7f49894882528e22975744fb1d861db3159c"),
    "n2k6": (_cfg(6, 2, ["1/6"] * 6, "n2", 30, 24, emit_trace=True),
             "859b8095f911fe2e0629b7d6d289d6ec84ed9d5886b9240444908cde68cb7524"),
    # ends by the step budget in the middle of a phase
    "max_steps": (_cfg(4, 3, ["1/4"] * 4, "lower_bound", 10**6, 19, max_steps=777,
                       emit_trace=True),
                  "5a73d423f114b701e65db9080378942df6138f8d3a6d72d8e29d9a993730b3c1"),
    # metric bits above 2^63, cut by the step budget inside the first phase
    "k64_max_steps": (_cfg(64, 3, ["1/64"] * 64, "lower_bound", 5, 25, max_steps=500,
                           emit_trace=True),
                      "dd7546054e240d4cb9121184d6da47098c94b7be7e986c1389b31dd70bdbf809"),
    # long phases walked in wide rounds: up to 40 lanes of three-draw grams a _draws call
    "lb6_wide": (_cfg(6, 3, ["1/6"] * 6, "lower_bound", 40, 26, emit_trace=True),
                 "b346e9fbc1043ec38757269b8b337fbe70a74783ddb6d42634ca14daaf6aae51"),
    # two-byte masks and two-draw grams, up to 64 lanes a _draws call
    "n2k9_wide": (_cfg(9, 2, ["1/9"] * 9, "n2", 64, 27, emit_trace=True),
                  "9238039a18d4b2d4a222ad2033e44b8fd90936f10eb29203d43527e4b721e12e"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_summary_golden(name):
    cfg = ExperimentConfig.from_dict(CONFIGS[name])
    summary, trace = run(cfg)
    assert trace is None
    golden = GOLDEN[name]
    assert summary.to_dict() == {
        **golden,
        "ratio_float": float(Fraction(golden["ratio"])),
        "seed": cfg.seed,
        "policy": list(cfg.policy.as_strs()),
        "adversary": cfg.adversary,
        "k": cfg.spec.k,
        "n": list(cfg.spec.n),
    }


@pytest.mark.parametrize("name", sorted(TRACE_SHA256))
def test_trace_csv_golden_sha256(name, tmp_path):
    d, digest = TRACE_SHA256[name]
    summary, trace = run(ExperimentConfig.from_dict(d))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    # the trace-less run draws the same summary
    assert run(ExperimentConfig.from_dict({**d, "emit_trace": False}))[0] == summary


@pytest.mark.parametrize("name", sorted(TRACE_SHA256))
def test_cli_trace_golden_sha256(name, tmp_path, capsys):
    # gkserver simulate writes each step's line from its row's text, without a TraceStep
    d, digest = TRACE_SHA256[name]
    path = tmp_path / "trace.csv"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**d, "trace_path": str(path)}))
    summary, _ = run(ExperimentConfig.from_dict({**d, "emit_trace": False}))
    assert main(["simulate", str(config)]) == (EXIT_BUDGET if summary.exhausted else EXIT_OK)
    assert json.loads(capsys.readouterr().out) == summary.to_dict()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
