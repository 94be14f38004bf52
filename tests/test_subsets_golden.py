"""Golden values of the subset solver, its checks and `gkserver system`.

The digests were recorded before the system was assembled in integers;
any change to assembly, solving or checking must keep them. Rationals are
digested as hex "num/den" strings: the denominators at k = 12 run past
Python's limit on decimal conversion.
"""

import dataclasses
import hashlib
import random
from fractions import Fraction

import pytest

from conftest import random_policy
from gkserver.cli import main
from gkserver.harmonic import common_denominator, rational_to_str
from gkserver.subsets import (
    MemorylessPolicy,
    build_system,
    check_monotonicity,
    check_subset_alpha_bound,
    phi_transform,
    solve_system,
)

WEIGHTED_10 = MemorylessPolicy.from_probs(
    [Fraction(w, 154) for w in (40, 33, 29, 17, 12, 9, 7, 4, 2, 1)]
)


def _policy(label: str) -> MemorylessPolicy:
    """'u5' is the uniform policy at k = 5, 'r5' a random one from Random(1)."""
    if label == "w10":
        return WEIGHTED_10
    k = int(label[1:])
    return MemorylessPolicy.uniform(k) if label[0] == "u" else random_policy(k, random.Random(1))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rats(values) -> str:
    return ",".join(f"{x.numerator:x}/{x.denominator:x}" for x in values)


@pytest.mark.parametrize("label, mode, h_digest, phi_digest", [
    ("u1", "exact", "f79525b6854e6fda", "b0493c5caf6f3a93"),
    ("u2", "exact", "f3c527786186ee67", "80e6f3d097b38a3c"),
    ("u3", "exact", "f8a289e5e60e559e", "7bd922c4f2bc6405"),
    ("u4", "exact", "1ee0e4927d40071a", "b1823a99773b9d59"),
    ("u5", "exact", "0d25443a8b019dd3", "861b281ae83cf22b"),
    ("u6", "exact", "ceedb3f0d0ebcebf", "d379babe1969877d"),
    ("u7", "exact", "60a55d6c304a44c9", "e33416bf7150cd42"),
    ("u8", "exact", "680d031fe88dd04f", "da7ff4640eccd1e9"),
    ("u9", "exact", "6e5399379d62430f", "d0a792e330e39e6a"),
    ("u10", "exact", "697888eba537380a", "7c10a4daf6ec186d"),
    ("r2", "exact", "cdf11e1c4bff804d", "30be9d8a536668d3"),
    ("r3", "exact", "48ef96168501424a", "0aba6bee6e8251a0"),
    ("r4", "exact", "fa825df8eb473993", "f8fe82cdbdf229d5"),
    ("r5", "exact", "b6d8415d9cadd0a6", "e290f90815ca0af0"),
    ("r6", "exact", "941788e6dc191ca7", "590cd26c9dbb3adb"),
    ("r7", "exact", "da079d3fce054c5f", "038f097aa9e90850"),
    ("r8", "exact", "ea07313c009ec085", "d033f9ef89efcb7b"),
    ("r9", "exact", "1d4725e1308c37fa", "8848de82b7a7c774"),
    ("r10", "exact", "e9ba1f22d5d8c2e7", "bcadd652e3457cb5"),
    ("r12", "exact", "ff578f4b4a70cf21", "2b5d5cb62b9422dc"),
    ("u11", "iterative", "6f49be1223a19664", "799d929b3d568505"),
    ("w10", "iterative", "9e61f6b2c429ce7c", "1b7361239d503ae5"),
])
def test_solution_and_phi_golden(label, mode, h_digest, phi_digest):
    sol = solve_system(_policy(label), mode=mode)
    text = f"{_rats(sol.h)};{sol.iterations};{rational_to_str(sol.max_residual)}"
    assert _digest(text) == h_digest
    assert _digest(_rats(phi_transform(sol))) == phi_digest


@pytest.mark.parametrize("label, digest", [
    ("u3", "24b43dc7f4c11fa1"),
    ("r5", "5c6ac2d10e37aa35"),
    ("w10", "6c8bf85875f899a7"),
])
def test_rows_view_golden(label, digest):
    """The Fraction rows, items and coefficients in their stored order."""
    assert _digest(repr(list(build_system(_policy(label)).rows.items()))) == digest


@pytest.mark.parametrize("argv, json_digest, csv_digest", [
    (["system", "--p", "2/5,3/10,1/5,1/10"], "9141404b9757b02d", "ee24a5d8a68b9182"),
    (["system", "--p", "1/3,1/3,1/3", "--mode", "iterative"],
     "1b20ee3843d0519e", "50e921c3b749e522"),
    (["system", "--p", "1/2,1/4,1/8,1/8", "--mode", "iterative", "--tolerance", "1e-20"],
     "0cefe56d005aa761", "50ae76d5f2d8ff50"),
], ids=["exact", "iterative", "iterative-tight"])
def test_cli_system_bytes_golden(argv, json_digest, csv_digest, tmp_path, capsys):
    out, csv = tmp_path / "o.json", tmp_path / "h.csv"
    assert main(["--out", str(out), *argv, "--csv", str(csv)]) == 0
    assert _digest(out.read_text()) == json_digest
    assert _digest(csv.read_text()) == csv_digest
    assert main(argv) == 0
    assert _digest(capsys.readouterr().out) == json_digest


def _check_outcomes(sol):
    try:
        phi = phi_transform(sol)
    except ValueError as exc:
        phi = str(exc)
    return check_monotonicity(sol), check_subset_alpha_bound(sol), phi


@pytest.mark.parametrize("mode", ["exact", "iterative"])
def test_checks_agree_on_rederived_scaling(mode):
    """A copy of a solution derives its own (delta, x) from h; every check agrees.

    A tampered copy, whose checks report violations, gives the same
    outcomes with any common denominator, not only the lcm.
    """
    rng = random.Random(5)
    mono = bound = 0
    for k in (1, 2, 3, 5, 7):
        sol = solve_system(random_policy(k, rng), mode=mode)
        assert _check_outcomes(dataclasses.replace(sol)) == _check_outcomes(sol)
        h = list(sol.h)
        h[1] += Fraction(7, 3)
        tampered = dataclasses.replace(sol, h=tuple(h))
        delta, x = tampered.scaled
        rescaled = dataclasses.replace(tampered)
        rescaled.__dict__["scaled"] = 6 * delta, [6 * v for v in x]
        outcomes = _check_outcomes(tampered)
        assert _check_outcomes(rescaled) == outcomes
        mono += bool(outcomes[0])
        bound += bool(outcomes[1])
        assert isinstance(outcomes[2], str)  # the shifted h(1) breaks an equation
    assert mono and bound


def test_exact_scaling_is_the_lcm_form():
    rng = random.Random(6)
    for k in range(1, 9):
        for policy in (MemorylessPolicy.uniform(k), random_policy(k, rng)):
            sol = solve_system(policy)
            assert sol.scaled == common_denominator(sol.h)
