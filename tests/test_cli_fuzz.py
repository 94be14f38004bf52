"""Property gate for bad input: mutated arguments through `cli.main`, in process.

Every mutant must end in an exit code the CLI's docstring lists for the
command, with at most one line on stderr, an `error: ` line, and raise
nothing: no traceback, and no `SystemExit` from the argument parser.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkserver.cli import main

POLICIES = ["1/2,1/2", "2/3,1/3", "1/2,1/3,1/6", "0.5,0.25,0.25", "1/4,1/4,1/4,1/4"]
# the characters of a policy string, plus any byte read as latin-1
CHARS = st.sampled_from("0123456789/,.-+e_ ") | st.characters(max_codepoint=255)


@st.composite
def mutants(draw):
    """A valid policy string after one to three byte edits, deletions, insertions or
    duplicated slices."""
    s = draw(st.sampled_from(POLICIES))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(s)))
        j = draw(st.integers(i, len(s)))
        kind = draw(st.sampled_from(["edit", "delete", "insert", "duplicate"]))
        if kind == "edit" and i < len(s):
            s = s[:i] + draw(CHARS) + s[i + 1:]
        elif kind == "delete":
            s = s[:i] + s[j:]
        elif kind == "insert":
            s = s[:i] + "".join(draw(st.lists(CHARS, min_size=1, max_size=4))) + s[i:]
        else:
            s = s[:j] + s[i:j] + s[j:]
    return s


@pytest.mark.parametrize("mode", ["exact", "iterative"])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(policy=mutants())
def test_system_exits_with_a_listed_code_and_one_error_line(mode, policy):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["system", f"--p={policy}", "--mode", mode])
        except (Exception, SystemExit) as exc:
            pytest.fail(f"--p={policy!r} raised {exc!r}; stderr {err.getvalue()!r}")
    assert code in (0, 2, 3), (policy, code)
    lines = err.getvalue().splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: ")), (policy, lines)
    assert (code == 0) == (lines == []), (policy, code, lines)
