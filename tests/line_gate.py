"""Run the tier-1 suite under a line tracer; fail if a line of src/gkserver never runs.

Usage: PYTHONPATH=src python tests/line_gate.py [extra pytest arguments]

Standard library only (coverage is not needed): sys.settrace traces the
frames of src/gkserver's files, and a file's executable lines are the
line numbers of its compiled code objects. A line may stay unrun only if
EXEMPT names it, by file and source text, with the reason. The gate
fails on any other unrun line, on an exemption that matches no unrun
line, and when the suite fails. It takes two to three times the plain
suite's time.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gkserver"

# (file, stripped source line, or None for every line of the file) -> why it may stay unrun
EXEMPT = {
    ("__main__.py", None): "`python -m gkserver` runs only in subprocess tests, untraced",
    ("cli.py", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())"):
        "the broken-pipe exit runs only in subprocess tests, untraced",
    ("cli.py", "return EXIT_BROKEN_PIPE"):
        "the broken-pipe exit runs only in subprocess tests, untraced",
    ("cli.py", "sys.exit(main())"): "runs only when cli.py is the main script",
    ("harmonic.py", "return False"): "alpha_bounds_check's bounds hold for every ell",
}


def executable_lines(path: Path) -> set[int]:
    """The line numbers of the instructions of the file's code objects (a module's first
    instruction has line 0, no line of the file)."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_run(files: set[str], args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """The suite's exit code, and the lines run in each of files."""
    ran = {name: set() for name in files}
    seen = {}  # a code object's file name -> the set of its file's lines run, or None

    def local(frame, event, arg):
        seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in seen:
            seen[filename] = ran.get(str(Path(filename).resolve()))
        return None if seen[filename] is None else local(frame, event, arg)

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def main(args: list[str]) -> int:
    paths = {str(path): path for path in sorted(SRC.glob("*.py"))}
    code, ran = traced_run(set(paths), args)
    unrun, exempt, matched, total = [], 0, set(), 0
    for name, path in paths.items():
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - ran[name]):
            text = source[line - 1].strip()
            key = next((key for key in ((path.name, None), (path.name, text)) if key in EXEMPT),
                       None)
            if key:
                matched.add(key)
                exempt += 1
            else:
                unrun.append(f"{path.name}:{line}: {text}")
    stale = [f"{name}: {text}" for name, text in EXEMPT.keys() - matched]
    print(f"line gate: {total - exempt - len(unrun)} of {total} executable lines of "
          f"src/{SRC.name} ran, {exempt} exempt, {len(unrun)} unrun; "
          f"{len(stale)} stale exemptions")
    for line in unrun:
        print(f"unrun: {line}")
    for line in stale:
        print(f"stale exemption, no unrun line matches: {line}")
    return 1 if code or unrun or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
