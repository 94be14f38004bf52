"""In-memory spans for the traced benchmark run, and the per-layer sums.

A span is recorded around each call the benchmark makes into a layer of
gkserver. Its layer is the part of its name before the first dot
(`subsets.solve_system` belongs to `subsets`). Spans stay in memory
until the run ends; run.py then writes them out.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

OP = "op"                          # root span of one traced op
LIBRARY = "probe.library_pass"     # library calls behind a CLI op, run after it


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, parent id or -1, op index, start ns, end ns]
        self._stack: list[int] = []
        self.op_index = -1

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, self.op_index, 0, 0])
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid][3] = start
            self.spans[sid][4] = end

    def to_json(self) -> list[dict]:
        return [{"id": i, "name": n, "parent": p, "op": op, "start_ns": s, "end_ns": e}
                for i, (n, p, op, s, e) in enumerate(self.spans)]


def summarise(spans: list[list]) -> tuple[dict, dict]:
    """Per-name (calls, total ns) and per-layer share of traced op time.

    A layer's share is the self time of its spans under op roots, over
    the op roots' total. When the op is a CLI call, the library pass on
    the same input re-attributes CLI time to the layers beneath it, and
    what remains is the CLI's own share.
    """
    child_ns = defaultdict(int)
    root = []
    for sid, (name, parent, _, start, end) in enumerate(spans):
        root.append(sid if parent < 0 else root[parent])
        if parent >= 0:
            child_ns[parent] += end - start
    per_name: dict[str, list[int]] = {}
    layer_self = defaultdict(int)
    for sid, (name, parent, _, start, end) in enumerate(spans):
        row = per_name.setdefault(name, [0, 0])
        row[0] += 1
        row[1] += end - start
        if parent >= 0 and spans[root[sid]][0] in (OP, LIBRARY):
            layer_self[name.split(".")[0]] += end - start - child_ns[sid]
    op_ns = per_name.get(OP, [0, 0])[1]
    layer_self["cli"] -= per_name.get(LIBRARY, [0, 0])[1]
    shares = {layer: ns / op_ns for layer, ns in layer_self.items()} if op_ns else {}
    return per_name, shares
