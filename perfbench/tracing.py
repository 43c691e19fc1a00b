"""In-memory spans recorded around the benchmark's own calls into morphnn.

A span has a name, a start and end time, the index of the span that was
open when it began (its parent) and, once the run ends, its self time: the
duration minus the part of it that child spans cover.  Spans stay in memory
until ``finish()``; the caller writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import statistics
import time

MB = float(1 << 20)


class Tracer:
    """Nested spans on one thread, timed with a monotonic clock."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": self.clock(), "end": None,
               "parent": self._open[-1] if self._open else None}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = self.clock()
            self._open.pop()

    def finish(self) -> list[dict]:
        """Fill in every span's self time and return the span list."""
        children: dict[int, list[dict]] = {}
        for rec in self.spans:
            if rec["parent"] is not None:
                children.setdefault(rec["parent"], []).append(rec)
        for i, rec in enumerate(self.spans):
            rec["self"] = self_time(rec, children.get(i, []))
        return self.spans

    # -- aggregation ------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [r["end"] - r["start"] for r in self.spans if r["name"] == name]

    def self_sum(self, name: str) -> float:
        """Summed self time of the spans named ``name`` (after finish())."""
        return sum(r["self"] for r in self.spans if r["name"] == name)

    def child_sums(self, parent: str, child: str) -> list[float]:
        """Per span named ``parent``: summed durations of its direct
        children named ``child`` (one value per parent span)."""
        sums = {i: 0.0 for i, r in enumerate(self.spans)
                if r["name"] == parent}
        for r in self.spans:
            if r["name"] == child and r["parent"] in sums:
                sums[r["parent"]] += r["end"] - r["start"]
        return list(sums.values())


def self_time(span: dict, children: list[dict]) -> float:
    """Duration of ``span`` minus the union of its children's intervals,
    clipped to the span, so overlapping children are not counted twice."""
    lo, hi = span["start"], span["end"]
    covered = 0.0
    cur_lo = cur_hi = None
    for c in sorted(children, key=lambda c: c["start"]):
        a, b = max(c["start"], lo), min(c["end"], hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (hi - lo) - covered


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def graph_nodes(root) -> list:
    """Every tensor reachable from ``root`` through backward edges, leaves
    included.  Reads ``Tensor._parents``: autodiff exposes no public walk."""
    seen: set[int] = set()
    nodes = []
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(parent for parent, _ in node._parents)
    return nodes


def graph_mb(nodes) -> float:
    """Bytes of the computed (non-leaf) node outputs."""
    return sum(n.data.nbytes for n in nodes if n._parents) / MB


def retained_grad_mb(nodes) -> float:
    """Bytes of non-leaf ``.grad`` arrays still held."""
    return sum(n.grad.nbytes for n in nodes
               if n._parents and n.grad is not None) / MB
