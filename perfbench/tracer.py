"""Spans and counts recorded around catparse's functions from outside the package.

``Tracer.patch`` replaces a function at the name its callers look it up by
(a module attribute or a class attribute) with a wrapper that records one
span per call: its name, start, end and the span open when it started.
Spans are kept in flat arrays in memory and written out once, after the
run. Counts are recorded by hooks at the same boundaries.

A layer's self time is its span minus the part of that span its child
spans cover. A layer's total counts each call once: a span nested inside
another span of the same name (``load_model`` calling ``read_container``)
adds nothing to it.
"""
from __future__ import annotations

import json
import statistics
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable

CountHook = Callable[[Counter, tuple, dict, object], None]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, count: CountHook | None = None) -> Callable:
        """``fn`` with one span per call; ``count`` sees the call's result."""
        name_id = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        open_spans, counts = self._open, self.counts

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0.0)
            open_spans.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                open_spans.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: object, attr: str, name: str | None, count: CountHook | None = None) -> None:
        """Replace ``owner.attr``; with no span name, only ``count`` runs."""
        original = vars(owner)[attr]
        if name is not None:
            replacement = self.wrap(name, original, count)
        else:
            counts = self.counts

            def replacement(*args, **kwargs):
                result = original(*args, **kwargs)
                count(counts, args, kwargs, result)
                return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, and call durations."""
        return summarize(self.names, self.name, self.parent, self.start, self.end)

    def dump(self, path) -> None:
        """Write every span as one JSON object of parallel lists."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name.tolist(),
                    "parent": self.parent.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "counts": dict(self.counts),
                },
                handle,
            )


def covered(children: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] that the union of the child intervals covers."""
    total = 0.0
    reach = lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(names, name, parent, start, end) -> dict[str, dict]:
    count = len(start)
    children: dict[int, list[tuple[float, float]]] = {}
    for i in range(count):
        if parent[i] >= 0:
            children.setdefault(parent[i], []).append((start[i], end[i]))
    out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []} for n in names}
    for i in range(count):
        entry = out[names[name[i]]]
        duration = end[i] - start[i]
        entry["self_s"] += duration - covered(children.get(i, []), start[i], end[i])
        ancestor = parent[i]
        while ancestor >= 0 and name[ancestor] != name[i]:
            ancestor = parent[ancestor]
        if ancestor < 0:
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["durations"].append(duration)
    return out


def percentile_ms(durations: list[float], q: int) -> float:
    """The q-th percentile of call durations in milliseconds (0 with no calls)."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1000.0
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1000.0
