"""Per-layer tracing of bosecount from outside the package.

``Tracer.install`` wraps every public function of the six bosecount
modules and rebinds the wrapper in every loaded bosecount module that
holds the original, because ``cli`` and ``verification`` import their
callees by name.  Each call records a span (id, parent id, operation id,
name, start, end) in memory, plus per-function totals: calls, inclusive
busy time, the part of it covered by nested wrapped calls, returned
entries and the size of returned log-factorial tables.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("numerics", "distributions", "dynamics", "oracles", "verification", "cli")

# Spans kept in memory per process; calls beyond it still count in the
# totals.  A verify round makes about 1e5 wrapped calls.
MAX_SPANS = 400_000


class Tracer:
    def __init__(self) -> None:
        self.totals: dict[str, dict[str, float]] = {}
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.op_id = -1
        self._stack: list[list] = []
        self._next_id = 0

    def install(self) -> None:
        """Wrap the public functions of every layer; imports the package."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"bosecount.{layer}")
            for name in module.__all__:
                func = getattr(module, name)
                if inspect.isfunction(func) and func.__module__ == module.__name__:
                    wrappers[id(func)] = self._wrap(f"{layer}.{name}", func)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "bosecount" or mod_name.startswith("bosecount."):
                for attr, value in list(vars(module).items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None:
                        setattr(module, attr, wrapper)

    def _wrap(self, qualname: str, func):
        totals = self.totals.setdefault(qualname, {
            "calls": 0, "busy_s": 0.0, "nested_s": 0.0, "entries": 0, "table_bytes": 0})
        stack = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                busy = end - start
                if parent is not None:
                    parent[1] += busy
                totals["calls"] += 1
                totals["busy_s"] += busy
                totals["nested_s"] += frame[1]
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((span_id, parent[0] if parent else None,
                                       self.op_id, qualname, start, end))
                else:
                    self.spans_dropped += 1
            _count_output(totals, result)
            return result

        return traced

    def dump(self) -> dict:
        return {"totals": self.totals, "spans": self.spans,
                "spans_dropped": self.spans_dropped}


def _count_output(totals: dict, result) -> None:
    probs = getattr(result, "probs", None)
    if probs is not None:
        totals["entries"] += len(probs)
    elif hasattr(result, "nbytes") and getattr(result, "ndim", 0) == 1:
        totals["entries"] += len(result)
        # a log-factorial table is handed out as a view of its cache
        held = result.base if getattr(result, "base", None) is not None else result
        totals["table_bytes"] = max(totals["table_bytes"], int(held.nbytes))


def merge(into: dict, dumped: dict, op_id: int, id_offset: int) -> int:
    """Add a child process's dump to ``into``; returns the next id offset."""
    for name, row in dumped["totals"].items():
        acc = into["totals"].setdefault(name, dict.fromkeys(row, 0))
        for key, value in row.items():
            acc[key] = max(acc[key], value) if key == "table_bytes" else acc[key] + value
    top = id_offset
    for span_id, parent, _, name, start, end in dumped["spans"]:
        into["spans"].append((span_id + id_offset,
                              None if parent is None else parent + id_offset,
                              op_id, name, start, end))
        top = max(top, span_id + id_offset + 1)
    into["spans_dropped"] += dumped["spans_dropped"]
    return top
