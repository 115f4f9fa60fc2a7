"""In-memory spans taken from the benchmark's own code.

A span records its name, start, end, parent span and request id. Spans are
opened around each public udm call the benchmark makes and, while a traced
pass runs, around the cross-layer names that families and codec import from
linalg. Per-element Field methods are never wrapped; the gf microbenchmarks
in workloads.py time those directly.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter

# (module, attribute, span name): the linalg entry points as the
# families and codec modules see them.
CROSS_LAYER = (
    ("families", "rank", "linalg.rank"),
    ("families", "stack_prefixes", "linalg.stack_prefixes"),
    ("families", "matmul", "linalg.matmul"),
    ("families", "kron", "linalg.kron"),
    ("codec", "solve", "linalg.solve"),
    ("codec", "stack_prefixes", "linalg.stack_prefixes"),
    ("codec", "matvec", "linalg.matvec"),
)
# rank and solve take the stacked matrix first; their entry counts are
# computed from the argument shape, not measured inside linalg.
_COUNTS_ENTRIES = {"linalg.rank", "linalg.solve"}

_NULL = nullcontext()


class NullTracer:
    """Tracing off: every span is a shared no-op context."""

    enabled = False
    rid = None

    def span(self, name):
        return _NULL


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, rid]
        self.stack: list[int] = []
        self.rid = None
        self.stacked_entries = 0

    def _open(self, name) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter(), None, parent, self.rid])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name):
        counts = name in _COUNTS_ENTRIES

        def wrapper(*args, **kwargs):
            if counts:
                self.stacked_entries += args[0].rows * args[0].cols
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    @contextmanager
    def patched(self, udm_modules):
        """Wrap the cross-layer names for the duration of the block only."""
        saved = []
        try:
            for mod_name, attr, span_name in CROSS_LAYER:
                mod = udm_modules[mod_name]
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, span_name))
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds, where self
        time is the duration minus the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
            dur = end - start
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - child[i]
            agg["durations"].append(dur)
        return out

    def dump(self, path):
        """Write the spans as rows; parent is an index into the rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "rid"], "spans": self.spans}, fh)
