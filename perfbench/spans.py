"""In-memory spans around the package's public entry points.

``Tracer.patched`` replaces each entry point, at the name its callers look
up, with a wrapper that records ``[name, start, end, parent]``; leaving the
context restores the originals.  Nothing inside the package changes.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    @contextmanager
    def patched(self, targets):
        """``targets``: (object, attribute, span name) triples."""
        saved = []
        try:
            for obj, attr, name in targets:
                orig = getattr(obj, attr)
                saved.append((obj, attr, orig))
                setattr(obj, attr, self.wrap(name, orig))
            yield self
        finally:
            for obj, attr, orig in reversed(saved):
                setattr(obj, attr, orig)

    def summary(self, since: int = 0):
        """Self time (s) and call count per span name, for spans[since:]."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans[since:]:
            if parent >= since:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans[since:], since):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
        return self_s, calls

    def dump(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
