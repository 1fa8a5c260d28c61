"""In-memory spans and counters for the traced benchmark run.

Spans are recorded around calls from one module of the program into another
by replacing a function where the caller looks it up (the calling module's
global, or a class attribute for methods) with a wrapper.  Nothing inside the
program changes; `restore` puts every original back.  A span's self time is
its duration minus the durations of the spans it directly caused.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        # Each span is [name, op id, parent index or -1, start, end].
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, on_call=None, on_result=None) -> None:
        """Record a span named `name` around every call of `owner.attr`.

        `on_call(args, kwargs)` and `on_result(result)` may add counts.
        """
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            index = len(spans)
            spans.append([name, self.op_id, stack[-1] if stack else -1, perf_counter(), 0.0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][4] = perf_counter()
            if on_result is not None:
                on_result(result)
            return result

        self._patch(owner, attr, wrapper)

    def counter(self, owner, attr: str, name: str, inside: str | None = None) -> None:
        """Count calls of `owner.attr` (only those made inside an open span
        named `inside`, when given) without opening a span."""
        fn = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if inside is None or self.current() == inside:
                counts[name] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, _, _, start, end), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out

    def write(self, path, limit: int = 100_000) -> None:
        """Write the first `limit` spans, one JSON array per line, times in
        microseconds from the first span."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, op, parent, start, end in self.spans[:limit]:
                fh.write(
                    json.dumps([name, op, parent, round((start - t0) * 1e6, 1), round((end - t0) * 1e6, 1)])
                    + "\n"
                )
