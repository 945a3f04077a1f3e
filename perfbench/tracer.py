"""In-memory spans and counts recorded around calls into lorae_sim's layers.

The tracer replaces a module-level function with a wrapper *in the
namespace of the module that calls it* (``engine.generate_schedule``, not
``traffic.generate_schedule``), because that is the name the caller looks
up at call time.  Nothing under ``src/`` is edited; every replaced
attribute is put back by :meth:`Tracer.restore`.

A span is ``(name, start_ns, end_ns, parent)`` where ``parent`` is the
index of the span that was open when this one started, or -1.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Sequence

Span = tuple[str, int, int, int]
OnReturn = Callable[[Counter, tuple, Any], None]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []   # boundaries that no longer exist
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _patch(self, module: Any, attr: str, original: Callable, wrapper: Callable) -> None:
        self._patches.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(wrapper))

    def span(self, name: str, module: Any, attr: str,
             on_return: OnReturn | None = None) -> None:
        """Record a span named ``name`` around every call of ``module.attr``."""
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if on_return is not None:
                on_return(counts, args, result)
            return result

        self._patch(module, attr, fn, wrapper)

    def count(self, name: str, module: Any, attr: str) -> None:
        """Count calls of ``module.attr`` under ``name``; no span."""
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        counts = self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        self._patch(module, attr, fn, wrapper)

    def restore(self) -> bool:
        """Put back every wrapped attribute, newest first; True if all are back."""
        patched = self._patches[::-1]
        self._patches.clear()
        for module, attr, original in patched:
            setattr(module, attr, original)
        return all(getattr(module, attr) is original for module, attr, original in patched)

    def write(self, path: Path) -> None:
        """Write the closed spans as one JSON list per line."""
        with open(path, "w", encoding="ascii") as out:
            for span in self.spans:
                if span is not None:
                    out.write(json.dumps(span) + "\n")


def self_times(spans: Sequence[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for (_, start, end, _), kids in zip(spans, children):
        covered, reach = 0, start
        for c_start, c_end in sorted((spans[k][1], spans[k][2]) for k in kids):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def totals(spans: Sequence[Span]) -> tuple[dict[str, int], dict[str, int]]:
    """Per-name inclusive and self time in ns, summed over all spans."""
    inclusive: Counter = Counter()
    own: Counter = Counter()
    for (name, start, end, _), self_ns in zip(spans, self_times(spans)):
        inclusive[name] += end - start
        own[name] += self_ns
    return dict(inclusive), dict(own)
