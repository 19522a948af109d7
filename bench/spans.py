"""In-memory spans around calls into the program, and the arithmetic on them.

A ``Tracer`` replaces a function at the module attribute its caller looks
up with a wrapper that records a span: name, layer, start, end and the
index of the enclosing span. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import threading
import time
from typing import Any, Callable, NamedTuple


class Span(NamedTuple):
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, layer: str) -> "_SpanContext":
        """Context manager recording one span around a block."""
        return _SpanContext(self, name, layer)

    def _open(self, stack: list[int]) -> int:
        index = len(self.spans)
        self.spans.append(None)
        stack.append(index)
        return index

    def _close(self, stack: list[int], index: int, name: str, layer: str, start: float) -> None:
        end = time.perf_counter()
        stack.pop()
        self.spans[index] = Span(name, layer, start, end, stack[-1] if stack else -1)

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def wrap(
        self,
        target: str,
        name: str,
        observe: Callable[["Tracer", tuple, dict, Any], None] | None = None,
    ) -> None:
        """Replace ``module.attr`` (given as ``"module:attr"``) with a traced wrapper.

        ``name`` is ``"<layer>.<function>"``. ``observe`` sees the arguments
        and result of each call, outside the span.
        """
        module_name, attr = target.split(":")
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        layer = name.split(".", 1)[0]
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            index = tracer._open(stack)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(stack, index, name, layer, start)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        """Put every wrapped function back."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def finished(self) -> list[Span]:
        """Closed spans; call once nothing is traced any more."""
        if any(s is None for s in self.spans):
            raise RuntimeError("a traced call is still open")
        return self.spans  # type: ignore[return-value]


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, layer: str) -> None:
        self.tracer, self.name, self.layer = tracer, name, layer

    def __enter__(self) -> int:
        self._stack = self.tracer._stack()
        self.index = self.tracer._open(self._stack)
        self._start = time.perf_counter()
        return self.index

    def __exit__(self, *exc: object) -> None:
        self.tracer._close(self._stack, self.index, self.name, self.layer, self._start)


# --------------------------------------------------------------------------
# Arithmetic over finished spans.


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children.get(i, ())
        )
        covered = 0.0
        cur_start = cur_end = None
        for a, b in intervals:
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s.end - s.start) - covered)
    return out


def within(spans: list[Span], root: int) -> list[int]:
    """Indices of ``root`` and every span below it."""
    inside = {root}
    # Children are recorded after their parent, so one forward pass suffices.
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
    return sorted(inside)


class Summary:
    """Per-name and per-layer totals over a subset of spans."""

    def __init__(self, spans: list[Span], own: list[float], indices: list[int]) -> None:
        """``own`` is ``self_times(spans)``, computed once for every summary."""
        self.calls: dict[str, int] = {}
        self.inclusive_s: dict[str, float] = {}
        self.layer_self_s: dict[str, float] = {}
        for i in indices:
            s = spans[i]
            self.calls[s.name] = self.calls.get(s.name, 0) + 1
            self.layer_self_s[s.layer] = self.layer_self_s.get(s.layer, 0.0) + own[i]
            # A call nested in a call of the same name is already inside it.
            p = s.parent
            while p >= 0 and spans[p].name != s.name:
                p = spans[p].parent
            if p < 0:
                self.inclusive_s[s.name] = self.inclusive_s.get(s.name, 0.0) + (s.end - s.start)

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def seconds(self, *names: str) -> float:
        return sum(self.inclusive_s.get(n, 0.0) for n in names)

    def self_seconds(self, layer: str) -> float:
        return self.layer_self_s.get(layer, 0.0)
