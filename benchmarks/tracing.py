"""In-memory spans around the public functions of borel_rees, set from outside.

A Tracer records one span per call of a wrapped function: name, start, end,
parent span, the workload call it belongs to, and a few counts taken from the
call's arguments or result. Wrapping replaces module attributes for the
duration of a `with tracer.installed(...)` block, so the library runs
unchanged and its sources are never edited.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable


@dataclass
class Span:
    id: int
    parent: int | None
    call: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.call = 0
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; the body may add counts to the yielded dict."""
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, self.call, name, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s.attrs
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn: Callable, name: str, describe=None) -> Callable:
        """fn with a span per call; describe(args, result) -> counts."""

        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if describe is not None:
                    attrs.update(describe(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_iter(self, fn: Callable, name: str, describe=None) -> Callable:
        """fn returning an iterator; each next() is a span of its own, a child
        of whatever span is open when the consumer asks for the next item."""

        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                with self.span(name) as attrs:
                    try:
                        item = next(it)
                    except StopIteration:
                        attrs["exhausted"] = 1
                        return
                    if describe is not None:
                        attrs.update(describe(item))
                yield item

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, patches: Iterable[tuple[object, str, object]]):
        """Set each (owner, attribute, replacement) and restore on exit."""
        saved = []
        try:
            for owner, attr, replacement in patches:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {"id": s.id, "parent": s.parent, "call": s.call,
                         "name": s.name, "start": s.start, "end": s.end,
                         "attrs": s.attrs},
                        sort_keys=True,
                    )
                    + "\n"
                )


class CallView:
    """The spans of one workload call, with self times and span queries."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        self.children = children

    def root_of(self, s: Span) -> Span:
        while s.parent is not None and s.parent in self.by_id:
            s = self.by_id[s.parent]
        return s

    def self_time(self, s: Span) -> float:
        """Duration minus the part of the interval its child spans cover."""
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(self.children.get(s.id, ()), key=lambda c: c.start):
            if cur_end is None or c.start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = c.start, c.end
            else:
                cur_end = max(cur_end, c.end)
        if cur_end is not None:
            covered += cur_end - cur_start
        return s.duration - covered

    def outermost(self, name: str, root: str | None = None) -> list[Span]:
        """Spans called name with no ancestor of the same name, optionally
        restricted to the tree under a root span of the given name."""
        out = []
        for s in self.spans:
            if s.name != name:
                continue
            p, nested = s.parent, False
            while p is not None and p in self.by_id:
                if self.by_id[p].name == name:
                    nested = True
                    break
                p = self.by_id[p].parent
            if nested:
                continue
            if root is not None and self.root_of(s).name != root:
                continue
            out.append(s)
        return out

    def total(self, name: str, root: str | None = None) -> float:
        return sum(s.duration for s in self.outermost(name, root))
