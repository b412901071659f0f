"""In-memory spans around the package's public functions, and self-time arithmetic.

A span is one call of one wrapped function: its name (``<layer>.<function>``),
start and end on the ``time.perf_counter`` clock, the index of the span that
was open when it started, the operation it belongs to, and a few attributes
read from the function's return value. Spans stay in memory and are written
out once, when the benchmark ends.

Wrappers are installed by rebinding each function where its caller looks it
up (a module attribute), so no code of the package changes.
"""
from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable, Optional

ROOT_NAME = "op"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return [
        sp.duration - covered_length(children.get(i, ()), sp.start, sp.end)
        for i, sp in enumerate(spans)
    ]


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` rebind functions.

    ``targets`` lists ``(module, attribute, span_name, attrs_fn)``: the
    function ``module.attribute`` is replaced by a wrapper that records a span
    named ``span_name`` and, when ``attrs_fn`` is given, the attributes it
    returns for the call's result. ``factories`` lists
    ``(module, attribute, span_name, attrs_fn)`` for functions that *return*
    the function to trace (such as a stage factory): the returned function is
    wrapped instead.
    """

    def __init__(self, targets: list, factories: list = ()):
        self.targets = list(targets)
        self.factories = list(factories)
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._op = -1

    # -- recording ------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str, attrs_fn: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if attrs_fn is not None:
                self.spans[idx].attrs = attrs_fn(result)
            return result

        return traced

    def operation(self, op: int, fn: Callable, *args):
        """Run ``fn(*args)`` inside a root span for operation ``op``."""
        self._op = op
        return self.wrap(fn, ROOT_NAME)(*args)

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name, attrs_fn in self.targets:
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self.wrap(orig, name, attrs_fn))
        for module, attr, name, attrs_fn in self.factories:
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))

            def factory(*args, _orig=orig, _name=name, _attrs=attrs_fn, **kwargs):
                return self.wrap(_orig(*args, **kwargs), _name, _attrs)

            setattr(module, attr, factory)

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ---------------------------------------------------------
    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, (sp, st) in enumerate(zip(self.spans, self_times(self.spans))):
                rec = asdict(sp)
                rec["id"] = i
                rec["self"] = st
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
