"""In-memory span recorder and the attribute rebinding that feeds it.

The program is not edited: :class:`Hooks` replaces a function (or method)
by a wrapper that opens a span around each call, on every ``saeti``
module that holds a reference to it, and puts the originals back on
:meth:`Hooks.restore`. Spans carry a name (``layer.function``), start and
end (``time.perf_counter``), the index of the enclosing span, the
request id of the root span they run under, and optional counts worked
out from the call's arguments and result.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: str = ""
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """Spans of one run, kept in memory until the caller writes them out."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str, request: str | None = None) -> int:
        parent = self._open[-1] if self._open else None
        if request is None:
            request = self.spans[parent].request if parent is not None else ""
        self.spans.append(Span(name, self.clock(), parent=parent, request=request))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")
        self._open.pop()
        self.spans[index].end = self.clock()

    @property
    def depth(self) -> int:
        """Number of spans open now; 0 outside any request."""
        return len(self._open)

    @contextlib.contextmanager
    def root(self, name: str, request: str):
        """A request's root span around the ``with`` body."""
        index = self.begin(name, request)
        try:
            yield index
        finally:
            self.end(index)

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "request": s.request, "counts": s.counts}
            for s in self.spans
        ]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent and overlapping children are
    merged, so the result never counts an instant twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        hi = s.start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, hi), min(c1, s.end)
            if c1 > c0:
                covered += c1 - c0
                hi = c1
        out.append(s.duration - covered)
    return out


def roots_of(spans: list[Span]) -> list[int]:
    """Index of the root span above each span (itself for a root)."""
    out: list[int] = []
    for i, s in enumerate(spans):
        out.append(i if s.parent is None else out[s.parent])
    return out


Counter = Callable[[tuple, dict, object], dict[str, float]]


class Hooks:
    """Wrap functions and methods by rebinding attributes from outside.

    ``add_function(module, name, span)`` wraps ``module.name`` wherever a
    module whose name starts with ``package`` binds the same object (so
    ``from .autograd import conv1d`` in another module is caught too).
    ``add_method(cls, name, span)`` wraps a class attribute.
    """

    def __init__(self, recorder: Recorder, package: str):
        self.recorder = recorder
        self.package = package
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, original, span: str, counter: Counter | None):
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = recorder.begin(span)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.end(index)
            if counter is not None:
                recorder.spans[index].counts.update(counter(args, kwargs, result))
            return result

        return wrapper

    def add_function(self, module, name: str, span: str,
                     counter: Counter | None = None) -> None:
        original = getattr(module, name)
        wrapper = self._wrap(original, span, counter)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package
                                   or mod_name.startswith(self.package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def add_method(self, cls, name: str, span: str,
                   counter: Counter | None = None) -> None:
        original = cls.__dict__[name]
        self._saved.append((cls, name, original))
        setattr(cls, name, self._wrap(original, span, counter))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Hooks":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
