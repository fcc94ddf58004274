"""In-memory span recorder that wraps package functions from outside.

A ``Wrap`` names the module or class through which a caller resolves a
function, and the attribute it resolves.  While a ``Tracer`` is installed,
each such attribute is replaced by a wrapper that records a span (name,
start, end, parent span, trial id, allocation peak), and uninstalling puts
the original back.  A wrap whose owner or attribute does not exist is
listed in ``Tracer.missing`` and skipped, so a renamed function leaves its
layer unmeasured instead of stopping the run.

Allocation peaks come from tracemalloc, which runs only inside spans of
wraps marked ``alloc`` (the stage calls): tracing every small allocation of
the Python-heavy assignment loop would multiply its run time.  Such a
span's peak is the highest traced memory above the level at its start,
children included.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Wrap:
    stage: str
    owner: str  # dotted path of the module or class the caller resolves through
    attr: str
    # "span" records a span; "count" only counts calls on the innermost open span
    kind: str = "span"
    # summary of one call (args, kwargs, result) -> dict, stored on the span
    note: Callable | None = None
    # count UserWarnings raised inside the call instead of letting them through
    capture_warnings: bool = False
    # record the call's allocation peak
    alloc: bool = False

    @property
    def label(self) -> str:
        return f"{self.owner}.{self.attr}"


@dataclass
class Span:
    name: str
    stage: str
    parent: int  # index into Tracer.spans, -1 for a root
    trial: int
    base: int = 0  # traced bytes at entry
    t0: float = 0.0
    t1: float = 0.0
    alloc_peak: int = 0  # bytes above base; 0 unless the wrap is marked alloc
    calls: int = 0  # "count" wraps hit while this span was innermost
    warnings: int = 0
    note: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def _resolve(path: str):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ImportError(path)


class Tracer:
    def __init__(self, wraps):
        self.wraps = tuple(wraps)
        self.spans: list[Span] = []
        self.missing: list[Wrap] = []
        self.trial = -1
        self._stack: list[int] = []
        self._alloc: list[list[int]] = []  # [span index, running peak] of open alloc spans
        self._saved: list[tuple] = []

    @contextmanager
    def installed(self):
        """Wrap every resolvable target for the duration of the block."""
        targets = []
        self.missing = []
        for w in self.wraps:
            try:
                owner = _resolve(w.owner)
                orig = getattr(owner, w.attr)
            except (ImportError, AttributeError):
                self.missing.append(w)
                continue
            targets.append((w, owner, orig))
        # patch only after resolving everything: some owners are themselves wrapped
        for w, owner, orig in targets:
            setattr(owner, w.attr, self._wrapper(w, orig))
            self._saved.append((owner, w.attr, orig))
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(self._saved):
                setattr(owner, attr, orig)
            self._saved.clear()

    @contextmanager
    def trial_span(self, trial: int):
        """Root span around one whole trial; spans inside carry its id."""
        self.trial = trial
        i = self._enter("trial", "trial")
        try:
            yield
        finally:
            self._exit(i)

    def _enter(self, name: str, stage: str, alloc: bool = False) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, stage, parent, self.trial))
        i = len(self.spans) - 1
        if alloc:
            if tracemalloc.is_tracing():
                cur, peak = tracemalloc.get_traced_memory()
                if self._alloc:
                    self._alloc[-1][1] = max(self._alloc[-1][1], peak)
                tracemalloc.reset_peak()
            else:
                tracemalloc.start()
                cur = 0
            self.spans[i].base = cur
            self._alloc.append([i, cur])
        self._stack.append(i)
        self.spans[i].t0 = time.perf_counter()
        return i

    def _exit(self, i: int) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        s = self.spans[i]
        s.t1 = t1
        if self._alloc and self._alloc[-1][0] == i:
            _, peak = tracemalloc.get_traced_memory()
            top = max(self._alloc.pop()[1], peak)
            s.alloc_peak = top - s.base
            if self._alloc:
                self._alloc[-1][1] = max(self._alloc[-1][1], top)
                tracemalloc.reset_peak()
            else:
                tracemalloc.stop()

    def _wrapper(self, w: Wrap, orig):
        if w.kind == "count":
            def counted(*args, **kwargs):
                if self._stack:
                    self.spans[self._stack[-1]].calls += 1
                return orig(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            i = self._enter(w.label, w.stage, w.alloc)
            try:
                if w.capture_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        out = orig(*args, **kwargs)
                    self.spans[i].warnings = sum(issubclass(c.category, UserWarning)
                                                 for c in caught)
                else:
                    out = orig(*args, **kwargs)
            finally:
                self._exit(i)
            if w.note is not None:
                self.spans[i].note = w.note(args, kwargs, out)
            return out
        return traced
