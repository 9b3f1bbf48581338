"""In-memory span tracer that times calls into a package from the outside.

Spans are recorded by wrapping functions and methods at every name their
callers bind: a module global such as ``cplab.continuation.smallest_eigenvalue``
is replaced in every loaded module of the package that holds the same
object, and a method such as ``cplab.solver.AxisymOperator.solve`` is
replaced on its class. No line of the traced program changes, and
``Tracer.restore`` (or leaving the ``with`` block) puts every wrapped
attribute back.

The current span lives in a ``contextvars.ContextVar``. Worker threads of
a ``ThreadPoolExecutor`` do not inherit it, so ``link_pool`` substitutes
an executor whose tasks adopt the span that submitted them.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import sys
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    parent: "Span | None" = None
    thread: int = 0
    end: float = float("nan")
    failed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``(start, end)`` intervals clipped to [lo, hi]."""
    total = 0.0
    run_lo = run_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


@dataclass
class LayerStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    failures: int = 0


class Tracer:
    """Spans and counters, safe to record from several threads at once."""

    def __init__(self):
        self._lock = threading.Lock()
        self._current = contextvars.ContextVar("bench_span", default=None)
        self._saved = []  # (owner, attribute, original), in wrapping order
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- recording -------------------------------------------------------------

    def current(self) -> Span | None:
        return self._current.get()

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    @contextlib.contextmanager
    def span(self, name: str):
        sp = Span(name, time.perf_counter(), parent=self._current.get(),
                  thread=threading.get_ident())
        token = self._current.set(sp)
        try:
            yield sp
        except BaseException:
            sp.failed = True
            raise
        finally:
            sp.end = time.perf_counter()
            self._current.reset(token)
            with self._lock:
                self.spans.append(sp)

    @contextlib.contextmanager
    def adopt(self, parent: Span | None):
        """Make ``parent`` the current span of this thread for the block."""
        token = self._current.set(parent)
        try:
            yield
        finally:
            self._current.reset(token)

    # -- wrapping --------------------------------------------------------------

    def _traced(self, original, name, on_result):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(tracer, result, args, kwargs)
            return result

        return traced

    def _replace(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def wrap_function(self, module, attr: str, on_result=None) -> None:
        """Wrap ``module.attr`` at every binding of it in the module's package.

        The span is named ``<module>.<attr>`` without the package prefix.
        ``on_result(tracer, result, args, kwargs)`` runs after each call
        that returns, outside the span.
        """
        original = getattr(module, attr)
        package = module.__name__.split(".")[0]
        name = f"{module.__name__.removeprefix(package + '.')}.{attr}"
        traced = self._traced(original, name, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, traced)

    def wrap_method(self, cls, attr: str, name: str) -> None:
        """Wrap a method on its class, so every instance and caller sees it."""
        self._replace(cls, attr, self._traced(cls.__dict__[attr], name, None))

    def link_pool(self, module) -> None:
        """Run tasks of ``module.ThreadPoolExecutor`` pools under the span that submitted them."""
        tracer = self
        base = module.ThreadPoolExecutor

        class LinkedExecutor(base):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def linked(*a, **k):
                    with tracer.adopt(parent):
                        return fn(*a, **k)

                return super().submit(linked, *args, **kwargs)

        self._replace(module, "ThreadPoolExecutor", LinkedExecutor)

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- accounting ------------------------------------------------------------

    def children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = {}
        for sp in self.spans:
            if sp.parent is not None:
                kids.setdefault(id(sp.parent), []).append(sp)
        return kids

    def layers(self) -> dict[str, LayerStats]:
        """Calls, total and self time, and failures per span name.

        Self time is a span's duration minus the part of it that its child
        spans cover; children running in parallel threads count once.
        """
        kids = self.children()
        stats: dict[str, LayerStats] = {}
        for sp in self.spans:
            st = stats.setdefault(sp.name, LayerStats())
            st.calls += 1
            st.s += sp.duration
            st.failures += sp.failed
            inner = [(c.start, c.end) for c in kids.get(id(sp), ())]
            st.self_s += sp.duration - covered(inner, sp.start, sp.end)
        return stats
