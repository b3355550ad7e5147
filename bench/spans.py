"""Outside-in span recording for the coninv modules.

``Tracer.install`` rebinds every public function of every ``coninv.*``
module namespace (and the package namespace itself) to a wrapper that
records a span around the call.  Each namespace is patched, not only the
defining module, because ``from .concanon import consimilar_to_real``
copies the binding into the importing module.  The ``Matrix`` methods named
in ``METHODS`` are wrapped on the class.  ``Tracer.uninstall`` restores
every original binding.  No file of the library changes.

A span records its name, start, end, parent span and operation id, plus
the size and pathway of its first argument (a ``Matrix``, or the row count
of a numpy operator) and the exception type when the call raised.  Self
time is the span's duration minus the time covered by its child spans;
calls are strictly nested on one thread, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

MODULES = ("matcore", "exactcanon", "concanon", "conisum", "skewsum", "certify", "cli")
#: Matrix methods that are layer boundaries of their own
METHODS = ("inverse", "rationalize")


class Span:
    __slots__ = ("id", "name", "op", "parent", "start", "end", "n", "pathway", "error", "result", "children_time")

    def __init__(self, id, name, op, parent, n, pathway):
        self.id = id
        self.name = name
        self.op = op
        self.parent = parent
        self.n = n
        self.pathway = pathway
        self.error = None
        self.result = None
        self.children_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children_time


class Tracer:
    """Collects spans in memory; `keep` names spans whose return value is
    kept for inspection after the operation (outside any timed region)."""

    def __init__(self, keep=()):
        self.spans: list[Span] = []
        self.keep = set(keep)
        self.op = None
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        first = args[0] if args else None
        n = getattr(first, "n", None)
        if n is None and getattr(first, "shape", None):  # numpy operator
            n = first.shape[0]
        span = Span(len(self.spans), name, self.op, parent.id if parent else None, n, getattr(first, "pathway", None))
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.children_time += span.end - span.start
        if name in self.keep:
            span.result = result
        return result

    def root(self, name, op, fn, *args):
        """Run fn(*args) as the root span of operation `op`."""
        self.op = op
        try:
            return self.call(name, fn, args, {})
        finally:
            self.op = None

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def install(self) -> None:
        import coninv
        from coninv.matcore import Matrix

        wrappers: dict[int, object] = {}
        namespaces = [coninv] + [importlib.import_module(f"coninv.{m}") for m in MODULES]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("coninv"):
                    continue
                if id(obj) not in wrappers:
                    name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                    wrappers[id(obj)] = self._wrap(name, obj)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
        for meth in METHODS:
            orig = vars(Matrix)[meth]
            self._saved.append((Matrix, meth, orig))
            setattr(Matrix, meth, self._wrap(f"matcore.{meth}", orig))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, obj = self._saved.pop()
            setattr(owner, attr, obj)
