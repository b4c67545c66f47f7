"""Outside-in layer tracing: wrap public functions of ``repro`` from the
benchmark, never from inside the program.

:class:`LayerTrace` replaces a function with a timing wrapper at every
name a caller can look it up by -- the defining module, every other
``repro`` module that imported it by name (``from ... import f``), and
class attributes for methods -- and puts every original back on
:meth:`LayerTrace.uninstall`, so untraced timing never runs through a
wrapper.

Each wrapped call accumulates ``calls``, ``total`` and ``self`` seconds
(self = total minus the time of wrapped calls made inside it) under its
layer name.  Names marked ``span=True`` also record a
:class:`repro.obs.tracer.Tracer` span with its parent link; the
high-rate leaves (NTT, element-wise ops, cost-model calls) are only
aggregated, because one span per call would cost more memory than the
run itself.  The tracer is written out as a Chrome trace when the run
ends.
"""

from __future__ import annotations

import sys
import time


class _Stat:
    __slots__ = ("calls", "total", "self", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.extra: dict = {}


class LayerTrace:
    """Installs timing wrappers and aggregates per-layer statistics."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.stats: dict = {}
        self._stack: list = []
        self._patched: list = []

    # -- Installing ---------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, span: bool = False,
             post=None) -> None:
        """Wrap ``owner.attr`` (a module function or class method).

        A module-level function is also replaced in every loaded
        ``repro`` module that holds the same object, so callers that
        imported it by name go through the wrapper too.  ``post(args,
        result, stat)`` may add layer-specific counts.
        """
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            self._patch(owner, attr, self._wrapper(original, name, span,
                                                   post))
            return
        original = getattr(owner, attr)
        wrapper = self._wrapper(original, name, span, post)
        for module in list(sys.modules.values()):
            modname = getattr(module, "__name__", "") or ""
            if not (modname == "repro" or modname.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, wrapper)

    def wrap_instance(self, obj, attr: str, name: str) -> None:
        """Wrap one object's bound method in a span (removed again on
        uninstall).

        The wrapper looks the method up on the class at call time, so a
        class-level wrapper installed for the same method still runs
        underneath it.
        """
        cls = type(obj)

        def call(*args, **kwargs):
            return getattr(cls, attr)(obj, *args, **kwargs)

        wrapper = self._wrapper(call, name, True, None)
        obj.__dict__[attr] = wrapper
        self._patched.append((obj, attr, None))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original back, in reverse order of installation."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is None:
                del owner.__dict__[attr]
            else:
                setattr(owner, attr, original)

    # -- Recording ----------------------------------------------------------

    def _wrapper(self, fn, name: str, span: bool, post):
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack
        tracer = self.tracer
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                if span:
                    with tracer.span(name):
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total += elapsed
                stat.self += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if post is not None:
                post(args, result, stat)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def measure(self, name: str, fn):
        """Run ``fn()`` as a root span named ``name``; returns
        ``(result, seconds)``."""
        stat = self.stats.setdefault(name, _Stat())
        before = stat.total
        result = self._wrapper(fn, name, True, None)()
        return result, stat.total - before

    def stat(self, name: str) -> _Stat:
        return self.stats.get(name) or _Stat()
