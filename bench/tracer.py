"""Spans recorded from outside the program, around calls into its modules.

``Tracer.install`` replaces each named function or method with a wrapper,
in every ``whlink`` module that holds a reference to it, so calls made
through ``from .x import f`` bindings are caught too.  A span is keyed by
its call path (the names of the enclosing spans, outermost first), and the
tracer keeps, per path, the total seconds and the number of calls: an
aggregated span tree held in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self._paths = [()]

    @contextmanager
    def span(self, name):
        path = self._paths[-1] + (name,)
        self._paths.append(path)
        start = perf_counter()
        try:
            yield
        finally:
            self.seconds[path] += perf_counter() - start
            self.calls[path] += 1
            self._paths.pop()

    def _wrap(self, name, fn):
        span = self.span
        if inspect.isgeneratorfunction(fn):
            # time each step of the generator, not the call that creates it
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                steps = fn(*args, **kwargs)
                while True:
                    with span(name):
                        try:
                            item = next(steps)
                        except StopIteration:
                            return
                    yield item

            return traced_generator

        paths, seconds, calls = self._paths, self.seconds, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # the span() body inlined: this wrapper runs on every hot call
            path = paths[-1] + (name,)
            paths.append(path)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[path] += perf_counter() - start
                calls[path] += 1
                paths.pop()

        return traced

    def install(self, names):
        """Wrap each ``module.function`` or ``module.Class.method`` under ``whlink``.

        A name the program no longer has raises: a layer that vanished
        must fail the run, not read as a layer that takes no time.  When
        the program renames a traced function, the benchmark's table of
        layers changes with it.
        """
        for name in names:
            module_name, _, attr_path = name.partition(".")
            owner = importlib.import_module(f"whlink.{module_name}")
            *outer, attr = attr_path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if outer:
                setattr(owner, attr, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "whlink" or mod_name.startswith("whlink."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    def as_json(self):
        return {
            "spans": [
                {"path": list(p), "seconds": self.seconds[p], "calls": self.calls[p]}
                for p in sorted(self.seconds)
            ],
        }


def _outermost(spans, name, within):
    """Spans of outermost calls to ``name``, optionally only those under ``within``."""
    for span in spans:
        path = span["path"]
        if path[-1] == name and name not in path[:-1] and (within is None or within in path[:-1]):
            yield span


def span_seconds(spans, name, within=None) -> float:
    return sum(s["seconds"] for s in _outermost(spans, name, within))


def span_calls(spans, name, within=None) -> int:
    return sum(s["calls"] for s in _outermost(spans, name, within))
