"""In-memory layer tracer for the glpq benchmark.

The tracer wraps public functions of the package from outside: every
reference to a wrapped function inside the ``glpq`` modules (module
attributes, class attributes and default arguments) is rebound to a
timing wrapper.  Spans are aggregated per layer name while the program
runs (calls, inclusive seconds, self seconds) and written out once at
the end; ``layers.install`` decides which functions become spans.

Self time is a span's duration minus the time its direct child spans
cover.  A recursive span (the same layer already open further up the
stack) counts as a call and contributes its self time, but its
inclusive time is charged only to the outermost occurrence.
"""

from __future__ import annotations

import sys
import time
import types

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.stats = {}          # layer -> [calls, inclusive_s, self_s]
        self.depth = {}          # layer -> open spans of that layer
        self.stack = []          # child seconds of each open span
        self.counters = {}       # name -> number (work counts and ratios)

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def layer(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def begin(self, name):
        """Open a span by hand; pair with :meth:`end` of the same name."""
        self.layer(name)
        self.depth[name] = self.depth.get(name, 0) + 1
        self.stack.append([0.0, clock()])

    def end(self, name):
        child, t0 = self.stack.pop()
        dt = clock() - t0
        self.depth[name] -= 1
        st = self.stats[name]
        st[0] += 1
        st[2] += dt - child
        if not self.depth[name]:
            st[1] += dt
        if self.stack:
            self.stack[-1][0] += dt

    def wrap(self, name, fn, before=None):
        """Timing wrapper; ``before(args)`` runs outside the span, in a
        ``trace.hooks`` span of its own, so that the caller's self time
        leaves it out."""
        st = self.layer(name)
        hooks = self.layer("trace.hooks")
        depth = self.depth
        depth[name] = 0
        stack = self.stack

        # begin()/end() inlined: this runs for every call of a hot layer
        def traced(*args, **kwargs):
            if before is not None:
                h0 = clock()
                before(args)
                dh = clock() - h0
                hooks[0] += 1
                hooks[1] += dh
                hooks[2] += dh
                if stack:
                    stack[-1][0] += dh
            child = [0.0]
            stack.append(child)
            depth[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[name] -= 1
                stack.pop()
                st[0] += 1
                st[2] += dt - child[0]
                if not depth[name]:
                    st[1] += dt
                if stack:
                    stack[-1][0] += dt

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def snapshot(self):
        return {"layers": {k: {"calls": v[0], "s": v[1], "self_s": v[2]}
                           for k, v in sorted(self.stats.items())},
                "counters": dict(sorted(self.counters.items()))}


def _package_modules(package):
    prefix = package + "."
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(prefix))]


def rebind(package, old, new):
    """Replace every reference to ``old`` inside ``package``'s modules.

    Covers module globals (including ``from x import f`` copies), class
    attributes and default arguments of functions and methods, so that
    callers that captured ``old`` at import time reach ``new``.
    Returns the number of references replaced.
    """
    n = 0

    def fix_defaults(fn):
        nonlocal n
        fn = getattr(fn, "__func__", fn)
        defaults = getattr(fn, "__defaults__", None)
        if isinstance(fn, types.FunctionType) and defaults and \
                any(d is old for d in defaults):
            fn.__defaults__ = tuple(new if d is old else d for d in defaults)
            n += 1

    for mod in _package_modules(package):
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
                n += 1
            elif isinstance(value, types.FunctionType):
                fix_defaults(value)
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is old:
                        setattr(value, cattr, new)
                        n += 1
                    else:
                        fix_defaults(cvalue)
    return n
