"""Per-function self time, measured from outside the traced package.

The tracer replaces each target function wherever a module of the package
binds it, found by identity, so ``from .transform import center`` in one
module and ``transform.center`` in another are both covered without a list
of call sites.  A nesting stack gives self time: a span's duration minus the
durations of the traced spans it directly contains.  A target that no longer
exists is reported with 0 calls.  The originals are put back on exit.
"""

from __future__ import annotations

import functools
import sys
import time


class Tracer:
    """Context manager that wraps ``<module>.<function>`` targets of a package.

    ``hooks`` maps a target to ``hook(args, kwargs, result)``, called after
    each successful call outside the timed span, for counters read from
    return values.
    """

    def __init__(self, package, targets, hooks=None, clock=time.perf_counter):
        self.package = package
        self.targets = tuple(targets)
        self.hooks = dict(hooks or {})
        self._clock = clock
        self._stats = {t: [0, 0.0] for t in self.targets}  # [calls, self seconds]
        self._stack = []  # child-span seconds accumulated per open span
        self._patched = []

    def calls(self, target) -> int:
        return self._stats[target][0]

    def self_s(self, target) -> float:
        return self._stats[target][1]

    def __enter__(self):
        prefix = self.package + "."
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(prefix))
        ]
        for target in self.targets:
            mod_name, _, func_name = target.rpartition(".")
            module = sys.modules.get(prefix + mod_name)
            original = getattr(module, func_name, None)
            if not callable(original):
                continue
            wrapper = self._wrap(target, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, attr, original))
                        setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)
        return False

    def _wrap(self, target, func):
        stats = self._stats[target]
        stack = self._stack
        clock = self._clock
        hook = self.hooks.get(target)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span = clock() - start
                children = stack.pop()
                stats[0] += 1
                stats[1] += span - children
                if stack:
                    stack[-1] += span
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced
