"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions, public methods and
arithmetic dunders of each jlcs layer module by patching module and class
attributes, and counts the constructors of fields, rings and series.  Each
wrapped call is a span; a span stack subtracts child spans, so a layer's
self time is the time spent in its own code, including its private helpers,
and not in the wrapped calls it makes into any layer.  Everything stays in
memory until ``report`` is called.

A generator function returns before its body runs, so time spent iterating
it is charged to the caller.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter

LAYERS = ("ff", "cyc", "chars", "expsum", "locfield", "csa", "ssc", "cli")
ARITH_DUNDERS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__pow__", "__truediv__", "__eq__",
})
# constructors that are counted, not timed
BUILD_COUNTS = frozenset({"ff.FieldDesc.__init__", "cyc.CycRing.__init__"})
COUNTED_INITS = BUILD_COUNTS | {"locfield.LaurentTrunc.__init__"}
# named counts reported beside the per-layer totals, by wrapped name
NAMED_COUNTS = {
    "ff.add_packed.calls": "ff.FieldDesc.add_packed",
    "ff.field_builds": "ff.FieldDesc.__init__",
    "cyc.ring_builds": "cyc.CycRing.__init__",
    "cyc.weighted_root_sum.calls": "cyc.CycRing.weighted_root_sum",
    "chars.exponent_table.calls": "chars.AddChar.dlog_exponent_table",
    "locfield.series_new": "locfield.LaurentTrunc.__init__",
    "csa.AlgElem.mul.calls": "csa.AlgElem.__mul__",
    "ssc.theta_eval.calls": "ssc.theta_eval",
}


def _wanted(name):
    return not name.startswith("_") or name in ARITH_DUNDERS


class Tracer:
    def __init__(self):
        self._stack = []        # child-span time accumulated per open span
        self._records = {}      # "layer.name" -> [self seconds, calls]

    def _span(self, fn, name):
        rec = self._records.setdefault(name, [0.0, 0])
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                rec[0] += elapsed - stack.pop()
                rec[1] += 1
                if stack:
                    stack[-1] += elapsed
        return traced

    def _counter(self, fn, name):
        rec = self._records.setdefault(name, [0.0, 0])

        def counted(*args, **kwargs):
            rec[1] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        """Patch every layer module for the life of the process."""
        modules = {layer: importlib.import_module(f"jlcs.{layer}")
                   for layer in LAYERS}
        wrapped = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and _wanted(attr) \
                        and value.__module__ == mod.__name__:
                    wrapped[id(value)] = self._span(value, f"{layer}.{attr}")
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    self._install_class(layer, value)
        # names imported into other layers (from .x import f) hold the
        # original object; point them at the wrapper as well
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in wrapped:
                    setattr(mod, attr, wrapped[id(value)])

    def _install_class(self, layer, cls):
        for attr, value in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if not inspect.isfunction(value):
                continue
            if name in COUNTED_INITS:
                setattr(cls, attr, self._counter(value, name))
            elif _wanted(attr):
                setattr(cls, attr, self._span(value, name))

    def reset(self):
        """Forget everything counted so far except field and ring builds,
        which are reported over set-up and jobs together."""
        for name, rec in self._records.items():
            if name not in BUILD_COUNTS:
                rec[0], rec[1] = 0.0, 0

    def report(self):
        """Per-layer self_s and calls, plus the named counts."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
        for name, (self_s, calls) in self._records.items():
            if name in COUNTED_INITS:
                continue
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] += self_s
            out[f"{layer}.calls"] += calls
        for metric, name in NAMED_COUNTS.items():
            out[metric] = self._records.get(name, [0.0, 0])[1]
        return out
