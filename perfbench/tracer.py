"""Per-layer tracing of the finsler package, installed from outside it.

The tracer replaces each traced function with a wrapper that records a span
around every call.  ``from .x import f`` copies the binding, so one function
can be bound in several modules (``riemann_flag`` lives in
``spray_curvature``, ``classify``, ``cli``, ``acceptance`` and the package
itself).  ``install`` rebinds every module attribute that *is* a traced
function, plus the elements of module-level lists (``acceptance.CRITERIA``),
and returns a callable that puts the originals back.

Jet products are too hot to time: they are only counted, at the
``JetScalar.__mul__`` boundary.
"""

import functools
import importlib
import sys
import time

#: traced functions, as ``module.function`` inside the ``finsler`` package
TRACED = (
    "jets.base_derivative",
    "geometry_core.beta_at",
    "geometry_core.beta_derivatives",
    "geometry_core.christoffels",
    "phi_families.spray_scalar_series",
    "finsler_metric.fundamental",
    "finsler_metric.fsq_jet",
    "finsler_metric.sigma_bh",
    "spray_curvature.spray_ab",
    "spray_curvature.spray_generic",
    "spray_curvature.berwald",
    "spray_curvature.douglas",
    "spray_curvature.riemann_flag",
    "spray_curvature.ln_sigma_gradient",
    "spray_curvature.s_curvature_def",
    "spray_curvature.s_curvature_formula",
    "quadrature.adaptive_simpson",
    "classify.classify_metric",
    "classify.curvature_flags",
    *(f"acceptance.criterion_{i}" for i in range(1, 14)),
    "cli.cmd_report",
    "cli.cmd_table",
    "cli.cmd_check",
)

#: counters recorded at the jets boundary
COUNTS = ("jets.mul_calls", "jets.mul_flops")


class Tracer:
    """Nested spans aggregated per name and per (parent, child) edge.

    ``self_s`` of a span is its duration minus the durations of its direct
    child spans.  ``total_s`` counts only the outermost span of a name, so a
    function that re-enters itself (``base_derivative`` through a stencil of
    ``beta_derivatives``) is not counted twice.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = {}  # name -> [calls, total_s, self_s]
        self.edges = {}  # (parent or None, name) -> [calls, total_s]
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []  # [name, start, time in child spans]
        self._active = {}  # name -> open spans of that name

    def enter(self, name):
        self._active[name] = self._active.get(name, 0) + 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self):
        end = self.clock()
        name, start, in_children = self._stack.pop()
        duration = end - start
        self._active[name] -= 1
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[2] += duration - in_children
        if not self._active[name]:
            rec[1] += duration
        parent = None
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][0]
        edge = self.edges.setdefault((parent, name), [0, 0.0])
        edge[0] += 1
        edge[1] += duration

    def wrap(self, name, fn):
        return _Traced(self, name, fn)

    def summary(self):
        return {
            "spans": {name: {"calls": c, "total_s": t, "self_s": s}
                      for name, (c, t, s) in self.spans.items()},
            "edges": [[parent, name, c, t]
                      for (parent, name), (c, t) in self.edges.items()],
            "counts": dict(self.counts),
        }


class _Traced:
    """Callable stand-in for a traced function.

    A class rather than a closure so that it can carry the original's
    ``__code__``: ``acceptance.run_all`` reads ``fn.__code__.co_varnames`` to
    decide whether to pass the seed.
    """

    def __init__(self, tracer, name, fn):
        functools.update_wrapper(self, fn)
        self.__code__ = fn.__code__
        self._tracer = tracer
        self._name = name
        self._fn = fn

    def __call__(self, *args, **kwargs):
        tracer = self._tracer
        tracer.enter(self._name)
        try:
            return self._fn(*args, **kwargs)
        finally:
            tracer.exit()


def _finsler_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == "finsler" or name.startswith("finsler."))]


def _rebind(namespaces, replace):
    """Point every binding in ``namespaces`` found in ``replace`` at its stand-in.

    ``namespaces`` holds modules and classes; module-level lists are searched
    one level deep.  Returns the undo records.
    """
    undo = []
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            new = replace.get(id(value))
            if new is not None and new[0] is value:
                setattr(ns, attr, new[1])
                undo.append((setattr, ns, attr, value))
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    new = replace.get(id(item))
                    if new is not None and new[0] is item:
                        value[i] = new[1]
                        undo.append((list.__setitem__, value, i, item))
    return undo


def _count_jet_products(tracer, jets):
    cls = jets.JetScalar
    mul = cls.__mul__
    counts = tracer.counts
    table_len = {}

    def counted_mul(self, other):
        if isinstance(other, cls):
            key = (self.n_vars, self.max_order)
            size = table_len.get(key)
            if size is None:
                size = table_len[key] = len(jets._tables(*key)[2][0])
            counts["jets.mul_calls"] += 1
            counts["jets.mul_flops"] += size
        return mul(self, other)

    return {id(mul): (mul, counted_mul)}


def install(tracer):
    """Trace ``TRACED`` and count jet products; returns the undo callable."""
    replace = {}
    for target in TRACED:
        mod_name, func_name = target.split(".")
        fn = getattr(importlib.import_module(f"finsler.{mod_name}"), func_name)
        replace[id(fn)] = (fn, tracer.wrap(target, fn))
    undo = _rebind(_finsler_modules(), replace)
    jets = importlib.import_module("finsler.jets")
    undo += _rebind([jets.JetScalar], _count_jet_products(tracer, jets))

    def uninstall():
        for setter, ns, key, value in reversed(undo):
            setter(ns, key, value)

    return uninstall
