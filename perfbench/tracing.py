"""Spans at the boundaries between kcproof's layers, recorded from outside.

Each kcproof module binds the functions it calls in other layers into its
own namespace (``from .sdd import sdd_apply``).  ``Tracer.install`` replaces
every such binding with a wrapper that records a span, so a span marks one
call from one layer into another.  Patching ``kcproof.sdd`` alone would see
nothing, because the callers look the name up in their own module.  Calls
inside a layer stay unwrapped and count toward that layer's self time, with
two exceptions listed in ``INNER``: the d-SDNNF checker reaches the product
conjoin and the model count only through ``dsdnnf_join_check`` and
``dsdnnf_equiv``, so those two names are wrapped in dsdnnf's own namespace
as well.  Splitting a span into a parent and a child of the same layer does
not change that layer's self time.

The store classes must stay classes for ``isinstance``, so their
constructors are wrapped on the class.  ``Vtree.variables`` is read
millions of times per check, so its reads are counted without spans.

Spans stay in memory as (name, start, end, parent index) and are written
out by ``write_spans`` when the process is done.
"""

import gc
import inspect
import time

LAYERS = ("cnf", "zoo", "structure", "obdd", "sdd", "dsdnnf", "proofs",
          "refute")
INNER = {"dsdnnf": ("dsdnnf_conjoin", "dsdnnf_count")}
VTREE_BUILDERS = ("vtree_leaf", "vtree_node", "right_linear_vtree",
                  "vtree_from_decomposition", "parse_vtree", "move",
                  "remove_leaf")


class GcClock:
    """Collections run and seconds paused, read through ``gc.callbacks``."""

    def __init__(self):
        self.collections = 0
        self.pause_s = 0.0
        self._start = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.collections += 1
            self.pause_s += time.perf_counter() - self._start

    def install(self):
        gc.callbacks.append(self)
        return self

    def read(self, speed):
        return {"collections": self.collections,
                "pause_s": self.pause_s * speed}


class Tracer:

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._variables_reads = [0]
        self.stores = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1]
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        traced.__wrapped__ = fn
        return traced

    def install(self, callers=()):
        """Wrap the cross-layer bindings of every kcproof layer and of the
        extra caller modules given (the benchmark's own)."""
        import importlib
        modules = {layer: importlib.import_module("kcproof." + layer)
                   for layer in LAYERS}
        for module in list(modules.values()) + list(callers):
            for attr, value in list(vars(module).items()):
                owner = getattr(value, "__module__", None) or ""
                if inspect.isfunction(value) and owner.startswith("kcproof.") \
                        and owner != module.__name__:
                    layer = owner.split(".", 1)[1]
                    setattr(module, attr,
                            self.wrap(layer + "." + value.__name__, value))
        for layer, names in INNER.items():
            for attr in names:
                value = getattr(modules[layer], attr)
                setattr(modules[layer], attr,
                        self.wrap(layer + "." + attr, value))
        self._wrap_store(modules["obdd"].ObddStore, "obdd")
        self._wrap_store(modules["sdd"].SddStore, "sdd")
        self._count_variables(modules["structure"].Vtree)
        return self

    def _wrap_store(self, cls, layer):
        init = self.wrap(layer + "." + cls.__name__, cls.__init__)
        stores = self.stores

        def __init__(store, *args, **kwargs):
            init(store, *args, **kwargs)
            stores.append((layer, store))

        cls.__init__ = __init__

    def _count_variables(self, cls):
        read = cls.variables.fget
        reads = self._variables_reads

        def variables(node):
            reads[0] += 1
            return read(node)

        cls.variables = property(variables)

    def summary(self, speed):
        """Inclusive seconds and calls per span name, self seconds per
        layer, and store sizes per layer; seconds are multiplied by
        ``speed`` to bring them to the reference machine speed."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        names = {}
        self_s = {}
        for i, (name, start, end, parent) in enumerate(spans):
            entry = names.setdefault(name, [0.0, 0])
            entry[0] += (end - start) * speed
            entry[1] += 1
            layer = name.split(".", 1)[0]
            self_s[layer] = self_s.get(layer, 0.0) \
                + (end - start - child[i]) * speed
        stores = {}
        for layer, store in self.stores:
            entry = stores.setdefault(layer, [0, 0, 0])
            entry[0] += 1
            entry[1] += len(store.nodes)
            entry[2] += len(store.cache)
        return {"names": names, "self_s": self_s, "stores": stores,
                "variables_reads": self._variables_reads[0]}

    def write_spans(self, path):
        with open(path, "w") as out:
            out.write("index\tname\tstart\tend\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.write("%d\t%s\t%.9f\t%.9f\t%d\n"
                          % (i, name, start, end, parent))
