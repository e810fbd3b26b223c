"""Span tracing of the betheqq layers, installed from outside the library.

``Tracer.install()`` wraps the public functions of every betheqq module,
plus the arithmetic methods of its value classes, and rebinds each wrapper
wherever a caller looks the original up: in its defining module, in every
module that imported it by name (``betheqq.cli.qq_residual``,
``betheqq.qqcore.cartan_matrix``, ...) and in the package namespace.
``uninstall()`` puts every original back.  No source file is edited.

Each call records a span (id, parent id, operation id, name, start, end).
Spans are kept in memory up to a cap and written out by ``dump``; calls,
raises and self time (duration minus the time its child spans cover) are
aggregated for every call, stored or not.  The two scalar hot spots,
``NumericField.abs`` and ``NumericField.__call__``, are only counted: a span
costs more than the call it would measure.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

LAYERS = ("scalars", "rootsys", "polyalg", "qqcore", "bethe", "backlund", "opermat", "fileio", "cli")

#: methods traced as spans, per module and class (public functions are found by inspection)
METHODS = {
    "polyalg": {
        "Poly": ("__add__", "__sub__", "__neg__", "__mul__", "scale", "__pow__", "deriv", "monic",
                 "__call__", "divmod", "deflate", "norm"),
        "RationalFn": ("make", "from_poly", "__add__", "__sub__", "__neg__", "__mul__",
                       "__truediv__", "deriv", "__call__", "defect"),
    },
    "qqcore": {"QQInstance": ("xi", "xis", "with_twist")},
    "opermat": {"RatMatrix": ("__matmul__", "__sub__", "deriv", "inverse_triangular", "defect",
                              "is_upper_triangular")},
}
#: methods that are only counted
COUNTED = {"scalars": {"NumericField": ("abs", "__call__")}}

ROOT_SPAN = "perfbench.op"
#: spans kept in memory per run; calls past it are still aggregated, not stored
SPAN_CAP = 100_000


def span_name(layer: str, qualname: str) -> str:
    """``polyalg`` + ``Poly.__mul__`` -> ``polyalg.Poly.mul``."""
    parts = [p[2:-2] if p.startswith("__") and p.endswith("__") else p for p in qualname.split(".")]
    return ".".join([layer] + parts)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._index: dict = {}
        self.calls: list = []
        self.raised: list = []
        self.self_s: list = []
        self.counts: dict = {}  # counted-only name -> calls
        self.spans: list = []  # (id, parent, op, name index, t0, t1)
        self.dropped = 0
        self.op_id = -1
        self._stack: list = []
        self._next_id = [0]
        self._patches: list = []  # (owner, attribute, original)
        self._t_origin = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _slot(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.raised.append(0)
            self.self_s.append(0.0)
        return self._index[name]

    def spanned(self, name: str, fn):
        """``fn`` wrapped so each call records a span called ``name``."""
        idx = self._slot(name)
        stack, spans, calls, raised, self_s = self._stack, self.spans, self.calls, self.raised, self.self_s
        next_id, tracer, clock = self._next_id, self, time.perf_counter

        def traced(*args, **kwargs):
            sid = next_id[0]
            next_id[0] = sid + 1
            frame = [sid, 0.0]  # span id, time covered by children
            stack.append(frame)
            t0 = clock()
            done = False
            try:
                out = fn(*args, **kwargs)
                done = True
                return out
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                calls[idx] += 1
                self_s[idx] += dur - frame[1]
                if not done:
                    raised[idx] += 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((sid, parent[0] if parent is not None else -1, tracer.op_id, idx, t0, t1))
                else:
                    tracer.dropped += 1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def counted(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, op_id: int, fn, *args):
        """Call ``fn(*args)`` as operation ``op_id`` under the root span."""
        self.op_id = op_id
        return self.spanned(ROOT_SPAN, fn)(*args)

    # -- patching ----------------------------------------------------------

    def install(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"betheqq.{layer}") for layer in LAYERS}
        namespaces = list(modules.values()) + [importlib.import_module("betheqq")]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapped = self.spanned(span_name(layer, obj.__qualname__), obj)
                for ns in namespaces:  # rebind wherever a caller looks it up by name
                    for alias, val in list(vars(ns).items()):
                        if val is obj:
                            self._set(ns, alias, wrapped)
            for table, make in ((METHODS, self.spanned), (COUNTED, self.counted)):
                for cls_name, methods in table.get(layer, {}).items():
                    cls = getattr(mod, cls_name)
                    for meth in methods:
                        raw = vars(cls)[meth]
                        name = span_name(layer, f"{cls_name}.{meth}")
                        if isinstance(raw, staticmethod):
                            self._set(cls, meth, staticmethod(make(name, raw.__func__)))
                        else:
                            self._set(cls, meth, make(name, raw))
        return self

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def aggregate(self) -> dict:
        """name -> {"calls", "raised", "self_s"} over every traced call."""
        out = {name: {"calls": self.calls[i], "raised": self.raised[i], "self_s": self.self_s[i]}
               for i, name in enumerate(self.names)}
        for name, n in self.counts.items():
            out[name] = {"calls": n, "raised": 0, "self_s": 0.0}
        return out

    def layer_self_s(self) -> dict:
        out: dict = {}
        for i, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self.self_s[i]
        return out

    def dump(self, path: str, meta: dict) -> None:
        """Write the stored spans (times in microseconds from tracer start) and the aggregate."""
        origin = self._t_origin
        doc = dict(meta)
        doc.update({
            "names": self.names,
            "fields": ["id", "parent", "op", "name", "t0_us", "t1_us"],
            "spans": [[s, p, o, n, round((t0 - origin) * 1e6, 1), round((t1 - origin) * 1e6, 1)]
                      for s, p, o, n, t0, t1 in self.spans],
            "spans_dropped": self.dropped,
            "aggregate": self.aggregate(),
        })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
