"""Per-layer counts and self time, taken by wrapping the package from outside.

`Tracer.install()` wraps every public function, and the public and
operator methods of every class, that the layer modules define.  Modules
bind names at import (`from .projective import proj_tau`), so a wrapped
function is rebound in every package module that holds it, not only in
the module that defines it.  The check groups of the sweep are wrapped
through `verify.CHECK_GROUPS`, which `run_verify` reads at call time.

Hot leaves (`p_mul` runs ~1.5M times per sweep) are aggregated into
per-function counters: calls, inclusive time of outermost calls, and
self time, which is a call's inclusive time minus the time spent in
wrapped calls it made.  Spans are kept only at coarse boundaries (one
per query, per check group and per CLI phase), in memory, and written
out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("grading", "point", "laurent", "projective", "bundles",
          "schubert", "render", "verify", "cli")
OPERATORS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__",
             "__rmul__", "__pow__", "__eq__")
GROUPS = ("point_table", "point_axioms", "grading", "proj_relations",
          "freeness", "random_homs", "frobenius_module", "lemma_suite",
          "base_case", "type_blocks", "euler_grid", "dictionary",
          "corollaries", "soundness")

# per-layer metric -> the wrapped function whose calls it counts
COUNTED = {
    "point.p_mul.calls": "point.p_mul",
    "laurent.l_mul.calls": "laurent.l_mul",
    "projective.reduce_mono.calls": "projective.Ambient.reduce_mono",
    "projective.class_mul.calls": "projective.ProjClass.__mul__",
    "projective.from_mono.calls": "projective.ProjClass.from_mono",
    "projective.proj_tau.calls": "projective.proj_tau",
    "bundles.euler_line.calls": "bundles.euler_line",
    "schubert.class_of.calls": "schubert.class_of",
}
# per-layer metric -> the wrapped function whose outermost calls it times
INCLUSIVE = {
    "projective.reduce_s": "projective.Ambient.reduce_mono",
    "bundles.euler_product_s": "bundles.euler_product",
    "bundles.closed_form_s": "bundles.euler_closed_form",
    "bundles.invariants_s": "bundles.bundle_invariants",
    "schubert.bezout_expansion_s": "schubert.bezout_expansion",
    "schubert.expansion_class_s": "schubert.expansion_class",
}


def metric_units() -> dict:
    """Every per-layer metric with its unit, in report order."""
    units = {}
    for layer in LAYERS[:-1]:
        if layer in ("point", "render"):
            units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update({name: "count" for name in COUNTED})
    units.update({name: "s" for name in INCLUSIVE})
    units.update({"projective.reduce_new_keys": "count",
                  "projective.reduce_hit_ratio": "ratio",
                  "projective.ambients": "count"})
    for g in GROUPS:
        units[f"verify.group.{g}.s"] = "s"
        units[f"verify.group.{g}.cases"] = "count"
    units.update({"cli.import_s": "s", "cli.parser_s": "s",
                  "cli.command_s": "s", "trace.overhead_s": "s"})
    return units


class Tracer:
    """Counters and spans of one traced process."""

    def __init__(self):
        # key -> [calls, inclusive ns of outermost calls, self ns, depth]
        self.stats: dict = {}
        self.stack: list = []       # wrapped-children ns of each open call
        self.spans: list = []
        # Ambient -> monomials passed to its reduce_mono; holding the
        # ambient keeps its identity from being reused by a new one
        self.seen: dict = {}
        self.new_keys = 0
        self.group_cases: dict = {}
        self.open_span = None

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, key: str, fn, on_call=None):
        st = self.stats.setdefault(key, [0, 0, 0, 0])
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            st[3] += 1
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st[0] += 1
                st[2] += dt - stack.pop()
                st[3] -= 1
                if not st[3]:
                    st[1] += dt
                if stack:
                    stack[-1] += dt
        return wrapper

    def _on_reduce(self, args) -> None:
        amb, mono = args[0], args[1]
        seen = self.seen.get(amb)
        if seen is None:
            seen = self.seen[amb] = set()
        if mono not in seen:
            seen.add(mono)
            self.new_keys += 1

    def install(self) -> None:
        """Wrap the layers of the already importable package in place."""
        mods = {name: importlib.import_module(f"c2bezout.{name}")
                for name in LAYERS}
        swap: dict = {}
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_") \
                        and not inspect.isgeneratorfunction(obj):
                    swap[obj] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        for mod in [sys.modules["c2bezout"], *mods.values()]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in swap:
                    setattr(mod, name, swap[obj])
        verify = mods["verify"]
        verify.CHECK_GROUPS = tuple(
            (name, self._group(name, fn)) for name, fn in verify.CHECK_GROUPS)

    def _wrap_class(self, layer: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in OPERATORS:
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            on_call = self._on_reduce if key == INCLUSIVE["projective.reduce_s"] else None
            if isinstance(attr, (classmethod, staticmethod)):
                setattr(cls, name, type(attr)(self._wrap(key, attr.__func__)))
            elif inspect.isfunction(attr) and not inspect.isgeneratorfunction(attr):
                setattr(cls, name, self._wrap(key, attr, on_call))

    def _group(self, name: str, fn):
        wrapped = self._wrap(f"verify.group.{name}", fn)

        def group(rec, cfg):
            before = sum(r.cases for r in rec.records)
            try:
                with self.span(f"verify.{name}"):
                    wrapped(rec, cfg)
            finally:
                self.group_cases[name] = (self.group_cases.get(name, 0)
                                          + sum(r.cases for r in rec.records) - before)
        return group

    # -- spans ------------------------------------------------------------

    def span(self, name: str, **attrs):
        return _Span(self, name, attrs)

    # -- report -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer numbers of the traced work; the caller measures cli.*
        and trace.*."""
        calls = dict.fromkeys(LAYERS, 0)
        self_ns = dict.fromkeys(LAYERS, 0)
        for key, (n, _, own, _) in self.stats.items():
            layer = key.split(".", 1)[0]
            calls[layer] += n
            self_ns[layer] += own

        def stat(key):
            return self.stats.get(key, [0, 0, 0, 0])

        out = {f"{layer}.self_s": self_ns[layer] / 1e9 for layer in LAYERS[:-1]}
        out["point.calls"] = calls["point"]
        out["render.calls"] = calls["render"]
        out.update({name: stat(key)[0] for name, key in COUNTED.items()})
        out.update({name: stat(key)[1] / 1e9 for name, key in INCLUSIVE.items()})
        reduces = out["projective.reduce_mono.calls"]
        out["projective.reduce_new_keys"] = self.new_keys
        out["projective.reduce_hit_ratio"] = (
            (reduces - self.new_keys) / reduces if reduces else 0.0)
        out["projective.ambients"] = stat("projective.Ambient.__init__")[0]
        for g in GROUPS:
            out[f"verify.group.{g}.s"] = stat(f"verify.group.{g}")[1] / 1e9
            out[f"verify.group.{g}.cases"] = self.group_cases.get(g, 0)
        return out


class _Span:
    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self.tracer = tracer
        self.record = {"id": len(tracer.spans) + 1, "name": name, "attrs": attrs}

    def __enter__(self):
        t = self.tracer
        self.record["parent"] = t.open_span
        t.spans.append(self.record)
        t.open_span = self.record["id"]
        self.record["start_ns"] = time.perf_counter_ns()
        return self.record

    def __exit__(self, *exc):
        self.record["end_ns"] = time.perf_counter_ns()
        self.tracer.open_span = self.record["parent"]
        return False
