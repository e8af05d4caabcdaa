"""Per-layer spans recorded from outside omegasem.

``Tracer.installed()`` wraps each public layer function listed in LAYERS.
The wrapper is bound in the defining module and under every other name that
an ``omegasem`` module holds for the same function object (for example
``langops.close_generators`` and ``buchi.close_generators``), and the
originals are put back on exit.  A span is recorded only while an operation
is running (``tracer.op`` is its index), so fingerprints and output checks
stay out of the trace.

Each span is ``[name, start, end, parent span index or -1, op index]``;
spans are kept in memory and written as JSON by ``dump``.  ``layer_metrics``
reduces them to the benchmark's per-layer metrics: per function its calls,
self time (span minus child spans), total time (the whole span) and the
counters read from its arguments and result.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import weakref
from time import perf_counter

LAYERS = {
    "semigroup": ["close_generators"],
    "morphism": ["linked_pairs", "member"],
    "conjugacy": ["conjugacy_classes", "close_under_conjugation"],
    "syntactic": ["maximal_pair_set", "syntactic_morphism"],
    "inclusion": ["inclusion_test"],
    "langops": ["project", "language_included", "complement", "intersect",
                "union", "inverse_project"],
    "buchi": ["buchi_to_strong", "morphism_to_buchi", "weak_to_strong"],
    "mso": ["compile_formula", "parse"],
}

# counters beyond calls, self_s and total_s, with their units
EXTRAS = {
    "semigroup.close_generators": [("elements", "count"),
                                   ("max_elements", "count"),
                                   ("products", "count")],
    "morphism.linked_pairs": [("calls_per_semigroup", "ratio")],
    "conjugacy.conjugacy_classes": [("pairs", "count"),
                                    ("find_calls", "count"),
                                    ("union_calls", "count")],
    "syntactic.syntactic_morphism": [("split_work", "count"),
                                     ("size_in", "count"),
                                     ("size_out", "count"),
                                     ("kept_ratio", "ratio")],
    "inclusion.inclusion_test": [("triples_visited", "count"),
                                 ("seen_bytes", "computed_B")],
    "langops.project": [("powerset_elements", "count"),
                        ("powerset_s", "s"),
                        ("kept_ratio", "ratio")],
    "langops.language_included": [("true_p50_ms", "ms"),
                                  ("false_p50_ms", "ms")],
    "buchi.buchi_to_strong": [("profile_elements", "count")],
    "buchi.morphism_to_buchi": [("states", "count")],
    "buchi.weak_to_strong": [("calls_per_input", "ratio")],
}

OVERHEAD = [("trace.overhead_s", "s"), ("trace.overhead_ratio", "ratio")]


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _size(morphism):
    return morphism.semigroup.size


def _counts(name, args, kwargs, r):
    """Additive counters of one call, read from its arguments and result."""
    if name == "semigroup.close_generators":
        n = r[0].size
        return {"elements": n, "max_elements": n,
                "products": n * len(r[0].generators)}
    if name == "conjugacy.conjugacy_classes":
        return {"pairs": len(r.pairs), "find_calls": r.find_calls,
                "union_calls": r.union_calls}
    if name == "syntactic.syntactic_morphism":
        return {"split_work": r.split_work,
                "size_in": _size(_first_arg(args, kwargs).morphism),
                "size_out": _size(r.recognizer.morphism)}
    if name == "inclusion.inclusion_test":
        n = _size(_first_arg(args, kwargs))
        return {"triples_visited": r.triples_visited,
                "seen_bytes": n * (n + 1) ** 2}
    if name == "langops.project":
        return {"size_out": _size(r.morphism)}
    if name == "buchi.buchi_to_strong":
        return {"profile_elements": _size(r.morphism)}
    if name == "buchi.morphism_to_buchi":
        return {"states": r.n_states}
    return None


# calls over distinct first arguments: a waste ratio
DISTINCT = {"morphism.linked_pairs": "calls_per_semigroup",
            "buchi.weak_to_strong": "calls_per_input"}


class _Distinct:
    """Counts distinct objects seen, without keeping them alive.

    An id is forgotten when its object dies, so a reused id counts again.
    """

    def __init__(self):
        self.count = 0
        self._live = {}

    def add(self, obj):
        key = id(obj)
        if key in self._live:
            return
        self.count += 1
        self._live[key] = weakref.ref(obj,
                                      lambda _, k=key: self._live.pop(k, None))


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for module, funcs in LAYERS.items():
        for fn in funcs:
            name = "%s.%s" % (module, fn)
            out.append((name + ".calls", "count"))
            out.append((name + ".self_s", "s"))
            out.append((name + ".total_s", "s"))
            out.extend((name + "." + c, u) for c, u in EXTRAS.get(name, []))
    return out + OVERHEAD


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}   # span index -> counters of that call
        self.op = None     # index of the running operation, or None
        self._stack = []
        self._distinct = {name: _Distinct() for name in DISTINCT}
        self._patched = []

    def _wrap(self, name, fn):
        distinct = self._distinct.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.op]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if distinct is not None:
                distinct.add(_first_arg(args, kwargs))
            counts = _counts(name, args, kwargs, result)
            if counts:
                self.counts[idx] = counts
            return result

        return wrapper

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "omegasem" or key.startswith("omegasem.")]
        for module, funcs in LAYERS.items():
            mod = importlib.import_module("omegasem." + module)
            for fn in funcs:
                orig = getattr(mod, fn)
                wrapper = self._wrap("%s.%s" % (module, fn), orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, orig))

    def restore(self):
        while self._patched:
            m, attr, orig = self._patched.pop()
            setattr(m, attr, orig)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def dump(self, path, **header):
        doc = dict(header)
        doc["fields"] = ["name", "start", "end", "parent", "op"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def layer_metrics(self, extra=None):
        """Reduce the spans to ``{metric name: value}`` for every metric in
        ``metric_units()``; ``extra`` supplies values measured elsewhere."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s, total_s, sums = {}, {}, {}, {}
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[idx]
            total_s[name] = total_s.get(name, 0.0) + (end - start)
            acc = sums.setdefault(name, {})
            for key, v in self.counts.get(idx, {}).items():
                acc[key] = max(acc.get(key, 0), v) if key.startswith("max_") \
                    else acc.get(key, 0) + v
            if name == "semigroup.close_generators" and parent >= 0 \
                    and self.spans[parent][0] == "langops.project":
                proj = sums.setdefault("langops.project", {})
                proj["powerset_elements"] = proj.get("powerset_elements", 0) \
                    + self.counts[idx]["elements"]
                proj["powerset_s"] = proj.get("powerset_s", 0.0) + end - start
        for name, counter in DISTINCT.items():
            seen = self._distinct[name].count
            sums.setdefault(name, {})[counter] = \
                calls.get(name, 0) / seen if seen else 0.0
        synt = sums.get("syntactic.syntactic_morphism", {})
        if synt.get("size_in"):
            synt["kept_ratio"] = synt["size_out"] / synt["size_in"]
        proj = sums.get("langops.project", {})
        if proj.get("powerset_elements"):
            proj["kept_ratio"] = proj["size_out"] / proj["powerset_elements"]
        extra = extra or {}
        out = {}
        for metric, _ in metric_units():
            fn, _, counter = metric.rpartition(".")
            if metric in extra:
                out[metric] = extra[metric]
            elif counter == "calls":
                out[metric] = calls.get(fn, 0)
            elif counter == "self_s":
                out[metric] = self_s.get(fn, 0.0)
            elif counter == "total_s":
                out[metric] = total_s.get(fn, 0.0)
            else:
                out[metric] = sums.get(fn, {}).get(counter, 0)
        return out
