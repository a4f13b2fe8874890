"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of capkit's modules from outside the
package: each call records a span (id, parent id, name, start, end, work
count).  Functions imported by name into another module (``from .quadform
import class_group_structure``) are replaced in every capkit namespace that
holds them, so calls through those bindings are seen too.  Per-element hot
calls (PcGroup.mult, _compose_raw, _reduce_raw) are deliberately not
wrapped: a span on each would cost more than the work it measures.

Spans are kept in memory and written out as JSON when the traced process
ends; `aggregate` turns them into per-name calls, self time and counts.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _len_arg(i):
    return lambda args, kwargs, out: len(args[i])


def _integers(args, kwargs, out):
    lo, hi = args[0], args[1]
    return max(0, min(hi, -2) - lo + 1)


# (span name, module, attribute path, work counter or None).  The counter
# sees the call's arguments and result and returns the work it represents.
SPANS = (
    ("cli.main", "capkit.cli", "main", None),
    ("cli.build_parser", "capkit.cli", "build_parser", None),
    ("cli.cmd_scan", "capkit.cli", "cmd_scan", None),
    ("cli.cmd_report", "capkit.cli", "cmd_report", None),
    ("quadform.fundamental_discriminants", "capkit.quadform",
     "fundamental_discriminants", _integers),
    ("quadform.class_group_structure", "capkit.quadform",
     "class_group_structure", None),
    ("abgroup.abelian_structure", "capkit.abgroup", "abelian_structure",
     _len_arg(0)),
    ("abgroup.smith_normal_form", "capkit.abgroup", "smith_normal_form", None),
    ("store.read_store", "capkit.store", "read_store",
     lambda args, kwargs, out: len(out[0])),
    ("store.append_records", "capkit.store", "append_records", _len_arg(1)),
    ("catalog.parse_catalog", "capkit.catalog", "parse_catalog", None),
    ("pcgroup.build", "capkit.pcgroup", "PcGroup.__init__", None),
    ("pcgroup.capitulation_type", "capkit.pcgroup", "capitulation_type", None),
    ("pcgroup.transfer", "capkit.pcgroup", "transfer", None),
    ("pcgroup.derived_of", "capkit.pcgroup", "PcGroup.derived_of", None),
    ("pcgroup.derived_subgroup", "capkit.pcgroup", "PcGroup.derived_subgroup",
     None),
    ("pcgroup.quotient_structure", "capkit.pcgroup",
     "PcGroup.quotient_structure", None),
    ("pcgroup.schreier_transversal", "capkit.pcgroup", "schreier_transversal",
     None),
    ("pcgroup.subgroups_index_p_above_derived", "capkit.pcgroup",
     "subgroups_index_p_above_derived", None),
    ("gmodule.catalog_relative_data", "capkit.gmodule",
     "catalog_relative_data", None),
    ("gmodule.make_relative_datum", "capkit.gmodule", "make_relative_datum",
     None),
    ("gmodule.check_invariants", "capkit.gmodule",
     "RelativeExtensionDatum.check_invariants", None),
    ("gmodule.classify_growth", "capkit.gmodule", "classify_growth", None),
)

SPAN_NAMES = tuple(s[0] for s in SPANS)

# Name bindings made by `from ... import` that must be found and replaced
# whenever both modules are loaded; a rename in capkit turns into an error
# here instead of a span that silently never fires.
REQUIRED_BINDINGS = (
    ("capkit.cli", "class_group_structure"),
    ("capkit.cli", "read_store"),
    ("capkit.cli", "fundamental_discriminants"),
    ("capkit.cli", "capitulation_type"),
    ("capkit.quadform", "abelian_structure"),
    ("capkit.pcgroup", "abelian_structure"),
    ("capkit.gmodule", "transfer"),
)


class TraceError(RuntimeError):
    pass


class Tracer:
    def __init__(self):
        self.spans = []     # [id, parent id or -1, name, start, end, count]
        self._stack = []
        self.bindings = []  # "module.attribute" names replaced

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, clock(),
                   0.0, 0]
            spans.append(rec)
            stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
                if counter is not None:
                    rec[5] = counter(args, kwargs, out)
                return out
            finally:
                stack.pop()
                rec[4] = clock()
        return traced

    def install(self):
        """Wrap every span whose module is already imported.  Modules the
        traced program has not imported are left alone, so tracing imports
        nothing the program would not."""
        loaded = {m: sys.modules[m] for m in list(sys.modules)
                  if m == "capkit" or m.startswith("capkit.")}
        for name, modname, path, counter in SPANS:
            if modname not in loaded:
                continue
            mod = loaded[modname]
            if "." in path:
                clsname, attr = path.split(".")
                cls = getattr(mod, clsname)
                setattr(cls, attr, self._wrap(name, getattr(cls, attr), counter))
                self.bindings.append("%s.%s" % (modname, path))
                continue
            orig = getattr(mod, path)
            wrapped = self._wrap(name, orig, counter)
            for other_name, other in loaded.items():
                for attr, value in list(vars(other).items()):
                    if value is orig:
                        setattr(other, attr, wrapped)
                        self.bindings.append("%s.%s" % (other_name, attr))
        for modname, attr in REQUIRED_BINDINGS:
            owner = modname + "." + attr
            if modname in loaded and owner not in self.bindings:
                raise TraceError("binding %s was not found to wrap" % owner)
        # catalog builds groups through its own name for the class; the
        # class object is shared, so the wrapped __init__ covers it.
        if "capkit.catalog" in loaded and \
                loaded["capkit.catalog"].PcGroup is not \
                loaded["capkit.pcgroup"].PcGroup:
            raise TraceError("catalog.PcGroup is not pcgroup.PcGroup")

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "bindings": self.bindings}, fh)


def aggregate(spans):
    """{name: {"calls", "self_s", "total_s", "count"}} from recorded spans.

    Self time is a span's duration minus the durations of its direct
    children (calls are sequential in one thread, so children do not
    overlap).  Total time sums only the outermost span of each name, so a
    name nested in itself is not counted twice."""
    child = [0.0] * len(spans)
    names = [s[2] for s in spans]
    for sid, parent, _, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for sid, parent, name, start, end, count in spans:
        agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                    "count": 0})
        agg["calls"] += 1
        agg["self_s"] += (end - start) - child[sid]
        agg["count"] += count
        p = parent
        while p >= 0 and names[p] != name:
            p = spans[p][1]
        if p < 0:
            agg["total_s"] += end - start
    return out


def max_duration(spans, name):
    return max((s[4] - s[3] for s in spans if s[2] == name), default=0.0)


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_traced(out_path, fn, *args):
    """Install a tracer, call fn(*args), write the spans to out_path even if
    fn raises or exits, and return fn's result."""
    tracer = Tracer()
    tracer.install()
    try:
        return fn(*args)
    finally:
        tracer.dump(out_path)
