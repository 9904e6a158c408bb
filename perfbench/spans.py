"""Spans around the program's module functions, installed from outside.

``Tracer.install`` wraps every public module-level function of the eight
layers (plus ``_extendable_tail_sets``, which ``independence`` imports
across layers) and rebinds each wrapper in every ``toeplitztame``
namespace that holds the original, so calls made through ``from x import
f`` are seen too.  Methods are not wrapped: their time counts towards the
function that called them.

Spans (name, start, end, parent, op) are kept in compact arrays while the
run lasts and written out once at the end.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import types
from array import array
from time import perf_counter_ns

LAYERS = ("cli", "substitution", "graphs", "gtheta", "extended_bratteli",
          "independence", "semicocycle", "odometer")
CROSS_LAYER_PRIVATE = {"extended_bratteli._extendable_tail_sets"}

# Functions whose calls and self time are reported by name.
REPORTED = (
    "substitution.is_aperiodic", "substitution.language",
    "substitution.expand", "substitution.height_and_pure_base",
    "substitution.shortest_collapsing_word", "substitution.letter_in_power",
    "gtheta.build_gtheta", "gtheta.tameness_verdict", "graphs.scc_partition",
    "extended_bratteli.subset_arcs", "extended_bratteli.find_double_path",
    "extended_bratteli.power_column_maps", "independence.synthesize_scheme",
    "independence.verify_patterns", "semicocycle.build_d_stage",
    "semicocycle.check_translate_disjointness", "semicocycle.realize_prefix",
    "semicocycle.head_set", "odometer.add_integer", "odometer.head_index",
    "cli.main",
)

# Size counters: metric name -> (function, size of (args, result)).
SIZES = {
    "substitution.language.words": (
        "substitution.language", lambda args, res: len(res)),
    "substitution.expand.chars": (
        "substitution.expand", lambda args, res: len(res)),
    "extended_bratteli.subset_arcs.arcs": (
        "extended_bratteli.subset_arcs", lambda args, res: len(res[1])),
    "graphs.scc_partition.vertices": (
        "graphs.scc_partition", lambda args, res: len(args[0])),
    "extended_bratteli.power_column_maps.maps": (
        "extended_bratteli.power_column_maps", lambda args, res: len(res[1])),
}


def _wrappable(module, name, obj):
    if not (isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")):
        return False
    if getattr(obj, "__module__", None) != module.__name__:
        return False
    return not name.startswith("_") or \
        f"{module.__name__.rpartition('.')[2]}.{name}" in CROSS_LAYER_PRIVATE


class Tracer:
    def __init__(self):
        self.names = []
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op_of = array("i")
        self.op = -1          # spans are recorded only while op >= 0
        self.stack = []
        self.sizes = {}

    def install(self, package="toeplitztame"):
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == package or n.startswith(package + ".")]
        size_of = {fn: (metric, f) for metric, (fn, f) in SIZES.items()}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for name, obj in list(vars(module).items()):
                if not _wrappable(module, name, obj):
                    continue
                qual = f"{layer}.{name}"
                wrapper = self._wrap(qual, obj, size_of.get(qual))
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is obj:
                            setattr(ns, attr, wrapper)

    def _wrap(self, qual, fn, size):
        idx = len(self.names)
        self.names.append(qual)
        tracer = self
        if size is not None:
            self.sizes[size[0]] = 0

        def wrapper(*args, **kwargs):
            if tracer.op < 0:
                return fn(*args, **kwargs)
            sid = len(tracer.start)
            tracer.name_of.append(idx)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.op_of.append(tracer.op)
            tracer.end.append(0)
            tracer.stack.append(sid)
            tracer.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[sid] = perf_counter_ns()
                tracer.stack.pop()
            if size is not None:
                tracer.sizes[size[0]] += size[1](args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qual)
        return wrapper

    def aggregate(self) -> dict:
        """Per-function calls and self seconds, per-layer self seconds and
        the size counters."""
        n = len(self.start)
        child = [0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for sid in range(n):
            k = self.name_of[sid]
            calls[k] += 1
            self_ns[k] += self.end[sid] - self.start[sid] - child[sid]
        out = {}
        layer_ns = dict.fromkeys(LAYERS, 0)
        for k, qual in enumerate(self.names):
            layer_ns[qual.partition(".")[0]] += self_ns[k]
            if qual in REPORTED:
                out[f"{qual}.calls"] = calls[k]
                out[f"{qual}.self_s"] = self_ns[k] / 1e9
        for layer, ns in layer_ns.items():
            out[f"{layer}.self_s"] = ns / 1e9
        out.update(self.sizes)
        out["trace.spans"] = n
        return out

    def write(self, path):
        """One tab-separated line per span: op, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid in range(len(self.start)):
                fh.write(f"{self.op_of[sid]}\t{self.names[self.name_of[sid]]}\t"
                         f"{self.start[sid]}\t{self.end[sid]}\t{self.parent[sid]}\n")
