"""Span tracing of the library from outside, for the per-layer metrics.

install() wraps, in place and from this file only, the public functions of
every planeaut module (in every module namespace that binds them, since
modules import each other's functions by name) and the public methods of
the classes they define.  Per-coefficient ring arithmetic (add, mul, ...)
and constructors are left alone: they run millions of times per task, so
their cost stays in the self time of the layer that calls them, which is
where a faster kernel would show.

Each wrapped call records a span (name, start, end, parent).  Self time is
a span's duration minus the time covered by its children; observers that
count work run outside every span's self time, except the item counter of
ring scans, whose generator runs inside its consumer (see _obs_scan).
"""

from __future__ import annotations

import gzip
import inspect
import time
from array import array
from collections import defaultdict

LAYERS = ("rings", "poly", "endo", "amalgam", "conjugacy", "degeneration", "parsing")

# Ring methods that do more than one coefficient operation per call.
RING_METHODS = {"sqrt", "nth_roots", "elements", "sample_stream"}
DUNDERS = {"__add__", "__sub__", "__neg__", "__mul__", "__pow__", "__str__"}
INITS = {"PlaneAut", "TFamily"}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.calls = []
        self.self_s = []
        self.count = defaultdict(int)
        self.peak = defaultdict(int)
        self.origin = time.perf_counter()

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def wrap(self, name, fn, observe=None):
        nid = self._id(name)
        clock = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            self.span_start.append(t0)
            self.span_end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.span_end[idx] = t1
                self.calls[nid] += 1
                self.self_s[nid] += t1 - t0 - frame[1]
            if observe is not None:
                result = observe(self, args, result)
            if stack:
                stack[-1][1] += clock() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    def calls_of(self, *names):
        return sum(self.calls[self._ids[n]] for n in names if n in self._ids)

    def self_of(self, *names):
        return sum(self.self_s[self._ids[n]] for n in names if n in self._ids)

    def layer_self(self, layer):
        prefix = layer + "."
        return sum(s for n, s in zip(self.names, self.self_s) if n.startswith(prefix))

    def write(self, path, header):
        """Spans as tab-separated text, times in seconds from the tracer's start."""
        with gzip.open(path, "wt") as out:
            out.write(f"# {header}\n")
            out.write("span\tname\tstart_s\tend_s\tparent\n")
            o = self.origin
            for i in range(len(self.span_start)):
                out.write(f"{i}\t{self.names[self.span_name[i]]}\t"
                          f"{self.span_start[i] - o:.9f}\t{self.span_end[i] - o:.9f}\t"
                          f"{self.span_parent[i]}\n")


# -- observers: counts recorded where the work happens --------------------------

def _coeff_bits(tracer, poly):
    for c in poly.terms.values():
        bits = c.numerator.bit_length() + c.denominator.bit_length()
        if bits > tracer.peak["coeff_bits"]:
            tracer.peak["coeff_bits"] = bits


def _obs_mul(tracer, args, result):
    a, b = args
    tracer.count["term_products"] += len(a.terms) * len(b.terms)
    n = len(result.terms)
    if n > tracer.peak["mul_terms"]:
        tracer.peak["mul_terms"] = n
    if type(result.ring).__name__ == "RationalField":
        _coeff_bits(tracer, result)
    return result


def _obs_add(tracer, args, result):
    tracer.count["add_terms_copied"] += len(args[0].terms)
    return result


def _obs_endo_compose(tracer, args, result):
    d = result.degree
    if isinstance(d, int) and d > tracer.peak["endo_degree"]:
        tracer.peak["endo_degree"] = d
    return result


def _obs_factor(tracer, args, result):
    tracer.count["word_factors"] += len(result)
    return result


def _obs_decide(tracer, args, result):
    tracer.count["verdict_" + result.verdict] += 1
    return result


def _obs_parse(tracer, args, result):
    tracer.count["parse_chars"] += len(args[0])
    return result


def _obs_scan(tracer, args, result):
    """Counts the items the caller takes.  The generator runs while the caller
    consumes it, so its small per-item cost stays in the caller's self time;
    the count reaches the tracer once, when the generator closes."""
    def counted(it):
        n = 0
        try:
            for x in it:
                n += 1
                yield x
        finally:
            tracer.count["scan_elems"] += n
    return counted(result)


OBSERVERS = {
    "poly.MultiPoly.__mul__": _obs_mul,
    "poly.MultiPoly.__add__": _obs_add,
    "endo.Endo.compose": _obs_endo_compose,
    "amalgam.jvdk_factor": _obs_factor,
    "conjugacy.decide_conjugacy": _obs_decide,
    "parsing.parse_automorphism": _obs_parse,
    "parsing.parse_polynomial": _obs_parse,
}


def install(tracer, package):
    """Wrap the library in place; returns the number of wrapped callables."""
    modules = {layer: getattr(package, layer) for layer in LAYERS}
    namespaces = [package] + list(modules.values())
    wrapped = 0
    for layer, mod in modules.items():
        for cname, cls in list(vars(mod).items()):
            if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                continue
            for mname, attr in list(vars(cls).items()):
                if not inspect.isfunction(attr):
                    continue
                if layer == "rings":
                    keep = mname in RING_METHODS
                else:
                    keep = (not mname.startswith("_") or mname in DUNDERS
                            or (mname == "__init__" and cname in INITS))
                if keep:
                    name = f"{layer}.{cname}.{mname}"
                    observe = OBSERVERS.get(name)
                    if name.startswith("rings.") and mname in ("elements", "sample_stream"):
                        observe = _obs_scan
                    setattr(cls, mname, tracer.wrap(name, attr, observe))
                    wrapped += 1
        for fname, fn in list(vars(mod).items()):
            if (fname.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            name = f"{layer}.{fname}"
            traced = tracer.wrap(name, fn, OBSERVERS.get(name))
            for ns in namespaces:
                if vars(ns).get(fname) is fn:
                    setattr(ns, fname, traced)
            wrapped += 1
    return wrapped

