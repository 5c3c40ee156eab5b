"""In-memory span tracer for the traced benchmark run.

The tracer wraps listed public functions of pcgroups from outside the
library: each wrapper is bound in place of the original in every loaded
pcgroups module that holds it, so calls between modules (and within one
module) get their own span with the caller's span as parent.  A span is
[name, start, end, parent index, request id, info]; info is a per-target
size (letters in, (n, d, k), ...) taken after the clock stops.  Listed
private internals get no span; the work they do is counted instead
(vectors yielded, forms made, letters taken in), so the counts move when
the library does less of that work.  Nothing is written until the run
ends.  uninstall() puts the originals back, for untraced passes in the
same interpreter.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from time import perf_counter


def _letters_in(args, kwargs, result):
    w = args[1] if len(args) > 1 else kwargs.get("w")
    if hasattr(w, "idx"):
        return len(w.idx)
    count = 0
    for tok in str(w).split():
        _, _, exp = tok.partition("^")
        count += abs(int(exp)) if exp else (0 if tok == "1" else 1)
    return count


def _ndk(args, kwargs, result):
    return list(args[:3])


# Qualified name (module.function) -> info extractor or None.
TARGETS = {
    "graphs.load_graph": None,
    "words.minimal_form": _letters_in,
    "words.support": None,
    "words.is_cyclically_minimal": None,
    "words.cyclic_reduce": None,
    "words.conjugate_test": None,
    "cosets.strip_divisors": None,
    "cosets.double_coset_rep": None,
    "cosets.in_maln": None,
    "hnn.hnn_factorize": None,
    "hnn.sigma": None,
    "hnn.is_t_thick": None,
    "hnn.is_t_root": None,
    "freiheitssatz.magnus_verdict": None,
    "freiheitssatz.check_theorem_main": None,
    "freiheitssatz.check_amalgam": None,
    "census.census_row": None,
    "census.density": None,
    "census.enumerate_LH": None,
    "census.enumerate_LHU": None,
    "census.enumerate_composed": _ndk,
}


def _count_yields(counts, key, items):
    for item in items:
        counts[key] += 1
        yield item


# Private internal (module.function) -> (count key, what is counted):
#   yields   items the generator yields
#   levels   forms in the list of levels the enumerator returns
#   letters  letters of the word (second argument) taken in
COUNTERS = {
    "census._alpha_vectors": ("alpha_vectors", "yields"),
    "census._iter_general_forms": ("forms", "levels"),
    "census._iter_square_forms": ("forms", "levels"),
    "words.reduce_letters": ("reduce_letters_in", "letters"),
}


class Tracer:
    """Wrappers for `targets` (spans) and `counters` (counts).  A listed
    name the library no longer has is recorded in self.missing instead of
    failing the run.  install() and uninstall() bind the wrappers or the
    originals; wrappers record only while self.active is set."""

    def __init__(self, targets=TARGETS, counters=COUNTERS):
        self.targets = targets
        self.spans = []
        self.stack = []
        self.request = None
        self.active = False
        self.missing = []
        self.counts = {key: 0 for key, _ in counters.values()}
        self.bindings = []  # (module, attribute, original, wrapper)
        for qual, info in targets.items():
            self._bind(qual, lambda original, q=qual, i=info: self._wrap(q, original, i))
        for qual, (key, kind) in counters.items():
            self._bind(qual, lambda original, k=key, c=kind: self._count(k, c, original))

    def _bind(self, qual, make_wrapper):
        modname, func = qual.split(".")
        try:
            module = importlib.import_module("pcgroups." + modname)
        except ImportError:
            self.missing.append(qual)
            return
        original = getattr(module, func, None)
        if not callable(original):
            self.missing.append(qual)
            return
        wrapper = make_wrapper(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "pcgroups" and not name.startswith("pcgroups."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.bindings.append((mod, attr, original, wrapper))

    def install(self):
        for mod, attr, _, wrapper in self.bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self.bindings:
            setattr(mod, attr, original)

    def reset(self):
        """Forget the spans and counts recorded so far."""
        self.spans.clear()
        for key in self.counts:
            self.counts[key] = 0

    def _count(self, key, kind, original):
        counts = self.counts

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            if not self.active:
                return result
            if kind == "yields":
                return _count_yields(counts, key, result)
            if kind == "levels":
                counts[key] += sum(len(level) for level in result)
            else:
                counts[key] += len(args[1])
            return result

        counted.__wrapped__ = original
        return counted

    def _wrap(self, qual, original, info):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            span = [qual, 0.0, 0.0, stack[-1] if stack else -1,
                    self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", qual)
        traced.__doc__ = getattr(original, "__doc__", None)
        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def summarise(self):
        """Per target: calls, busy_ms (time inside the outermost span of
        that name, so recursion is not counted twice), self_ms (duration
        minus the time covered by child spans; children of one span run one
        after another, so their durations add up without overlap) and the
        info values in call order."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {qual: {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0,
                      "info": [], "durations_ms": []}
               for qual in self.targets if qual not in self.missing}
        for i, (name, start, end, parent, _, info) in enumerate(spans):
            rec = out[name]
            dur = end - start
            rec["calls"] += 1
            rec["self_ms"] += (dur - covered[i]) * 1e3
            rec["durations_ms"].append(dur * 1e3)
            rec["info"].append(info)
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                rec["busy_ms"] += dur * 1e3
        return out


def loglog_slope(xs, ys):
    """Least-squares slope of log y against log x."""
    return slope([math.log(x) for x in xs], [math.log(y) for y in ys])


def slope(xs, ys):
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx
