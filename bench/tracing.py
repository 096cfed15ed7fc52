"""Outside-in layer tracing for quiverhom.

Nothing here edits the program.  `install` wraps every public function of
each layer module and rebinds the wrapper in every ``quiverhom.*`` namespace
(the modules use ``from .x import f``, so one rebinding is not enough), in
module-level dicts such as ``cli.CLASSIFIERS``, and on three class methods.
Each call records a span ``[parent, name, start, end, outermost]`` in
memory; `summarize` turns the spans into per-layer and per-function figures
when the process ends.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence

LAYERS = ("linalg", "znmod", "rep", "homology", "purity", "classify", "harness", "io", "cli")

# (module, class, method, span name).  Hom groups and tensor products are
# built in many places, not only through rep.hom_reps and rep.tensor, so
# those two spans time every construction and the two functions, thin
# wrappers around it, are not wrapped themselves.
METHODS = (
    ("znmod", "ModComplex", "is_exact_at", "znmod.is_exact_at"),
    ("rep", "HomGroupRep", "__init__", "rep.hom_reps"),
    ("rep", "TensorPresentation", "__init__", "rep.tensor"),
)

# howell_form input size buckets, by cells = rows * cols
CELL_BUCKETS = (("0x0", 0), ("le24", 24), ("25to64", 64), ("gt64", None))


def cell_bucket(cells: int) -> str:
    return next(name for name, top in CELL_BUCKETS if top is None or cells <= top)


class Tracer:
    """Span recorder plus the few counters a span cannot express."""

    def __init__(self, clock: Callable[[], float] = time.process_time):
        self.clock = clock
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.active: Counter = Counter()
        self.counters: Counter = Counter()
        self.howell_seen: set = set()

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        outermost = self.active[name] == 0
        self.active[name] += 1
        self.stack.append(idx)
        self.spans.append([parent, name, self.clock(), 0.0, outermost])
        return idx

    def exit(self, idx: int) -> float:
        span = self.spans[idx]
        span[3] = self.clock()
        self.stack.pop()
        self.active[span[1]] -= 1
        return span[3] - span[2]

    def wrap(self, fn, name: str, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            idx = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.exit(idx)
            if after is not None:
                after(self, args, result, duration)
            return result

        return traced


# -- counters kept outside the spans; they run before the span starts or
#    after it ends, so their cost lands in the caller's self time ----------


def _howell_before(tr: Tracer, args):
    import numpy as np

    a = np.asarray(args[0], dtype=np.int64)
    cells = int(a.size)
    key = (int(args[1]), a.shape, a.tobytes())
    c = tr.counters
    c["linalg.howell_form.cells"] += cells
    c["linalg.howell_form.calls_" + cell_bucket(cells)] += 1
    if key in tr.howell_seen:
        c["linalg.howell_form.repeats"] += 1
    else:
        tr.howell_seen.add(key)


def _count_none(counter: str):
    def after(tr: Tracer, args, result, duration):
        if result is None:
            tr.counters[counter] += 1

    return after


def _present_before(tr: Tracer, args):
    if tr.active["znmod.is_exact_at"]:
        tr.counters["znmod.is_exact_at.present_calls"] += 1


def _run_suite_after(tr: Tracer, args, result, duration):
    tr.counters["harness.suite_s." + str(args[0])] += duration


BEFORE = {"linalg.howell_form": _howell_before, "znmod.present": _present_before}
AFTER = {
    "linalg.solve_left": _count_none("linalg.solve_left.inconsistent"),
    "homology.ext1_extension_count": _count_none("homology.ext1_extension_count.capped"),
    "harness.run_suite": _run_suite_after,
}


def install(tracer: Optional[Tracer] = None) -> Tracer:
    """Wrap the layers of the already imported ``quiverhom`` package."""
    tr = tracer or Tracer()
    pkg = {name: mod for name, mod in sys.modules.items() if name == "quiverhom" or name.startswith("quiverhom.")}
    swap: Dict[int, object] = {}
    method_spans = {m[3] for m in METHODS}
    for layer in LAYERS:
        mod = pkg["quiverhom." + layer]
        for attr, obj in list(vars(mod).items()):
            name = f"{layer}.{attr}"
            if (
                isinstance(obj, types.FunctionType)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
                and name not in method_spans
            ):
                swap[id(obj)] = tr.wrap(obj, name, BEFORE.get(name), AFTER.get(name))
    for mod in pkg.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in swap:
                setattr(mod, attr, swap[id(obj)])
            elif isinstance(obj, dict):
                for k, v in list(obj.items()):
                    if id(v) in swap:
                        obj[k] = swap[id(v)]
    for layer, cls_name, meth, name in METHODS:
        cls = getattr(pkg["quiverhom." + layer], cls_name)
        setattr(cls, meth, tr.wrap(getattr(cls, meth), name))
    return tr


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: Dict[int, List] = {}
    for s in spans:
        if s[0] >= 0:
            children.setdefault(s[0], []).append((s[2], s[3]))
    out = []
    for i, s in enumerate(spans):
        start, end = s[2], s[3]
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def summarize(spans: Sequence[Sequence], counters: Counter) -> Dict[str, float]:
    """Flat name -> value map of every traced figure of one process.

    ``<layer>.calls`` / ``<layer>.self_s`` per layer, ``<fn>.calls`` /
    ``<fn>.self_s`` / ``<fn>.incl_s`` per traced function (incl_s counts
    only outermost activations, so recursion is not counted twice),
    ``<layer>.incl_s`` for calls entering a layer from outside it,
    ``traced_s`` for the root spans (the traced time), and the counters.
    """
    out: Dict[str, float] = {f"{layer}.{k}": 0 for layer in LAYERS for k in ("calls", "self_s", "incl_s")}
    out["traced_s"] = 0.0
    layers = [s[1].split(".", 1)[0] for s in spans]
    for s, layer, self_s in zip(spans, layers, self_times(spans)):
        name = s[1]
        dur = s[3] - s[2]
        if s[0] < 0 or layers[s[0]] != layer:
            out[layer + ".incl_s"] += dur
        out[layer + ".calls"] += 1
        out[layer + ".self_s"] += self_s
        out[name + ".calls"] = out.get(name + ".calls", 0) + 1
        out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + self_s
        if s[4]:
            out[name + ".incl_s"] = out.get(name + ".incl_s", 0.0) + dur
        if s[0] < 0:
            out["traced_s"] += dur
    out.update(counters)
    return out
