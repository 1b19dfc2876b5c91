"""Per-layer spans for the traced run, recorded from outside the package.

`Tracer.install` wraps every public function of each layer module, at every
module-level binding of it in every `mtlsem.*` module, and the IntervalSet
methods; `uninstall` puts the originals back.  Each call becomes one span
[name, start, end, parent, request] kept in memory.  Metrics are computed
after the traced pass, with the wrappers removed, from the spans and from the
arguments and results kept for the few names whose sizes are counted.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("formulas", "structures", "encodings", "intervals", "pointwise",
          "interval_based", "mixed", "compilers", "oracle", "cli")
SET_METHODS = ("empty", "of", "from_intervals", "union", "intersect", "difference",
               "complement", "covers", "clip", "member")
INTERSECT = "intervals.IntervalSet.intersect"
SAT_ITW = ("interval_based.sat_set_itw", "interval_based.sat_set_its")
SAT_MX = "mixed.sat_set_mx"
COMPILE = ("compilers.compile_pw", "compilers.compile_itw")
PARSE = "formulas.parse"
CRITICAL = "oracle.critical_values"
ORACLE_EVAL = ("oracle.oracle_eval_pw", "oracle.oracle_eval_itw",
               "oracle.oracle_eval_its", "oracle.oracle_eval_mx")
KEEP = {INTERSECT, SAT_MX, PARSE, CRITICAL, *SAT_ITW, *COMPILE}
REQUEST = "request"


class Tracer:
    def __init__(self):
        self.spans = []
        self.kept = {}  # span index -> (args, result)
        self._stack = []
        self._request = -1
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, kept, keep = self.spans, self._stack, self.kept, name in KEEP

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._request]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if keep:
                kept[idx] = (args, out)
            return out
        return wrapper

    def request(self, i, call):
        """Run one request under a root span carrying its request id."""
        self._request = i
        return self._wrap(REQUEST, call)()

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "mtlsem" or name.startswith("mtlsem."))]
        for layer in LAYERS:
            mod = sys.modules[f"mtlsem.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for m in mods:
                    for a, v in list(vars(m).items()):
                        if v is fn:
                            self._set(m, a, wrapped)
        cls = sys.modules["mtlsem.intervals"].IntervalSet
        for meth in SET_METHODS:
            raw = vars(cls)[meth]
            name = f"intervals.IntervalSet.{meth}"
            if isinstance(raw, staticmethod):
                self._set(cls, meth, staticmethod(self._wrap(name, raw.__func__)))
            else:
                self._set(cls, meth, self._wrap(name, raw))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def write(self, path, meta: dict):
        with open(path, "w") as fh:
            fh.write(json.dumps(meta) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def distinct_nodes(f) -> int:
    """Structurally distinct subformulas, walking shared objects once."""
    ids, canon = {}, {}
    stack = [(f, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in ids:
            continue
        kids = [getattr(node, k) for k in ("arg", "left", "right") if hasattr(node, k)]
        if not ready:
            stack.append((node, True))
            stack.extend((k, False) for k in kids)
            continue
        w = getattr(node, "window", None)
        key = (type(node).__name__, getattr(node, "name", None),
               None if w is None else (w.lo.value, w.lo.closed, w.hi.value, w.hi.closed),
               tuple(ids[id(k)] for k in kids))
        ids[id(node)] = canon.setdefault(key, len(canon))
    return len(canon)


def layer_metrics(tracer: Tracer, outputs, factors) -> dict:
    """Per-layer metrics of one traced pass (wrappers already removed).

    factors[i] turns request i's raw seconds into reference seconds.
    """
    spans, kept = tracer.spans, tracer.kept
    n = len(spans)
    dur = [(s[2] - s[1]) * factors[s[4]] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    calls, self_s = defaultdict(int), defaultdict(float)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        layer = s[0].split(".")[0]
        calls[layer] += 1
        self_s[layer] += dur[i] - child[i]
        by_name[s[0]].append(i)

    def inclusive(*names) -> float:
        """Time in spans of these names, not counting one nested in another."""
        names = set(names)
        inside = [False] * n
        total = 0.0
        for i, s in enumerate(spans):
            p = s[3]
            inside[i] = p >= 0 and (inside[p] or spans[p][0] in names)
            if s[0] in names and not inside[i]:
                total += dur[i]
        return total

    def results(*names):
        return [kept[i] for name in names for i in by_name[name] if i in kept]

    def count(*names) -> int:
        return sum(len(by_name[name]) for name in names)

    pairs = sum(len(a[0].parts) * len(a[1].parts) for a, _ in results(INTERSECT))
    produced = sum(len(out.parts) for _, out in results(INTERSECT))
    src_nodes = sum(distinct_nodes(a[0]) for a, _ in results(*COMPILE))
    out_nodes = sum(distinct_nodes(out) for _, out in results(*COMPILE))
    request_s = sum(dur[i] for i in by_name[REQUEST])
    m = {
        "intervals.intersect_calls": count(INTERSECT),
        "intervals.intersect_s": inclusive(INTERSECT),
        "intervals.intersect_pairs": pairs,
        "intervals.intersect_yield": produced / pairs if pairs else 0.0,
        "intervals.difference_s": inclusive("intervals.IntervalSet.difference"),
        "intervals.from_intervals_s": inclusive("intervals.IntervalSet.from_intervals"),
        "intervals.back_shift_calls": count("intervals.back_shift"),
        "interval_based.sat_set_s": inclusive(*SAT_ITW),
        "interval_based.root_parts": sum(len(out.parts) for _, out in results(*SAT_ITW)),
        "mixed.sat_set_s": inclusive(SAT_MX),
        "mixed.root_points": sum(len(out.points) for _, out in results(SAT_MX)),
        "mixed.root_gap_parts": sum(len(out.gap.parts) for _, out in results(SAT_MX)),
        "pointwise.sat_positions_s": inclusive("pointwise.sat_positions"),
        "pointwise.lasso_s": inclusive("pointwise.eval_pw_lasso"),
        "compilers.compile_s": inclusive(*COMPILE),
        "compilers.blowup": out_nodes / src_nodes if src_nodes else 0.0,
        "encodings.compact_s": inclusive("encodings.compact"),
        "encodings.to_tss_s": inclusive("encodings.to_tss"),
        "formulas.parse_s": inclusive(PARSE),
        "formulas.parse_calls": count(PARSE),
        "formulas.nodes": sum(distinct_nodes(out) for _, out in results(PARSE)),
        "structures.load_s": inclusive("structures.load_input"),
        "oracle.eval_s": inclusive(*ORACLE_EVAL),
        "oracle.eval_calls": count(*ORACLE_EVAL),
        "oracle.critical_points": sum(len(out) for _, out in results(CRITICAL)),
        "oracle.share": self_s["oracle"] / request_s if request_s else 0.0,
        "cli.unknown_verdicts": sum(1 for out in outputs
                                    if isinstance(out, tuple) and out[0] == 2),
    }
    for layer in LAYERS:
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.self_s"] = self_s[layer]
    return m


def scale_2x(requests, times, relation: str) -> float:
    """Summed time at 2n over time at n, over request groups run at both sizes."""
    by_group = defaultdict(lambda: defaultdict(float))
    for r, t in zip(requests, times):
        if r.relation == relation and r.group:
            by_group[r.group][r.events] += t
    num = den = 0.0
    for sizes in by_group.values():
        for n, t in sizes.items():
            if 2 * n in sizes:
                den += t
                num += sizes[2 * n]
    return num / den if den else 0.0
