"""Layer tracer for the g2spaces benchmark.

The tracer wraps the public functions of each layer of ``src/g2spaces`` from
outside the library.  Modules import each other's functions by name
(``from .linalg import solve``), so every module namespace holds its own
binding; ``install`` rebinds the wrapper in every ``g2spaces`` module that
holds the original, and on every class attribute that holds a wrapped method.
``remove`` restores all of them.

A span wrapper records ``(name, start, end, parent, op)`` per call, kept in
memory and written out at the end of a run.  Hot arithmetic dunders get
count-only wrappers, because a span per call would cost more than the call.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

from perfbench.workloads import PACKAGE

# (module, attribute path, span name).  The span name drops the dunder of a
# call operator so that it reads as a metric name.
SPANS = (
    ("polynomials", "wronskian", "polynomials.wronskian"),
    ("polynomials", "poly_gcd", "polynomials.poly_gcd"),
    ("polynomials", "exact_div", "polynomials.exact_div"),
    ("polynomials", "perfect_square_root", "polynomials.perfect_square_root"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "solve", "linalg.solve"),
    ("linalg", "kernel", "linalg.kernel"),
    ("linalg", "inverse", "linalg.inverse"),
    ("spaces", "PolySpace.coords", "spaces.PolySpace.coords"),
    ("spaces", "PolySpace.U", "spaces.PolySpace.U"),
    ("spaces", "PolySpace.divided_wronskian", "spaces.PolySpace.divided_wronskian"),
    ("spaces", "PolySpace.duals", "spaces.PolySpace.duals"),
    ("spaces", "PolySpace.bilinear_form", "spaces.PolySpace.bilinear_form"),
    ("spaces", "BilinearForm.__call__", "spaces.BilinearForm.call"),
    ("spaces", "witt_basis", "spaces.witt_basis"),
    ("spaces", "canonicalize", "spaces.canonicalize"),
    ("spin", "clifford_act", "spin.clifford_act"),
    ("spin", "spinor_embed", "spin.spinor_embed"),
    ("spin", "annihilator", "spin.annihilator"),
    ("spin", "preimages", "spin.preimages"),
    ("spin", "hatB", "spin.hatB"),
    ("g2", "check_ssd", "g2.check_ssd"),
    ("g2", "find_standard_basis", "g2.find_standard_basis"),
    ("g2", "verify_standard_basis", "g2.verify_standard_basis"),
    ("g2", "phi_map", "g2.phi_map"),
    ("g2", "quadratic_of_phi", "g2.quadratic_of_phi"),
    ("g2", "three_form_from_wronskians", "g2.three_form_from_wronskians"),
    ("g2", "kernel_2form", "g2.kernel_2form"),
    ("elimination", "solve_rational_system", "elimination.solve_rational_system"),
    ("elimination", "sym_wronskian3", "elimination.sym_wronskian3"),
    ("elimination", "sym_square_conditions", "elimination.sym_square_conditions"),
    ("bethe", "population_bfs", "bethe.population_bfs"),
    ("bethe", "descendants", "bethe.descendants"),
    ("bethe", "fertility_solve", "bethe.fertility_solve"),
    ("bethe", "is_generic", "bethe.is_generic"),
    ("bethe", "space_from_population", "bethe.space_from_population"),
    ("bethe", "apply_D", "bethe.apply_D"),
)

# Count-only wrappers; every alias in the class dict (``__rmul__ = __mul__``)
# is rebound too, so reflected calls are counted.
COUNTED = (
    ("polynomials", "Poly.__mul__", "polynomials.Poly.mul"),
    ("scalars", "QExt.__mul__", "scalars.QExt.mul"),
    ("scalars", "QExt.__add__", "scalars.QExt.add"),
    ("scalars", "QExt.inverse", "scalars.QExt.inverse"),
)


def _tally(counts, name, args, kwargs, result) -> None:
    """Exact counts that need the arguments or the result of a call."""
    if name == "polynomials.wronskian":
        polys = args[0] if args else kwargs["polys"]
        counts[f"{name}.k{len(polys)}.calls"] += 1
    elif name == "elimination.solve_rational_system":
        counts[f"{name}.{result.status}.calls"] += 1
    elif name == "g2.verify_standard_basis":
        counts[f"{name}.ok"] += bool(result.ok)
    elif name == "bethe.population_bfs":
        counts[f"{name}.members"] += len(result.members)
    elif name == "bethe.descendants":
        counts[f"{name}.children"] += len(result)
    elif name == "bethe.fertility_solve":
        counts[f"{name}.infertile"] += result is None
    elif name == "bethe.is_generic":
        counts[f"{name}.rejects"] += not result


_TALLIED = {
    "polynomials.wronskian",
    "elimination.solve_rational_system",
    "g2.verify_standard_basis",
    "bethe.population_bfs",
    "bethe.descendants",
    "bethe.fertility_solve",
    "bethe.is_generic",
}


class Tracer:
    """Spans and counts of one run.  ``op`` is the id of the operation being
    measured; while it is None (between operations) nothing is recorded."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._undo: list = []

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, kind=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        tallied = name in _TALLIED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            label = name if kind is None else f"{name}.{kind(args, kwargs)}"
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (label, start, end, parent, self.op)
            if tallied:
                _tally(counts, name, args, kwargs, result)
            return result

        return wrapper

    def count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is not None:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every listed function in every loaded module of the library."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = {n: m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")}
        QExt = modules[f"{PACKAGE}.scalars"].QExt

        def rref_kind(args, kwargs):
            # 'qext' when the matrix has a Q(sqrt 2) entry in its first row.
            m = args[0] if args else kwargs["m"]
            rows = getattr(m, "rows", m)
            first = rows[0] if len(rows) else ()
            return "qext" if any(isinstance(e, QExt) for e in first) else "fraction"

        for table, make in ((SPANS, self.span), (COUNTED, self.count)):
            for mod, path, name in table:
                owner = modules[f"{PACKAGE}.{mod}"]
                if "." in path:  # a method: rebind it on its class only
                    cls_name, attr = path.split(".")
                    owners = [getattr(owner, cls_name)]
                    original = vars(owners[0])[attr]
                else:
                    owners = list(modules.values())
                    original = getattr(owner, path)
                wrapper = make(name, original, rref_kind) if name == "linalg.rref" else make(name, original)
                for target in owners:
                    for attr, value in list(vars(target).items()):
                        if value is original:
                            self._rebind(target, attr, wrapper)
        acceptance = modules.get(f"{PACKAGE}.acceptance")
        if acceptance is not None:
            wrapped = tuple((n, slug, self.span(f"acceptance.criterion_{n}", fn))
                            for n, slug, fn in acceptance.CRITERIA)
            self._rebind(acceptance, "CRITERIA", wrapped)

    def remove(self) -> None:
        """Restore every binding that ``install`` replaced."""
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as gzipped JSON: a name table and one row per span."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        rows = [[ids[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]
        doc = {"fields": ["name", "start", "end", "parent", "op"], "names": names,
               "spans": rows, "counts": dict(self.counts)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


def self_times(spans) -> tuple[dict, dict]:
    """Total and self time per span name.

    Self time is a span's duration minus the durations of its direct
    children; in one thread children never overlap, so their sum is the part
    of the interval they cover.  A name nested inside itself counts only
    once in the total.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    total, own = defaultdict(float), defaultdict(float)
    for i, (name, start, end, parent, op) in enumerate(spans):
        own[name] += (end - start) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] += end - start
    return dict(total), dict(own)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics as {name: (value, unit)} from the recorded spans.

    ``calls`` are exact counts, ``self_s`` and ``total_s`` seconds of raw
    wall time.  Every listed function gets every metric, zero when it was
    not called.
    """
    total, own = self_times(tracer.spans)
    calls = Counter(s[0] for s in tracer.spans)
    counts = tracer.counts
    out = {}

    def times(key, label_total, label_own):
        out[f"{key}.total_s"] = (label_total, "s")
        out[f"{key}.self_s"] = (label_own, "s")

    for _mod, _path, name in SPANS:
        labels = [k for k in calls if k == name or k.startswith(name + ".")]
        out[f"{name}.calls"] = (sum(calls[k] for k in labels), "count")
        times(name, sum(total.get(k, 0.0) for k in labels), sum(own.get(k, 0.0) for k in labels))
    for kind in ("fraction", "qext"):
        label = f"linalg.rref.{kind}"
        out[f"{label}.calls"] = (calls[label], "count")
        times(label, total.get(label, 0.0), own.get(label, 0.0))
    for _mod, _path, name in COUNTED:
        out[f"{name}.calls"] = (counts[name], "count")
    for n in range(1, 13):
        label = f"acceptance.criterion_{n}"
        out[f"{label}.s"] = (total.get(label, 0.0), "s")
    for k in (3, 6, 7):
        out[f"polynomials.wronskian.k{k}.calls"] = (counts[f"polynomials.wronskian.k{k}.calls"], "count")
    for status in ("stuck", "no_solution"):
        key = f"elimination.solve_rational_system.{status}.calls"
        out[key] = (counts[key], "count")

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    out["g2.verify_standard_basis.ok_ratio"] = ratio(
        counts["g2.verify_standard_basis.ok"], calls["g2.verify_standard_basis"])
    out["bethe.fertility_solve.infertile_ratio"] = ratio(
        counts["bethe.fertility_solve.infertile"], calls["bethe.fertility_solve"])
    out["bethe.is_generic.reject_ratio"] = ratio(
        counts["bethe.is_generic.rejects"], calls["bethe.is_generic"])
    members = counts["bethe.population_bfs.members"]
    children = counts["bethe.descendants.children"]
    out["bethe.population_bfs.members"] = (members, "count")
    out["bethe.descendants.children"] = (children, "count")
    # Members added (the seed excluded) over children returned by descendants.
    out["bethe.dedup_useful_ratio"] = ratio(members - calls["bethe.population_bfs"], children)
    return out
