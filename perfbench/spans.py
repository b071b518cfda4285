"""Span tracing for the benchmark, installed from outside the engine.

`install()` wraps the public functions of the laxdual modules and selected
methods on their classes, and rebinds every module-level name that referred
to an original (for example `zerocurv.build_psi`, `poisson.zero_curvature`,
`cli.build_psi`), so no call path is missed.  Each call records one span
(name, parent span, start, end) in flat arrays; self time is a span's
duration minus the durations of its direct children.

Size and reuse counters are gathered by observers that run after a call
returns.  Their time is taken off the span clock, so they do not inflate
any span's self time; they only lengthen the traced run as a whole.

Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

MODULES = ("diffpoly", "loopalg", "fnr", "zerocurv", "poisson", "report", "cli")

METHODS = {
    ("diffpoly", "DiffPoly"): (
        "__add__", "__sub__", "__neg__", "__mul__", "scale", "derive", "partial",
        "substitute", "euler", "to_text", "to_latex", "to_json", "from_json",
    ),
    ("zerocurv", "PdeSystem"): ("derivative",),
    ("poisson", "BracketTable"): ("bracket", "bracket_field", "jacobi_check"),
    ("report", "CheckReport"): ("add",),
}

_DP = "diffpoly.DiffPoly."

# Reported span groups: metric prefix -> span names whose self times add up.
GROUPS = {
    "diffpoly.mul": (_DP + "__mul__",),
    "diffpoly.add": (_DP + "__add__", _DP + "__sub__", _DP + "__neg__", _DP + "scale"),
    "diffpoly.derive": (_DP + "derive",),
    "diffpoly.substitute": (_DP + "substitute",),
    "diffpoly.euler": (_DP + "euler",),
    "diffpoly.partial": (_DP + "partial",),
    "diffpoly.io": (
        _DP + "to_text", _DP + "to_latex", _DP + "to_json", _DP + "from_json",
        "diffpoly.parse_poly",
    ),
    "loopalg.lm_commutator": ("loopalg.lm_commutator",),
    "loopalg.sl2_commutator": ("loopalg.sl2_commutator",),
    "fnr.build_psi": ("fnr.build_psi",),
    "zerocurv.zero_curvature": ("zerocurv.zero_curvature",),
    "zerocurv.chain_rule": ("zerocurv.PdeSystem.derivative",),
    "zerocurv.dual_equivalence": ("zerocurv.dual_equivalence",),
    "poisson.wz_expand": ("poisson.wz_expand",),
    "poisson.bracket": (
        "poisson.BracketTable.bracket", "poisson.BracketTable.bracket_field",
        "poisson.BracketTable.jacobi_check", "poisson.hamiltonians_commute",
    ),
    "poisson.sklyanin_check": ("poisson.sklyanin_check",),
    "poisson.flow": ("poisson.flow_from_hamiltonian", "poisson.flow_matches_zc"),
    "cli.main": ("cli.main",),
}

# Helpers whose self time belongs to a group's layer but whose calls are not
# counted as the group's calls (argument parsing is part of the CLI's work).
HELPERS = {
    "fnr.build_psi": ("fnr.extend_offdiagonal", "fnr.casimir_closure_a"),
    "cli.main": ("cli.build_parser",),
}

# Counters that only grow by addition; the *_max ones are maxima.
SUM_COUNTERS = (
    "mul.term_pairs", "mul.result_terms", "fnr.rows_built", "fnr.rows_repeat",
    "fnr.table_terms", "zc.calls", "zc.repeat", "wz.orders", "wz.repeat",
    "report.items", "report.items_failed",
)
MAX_COUNTERS = ("terms_max", "coeff_bits_max", "degree_max", "dorder_max")


class Tracer:
    """Spans in flat arrays plus size and reuse counters for one process."""

    def __init__(self):
        self.names = []
        self._index = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.paused = 0.0
        self.counters = dict.fromkeys(SUM_COUNTERS + MAX_COUNTERS, 0)
        self.seen_rows = set()
        self.seen_zc = set()
        self.seen_wz = set()

    def intern(self, name):
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
        return idx

    def bump_max(self, key, value):
        if value > self.counters[key]:
            self.counters[key] = value

    def summary(self):
        """Per span name: calls, self seconds and inclusive seconds; plus the counters."""
        n = len(self.span_name)
        child = array("d", bytes(8 * n))
        start, end, parent = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls, self_s, incl_s = {}, {}, {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            span = end[i] - start[i]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (span - child[i])
            incl_s[name] = incl_s.get(name, 0.0) + span
        return {"calls": calls, "self_s": self_s, "incl_s": incl_s, "counters": dict(self.counters)}


def _wrap(tracer, name, fn, observe):
    idx = tracer.intern(name)
    names, parents = tracer.span_name, tracer.span_parent
    starts, ends, stack = tracer.span_start, tracer.span_end, tracer.stack
    perf = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = len(names)
        names.append(idx)
        parents.append(stack[-1])
        starts.append(perf() - tracer.paused)
        ends.append(0.0)
        stack.append(sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            stack.pop()
            ends[sid] = perf() - tracer.paused
        if observe is not None:
            t0, paused = perf(), tracer.paused
            observe(tracer, args, kwargs, result)
            # The whole interval is off the clock, a probe taken inside it too.
            tracer.paused = paused + (perf() - t0)
        return result

    return wrapper


# -- observers ---------------------------------------------------------------


def _is_poly(x):
    return hasattr(x, "terms") and hasattr(x, "derive")


def _poly_deep(tracer, p):
    terms = p.terms
    tracer.bump_max("terms_max", len(terms))
    if not terms:
        return
    bits = max(max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in terms.values())
    tracer.bump_max("coeff_bits_max", bits)
    tracer.bump_max("degree_max", p.total_degree())
    tracer.bump_max("dorder_max", p.max_dorder())


def _polys_in(obj, depth=0):
    """Every DiffPoly reachable from an engine result (tables, systems, ...)."""
    if _is_poly(obj):
        yield obj
        return
    if depth > 4 or obj is None or isinstance(obj, (str, int, float, bool)):
        return
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _polys_in(v, depth + 1)
        return
    if isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _polys_in(v, depth + 1)
        return
    for attr in ("rows", "a", "bp", "cm", "coeffs", "evolution", "auxiliary", "w", "zdot_densities", "common"):
        if hasattr(obj, attr):
            yield from _polys_in(getattr(obj, attr), depth + 1)


def _observe_arith(tracer, args, kwargs, result):
    tracer.bump_max("terms_max", len(result.terms))


def _observe_mul(tracer, args, kwargs, result):
    a, b = args
    tracer.counters["mul.term_pairs"] += len(a.terms) * len(b.terms)
    tracer.counters["mul.result_terms"] += len(result.terms)
    tracer.bump_max("terms_max", len(result.terms))


def _observe_deep(tracer, args, kwargs, result):
    for p in _polys_in(result):
        _poly_deep(tracer, p)


def _observe_build_psi(tracer, args, kwargs, table):
    c = tracer.counters
    k = table.k
    for j in range(1, table.depth + 1):
        c["fnr.rows_built"] += 1
        if (k, j) in tracer.seen_rows:
            c["fnr.rows_repeat"] += 1
        else:
            tracer.seen_rows.add((k, j))
    for row in table.rows:
        c["fnr.table_terms"] += len(row.a.terms) + len(row.bp.terms) + len(row.cm.terms)
    _observe_deep(tracer, args, kwargs, table)


def _observe_zero_curvature(tracer, args, kwargs, system):
    # The system depends only on (k, n): table rows are prefix-stable.
    key = (system.k, system.n)
    tracer.counters["zc.calls"] += 1
    if key in tracer.seen_zc:
        tracer.counters["zc.repeat"] += 1
    else:
        tracer.seen_zc.add(key)
    _observe_deep(tracer, args, kwargs, system)


def _observe_wz_expand(tracer, args, kwargs, wz):
    for j in range(1, wz.depth + wz.k):
        tracer.counters["wz.orders"] += 1
        if (wz.k, j) in tracer.seen_wz:
            tracer.counters["wz.repeat"] += 1
        else:
            tracer.seen_wz.add((wz.k, j))
    _observe_deep(tracer, args, kwargs, wz)


def _observe_report_add(tracer, args, kwargs, result):
    ok = args[2] if len(args) > 2 else kwargs["ok"]
    tracer.counters["report.items"] += 1
    if not ok:
        tracer.counters["report.items_failed"] += 1


_OBSERVERS = {
    _DP + "__add__": _observe_arith,
    _DP + "__sub__": _observe_arith,
    _DP + "__neg__": _observe_arith,
    _DP + "scale": _observe_arith,
    _DP + "partial": _observe_arith,
    _DP + "__mul__": _observe_mul,
    _DP + "derive": _observe_deep,
    _DP + "substitute": _observe_deep,
    _DP + "euler": _observe_deep,
    "fnr.build_psi": _observe_build_psi,
    "zerocurv.zero_curvature": _observe_zero_curvature,
    "poisson.wz_expand": _observe_wz_expand,
    "report.CheckReport.add": _observe_report_add,
}

# Public functions whose results are only bookkeeping or text.
_NO_DEEP = ("diffpoly.parse_poly", "diffpoly.parse_fieldvar", "cli.main", "cli.build_parser")


def install():
    """Wrap the engine in place and return the Tracer that records it."""
    tracer = Tracer()
    modules = {name: importlib.import_module(f"laxdual.{name}") for name in MODULES}
    package = importlib.import_module("laxdual")
    replaced = {}
    for mod_name, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not callable(obj) or isinstance(obj, type):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = f"{mod_name}.{attr}"
            observe = _OBSERVERS.get(name, None if name in _NO_DEEP else _observe_deep)
            replaced[id(obj)] = (obj, _wrap(tracer, name, obj, observe))
    for (mod_name, cls_name), methods in METHODS.items():
        cls = getattr(modules[mod_name], cls_name)
        for meth in methods:
            raw = cls.__dict__[meth]
            name = f"{mod_name}.{cls_name}.{meth}"
            observe = _OBSERVERS.get(name)
            if isinstance(raw, staticmethod):
                setattr(cls, meth, staticmethod(_wrap(tracer, name, raw.__func__, observe)))
            else:
                setattr(cls, meth, _wrap(tracer, name, raw, observe))
    for mod in list(modules.values()) + [package]:
        for attr, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    return tracer
