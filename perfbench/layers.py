"""Spans around the calls into each q3series layer, installed from outside.

`install` wraps the public functions of each module (and a few private
ones the per-layer figures need) and rebinds every name that refers to
them in any loaded q3series module, so `verifier.count_values`,
`counts.mul_sparse`, `eta.mul_sparse` and so on all record spans.  Spans
stay in memory; `metrics` turns them into the per-layer figures and
`dump` writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "tid", "info")

    def __init__(self, name, start, parent, tid, info):
        self.name, self.start, self.parent, self.tid, self.info = name, start, parent, tid, info
        self.end = start
        self.child_s = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()

    def wrap(self, name, fn, info=None, result_info=None):
        """`fn` recording one span per call; `info` (from the arguments) or
        `result_info` (from the return value) is kept on the span."""
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            span = Span(name, clock(), parent, threading.get_ident(),
                        info(*args, **kwargs) if info else None)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.dur
                spans.append(span)
            if result_info is not None:
                span.info = result_info(result)
            return result

        return traced


def _rebind(old, new) -> None:
    """Point every q3series module attribute and class attribute holding `old` at `new`."""
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("q3series") or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
            elif isinstance(value, type) and value.__module__ == modname:
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is old:
                        setattr(value, cattr, new)


def _sparse_ops(order, terms, skip_first=False):
    return sum(order - g for g, _ in (terms[1:] if skip_first else terms) if g < order)


def install(tracer: Tracer) -> None:
    from q3series import arith3, cli, counts, eta, modseries, series, vectors, verifier

    def key_info(fn, order, *a, **k):
        return (fn.kind.value, fn.ell)

    checked = lambda rep: rep.checked
    targets = [
        ("verifier.run_suite", verifier, "run_suite", None, None),
        ("verifier.verify_congruence", verifier, "verify_congruence", None, checked),
        ("verifier.verify_gf_identity", verifier, "verify_gf_identity", None, checked),
        ("verifier.rhs_window", verifier, "_rhs_window",
         lambda ident, level, alpha, terms: (ident.id, level, alpha, terms), None),
        ("counts.count_values", counts, "count_values", key_info, None),
        ("counts.count_values_mod", counts, "count_values_mod", key_info, None),
        ("series.mul_sparse", series, "mul_sparse",
         lambda dense, terms, order: _sparse_ops(order, terms), None),
        ("series.solve_monic_sparse", series, "solve_monic_sparse",
         lambda terms, rhs, order: _sparse_ops(order, terms, skip_first=True), None),
        ("series.dense_mul", series.TruncatedSeries, "mul", None, None),
        ("modseries.solve", modseries, "solve_monic_sparse_mod", lambda terms, rhs, order, mod: (
            order * sum(1 for g, _ in terms[1:] if g < order), len(terms) > 1 and terms[1][0] == 1),
         None),
        ("modseries.mul", modseries, "mul_sparse_mod", None, None),
        ("eta.eta_quotient", eta, "eta_quotient", None, None),
        ("vectors.family_vector", vectors, "family_vector", None, None),
        ("arith3.pi3", arith3, "pi3", None, None),
        ("report.suite_to_dict", verifier.SuiteReport, "to_dict", None, None),
        ("report.emit_json", cli, "_emit_json", None, None),
    ]
    # a name a later version drops is skipped: its figures then read 0
    for name, owner, attr, info, result_info in targets:
        fn = getattr(owner, attr, None)
        if fn is not None:
            _rebind(fn, tracer.wrap(name, fn, info, result_info))


def _sum(spans, attr="dur"):
    return sum(getattr(s, attr) for s in spans)


def _under(span, names) -> bool:
    p = span.parent
    while p is not None:
        if p.name in names:
            return True
        p = p.parent
    return False


def metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced suite invocation: name -> (value, unit)."""
    by = {}
    for s in tracer.spans:
        by.setdefault(s.name, []).append(s)
    get = lambda name: by.get(name, [])
    verify = get("verifier.verify_congruence") + get("verifier.verify_gf_identity")
    suite = get("verifier.run_suite")
    warm = (min(s.start for s in verify) if verify else max(s.end for s in suite)) - suite[0].start \
        if suite else 0.0
    solves = get("modseries.solve")
    solve_s = _sum(solves)
    solve_ops = sum(s.info[0] for s in solves)
    exact = get("counts.count_values")
    kernels = ("series.mul_sparse", "series.solve_monic_sparse")
    expanded = {id(s.parent) for name in kernels for s in get(name)
                if s.parent is not None and s.parent.name == "counts.count_values"}
    keys = {s.info for s in exact}
    window_names = ("eta.eta_quotient", "series.dense_mul")
    window = [s for name in window_names for s in get(name)
              if _under(s, ("verifier.verify_gf_identity",)) and not _under(s, window_names)]
    windows = get("verifier.rhs_window")
    serialize = [s for name in ("report.suite_to_dict", "report.emit_json") for s in get(name)]
    out = {
        "modseries.solve_s": (solve_s, "s"),
        "modseries.solve_ops": (solve_ops, "count"),
        "modseries.solve_ops_per_s": (solve_ops / solve_s if solve_s else 0.0, "1/s"),
        "modseries.mul_s": (_sum(get("modseries.mul")), "s"),
        "counts.mod_calls": (len(get("counts.count_values_mod")), "count"),
        "counts.mod_base_solves": (sum(1 for s in solves if s.info[1]), "count"),
        "counts.exact_calls": (len(exact), "count"),
        "counts.exact_keys": (len(keys), "count"),
        "counts.exact_expansions": (len(expanded), "count"),
        "counts.exact_expansions_per_key": (len(expanded) / len(keys) if keys else 0.0, "ratio"),
        "counts.exact_self_s": (_sum(exact, "self_s"), "s"),
        "series.mul_sparse_s": (_sum(get("series.mul_sparse")), "s"),
        "series.mul_sparse_ops": (sum(s.info for s in get("series.mul_sparse")), "count"),
        "series.solve_monic_sparse_s": (_sum(get("series.solve_monic_sparse")), "s"),
        "series.solve_monic_sparse_ops": (sum(s.info for s in get("series.solve_monic_sparse")), "count"),
        "series.dense_mul_calls": (len(get("series.dense_mul")), "count"),
        "series.dense_mul_s": (_sum(get("series.dense_mul")), "s"),
        "verifier.warm_s": (warm, "s"),
        "verifier.window_s": (_sum(window), "s"),
        "verifier.windows_built": (len(windows), "count"),
        "verifier.windows_per_distinct": (len(windows) / len({s.info for s in windows})
                                          if windows else 0.0, "ratio"),
        "eta.eta_quotient_s": (_sum(get("eta.eta_quotient")), "s"),
        "vectors.family_vector_s": (_sum(get("vectors.family_vector")), "s"),
        "verifier.scan_self_s": (_sum(verify, "self_s"), "s"),
        "verifier.jobs": (len(verify), "count"),
        "verifier.checked": (sum(s.info or 0 for s in verify), "count"),
        "arith3.pi3_calls": (len(get("arith3.pi3")), "count"),
        "arith3.pi3_s": (_sum(get("arith3.pi3")), "s"),
        "report.serialize_s": (_sum([s for s in serialize if s.parent is None
                                     or s.parent.name not in ("report.suite_to_dict", "report.emit_json")]), "s"),
    }
    return out


def dump(tracer: Tracer, path) -> None:
    """Write every span as one JSON line: name, start, end, parent index, thread."""
    index = {id(s): i for i, s in enumerate(tracer.spans)}
    t0 = min((s.start for s in tracer.spans), default=0.0)
    with open(path, "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps([s.name, round(s.start - t0, 7), round(s.end - t0, 7),
                                 index.get(id(s.parent), -1), s.tid]) + "\n")
