"""Run the qborel CLI with the public functions of each layer wrapped in spans.

    python3 perfbench/traced_cli.py TRACE.json verify --type A1 --n 3 ...

Everything after TRACE.json is passed to ``qborel.cli.main``.  The
wrappers are installed at run time from this file; nothing under src/
changes.  Each wrapped call records its duration and the time its wrapped
children took, so every call's self time is measured, not sampled.
Spans (name, start, end, id, parent) are kept in memory and written to
TRACE.json at exit, together with the per-function totals.  Only spans
of at least SPAN_MIN_S are kept: a parent never lasts less than its
child, so the kept spans still form a tree, and the millions of
sub-millisecond scalar products are counted in the totals instead.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import pkgutil
import sys
import time

# layer (module) -> metric name -> (class or None for a module function, attribute names).
# Several attributes under one metric name are aliases, e.g. __mul__ and __rmul__.
TARGETS = {
    "cyclotomic": {
        "mul": ("CycScalar", "__mul__", "__rmul__"),
        "add": ("CycScalar", "__add__", "__radd__"),
        "inv": ("CycScalar", "inv"),
    },
    "algebra": {
        "multiply_monomials": ("BorelAlgebra", "multiply_monomials"),
        "tensor_multiply": (None, "tensor_multiply"),
        "apply_on_slot": (None, "apply_on_slot"),
        "invert_tensor": (None, "invert_tensor"),
    },
    "borel": {
        "build_borel": (None, "build_borel"),
        "build_subalgebra": (None, "build_subalgebra"),
        "coproduct_monomial": ("HopfData", "coproduct_monomial"),
        "sector_presentation_check": (None, "sector_presentation_check"),
    },
    "twist": {
        "build_twist": (None, "build_twist"),
        "twisted_generator_fine": (None, "twisted_generator_fine"),
        "diagonal_pair_tensor": (None, "diagonal_pair_tensor"),
    },
    "associator": {
        "closed_form_associator": (None, "closed_form_associator"),
        "coboundary_matches_associator": (None, "coboundary_matches_associator"),
        "pentagon_check": (None, "pentagon_check"),
        "quasi_coassoc_check": (None, "quasi_coassoc_check"),
    },
    "cocycle": {
        "restrict_associator": (None, "restrict_associator"),
        "decide_coboundary": (None, "decide_coboundary"),
        "smith_normal_form": (None, "smith_normal_form"),
        "brute_force_decision": (None, "brute_force_decision"),
    },
    "double": {
        "build_double": (None, "build_double"),
        "identify_generators": (None, "identify_generators"),
        "multiply_keys": ("DoubleAlgebra", "multiply_keys"),
        "coproduct": ("DoubleAlgebra", "coproduct"),
        "dtensor_multiply": (None, "dtensor_multiply"),
        "r_matrix_check": (None, "r_matrix_check"),
        "central_grouplikes": (None, "central_grouplikes"),
        "bicharacter_twist": (None, "bicharacter_twist"),
    },
    "report": {
        "run_checks": (None, "run_checks"),
        "build_export_document": (None, "build_export_document"),
        "export_json": (None, "export_json"),
    },
}

# functions whose distinct argument tuples (self excluded) are counted
DISTINCT_ARGS = ("algebra.multiply_monomials", "borel.coproduct_monomial",
                 "double.multiply_keys")

SPAN_MIN_S = 1e-3


class Tracer:
    """Span stack, per-function totals and the extra counters, for one process."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.totals = {}      # name -> [calls, inclusive seconds, seconds in wrapped children]
        self.spans = []       # (name, start, end, id, parent id or None)
        self.stack = []       # [id, seconds in wrapped children] per open call
        self.root_s = 0.0     # time covered by calls with no wrapped caller
        self.ids = itertools.count()
        self.distinct = {name: set() for name in DISTINCT_ARGS}
        self.peak_terms = 0
        self.export_bytes = 0
        self.check_s = {}

    def wrap(self, name, fn):
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack, spans, ids, clock = self.stack, self.spans, self.ids, time.perf_counter
        post = self._post_hook(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [next(ids), 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                totals[0] += 1
                totals[1] += d
                totals[2] += frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += d
                    parent_id = parent[0]
                else:
                    self.root_s += d
                    parent_id = None
                if d >= SPAN_MIN_S:
                    spans.append((name, t0 - self.origin, t1 - self.origin,
                                  frame[0], parent_id))
            if post is not None:
                post(args, kwargs, result)
            return result

        return wrapper

    def _post_hook(self, name):
        if name in self.distinct:
            seen = self.distinct[name]
            return lambda args, kwargs, result: seen.add(args[1:] + tuple(kwargs.items()))
        if name == "algebra.tensor_multiply":
            def peak(args, kwargs, result):
                self.peak_terms = max(self.peak_terms, len(result.terms))
            return peak
        if name == "report.export_json":
            def size(args, kwargs, result):
                self.export_bytes += len(result.encode("utf-8"))
            return size
        if name == "report.run_checks":
            def checks(args, kwargs, result):
                for r in result.results:
                    self.check_s[r.name] = r.wall_time
            return checks
        return None

    def install(self):
        """Wrap every target in every loaded qborel module; return names not found."""
        import qborel

        modules = [qborel] + [
            importlib.import_module(f"qborel.{info.name}")
            for info in pkgutil.iter_modules(qborel.__path__)
        ]
        missing = []
        for layer, fns in TARGETS.items():
            home = importlib.import_module(f"qborel.{layer}")
            for short, (owner, *attrs) in fns.items():
                name = f"{layer}.{short}"
                if owner:
                    cls = getattr(home, owner, None)
                    found = [a for a in attrs if cls is not None and a in vars(cls)]
                    # aliases such as __rmul__ = __mul__ share one wrapper
                    wrapped = {}
                    for attr in found:
                        orig = vars(cls)[attr]
                        if id(orig) not in wrapped:
                            wrapped[id(orig)] = self.wrap(name, orig)
                        setattr(cls, attr, wrapped[id(orig)])
                else:
                    orig = getattr(home, attrs[0], None)
                    found = [attrs[0]] if callable(orig) else []
                    if found:
                        wrapper = self.wrap(name, orig)
                        # `from .algebra import tensor_multiply` copies the binding,
                        # so patch the name in every module that holds it
                        for mod in modules:
                            for attr, value in list(vars(mod).items()):
                                if value is orig:
                                    setattr(mod, attr, wrapper)
                if not found:
                    missing.append(name)
        return missing

    def document(self, missing, rc):
        return {
            "exit_code": rc,
            "missing": missing,
            "span_min_s": SPAN_MIN_S,
            "root_s": self.root_s,
            "process_s": time.perf_counter() - self.origin,
            "functions": {
                name: {"calls": c, "total_s": t, "self_s": t - child,
                       **({"distinct": len(self.distinct[name])}
                          if name in self.distinct else {})}
                for name, (c, t, child) in self.totals.items()
            },
            "peak_terms": self.peak_terms,
            "export_bytes": self.export_bytes,
            "check_s": self.check_s,
            "spans": self.spans,
        }


def main(argv):
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    missing = tracer.install()
    from qborel import cli

    rc = 1
    try:
        rc = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.document(missing, rc), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
