"""Verification check registry, report assembly, and export documents.

Each check runs one verifiable identity family at a parameter set
(cartan type, n) and returns pass, fail with a reproducible
counterexample, or skip when the construction is gated to other
parameters.  Reports render as human text (with wall times) or as a
deterministic structured document (no wall times, byte-identical for a
fixed seed).  Export documents carry exact scalars as coefficient
vectors over the cyclotomic power basis, never floats.
"""

from __future__ import annotations

import itertools
import json
import time
from math import gcd
from typing import NamedTuple

from .algebra import Monomial
from .associator import (
    closed_form_associator,
    coboundary_matches_associator,
    pentagon_check,
    quasi_coassoc_check,
)
from .borel import (ParameterError, SubalgebraBasis, build_borel, build_subalgebra,
                    sector_presentation_check)
from .cartan import lie_datum, validate_params
from .cocycle import AdditiveCochain, decide_coboundary
from .cyclotomic import CycScalar, rational_parts
from .double import (
    DOUBLE_SCALES,
    DOUBLE_SCOPE,
    bicharacter_twist,
    build_double,
    central_grouplikes,
    double_coproduct_formula_check,
    dtensor_add,
    dtensor_of,
    identify_generators,
    r_matrix,
    r_matrix_check,
    to_delta,
)
from .twist import (
    build_twist,
    coord_table,
    membership_in_subalgebra_tensor,
    twisted_generator_bold,
)

SCHEMA_VERSION = 1

LIMITATION = (
    "Scope: algebra-level identities only (exact arithmetic over the "
    "cyclotomic field). Claims about equivalences of tensor categories "
    "are not mechanically checkable here and are not attempted."
)

# The largest n at which a Cartan type has been measured within SCALE_BUDGET
# with 3x headroom; verify and export refuse a larger admissible n before any
# stage or field is built.  The limits were set when every power of zeta a
# run touched was held densely, and memory bound first: at A2 the peak passed
# a third of the 1 GB at n = 61 (362 MB), and at A1 at n = 269 (351 MB).  A
# power is now held by its tag alone.  verify --checks all, one fresh
# process a run, spawned from a small parent process that reads its peak
# RSS with os.wait4, three runs each (Python 3.11, 2 shared CPUs whose
# speed varied by 1.3x between runs): at A2 the peak is 93 MB at n = 55
# (2.5-2.7 s) and 135 MB at n = 59 (3.9-4.8 s in six runs), where building
# u_q(b) is most of it (3.7-5.1 s and 134 MB, in process); at A1 it is
# 53 MB at n = 263 (0.7 s) and 55 MB at n = 267 (0.8-0.9 s).  Memory
# grows with the degree phi(n^2) of the field, so a prime n costs most.
# Both limits stay where they were set until a larger n is measured within
# the budget.
SCALE_BUDGET = "60 s and 1 GB per run"
MAX_N = {"A1": 267, "A2": 59}

# export writes a document one entry at a time, so its memory is that of
# the stages verify builds; what is left to bound is the time to write it.
# A document's size is its entries plus the coefficient pairs [num, den] of
# its scalars (export_size).  EXPORT_MAX_ITEMS was measured for time: one
# fresh export process each, spawned from a small parent (Python 3.11, 2
# shared CPUs), the largest document of each kind it admits is written
# within 20 s, a third of the budget's time.  The subalgebra writes slowest,
# about 17 us an entry: at (A1, 95), 857,376 entries and 144 MB, it took
# 14.3-18.0 s in six runs, peaking at 21 MB.  The associator at (A1, 15)
# (408,375 items, 23 MB) took 1.4-2.2 s, the twist at (A1, 9) (360,855,
# 20 MB) 1.1-2.1 s, the borel document at (A1, 263) (137,816, 10 MB)
# 0.7-0.8 s and the double's generators at (A1, 5) (2,506) 0.2-0.3 s.
EXPORT_MAX_ITEMS = 900_000


class ScopeError(ValueError):
    """Raised for an admissible (type, n) beyond MAX_N."""


def scope_violations(cartan_type: str, n: int) -> list[str]:
    """The reasons an admissible (type, n) lies beyond the scales that run
    within the budget; empty means it runs (validate_params decides
    admissibility)."""
    limit = MAX_N.get(cartan_type)
    if limit is None or n <= limit:
        return []
    return [f"{cartan_type} at n={n} exceeds the budget of {SCALE_BUDGET}: {cartan_type} has "
            f"been measured within it only at n <= {limit}"]


def export_size(cartan_type: str, n: int, what: str) -> int:
    """The exact number of entries plus coefficient pairs of the export of
    what at an admissible (type, n).  With r the rank and m = n^2, the
    twist has m^(2r) entries, the associator n^(3r), the subalgebra
    1 + n^dim(g), the borel document 1 + 3r and the double's generators 6
    (at the scales where the double is built).  Each twist and associator
    entry carries one scalar, the borel document 2r and the double's
    generators 5 m; a scalar has phi(m) = n phi(n) coefficient pairs, the
    degree of Q(zeta_m)."""
    datum = lie_datum(cartan_type)
    r, m = datum.rank, n * n
    degree = n * sum(gcd(k, n) == 1 for k in range(n))
    entries, scalars = {
        "borel": (1 + 3 * r, 2 * r),
        "subalgebra": (1 + n**datum.dim_g, 0),
        "twist": (m ** (2 * r), m ** (2 * r)),
        "associator": (n ** (3 * r), n ** (3 * r)),
        "double-generators": (6, 5 * m),
    }[what]
    return entries + scalars * degree


def export_violations(cartan_type: str, n: int, what: str) -> list[str]:
    """The reasons export of what at an admissible (type, n) lies beyond the
    budget: the scale itself (scope_violations), since export builds the
    stages verify builds, or a document larger than EXPORT_MAX_ITEMS."""
    beyond = scope_violations(cartan_type, n)
    if beyond:
        return beyond
    size = export_size(cartan_type, n, what)
    if size <= EXPORT_MAX_ITEMS:
        return []
    return [f"the {what} export at {cartan_type}, n={n} exceeds the budget of {SCALE_BUDGET}: "
            f"it has {size:,} entries and coefficient pairs, above the cap of "
            f"{EXPORT_MAX_ITEMS:,} that export writes within a third of the time"]


# a proof obligation that fails raises one of these; a check reports it as fail
PROOF_FAILURES = (ArithmeticError, ValueError)


class CheckContext:
    """Shared lazily-built objects for one (type, n) parameter set.

    A stage whose build fails keeps the exception and raises it to every use.
    """

    def __init__(self, cartan_type: str, n: int):
        self.cartan_type = cartan_type
        self.n = n
        self._cache = {}

    def _get(self, name, builder):
        if name not in self._cache:
            try:
                self._cache[name] = builder()
            except PROOF_FAILURES as exc:
                self._cache[name] = exc
        got = self._cache[name]
        if isinstance(got, BaseException):
            raise got
        return got

    @property
    def hopf(self):
        return self._get("hopf", lambda: build_borel(self.cartan_type, self.n))

    @property
    def sub(self):
        return self._get("sub", lambda: build_subalgebra(self.hopf))

    @property
    def twist(self):
        return self._get("twist", lambda: build_twist(self.hopf))

    @property
    def images(self):
        """The (f, t) of Delta_J(e_i) for each i, built once: r rows f_ij and
        r step rows t_k of n entries each (twisted_generator_bold)."""
        return self._get("images", lambda: tuple(
            twisted_generator_bold(self.hopf, self.twist, i) for i in range(self.hopf.algebra.rank)))

    @property
    def assoc(self):
        return self._get("assoc", lambda: closed_form_associator(self.hopf))

    @property
    def double_scale(self) -> bool:
        return (self.cartan_type, self.n) in DOUBLE_SCALES

    @property
    def double(self):
        return self._get("double", lambda: build_double(self.hopf))

    @property
    def double_gens(self):
        return self._get("double_gens", lambda: identify_generators(self.double))


class CheckResult(NamedTuple):
    name: str
    status: str                    # pass | fail | skip
    details: dict
    counterexample: object = None
    wall_time: float = 0.0


class VerificationReport(NamedTuple):
    cartan_type: str
    n: int
    seed: int
    results: list

    @property
    def failed(self) -> bool:
        return any(r.status == "fail" for r in self.results)

    def to_text(self) -> str:
        lines = [
            f"parameters: type={self.cartan_type} n={self.n} seed={self.seed}",
            LIMITATION,
            "",
        ]
        for r in self.results:
            lines.append(f"[{r.status.upper():4}] {r.name}  ({r.wall_time:.2f}s)")
            for k in sorted(r.details):
                lines.append(f"        {k}: {r.details[k]}")
            if r.counterexample is not None:
                lines.append(f"        counterexample: {r.counterexample}")
        npass = sum(1 for r in self.results if r.status == "pass")
        nfail = sum(1 for r in self.results if r.status == "fail")
        nskip = sum(1 for r in self.results if r.status == "skip")
        lines.append("")
        lines.append(f"{npass} passed, {nfail} failed, {nskip} skipped")
        return "\n".join(lines) + "\n"

    def to_structured(self) -> str:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "parameters": {"type": self.cartan_type, "n": self.n, "seed": self.seed},
            "limitation": LIMITATION,
            "entries": [
                {
                    "check": r.name,
                    "status": r.status,
                    "details": to_jsonable(r.details),
                    "counterexample": to_jsonable(r.counterexample),
                }
                for r in self.results
            ],
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def to_jsonable(obj):
    """Exact JSON form: scalars as coefficient vectors, monomials as
    exponent vectors, a cochain as its row-major cells; any other type
    raises TypeError."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, CycScalar):
        return scalar_doc(obj)
    if isinstance(obj, Monomial):
        return monomial_doc(obj)
    parts = rational_parts(obj)
    if parts is not None:
        return list(parts)
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if hasattr(obj, "terms"):
        return {"terms": [
            {"monomial": to_jsonable(m), "scalar": to_jsonable(c)}
            for m, c in sorted(obj.terms.items())
        ]}
    if isinstance(obj, AdditiveCochain):
        return {"n": obj.n, "r": obj.r, "degree": obj.degree, "cells": obj.flat}
    raise TypeError(f"no exact JSON form for {type(obj).__name__}")


def scalar_doc(c: CycScalar) -> dict:
    den = c.den
    return {
        "order": c.field.order,
        "coeffs": [[x // g, den // g] for x in c.num for g in (gcd(x, den),)],
    }


def monomial_doc(m: Monomial) -> dict:
    return {"group_exp": list(m.group), "pbw_exp": list(m.pbw)}


# -- the checks --------------------------------------------------------


def _check_coproduct_support(ctx: CheckContext):
    # Delta_J(e_i) lies in (subalgebra)^(x2) as the coarse images[i]:
    # twisted_generator_bold proves it from the step-row premises that
    # building the twist certifies
    hopf = ctx.hopf
    images = ctx.images
    # the untwisted coproduct must NOT lie in the subalgebra tensor square
    outside = membership_in_subalgebra_tensor(hopf.coproduct(hopf.algebra.generator_e(0)), ctx.sub)
    if outside is None:
        return "fail", {}, {"negative-control": "untwisted coproduct passed"}
    return "pass", {
        "generators_checked": len(images),
        "untwisted_excluded": True,
    }, None


def _check_associator_coboundary(ctx: CheckContext):
    bad = coboundary_matches_associator(ctx.hopf, ctx.twist, ctx.assoc)
    if bad is not None:
        return "fail", {}, bad
    return "pass", {"term_count": ctx.assoc.term_count}, None


def _check_subalgebra_dimension(ctx: CheckContext):
    # a pass rests on build_borel's basis certificate and build_subalgebra's
    # generator check, which ctx.sub runs; a failed one fails this check
    return "pass", {
        "dim_subalgebra": ctx.sub.count,
        "dim_borel": ctx.hopf.algebra.dimension,
    }, None


def _check_pentagon(ctx: CheckContext):
    bad = pentagon_check(ctx.hopf, ctx.assoc)
    if bad is not None:
        return "fail", {}, bad
    return "pass", {}, None


def _check_quasi_coassoc(ctx: CheckContext):
    hopf = ctx.hopf
    A = hopf.algebra
    # the unit and the 2r generators of the subalgebra, g_i^n then e_i
    names = [f"g{i + 1}^n" for i in range(A.rank)] + [f"e{i + 1}" for i in range(A.rank)]
    probes = [("unit", A.one), *zip(names, SubalgebraBasis(hopf).generators())]
    for name, x in probes:
        bad = quasi_coassoc_check(hopf, ctx.images, ctx.assoc, x)
        if bad is not None:
            return "fail", {}, {"element": name, "mismatch": bad}
    return "pass", {"elements_checked": len(probes)}, None


def _check_presentation(ctx: CheckContext):
    bad = sector_presentation_check(ctx.hopf)
    if bad is not None:
        return "fail", {}, bad
    A = ctx.hopf.algebra
    return "pass", {
        "spanning_count": A.n ** A.rank * ctx.sub.count,
        "dim_borel": A.dimension,
    }, None


def _check_cocycle_nontrivial(ctx: CheckContext):
    dec = decide_coboundary(ctx.assoc)
    if dec.trivial:
        return "fail", {}, {"witness": dec.witness}
    return "pass", {"obstruction": dec.obstruction}, None


def _check_double_twist(ctx: CheckContext):
    if not ctx.double_scale:
        return "skip", {"reason": DOUBLE_SCOPE}, None
    dbl = ctx.double
    gens = ctx.double_gens
    if gens["residual"] is not None:
        return "fail", {}, {"generator_validation": gens["residual"]}
    bad = double_coproduct_formula_check(dbl, gens)
    if bad is not None:
        return "fail", {}, {"coproduct_formula": bad}
    centrals = central_grouplikes(dbl, gens)
    tw = bicharacter_twist(dbl, gens, centrals)
    E, F, K, K_inv = gens["E"], gens["F"], gens["K"], gens["K_inv"]
    one = dbl.unit()
    if tw.twisted_coproduct(E) != dtensor_add(dtensor_of(E, K), dtensor_of(one, E)):
        return "fail", {}, {"twisted": "Delta(E) = E x K + 1 x E"}
    if tw.twisted_coproduct(F) != dtensor_add(dtensor_of(F, one), dtensor_of(K_inv, F)):
        return "fail", {}, {"twisted": "Delta(F) = F x 1 + K^-1 x F"}
    if tw.twisted_coproduct(K) != dtensor_of(K, K):
        return "fail", {}, {"twisted": "Delta(K) = K x K"}
    return "pass", {
        "dimension": dbl.dimension,
        "t": gens["t"],
        "central_grouplikes": len(centrals),
    }, None


def _check_r_matrix(ctx: CheckContext):
    if not ctx.double_scale:
        return "skip", {"reason": DOUBLE_SCOPE}, None
    gens = ctx.double_gens
    if gens["residual"] is not None:
        return "fail", {}, {"generator_validation": gens["residual"]}
    bad = r_matrix_check(ctx.double, gens, r_matrix(ctx.double))
    if bad is not None:
        return "fail", {}, bad
    return "pass", {
        "identity": "R.Delta(x) = Delta_op(x).R",
        "generators": ["E", "F", "K", "K_prime"],
    }, None


CHECKS = {
    "coproduct-support": _check_coproduct_support,
    "associator-coboundary": _check_associator_coboundary,
    "subalgebra-dimension": _check_subalgebra_dimension,
    "pentagon": _check_pentagon,
    "quasi-coassociativity": _check_quasi_coassoc,
    "presentation": _check_presentation,
    "cocycle-nontrivial": _check_cocycle_nontrivial,
    "double-twist": _check_double_twist,
    "r-matrix": _check_r_matrix,
}
CHECK_ORDER = tuple(CHECKS)


def run_checks(cartan_type: str, n: int, names=None, seed: int = 0) -> VerificationReport:
    """Run the named checks (default: all) and assemble the report.

    An unknown check name raises ValueError, an inadmissible (type, n)
    ParameterError, and one beyond MAX_N ScopeError, before any stage is
    built.  Each named check runs once, one after another, in the order
    its name first appears.  seed is recorded in the report's parameters;
    no check draws on it.
    """
    names = list(dict.fromkeys(CHECK_ORDER if names is None else names))
    unknown = [name for name in names if name not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    violations = validate_params(cartan_type, n)
    if violations:
        raise ParameterError(violations)
    beyond = scope_violations(cartan_type, n)
    if beyond:
        raise ScopeError("; ".join(beyond))
    ctx = CheckContext(cartan_type, n)
    # build the shared objects up front, outside every check's wall time;
    # a failed stage fails each check that uses it
    for stage in ("hopf", "sub", "twist", "images", "assoc"):
        try:
            getattr(ctx, stage)
        except PROOF_FAILURES:
            pass

    def run_one(name):
        t0 = time.monotonic()
        try:
            status, details, cex = CHECKS[name](ctx)
        except PROOF_FAILURES as exc:
            status, details, cex = "fail", {}, {"assertion": str(exc) or "failed"}
        return CheckResult(name, status, details, to_jsonable(cex),
                           time.monotonic() - t0)

    results = [run_one(name) for name in names]
    return VerificationReport(cartan_type, n, seed, results)


# -- export documents --------------------------------------------------


class ExportError(ValueError):
    pass


def build_export_document(cartan_type: str, n: int, what: str) -> dict:
    """The export document of what at (type, n), its stages built and
    their gates run.  Its entries are an iterable, lazy for the kinds whose
    size grows with n: write_export consumes them once."""
    if what not in EXPORT_KINDS:
        raise ExportError(f"unknown export kind: {what}")
    violations = validate_params(cartan_type, n) or export_violations(cartan_type, n, what)
    if violations:
        raise ExportError("; ".join(violations))
    ctx = CheckContext(cartan_type, n)
    entries = _EXPORTS[what](ctx)
    return {
        "schema_version": SCHEMA_VERSION,
        "parameters": {"type": cartan_type, "n": n, "what": what},
        "entries": entries,
    }


_ENCODER = json.JSONEncoder(sort_keys=True, indent=2)


def write_export(doc: dict, fh) -> None:
    """Write doc to fh as json.dumps(doc, sort_keys=True, indent=2) + "\\n",
    one entry at a time.  The keys sort as entries, parameters,
    schema_version, so the entries come first, and each is encoded alone
    and indented to its depth (a JSON string holds no raw newline)."""
    fh.write('{\n  "entries": [')
    sep = "\n    "
    for entry in doc["entries"]:
        fh.write(sep + _ENCODER.encode(entry).replace("\n", "\n    "))
        sep = ",\n    "
    rest = _ENCODER.encode({k: v for k, v in doc.items() if k != "entries"})
    fh.write(("]," if sep == "\n    " else "\n  ],") + rest[1:] + "\n")


def _export_borel(ctx: CheckContext):
    hopf = ctx.hopf
    A = hopf.algebra
    entries = [{"kind": "dimension", "value": A.dimension}]
    names = [f"{letter}{i + 1}" for letter in "ge" for i in range(A.rank)]
    for name, gen in zip(names, A.generators()):
        (mono,) = gen.terms
        entries.append({"kind": "generator", "name": name,
                        "monomial": monomial_doc(mono)})
    for i in range(A.rank):
        cop = hopf.coproduct(A.generator_e(i))
        entries.append({
            "kind": "coproduct",
            "generator": f"e{i + 1}",
            "terms": [
                {"slots": [monomial_doc(k[0]), monomial_doc(k[1])],
                 "scalar": scalar_doc(c)}
                for k, c in sorted(cop.terms.items())
            ],
        })
    return entries


def _export_subalgebra(ctx: CheckContext):
    sub = ctx.sub
    return itertools.chain(
        [{"kind": "dimension", "value": sub.count}],
        ({"kind": "basis-monomial", "monomial": monomial_doc(m)} for m in sub.monomials()))


def _export_twist(ctx: CheckContext):
    A = ctx.hopf.algebra
    J = ctx.twist
    coords = coord_table(A.m, A.rank)
    return ({"kind": "twist-entry", "z": list(z), "y": list(y),
             "scalar": scalar_doc(A.field.zeta_pow(J.exponent(z, y)))}
            for z in coords for y in coords)


def _export_associator(ctx: CheckContext):
    # one entry per coarse cell (b, c, d), read off the carry tables
    assoc = ctx.assoc
    q = ctx.hopf.algebra.field
    coords = assoc.coords
    return ({"kind": "associator-entry", "b": list(coords[b]), "c": list(coords[c]),
             "d": list(coords[d]), "scalar": scalar_doc(q.zeta_pow(assoc.exponent(b, c, d)))}
            for b, c, d in itertools.product(range(assoc.L), repeat=3))


def _export_double_generators(ctx: CheckContext):
    if not ctx.double_scale:
        raise ExportError(DOUBLE_SCOPE)
    gens = ctx.double_gens
    if gens["residual"] is not None:
        # a failed proof obligation of a stage export builds: exit 1, not 2
        raise ArithmeticError(f"generator validation failed: {gens['residual']}")
    entries = [{"kind": "character-parameter", "t": gens["t"]}]
    for name in ("E", "F", "K", "K_inv", "K_prime"):
        # exported in the dual basis (dual monomial, monomial)
        terms = to_delta(ctx.double, gens[name].terms)
        entries.append({
            "kind": "double-generator",
            "name": name,
            "terms": [
                {"dual": monomial_doc(fm), "algebra": monomial_doc(am),
                 "scalar": scalar_doc(c)}
                for (fm, am), c in sorted(terms.items())
            ],
        })
    return entries


_EXPORTS = {
    "borel": _export_borel,
    "subalgebra": _export_subalgebra,
    "twist": _export_twist,
    "associator": _export_associator,
    "double-generators": _export_double_generators,
}
EXPORT_KINDS = tuple(_EXPORTS)
