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

import json
import operator
import time
from math import gcd, lcm
from typing import NamedTuple

from .algebra import Monomial
from .associator import (
    closed_form_associator,
    coboundary_matches_associator,
    pentagon_check,
    quasi_coassoc_check,
)
from .borel import build_borel, build_subalgebra, sector_presentation_check
from .cartan import validate_params
from .cocycle import brute_force_decision, decide_coboundary, restrict_associator
from .cyclotomic import CycScalar, cyc_field, rational_parts
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
    twist_two_cocycle_check,
)
from .twist import (
    build_twist,
    coord_table,
    fine_membership_counterexample,
    membership_in_subalgebra_tensor,
    twist_exponent_table,
    twisted_generator_fine,
)

SCHEMA_VERSION = 1

LIMITATION = (
    "Scope: algebra-level identities only (exact arithmetic over the "
    "cyclotomic field). Claims about equivalences of tensor categories "
    "are not mechanically checkable here and are not attempted."
)

CHECK_ORDER = (
    "coproduct-support",
    "associator-coboundary",
    "subalgebra-dimension",
    "pentagon",
    "quasi-coassociativity",
    "presentation",
    "cocycle-nontrivial",
    "double-twist",
    "r-matrix",
)

EXPORT_KINDS = ("borel", "subalgebra", "twist", "associator", "double-generators")


# a proof obligation that fails raises one of these; a check reports it as fail
PROOF_FAILURES = (ArithmeticError, ValueError)


class CheckContext:
    """Shared lazily-built objects for one (type, n) parameter set.

    A stage whose build fails keeps the exception and raises it to every use.
    """

    def __init__(self, cartan_type: str, n: int, seed: int = 0):
        self.cartan_type = cartan_type
        self.n = n
        self.seed = seed
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
    exponent vectors."""
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
    return repr(obj)


def scalar_doc(c: CycScalar) -> dict:
    den = c.den
    return {
        "order": c.field.order,
        "coeffs": [[x // g, den // g] for x in c.num for g in (gcd(x, den),)],
    }


def scalar_from_doc(doc: dict) -> CycScalar:
    pairs = [(operator.index(num), operator.index(den)) for num, den in doc["coeffs"]]
    common = lcm(*(den for _, den in pairs))
    return cyc_field(doc["order"]).from_integers([num * (common // den) for num, den in pairs], common)


def monomial_doc(m: Monomial) -> dict:
    return {"group_exp": list(m.group), "pbw_exp": list(m.pbw)}


def monomial_from_doc(algebra, doc: dict) -> Monomial:
    return algebra.monomial(tuple(doc["group_exp"]), tuple(doc["pbw_exp"]))


# -- the checks --------------------------------------------------------


def _check_coproduct_support(ctx: CheckContext):
    hopf, sub, J = ctx.hopf, ctx.sub, ctx.twist
    A = hopf.algebra
    for i in range(A.rank):
        fam = twisted_generator_fine(hopf, J, i)
        bad = fine_membership_counterexample(hopf, fam)
        if bad is not None:
            pattern, z, y, got, want = bad
            return "fail", {}, {
                "generator": i, "pattern": [list(w) for w in pattern],
                "z": z, "y": y, "got": got, "want": want,
            }
    # the untwisted coproduct must NOT lie in the subalgebra tensor square
    outside = membership_in_subalgebra_tensor(
        hopf.coproduct(A.generator_e(0)), sub
    )
    if outside is None:
        return "fail", {}, {"negative-control": "untwisted coproduct passed"}
    return "pass", {
        "generators_checked": A.rank,
        "untwisted_excluded": True,
    }, None


def _check_associator_coboundary(ctx: CheckContext):
    bad = coboundary_matches_associator(ctx.hopf, ctx.twist, ctx.assoc)
    if bad is not None:
        return "fail", {}, bad
    return "pass", {"term_count": ctx.assoc.term_count}, None


def _check_subalgebra_dimension(ctx: CheckContext):
    A = ctx.hopf.algebra
    sub = ctx.sub
    n, r, N = A.n, A.rank, A.nroots
    dims = {
        "dim_subalgebra": sub.count,
        "dim_borel": A.dimension,
    }
    if A.dimension != n ** (2 * r + 2 * N):
        return "fail", dims, {"expected_borel": n ** (2 * r + 2 * N)}
    dims["enumerated"] = sub.enumerated
    return "pass", dims, None


def _check_pentagon(ctx: CheckContext):
    hopf = ctx.hopf
    J = ctx.twist if (hopf.algebra.rank == 1 and ctx.n == 3) else None
    bad = pentagon_check(hopf, ctx.assoc, J)
    if bad is not None:
        return "fail", {}, bad
    return "pass", {"tensor_route": J is not None}, None


def _check_quasi_coassoc(ctx: CheckContext):
    hopf = ctx.hopf
    A = hopf.algebra
    probes = [("unit", A.one)]
    for i in range(A.rank):
        exps = [0] * A.rank
        exps[i] = A.n
        probes.append((f"g{i + 1}^n", A.monomial_element(tuple(exps), (0,) * A.nroots)))
    for i in range(A.rank):
        probes.append((f"e{i + 1}", A.generator_e(i)))
    for name, x in probes:
        bad = quasi_coassoc_check(hopf, ctx.twist, ctx.assoc, x)
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
    w = restrict_associator(ctx.assoc)
    dec = decide_coboundary(w)
    if dec.trivial:
        return "fail", {}, {"witness": dec.witness}
    details = {"obstruction": dec.obstruction}
    if ctx.n == 3 and ctx.hopf.algebra.rank == 1:
        brute = brute_force_decision(w)
        if brute.trivial:
            return "fail", details, {"brute_force_witness": brute.witness}
        details["brute_force_agrees"] = True
    return "pass", details, None


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
    tw = bicharacter_twist(dbl, gens)
    E, F, K, K_inv = gens["E"], gens["F"], gens["K"], gens["K_inv"]
    one = dbl.unit()
    if tw.twisted_coproduct(E) != dtensor_add(dtensor_of(E, K), dtensor_of(one, E)):
        return "fail", {}, {"twisted": "Delta(E) = E x K + 1 x E"}
    if tw.twisted_coproduct(F) != dtensor_add(dtensor_of(F, one), dtensor_of(K_inv, F)):
        return "fail", {}, {"twisted": "Delta(F) = F x 1 + K^-1 x F"}
    if tw.twisted_coproduct(K) != dtensor_of(K, K):
        return "fail", {}, {"twisted": "Delta(K) = K x K"}
    bad = twist_two_cocycle_check(tw)
    if bad is not None:
        return "fail", {}, {"two_cocycle": bad}
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


def run_checks(cartan_type: str, n: int, names=None, seed: int = 0) -> VerificationReport:
    """Run the named checks (default: all) and assemble the report.

    Parameter validation is the caller's responsibility.  Checks run one
    after another in the given order.
    """
    if names is None:
        names = CHECK_ORDER
    ctx = CheckContext(cartan_type, n, seed)
    # build the shared objects up front, outside every check's wall time;
    # a failed stage fails each check that uses it
    for stage in ("hopf", "sub", "twist", "assoc"):
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
    violations = validate_params(cartan_type, n)
    if violations:
        raise ExportError("; ".join(violations))
    if what not in EXPORT_KINDS:
        raise ExportError(f"unknown export kind: {what}")
    ctx = CheckContext(cartan_type, n)
    entries = _EXPORTS[what](ctx)
    return {
        "schema_version": SCHEMA_VERSION,
        "parameters": {"type": cartan_type, "n": n, "what": what},
        "entries": entries,
    }


def export_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _export_borel(ctx: CheckContext):
    hopf = ctx.hopf
    A = hopf.algebra
    entries = [{"kind": "dimension", "value": A.dimension}]
    names = []
    for i in range(A.rank):
        exps = tuple(1 if k == i else 0 for k in range(A.rank))
        names.append((f"g{i + 1}", A.monomial(exps, (0,) * A.nroots)))
    for i in range(A.rank):
        pbw = [0] * A.nroots
        pbw[A.e_letters[i]] = 1
        names.append((f"e{i + 1}", A.monomial((0,) * A.rank, tuple(pbw))))
    for name, mono in names:
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
    entries = [{"kind": "dimension", "value": sub.count}]
    entries.extend(
        {"kind": "basis-monomial", "monomial": monomial_doc(m)}
        for m in sub.monomials()
    )
    return entries


def _export_twist(ctx: CheckContext):
    hopf = ctx.hopf
    q = hopf.algebra.field
    expo = twist_exponent_table(hopf)
    coords = coord_table(hopf.algebra.m, hopf.algebra.rank)
    entries = []
    for zi, row in enumerate(expo):
        for yi, e in enumerate(row):
            entries.append({
                "kind": "twist-entry",
                "z": list(coords[zi]),
                "y": list(coords[yi]),
                "scalar": scalar_doc(q.zeta_pow(e)),
            })
    return entries


def _export_associator(ctx: CheckContext):
    assoc = ctx.assoc
    A = ctx.hopf.algebra
    q = A.field
    coords = coord_table(A.n, A.rank)
    L = len(coords)
    entries = []
    for bi in range(L):
        for ci in range(L):
            for di in range(L):
                entries.append({
                    "kind": "associator-entry",
                    "b": list(coords[bi]),
                    "c": list(coords[ci]),
                    "d": list(coords[di]),
                    "scalar": scalar_doc(q.zeta_pow(assoc.table[bi][ci][di])),
                })
    return entries


def _export_double_generators(ctx: CheckContext):
    if not ctx.double_scale:
        raise ExportError(DOUBLE_SCOPE)
    gens = ctx.double_gens
    if gens["residual"] is not None:
        raise ExportError(f"generator validation failed: {gens['residual']}")
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
