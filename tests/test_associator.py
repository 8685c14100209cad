"""Associator closed form, coboundary equality, pentagon, quasi-coassociativity.

The exponent table is compared against a plain-loop oracle written
independently in this file.  The headline equality dJ = Phi runs as an
exhaustive fine-grid integer sweep at every scale and, at the small
scale, as a full tensor computation in exact cyclotomic arithmetic.
Negative controls corrupt one coarse cell and confirm every checker
notices.
"""

import ast
import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qborel
from qborel.algebra import apply_on_slot, tensor_multiply
from qborel.borel import build_borel
from qborel.associator import (
    Associator,
    associator_exponent_table,
    closed_form_associator,
    coboundary_exponent,
    coboundary_matches_associator,
    pentagon_check,
    quasi_coassoc_check,
    twist_coboundary_tensor,
)
from qborel.cyclotomic import CycScalar
from qborel.report import to_jsonable
from qborel.twist import build_twist, twisted_coproduct


@pytest.fixture(scope="module")
def s13():
    h = build_borel("A1", 3)
    return h, build_twist(h)


@pytest.fixture(scope="module")
def s15():
    h = build_borel("A1", 5)
    return h, build_twist(h)


@pytest.fixture(scope="module")
def s25():
    h = build_borel("A2", 5)
    return h, build_twist(h)


@pytest.fixture(scope="module")
def a13(s13):
    return closed_form_associator(s13[0])


@pytest.fixture(scope="module")
def a15(s15):
    return closed_form_associator(s15[0])


@pytest.fixture(scope="module")
def a25(s25):
    return closed_form_associator(s25[0])


def _oracle_table(hopf):
    """Plain-loop recomputation of the associator exponents."""
    A = hopf.algebra
    n, r = A.n, A.rank
    cart = A.datum.cartan_matrix
    L = n**r
    vecs = list(itertools.product(range(n), repeat=r))
    out = np.zeros((L, L, L), dtype=np.int64)
    for b, bv in enumerate(vecs):
        for c, cv in enumerate(vecs):
            for d, dv in enumerate(vecs):
                e = 0
                for i in range(r):
                    for j in range(r):
                        s = cv[j] + dv[j]
                        e += cart[i][j] * bv[i] * (s % n - s)
                out[b, c, d] = e % A.m
    return out


def test_table_matches_oracle(s13, s25):
    for hopf, _ in (s13, s25):
        got = associator_exponent_table(hopf)
        assert (got == _oracle_table(hopf)).all()


def test_table_frozen_a1n3(s13, a13):
    hopf, _ = s13
    assert a13.table[1, 2, 2] == (-6) % 9
    assert a13.coefficient(1, 2, 2) == hopf.algebra.field.zeta_pow(-6)
    for b in range(3):
        for c in range(3):
            for d in range(3):
                if c + d < 3:
                    assert a13.table[b, c, d] == 0
    assert a13.term_count == 27


def test_table_frozen_a2_spot(a25):
    f = a25.hopf.algebra.field
    # gamma + delta = (6, 7), defects (-5, -5); (1,0).cartan = (2,-1); -10+5 = -5
    assert a25.coefficient((1, 0), (2, 3), (4, 4)) == f.zeta_pow(-5)
    # no defect: gamma + delta = (3, 4)
    assert a25.coefficient((1, 1), (2, 3), (1, 1)) == f.one
    assert a25.term_count == 15625


def test_term_count_a1n5(a15):
    assert a15.term_count == 125


def test_tensor_counit_normalization_a1n3(s13, a13):
    hopf, _ = s13
    unit2 = hopf.algebra.unit_tensor(2)
    Phi = a13.to_tensor()
    for slot in range(3):
        assert apply_on_slot(hopf.counit, Phi, slot) == unit2


def test_tensor_refused_at_rank2(a25):
    with pytest.raises(RuntimeError):
        a25.to_tensor()


def test_associator_invertible_a1n3(s13, a13):
    hopf, _ = s13
    unit3 = hopf.algebra.unit_tensor(3)
    Phi = a13.to_tensor()
    Phi_inv = a13.inverse_tensor()
    assert tensor_multiply(Phi, Phi_inv) == unit3
    assert tensor_multiply(Phi_inv, Phi) == unit3


def test_constructor_rejects_bad_tables(s13, a13):
    hopf, _ = s13
    t = a13.table.copy()
    t[1, 2, 2] += 1  # not a multiple of n
    with pytest.raises(ValueError):
        Associator(hopf, t)
    t = a13.table.copy()
    t[0, 1, 2] = 3  # breaks counit normalization
    with pytest.raises(ValueError):
        Associator(hopf, t)


def test_corrupted_table_raises_under_optimize_flag():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = (
        "assert False, 'asserts must be stripped here'\n"
        "from qborel.associator import Associator, associator_exponent_table\n"
        "from qborel.borel import build_borel\n"
        "h = build_borel('A1', 3)\n"
        "t = associator_exponent_table(h)\n"
        "t[1, 2, 2] += 1\n"
        "try:\n"
        "    Associator(h, t)\n"
        "    raise SystemExit(1)\n"
        "except ValueError:\n"
        "    pass\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
    assert proc.returncode == 0


def test_proof_modules_have_no_assert():
    # assert statements vanish under python -O; proof checks must raise instead
    pkg = os.path.dirname(qborel.__file__)
    for name in ("cyclotomic.py", "cocycle.py", "twist.py", "associator.py"):
        with open(os.path.join(pkg, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{name} has assert statements at lines {lines}"


def test_coboundary_exponent_frozen_a1n3(s13, a13):
    hopf, J = s13
    # E(2,2)=0, E(1,4)=-6, E(3,2)=0, E(1,2)=0, so EdJ(1,2,2) = -6
    assert coboundary_exponent(hopf, J, 1, 2, 2) == (-6) % 9
    assert coboundary_exponent(hopf, J, 1, 2, 2) == int(a13.table[1, 2, 2])


def test_coboundary_matches_associator_all_scales(s13, a13, s15, a15, s25, a25):
    for (hopf, J), assoc in ((s13, a13), (s15, a15), (s25, a25)):
        assert coboundary_matches_associator(hopf, J, assoc) is None


def test_coboundary_tensor_equals_associator_a1n3(s13, a13):
    hopf, J = s13
    assert twist_coboundary_tensor(hopf, J) == a13.to_tensor()


def test_coboundary_negative_control(s13, a13):
    hopf, J = s13
    t = a13.table.copy()
    t[1, 2, 2] = (t[1, 2, 2] + 3) % 9
    bad = Associator(hopf, t)
    hit = coboundary_matches_associator(hopf, J, bad)
    assert hit is not None
    assert set(hit) == {"z", "u", "v", "coboundary_exponent", "associator_exponent"}


def test_pentagon_all_scales(s13, a13, s15, a15, s25, a25):
    for (hopf, J), assoc in ((s13, a13), (s15, a15), (s25, a25)):
        assert pentagon_check(hopf, assoc) is None
    hopf, J = s13
    assert pentagon_check(hopf, a13, J) is None


def test_pentagon_negative_control(s13):
    hopf, _ = s13
    t = associator_exponent_table(hopf)
    t[1, 2, 2] = (t[1, 2, 2] + 3) % 9
    bad = Associator(hopf, t)
    hit = pentagon_check(hopf, bad)
    assert hit is not None and "cell" in hit


def test_quasi_coassoc_generators_all_scales(s13, a13, s15, a15, s25, a25):
    for (hopf, J), assoc in ((s13, a13), (s15, a15), (s25, a25)):
        A = hopf.algebra
        xs = [A.one]
        for i in range(A.rank):
            gn = [0] * A.rank
            gn[i] = A.n
            xs.append(A.monomial_element(gn, (0,) * A.nroots))
            xs.append(A.generator_e(i))
        for x in xs:
            assert quasi_coassoc_check(hopf, J, assoc, x) is None


def test_quasi_coassoc_arbitrary_element_a1n3(s13, a13):
    hopf, J = s13
    A = hopf.algebra
    # outside the subalgebra: the tensor route still verifies the identity
    x = A.monomial_element((1,), (1,)) + A.generator_g(0).scale(A.field.zeta_pow(2))
    assert quasi_coassoc_check(hopf, J, a13, x) is None


def test_quasi_coassoc_negative_control(s13):
    hopf, J = s13
    t = associator_exponent_table(hopf)
    t[1, 2, 2] = (t[1, 2, 2] + 3) % 9
    bad = Associator(hopf, t)
    hit = quasi_coassoc_check(hopf, J, bad, hopf.algebra.generator_e(0))
    assert hit is not None


class _PerturbedTensor(Associator):
    """Correct coarse table, wrong tensor expansion: only a tensor route can see it."""

    def to_tensor(self):
        A = self.hopf.algebra
        return super().to_tensor() + A.tensor_of_elements(A.generator_g(0), A.one, A.one)


def test_tensor_routes_name_the_first_differing_key(s13, a13):
    hopf, J = s13
    bad = _PerturbedTensor(hopf, a13.table)
    assert pentagon_check(hopf, bad) is None  # the coarse route alone passes
    hits = [
        pentagon_check(hopf, bad, J),
        quasi_coassoc_check(hopf, J, bad, hopf.algebra.generator_e(0)),
    ]
    assert hits[0]["cell"] == "tensor route"
    assert hits[1]["pattern"] == "tensor route"
    for hit, arity in zip(hits, (4, 3)):
        assert len(hit["key"]) == arity
        assert isinstance(hit["lhs"], CycScalar) and isinstance(hit["rhs"], CycScalar)
        assert hit["lhs"] != hit["rhs"]
        doc = to_jsonable(hit)
        assert json.loads(json.dumps(doc)) == doc
        assert len(doc["key"]) == arity and set(doc["lhs"]) == {"order", "coeffs"}
    # the quasi-coassociativity mismatch reproduces from a recomputation
    dj = lambda el: twisted_coproduct(hopf, J, el)
    X, Phi = dj(hopf.algebra.generator_e(0)), bad.to_tensor()
    lhs_t = tensor_multiply(apply_on_slot(dj, X, 1), Phi)
    rhs_t = tensor_multiply(Phi, apply_on_slot(dj, X, 0))
    differing = [k for k in set(lhs_t.terms) | set(rhs_t.terms)
                 if lhs_t.coefficient(k) != rhs_t.coefficient(k)]
    key = hits[1]["key"]
    assert key == min(differing)
    assert (hits[1]["lhs"], hits[1]["rhs"]) == (lhs_t.coefficient(key), rhs_t.coefficient(key))


def test_quasi_coassoc_rank2_rejects_outside_elements(s25, a25):
    hopf, J = s25
    with pytest.raises(ValueError):
        quasi_coassoc_check(hopf, J, a25, hopf.algebra.generator_g(0))
