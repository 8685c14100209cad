"""Rewriting-core tests: normal forms, tensors, probes, negative controls."""

import itertools
import random

import pytest

from qborel.algebra import (
    BorelAlgebra,
    Monomial,
    accumulate,
    apply_on_slot,
    tensor_multiply,
)
from qborel.borel import build_borel


def associativity_probe(algebra: BorelAlgebra, samples: int = 100, seed: int = 0):
    """Exact (xy)z = x(yz) sweep; None on pass, else the first bad triple.

    Covers all triples of generators and single root-vector letters
    exhaustively (the composite letters exercise every straightening
    overlap), then `samples` random basis-monomial triples drawn with the
    given seed.
    """
    gens = algebra.generators()
    for letter in range(algebra.nroots):
        if letter not in algebra.e_letters:
            p = [0] * algebra.nroots
            p[letter] = 1
            gens.append(algebra.monomial_element((0,) * algebra.rank, p))
    for x, y, z in itertools.product(gens, repeat=3):
        if (x * y) * z != x * (y * z):
            return (x, y, z)
    rng = random.Random(seed)
    m = algebra.m
    for _ in range(samples):
        monos = [
            algebra.monomial_element(
                tuple(rng.randrange(m) for _ in range(algebra.rank)),
                tuple(rng.randrange(m) for _ in range(algebra.nroots)),
            )
            for _ in range(3)
        ]
        x, y, z = monos
        if (x * y) * z != x * (y * z):
            return (x, y, z)
    return None


def _a1(n=3):
    return BorelAlgebra("A1", n)


def _a2(n=3):
    # admissibility of n is a Hopf-level concern; the bare rewriting
    # algebra is well defined for any n, so cheap A2 tests may use n=3
    return BorelAlgebra("A2", n)


def test_e_times_g_straightens():
    A = _a1()
    g, e = A.generator_g(0), A.generator_e(0)
    q = A.field.zeta_pow(1)
    assert e * g == (g * e).scale(q.inv())


def test_group_order():
    A = _a1()
    g = A.generator_g(0)
    p = A.one
    for _ in range(9):
        p = p * g
    assert p == A.one


def test_nilpotency_and_dim_B():
    A = _a1()
    e = A.generator_e(0)
    p = A.one
    for k in range(8):
        p = p * e
        assert p
    assert p * e == 0
    # normal forms with trivial group part enumerate the nilpotent factor
    nilpotent = [mono for mono in A.basis() if mono.group == (0,)]
    assert len(nilpotent) == 9


def test_dimension_a1_3():
    A = _a1()
    assert A.dimension == 81
    assert len(list(A.basis())) == 81


def test_a2_serre_relation_holds():
    # e1^2 e2 - (q+q^-1) e1 e2 e1 + e2 e1^2 = 0 must rewrite to zero
    A = _a2()
    e1, e2 = A.generator_e(0), A.generator_e(1)
    q = A.field.zeta_pow(1)
    lhs = e1 * e1 * e2 - (e1 * e2 * e1).scale(q + q.inv()) + e2 * e1 * e1
    assert lhs == 0
    rhs = e2 * e2 * e1 - (e2 * e1 * e2).scale(q + q.inv()) + e1 * e2 * e2
    assert rhs == 0


def test_a2_composite_letter_weight():
    # g_i e_12 g_i^(-1) = q * e_12 for both i (weight (1,1))
    A = _a2()
    e12 = A.monomial_element((0, 0), (0, 1, 0))
    q = A.field.zeta_pow(1)
    for i in range(2):
        g = A.generator_g(i)
        ginv = A.monomial_element((-1 if i == 0 else 0, -1 if i == 1 else 0), (0, 0, 0))
        assert g * e12 * ginv == e12.scale(q)


def test_a2_e2e1_rule():
    A = _a2()
    e1, e2 = A.generator_e(0), A.generator_e(1)
    q = A.field.zeta_pow(1)
    prod = e2 * e1
    expect = {
        Monomial((0, 0), (1, 0, 1)): q,
        Monomial((0, 0), (0, 1, 0)): -q,
    }
    assert prod.terms == expect


def test_element_algebra_hygiene():
    A = _a1()
    e = A.generator_e(0)
    z = e - e
    assert not z and z.terms == {}
    # audit: no operation below ever stores a zero coefficient
    rng = random.Random(5)
    elems = [A.monomial_element((rng.randrange(9),), (rng.randrange(9),)) for _ in range(6)]
    acc = A.one
    for el in elems:
        acc = acc * el + el - el
        assert all(c for c in acc.terms.values())


def test_power_refuses_a_negative_exponent():
    # (-1) >> 1 == -1, so squaring down a negative k would never end
    g = build_borel("A1", 3).algebra.generator_g(0)
    for k in (-1, -9):
        with pytest.raises(ValueError, match=f"k >= 0, got {k}"):
            g.power(k)
    assert g.power(0) == g.ring.one and g.power(9) == g.ring.one and g.power(2) == g * g


def test_unit_laws_all_basis_monomials():
    A = _a1()
    for mono in A.basis():
        x = A.element({mono: A.field.one})
        assert A.one * x == x
        assert x * A.one == x


def test_tensor_unit_and_disjoint_slots():
    A = _a1()
    g = A.generator_g(0)
    X = A.tensor_of_elements(g, A.generator_e(0))
    assert A.tensor_power(2).one * X == X
    left = A.tensor_of_elements(g, A.one)
    right = A.tensor_of_elements(A.one, g)
    assert left * right == A.tensor_of_elements(g, g)


def test_tensor_slotwise_straightening():
    A = _a1()
    g, e = A.generator_g(0), A.generator_e(0)
    q = A.field.zeta_pow(1)
    lhs = A.tensor_of_elements(e, A.one) * A.tensor_of_elements(g, A.one)
    assert lhs == A.tensor_of_elements(g * e, A.one).scale(q.inv())


def test_tensor_arity_mismatch():
    A = _a1()
    try:
        tensor_multiply(A.tensor_power(2).one, A.tensor_power(3).one)
    except ValueError:
        pass
    else:
        raise AssertionError("expected arity mismatch error")


def test_apply_on_slot_identity_and_counit():
    A = _a1()
    g = A.generator_g(0)
    X = A.tensor_of_elements(g, g)
    assert apply_on_slot(lambda el: el, X, 0) == X

    def eps(el):
        ((mono, c),) = el.terms.items()
        return c if not any(mono.pbw) else A.field.zero

    assert apply_on_slot(eps, X, 0) == g


def test_apply_on_slot_coproduct_raises_arity():
    A = _a1()
    e, g = A.generator_e(0), A.generator_g(0)
    K = g * g
    X = A.tensor_of_elements(e, A.one)

    def cop(el):
        ((mono, c),) = el.terms.items()
        if mono == Monomial((0,), (1,)):
            return (A.tensor_of_elements(e, K) + A.tensor_of_elements(A.one, e)).scale(c)
        raise AssertionError("only called on the e slot in this test")

    got = apply_on_slot(cop, X, 0)
    expect = A.tensor_of_elements(e, K, A.one) + A.tensor_of_elements(A.one, e, A.one)
    assert got == expect


def test_associativity_probe_passes():
    assert associativity_probe(_a1(), samples=60, seed=11) is None
    assert associativity_probe(_a2(), samples=60, seed=11) is None


def test_associativity_probe_catches_corrupt_rule():
    A = BorelAlgebra("A2", 3)
    q = A.field.zeta_pow(1)
    # replace the e12-past-e1 rule with a wrong coefficient: the (2,1,0)
    # straightening overlap then produces two different normal forms
    assert associativity_probe(A, samples=0) is None
    A.rewrite.swaps[(1, 0)] = ((q, (0, 1)),)
    A._letter_mul_cache.clear()
    assert associativity_probe(A, samples=0) is not None


def test_basis_certificate_counts_ambiguities():
    # A1 has no swap rule, so no ambiguity and no relation among e-letters; A2
    # has the triple E_2 E_1 E_0 and two nilpotency overlaps per swap rule,
    # and three defining relations: e_12 and the two q-Serre words
    assert _a1(3).certify_basis() == _a1(7).certify_basis() == 0
    assert _a1(3).relations == {} and len(_a2(3).relations) == 3
    for n in (3, 5, 7):
        A = _a2(n)
        names = [name for name, _, _ in A.ambiguities()]
        assert len(names) == len(set(names)) == 7
        assert "E_2 E_1 E_0" in names and f"E_2^{A.m} E_0" in names
        assert A.certify_basis() == 7


def test_basis_certificate_rejects_wrong_q_rule():
    # the corrupt rule of test_associativity_probe_catches_corrupt_rule:
    # e12 past e1 with q in place of q^(-1) leaves two ambiguities unresolved
    A = _a2(5)
    q = A.field.zeta_pow(1)
    A.rewrite.swaps[(1, 0)] = ((q, (0, 1)),)
    assert sorted(name for name, left, right in A.ambiguities() if left != right) == [
        "E_2 E_0^25", "E_2 E_1 E_0"]
    with pytest.raises(ArithmeticError, match=r"the ambiguity E_2 E_0\^25 does not resolve"):
        A.certify_basis()


def test_basis_certificate_rejects_wrong_weight_and_non_decreasing_rules():
    q = _a2(5).field.zeta_pow(1)
    for key, rule in (((2, 0), ((q, (0, 2)), (-q, (2,)))),   # E_2 has weight (0, 1), not (1, 1)
                      ((2, 1), ((q, (2, 1)),))):             # E_2 E_1 -> E_2 E_1 never terminates
        A = _a2(5)
        A.rewrite.swaps[key] = rule
        with pytest.raises(ArithmeticError, match=f"the rule for E_{key[0]} E_{key[1]} has the word"):
            A.certify_basis()


@pytest.mark.parametrize("k, failing", [
    (0, ["E_1 = E_0 E_2 - q^(-1) E_2 E_0",
         "E_0 E_0 E_2 - [2] E_0 E_2 E_0 + E_2 E_0 E_0 = 0",
         "E_2 E_2 E_0 - [2] E_2 E_0 E_2 + E_0 E_2 E_2 = 0"]),
    (1, ["E_1 = E_0 E_2 - q^(-1) E_2 E_0"]),
], ids=["first-coefficient", "second-coefficient"])
def test_build_borel_rejects_a_rule_outside_the_relations(monkeypatch, k, failing):
    # either coefficient of the rule for E_2 E_0 moved by q: the rules still
    # present an algebra with a PBW basis, every ambiguity resolves, and
    # only the defining relations tell it from u_q(b)
    real = BorelAlgebra.__init__

    def corrupted(self, *args):
        real(self, *args)
        rule = list(self.rewrite.swaps[(2, 0)])
        c, word = rule[k]
        rule[k] = (c * self.field.zeta_pow(1), word)
        self.rewrite.swaps[(2, 0)] = tuple(rule)

    monkeypatch.setattr(BorelAlgebra, "__init__", corrupted)
    A = BorelAlgebra("A2", 5)
    assert all(left == right for _, left, right in A.ambiguities())
    assert [name for name, terms in A.relations.items()
            if A._words_times(terms, (0, 0, 0))] == failing
    with pytest.raises(ArithmeticError, match=r"the relation E_1 = E_0 E_2 - q\^\(-1\) E_2 E_0 fails"):
        build_borel("A2", 5)


def test_build_borel_runs_the_basis_certificate(monkeypatch):
    calls = []
    monkeypatch.setattr(BorelAlgebra, "certify_basis", lambda self: calls.append(self.cartan_type))
    build_borel("A1", 3)
    build_borel("A2", 5)
    assert calls == ["A1", "A2"]


def test_probe_random_triples_a2_n5():
    assert associativity_probe(BorelAlgebra("A2", 5), samples=40, seed=3) is None


def _letter_at_a_time(A: BorelAlgebra, p1, p2):
    """(normal word p1) * (normal word p2), moving the letters of p1 one at a time."""
    part = {p2: A.field.one}
    for letter in range(A.nroots - 1, -1, -1):
        for _ in range(p1[letter]):
            moved = {}
            for w, c in part.items():
                accumulate(moved, A._words_times(((c, (letter,)),), w).items())
            part = moved
    return part


def test_pbw_merge_matches_letter_at_a_time():
    # at rank 1 every product merges: e^a e^b = e^(a+b), zero from a + b = m
    for n in (3, 5):
        A = _a1(n)
        words = [(b,) for b in range(A.m)]
        for p1, p2 in itertools.product(words, repeat=2):
            want = {(p1[0] + p2[0],): A.field.one} if p1[0] + p2[0] < A.m else {}
            assert A._pbw_mul(p1, p2) == _letter_at_a_time(A, p1, p2) == want
    # at A2, seeded words, both merging (left letters <= the first right
    # letter) and straightening
    A = BorelAlgebra("A2", 5)
    rng = random.Random(17)
    paths = {True: 0, False: 0}  # nonzero products by path: merged, straightened
    for _ in range(300):
        p1, p2 = ([rng.choice((0, 0, 1, 2, rng.randrange(A.m))) for _ in range(3)]
                  for _ in range(2))
        first = next((i for i, b in enumerate(p2) if b), 3)
        if rng.random() < 0.5:  # make p1 end at or before the first letter of p2
            p1 = [b if i <= first else 0 for i, b in enumerate(p1)]
        p1, p2 = tuple(p1), tuple(p2)
        got = A._pbw_mul(p1, p2)
        assert got == _letter_at_a_time(A, p1, p2)
        paths[not any(p1[first + 1:])] += bool(got)
    assert paths[True] > 50 and paths[False] > 50
