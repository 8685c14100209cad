"""Hopf-layer tests: coproduct, counit, antipode, subalgebra, sectors."""

import inspect
import itertools
import random
import sys

import pytest

from qborel.algebra import Monomial, tensor_multiply
from qborel.borel import (
    ParameterError,
    SubalgebraBasis,
    build_borel,
    build_subalgebra,
    carry,
    sector_element,
    sector_presentation_check,
)


@pytest.fixture(scope="module")
def h13():
    return build_borel("A1", 3)


@pytest.fixture(scope="module")
def h25():
    return build_borel("A2", 5)


def test_parameter_gate():
    with pytest.raises(ParameterError):
        build_borel("A1", 4)
    with pytest.raises(ParameterError):
        build_borel("A2", 3)
    with pytest.raises(ParameterError):
        build_borel("A1", 1)


def test_dimension_a1(h13):
    assert h13.algebra.dimension == 81
    assert len(list(h13.algebra.basis())) == 81


def test_dimension_a2_formula(h25):
    A = h25.algebra
    assert A.dimension == 5**10
    # spot check: random exponent tuples are valid normal forms, and the
    # products of consecutive ones land on normal forms
    rng = random.Random(2)
    prev = A.one
    for _ in range(20):
        mono = A.monomial(
            tuple(rng.randrange(25) for _ in range(2)),
            tuple(rng.randrange(25) for _ in range(3)),
        )
        x = A.element({mono: A.field.one})
        assert A.one * x == x
        assert all(0 <= a < A.m for key in (prev * x).terms for a in key.group + key.pbw)
        prev = x


def test_K_is_g_squared_a1(h13):
    g = h13.algebra.generator_g(0)
    assert h13.K(0) == g * g


def test_coproduct_of_e(h13):
    A = h13.algebra
    e = A.generator_e(0)
    expect = A.tensor_of_elements(e, h13.K(0)) + A.tensor_of_elements(A.one, e)
    assert h13.coproduct(e) == expect


def test_coproduct_is_algebra_map(h13):
    A = h13.algebra
    e = A.generator_e(0)
    assert h13.coproduct(e * e) == tensor_multiply(h13.coproduct(e), h13.coproduct(e))
    rng = random.Random(9)
    for _ in range(10):
        x = A.monomial_element((rng.randrange(9),), (rng.randrange(9),))
        y = A.monomial_element((rng.randrange(9),), (rng.randrange(9),))
        assert h13.check_coproduct_multiplicative(x, y)


def test_coproduct_is_algebra_map_a2(h25):
    A = h25.algebra
    rng = random.Random(10)
    for _ in range(4):
        x = A.monomial_element(
            tuple(rng.randrange(25) for _ in range(2)),
            tuple(rng.randrange(4) for _ in range(3)),
        )
        y = A.monomial_element(
            tuple(rng.randrange(25) for _ in range(2)),
            tuple(rng.randrange(4) for _ in range(3)),
        )
        assert h25.check_coproduct_multiplicative(x, y)


def test_composite_letter_coproduct_shape(h25):
    # Delta(e_12) = e_12 x K_1K_2 + (1 - q^(-2)) e_2 x e_1K_2 + 1 x e_12
    A = h25.algebra
    q = A.field.zeta_pow(1)
    e12 = A.monomial_element((0, 0), (0, 1, 0))
    e1, e2 = A.generator_e(0), A.generator_e(1)
    K12 = h25.K(0) * h25.K(1)
    expect = (
        A.tensor_of_elements(e12, K12)
        + A.tensor_of_elements(e2, e1 * h25.K(1)).scale(A.field.one - q.inv() * q.inv())
        + A.tensor_of_elements(A.one, e12)
    )
    assert h25.coproduct(e12) == expect


def test_coassociativity(h13, h25):
    A = h13.algebra
    for x in A.generators():
        assert h13.check_coassociativity(x)
    rng = random.Random(31)
    for _ in range(10):
        x = A.monomial_element((rng.randrange(9),), (rng.randrange(9),))
        assert h13.check_coassociativity(x)
    for x in h25.algebra.generators():
        assert h25.check_coassociativity(x)
    for _ in range(3):
        x = h25.algebra.monomial_element(
            tuple(rng.randrange(25) for _ in range(2)),
            tuple(rng.randrange(3) for _ in range(3)),
        )
        assert h25.check_coassociativity(x)


def test_counit_laws_exhaustive_a1(h13):
    A = h13.algebra
    for mono in A.basis():
        assert h13.check_counit_laws(A.element({mono: A.field.one}))


def test_counit_laws_sampled_a2(h25):
    A = h25.algebra
    rng = random.Random(12)
    for _ in range(6):
        x = A.monomial_element(
            tuple(rng.randrange(25) for _ in range(2)),
            tuple(rng.randrange(3) for _ in range(3)),
        )
        assert h25.check_counit_laws(x)


def test_antipode_formula(h13):
    A = h13.algebra
    g, e = A.generator_g(0), A.generator_e(0)
    assert h13.antipode(g) == A.monomial_element((-1,), (0,))
    assert h13.antipode(e) == -(e * h13.K_inv(0))


def test_antipode_axiom(h13, h25):
    for x in h13.algebra.generators():
        assert h13.check_antipode_axiom(x)
    rng = random.Random(8)
    for _ in range(8):
        x = h13.algebra.monomial_element((rng.randrange(9),), (rng.randrange(9),))
        assert h13.check_antipode_axiom(x)
    for x in h25.algebra.generators():
        assert h25.check_antipode_axiom(x)


def test_antipode_inverse(h13):
    A = h13.algebra
    rng = random.Random(14)
    for _ in range(10):
        x = A.monomial_element((rng.randrange(9),), (rng.randrange(9),))
        assert h13.antipode(h13.antipode_inv(x)) == x
        assert h13.antipode_inv(h13.antipode(x)) == x


def _uncached_extension(ext, mono, anti):
    """The image of one monomial from the letter images of ext alone, its
    letters indexed as ext indexes them: letter i is g_i and letter r + L
    is E_L.  Each power b of a letter is formed by b products, g^a by a
    products, nothing cached, and the factors multiplied in the order
    g_1 ... g_r E_0 ... E_N (reversed when anti).  The reference for the
    cached letter powers and monomial images of a LetterExtension."""
    img = ext.ring.one
    for letter, b in enumerate(mono.group + mono.pbw):
        for _ in range(b):
            img = ext.letter(letter) * img if anti else img * ext.letter(letter)
    return img


def test_antipode_letter_powers_match_uncached_extension():
    rng = random.Random(29)
    cases = []
    for n in (3, 5):
        hopf = build_borel("A1", n)
        m = hopf.algebra.m
        cases.append((hopf, [Monomial((a,), (b,)) for a in range(m) for b in range(m)]))
    hopf = build_borel("A2", 5)
    m = hopf.algebra.m
    cases.append((hopf, [Monomial((rng.randrange(m), rng.randrange(m)),
                                  tuple(rng.randrange(4) for _ in range(3)))
                         for _ in range(12)]))
    for hopf, monos in cases:
        A = hopf.algebra
        unit = (0,) * A.nroots
        # the group part: cop(g^a) = g^a x g^a and S(g^a) = S^-1(g^a) = g^(-a)
        # for every group exponent a, as the maps form g^a from the image of g
        for a in itertools.product(range(A.m), repeat=A.rank):
            g_a, g_inv = A.monomial_element(a, unit), A.monomial_element([-x for x in a], unit)
            assert hopf.coproduct(g_a) == A.tensor_of_elements(g_a, g_a), a
            assert hopf.antipode(g_a) == hopf.antipode_inv(g_a) == g_inv, a
        for mono in monos:
            x = A.element({mono: A.field.one})
            assert hopf.antipode_inv(x) == _uncached_extension(hopf.antipode_inv, mono, True)
            assert hopf.antipode(x) == _uncached_extension(hopf.antipode, mono, True)
            # the coproduct at rank 1 on every g^a e^b
            if A.rank == 1:
                assert hopf.coproduct.monomial(mono) == _uncached_extension(
                    hopf.coproduct, mono, False)
    # every power b >= 1 of g and of e below m is formed once, then reused
    h15 = cases[1][0]
    assert len(h15.antipode_inv.powers) == len(h15.coproduct.powers) == 48


def test_letter_powers_need_no_recursion():
    # S^(-1)(e^b) = (-g^(-2) e)^b; the powers below b are formed in a loop, so
    # a stack much shallower than b suffices (a recursive walk would need b frames)
    hopf = build_borel("A1", 13)
    A = hopf.algebra
    b = A.m - 1
    x = A.monomial_element((0,), (b,))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        got = hopf.antipode_inv(x)
    finally:
        sys.setrecursionlimit(limit)
    assert list(got.terms) == [Monomial((-2 * b % A.m,), (b,))]
    assert len(hopf.antipode_inv.powers) == b
    assert hopf.antipode(got) == x


def test_build_borel_a2n19_straightens_without_recursion():
    # the nilpotency ambiguity E_2 E_0^m of certify_basis moves E_2 past
    # m - 1 = 360 letters E_0 at n = 19, a chain of about m products; the
    # straightening runs them on a work list, so the default recursion
    # limit suffices, and so does a stack much shallower than m
    assert sys.getrecursionlimit() <= 1000
    assert build_borel("A2", 19).algebra.m == 361
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        hopf = build_borel("A2", 19)
    finally:
        sys.setrecursionlimit(limit)
    assert hopf.algebra.certify_basis() == 7


def test_subalgebra_a1(h13):
    sub = build_subalgebra(h13)
    assert sub.count == 27
    assert len(list(sub.monomials())) == 27
    # g e has group exponent 1, not divisible by 3
    A = h13.algebra
    ge = A.generator_g(0) * A.generator_e(0)
    assert [sub.contains_monomial(mono) for mono in ge.terms] == [False]
    assert [sub.contains_monomial(mono) for mono in A.generator_e(0).terms] == [True]


def _all_pairs_closure(sub):
    """Reference: every product of two basis monomials stays in the basis."""
    A = sub.algebra
    basis = list(sub.monomials())
    for m1, m2 in itertools.product(basis, repeat=2):
        for mono in A.multiply_monomials(m1, m2).terms:
            if not sub.contains_monomial(mono):
                return (m1, m2, mono)
    return None


def _generator_sweep(sub):
    """Reference: every left product g b, g a generator monomial and b a
    basis monomial, stays in the basis; with b = 1 and every basis monomial
    a word in the generators, this is closure of span(B)."""
    A = sub.algebra
    basis = list(sub.monomials())
    gens = [mono for g in sub.generators() for mono in g.terms]
    for m1, m2 in itertools.product(gens, basis):
        for mono in A.multiply_monomials(m1, m2).terms:
            if not sub.contains_monomial(mono):
                return (m1, m2, mono)
    return None


def test_subalgebra_closure_exhaustive_a1(h13):
    # the oracle of the structural closure proof of build_subalgebra: all
    # 27^2 products of two basis monomials
    assert _all_pairs_closure(build_subalgebra(h13)) is None


def test_generator_sweep_agrees_with_all_pairs(h13):
    # the 2|B| left products by generators and the |B|^2 products of basis
    # monomials both find B closed; at n = 5 that is 250 against 125^2
    for hopf in (h13, build_borel("A1", 5)):
        sub = build_subalgebra(hopf)
        assert _generator_sweep(sub) is None
        assert _all_pairs_closure(sub) is None
    # and the sweep names a product outside B when g itself is listed as a
    # generator: b = 1 gives g
    sub = _WithG(h13)
    bad = _generator_sweep(sub)
    assert bad is not None and not sub.contains_monomial(bad[2])


class _WithG(SubalgebraBasis):
    """Wrongly lists g_r itself, which is not in the subalgebra, as a generator."""

    def generators(self):
        return super().generators() + [self.algebra.generator_g(self.algebra.rank - 1)]


def test_closure_negative_controls(h13, h25, monkeypatch):
    # a generator outside B: build_subalgebra names it, with an error, not an assert
    monkeypatch.setattr("qborel.borel.SubalgebraBasis", _WithG)
    with pytest.raises(ValueError, match=r"the generator Monomial\(group=\(1,\), pbw=\(0,\)\) lies outside"):
        build_subalgebra(h13)
    with pytest.raises(ValueError, match=r"the generator Monomial\(group=\(0, 1\), pbw=\(0, 0, 0\)\)"):
        build_subalgebra(h25)


def test_closure_shift_lemma_a2(h25):
    """g (g^(n beta) e^p) is g e^p with its group shifted by n beta, times q^k.

    k = 0 for g = g_i^n, and k = -n beta_i for g = e_i, from
    e_i g^gamma = q^(-gamma_i) g^gamma e_i: group exponents add, the first
    step of the closure proof of build_subalgebra.
    """
    A = h25.algebra
    n, m = A.n, A.m
    gens = [mono for g in SubalgebraBasis(h25).generators() for mono in g.terms]
    rng = random.Random(12)
    for _ in range(50):
        beta = tuple(rng.randrange(n) for _ in range(A.rank))
        pbw = tuple(rng.randrange(m) for _ in range(A.nroots))
        b = Monomial(tuple(n * x for x in beta), pbw)
        for g in gens:
            k = -n * beta[A.e_letters.index(g.pbw.index(1))] if any(g.pbw) else 0
            q_k = A.field.zeta_pow(k)
            unshifted = A.multiply_monomials(g, Monomial((0,) * A.rank, pbw)).terms
            want = {
                Monomial(tuple((a + n * x) % m for a, x in zip(mono.group, beta)), mono.pbw): c * q_k
                for mono, c in unshifted.items()
            }
            assert A.multiply_monomials(g, b).terms == want, (g, b)


def test_subalgebra_a2_count(h25):
    sub = build_subalgebra(h25)
    assert sub.count == 5**8 == 390625
    assert sum(1 for _ in sub.monomials()) == 390625


def test_sector_composition_example(h13):
    # j1 = j2 = 2 at n = 3: (2+2)' = 1 and the correction is g^3
    A = h13.algebra
    p2 = sector_element(h13, 0, 2)
    p1 = sector_element(h13, 0, 1)
    g3 = A.monomial_element((3,), (0,))
    assert p2 * p2 == p1 * g3
    assert carry(2, 2, 3) == 1
    assert carry(0, 2, 3) == 0
    assert carry(1, 1, 3) == 0


def test_sector_action_data(h13):
    # the sector p_(1,2) = g^2 conjugates e by q^2 and fixes g^n; the correction
    # of p_(1,2) p_(1,2) = p_(1,1) (g^3)^c is c = 1
    A = h13.algebra
    conj = sector_element(h13, 0, 2)
    assert conj == A.monomial_element((2,), (0,))
    e, g3 = A.generator_e(0), A.monomial_element((3,), (0,))
    assert conj * e == (e * conj).scale(A.field.zeta_pow(2))
    assert conj * g3 == g3 * conj
    assert carry(2, 2, 3) == 1 and carry(1, 1, 3) == 0
    assert sector_element(h13, 0, 0) == A.one


def test_sector_presentation_a1(h13):
    assert sector_presentation_check(h13) is None


def test_sector_correction_coherence(h13):
    # additive 2-cocycle identity of the correction exponents, as elements
    # (g_1^n)^c of the group algebra
    A = h13.algebra
    n = A.n

    def corr(j1, j2):
        return A.monomial_element((n * carry(j1, j2, n),), (0,))

    for j1, j2, j3 in itertools.product(range(n), repeat=3):
        left = corr(j1, j2) * corr((j1 + j2) % n, j3)
        right = corr(j2, j3) * corr(j1, (j2 + j3) % n)
        assert left == right


def test_sector_presentation_fails_on_a_carry_dropped_at_the_wrap(h13, monkeypatch):
    # the carry the check reads, set to 0 at the wrap j1 + j2 = n: the
    # composition law fails at its first certified product there (through
    # verify, and under python -O, as a row of test_corruptions.py)
    import qborel.borel

    monkeypatch.setattr(qborel.borel, "carry", lambda x, y, n: int(x + y > n))
    assert sector_presentation_check(h13) == {"relation": "composition", "i": 0, "j1": 2, "j2": 1}


def test_sector_presentation_catches_bad_rule(h13):
    # sanity: a wrong correction exponent would break the composition law
    A = h13.algebra
    p2 = sector_element(h13, 0, 2)
    p1 = sector_element(h13, 0, 1)
    assert p2 * p2 != p1  # without the g^3 correction the law fails
