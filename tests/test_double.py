"""Drinfeld double of the rank-1 Borel: relations, twist, R-matrix.

The double's products have one reference, the cross product walked term
by term from the Hopf data of H (GenericProduct in tests/oracles.py):
multiply_characters and multiply are checked against it at (A1, 3) and
(A1, 5), and both sides of the R check against the term-pair product in
D x D built on it (mixed_tensor_multiply).  multiply is the sum of
multiply_characters over the term pairs of its factors: it is checked on
the generator pairs and on sparse elements of a few character keys, and
a full run of the double's checks must give it single-key factors only.
Elements written in the dual basis enter by the closed-form from_delta.
The closed-form coproduct has its own reference here, the dual-basis
coproduct DeltaCoproduct.
"""

import itertools
import json
import random
import time

import numpy as np
import pytest

from qborel.algebra import BorelAlgebra, Element
from qborel.borel import HopfData, build_borel
from qborel.cyclotomic import CycScalar
from qborel.double import (
    DOUBLE_SCALES,
    DOUBLE_SCOPE,
    DoubleAlgebra,
    DoubleTwist,
    bicharacter_twist,
    build_double,
    central_grouplikes,
    double_coproduct_formula_check,
    dtensor_add,
    dtensor_of,
    dtensor_swap,
    grouplike,
    identify_generators,
    r_matrix,
    r_matrix_check,
    to_delta,
)
from qborel.report import to_jsonable

from oracles import GenericProduct, from_delta, mixed_tensor_multiply


@pytest.fixture(scope="module")
def dbl():
    return build_double(build_borel("A1", 3))


@pytest.fixture(scope="module")
def gens(dbl):
    out = identify_generators(dbl)
    assert out["residual"] is None
    return out


@pytest.fixture(scope="module")
def zpow(dbl, gens):
    return central_grouplikes(dbl, gens)


def _random_key(dbl, rng):
    """A dual-basis key (delta_f, a)."""
    return (
        dbl.algebra.monomial((rng.randrange(dbl.m),), (rng.randrange(dbl.m),)),
        dbl.algebra.monomial((rng.randrange(dbl.m),), (rng.randrange(dbl.m),)),
    )


def _delta_element(dbl, terms):
    """The element with the given dual-basis terms; elements live in character keys."""
    return dbl.element(from_delta(dbl, terms))


def _delta_tensor(dbl, T):
    """A tensor over character keys with both legs moved to the dual basis."""
    return to_delta(dbl, to_delta(dbl, T, leg=0), leg=1)


def test_dimension(dbl):
    assert dbl.dimension == 3**8 == 6561
    assert len(list(dbl.algebra.basis())) == 81


def test_unit_laws(dbl):
    one = dbl.unit()
    rng = random.Random(5)
    for _ in range(10):
        x = _delta_element(dbl, {_random_key(dbl, rng): dbl.field.one})
        assert one * x == x
        assert x * one == x


def test_counit_is_multiplicative(dbl):
    def counit(X):
        # eps(psi_(alpha,k) x a) = psi_(alpha,k)(1) eps(a) = [k = 0] [a_1 = 0]
        return sum((c for ((_, k), am), c in X.terms.items() if not k and not am.pbw[0]),
                   dbl.field.zero)

    rng = random.Random(7)
    for _ in range(8):
        x = _delta_element(dbl, {_random_key(dbl, rng): dbl.field.zeta_pow(rng.randrange(9))})
        y = _delta_element(dbl, {_random_key(dbl, rng): dbl.field.one})
        assert counit(x * y) == counit(x) * counit(y)
    assert counit(dbl.unit()) == dbl.field.one
    # eps(delta_f x a) = delta_f(1) eps(a) on dual-basis keys, read through
    # the change of basis
    one, zero = dbl.field.one, dbl.field.zero
    for fm in dbl.algebra.basis():
        for am in (dbl.unit_mono, dbl.algebra.monomial((1,), (0,)), dbl.algebra.monomial((0,), (1,))):
            want = one if fm == dbl.unit_mono and not am.pbw[0] else zero
            assert counit(_delta_element(dbl, {(fm, am): one})) == want


def _hopf_cop(dbl, mono):
    """[(m1, m2, c)]: the coproduct of mono formed by HopfData, not read
    off the double (DoubleAlgebra.cop is the certified shift of cop(e^k))."""
    return [(m1, m2, c) for (m1, m2), c in dbl.hopf.coproduct_monomial(mono).terms.items()]


@pytest.fixture(scope="module")
def oracle(dbl):
    return GenericProduct(dbl)


class DeltaCoproduct:
    """The coproduct in the dual basis, the oracle for the closed form in
    character keys: Delta(delta_w x a) = sum c c_a (delta_v x a_1) x
    (delta_u x a_2) over the terms c_a a_1 x a_2 of cop(a) and the pairs
    (u, v) with c the coefficient of w in the straightened product u v.
    """

    def __init__(self, dbl):
        self.dbl = dbl
        self._pairs = {}

    def dual_mul_pairs(self, fm):
        """[(u, v, c)]: coeff of fm in the product u v, i.e. the legs of the
        coproduct of delta_fm dual to multiplication in H.

        A product of rank-1 monomials u v is a multiple of the monomial
        whose exponents are the sums of theirs, so for fm = g^(w_0) e^(w_1)
        only u_1 <= w_1 and v = g^(w_0 - u_0) e^(w_1 - u_1) can contribute:
        m (w_1 + 1) products, formed once per fm.
        """
        got = self._pairs.get(fm)
        if got is None:
            (w0,), (w1,) = fm
            mono = self.dbl.algebra.monomial
            mul = self.dbl.algebra.multiply_monomials
            got = []
            for u0 in range(self.dbl.m):
                for u1 in range(w1 + 1):
                    u, v = mono((u0,), (u1,)), mono((w0 - u0,), (w1 - u1,))
                    c = mul(u, v).terms.get(fm)
                    if c is not None:
                        got.append((u, v, c))
            self._pairs[fm] = got
        return got

    def coproduct(self, terms):
        """Delta of a dict over dual-basis keys, as a dict over pairs of them."""
        dbl = self.dbl
        out = {}
        for (fm, am), c in terms.items():
            for u, v, cu in self.dual_mul_pairs(fm):
                for a1, a2, ca in _hopf_cop(dbl, am):
                    key = ((v, a1), (u, a2))
                    out[key] = out.get(key, dbl.field.zero) + c * cu * ca
        return {k: v for k, v in out.items() if v}


def associativity_probe_double(dbl, samples=60, seed=0):
    """(xy)z = x(yz) on generator triples and seeded random basis triples."""
    gens = identify_generators(dbl)
    assert gens["residual"] is None
    pool = [gens["E"], gens["F"], gens["K"], gens["K_inv"]]
    for x, y, z in itertools.product(pool, repeat=3):
        if (x * y) * z != x * (y * z):
            return (x, y, z)
    rng = random.Random(seed)
    for _ in range(samples):
        xs = [_delta_element(dbl, {_random_key(dbl, rng): dbl.field.one}) for _ in range(3)]
        if (xs[0] * xs[1]) * xs[2] != xs[0] * (xs[1] * xs[2]):
            return tuple(xs)
    return None


def test_associativity(dbl):
    assert associativity_probe_double(dbl, samples=60, seed=11) is None


def test_dual_product_and_coproduct_consistency(dbl, oracle):
    # (f x 1)(g x 1) = fg x 1 must agree with left division through cop
    rng = random.Random(13)
    one = dbl.unit_mono
    nonzero = 0
    for _ in range(40):
        fm = dbl.algebra.monomial((rng.randrange(9),), (rng.randrange(9),))
        gm = dbl.algebra.monomial((rng.randrange(9),), (rng.randrange(9),))
        X, Y = (_delta_element(dbl, {(mono, one): dbl.field.one}) for mono in (fm, gm))
        fast = to_delta(dbl, (X * Y).terms)
        slow = {}
        for u, c in oracle.left_div.get((fm, gm), ()):
            key = (u, one)
            slow[key] = slow.get(key, dbl.field.zero) + c
        slow = {k: v for k, v in slow.items() if v}
        assert fast == slow
        nonzero += bool(slow)
    assert nonzero > 0


class _RecordingDouble(DoubleAlgebra):
    """Records the character-key pairs it multiplies."""

    def __init__(self, hopf):
        super().__init__(hopf)
        self.character_pairs = set()

    def multiply_characters(self, k1, k2):
        self.character_pairs.add((k1, k2))
        return super().multiply_characters(k1, k2)


def _on_grading(k1, k2, m):
    (fm, am), (gm, _) = k1, k2
    return (gm.group[0] + 2 * am.pbw[0] - fm.group[0] - 2 * fm.pbw[0]) % m == 0


def _r_check_dual_pairs(dbl, gens):
    """The dual-basis key pairs on the grading whose products the second
    legs of R Delta(x) and Delta^op(x) R stand for, x in E, F, K, K':
    (delta_v x 1, delta_w x b) and (delta_w x b, delta_v x 1) for each
    second leg delta_w x b of Delta(x) and each basis monomial v."""
    unit, basis = dbl.unit_mono, list(dbl.algebra.basis())
    left, right = set(), set()
    for name in ("E", "F", "K", "K_prime"):
        for _, k2 in to_delta(dbl, dbl.coproduct(gens[name]), leg=1):
            for v in basis:
                if _on_grading((v, unit), k2, dbl.m):
                    left.add(((v, unit), k2))
                if _on_grading(k2, (v, unit), dbl.m):
                    right.add((k2, (v, unit)))
    return sorted(left), sorted(right)


def test_dual_unit_times_matches_oracle_on_r_matrix_pairs(dbl, gens, oracle):
    # on the second leg the R check reads (delta_v x 1)(delta_w x b) off the
    # table in closed form (_dual_unit_times); it must give the generic
    # product of every such pair at the one group exponent it names
    import qborel.double as double_mod

    left, right = _r_check_dual_pairs(dbl, gens)
    assert (len(left), len(right)) == (405, 405)
    mono, m = dbl.algebra.monomial, dbl.m
    nonzero = 0
    for (v, _), (w, b) in left:
        (y,), (j,) = v
        shift, row = double_mod._dual_unit_times(dbl, j, w.pbw[0])
        want = oracle.multiply_keys((v, dbl.unit_mono), (w, b))
        got = {(mono((y,), (w1,)), b): c for w1, c in row}
        assert (got if (w.group[0] - y) % m == shift else {}) == want, (v, w, b)
        nonzero += bool(want)
    assert nonzero > 150


def _expand_character(dbl, key):
    """[(basis key, coefficient)] of a character key, by the definition
    psi_(alpha,k) x a = sum_x q^(alpha x) delta_(g^x e^k) x a."""
    (alpha, k), am = key
    mono = dbl.algebra.monomial
    return [((mono((x,), (k,)), am), dbl.field.zeta_pow(alpha * x)) for x in range(dbl.m)]


def _expand_element(dbl, terms):
    """The dual-basis terms of a dict over character keys, by the definition."""
    out = {}
    for key, c in terms.items():
        for k, v in _expand_character(dbl, key):
            out[k] = out.get(k, dbl.field.zero) + c * v
    return {k: v for k, v in out.items() if v}


def _expand_first_leg(dbl, T):
    out = {}
    for (key, k2), c in T.items():
        for k, v in _expand_character(dbl, key):
            out[(k, k2)] = out.get((k, k2), dbl.field.zero) + c * v
    return {k: v for k, v in out.items() if v}


def _assert_characters_match(dbl, multiply, pairs):
    """multiply_characters against a product in the basis of keys of the
    expanded factors; returns the number of nonzero products."""
    one = dbl.field.one
    nonzero = 0
    for k1, k2 in pairs:
        got = _expand_element(dbl, dbl.multiply_characters(k1, k2))
        want = multiply(_expand_element(dbl, {k1: one}), _expand_element(dbl, {k2: one}))
        assert got == want, (k1, k2)
        nonzero += bool(want)
    return nonzero


def _random_character_key(dbl, rng):
    m = dbl.m
    return ((rng.randrange(m), rng.randrange(m)),
            dbl.algebra.monomial((rng.randrange(m),), (rng.randrange(m),)))


def test_multiply_characters_matches_oracle_on_r_matrix_pairs():
    # the character-key products the R check reads: one per e-degree and
    # term of Delta(x) on each side
    dbl = _RecordingDouble(build_borel("A1", 3))
    gens = identify_generators(dbl)
    dbl.character_pairs = set()
    assert r_matrix_check(dbl, gens, r_matrix(dbl)) is None
    pairs = sorted(dbl.character_pairs)
    assert len(pairs) == 96
    assert _assert_characters_match(dbl, GenericProduct(dbl).multiply, pairs) == 94


def test_multiply_characters_matches_oracle_on_random_pairs(dbl, oracle):
    rng = random.Random(43)
    pairs = [(_random_character_key(dbl, rng), _random_character_key(dbl, rng))
             for _ in range(300)]
    assert _assert_characters_match(dbl, oracle.multiply, pairs) > 50


def test_multiply_characters_matches_multiply_at_a1n5():
    # at m = 25 too, the character products and multiply against the
    # generic oracle's multiply on the expanded factors
    dbl = build_double(build_borel("A1", 5))
    oracle = GenericProduct(dbl)
    rng = random.Random(47)
    pairs = [(_random_character_key(dbl, rng), _random_character_key(dbl, rng))
             for _ in range(30)]
    # and pairs of small e-degree, where most products are nonzero
    low = lambda: ((rng.randrange(25), rng.randrange(3)),
                   dbl.algebra.monomial((rng.randrange(25),), (rng.randrange(3),)))
    pairs += [(low(), low()) for _ in range(30)]
    assert _assert_characters_match(dbl, oracle.multiply, pairs) > 25
    gens = identify_generators(dbl)
    X = dbl.element({low(): dbl.field.zeta_pow(rng.randrange(25)) for _ in range(2)})
    for x, y in ((gens["E"], gens["F"]), (gens["F"], gens["E"]), (X, gens["K"])):
        want = oracle.multiply(to_delta(dbl, x.terms), to_delta(dbl, y.terms))
        assert to_delta(dbl, dbl.multiply(x, y).terms) == want and want


def test_leg1_transform_round_trips(dbl, gens):
    R = _canonical_element(dbl)
    R_psi = from_delta(dbl, R, leg=0)
    # eps = psi_(0,0), so R has one character term per basis monomial u,
    # the form r_matrix returns
    assert R_psi == r_matrix(dbl)
    DE = _delta_tensor(dbl, dbl.coproduct(gens["E"]))
    assert (len(DE), len(from_delta(dbl, DE, leg=0))) == (162, 18)
    rng = random.Random(53)
    cases = [R, DE, dtensor_swap(DE)]
    cases += [_random_sparse_tensor(dbl, rng, 60, 5) for _ in range(4)]
    for T in cases:
        psi = from_delta(dbl, T, leg=0)
        assert _expand_first_leg(dbl, psi) == T
        assert to_delta(dbl, psi, leg=0) == T
    assert from_delta(dbl, {}, leg=0) == {}
    # leg 1: the second leg alone moves
    for T in (DE, cases[-1]):
        psi = from_delta(dbl, T, leg=1)
        assert dtensor_swap(_expand_first_leg(dbl, dtensor_swap(psi))) == T
        assert to_delta(dbl, psi, leg=1) == T
    # leg None: elements of the double, the generators among them
    elements = [gens[name].terms for name in ("E", "F", "K", "K_inv", "K_prime")]
    elements.append(from_delta(dbl, {_random_key(dbl, rng): dbl.field.zeta_pow(rng.randrange(9))
                                     for _ in range(20)}))
    for X in elements:
        delta = to_delta(dbl, X)
        assert delta == _expand_element(dbl, X)
        assert from_delta(dbl, delta) == X
    assert to_delta(dbl, {}) == {}


def test_double_checks_never_form_products_off_the_grading():
    dbl = build_double(build_borel("A1", 3))
    reads = []
    real = dbl._delta_rule
    dbl._delta_rule = lambda *args: reads.append(args) or real(*args)
    factors = []
    real_multiply = dbl.multiply
    dbl.multiply = lambda X, Y: factors.extend((X, Y)) or real_multiply(X, Y)
    gens = identify_generators(dbl)
    assert gens["residual"] is None
    assert double_coproduct_formula_check(dbl, gens) is None
    tw = bicharacter_twist(dbl, gens, central_grouplikes(dbl, gens))
    for name in ("E", "F", "K"):
        tw.twisted_coproduct(gens[name])
    before = len(reads)
    assert r_matrix_check(dbl, gens, r_matrix(dbl)) is None
    # every product is formed in character keys, the R check's included,
    # and every read of the delta rule, (f1, am, g0, g1, bm, ...) at
    # f_0 = 0, is on the grading g_0 + 2 a_1 = 2 f_1 (mod m)
    assert before > 0 and len(reads) - before > 100
    off = [r for r in reads if (r[2] + 2 * r[1].pbw[0] - 2 * r[0]) % dbl.m]
    assert not off, off[:3]
    # multiply is the term-pair sum over multiply_characters: every factor
    # the double's checks multiply is one character key, so each product
    # reads the delta rule once
    assert len(factors) > 200
    dense = [X.terms for X in factors if len(X.terms) != 1]
    assert not dense, dense[:2]


def test_multiply_matches_all_pairs_reference(dbl, gens, oracle):
    rng = random.Random(41)
    named = [gens[name] for name in ("E", "F", "K", "K_inv", "K_prime")]
    cases = [(x, y) for x in named for y in named]
    # and sparse elements of up to four character keys each, so that the
    # term-pair sum of multiply meets several keys on either side
    for _ in range(6):
        X, Y = (
            dbl.element({_random_character_key(dbl, rng): dbl.field.zeta_pow(rng.randrange(9))
                         + dbl.field.from_rational(rng.randrange(-2, 3))
                         for _ in range(4)})
            for _ in range(2)
        )
        cases += [(X, Y), (Y, X), (X, gens["F"]), (gens["E"], Y)]
    for X, Y in cases:
        want = oracle.multiply(to_delta(dbl, X.terms), to_delta(dbl, Y.terms))
        assert want and to_delta(dbl, dbl.multiply(X, Y).terms) == want


def test_dual_mul_pairs_matches_all_pairs_table():
    dbl = build_double(build_borel("A1", 3))
    basis = list(dbl.algebra.basis())
    table = {}
    for u in basis:
        for v in basis:
            for w, c in dbl.algebra.multiply_monomials(u, v).terms.items():
                table.setdefault(w, []).append((u, v, c))
    assert sum(map(len, table.values())) > 1000
    oracle = DeltaCoproduct(dbl)
    for fm in basis:
        assert oracle.dual_mul_pairs(fm) == table.get(fm, [])
    # each list is formed once and then read from the cache
    assert all(oracle.dual_mul_pairs(fm) is oracle.dual_mul_pairs(fm) for fm in basis)


class _ShiftedCopDouble(DoubleAlgebra):
    """cop(e^3) of H with the group exponent of one leg of one term shifted
    by 1 before the double is built; fact 1 on the powers must reject it."""

    def __init__(self, hopf):
        A = hopf.algebra
        real = hopf.coproduct_monomial
        e3 = A.monomial((0,), (3,))

        def coproduct_monomial(mono):
            got = real(mono)
            if mono == e3:
                ((m1, m2), c), *rest = got.terms.items()
                m2 = A.monomial((m2.group[0] + 1,), m2.pbw)
                got = Element(got.ring, dict([((m1, m2), c)] + rest))
            return got

        hopf.coproduct_monomial = coproduct_monomial
        super().__init__(hopf)


def test_grading_certificate_rejects_shifted_coproduct():
    with pytest.raises(ArithmeticError, match=r"grading: cop\(e\^3\) has the term "):
        _ShiftedCopDouble(build_borel("A1", 3))


class _ScaledGrouplikeHopf(HopfData):
    """Hopf data whose grouplike image at a = 1 is scaled by q, so that
    cop(g) = q g x g and cop(g e^k) = q (g x g) cop(e^k) in H."""

    def grouplike_tensor(self, group):
        got = super().grouplike_tensor(group)
        return got.scale(self.algebra.field.zeta_pow(1)) if group == (1,) else got


class _ScaledCopDouble(DoubleAlgebra):
    """The double over _ScaledGrouplikeHopf.  cop(e^k) is unchanged and the
    double never reads cop(g e^k) of H, so only the grouplike premise of
    fact 3, cop(g^a) = g^a x g^a, can reject it."""

    def __init__(self, hopf):
        super().__init__(_ScaledGrouplikeHopf(hopf.algebra))


def test_grading_certificate_rejects_scaled_coproduct():
    with pytest.raises(ArithmeticError, match=r"grouplike: cop\(g\^1\) is "):
        _ScaledCopDouble(build_borel("A1", 3))


class _ScaledGroupProductDouble(DoubleAlgebra):
    """The product g . g of H scaled by q before the double is built; no
    table reads it, so only the group law premise of fact 3,
    g^a g^b = g^(a + b), can reject it."""

    def __init__(self, hopf):
        A = hopf.algebra
        real = A.multiply_monomials
        g = A.monomial((1,), (0,))

        def multiply_monomials(u, v):
            got = real(u, v)
            return got.scale(A.field.zeta_pow(1)) if (u, v) == (g, g) else got

        A.multiply_monomials = multiply_monomials
        super().__init__(hopf)


def test_grading_certificate_rejects_scaled_group_product():
    with pytest.raises(ArithmeticError, match=r"product rule: g\^1 g\^1 is "):
        _ScaledGroupProductDouble(build_borel("A1", 3))


class _ShiftedAntipodeDouble(DoubleAlgebra):
    """S^-1(g^2 e) of H with its group exponent shifted by 1 before the
    double is built.  Only the table of e^2 reads it, as S^-1(x3) for the
    terms of cop2(e^2) with x3 = g^2 e, and cop is untouched, so only fact 2
    can reject it."""

    def __init__(self, hopf):
        A = hopf.algebra
        real = hopf.antipode_inv
        x3 = A.monomial((2,), (1,))

        def antipode_inv(x):
            got = real(x)
            if set(x.terms) == {x3}:
                (s, c), = got.terms.items()
                got = A.element({A.monomial((s.group[0] + 1,), s.pbw): c})
            return got

        hopf.antipode_inv = antipode_inv
        super().__init__(hopf)


def test_grading_certificate_rejects_shifted_antipode():
    with pytest.raises(ArithmeticError, match=r"grading: the cross terms of e\^2 have "):
        _ShiftedAntipodeDouble(build_borel("A1", 3))


@pytest.mark.parametrize("n", [3, 5])
def test_structure_tables_are_per_e_power(n, monkeypatch):
    # one table of the powers e^k: k + 1 entries (c_kj, c_S) for cop(e^k),
    # one per term e^j x g^(2 j) e^(k - j), with c_S the scalar of
    # S^-1(g^(2 j) e^(k - j)); tables per basis monomial would hold m times
    # as many, and cross terms m times more again
    hopf = build_borel("A1", n)
    dbl = build_double(hopf)
    A, m = hopf.algebra, dbl.m
    assert [len(row) for row in dbl.table] == [k + 1 for k in range(m)]
    assert sum(map(len, dbl.table)) == {3: 45, 5: 325}[n]
    # c_kj is checked through cop (test_cop_matches_hopf_coproduct_on_every_monomial)
    for k, row in enumerate(dbl.table):
        for j, (_, cs) in enumerate(row):
            x3 = A.monomial_element((2 * j,), (k - j,))
            assert list(hopf.antipode_inv(x3).terms.values()) == [cs]
    # a second double on the same H, whose coproducts and inverse antipodes
    # are memoized: its own products are the 2 m + 1 of fact 4, not a sweep
    # over the m^2 pairs of powers
    calls = []
    real = A.multiply_monomials
    monkeypatch.setattr(A, "multiply_monomials", lambda u, v: calls.append((u, v)) or real(u, v))
    build_double(hopf)
    assert len(calls) == 2 * m + 1


@pytest.mark.parametrize("n", [3, 5])
def test_double_asks_hopf_data_for_two_m_coproducts(n):
    # fact 3 is proved, not checked: building the double asks H for the
    # coproducts of the m powers e^k and the m grouplikes g^a only (e^0 = g^0),
    # not for those of all m^2 basis monomials
    hopf = build_borel("A1", n)
    build_double(hopf)
    A, m = hopf.algebra, hopf.algebra.m
    asked = set(hopf.coproduct_map.monomials)
    assert asked == {A.monomial((0,), (k,)) for k in range(m)} | {A.monomial((a,), (0,)) for a in range(m)}
    assert len(asked) == 2 * m - 1


@pytest.mark.parametrize("n", [3, 5])
def test_cop_matches_hopf_coproduct_on_every_monomial(n):
    # the shifts that cop returns (fact 3) against the coproduct of H,
    # formed by its multiplicative extension on all m^2 basis monomials
    hopf = build_borel("A1", n)
    dbl = build_double(hopf)
    for w in dbl.algebra.basis():
        got = {(m1, m2): c for m1, m2, c in dbl.cop(w)}
        assert len(got) == len(dbl.cop(w))
        assert got == hopf.coproduct_monomial(w).terms, w


def _scale_cross_term(dbl, q):
    # the scalar of S^-1(g^2 e), which only the cross terms of e^2 at j = 1 read
    c, cs = dbl.table[2][1]
    dbl.table[2][1] = (c, cs * q)


def _scale_convolution_term(dbl, q):
    # c_33, the one term of delta_(e^3) . delta_(g^6) (and of e^3 x g^6 in cop(e^3))
    c, cs = dbl.table[3][3]
    dbl.table[3][3] = (c * q, cs)


@pytest.mark.parametrize("corrupt", [_scale_cross_term, _scale_convolution_term])
def test_delta_rule_reads_the_tables_it_was_built_from(monkeypatch, corrupt):
    # one scalar of the table scaled by q after the certificate has run:
    # the products read it, and the R-matrix check reports the first
    # differing key
    import qborel.report as report

    def build(hopf):
        dbl = build_double(hopf)
        corrupt(dbl, dbl.field.zeta_pow(1))
        return dbl

    monkeypatch.setattr(report, "build_double", build)
    (bad,) = report.run_checks("A1", 3, ["r-matrix"]).results
    assert bad.status == "fail"
    assert bad.counterexample["key"] and bad.counterexample["lhs"] != bad.counterexample["rhs"]


class _ScaledProductDouble(DoubleAlgebra):
    """The product e . g of H scaled by q before the double is built; the
    product rule (fact 4), which the closed-form coproduct rests on, must
    reject it."""

    def __init__(self, hopf):
        A = hopf.algebra
        real = A.multiply_monomials
        e, g = A.monomial((0,), (1,)), A.monomial((1,), (0,))

        def multiply_monomials(u, v):
            got = real(u, v)
            return got.scale(A.field.zeta_pow(1)) if (u, v) == (e, g) else got

        A.multiply_monomials = multiply_monomials
        super().__init__(hopf)


def test_product_rule_certificate_rejects_scaled_product():
    with pytest.raises(ArithmeticError, match=r"product rule: e\^1 g\^1 is "):
        _ScaledProductDouble(build_borel("A1", 3))


def test_double_rejects_rank_two():
    with pytest.raises(ValueError, match="rank 1"):
        DoubleAlgebra(build_borel("A2", 5))


def test_double_refused_outside_its_scales():
    import qborel.report as report

    t0 = time.monotonic()
    with pytest.raises(ValueError) as err:
        build_double(build_borel("A1", 7))
    assert time.monotonic() - t0 < 1.0
    assert str(err.value) == DOUBLE_SCOPE
    # the report skips and refuses exports with the same text
    assert report.DOUBLE_SCOPE is DOUBLE_SCOPE


def test_double_checks_pass_past_the_shipped_scales(monkeypatch):
    # DOUBLE_SCALES widened to (A1, 7) in memory only: the double's two checks
    # pass there within 2 s (0.7-0.9 s on a 2-CPU host), a budget that a build
    # forming every cross term's coefficient (2.7 s) misses.  (A1, 7) is not
    # shipped, since perfbench's verify-a1n7 workload pins both checks as skipped.
    import qborel.double as double_mod
    import qborel.report as report

    scales = DOUBLE_SCALES + (("A1", 7),)
    monkeypatch.setattr(double_mod, "DOUBLE_SCALES", scales)
    monkeypatch.setattr(report, "DOUBLE_SCALES", scales)
    t0 = time.monotonic()
    results = report.run_checks("A1", 7, ["double-twist", "r-matrix"]).results
    elapsed = time.monotonic() - t0
    assert [(r.name, r.status) for r in results] == [("double-twist", "pass"), ("r-matrix", "pass")]
    assert results[0].details == {"dimension": 7**8, "t": 25, "central_grouplikes": 49}
    assert elapsed < 2.0


def test_elements_of_different_rings_never_mix(gens):
    # one element type over every ring: equal term dicts in two rings are unequal
    A, B, C = BorelAlgebra("A1", 3), BorelAlgebra("A1", 3), BorelAlgebra("A1", 5)
    assert A.generator_e(0).terms == B.generator_e(0).terms
    assert A.generator_e(0) != B.generator_e(0)
    assert A.tensor_power(2).one.terms == B.tensor_power(2).one.terms
    assert A.tensor_power(2).one != B.tensor_power(2).one
    E = gens["E"]
    other = build_double(build_borel("A1", 3))
    E_other = other.element(E.terms)
    assert E_other.terms == E.terms and E_other != E
    # adding or multiplying across rings raises: n = 3 against n = 5, a
    # 2-tensor against a 3-tensor, and two doubles
    for x, y in ((A.generator_e(0), C.generator_e(0)), (A.tensor_power(2).one, A.tensor_power(3).one),
                 (E, E_other)):
        with pytest.raises(ValueError):
            x + y
        with pytest.raises(ValueError):
            x * y
    # a double element scales by a plain int
    assert E.scale(3) == E + E + E
    assert E.scale(-1) == -E and not E.scale(0)


def test_power_by_squaring_matches_sequential_products(dbl, gens):
    rng = random.Random(61)
    X = _delta_element(dbl, {_random_key(dbl, rng): dbl.field.zeta_pow(rng.randrange(9))
                             for _ in range(3)})
    assert X.power(0) == dbl.unit()
    for x in (gens["E"], gens["F"], gens["K"], X):
        seq = dbl.unit()
        for k in range(2 * dbl.m + 1):
            assert x.power(k) == seq, k
            seq = seq * x


def test_cop2_is_coassociative(dbl):
    rng = random.Random(17)
    for _ in range(6):
        mono = dbl.algebra.monomial((rng.randrange(9),), (rng.randrange(9),))
        via_left = {}
        for m1, m2, c in dbl.cop(mono):
            for m11, m12, c1 in dbl.cop(m1):
                k = (m11, m12, m2)
                via_left[k] = via_left.get(k, dbl.field.zero) + c * c1
        via_right = {}
        for m1, m2, c in dbl.cop(mono):
            for m21, m22, c2 in dbl.cop(m2):
                k = (m1, m21, m22)
                via_right[k] = via_right.get(k, dbl.field.zero) + c * c2
        strip = lambda d: {k: v for k, v in d.items() if v}
        assert strip(via_left) == strip(via_right)


def test_generator_identification(dbl, gens):
    assert gens["t"] == 5
    E = to_delta(dbl, gens["E"].terms)
    assert set(E) == {
        (dbl.algebra.monomial((a,), (0,)), dbl.algebra.monomial((0,), (1,)))
        for a in range(9)
    }
    assert all(c == dbl.field.one for c in E.values())
    K = to_delta(dbl, gens["K"].terms)
    for (fm, am), c in K.items():
        assert am == dbl.algebra.monomial((1,), (0,))
        assert c == dbl.field.zeta_pow(5 * fm.group[0])
    assert gens["K_prime"] == grouplike(dbl, 4, 1)
    assert set(to_delta(dbl, gens["F"].terms)) == {
        (dbl.algebra.monomial((a,), (1,)), dbl.algebra.monomial((-1,), (0,)))
        for a in range(9)
    }


def test_quantum_group_relations(dbl, gens):
    E, F, K, K_inv = gens["E"], gens["F"], gens["K"], gens["K_inv"]
    q = gens["q"]
    qi = dbl.field.zeta_pow(-1)
    one = dbl.unit()
    assert K * K_inv == one and K_inv * K == one
    assert K * E == (E * K).scale(q * q)
    assert K * F == (F * K).scale(qi * qi)
    assert E * F - F * E == (K - K_inv).scale((q - qi).inv())
    assert E.power(9) == dbl.element({})
    assert F.power(9) == dbl.element({})
    assert K.power(9) == one


def test_grouplike_conjugation_weights(dbl, gens):
    # (chi_c x g^s) E (chi_c x g^s)^{-1} = q^(2c+s) E, mirrored on F
    E, F = gens["E"], gens["F"]
    for c, s in [(1, 0), (0, 1), (2, 3), (4, 7)]:
        Z = grouplike(dbl, c, s)
        w = dbl.field.zeta_pow(2 * c + s)
        assert Z * E == (E * Z).scale(w)
        assert Z * F == (F * Z).scale(w.inv())


def test_character_group_is_abelian(dbl):
    a = grouplike(dbl, 1, 0)
    b = grouplike(dbl, 0, 1)
    assert a * b == b * a == grouplike(dbl, 1, 1)
    assert grouplike(dbl, 4, 2) * grouplike(dbl, 7, 6) == grouplike(dbl, 2, 8)


@pytest.mark.parametrize("n", [3, 5])
def test_coproduct_matches_delta_oracle(n):
    dbl = build_double(build_borel("A1", n))
    m = dbl.m
    rng = random.Random(67 + n)
    if n == 3:
        # every e-degree k of psi, each with a_1 at both ends
        degrees = [(k, a1) for k in range(m) for a1 in (0, m - 1)]
    else:
        # the oracle forms m^2 (k + 1) products of H for each k, so every k
        # would take about 11 s at m = 25: both ends of k, a seeded middle k,
        # and a_1 at both ends where k is small
        degrees = [(0, 0), (0, m - 1), (1, 0), (1, m - 1), (rng.randrange(2, m - 1), 0),
                   (m - 1, 0)]
    mono = dbl.algebra.monomial
    keys = [((rng.randrange(m), k), mono((rng.randrange(m),), (a1,))) for k, a1 in degrees]
    assert {a.pbw[0] for _, a in keys} == {0, m - 1}
    assert {k for (_, k), _ in keys} >= {0, m - 1}
    oracle = DeltaCoproduct(dbl)
    one = dbl.field.one
    for key in keys:
        got = dbl.coproduct(dbl.element({key: one}))
        # one term per split of k and per term of cop(a)
        (_, k), a = key
        assert len(got) == (k + 1) * len(dbl.cop(a))
        assert _delta_tensor(dbl, got) == oracle.coproduct(to_delta(dbl, {key: one})), key


def test_generators_and_their_coproducts_are_single_terms(dbl, gens):
    mono = dbl.algebra.monomial
    t, one = gens["t"], dbl.field.one
    assert gens["E"].terms == {((0, 0), mono((0,), (1,))): one}
    assert gens["K"].terms == {((t, 0), mono((1,), (0,))): one}
    assert set(gens["F"].terms) == {((t, 1), mono((-1,), (0,)))}
    for name in ("K_inv", "K_prime"):
        assert len(gens[name].terms) == 1
    # Delta(E) = E x K K' + 1 x E and Delta(K) = K x K, term by term
    assert len(dbl.coproduct(gens["E"])) == 2
    assert len(dbl.coproduct(gens["F"])) == 2
    assert len(dbl.coproduct(gens["K"])) == 1


def test_coproduct_of_generators(dbl, gens):
    E, K = gens["E"], gens["K"]
    one = dbl.unit()
    emb_gg = grouplike(dbl, 0, 2)
    want = dtensor_add(dtensor_of(E, emb_gg), dtensor_of(one, E))
    assert dbl.coproduct(E) == want
    assert dbl.coproduct(K) == dtensor_of(K, K)
    # K K' is exactly the embedded group element in the E coproduct leg
    assert gens["K"] * gens["K_prime"] == emb_gg


def test_printed_coproduct_formulas(dbl, gens):
    assert double_coproduct_formula_check(dbl, gens) is None


def test_printed_formula_check_catches_wrong_K_prime(dbl, gens):
    broken = dict(gens)
    broken["K_prime"] = grouplike(dbl, 3, 1)
    assert double_coproduct_formula_check(dbl, broken) is not None


def test_coproduct_is_algebra_map(dbl, oracle):
    # keys with small e-degrees: the coproducts stay a few dozen terms
    # while every multiplication path (arrows, convolution) is exercised
    rng = random.Random(23)
    for _ in range(4):
        def key():
            return (
                dbl.algebra.monomial((rng.randrange(9),), (rng.randrange(3),)),
                dbl.algebra.monomial((rng.randrange(9),), (rng.randrange(3),)),
            )
        x = _delta_element(dbl, {key(): dbl.field.one})
        y = _delta_element(dbl, {key(): dbl.field.zeta_pow(1)})
        lhs = to_delta(dbl, dbl.coproduct(x * y), leg=1)
        rhs = mixed_tensor_multiply(oracle, to_delta(dbl, dbl.coproduct(x), leg=1),
                                    to_delta(dbl, dbl.coproduct(y), leg=1))
        assert lhs == rhs


def test_central_grouplikes(dbl, gens, zpow):
    # the powers z^k of z = chi_5 x g^-1, indexed by k: the grouplikes
    # chi_(5k) x g^-k, which run over the family chi_c x g^(-2c)
    assert len(zpow) == 9
    assert zpow[0] == dbl.unit()
    assert zpow == [grouplike(dbl, 5 * k, -k) for k in range(9)]
    assert ({frozenset(z.terms.items()) for z in zpow}
            == {frozenset(grouplike(dbl, c, -2 * c).terms.items()) for c in range(9)})
    # the embedded group generator is not central
    emb_g = grouplike(dbl, 0, 1)
    E = gens["E"]
    assert emb_g * E != E * emb_g


def test_central_grouplikes_reject_noncentral_claim(dbl, gens):
    # the leg chi_1 x g^-1 in place of chi_5 x g^-1: its first power fails
    with pytest.raises(ArithmeticError, match=r"z\^1 fails to commute"):
        central_grouplikes(dbl, {**gens, "t": 1})


def test_bicharacter_twist_recovers_standard_coproduct(dbl, gens, zpow):
    tw = bicharacter_twist(dbl, gens, zpow)
    E, F, K, K_inv = gens["E"], gens["F"], gens["K"], gens["K_inv"]
    one = dbl.unit()
    assert tw.twisted_coproduct(E) == dtensor_add(
        dtensor_of(E, K), dtensor_of(one, E)
    )
    assert tw.twisted_coproduct(F) == dtensor_add(
        dtensor_of(F, one), dtensor_of(K_inv, F)
    )
    assert tw.twisted_coproduct(K) == dtensor_of(K, K)
    assert tw.twisted_coproduct(K_inv) == dtensor_of(K_inv, K_inv)


def test_twist_rejects_noncentral_leg(monkeypatch):
    # the twist reads its legs from central_grouplikes, whose centrality
    # certificate fails the double-twist check on the non-central
    # z = chi_1 x g^-1 (t = 1)
    import qborel.report as report

    real = report.identify_generators
    monkeypatch.setattr(report, "identify_generators", lambda dbl: {**real(dbl), "t": 1})
    (result,) = report.run_checks("A1", 3, ["double-twist"]).results
    assert result.status == "fail"
    assert result.counterexample == {
        "assertion": "claimed central grouplike z^1 fails to commute"}


def test_twist_weight_probes_read_the_degree_of_character_keys(dbl, gens, zpow):
    # verify() certifies the weights on the generating keys psi_(alpha,k) x 1,
    # eps x g and eps x e; a degree that ignores k must be caught
    class _DegreeOfA(DoubleTwist):
        @staticmethod
        def degree(key):
            return key[1].pbw[0]

    bicharacter_twist(dbl, gens, zpow)
    with pytest.raises(ArithmeticError, match="weight vector"):
        _DegreeOfA(dbl, gens, zpow).verify()


def _corrupt_cross_term_of_one(dbl):
    # the scalar of S^-1(1), which the one cross term of 1 reads
    c, cs = dbl.table[0][0]
    dbl.table[0][0] = (c, cs * dbl.field.zeta_pow(1))


def _corrupt_cross_term_of_e(dbl):
    # c_10, the coefficient of 1 x e in cop(e), which the cross term (0, 1, 0) of e reads
    c, cs = dbl.table[1][0]
    dbl.table[1][0] = (c * dbl.field.zeta_pow(1), cs)


def _corrupt_convolution(dbl):
    # c_22 = q: delta_(e^2) . delta_(g^4) = q delta_(e^2)
    _, cs = dbl.table[2][2]
    dbl.table[2][2] = (dbl.field.zeta_pow(1), cs)


@pytest.mark.parametrize("corrupt", [
    _corrupt_cross_term_of_one, _corrupt_cross_term_of_e, _corrupt_convolution])
def test_twist_weight_certificate_reads_the_factorization(corrupt):
    # every key's factorization into generating keys is read off three
    # scalars of the table per power e^k; a corrupted one must be named
    dbl = build_double(build_borel("A1", 3))
    gens = identify_generators(dbl)
    zpow = central_grouplikes(dbl, gens)
    corrupt(dbl)
    with pytest.raises(ArithmeticError, match="factorization"):
        DoubleTwist(dbl, gens, zpow).verify()


def _single_key_exponents(X):
    """(c, s) of the one key chi_c x g^s of a grouplike X."""
    ((c, k), am), = X.terms
    assert k == 0 and not am.pbw[0]
    return c, am.group[0]


def test_twist_two_cocycle_law(dbl, gens, zpow):
    # an oracle independent of the proof in DoubleTwist: a character of the
    # group {chi_c x g^s} is a pair (alpha, beta) with value q^(c alpha + s beta),
    # and J = sum_a P_a x z^a takes the value q^(w(lam) z(mu)) at (lam, mu),
    # with q^(w(lam)) the value of W at lam and q^(z(mu)) that of z at mu
    tw = bicharacter_twist(dbl, gens, zpow)
    assert tw.W == grouplike(dbl, 7, 5)
    (cw, sw), (cz, sz) = _single_key_exponents(tw.W), _single_key_exponents(tw.z)
    chars = [(alpha, beta) for alpha in range(9) for beta in range(9)]
    table = [[(cw * a + sw * b) * (cz * c + sz * d) % 9 for c, d in chars] for a, b in chars]
    # lam = mu = the character (alpha, beta) = (1, 0): w = 7, z = 5, 35 = 8 mod 9
    assert table[9][9] == 8
    assert _two_cocycle_law_holds(table)
    bad = [row[:] for row in table]
    bad[3][4] = (bad[3][4] + 1) % 9
    assert not _two_cocycle_law_holds(bad)


def _leg_w_is_e(tw):
    tw.W = tw.gens["E"]


def _leg_z_is_f(tw):
    tw.zpow = [tw.gens["F"].power(k) for k in range(tw.dbl.m)]


def _leg_w_scaled_by_q(tw):
    # q K^5 has order 9 and the weights of K^5, but Delta(q K^5) = q K^5 x K^5
    tw.W = tw.gens["K"].power(5).scale(tw.dbl.field.zeta_pow(1))


@pytest.mark.parametrize("corrupt, obligation", [
    (_leg_w_is_e, "W must have order dividing 9"),
    (_leg_z_is_f, "z must have order dividing 9"),
    (_leg_w_scaled_by_q, r"W must be grouplike: Delta\(W\) = W x W"),
], ids=["W-is-E", "z-is-F", "W-not-grouplike"])
def test_twist_verify_names_the_failed_leg(dbl, gens, zpow, corrupt, obligation):
    tw = DoubleTwist(dbl, gens, zpow)
    corrupt(tw)
    with pytest.raises(ArithmeticError, match=obligation):
        tw.verify()


def _two_cocycle_law_holds(E, m=9):
    """EXP[l, u] + EXP[l u, v] = EXP[u, v] + EXP[l, u v] mod m on all L^3 triples."""
    L = m * m
    E = np.array(E)
    grid = np.indices((m, m)).reshape(2, -1)
    mul = ((grid[0][:, None] + grid[0][None, :]) % m) * m + (
        (grid[1][:, None] + grid[1][None, :]) % m
    )
    lhs = (E[:, :, None] + E[mul, :]) % m
    rhs = (E[None, :, :] + E[:, mul.reshape(-1)].reshape(L, L, L)) % m
    return bool((lhs == rhs).all())


def _canonical_element(dbl):
    """sum_i (eps x a_i) x (a^i x 1) in the dual basis on both legs: the
    pairs of a basis monomial u and a group exponent c, keyed
    (delta_(g^c) x u, delta_u x 1)."""
    A, one = dbl.algebra, dbl.field.one
    return {((A.monomial((c,), (0,)), u), (u, dbl.unit_mono)): one
            for u in A.basis() for c in range(dbl.m)}


def test_r_matrix_intertwines(dbl, gens):
    R = r_matrix(dbl)
    assert len(R) == 81 and len(_canonical_element(dbl)) == 729
    assert to_delta(dbl, R, leg=0) == _canonical_element(dbl)
    assert r_matrix_check(dbl, gens, R) is None


def test_r_matrix_check_catches_corruption(dbl, gens, oracle):
    R = r_matrix(dbl)
    key = next(iter(R))
    del R[key]
    bad = r_matrix_check(dbl, gens, R=R)
    assert bad is not None and bad["residual_terms"] > 0
    # the counterexample is reproducible: the first differing tensor key in
    # sorted order, with each side's coefficient there
    assert isinstance(bad["lhs"], CycScalar) and isinstance(bad["rhs"], CycScalar)
    assert bad["lhs"] != bad["rhs"]
    # the failure is reported in the dual basis on both legs: the sides of
    # the mixed reference with their first leg moved there
    assert len(to_delta(dbl, R, leg=0)) == 729 - 9
    DX = dbl.coproduct(gens[bad["generator"]])
    lhs = mixed_tensor_multiply(oracle, R, to_delta(dbl, DX, leg=1))
    rhs = mixed_tensor_multiply(oracle, to_delta(dbl, dtensor_swap(DX), leg=1), R)
    lhs, rhs = to_delta(dbl, lhs, leg=0), to_delta(dbl, rhs, leg=0)
    zero = dbl.field.zero
    assert bad["key"] == min(k for k in set(lhs) | set(rhs)
                             if lhs.get(k, zero) != rhs.get(k, zero))
    assert bad["lhs"] == lhs.get(bad["key"], zero)
    assert bad["rhs"] == rhs.get(bad["key"], zero)
    json.dumps(to_jsonable(bad))


def _random_h_tensor_dual(dbl, rng, terms):
    """A seeded R in H x H*: terms c (eps x u) x (delta_v x 1) with u and v
    drawn independently and random non-zero coefficients."""
    field, basis = dbl.field, list(dbl.algebra.basis())
    out = {}
    while len(out) < terms:
        c = field.zeta_pow(rng.randrange(dbl.m)) + field.from_rational(rng.randrange(-2, 3))
        if c:
            out[(((0, 0), rng.choice(basis)), (rng.choice(basis), dbl.unit_mono))] = c
    return out


@pytest.mark.parametrize("n", [3, 5])
def test_r_check_sides_match_mixed_reference(n):
    # R Delta(x) and Delta^op(x) R by e-degree against the term-pair
    # product of tests/oracles.py, on the canonical R, on R with one key
    # deleted and on a seeded R in H x H* with u != v and random
    # coefficients, for every generator
    import qborel.double as double_mod

    dbl = build_double(build_borel("A1", n))
    gens = identify_generators(dbl)
    oracle = GenericProduct(dbl)
    R = r_matrix(dbl)
    cut = dict(R)
    del cut[min(cut)]
    rng = random.Random(71 + n)
    cases = [R, cut, _random_h_tensor_dual(dbl, rng, {3: 60, 5: 120}[n])]
    assert any(u != v for (_, u), (v, _) in cases[2])
    nonzero = 0
    for case in cases:
        by_dual, outside = double_mod._r_by_dual(dbl, case)
        assert not outside
        for name in ("E", "F", "K", "K_prime"):
            DX = dbl.coproduct(gens[name])
            swapped = dtensor_swap(DX)
            lhs = double_mod._r_times(dbl, by_dual, DX)
            rhs = double_mod._times_r(dbl, swapped, by_dual)
            assert lhs == mixed_tensor_multiply(oracle, case, to_delta(dbl, DX, leg=1)), name
            assert rhs == mixed_tensor_multiply(oracle, to_delta(dbl, swapped, leg=1), case), name
            nonzero += bool(lhs) + bool(rhs)
    assert nonzero == 24


def _flipped_grouplike_move(real):
    """_grouplike_move with the factor q^(+l x) in place of q^(-l x)."""
    def flipped(dbl, x, key):
        moved, e = real(dbl, x, key)
        return moved, e + 2 * key[0][1] * x
    return flipped


def _misread_dual_unit_times(real):
    """_dual_unit_times with its row read at the group exponent y + 1."""
    def misread(dbl, j, w1):
        shift, row = real(dbl, j, w1)
        return shift - 1, row
    return misread


@pytest.mark.parametrize("name, wrong", [
    ("_grouplike_move", _flipped_grouplike_move),
    ("_dual_unit_times", _misread_dual_unit_times),
])
def test_r_matrix_check_rejects_a_wrong_shift(dbl, gens, monkeypatch, name, wrong):
    import qborel.double as double_mod

    monkeypatch.setattr(double_mod, name, wrong(getattr(double_mod, name)))
    bad = r_matrix_check(dbl, gens, r_matrix(dbl))
    assert bad is not None and bad["residual_terms"] > 0
    assert bad["lhs"] != bad["rhs"]


def test_r_matrix_check_refuses_keys_outside_h_tensor_dual(dbl, gens):
    # R must lie in H x H*: a key whose first leg is not eps x u, or whose
    # second leg is not delta_v x 1, is named, and nothing is multiplied
    mono, one = dbl.algebra.monomial, dbl.field.one
    u = mono((2,), (1,))
    for key in [(((1, 0), u), (u, dbl.unit_mono)), (((0, 1), u), (u, dbl.unit_mono)),
                (((0, 0), u), (u, mono((1,), (0,))))]:
        R = dict(r_matrix(dbl))
        R[key] = one
        bad = r_matrix_check(dbl, gens, R)
        assert bad == {"premise": "every key of R is (eps x u) x (delta_v x 1)", "key": key}
        json.dumps(to_jsonable(bad))


def test_r_matrix_check_reads_the_rule_once_per_degree():
    # the delta rule is read once per e-degree and term of Delta(x) on each
    # side, not once per pair of a term of R and a term of Delta(x), which
    # is 1,764 reads at (A1, 3)
    dbl = build_double(build_borel("A1", 3))
    gens = identify_generators(dbl)
    reads = []
    real = dbl._delta_rule
    dbl._delta_rule = lambda *args: reads.append(args) or real(*args)
    assert r_matrix_check(dbl, gens, r_matrix(dbl)) is None
    assert len(reads) <= 200


def _random_sparse_tensor(dbl, rng, terms, second_legs):
    # few distinct second legs, so the grouped product sees blocks of many pairs
    seconds = [_random_key(dbl, rng) for _ in range(second_legs)]
    out = {}
    for _ in range(terms):
        c = dbl.field.zeta_pow(rng.randrange(9)) + dbl.field.from_rational(rng.randrange(-2, 3))
        if c:
            out[(_random_key(dbl, rng), rng.choice(seconds))] = c
    return out


def test_twisted_coproduct_is_algebra_map_on_generators(dbl, gens, zpow, oracle):
    tw = bicharacter_twist(dbl, gens, zpow)
    E, F, K = gens["E"], gens["F"], gens["K"]
    delta = lambda x: to_delta(dbl, tw.twisted_coproduct(x), leg=1)
    for x, y in ((K, E), (E, F)):
        assert delta(x * y) == mixed_tensor_multiply(oracle, delta(x), delta(y))


def test_opposite_coproduct_differs_without_r_matrix(dbl, gens):
    E = gens["E"]
    DX = dbl.coproduct(E)
    assert dtensor_swap(DX) != DX
