"""Drinfeld double of the rank-1 Borel: relations, twist, R-matrix."""

import itertools
import json
import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from qborel.algebra import BorelAlgebra
from qborel.borel import build_borel
from qborel.cyclotomic import CycScalar
from qborel.double import (
    DOUBLE_SCOPE,
    DoubleAlgebra,
    DoubleTwist,
    bicharacter_twist,
    build_double,
    central_grouplikes,
    double_coproduct_formula_check,
    _by_functional_exponent,
    _by_second_leg,
    dtensor_add,
    dtensor_of,
    dtensor_swap,
    from_delta,
    grouplike,
    identify_generators,
    mixed_tensor_multiply,
    r_matrix,
    r_matrix_check,
    to_delta,
    twist_two_cocycle_check,
)
from qborel.report import to_jsonable


@pytest.fixture(scope="module")
def dbl():
    return build_double(build_borel("A1", 3))


@pytest.fixture(scope="module")
def gens(dbl):
    out = identify_generators(dbl)
    assert out["residual"] is None
    return out


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


def leg1_transform(dbl, T, sign):
    """T with its first leg moved to character keys (sign -1) or back (sign +1)."""
    return (from_delta if sign < 0 else to_delta)(dbl, T, leg=0)


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
    rng = random.Random(7)
    for _ in range(8):
        x = _delta_element(dbl, {_random_key(dbl, rng): dbl.field.zeta_pow(rng.randrange(9))})
        y = _delta_element(dbl, {_random_key(dbl, rng): dbl.field.one})
        assert dbl.counit(x * y) == dbl.counit(x) * dbl.counit(y)
    assert dbl.counit(dbl.unit()) == dbl.field.one
    # eps(delta_f x a) = delta_f(1) eps(a) on dual-basis keys, read through
    # the change of basis
    one, zero = dbl.field.one, dbl.field.zero
    for fm in dbl.algebra.basis():
        for am in (dbl.unit_mono, dbl.algebra.monomial((1,), (0,)), dbl.algebra.monomial((0,), (1,))):
            want = one if fm == dbl.unit_mono and not am.pbw[0] else zero
            assert dbl.counit(_delta_element(dbl, {(fm, am): one})) == want


def _left_div(dbl):
    """(fm, v) -> [(u, c)]: Delta(u) contains c * (fm x v), read off cop."""
    table = {}
    for u in dbl.algebra.basis():
        for m1, m2, c in dbl.cop(u):
            table.setdefault((m1, m2), []).append((u, c))
    return table


class GenericProduct:
    """The cross product walked term by term, as the oracle for multiply_keys.

    (f x a)(g x b) = sum f.(a1 -> g <- S^-1(a3)) x a2 b over cop2(a), with
    the arrow's coefficient and a2 b from straightened monomial products and
    the convolution by left division through cop.  No grading is assumed,
    and cop2 and S^-1 are formed from the Hopf data of H, not read off the
    double's tables.
    """

    def __init__(self, dbl):
        self.dbl = dbl
        self.left_div = _left_div(dbl)
        self._arrows = {}
        self._cop2 = {}
        self._sinv = {}
        self._terms = {}

    def cop2(self, am):
        """[(a1, a2, a3, c)] over the terms of (Delta x id) Delta(am) in H."""
        got = self._cop2.get(am)
        if got is None:
            cop = self.dbl.hopf.coproduct_monomial
            got = [(a1, a2, a3, c * c1) for (m1, a3), c in cop(am).terms.items()
                   for (a1, a2), c1 in cop(m1).terms.items()]
            self._cop2[am] = got
        return got

    def sinv(self, mono):
        """(s, c) with S^-1(mono) = c s in H."""
        got = self._sinv.get(mono)
        if got is None:
            dbl = self.dbl
            (got,) = dbl.hopf.antipode_inv(dbl.algebra.element({mono: dbl.field.one})).terms.items()
            self._sinv[mono] = got
        return got

    def arrow(self, a1, gm, s3):
        """(a1 -> delta_gm <- s3) as a dual-basis dict: u -> coeff of gm in s3 u a1.

        Only the u whose exponents add up to those of gm can contribute; its
        coefficient is read off the straightened product s3 u a1.
        """
        key = (a1, gm, s3)
        got = self._arrows.get(key)
        if got is None:
            dbl = self.dbl
            A = dbl.algebra
            b = gm.pbw[0] - s3.pbw[0] - a1.pbw[0]
            got = {}
            if 0 <= b < dbl.m:
                u = A.monomial((gm.group[0] - s3.group[0] - a1.group[0],), (b,))
                prod = A.multiply_monomials(s3, u) * A.element({a1: dbl.field.one})
                c = prod.coefficient(gm)
                if c:
                    got[u] = c
            self._arrows[key] = got
        return got

    def arrow_terms(self, am, gm):
        """[(a2, v, c)]: the nonzero terms c (a1 -> delta_gm <- S^-1(a3))(v)
        over cop2(am) = sum a1 x a2 x a3, for every fm and bm at once."""
        key = (am, gm)
        got = self._terms.get(key)
        if got is None:
            got = []
            for a1, a2, a3, c in self.cop2(am):
                s3, s3c = self.sinv(a3)
                for v, hv in self.arrow(a1, gm, s3).items():
                    got.append((a2, v, c * s3c * hv))
            self._terms[key] = got
        return got

    def multiply_keys(self, k1, k2):
        dbl = self.dbl
        fm, am = k1
        gm, bm = k2
        out = {}
        for a2, v, coeff in self.arrow_terms(am, gm):
            us = self.left_div.get((fm, v))
            if us:
                ab = dbl.algebra.multiply_monomials(a2, bm)
                for u, cc in us:
                    for wm, wc in ab.terms.items():
                        key = (u, wm)
                        out[key] = out.get(key, dbl.field.zero) + coeff * cc * wc
        return {k: v for k, v in out.items() if v}


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
                for a1, a2, ca in dbl.cop(am):
                    key = ((v, a1), (u, a2))
                    out[key] = out.get(key, dbl.field.zero) + c * cu * ca
        return {k: v for k, v in out.items() if v}


def _assert_products_match(dbl, oracle, pairs):
    nonzero = 0
    for k1, k2 in pairs:
        got = dbl.multiply_keys(k1, k2)
        want = oracle.multiply_keys(k1, k2)
        assert got == want, (k1, k2)
        nonzero += bool(want)
    return nonzero


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


def test_dual_product_and_coproduct_consistency(dbl):
    # (f x 1)(g x 1) = fg x 1 must agree with left division through cop
    rng = random.Random(13)
    one = dbl.unit_mono
    ldiv = _left_div(dbl)
    nonzero = 0
    for _ in range(40):
        fm = dbl.algebra.monomial((rng.randrange(9),), (rng.randrange(9),))
        gm = dbl.algebra.monomial((rng.randrange(9),), (rng.randrange(9),))
        fast = dbl.multiply_keys((fm, one), (gm, one))
        slow = {}
        for u, c in ldiv.get((fm, gm), ()):
            key = (u, one)
            slow[key] = slow.get(key, dbl.field.zero) + c
        slow = {k: v for k, v in slow.items() if v}
        assert fast == slow
        nonzero += bool(slow)
    assert nonzero > 0


def test_multiply_keys_matches_oracle_on_generator_pairs():
    # every key in the support of E = eps x e, F ~ phi_t x g^-1 or
    # K = chi_t x g against every basis key, both orders, on a fresh double
    # so no earlier product sits in its cache
    dbl = build_double(build_borel("A1", 3))
    oracle = GenericProduct(dbl)
    mono = dbl.algebra.monomial
    support = [(mono((c,), (d,)), a) for c in range(9)
               for d, a in ((0, mono((0,), (1,))), (1, mono((-1,), (0,))), (0, mono((1,), (0,))))]
    assert len(set(support)) == 27
    basis = list(dbl.algebra.basis())
    keys = [(f, a) for f in basis for a in basis]
    pairs = [p for k in support for x in keys for p in ((k, x), (x, k))]
    assert len(pairs) == 354_294
    assert _assert_products_match(dbl, oracle, pairs) > 0


class _RecordingDouble(DoubleAlgebra):
    """Records the key pairs and the character-key pairs it multiplies."""

    def __init__(self, hopf):
        super().__init__(hopf)
        self.pairs = None
        self.character_pairs = set()

    def multiply_keys(self, k1, k2):
        if self.pairs is not None:
            self.pairs.add((k1, k2))
        return super().multiply_keys(k1, k2)

    def multiply_characters(self, k1, k2):
        self.character_pairs.add((k1, k2))
        return super().multiply_characters(k1, k2)


def _on_grading(k1, k2, m):
    (fm, am), (gm, _) = k1, k2
    return (gm.group[0] + 2 * am.pbw[0] - fm.group[0] - 2 * fm.pbw[0]) % m == 0


def test_multiply_keys_matches_oracle_on_r_matrix_pairs():
    dbl = _RecordingDouble(build_borel("A1", 3))
    gens = identify_generators(dbl)
    dbl.pairs = set()
    assert r_matrix_check(dbl, gens, r_matrix(dbl)) is None
    pairs = sorted(dbl.pairs)
    dbl.pairs = None
    # every pair formed is on the grading; some of them are still zero
    assert len(pairs) > 800
    assert all(_on_grading(k1, k2, dbl.m) for k1, k2 in pairs)
    assert _assert_products_match(dbl, GenericProduct(dbl), pairs) > 750


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
    dbl = _RecordingDouble(build_borel("A1", 3))
    gens = identify_generators(dbl)
    assert r_matrix_check(dbl, gens, r_matrix(dbl)) is None
    pairs = sorted(dbl.character_pairs)
    assert len(pairs) > 900
    oracle = GenericProduct(dbl)
    multiply = lambda X, Y: _all_pairs_multiply(dbl, oracle, X, Y)
    assert _assert_characters_match(dbl, multiply, pairs) > 800


def test_multiply_characters_matches_oracle_on_random_pairs(dbl, oracle):
    rng = random.Random(43)
    pairs = [(_random_character_key(dbl, rng), _random_character_key(dbl, rng))
             for _ in range(300)]
    multiply = lambda X, Y: _all_pairs_multiply(dbl, oracle, X, Y)
    assert _assert_characters_match(dbl, multiply, pairs) > 50


def test_multiply_characters_matches_multiply_at_a1n5():
    # at m = 25 the reference is the dual-basis product of the expanded
    # factors, which itself is checked against the generic oracle at (A1, 3)
    dbl = build_double(build_borel("A1", 5))
    rng = random.Random(47)
    pairs = [(_random_character_key(dbl, rng), _random_character_key(dbl, rng))
             for _ in range(30)]
    # and pairs of small e-degree, where most products are nonzero
    low = lambda: ((rng.randrange(25), rng.randrange(3)),
                   dbl.algebra.monomial((rng.randrange(25),), (rng.randrange(3),)))
    pairs += [(low(), low()) for _ in range(30)]
    multiply = lambda X, Y: delta_multiply(dbl, X, Y)
    assert _assert_characters_match(dbl, multiply, pairs) > 25


def test_leg1_transform_round_trips(dbl, gens):
    R = _canonical_element(dbl)
    R_psi = leg1_transform(dbl, R, -1)
    # eps = psi_(0,0), so R has one character term per basis monomial u,
    # the form r_matrix returns
    assert R_psi == r_matrix(dbl)
    DE = _delta_tensor(dbl, dbl.coproduct(gens["E"]))
    assert (len(DE), len(leg1_transform(dbl, DE, -1))) == (162, 18)
    rng = random.Random(53)
    cases = [R, DE, dtensor_swap(DE)]
    cases += [_random_sparse_tensor(dbl, rng, 60, 5) for _ in range(4)]
    for T in cases:
        psi = leg1_transform(dbl, T, -1)
        assert _expand_first_leg(dbl, psi) == T
        assert leg1_transform(dbl, psi, 1) == T
    assert leg1_transform(dbl, {}, -1) == {}


def test_mixed_tensor_multiply_matches_reference(dbl, gens):
    R = _canonical_element(dbl)
    rng = random.Random(59)
    DE = _delta_tensor(dbl, dbl.coproduct(gens["E"]))
    cases = [(R, DE), (dtensor_swap(DE), R), (R, _delta_tensor(dbl, dbl.coproduct(gens["K"])))]
    cases += [
        (_random_sparse_tensor(dbl, rng, 20, 3), _random_sparse_tensor(dbl, rng, 20, 3))
        for _ in range(4)
    ]
    nonzero = 0
    for T1, T2 in cases:
        want = dtensor_multiply(dbl, T1, T2)
        got = mixed_tensor_multiply(
            dbl, leg1_transform(dbl, T1, -1), leg1_transform(dbl, T2, -1))
        assert _expand_first_leg(dbl, got) == want
        nonzero += bool(want)
    assert nonzero >= 3


def test_double_checks_never_form_products_off_the_grading():
    dbl = _RecordingDouble(build_borel("A1", 3))
    dbl.pairs = set()
    gens = identify_generators(dbl)
    assert gens["residual"] is None
    found = len(dbl.pairs)
    central_grouplikes(dbl, gens)
    tw = bicharacter_twist(dbl, gens)
    for name in ("E", "F", "K"):
        tw.twisted_coproduct(gens[name])
    assert r_matrix_check(dbl, gens, r_matrix(dbl)) is None
    # the generators, centrals and twist are formed in character keys; only
    # the second legs of the R check are dual-basis products
    assert found == 0 and len(dbl.pairs) > 100
    off = [(k1, k2) for k1, k2 in dbl.pairs if not _on_grading(k1, k2, dbl.m)]
    assert not off, off[:3]


def _all_pairs_multiply(dbl, oracle, X, Y):
    """X Y for dicts over dual-basis keys, over every pair of terms, each
    product from the generic oracle."""
    out = {}
    for k1, c1 in X.items():
        for k2, c2 in Y.items():
            for k, v in oracle.multiply_keys(k1, k2).items():
                out[k] = out.get(k, dbl.field.zero) + c1 * c2 * v
    return {k: v for k, v in out.items() if v}


def delta_multiply(dbl, X, Y):
    """X Y for dicts over dual-basis keys, forming only the key products on
    the grading: the reference for the product in character keys where the
    generic oracle is too slow.  Checked against the oracle at (A1, 3)."""
    right = _by_functional_exponent(Y.items())
    out = {}
    for k1, c1 in X.items():
        for k2, c2 in right.get(dbl.partner_exponent(k1), ()):
            for k, v in dbl.multiply_keys(k1, k2).items():
                out[k] = out.get(k, dbl.field.zero) + c1 * c2 * v
    return {k: v for k, v in out.items() if v}


def test_multiply_matches_all_pairs_reference(dbl, gens, oracle):
    rng = random.Random(41)
    named = [gens[name] for name in ("E", "F", "K", "K_inv", "K_prime")]
    cases = [(x, y) for x in named for y in named]
    for _ in range(6):
        X, Y = (
            _delta_element(dbl, {_random_key(dbl, rng): dbl.field.zeta_pow(rng.randrange(9))
                                 + dbl.field.from_rational(rng.randrange(-2, 3))
                                 for _ in range(30)})
            for _ in range(2)
        )
        cases += [(X, Y), (Y, X), (X, gens["F"]), (gens["E"], Y)]
    nonzero = 0
    for X, Y in cases:
        Xd, Yd = to_delta(dbl, X.terms), to_delta(dbl, Y.terms)
        want = _all_pairs_multiply(dbl, oracle, Xd, Yd)
        assert to_delta(dbl, dbl.multiply(X, Y).terms) == want
        assert delta_multiply(dbl, Xd, Yd) == want
        nonzero += bool(want)
    assert nonzero > len(cases) // 2


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


def test_multiply_keys_matches_oracle_on_random_pairs(dbl, oracle):
    rng = random.Random(31)
    pairs = [(_random_key(dbl, rng), _random_key(dbl, rng)) for _ in range(20_000)]
    assert _assert_products_match(dbl, oracle, pairs) > 500


def test_zero_products_off_the_grading_are_not_cached():
    dbl = build_double(build_borel("A1", 3))
    rng = random.Random(37)
    off = on = 0
    for _ in range(2000):
        (fm, am), (gm, bm) = k1, k2 = _random_key(dbl, rng), _random_key(dbl, rng)
        graded = (gm.group[0] + 2 * am.pbw[0] - fm.group[0] - 2 * fm.pbw[0]) % 9 == 0
        prod = dbl.multiply_keys(k1, k2)
        if graded:
            on += 1
            assert (k1, k2) in dbl._pair_cache
        else:
            off += 1
            assert prod == {}
    assert off > 0 and on > 0
    assert len(dbl._pair_cache) <= on


class _ShiftedCopDouble(DoubleAlgebra):
    """cop with one group exponent of one term shifted by 1."""

    def cop(self, mono):
        got = super().cop(mono)
        if mono == self.algebra.monomial((2,), (3,)):
            (m1, m2, c), *rest = got
            m2 = self.algebra.monomial(((m2.group[0] + 1) % self.m,), m2.pbw)
            got = [(m1, m2, c)] + rest
        return got


def test_grading_certificate_rejects_shifted_coproduct():
    with pytest.raises(ArithmeticError, match="grading"):
        _ShiftedCopDouble(build_borel("A1", 3))


class _ScaledCopDouble(DoubleAlgebra):
    """cop(g e^2) with one coefficient scaled by q; cop(e^2) is unchanged,
    so only the shift certificate (fact 3) can reject it."""

    def cop(self, mono):
        got = super().cop(mono)
        if mono == self.algebra.monomial((1,), (2,)):
            (m1, m2, c), *rest = got
            got = [(m1, m2, c * self.field.zeta_pow(1))] + rest
        return got


def test_grading_certificate_rejects_scaled_coproduct():
    with pytest.raises(ArithmeticError, match="grading: .* is not cop.* shifted"):
        _ScaledCopDouble(build_borel("A1", 3))


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
def test_structure_tables_are_per_e_power(n):
    # one table per power e^k: the cross terms of e^k are those of
    # cop2(e^k), and the convolution table holds one entry per term of
    # cop(e^k); tables per basis monomial would hold m times as many
    dbl = build_double(build_borel("A1", n))
    m = dbl.m
    powers = [dbl.cop(dbl.algebra.monomial((0,), (k,))) for k in range(m)]
    assert sorted(dbl.cross_terms) == list(range(m))
    assert sorted(dbl.convolution) == list(range(m))
    cop2_sizes = [sum(len(dbl.cop(m1)) for m1, _, _ in cop) for cop in powers]
    assert [len(dbl.cross_terms[k]) for k in range(m)] == cop2_sizes
    entries = sum(len(rows) for table in dbl.convolution.values() for rows in table.values())
    assert entries == sum(map(len, powers))
    assert (entries, sum(cop2_sizes)) == {3: (45, 165), 5: (325, 2925)}[n]


def _rejected_under_optimize_flag(cls_name, match=""):
    here = os.path.dirname(os.path.abspath(__file__))
    code = (
        "assert False, 'asserts must be stripped here'\n"
        "from qborel.borel import build_borel\n"
        f"from test_double import {cls_name}\n"
        "try:\n"
        f"    {cls_name}(build_borel('A1', 3))\n"
        "    raise SystemExit(1)\n"
        "except ArithmeticError as exc:\n"
        f"    if {match!r} not in str(exc):\n"
        "        raise SystemExit(2)\n"
    )
    src = os.path.join(here, os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.abspath(src), here]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
    return proc.returncode == 0


def test_grading_certificate_raises_under_optimize_flag():
    assert _rejected_under_optimize_flag("_ShiftedCopDouble")
    assert _rejected_under_optimize_flag("_ShiftedAntipodeDouble", "the cross terms of e^2 ")


def test_shift_certificate_raises_under_optimize_flag():
    assert _rejected_under_optimize_flag("_ScaledCopDouble")


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


def test_product_rule_certificate_raises_under_optimize_flag():
    assert _rejected_under_optimize_flag("_ScaledProductDouble", "product rule: e^1 g^1 is ")


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


def test_elements_of_different_rings_never_mix(gens):
    # one element type over every ring: equal term dicts in two rings are unequal
    A, B, C = BorelAlgebra("A1", 3), BorelAlgebra("A1", 3), BorelAlgebra("A1", 5)
    assert A.generator_e(0).terms == B.generator_e(0).terms
    assert A.generator_e(0) != B.generator_e(0)
    assert A.unit_tensor(2).terms == B.unit_tensor(2).terms
    assert A.unit_tensor(2) != B.unit_tensor(2)
    E = gens["E"]
    other = build_double(build_borel("A1", 3))
    E_other = other.element(E.terms)
    assert E_other.terms == E.terms and E_other != E
    # adding or multiplying across rings raises: n = 3 against n = 5, a
    # 2-tensor against a 3-tensor, and two doubles
    for x, y in ((A.generator_e(0), C.generator_e(0)), (A.unit_tensor(2), A.unit_tensor(3)),
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


def test_coproduct_is_algebra_map(dbl):
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
        lhs = _delta_tensor(dbl, dbl.coproduct(x * y))
        rhs = dtensor_multiply(dbl, _delta_tensor(dbl, dbl.coproduct(x)),
                               _delta_tensor(dbl, dbl.coproduct(y)))
        assert lhs == rhs


def test_central_grouplikes(dbl, gens):
    zs = central_grouplikes(dbl, gens)
    assert len(zs) == 9
    assert zs[0] == dbl.unit()
    # the embedded group generator is not central
    emb_g = grouplike(dbl, 0, 1)
    E = gens["E"]
    assert emb_g * E != E * emb_g


def test_central_grouplikes_reject_noncentral_claim(dbl, gens, monkeypatch):
    import qborel.double as double_mod

    real = double_mod.grouplike
    monkeypatch.setattr(double_mod, "grouplike",
                        lambda dbl, c, s: real(dbl, c, s + 1))
    with pytest.raises(ArithmeticError, match="commute"):
        central_grouplikes(dbl, gens)


def test_bicharacter_twist_recovers_standard_coproduct(dbl, gens):
    tw = bicharacter_twist(dbl, gens)
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


def test_twist_rejects_noncentral_leg(dbl, gens):
    tw = DoubleTwist(dbl, gens)
    tw.z = grouplike(dbl, 1, 0)
    with pytest.raises(ArithmeticError, match="central"):
        tw.verify()


def test_twist_weight_probes_read_the_degree_of_character_keys(dbl, gens):
    # verify() probes seeded character keys psi_(alpha,k) x a, of degree
    # a_1 - k; a degree that ignores k must be caught
    class _DegreeOfA(DoubleTwist):
        @staticmethod
        def degree(key):
            return key[1].pbw[0]

    bicharacter_twist(dbl, gens)
    with pytest.raises(ArithmeticError, match="weight vector"):
        _DegreeOfA(dbl, gens).verify()


def test_twist_two_cocycle_law(dbl, gens):
    import qborel.double as double_mod

    tw = bicharacter_twist(dbl, gens)
    assert tw.W == grouplike(dbl, 7, 5)
    a_of, z_of = double_mod._bicharacter_factors(tw)
    table = [[a * z % 9 for z in z_of] for a in a_of]
    assert (len(table), {len(row) for row in table}) == (81, {81})
    # lam = mu = the character (alpha, beta) = (1, 0): a = 7, z = 5, 35 = 8 mod 9
    assert table[9][9] == 8
    assert twist_two_cocycle_check(tw) is None
    bad = [row[:] for row in table]
    bad[3][4] = (bad[3][4] + 1) % 9
    # the bilinearity certificate agrees with the law checked on all triples
    assert _two_cocycle_law_holds(table)
    assert not _two_cocycle_law_holds(bad)


def test_twist_two_cocycle_certifies_additivity(dbl, gens, monkeypatch):
    # a non-additive a, whose outer product with z breaks the law: only
    # the additivity obligation can catch it
    import qborel.double as double_mod

    tw = bicharacter_twist(dbl, gens)
    a_of, z_of = double_mod._bicharacter_factors(tw)
    a_bad = a_of.copy()
    a_bad[10] = (a_bad[10] + 1) % 9
    monkeypatch.setattr(double_mod, "_bicharacter_factors", lambda tw: (a_bad, z_of))
    table = [[a * z % 9 for z in z_of] for a in a_bad]
    bad = twist_two_cocycle_check(tw)
    assert bad["obligation"] == "a additive"
    # characters 1 = (0, 1) and 9 = (1, 0) multiply to 10 = (1, 1)
    assert bad["cell"] == [1, 9]
    assert bad["found"] == a_bad[10] != bad["required"] == (a_bad[1] + a_bad[9]) % 9
    assert not _two_cocycle_law_holds(table)


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


def test_r_matrix_check_catches_corruption(dbl, gens):
    R = r_matrix(dbl)
    key = next(iter(R))
    del R[key]
    bad = r_matrix_check(dbl, gens, R=R)
    assert bad is not None and bad["residual_terms"] > 0
    # the counterexample is reproducible: the first differing tensor key in
    # sorted order, with each side's coefficient there
    assert isinstance(bad["lhs"], CycScalar) and isinstance(bad["rhs"], CycScalar)
    assert bad["lhs"] != bad["rhs"]
    # the failure is reported in the dual basis on both legs
    R = to_delta(dbl, R, leg=0)
    assert len(R) == 729 - 9
    DX = _delta_tensor(dbl, dbl.coproduct(gens[bad["generator"]]))
    lhs = dtensor_multiply(dbl, R, DX)
    rhs = dtensor_multiply(dbl, dtensor_swap(DX), R)
    zero = dbl.field.zero
    assert bad["key"] == min(k for k in set(lhs) | set(rhs)
                             if lhs.get(k, zero) != rhs.get(k, zero))
    assert bad["lhs"] == lhs.get(bad["key"], zero)
    assert bad["rhs"] == rhs.get(bad["key"], zero)
    json.dumps(to_jsonable(bad))


def dtensor_multiply(dbl, T1, T2):
    """Product in D x D of two tensors given as dicts over key pairs, both
    legs in the basis of keys: the reference for the mixed product.

    Terms are grouped by their second leg, so each second-leg product is
    formed once per pair of groups; when it is zero the whole block is
    skipped and none of its first-leg products is formed.  The second legs
    of T2, and the first legs inside each of its groups, are indexed by
    their functional's group exponent, so only pairs on the grading are
    formed in either leg.
    """
    out = {}
    G2 = _by_functional_exponent(
        (l2, _by_functional_exponent(row2)) for l2, row2 in _by_second_leg(T2).items()
    )
    partner = dbl.partner_exponent
    for k2, row1 in _by_second_leg(T1).items():
        for l2, row2 in G2.get(partner(k2), ()):
            right = dbl.multiply_keys(k2, l2)
            if not right:
                continue
            for k1, c1 in row1:
                for l1, c2 in row2.get(partner(k1), ()):
                    left = dbl.multiply_keys(k1, l1)
                    if not left:
                        continue
                    c = c1 * c2
                    for u1, v1 in left.items():
                        cv = c * v1
                        for u2, v2 in right.items():
                            out[(u1, u2)] = out.get((u1, u2), dbl.field.zero) + cv * v2
    return {k: v for k, v in out.items() if v}


def _pairwise_dtensor_multiply(dbl, T1, T2):
    """Reference product over every pair of terms.

    Also counts the term pairs whose second-leg product alone is zero and
    those whose first-leg product alone is zero.
    """
    out = {}
    only_right_zero = only_left_zero = 0
    for (k1, k2), c1 in T1.items():
        for (l1, l2), c2 in T2.items():
            left = dbl.multiply_keys(k1, l1)
            right = dbl.multiply_keys(k2, l2)
            only_right_zero += bool(left) and not right
            only_left_zero += bool(right) and not left
            for u1, v1 in left.items():
                for u2, v2 in right.items():
                    key = (u1, u2)
                    out[key] = out.get(key, dbl.field.zero) + c1 * c2 * v1 * v2
    return {k: v for k, v in out.items() if v}, only_right_zero, only_left_zero


def _random_sparse_tensor(dbl, rng, terms, second_legs):
    # few distinct second legs, so the grouped product sees blocks of many pairs
    seconds = [_random_key(dbl, rng) for _ in range(second_legs)]
    out = {}
    for _ in range(terms):
        c = dbl.field.zeta_pow(rng.randrange(9)) + dbl.field.from_rational(rng.randrange(-2, 3))
        if c:
            out[(_random_key(dbl, rng), rng.choice(seconds))] = c
    return out


def test_dtensor_multiply_matches_pairwise_reference(dbl, gens):
    R = _canonical_element(dbl)
    rng = random.Random(29)
    cases = [
        (R, _delta_tensor(dbl, dbl.coproduct(gens["E"]))),
        (dtensor_swap(_delta_tensor(dbl, dbl.coproduct(gens["F"]))), R),
    ]
    cases += [
        (_random_sparse_tensor(dbl, rng, 40, 4), _random_sparse_tensor(dbl, rng, 40, 4))
        for _ in range(6)
    ]
    right_zero = left_zero = 0
    for T1, T2 in cases:
        want, rz, lz = _pairwise_dtensor_multiply(dbl, T1, T2)
        assert dtensor_multiply(dbl, T1, T2) == want
        right_zero += rz
        left_zero += lz
    # both kinds of zero block occur, so neither skip is vacuous
    assert right_zero > 0 and left_zero > 0


def test_twisted_coproduct_is_algebra_map_on_generators(dbl, gens):
    tw = bicharacter_twist(dbl, gens)
    E, K = gens["E"], gens["K"]
    delta = lambda T: _delta_tensor(dbl, T)
    lhs = delta(tw.twisted_coproduct(K * E))
    rhs = dtensor_multiply(dbl, delta(tw.twisted_coproduct(K)), delta(tw.twisted_coproduct(E)))
    assert lhs == rhs
    lhs = delta(tw.twisted_coproduct(E * gens["F"]))
    rhs = dtensor_multiply(
        dbl, delta(tw.twisted_coproduct(E)), delta(tw.twisted_coproduct(gens["F"]))
    )
    assert lhs == rhs


def test_opposite_coproduct_differs_without_r_matrix(dbl, gens):
    E = gens["E"]
    DX = dbl.coproduct(E)
    assert dtensor_swap(DX) != DX
