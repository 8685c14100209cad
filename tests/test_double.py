"""Drinfeld double of the rank-1 Borel: relations, twist, R-matrix."""

import json
import random

import pytest

from qborel.borel import build_borel
from qborel.cyclotomic import CycScalar
from qborel.double import (
    DoubleTwist,
    associativity_probe_double,
    bicharacter_twist,
    build_double,
    central_grouplikes,
    double_coproduct_formula_check,
    dtensor_add,
    dtensor_multiply,
    dtensor_of,
    dtensor_swap,
    grouplike,
    identify_generators,
    r_matrix,
    r_matrix_check,
    twist_bicharacter_exponents,
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
    return (
        dbl.algebra.monomial((rng.randrange(dbl.m),), (rng.randrange(dbl.m),)),
        dbl.algebra.monomial((rng.randrange(dbl.m),), (rng.randrange(dbl.m),)),
    )


def test_dimension(dbl):
    assert dbl.dimension == 3**8 == 6561
    assert len(list(dbl.basis_monomials())) == 81


def test_unit_laws(dbl):
    one = dbl.unit()
    rng = random.Random(5)
    for _ in range(10):
        x = dbl.element({_random_key(dbl, rng): dbl.field.one})
        assert one * x == x
        assert x * one == x


def test_counit_is_multiplicative(dbl):
    rng = random.Random(7)
    for _ in range(8):
        x = dbl.element({_random_key(dbl, rng): dbl.field.zeta_pow(rng.randrange(9))})
        y = dbl.element({_random_key(dbl, rng): dbl.field.one})
        assert dbl.counit(x * y) == dbl.counit(x) * dbl.counit(y)
    assert dbl.counit(dbl.unit()) == dbl.field.one


def test_associativity(dbl):
    assert associativity_probe_double(dbl, samples=60, seed=11) is None


def test_dual_product_and_coproduct_consistency(dbl):
    # the fast convolution path must agree with the coproduct-leg route
    rng = random.Random(13)
    one = dbl.unit_mono
    for _ in range(12):
        fm = dbl.algebra.monomial((rng.randrange(9),), (rng.randrange(9),))
        gm = dbl.algebra.monomial((rng.randrange(9),), (rng.randrange(9),))
        fast = dbl.multiply_keys((fm, one), (gm, one))
        slow = {}
        for u, v, c in dbl.left_div().get(fm, ()):
            if v == gm:
                key = (u, one)
                slow[key] = slow.get(key, dbl.field.zero) + c
        slow = {k: v for k, v in slow.items() if v}
        assert fast == slow


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
    E = gens["E"]
    assert set(E.terms) == {
        (dbl.algebra.monomial((a,), (0,)), dbl.algebra.monomial((0,), (1,)))
        for a in range(9)
    }
    assert all(c == dbl.field.one for c in E.terms.values())
    K = gens["K"]
    for (fm, am), c in K.terms.items():
        assert am == dbl.algebra.monomial((1,), (0,))
        assert c == dbl.field.zeta_pow(5 * fm.group[0])
    assert gens["K_prime"] == grouplike(dbl, 4, 1)


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
        x = dbl.element({key(): dbl.field.one})
        y = dbl.element({key(): dbl.field.zeta_pow(1)})
        lhs = dbl.coproduct(x * y)
        rhs = dtensor_multiply(dbl, dbl.coproduct(x), dbl.coproduct(y))
        assert lhs == rhs


def test_central_grouplikes(dbl, gens):
    zs = central_grouplikes(dbl, gens)
    assert len(zs) == 9
    assert zs[0] == dbl.unit()
    # the embedded group generator is not central
    emb_g = grouplike(dbl, 0, 1)
    E = gens["E"]
    assert emb_g * E != E * emb_g


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
    with pytest.raises(AssertionError):
        tw.verify()


def test_twist_two_cocycle_law(dbl, gens):
    tw = bicharacter_twist(dbl, gens)
    assert tw.W == grouplike(dbl, 7, 5)
    table = twist_bicharacter_exponents(tw)
    assert table.shape == (81, 81)
    # lam = mu = the character (alpha, beta) = (1, 0): a = 7, z = 5, 35 = 8 mod 9
    assert table[9, 9] == 8
    assert twist_two_cocycle_check(tw) is None
    bad = table.copy()
    bad[3, 4] = (bad[3, 4] + 1) % 9
    assert twist_two_cocycle_check(tw, table=bad) is not None


def test_r_matrix_intertwines(dbl, gens):
    assert len(r_matrix(dbl)) == 729
    assert r_matrix_check(dbl, gens) is None


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
    DX = dbl.coproduct(gens[bad["generator"]])
    lhs = dtensor_multiply(dbl, R, DX)
    rhs = dtensor_multiply(dbl, dtensor_swap(DX), R)
    zero = dbl.field.zero
    assert bad["key"] == min(k for k in set(lhs) | set(rhs)
                             if lhs.get(k, zero) != rhs.get(k, zero))
    assert bad["lhs"] == lhs.get(bad["key"], zero)
    assert bad["rhs"] == rhs.get(bad["key"], zero)
    json.dumps(to_jsonable(bad))


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
    R = r_matrix(dbl)
    rng = random.Random(29)
    cases = [
        (R, dbl.coproduct(gens["E"])),
        (dtensor_swap(dbl.coproduct(gens["F"])), R),
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
    lhs = tw.twisted_coproduct(K * E)
    rhs = dtensor_multiply(dbl, tw.twisted_coproduct(K), tw.twisted_coproduct(E))
    assert lhs == rhs
    lhs = tw.twisted_coproduct(E * gens["F"])
    rhs = dtensor_multiply(
        dbl, tw.twisted_coproduct(E), tw.twisted_coproduct(gens["F"])
    )
    assert lhs == rhs


def test_opposite_coproduct_differs_without_r_matrix(dbl, gens):
    E = gens["E"]
    DX = dbl.coproduct(E)
    assert dtensor_swap(DX) != DX
