"""Idempotent calculus, the diagonal twist, and the twisted coproduct.

Frozen expectations here were derived by hand from the defining sums:
the rank-1 fine conjugation exponents reduce to 2(y mod n) on the left
pattern and to -2nz exactly when y = n-1 (mod n) on the right pattern.
Large grids are checked through exact integer exponent arrays; small
grids additionally through full cyclotomic tensor arithmetic, so the
two routes validate each other.
"""

import random

import numpy as np
import pytest

import qborel.twist
from qborel.algebra import apply_on_slot, cartan_terms, character_transform, tensor_multiply
from qborel.associator import closed_form_associator, quasi_coassoc_check
from qborel.borel import SubalgebraBasis, build_borel
from qborel.twist import (
    FineMixed,
    bold_idempotent,
    build_twist,
    c_scalar,
    coord_table,
    diagonal_pair_tensor,
    fine_membership_counterexample,
    flat_index,
    membership_in_subalgebra_tensor,
    primitive_idempotent,
    twist_exponent_table,
    twisted_coproduct,
    twisted_coproduct_direct,
    twisted_generator_bold,
    twisted_generator_fine,
)


@pytest.fixture(scope="module")
def h13():
    return build_borel("A1", 3)


@pytest.fixture(scope="module")
def h15():
    return build_borel("A1", 5)


@pytest.fixture(scope="module")
def h25():
    return build_borel("A2", 5)


@pytest.fixture(scope="module")
def j13(h13):
    return build_twist(h13)


@pytest.fixture(scope="module")
def j15(h15):
    return build_twist(h15)


@pytest.fixture(scope="module")
def j25(h25):
    return build_twist(h25)


# -- fine idempotents --------------------------------------------------


def test_primitive_idempotents_orthogonal_complete_a1n3(h13):
    A = h13.algebra
    ids = [primitive_idempotent(h13, (z,)) for z in range(9)]
    total = A.element({})
    for z, pz in enumerate(ids):
        total = total + pz
        for w, pw in enumerate(ids):
            prod = pz * pw
            assert prod == (pz if z == w else A.element({}))
    assert total == A.one


def test_primitive_idempotent_eigen_a1n3(h13):
    A = h13.algebra
    g = A.generator_g(0)
    for z in range(9):
        pz = primitive_idempotent(h13, (z,))
        assert pz * g == pz.scale(A.field.zeta_pow(z))
        assert g * pz == pz * g


def test_primitive_idempotents_a1n5_sampled(h15):
    A = h15.algebra
    rng = random.Random(11)
    total = A.element({})
    for z in range(25):
        total = total + primitive_idempotent(h15, (z,))
    assert total == A.one
    g = A.generator_g(0)
    for _ in range(8):
        z, w = rng.randrange(25), rng.randrange(25)
        pz = primitive_idempotent(h15, (z,))
        pw = primitive_idempotent(h15, (w,))
        assert pz * pw == (pz if z == w else A.element({}))
        assert pz * g == pz.scale(A.field.zeta_pow(z))


def _univariate_idempotent(hopf, i, z):
    """(1/m) sum_a q^(-za) g_i^a, the rank-1 factor of a fine idempotent."""
    A = hopf.algebra
    from fractions import Fraction

    terms = {}
    for a in range(A.m):
        g = [0] * A.rank
        g[i] = a
        terms[A.monomial(g, (0,) * A.nroots)] = A.field.zeta_pow(-z * a) * Fraction(1, A.m)
    return A.element(terms)


def test_primitive_idempotent_a2_factors_and_orthogonality(h25):
    # the rank-2 idempotent is the product of commuting rank-1 factors,
    # so orthogonality and idempotency reduce to the univariate case
    A = h25.algebra
    p1 = _univariate_idempotent(h25, 0, 1)
    p2 = _univariate_idempotent(h25, 1, 2)
    assert p1 * p2 == primitive_idempotent(h25, (1, 2))
    assert p1 * p1 == p1
    q1 = _univariate_idempotent(h25, 0, 3)
    assert p1 * q1 == A.element({})
    pz = primitive_idempotent(h25, (1, 2))
    for i, zi in enumerate((1, 2)):
        assert pz * A.generator_g(i) == pz.scale(A.field.zeta_pow(zi))


def test_shift_identity_moves_e_past_idempotent(h13, h25):
    # 1_z e_i = e_i 1_(z - d_i), equivalently e_i 1_z = 1_(z + d_i) e_i
    A = h13.algebra
    e = A.generator_e(0)
    for z in range(9):
        lhs = e * primitive_idempotent(h13, (z,))
        rhs = primitive_idempotent(h13, (z + 1,)) * e
        assert lhs == rhs
    B = h25.algebra
    rng = random.Random(5)
    for i in range(2):
        ei = B.generator_e(i)
        for _ in range(3):
            z = (rng.randrange(25), rng.randrange(25))
            shifted = tuple(zj + (1 if j == i else 0) for j, zj in enumerate(z))
            assert ei * primitive_idempotent(h25, z) == primitive_idempotent(h25, shifted) * ei


# -- coarse idempotents ------------------------------------------------


def test_bold_idempotent_a1n3(h13):
    A = h13.algebra
    total = A.element({})
    bolds = [bold_idempotent(h13, (b,)) for b in range(3)]
    for b, Bb in enumerate(bolds):
        total = total + Bb
        for mono in Bb.terms:
            assert mono.group[0] % 3 == 0 and not any(mono.pbw)
        for c, Bc in enumerate(bolds):
            assert Bb * Bc == (Bb if b == c else A.element({}))
    assert total == A.one


def test_bold_idempotent_a2_spot(h25):
    A = h25.algebra
    B1 = bold_idempotent(h25, (1, 3))
    assert B1 * B1 == B1
    for mono in B1.terms:
        assert all(a % 5 == 0 for a in mono.group)
    B2 = bold_idempotent(h25, (0, 3))
    assert B1 * B2 == A.element({})


def test_idempotent_basis_map_roundtrip_a1n3(h13):
    A = h13.algebra
    f = A.field
    rng = random.Random(7)
    x = np.full(9, f.zero, dtype=object)
    for _ in range(6):
        x[rng.randrange(9)] = f.zeta_pow(rng.randrange(9))
    assert (character_transform(f, character_transform(f, x, 1), -1) == x).all()
    # diagonal of a grouplike is its character; indicators invert to 1_z
    g2 = np.full(9, f.zero, dtype=object)
    g2[2] = f.one
    assert list(character_transform(f, g2, 1)) == [f.zeta_pow(2 * z) for z in range(9)]
    ind = np.full(9, f.zero, dtype=object)
    ind[4] = f.one
    terms = cartan_terms(A, character_transform(f, ind, -1))
    assert A.element({key[0]: c for key, c in terms.items()}) == primitive_idempotent(h13, (4,))


# -- the twist ---------------------------------------------------------


def test_c_scalar_frozen(h13, h15):
    f9 = h13.algebra.field
    for z in range(9):
        for y in range(3):
            assert c_scalar(h13, z, y) == f9.one
    assert c_scalar(h13, 1, 3) == f9.zeta_pow(-3)
    assert c_scalar(h13, 2, 7) == f9.zeta_pow(-12)
    assert c_scalar(h13, 2, 7) == f9.zeta_pow(-3)
    assert c_scalar(h15, 2, 7) == h15.algebra.field.zeta_pow(-10)


def test_twist_exponent_frozen_a1n3(h13, j13):
    E = j13.exponents
    assert E[1, 3] == (-6) % 9
    assert E[2, 8] == (-24) % 9
    assert j13.coefficient(1, 3) == h13.algebra.field.zeta_pow(-6)
    for z in range(9):
        for y in range(3):
            assert E[z, y] == 0
    assert not E[0, :].any() and not E[:, 0].any()


def test_twist_exponent_a2_spot(h25, j25):
    E = j25.exponents
    zf = flat_index((1, 0), 25)
    yf = flat_index((7, 3), 25)
    # -( (1,0) . cartan . (5,0) ) = -10
    assert E[zf, yf] == (-10) % 25
    wf = flat_index((2, 3), 25)
    vf = flat_index((6, 9), 25)
    # defects (5, 5); (2,3).cartan = (1, 4); -(1*5 + 4*5) = -25 = 0
    assert E[wf, vf] == 0
    uf = flat_index((6, 4), 25)
    # defects (5, 0); -(1*5 + 4*0) = -5
    assert E[wf, uf] == (-5) % 25


def test_twist_counit_is_normalized(h13, j13):
    one = h13.algebra.one
    assert apply_on_slot(h13.counit, j13.tensor(), 0) == one
    assert apply_on_slot(h13.counit, j13.tensor(), 1) == one


def test_twist_tensor_matches_element_construction_a1n3(h13, j13):
    A = h13.algebra
    expected = A.tensor({}, 2)
    for z in range(9):
        pz = primitive_idempotent(h13, (z,))
        for y in range(9):
            py = primitive_idempotent(h13, (y,))
            coeff = A.field.zeta_pow(int(j13.exponents[z, y]))
            expected = expected + A.tensor_of_elements(pz, py).scale(coeff)
    assert j13.tensor() == expected


def _diag_value(hopf, X, vecs):
    """Evaluate a Cartan tensor on a tuple of fine idempotent labels."""
    A = hopf.algebra
    out = A.field.zero
    for key, c in X.terms.items():
        e = 0
        for mono, z in zip(key, vecs):
            assert not any(mono.pbw)
            e += sum(zi * ai for zi, ai in zip(z, mono.group))
        out = out + c * A.field.zeta_pow(e)
    return out


def test_twist_tensor_diag_spotcheck_a1n5(h15, j15):
    T = j15.tensor()
    rng = random.Random(23)
    for _ in range(10):
        z, y = rng.randrange(25), rng.randrange(25)
        want = h15.algebra.field.zeta_pow(int(j15.exponents[z, y]))
        assert _diag_value(h15, T, ((z,), (y,))) == want


def test_twist_inverse_a1n3(h13, j13):
    unit = h13.algebra.unit_tensor(2)
    assert tensor_multiply(j13.tensor(), j13.inverse_tensor()) == unit
    assert tensor_multiply(j13.inverse_tensor(), j13.tensor()) == unit


def test_bold_expansion_matches_element_route_a1n3(h13):
    A = h13.algebra
    rng = random.Random(3)
    expo = np.array([[rng.randrange(9) for _ in range(3)] for _ in range(3)])
    got = diagonal_pair_tensor(h13, expo, step=3)
    expected = A.tensor({}, 2)
    for b in range(3):
        Bb = bold_idempotent(h13, (b,))
        for c in range(3):
            Bc = bold_idempotent(h13, (c,))
            expected = expected + A.tensor_of_elements(Bb, Bc).scale(A.field.zeta_pow(int(expo[b, c])))
    assert got == expected


# -- twisted coproduct -------------------------------------------------


def test_fine_families_frozen_a1(h13, j13, h15, j15):
    for hopf, J, n in ((h13, j13, 3), (h15, j15, 5)):
        m = n * n
        fm = twisted_generator_fine(hopf, J, 0)
        word_e, word_1 = (1,), (0,)
        left = fm.families[(word_e, word_1)]
        right = fm.families[(word_1, word_e)]
        y = np.arange(m)
        want_left = np.broadcast_to((2 * (y % n)) % m, (m, m))
        assert (left == want_left).all()
        z = np.arange(m)
        want_right = np.where((y % n == n - 1)[None, :], (-2 * n * z[:, None]) % m, 0)
        assert (right == want_right).all()


def test_fine_expansion_matches_direct_conjugation_a1n3(h13, j13):
    A = h13.algebra
    e = A.generator_e(0)
    fm = twisted_generator_fine(h13, j13, 0)
    got = A.tensor({}, 2)
    for (w1, w2), arr in fm.families.items():
        lw = e if any(w1) else None
        rw = e if any(w2) else None
        got = got + diagonal_pair_tensor(h13, arr, step=1, left_word=lw, right_word=rw)
    assert got == twisted_coproduct_direct(h13, j13, e)


def test_membership_fine_holds_everywhere(h13, j13, h15, j15, h25, j25):
    for hopf, J in ((h13, j13), (h15, j15), (h25, j25)):
        for i in range(hopf.algebra.rank):
            fm = twisted_generator_fine(hopf, J, i)
            assert fine_membership_counterexample(hopf, fm) is None


def test_membership_negative_control(h13, j13):
    fm = twisted_generator_fine(h13, j13, 0)
    pattern = ((1,), (0,))
    arr = fm.families[pattern].copy()
    arr[4, 5] = (arr[4, 5] + 1) % 9
    bad = FineMixed(h13, {pattern: arr})
    hit = fine_membership_counterexample(h13, bad)
    assert hit is not None and hit[0] == pattern


def test_bold_arrays_frozen_a1n3(h13, j13):
    bold = twisted_generator_bold(h13, j13, 0)
    left = bold[((1,), (0,))]
    right = bold[((0,), (1,))]
    assert (left == np.array([[0, 2, 4]] * 3)).all()
    assert (right == np.array([[0, 0, 0], [0, 0, 3], [0, 0, 6]])).all()


def test_twisted_coproduct_fixes_grouplikes(h13, j13, h25, j25):
    A = h13.algebra
    g = A.generator_g(0)
    assert twisted_coproduct(h13, j13, g) == A.tensor_of_elements(g, g)
    B = h25.algebra
    g1 = B.generator_g(0)
    assert twisted_coproduct(h25, j25, g1) == B.tensor_of_elements(g1, g1)


def test_twisted_coproduct_matches_direct_a1n3(h13, j13):
    A = h13.algebra
    e = A.generator_e(0)
    samples = [
        e,
        A.monomial_element((2,), (1,)),
        A.generator_g(0) * e + e.scale(A.field.zeta_pow(4)),
        A.monomial_element((5,), (2,)),
    ]
    for x in samples:
        assert twisted_coproduct(h13, j13, x) == twisted_coproduct_direct(h13, j13, x)


def test_twisted_coproduct_is_algebra_map_a1n3(h13, j13):
    A = h13.algebra
    rng = random.Random(29)
    for _ in range(8):
        x = A.monomial_element((rng.randrange(9),), (rng.randrange(4),))
        y = A.monomial_element((rng.randrange(9),), (rng.randrange(4),))
        lhs = twisted_coproduct(h13, j13, x * y)
        rhs = tensor_multiply(twisted_coproduct(h13, j13, x), twisted_coproduct(h13, j13, y))
        assert lhs == rhs


def test_twisted_coproduct_counit_laws(h13, j13, h25, j25):
    for hopf, J in ((h13, j13), (h25, j25)):
        A = hopf.algebra
        for i in range(A.rank):
            x = A.generator_e(i)
            X = twisted_coproduct(hopf, J, x)
            assert apply_on_slot(hopf.counit, X, 0) == x
            assert apply_on_slot(hopf.counit, X, 1) == x


def test_twisted_images_land_in_subalgebra_tensor(h13, j13, h25, j25):
    for hopf, J in ((h13, j13), (h25, j25)):
        sub = SubalgebraBasis(hopf)
        for i in range(hopf.algebra.rank):
            X = twisted_coproduct(hopf, J, hopf.algebra.generator_e(i))
            assert membership_in_subalgebra_tensor(X, sub) is None
    # untwisted coproduct of e does not lie there: its right leg sees K = g^2
    X0 = h13.coproduct(h13.algebra.generator_e(0))
    assert membership_in_subalgebra_tensor(X0, SubalgebraBasis(h13)) is not None


def test_bold_expansion_matches_fine_expansion_a1n5(h15, j15):
    A = h15.algebra
    e = A.generator_e(0)
    fm = twisted_generator_fine(h15, j15, 0)
    fine = A.tensor({}, 2)
    for (w1, w2), arr in fm.families.items():
        lw = e if any(w1) else None
        rw = e if any(w2) else None
        fine = fine + diagonal_pair_tensor(h15, arr, step=1, left_word=lw, right_word=rw)
    assert twisted_coproduct(h15, j15, e) == fine


def test_twist_proof_checks_raise(h13, j13, monkeypatch):
    A = h13.algebra
    # a membership failure is an ArithmeticError, which the coarse route of
    # quasi_coassoc_check must not mistake for "outside the coarse route"
    monkeypatch.setattr(qborel.twist, "fine_membership_counterexample",
                        lambda hopf, fm: (((1,), (0,)), 0, 0, 1, 0))
    with pytest.raises(ArithmeticError, match="leaves the subalgebra"):
        twisted_generator_bold(h13, j13, 0)
    with pytest.raises(ArithmeticError, match="leaves the subalgebra"):
        quasi_coassoc_check(h13, j13, closed_form_associator(h13), A.generator_e(0))
    monkeypatch.undo()
    monkeypatch.setattr(qborel.twist, "twist_exponent_table",
                        lambda hopf: np.ones((9, 9), dtype=np.int64))
    with pytest.raises(ArithmeticError, match="eps"):
        build_twist(h13)
    monkeypatch.setattr(qborel.twist, "_idempotent", lambda hopf, z, step: hopf.algebra.one)
    with pytest.raises(ArithmeticError, match="eigenvector"):
        bold_idempotent(h13, (1,))


def test_idempotent_routines_check_arguments(h13, j13):
    with pytest.raises(ValueError):
        primitive_idempotent(h13, (1, 2))
    with pytest.raises(ValueError):
        bold_idempotent(h13, ())
    with pytest.raises(ValueError):
        diagonal_pair_tensor(h13, j13.exponents, step=2)
    with pytest.raises(ValueError):
        diagonal_pair_tensor(h13, j13.exponents, step=3)
    with pytest.raises(ValueError):
        diagonal_pair_tensor(h13, j13.exponents[0], step=1)

