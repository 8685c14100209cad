"""tensor_multiply, the term-pair product, against an independent route,
left multiplication one slot at a time: seeded tensors at (A1, 3),
(A1, 5) and (A2, 5), multi-term slot products, denominators, exact
cancellation, empty operands and mismatched rings."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from qborel.algebra import BorelAlgebra, Element, apply_on_slot, tensor_multiply


def slotwise_tensor_multiply(X, Y):
    """X Y as the sum over the terms c key of X of c times Y with each slot
    multiplied on the left by the monomial of key in that slot
    (apply_on_slot and BorelAlgebra.multiply): no term pair of X and Y is
    formed."""
    ring, alg = X.ring, X.ring.algebra
    out = Element(ring, {})
    for key, c in X.terms.items():
        Z = Y
        for slot, mono in enumerate(key):
            left = alg.element({mono: alg.field.one})
            Z = apply_on_slot(lambda y, left=left: alg.multiply(left, y), Z, slot)
            if Z.ring is alg:  # arity 1 comes back as an element of the algebra
                Z = Element(ring, {(k,): v for k, v in Z.terms.items()})
        out = out + Z.scale(c)
    return out


def _scalar(field, rng, dens):
    """A non-zero scalar: a rational multiple of one power of q, or a dense
    sum of a few of them, over a denominator drawn from dens."""
    m = field.order
    while True:
        c = field.zero
        for _ in range(rng.choice((1, 1, 2, 3))):
            a = Fraction(rng.choice((-2, -1, 1, 1, 2, 3)), rng.choice(dens))
            c = c + field.zeta_pow(rng.randrange(m)) * a
        if c:
            return c


def _random_tensor(A, arity, terms, rng, dens=(1,), top=3):
    """terms random terms over a pool of four monomials per slot, with group
    exponents in {0, 1, 2, m - 1} and PBW exponents below top, so that many
    term pairs meet on one output key."""
    m = A.m
    pools = [[A.monomial([rng.choice((0, 1, 2, m - 1)) for _ in range(A.rank)],
                         [rng.randrange(top) for _ in range(A.nroots)])
              for _ in range(4)] for _ in range(arity)]
    return A.tensor({tuple(rng.choice(pool) for pool in pools): _scalar(A.field, rng, dens)
                     for _ in range(terms)}, arity)


def _contributions(X, Y) -> Counter:
    """The number of (term pair, slot-product term) contributions per output key."""
    alg = X.ring.algebra
    count = Counter()
    for kx in X.terms:
        for ky in Y.terms:
            count.update(itertools.product(*(alg.multiply_monomials(a, b).terms
                                             for a, b in zip(kx, ky))))
    return count


def _check_tags(X):
    """Every tagged coefficient is the rational multiple of q^k it claims."""
    field = X.ring.field
    for c in X.terms.values():
        if c._mono is not None:
            a, k = c._mono
            assert c == field.zeta_pow(k) * Fraction(a, c.den)


def _assert_matches(X, Y):
    got, want = tensor_multiply(X, Y), slotwise_tensor_multiply(X, Y)
    assert got.ring is want.ring
    assert got.terms == want.terms
    assert all(got.terms.values())
    _check_tags(got)
    return got


@pytest.mark.parametrize("cartan_type, n, arities, terms, top", [
    ("A1", 3, (1, 2, 3, 4), 14, 3),
    ("A1", 5, (2, 3), 10, 3),
    ("A2", 5, (1, 2, 3), 12, 2),
])
def test_matches_reference_on_seeded_tensors(cartan_type, n, arities, terms, top):
    A = BorelAlgebra(cartan_type, n)
    rng = random.Random(7 * n + len(cartan_type))
    nonzero = 0
    reached = Counter()  # keys reached once and keys reached more than once
    for arity in arities:
        for dens in ((1,), (1, 3), (2, 9)):
            X = _random_tensor(A, arity, terms, rng, dens, top)
            Y = _random_tensor(A, arity, terms, rng, dens, top)
            nonzero += bool(_assert_matches(X, Y))
            _assert_matches(Y, X)
            reached.update(min(k, 2) for k in _contributions(X, Y).values())
    assert nonzero >= len(arities) * 2
    assert reached[1] >= 10 and reached[2] >= 10


def test_multi_term_slot_products():
    # at A2, e_2 e_1 = q e_1 e_2 - q e_12 straightens to two terms, and
    # e_2^2 e_1^2 to more; sums of them give dense slot coefficients
    A = BorelAlgebra("A2", 5)
    mono = A.monomial
    slots = [mono((0, 0), (0, 0, b)) for b in (1, 2)] + [mono((1, 3), (0, 1, 2))]
    lefts = [mono((0, 0), (a, 0, 0)) for a in (1, 2)] + [mono((2, 0), (1, 1, 0))]
    assert any(len(A.multiply_monomials(x, y).terms) > 1 for x in slots for y in lefts)
    rng = random.Random(13)
    for dens in ((1,), (3, 5)):
        X = A.tensor({(x, y): _scalar(A.field, rng, dens) for x in slots for y in lefts}, 2)
        Y = A.tensor({(y, x): _scalar(A.field, rng, dens) for x in slots for y in lefts}, 2)
        assert len(_assert_matches(X, Y).terms) > len(X.terms)


def test_slot_products_over_different_denominators():
    # no shipped straightening rule has a denominator; with e_2 e_1 =
    # (q/2) e_1 e_2 - q e_12, the two contributions to the key e_1 e_2 of
    # (e_1 + e_2)^2 carry different denominators, and their sum is put
    # over a common one
    A = BorelAlgebra("A2", 5)
    rules = A.rewrite.swaps[(2, 0)]
    A.rewrite.swaps[(2, 0)] = ((rules[0][0] * Fraction(1, 2), rules[0][1]),) + tuple(rules[1:])
    e1, e2 = A.monomial((0, 0), (1, 0, 0)), A.monomial((0, 0), (0, 0, 1))
    e1e2 = A.monomial((0, 0), (1, 0, 1))
    assert A.multiply_monomials(e2, e1).terms[e1e2].den == 2
    assert A.multiply_monomials(e1, e2).terms[e1e2].den == 1
    X = A.tensor({(e1,): A.field.one, (e2,): A.field.one}, 1)
    assert _assert_matches(X, X).terms[(e1e2,)].den == 2


def test_exact_cancellation_to_zero():
    A = BorelAlgebra("A1", 3)
    g, e, one = A.generator_g(0), A.generator_e(0), A.one
    third = A.field.from_rational(Fraction(1, 3))
    # (g x 1 - 1 x g)(1 x g + g x 1): the two g x g contributions cancel
    X = A.tensor_of_elements(g, one) - A.tensor_of_elements(one, g)
    Y = A.tensor_of_elements(one, g) + A.tensor_of_elements(g, one)
    got = _assert_matches(X.scale(third), Y)
    assert got == (A.tensor_of_elements(g * g, one) - A.tensor_of_elements(one, g * g)).scale(third)
    # (1 - g)(1 + g + ... + g^8) = 0, summed over nine term pairs per key
    geometric = A.element({mono: A.field.one for mono in A.basis() if not any(mono.pbw)})
    X = A.tensor_of_elements(one - g, e).scale(third)
    Y = A.tensor_of_elements(geometric, one)
    assert len(X.terms) * len(Y.terms) == 18
    assert _assert_matches(X, Y) == A.tensor({}, 2)
    # slot products that vanish: e^5 e^4 = 0 at m = 9
    e5 = A.monomial_element((0,), (5,))
    e4 = A.monomial_element((0,), (4,))
    assert _assert_matches(A.tensor_of_elements(e5, one), A.tensor_of_elements(e4, g)) == 0


def test_empty_operands():
    A = BorelAlgebra("A1", 5)
    zero = A.tensor({}, 3)
    X = _random_tensor(A, 3, 6, random.Random(3), (1, 5))
    for P, Q in ((zero, X), (X, zero), (zero, zero)):
        got = tensor_multiply(P, Q)
        assert got.ring is X.ring and got.terms == {}


def test_rings_must_agree():
    A, B = BorelAlgebra("A1", 3), BorelAlgebra("A1", 5)
    with pytest.raises(ValueError):
        tensor_multiply(A.tensor_power(2).one, A.tensor_power(3).one)
    with pytest.raises(ValueError):
        tensor_multiply(A.tensor_power(2).one, B.tensor_power(2).one)
