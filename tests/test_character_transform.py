"""The exact character transform against plain-loop character sums.

The oracle below is the pure-Python loop the package used before the
transform existed (one character sum per output cell), written over a
grid with an explicit step so it also covers the coarse idempotents.
Inputs mix dense scalars with denominators and tagged rational multiples
of powers of q, so both scalar forms reach the transform.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from qborel.algebra import cartan_terms, character_transform, invert_tensor, tensor_multiply
from qborel.borel import build_borel
from qborel.twist import bold_idempotent, build_twist, diagonal_pair_tensor, primitive_idempotent


def _oracle(field, grid, d, sign, step):
    """Non-zero out[z] = sum_a grid[a] q^(sign step z.a), times size^(-d) when sign = -1."""
    size = field.order // step
    terms = [(a, c) for a, c in grid.items() if c]
    out = {}
    for z in itertools.product(range(size), repeat=d):
        val = field.zero
        for a, c in terms:
            e = sign * step * sum(zi * ai for zi, ai in zip(z, a))
            val = val + c * field.zeta_pow(e)
        if sign < 0:
            val = val * Fraction(1, size**d)
        if val:
            out[z] = val
    return out


def _random_scalar(field, rng):
    if rng.random() < 0.5:
        # tagged: a rational multiple of one power of q
        a = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 12))
        return field.from_rational(a) * field.zeta_pow(rng.randrange(field.order))
    num = [rng.randint(-50, 50) for _ in range(field.degree)]
    return field.from_integers(num, rng.randint(1, 30))


def _sparse_grid(field, shape, cells, rng):
    grid = {}
    for _ in range(cells):
        grid[tuple(rng.randrange(s) for s in shape)] = _random_scalar(field, rng)
    return {idx: c for idx, c in grid.items() if c}


@pytest.mark.parametrize("cartan_type,n,arity,coarse", [
    ("A1", 3, 1, False),
    ("A1", 3, 2, False),
    ("A1", 3, 3, False),
    ("A2", 5, 2, True),
])
def test_transform_matches_loop_oracle(cartan_type, n, arity, coarse):
    A = build_borel(cartan_type, n).algebra
    f = A.field
    step = n if coarse else 1
    shape = (A.m // step,) * (A.rank * arity)
    rng = random.Random(31 + arity)
    for _ in range(2):
        x = _sparse_grid(f, shape, 5, rng)
        fwd = character_transform(f, x, 1, step)
        bwd = character_transform(f, x, -1, step)
        assert fwd == _oracle(f, x, len(shape), 1, step)
        assert bwd == _oracle(f, x, len(shape), -1, step)
        assert character_transform(f, fwd, -1, step) == x
        assert character_transform(f, bwd, 1, step) == x
        # every output is in canonical form, whatever path built it
        for c in itertools.chain(fwd.values(), bwd.values()):
            assert c == f.from_integers(list(c.num), c.den)


def test_transform_rejects_bad_arguments():
    f = build_borel("A1", 3).algebra.field
    grid = {(4,): f.one}
    with pytest.raises(ValueError):
        character_transform(f, grid, 0)
    with pytest.raises(ValueError):
        character_transform(f, grid, 1, step=2)
    with pytest.raises(ValueError):
        character_transform(f, grid, 1, step=3)


def _pair_oracle(hopf, expo, step):
    """diagonal_pair_tensor's expansion through the loop oracle."""
    A = hopf.algebra
    r = A.rank
    size = A.m // step
    coords = list(itertools.product(range(size), repeat=r))
    grid = {coords[z] + coords[y]: A.field.zeta_pow(e)
            for z, row in enumerate(expo) for y, e in enumerate(row)}
    terms = {}
    for idx, c in _oracle(A.field, grid, 2 * r, -1, step).items():
        a, b = [step * x for x in idx[:r]], [step * x for x in idx[r:]]
        terms[(A.monomial(a, (0,) * A.nroots), A.monomial(b, (0,) * A.nroots))] = c
    return A.tensor(terms, 2)


def test_diagonal_pair_tensor_matches_oracle():
    h13 = build_borel("A1", 3)
    J = build_twist(h13)
    assert J.tensor() == _pair_oracle(h13, J.exponents, 1)
    assert J.inverse_tensor() == _pair_oracle(h13, [[-e % 9 for e in row] for row in J.exponents], 1)
    rng = np.random.default_rng(41)
    for hopf in (h13, build_borel("A1", 5), build_borel("A2", 5)):
        A = hopf.algebra
        L = A.n**A.rank
        expo = rng.integers(0, A.m, (L, L)).tolist()
        assert diagonal_pair_tensor(hopf, expo, step=A.n) == _pair_oracle(hopf, expo, A.n)


def test_invert_tensor_matches_oracle_and_refuses():
    A = build_borel("A1", 3).algebra
    f = A.field
    rng = random.Random(43)
    # 10 (1 x 1) plus terms of absolute value 1/2: no character vanishes
    grid = {(0, 0): f.from_rational(10)}
    for _ in range(4):
        grid[rng.randrange(9), rng.randrange(9)] = (
            f.from_rational(Fraction(rng.choice((-1, 1)), 2)) * f.zeta_pow(rng.randrange(9)))
    X = A.tensor(cartan_terms(A, grid), 2)
    diag = _oracle(f, grid, 2, 1, 1)
    assert len(diag) == 81
    inv = {idx: c.inv() for idx, c in diag.items()}
    got = invert_tensor(X)
    assert got == A.tensor(cartan_terms(A, _oracle(f, inv, 2, -1, 1)), 2)
    assert tensor_multiply(X, got) == A.unit_tensor(2)
    g = A.generator_g(0)
    with pytest.raises(ValueError, match="singular"):
        invert_tensor(A.unit_tensor(3) - A.tensor_of_elements(g, g, g))
    with pytest.raises(ValueError, match="Cartan support"):
        invert_tensor(A.tensor_of_elements(A.generator_e(0), A.one))


def _transformed_indicator(hopf, z, step):
    """The idempotent as the full sign -1 transform of the indicator grid of z."""
    A = hopf.algebra
    size = A.m // step
    grid = {tuple(zi % size for zi in z): A.field.one}
    terms = cartan_terms(A, character_transform(A.field, grid, -1, step), step)
    return A.element({mono: c for (mono,), c in terms.items()})


@pytest.mark.parametrize("cartan_type, n, zs", [
    ("A1", 3, [(z,) for z in range(9)]),
    ("A2", 5, [(0, 0), (1, 2), (24, 7), (13, 0), (5, 20)]),
])
def test_idempotents_match_the_full_transform(cartan_type, n, zs):
    hopf = build_borel(cartan_type, n)
    for z in zs:
        want = _transformed_indicator(hopf, z, 1)
        got = primitive_idempotent(hopf, z)
        assert got == want
        assert list(got.terms) == list(want.terms)
    for beta in {tuple(zi % n for zi in z) for z in zs}:
        assert bold_idempotent(hopf, beta) == _transformed_indicator(hopf, beta, n)
