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
from qborel.twist import build_twist, diagonal_pair_tensor


def _oracle(field, grid, sign, step):
    """out[z] = sum_a grid[a] q^(sign step z.a), times size^(-d) when sign = -1."""
    size = field.order // step
    d = grid.ndim
    terms = [(a, c) for a, c in np.ndenumerate(grid) if c]
    out = np.full(grid.shape, field.zero, dtype=object)
    for z in itertools.product(range(size), repeat=d):
        val = field.zero
        for a, c in terms:
            e = sign * step * sum(zi * ai for zi, ai in zip(z, a))
            val = val + c * field.zeta_pow(e)
        if sign < 0:
            val = val * Fraction(1, size**d)
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
    grid = np.full(shape, field.zero, dtype=object)
    for _ in range(cells):
        grid[tuple(rng.randrange(s) for s in shape)] = _random_scalar(field, rng)
    return grid


def _same(x, y):
    return x.shape == y.shape and all(a == b for a, b in zip(x.flat, y.flat))


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
        assert _same(fwd, _oracle(f, x, 1, step))
        assert _same(bwd, _oracle(f, x, -1, step))
        assert _same(character_transform(f, fwd, -1, step), x)
        assert _same(character_transform(f, bwd, 1, step), x)
        # every output is in canonical form, whatever path built it
        for c in itertools.chain(fwd.flat, bwd.flat):
            assert c == f.from_integers(list(c.num), c.den)


def test_transform_rejects_bad_arguments():
    f = build_borel("A1", 3).algebra.field
    grid = np.full((9,), f.zero, dtype=object)
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
    grid = np.empty(expo.shape, dtype=object)
    for idx, e in np.ndenumerate(expo):
        grid[idx] = A.field.zeta_pow(int(e))
    grid = grid.reshape((size,) * (2 * r))
    terms = {}
    for idx, c in np.ndenumerate(_oracle(A.field, grid, -1, step)):
        a, b = [step * x for x in idx[:r]], [step * x for x in idx[r:]]
        terms[(A.monomial(a, (0,) * A.nroots), A.monomial(b, (0,) * A.nroots))] = c
    return A.tensor(terms, 2)


def test_diagonal_pair_tensor_matches_oracle():
    h13 = build_borel("A1", 3)
    J = build_twist(h13)
    assert J.tensor() == _pair_oracle(h13, J.exponents, 1)
    assert J.inverse_tensor() == _pair_oracle(h13, (-J.exponents) % 9, 1)
    rng = np.random.default_rng(41)
    for hopf in (h13, build_borel("A1", 5), build_borel("A2", 5)):
        A = hopf.algebra
        L = A.n**A.rank
        expo = rng.integers(0, A.m, (L, L))
        assert diagonal_pair_tensor(hopf, expo, step=A.n) == _pair_oracle(hopf, expo, A.n)


def test_invert_tensor_matches_oracle_and_refuses():
    A = build_borel("A1", 3).algebra
    f = A.field
    rng = random.Random(43)
    # 10 (1 x 1) plus terms of absolute value 1/2: no character vanishes
    grid = np.full((9, 9), f.zero, dtype=object)
    grid[0, 0] = f.from_rational(10)
    for _ in range(4):
        grid[rng.randrange(9), rng.randrange(9)] = (
            f.from_rational(Fraction(rng.choice((-1, 1)), 2)) * f.zeta_pow(rng.randrange(9)))
    X = A.tensor(cartan_terms(A, grid), 2)
    inv = np.frompyfunc(lambda c: c.inv(), 1, 1)(_oracle(f, grid, 1, 1))
    got = invert_tensor(X)
    assert got == A.tensor(cartan_terms(A, _oracle(f, inv, -1, 1)), 2)
    assert tensor_multiply(X, got) == A.unit_tensor(2)
    g = A.generator_g(0)
    with pytest.raises(ValueError, match="singular"):
        invert_tensor(A.unit_tensor(3) - A.tensor_of_elements(g, g, g))
    with pytest.raises(ValueError, match="Cartan support"):
        invert_tensor(A.tensor_of_elements(A.generator_e(0), A.one))
