"""The exact character transform against plain-loop character sums.

The transform is a test oracle (tests/oracles.py), which builds the
idempotents from it; the verifier never calls it.  Its one reference is
the pure-Python loop below, one character sum per output cell.  Inputs mix dense
scalars with denominators and tagged rational multiples of powers of q,
so both scalar forms reach the transform.  The file also checks the
idempotents and diagonal expansions of the oracles module against
closed forms and this loop.
"""

import itertools
import random
from fractions import Fraction

import oracles as O
import pytest
from oracles import character_transform

from qborel.borel import build_borel
from qborel.twist import build_twist


def _oracle(field, grid, d, sign):
    """Non-zero out[z] = sum_a grid[a] q^(sign z.a), times m^(-d) when sign = -1."""
    size = field.order
    terms = [(a, c) for a, c in grid.items() if c]
    out = {}
    for z in itertools.product(range(size), repeat=d):
        val = field.zero
        for a, c in terms:
            e = sign * sum(zi * ai for zi, ai in zip(z, a))
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
    ("A2", 5, 1, True),
])
def test_transform_matches_loop_oracle(cartan_type, n, arity, coarse):
    # coarse: the cells lie on n (Z/m)^d, where coarse diagonal tensors live
    A = build_borel(cartan_type, n).algebra
    f = A.field
    shape = (A.m,) * (A.rank * arity)
    rng = random.Random(31 + arity)
    for _ in range(2):
        x = _sparse_grid(f, shape, 5, rng)
        if coarse:
            x = {tuple(n * a % A.m for a in idx): c for idx, c in x.items()}
        fwd = character_transform(f, x, 1)
        bwd = character_transform(f, x, -1)
        assert fwd == _oracle(f, x, len(shape), 1)
        assert bwd == _oracle(f, x, len(shape), -1)
        assert character_transform(f, fwd, -1) == x
        assert character_transform(f, bwd, 1) == x
        # every output is in canonical form, whatever path built it
        for c in itertools.chain(fwd.values(), bwd.values()):
            assert c == f.from_integers(list(c.num), c.den)


def test_transform_rejects_bad_arguments():
    f = build_borel("A1", 3).algebra.field
    grid = {(4,): f.one}
    with pytest.raises(ValueError):
        character_transform(f, grid, 0)
    with pytest.raises(ValueError):
        character_transform(f, {(9,): f.one}, 1)
    with pytest.raises(ValueError):
        character_transform(f, {(4,): f.one, (4, 1): f.one}, 1)


def _pair_oracle(hopf, expo):
    """The expansion of a fine pair table through the loop oracle."""
    A = hopf.algebra
    r = A.rank
    coords = list(itertools.product(range(A.m), repeat=r))
    grid = {coords[z] + coords[y]: A.field.zeta_pow(e)
            for z, row in enumerate(expo) for y, e in enumerate(row)}
    zero = (0,) * A.nroots
    return A.tensor({(A.monomial(idx[:r], zero), A.monomial(idx[r:], zero)): c
                     for idx, c in _oracle(A.field, grid, 2 * r, -1).items()}, 2)


def test_diagonal_pair_tensor_matches_oracle():
    # J, J^(-1) and a coarse table (pulled back) at (A1, 3)
    h13 = build_borel("A1", 3)
    J = build_twist(h13)
    E = O.twist_table(J)
    assert O.twist_tensor(J) == _pair_oracle(h13, E)
    inverse = [[-e % 9 for e in row] for row in E]
    assert O.twist_tensor(J, -1) == _pair_oracle(h13, inverse)
    rng = random.Random(41)
    expo = [[rng.randrange(9) for _ in range(3)] for _ in range(3)]
    assert O.diagonal_tensor(h13, expo) == _pair_oracle(h13, O.pullback(h13, expo))


def _closed_form_idempotent(hopf, z, step):
    """size^(-r) sum_a q^(-step z.a) g^(step a) over a in (Z/size)^r, size = m / step:
    1_z at step 1 and B_z at step n."""
    A = hopf.algebra
    size = A.m // step
    terms = {}
    for a in itertools.product(range(size), repeat=A.rank):
        c = A.field.zeta_pow(-step * sum(x * y for x, y in zip(z, a))) * Fraction(1, size**A.rank)
        terms[A.monomial([step * x for x in a], (0,) * A.nroots)] = c
    return A.element(terms)


@pytest.mark.parametrize("cartan_type, n, zs", [
    ("A1", 3, [(z,) for z in range(9)]),
    ("A2", 5, [(0, 0), (1, 2), (24, 7), (13, 0), (5, 20)]),
])
def test_idempotents_match_the_full_transform(cartan_type, n, zs):
    hopf = build_borel(cartan_type, n)
    for z in zs:
        assert O.fine_idempotent(hopf, z) == _closed_form_idempotent(hopf, z, 1)
    for beta in {tuple(zi % n for zi in z) for z in zs}:
        assert O.coarse_idempotent(hopf, beta) == _closed_form_idempotent(hopf, beta, n)
