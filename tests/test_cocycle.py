"""Cohomological (non)triviality of the restricted associator.

The Smith normal form solver is validated against hand matrices, random
coboundaries (where the witness must be recovered), and an exhaustive
enumeration of all 2-cochains at n = 3.  The rank-1 invariant is checked
against SNF, and its certificate against wrong functionals.  The
associator's class is then shown nontrivial at every supported parameter
set through independent routes: the invariant, SNF obstruction, brute
force, and axis restriction at rank 2.
"""

import itertools
import os
import random
import subprocess
import sys

import pytest

import qborel.cocycle

from qborel.associator import closed_form_associator
from qborel.borel import build_borel
from qborel.cocycle import (
    AdditiveCochain,
    _decide_rank1_snf,
    axis_restriction,
    bar_differential,
    brute_force_decision,
    certify_coboundary_functional,
    coboundary_of,
    decide_coboundary,
    is_cocycle,
    rank1_invariant_functional,
    restrict_associator,
    smith_normal_form,
)


@pytest.fixture(scope="module")
def w13():
    return restrict_associator(closed_form_associator(build_borel("A1", 3)))


@pytest.fixture(scope="module")
def w15():
    return restrict_associator(closed_form_associator(build_borel("A1", 5)))


@pytest.fixture(scope="module")
def w17():
    return restrict_associator(closed_form_associator(build_borel("A1", 7)))


@pytest.fixture(scope="module")
def w25():
    return restrict_associator(closed_form_associator(build_borel("A2", 5)))


# -- Smith normal form -------------------------------------------------


def test_snf_hand_matrix():
    D, L, R = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    diag = [D[i][i] for i in range(3)]
    assert diag == [2, 2, 156]
    off = [D[i][j] for i in range(3) for j in range(3) if i != j]
    assert all(v == 0 for v in off)


def test_snf_rectangular_and_chain():
    rng = random.Random(41)
    for _ in range(6):
        rows, cols = rng.randrange(2, 6), rng.randrange(2, 6)
        M = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        D, L, R = smith_normal_form(M)  # LMR = D asserted internally
        diag = [D[t][t] for t in range(min(rows, cols))]
        for a, b in zip(diag, diag[1:]):
            if a and b:
                assert b % a == 0
            if a == 0:
                assert b == 0


# -- cochain calculus --------------------------------------------------


def test_bar_differential_squares_to_zero():
    rng = random.Random(17)
    mu = AdditiveCochain(3, 1, 2, [[rng.randrange(3) for _ in range(3)] for _ in range(3)])
    assert bar_differential(coboundary_of(mu)).is_zero()


def test_restriction_is_cocycle(w13, w15, w25):
    for w in (w13, w15, w25):
        assert is_cocycle(w)


def test_restriction_frozen_values(w13, w25):
    # rank 1: w(b,c,d) = -2 b when c + d carries past n, else 0
    assert w13.table[1][2][2] == (-2) % 3
    assert w13.table[2][2][2] == (-4) % 3
    assert w13.table[1][1][1] == 0
    # rank 2 spot from the frozen associator cell: exponent -5 over n=5
    b = 1 * 5 + 0
    c = 2 * 5 + 3
    d = 4 * 5 + 4
    assert w25.table[b][c][d] == (-1) % 5


# -- decisions ---------------------------------------------------------


def test_random_coboundaries_decided_trivial_with_witness():
    rng = random.Random(71)
    for n in (3, 5):
        for _ in range(4):
            mu = AdditiveCochain(
                n, 1, 2, [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            )
            w = coboundary_of(mu)
            dec = decide_coboundary(w)
            assert dec.trivial
            assert coboundary_of(dec.witness) == w


def test_zero_cochain_trivial():
    z = AdditiveCochain(3, 1, 3, _zeros(3, 3))
    dec = decide_coboundary(z)
    assert dec.trivial and coboundary_of(dec.witness).is_zero()


def test_associator_class_nontrivial_rank1(w13, w15):
    for w in (w13, w15):
        dec = decide_coboundary(w)
        assert not dec.trivial
        assert dec.obstruction["kind"] == "invariant"
        assert dec.obstruction["value"] % w.n != 0
        # the SNF route, which decide_coboundary now skips here, agrees
        snf = _decide_rank1_snf(w)
        assert not snf.trivial
        assert snf.obstruction["kind"] == "congruence"


def _zeros(L, degree):
    return [0] * L if degree == 1 else [_zeros(L, degree - 1) for _ in range(L)]


def _eye(L):
    return [[int(i == j) for j in range(L)] for i in range(L)]


def _invariant(w):
    f = rank1_invariant_functional(w.n)
    n = w.n
    return sum(f[a][b][c] * w.table[a][b][c]
               for a in range(n) for b in range(n) for c in range(n)) % n


def _standard_cocycle(n):
    return AdditiveCochain(n, 1, 3, [[[a * (b + c >= n) for c in range(n)] for b in range(n)]
                                     for a in range(n)])


def test_invariant_and_snf_agree_on_associators(w13, w15, w17):
    for w in (w13, w15, w17):
        dec = decide_coboundary(w)
        # w(b, c, d) = -2 b [c + d >= n], so the invariant is -2 mod n
        assert dec.obstruction == {"kind": "invariant", "value": (-2) % w.n, "modulus": w.n}
        snf = _decide_rank1_snf(w)
        assert not snf.trivial and snf.obstruction["kind"] == "congruence"


def test_rank1_snf_built_once_per_n(monkeypatch):
    calls = []
    real = qborel.cocycle.smith_normal_form

    def counted(M):
        calls.append(len(M))
        return real(M)

    monkeypatch.setattr(qborel.cocycle, "smith_normal_form", counted)
    zero = AdditiveCochain(5, 1, 2, _zeros(5, 2))
    for mu in (zero, AdditiveCochain(5, 1, 2, _eye(5))):
        assert _decide_rank1_snf(coboundary_of(mu)).trivial
    assert not _decide_rank1_snf(_standard_cocycle(5)).trivial
    # at most one build in this process (an earlier test may have made it)
    assert calls in ([], [125])
    assert qborel.cocycle._rank1_snf(5) is qborel.cocycle._rank1_snf(5)


def test_invariant_and_snf_agree_on_random_coboundaries():
    rng = random.Random(97)
    for n, count in ((3, 3), (5, 3), (7, 2)):
        for _ in range(count):
            mu = AdditiveCochain(
                n, 1, 2, [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            )
            w = coboundary_of(mu)
            assert not w.is_zero()
            assert _invariant(w) == 0
            dec = decide_coboundary(w)
            assert dec.trivial and coboundary_of(dec.witness) == w


def test_invariant_is_one_on_standard_cocycle():
    for n in (3, 5, 7, 11):
        w = _standard_cocycle(n)
        assert is_cocycle(w)
        dec = decide_coboundary(w)
        assert not dec.trivial
        assert dec.obstruction == {"kind": "invariant", "value": 1, "modulus": n}
    assert not _decide_rank1_snf(_standard_cocycle(5)).trivial


def test_invariant_certificate_rejects_wrong_functionals(w13, monkeypatch):
    n = 5
    certify_coboundary_functional(rank1_invariant_functional(n), n)
    # sum_k w(a, k, c) telescopes on coboundaries for every a, c: also valid
    other = _zeros(n, 3)
    for b in range(n):
        other[1][b][2] = 1
    certify_coboundary_functional(other, n)
    single = _zeros(n, 3)
    single[1][1][1] = 1
    truncated = rank1_invariant_functional(n)
    truncated[1][n - 1][1] = 0
    for wrong in (single, truncated):
        with pytest.raises(ArithmeticError):
            certify_coboundary_functional(wrong, n)
    # decide_coboundary certifies on every call
    monkeypatch.setattr(qborel.cocycle, "rank1_invariant_functional",
                        lambda k: [[row[:k] for row in plane[:k]] for plane in single[:k]])
    with pytest.raises(ArithmeticError):
        decide_coboundary(w13)


def test_proof_checks_survive_optimize_flag():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = (
        "import copy\n"
        "import qborel.borel as borel\n"
        "import qborel.cocycle as cocycle\n"
        "from qborel.cocycle import AdditiveCochain, decide_coboundary\n"
        "w = cocycle.coboundary_of(AdditiveCochain(3, 1, 2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))\n"
        "table = copy.deepcopy(w.table)\n"
        "table[1][1][1] += 1\n"
        "corrupted = AdditiveCochain(3, 1, 3, table)\n"
        "cocycle.coboundary_of = lambda mu: corrupted\n"
        "try:\n"
        "    decide_coboundary(w)\n"
        "    raise SystemExit(1)\n"
        "except ArithmeticError:\n"
        "    pass\n"
        "class WithG(borel.SubalgebraBasis):\n"
        "    def generators(self):\n"
        "        return super().generators() + [self.algebra.generator_g(0)]\n"
        "borel.SubalgebraBasis = WithG\n"
        "try:\n"
        "    borel.build_subalgebra(borel.build_borel('A1', 3))\n"
        "    raise SystemExit(2)\n"
        "except ValueError:\n"
        "    pass\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
    assert proc.returncode == 0


def test_brute_force_agrees_at_n3(w13):
    dec = brute_force_decision(w13)
    assert not dec.trivial
    mu = AdditiveCochain(3, 1, 2, [[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    bf = brute_force_decision(coboundary_of(mu))
    assert bf.trivial and coboundary_of(bf.witness) == coboundary_of(mu)


def _per_cochain_brute_force(c):
    """Reference oracle: one coboundary per candidate, in product order."""
    L = c.L
    for values in itertools.product(range(c.n), repeat=L * L):
        mu = AdditiveCochain(c.n, c.r, 2, [list(values[i:i + L]) for i in range(0, L * L, L)])
        if coboundary_of(mu) == c:
            return mu
    return None


def test_cochain_from_flat_matches_table_constructor():
    rng = random.Random(47)
    flat = [rng.randrange(-7, 8) for _ in range(27)]
    table = [[flat[9 * a + 3 * b:9 * a + 3 * b + 3] for b in range(3)] for a in range(3)]
    got = AdditiveCochain.from_flat(3, 1, 3, flat)
    want = AdditiveCochain(3, 1, 3, table)
    assert got == want and got.flat == want.flat and got.table == want.table
    assert all(0 <= v < 3 for v in got.flat)
    mu = AdditiveCochain.from_flat(3, 1, 2, [rng.randrange(3) for _ in range(9)])
    assert coboundary_of(mu) == coboundary_of(AdditiveCochain(3, 1, 2, mu.table))
    assert coboundary_of(mu).table == AdditiveCochain(3, 1, 3, coboundary_of(mu).table).table
    with pytest.raises(ValueError):
        AdditiveCochain.from_flat(3, 1, 3, flat[:-1])


def test_brute_force_matches_per_cochain_reference(w13):
    rng = random.Random(43)
    inputs = [w13, AdditiveCochain(3, 1, 3, _zeros(3, 3))]
    for _ in range(4):
        mu = AdditiveCochain(3, 1, 2, [[rng.randrange(3) for _ in range(3)] for _ in range(3)])
        inputs.append(coboundary_of(mu))
    for w in inputs:
        want = _per_cochain_brute_force(w)
        got = brute_force_decision(w)
        if want is None:
            assert not got.trivial
            assert got.obstruction == {"kind": "exhausted", "count": 3**9}
        else:
            assert got.trivial and got.witness == want


def test_brute_force_refuses_and_confirms(w13, w15, monkeypatch):
    with pytest.raises(ValueError):
        brute_force_decision(w15)
    with pytest.raises(ValueError):
        brute_force_decision(AdditiveCochain(3, 1, 2, _zeros(3, 2)))
    # a batched match that coboundary_of does not reproduce must not pass
    w = coboundary_of(AdditiveCochain(3, 1, 2, _eye(3)))
    monkeypatch.setattr(qborel.cocycle, "coboundary_of", lambda mu: w13)
    with pytest.raises(ArithmeticError):
        brute_force_decision(w)


def test_associator_class_nontrivial_rank2(w25):
    dec = decide_coboundary(w25)
    assert not dec.trivial
    assert dec.obstruction["kind"] == "axis-restriction"
    # and the restriction itself is the rank-1 multiplier -2 class
    sub = axis_restriction(w25, 0)
    assert sub.table[1][3][3] == (-2) % 5
    assert not decide_coboundary(sub).trivial


def test_dense_prime_fallback_detects_cross_class():
    # cross term a_1 . carry(b_2, c_2): every axis restriction vanishes,
    # yet the class is nontrivial, so the dense eliminator must catch it
    n, r = 3, 2
    L = n**r
    table = _zeros(L, 3)
    for a1 in range(n):
        for a2 in range(n):
            for b in range(L):
                for c in range(L):
                    b2, c2 = b % n, c % n
                    carry = 1 if b2 + c2 >= n else 0
                    table[a1 * n + a2][b][c] = a1 * carry % n
    w = AdditiveCochain(n, r, 3, table)
    assert is_cocycle(w)
    for axis in range(r):
        assert decide_coboundary(axis_restriction(w, axis)).trivial
    dec = decide_coboundary(w)
    assert not dec.trivial and dec.obstruction["kind"] == "rank"


def test_dense_prime_fallback_recovers_witness():
    rng = random.Random(5)
    n, r = 3, 2
    L = n**r
    mu = AdditiveCochain(n, r, 2, [[rng.randrange(n) for _ in range(L)] for _ in range(L)])
    # rank-2 cochain whose axis restrictions are trivial by construction
    w = coboundary_of(mu)
    dec = decide_coboundary(w)
    assert dec.trivial
    assert coboundary_of(dec.witness) == w
