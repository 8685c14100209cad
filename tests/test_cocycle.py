"""Cohomological (non)triviality of the restricted associator.

The class of the associator's restriction is read off its carry tables:
each pair (i, j) has a functional f_ij that reads the class coordinate
c_ij, certified on every call, and a class-0 table set gives a witness.
On seeded tables c_ij carry + dmu_ij the values must equal c_ij and the
verdict must match the general solver of dmu = w (mod n) in
tests/oracles.py, or the coboundary of the witness.  That solver is the
one reference for the class: like decide_coboundary it certifies every
verdict, a witness by its coboundary and a functional by its vanishing
on every coboundary, so a second decider would add no proof.  It is
validated on random coboundaries (where the witness must be recovered),
on the standard cocycle and at composite n, and a corrupted witness or
functional must be refused.  coboundary_of, which both certificates rest
on, is checked against np_bar_differential, the array kernel of d in every
degree (both in tests/oracles.py), which also shows that the restricted
associator and the standard and cross cochains are cocycles.  The
associator's class is then shown nontrivial at every supported parameter
set by the pair functionals and by the solver."""

import itertools
import random
from types import SimpleNamespace

import pytest

import qborel.cocycle

from qborel.associator import Associator, closed_form_associator
from qborel.borel import build_borel
from qborel.cocycle import (
    AdditiveCochain,
    certified_value,
    certify_coboundary_functional,
    decide_coboundary,
    pair_functional,
    restrict_associator,
)
from qborel.twist import coord_table

from oracles import (FlatCochain, _functional_decision, _witness_decision, add_table,
                     coboundary_of, np_bar_differential, solve_coboundary, solve_mod)


@pytest.fixture(scope="module")
def a13():
    return closed_form_associator(build_borel("A1", 3))


@pytest.fixture(scope="module")
def a15():
    return closed_form_associator(build_borel("A1", 5))


@pytest.fixture(scope="module")
def a25():
    return closed_form_associator(build_borel("A2", 5))


@pytest.fixture(scope="module")
def w13(a13):
    return restrict_associator(a13)


@pytest.fixture(scope="module")
def w15(a15):
    return restrict_associator(a15)


@pytest.fixture(scope="module")
def w25(a25):
    return restrict_associator(a25)


# -- cochain calculus --------------------------------------------------


def test_restriction_frozen_values(w13, w25):
    # rank 1: w(b,c,d) = -2 b when c + d carries past n, else 0
    assert w13.entry(1, 2, 2) == (-2) % 3
    assert w13.entry(2, 2, 2) == (-4) % 3
    assert w13.entry(1, 1, 1) == 0
    # rank 2 spot from the frozen associator cell: exponent -5 over n=5
    b = 1 * 5 + 0
    c = 2 * 5 + 3
    d = 4 * 5 + 4
    assert w25.entry(b, c, d) == (-1) % 5


# -- decisions ---------------------------------------------------------


def test_random_coboundaries_decided_trivial_with_witness():
    rng = random.Random(71)
    for n in (3, 5, 7):
        for _ in range(4):
            mu = FlatCochain(n, 1, 2, [rng.randrange(n) for _ in range(n * n)])
            w = coboundary_of(mu)
            assert _invariant(w) == 0
            dec = solve_coboundary(w)
            assert dec.trivial
            assert coboundary_of(dec.witness) == w


def test_zero_cochain_trivial():
    z = _zero(3, 3)
    dec = solve_coboundary(z)
    assert dec.trivial and not any(coboundary_of(dec.witness).flat)
    # zero carry tables are decided trivial from their normal form, mu = 0
    hopf = build_borel("A1", 3)
    dec = decide_coboundary(Associator(hopf, [[[[0] * 3 for _ in range(3)]]]))
    assert dec.trivial and not any(dec.witness.flat)


def test_associator_class_nontrivial_rank1(a13, a15, w13, w15):
    a17 = closed_form_associator(build_borel("A1", 7))
    for assoc, w in ((a13, w13), (a15, w15), (a17, restrict_associator(a17))):
        dec = decide_coboundary(assoc)
        # w(b, c, d) = -2 b [c + d >= n], so the invariant is -2 mod n
        assert dec.obstruction == {"kind": "invariant", "value": (-2) % w.n, "modulus": w.n}
        # the solver, which decide_coboundary skips here, agrees
        _assert_certified_functional(w, solve_coboundary(w))


def test_rank1_decision_reads_only_the_invariant_cells(monkeypatch):
    # a nontrivial rank-1 class is decided from the n cells of the
    # invariant: the (n^3)-cell table of the restriction is never formed
    assoc = closed_form_associator(build_borel("A1", 7))
    reads, real = [], Associator.exponent
    monkeypatch.setattr(Associator, "exponent",
                        lambda self, *cell: reads.append(cell) or real(self, *cell))
    dec = decide_coboundary(assoc)
    assert not dec.trivial and dec.obstruction["kind"] == "invariant"
    assert sorted(reads) == [(1, k, 1) for k in range(7)]


def _zero(n, degree):
    return AdditiveCochain.from_cells(n, 1, degree, lambda *index: 0)


def _eye(n):
    """The rank-1 2-cochain that is 1 on the diagonal and 0 elsewhere."""
    return AdditiveCochain.from_cells(n, 1, 2, lambda a, b: int(a == b))


def _invariant(w):
    return sum(w.entry(1, k, 1) for k in range(w.n)) % w.n


def _standard_cocycle(n):
    return AdditiveCochain.from_cells(n, 1, 3, lambda a, b, c: a * (b + c >= n))


def _cross_cochain():
    return AdditiveCochain.from_cells(3, 2, 3, lambda a, b, c: a // 3 * (b % 3 + c % 3 >= 3))


def _carry(n):
    return [[int(x + y >= n) for y in range(n)] for x in range(n)]


def _table_associator(hopf, lambdas):
    """The associator held as the carry tables n lambda_ij."""
    n = hopf.algebra.n
    return Associator(hopf, [[[[n * v for v in row] for row in lam] for lam in line]
                             for line in lambdas])


def _stand_in(n, r):
    """The n, m and rank that Associator reads, for an (n, r) no Cartan type admits."""
    return SimpleNamespace(algebra=SimpleNamespace(n=n, m=n * n, rank=r))


def _pair_order(r):
    """The pairs (i, i) in increasing i, then i != j in row-major order."""
    return [(i, i) for i in range(r)] + [(i, j) for i, j in itertools.product(range(r), repeat=2)
                                         if i != j]


def _pair_values(w):
    return [[certified_value(w, pair_functional(w.n, w.r, i, j)) for j in range(w.r)]
            for i in range(w.r)]


def _random_coboundary(rng, n, r=1):
    L = n**r
    return coboundary_of(FlatCochain(n, r, 2, [rng.randrange(n) for _ in range(L * L)]))


def _assert_certified_functional(w, dec):
    """dec is nontrivial with a functional that passes the certificate and is non-zero on w."""
    assert not dec.trivial and dec.witness is None
    ob = dec.obstruction
    assert ob["kind"] == "functional" and ob["modulus"] == w.n
    assert all(0 < x < w.n for _, x in ob["cells"])
    certify_coboundary_functional(ob["cells"], w.n, w.r)
    assert ob["value"] == sum(x * w.flat[cell] for cell, x in ob["cells"]) % w.n != 0


def test_invariant_is_one_on_standard_cocycle():
    # the standard cocycle a [b + c >= n] is the restriction of the carry
    # table n carry
    for n in (3, 5, 7, 11):
        w = _standard_cocycle(n)
        assoc = _table_associator(build_borel("A1", n), [[_carry(n)]])
        assert restrict_associator(assoc).flat == w.flat
        dec = decide_coboundary(assoc)
        assert not dec.trivial
        assert dec.obstruction == {"kind": "invariant", "value": 1, "modulus": n}


def _solve_mod_is_certified(rows, rhs, n, width):
    """Run solve_mod and check its answer directly; True when it found a solution."""
    x, f = solve_mod(rows, rhs, n, width)
    if f is None:
        assert len(x) == width
        for row, b in zip(rows, rhs):
            assert sum(v * x[j] for j, v in row.items()) % n == b % n
        return True
    assert x is None and f and all(0 < y < n for y in f.values())
    for j in range(width):
        assert sum(y * rows[i].get(j, 0) for i, y in f.items()) % n == 0
    assert sum(y * rhs[i] for i, y in f.items()) % n != 0
    return False


def test_solve_mod_certifies_random_systems():
    # entries carrying factors of p force pivots of positive p-adic valuation
    rng = random.Random(59)
    for n in (7, 9, 12, 27, 45):
        verdicts = set()
        for _ in range(40):
            height, width = rng.randrange(1, 7), rng.randrange(1, 6)
            rows = [{j: rng.randrange(n) * rng.choice([1, 2, 3, 4, 5, 9]) for j in range(width)
                     if rng.random() < 0.7} for _ in range(height)]
            if rng.random() < 0.5:
                x0 = [rng.randrange(n) for _ in range(width)]
                rhs = [sum(v * x0[j] for j, v in row.items()) for row in rows]
            else:
                rhs = [rng.randrange(n) for _ in range(height)]
            verdicts.add(_solve_mod_is_certified(rows, rhs, n, width))
        assert verdicts == {True, False}
    # 3 x = 1 has no solution mod 9; the pivot 3 itself blocks
    assert solve_mod([{0: 3}], [1], 9, 1) == (None, {0: 3})
    assert solve_mod([{0: 3}], [6], 9, 1) == ([2], None)


def test_solver_decides_composite_rank1():
    # n = 9 eliminates over Z/9 with non-unit pivots; n = 15 joins Z/3 and Z/5
    rng = random.Random(29)
    for n, count in ((9, 2), (15, 1)):
        for _ in range(count):
            w = _random_coboundary(rng, n)
            dec = solve_coboundary(w)
            assert dec.trivial and coboundary_of(dec.witness) == w
        w = _standard_cocycle(n)
        _assert_certified_functional(w, solve_coboundary(w))
        # the class of the standard cocycle is a unit, so is w plus any coboundary
        moved = FlatCochain(
            n, 1, 3, [x + y for x, y in zip(w.flat, _random_coboundary(rng, n).flat)])
        _assert_certified_functional(moved, solve_coboundary(moved))


def test_corrupted_witness_or_functional_is_refused():
    n = 9
    w = coboundary_of(_eye(n))
    mu = solve_coboundary(w).witness.flat
    assert _witness_decision(w, mu).trivial
    bad_mu = mu.copy()
    bad_mu[n + 2] += 1
    with pytest.raises(ArithmeticError, match="witness"):
        _witness_decision(w, bad_mu)
    w = _standard_cocycle(n)
    cells = solve_coboundary(w).obstruction["cells"]
    assert not _functional_decision(w, cells).trivial
    # one coefficient moved: the functional no longer vanishes on every coboundary
    bad_cells = [cell.copy() for cell in cells]
    bad_cells[0][1] += 1
    with pytest.raises(ArithmeticError, match="unit 2-cochain"):
        _functional_decision(w, bad_cells)
    # a valid functional that reads 0 on the cochain proves nothing
    zero = coboundary_of(_eye(n))
    with pytest.raises(ArithmeticError, match="vanish on the cochain"):
        _functional_decision(zero, cells)


def test_invariant_certificate_rejects_wrong_functionals(a13, monkeypatch):
    n = 5

    def cell(a, b, c):
        return (a * n + b) * n + c

    assert pair_functional(n, 1, 0, 0) == [[cell(1, k, 1), 1] for k in range(n)]
    certify_coboundary_functional(pair_functional(n, 1, 0, 0), n, 1)
    # sum_k w(a, k, c) telescopes on coboundaries for every a, c: also valid
    certify_coboundary_functional([(cell(1, b, 2), 1) for b in range(n)], n, 1)
    single = [(cell(1, 1, 1), 1)]
    truncated = [(i, x) for i, x in pair_functional(n, 1, 0, 0) if i != cell(1, n - 1, 1)]
    for wrong in (single, truncated):
        with pytest.raises(ArithmeticError):
            certify_coboundary_functional(wrong, n, 1)
    # decide_coboundary certifies on every call
    monkeypatch.setattr(qborel.cocycle, "pair_functional",
                        lambda k, r, i, j: [[(k + 1) * k + 1, 1]])
    with pytest.raises(ArithmeticError):
        decide_coboundary(a13)


def test_pair_functionals_vanish_on_coboundaries():
    # each f_ij passes the certificate, and reads 0 on random coboundaries
    # formed by coboundary_of; one coefficient moved is refused
    rng = random.Random(23)
    for n, r in ((3, 2), (5, 2)):
        mus = [FlatCochain(n, r, 2, [rng.randrange(n) for _ in range(n ** (2 * r))])
               for _ in range(2)]
        for i, j in _pair_order(r):
            cells = pair_functional(n, r, i, j)
            assert len(cells) == (n if i == j else 3 * n)
            certify_coboundary_functional(cells, n, r)
            if n == 3:
                for mu in mus:
                    dmu = coboundary_of(mu)
                    assert sum(x * dmu.flat[cell] for cell, x in cells) % n == 0
            moved = [cell.copy() for cell in cells]
            moved[rng.randrange(len(moved))][1] += 1
            with pytest.raises(ArithmeticError, match="unit 2-cochain"):
                certify_coboundary_functional(moved, n, r)


def test_class_zero_table_that_is_no_cocycle_is_refused():
    # lambda(1, 2) = 1 alone has class sum_k lambda(k, 1) = 0, but it is not
    # dmu for any mu: decide_coboundary names the table and the cell
    lam = [[0, 0, 0], [0, 0, 1], [0, 0, 0]]
    assoc = _table_associator(build_borel("A1", 3), [[lam]])
    with pytest.raises(ArithmeticError, match=r"carry table \(0, 0\).*\(1, 2\)"):
        decide_coboundary(assoc)


def test_cochain_from_flat_matches_from_cells():
    # FlatCochain reduces its list mod n and reads it cell by cell in
    # row-major order, as the cochain of the same cell function does
    rng = random.Random(47)
    flat = [rng.randrange(-7, 8) for _ in range(27)]
    got = FlatCochain(3, 1, 3, flat)
    want = AdditiveCochain.from_cells(3, 1, 3, lambda a, b, c: flat[9 * a + 3 * b + c])
    assert got == want and got.flat == want.flat
    cells = list(itertools.product(range(3), repeat=3))
    assert [got.entry(*index) for index in cells] == [want.entry(*index) for index in cells]
    assert all(0 <= v < 3 for v in got.flat)
    mu = FlatCochain(3, 1, 2, [rng.randrange(3) for _ in range(9)])
    assert coboundary_of(mu) == coboundary_of(AdditiveCochain.from_cells(3, 1, 2, mu.entry))
    with pytest.raises(ValueError):
        FlatCochain(3, 1, 3, flat[:-1])


def test_add_table_is_the_coordinatewise_sum():
    for size, r in ((3, 1), (7, 1), (5, 2)):
        coords = coord_table(size, r)
        assert [[coords[s] for s in row] for row in add_table(size, r)] == [
            [tuple((a + b) % size for a, b in zip(x, y)) for y in coords] for x in coords]


@pytest.mark.parametrize("n, r", [(3, 1), (7, 1), (5, 2)])
def test_bar_differential_matches_array_kernel(n, r):
    # coboundary_of, at rank 1 and rank 2, against the array kernel of d
    rng = random.Random(3)
    mu = FlatCochain(n, r, 2, [rng.randrange(n) for _ in range(n ** (2 * r))])
    assert np_bar_differential(mu).ravel().tolist() == coboundary_of(mu).flat


def test_bar_differential_squares_to_zero():
    # the array kernel finds d(dmu) = 0 on the random 2-cochains above
    for n, r in ((3, 1), (7, 1), (5, 2)):
        rng = random.Random(3)
        mu = FlatCochain(n, r, 2, [rng.randrange(n) for _ in range(n ** (2 * r))])
        assert not np_bar_differential(coboundary_of(mu)).any()


def test_standard_and_cross_cochains_are_cocycles():
    # the standard generator a [b + c >= n] of H^3(Z/n; Z/n), and the cross
    # term a_1 [b_2 + c_2 >= 3] on (Z/3)^2 of the dense prime fallback
    for n in (3, 5, 7, 11):
        assert not np_bar_differential(_standard_cocycle(n)).any()
    assert not np_bar_differential(_cross_cochain()).any()


def test_restriction_is_cocycle(w13, w15, w25):
    # the verifier proves dw = 0 by the pentagon; here d on 3-cochains is
    # the array kernel
    for w in (w13, w15, w25):
        assert not np_bar_differential(w).any()


def test_associator_class_nontrivial_rank2(a25, w25):
    dec = decide_coboundary(a25)
    assert not dec.trivial
    assert dec.obstruction == {"kind": "axis-restriction", "axis": 0,
                               "inner": {"kind": "invariant", "value": (-2) % 5, "modulus": 5}}
    # axis 0 alone carries the rank-1 multiplier -2 class: w(d_0, 3 d_0, 3 d_0)
    assert w25.entry(5, 15, 15) == (-2) % 5
    # c_ii = -2 = a_ii (-1), and c_ij = 1 = a_ij (-1) for the entries a_01 = a_10 = -1
    assert _pair_values(w25) == [[3, 1], [1, 3]]


def test_dense_prime_fallback_detects_cross_class():
    # the cross term w(a, b, c) = a_1 [b_2 + c_2 >= 3] on (Z/3)^2, a cocycle:
    # both diagonal pairs read 0, yet the class is nontrivial, so the solver
    # must catch it, and so must the cross pair (0, 1) when w is held as the
    # carry table lambda_01 = carry
    w = _cross_cochain()
    assert _pair_values(w) == [[0, 1], [0, 0]]
    _assert_certified_functional(w, solve_coboundary(w))
    zero = [[0] * 3 for _ in range(3)]
    assoc = _table_associator(_stand_in(3, 2), [[zero, _carry(3)], [zero, zero]])
    assert restrict_associator(assoc).flat == w.flat
    dec = decide_coboundary(assoc)
    assert dec.obstruction == {"kind": "functional", "modulus": 3, "value": 1,
                               "cells": pair_functional(3, 2, 0, 1)}
    _assert_certified_functional(w, dec)


def test_dense_prime_fallback_recovers_witness():
    rng = random.Random(5)
    n, r = 3, 2
    L = n**r
    mu = FlatCochain(n, r, 2, [rng.randrange(n) for _ in range(L * L)])
    # a rank-2 coboundary: every pair reads 0 on it
    w = coboundary_of(mu)
    assert _pair_values(w) == [[0, 0], [0, 0]]
    dec = solve_coboundary(w)
    assert dec.trivial
    assert coboundary_of(dec.witness) == w


@pytest.mark.parametrize("cartan_type, n", [("A1", 3), ("A1", 5), ("A1", 9), ("A2", 5), ("A2", 7)])
def test_decision_reads_the_class_of_seeded_tables(cartan_type, n):
    # tables lambda_ij = c_ij carry + dmu_ij, mu_ij(0) = 0, every other set
    # of them with every c_ij = 0: the pair values are the c_ij, and the
    # verdict matches the solver at rank 1 and the coboundary of the
    # witness where its (n^r)^3 table is small
    rng = random.Random(1000 * len(cartan_type) + n)
    hopf = build_borel(cartan_type, n)
    r = hopf.algebra.rank
    for trial in range(6):
        classes = [[rng.randrange(n) if trial % 2 else 0 for _ in range(r)] for _ in range(r)]
        lambdas = []
        for row in classes:
            lambdas.append([])
            for c in row:
                mu = [0] + [rng.randrange(n) for _ in range(n - 1)]
                lambdas[-1].append([[c * (x + y >= n) + mu[x] + mu[y] - mu[(x + y) % n]
                                     for y in range(n)] for x in range(n)])
        assoc = _table_associator(hopf, lambdas)
        w = restrict_associator(assoc)
        assert _pair_values(w) == classes
        dec = decide_coboundary(assoc)
        first = next(((i, j) for i, j in _pair_order(r) if classes[i][j]), None)
        assert dec.trivial == (first is None)
        if first is not None:
            i, j = first
            inner = {"kind": "invariant", "value": classes[i][j], "modulus": n}
            assert dec.obstruction == (
                inner if r == 1 else
                {"kind": "axis-restriction", "axis": i, "inner": inner} if i == j else
                {"kind": "functional", "modulus": n, "value": classes[i][j],
                 "cells": pair_functional(n, r, i, j)})
        if r == 1:
            assert solve_coboundary(w).trivial == dec.trivial
        if dec.trivial and (r == 1 or n == 5):
            assert coboundary_of(dec.witness) == w
