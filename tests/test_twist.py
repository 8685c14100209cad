"""Idempotent calculus, the diagonal twist, and the twisted coproduct.

Frozen expectations here were derived by hand from the defining sums:
the rank-1 fine conjugation exponents reduce to 2(y mod n) on the left
pattern and to -2nz exactly when y = n-1 (mod n) on the right pattern.
Large grids are checked through exact integer exponent arrays; small
grids additionally through full cyclotomic tensor arithmetic on the
group-basis expansions of the oracles module, so the two routes validate
each other.  The slot-by-slot expansion those rest on is checked against
one character sum per cell (test_diagonal_pair_tensor_matches_oracle).
The step tables are read off oracles.np_twist_table, the full table of J
from its definition.
"""

import itertools
import random
import re

import oracles as O
import pytest

import qborel.twist
from qborel.algebra import apply_on_slot, tensor_multiply
from qborel.associator import closed_form_associator
from qborel.borel import SubalgebraBasis, build_borel
from qborel.report import run_checks
from qborel.twist import (
    build_twist,
    coord_table,
    flat_index,
    membership_in_subalgebra_tensor,
    step_tables,
    twisted_generator_bold,
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
    ids = [O.fine_idempotent(h13, (z,)) for z in range(9)]
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
        pz = O.fine_idempotent(h13, (z,))
        assert pz * g == pz.scale(A.field.zeta_pow(z))
        assert g * pz == pz * g


def test_primitive_idempotents_a1n5_sampled(h15):
    A = h15.algebra
    rng = random.Random(11)
    total = A.element({})
    for z in range(25):
        total = total + O.fine_idempotent(h15, (z,))
    assert total == A.one
    g = A.generator_g(0)
    for _ in range(8):
        z, w = rng.randrange(25), rng.randrange(25)
        pz = O.fine_idempotent(h15, (z,))
        pw = O.fine_idempotent(h15, (w,))
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
    assert p1 * p2 == O.fine_idempotent(h25, (1, 2))
    assert p1 * p1 == p1
    q1 = _univariate_idempotent(h25, 0, 3)
    assert p1 * q1 == A.element({})
    pz = O.fine_idempotent(h25, (1, 2))
    for i, zi in enumerate((1, 2)):
        assert pz * A.generator_g(i) == pz.scale(A.field.zeta_pow(zi))


def test_shift_identity_moves_e_past_idempotent(h13, h25):
    # 1_z e_i = e_i 1_(z - d_i), equivalently e_i 1_z = 1_(z + d_i) e_i
    A = h13.algebra
    e = A.generator_e(0)
    for z in range(9):
        lhs = e * O.fine_idempotent(h13, (z,))
        rhs = O.fine_idempotent(h13, (z + 1,)) * e
        assert lhs == rhs
    B = h25.algebra
    rng = random.Random(5)
    for i in range(2):
        ei = B.generator_e(i)
        for _ in range(3):
            z = (rng.randrange(25), rng.randrange(25))
            shifted = tuple(zj + (1 if j == i else 0) for j, zj in enumerate(z))
            assert ei * O.fine_idempotent(h25, z) == O.fine_idempotent(h25, shifted) * ei


# -- coarse idempotents ------------------------------------------------


def test_bold_idempotent_a1n3(h13):
    A = h13.algebra
    total = A.element({})
    bolds = [O.coarse_idempotent(h13, (b,)) for b in range(3)]
    for b, Bb in enumerate(bolds):
        total = total + Bb
        for mono in Bb.terms:
            assert mono.group[0] % 3 == 0 and not any(mono.pbw)
        assert Bb * A.monomial_element((3,), (0,)) == Bb.scale(A.field.zeta_pow(3 * b))
        for c, Bc in enumerate(bolds):
            assert Bb * Bc == (Bb if b == c else A.element({}))
    assert total == A.one


def test_bold_idempotent_a2_spot(h25):
    A = h25.algebra
    B1 = O.coarse_idempotent(h25, (1, 3))
    assert B1 * B1 == B1
    for mono in B1.terms:
        assert all(a % 5 == 0 for a in mono.group)
    for i, b in enumerate((1, 3)):
        gn = A.monomial_element(tuple(5 if j == i else 0 for j in range(2)), (0, 0, 0))
        assert B1 * gn == B1.scale(A.field.zeta_pow(5 * b))
    B2 = O.coarse_idempotent(h25, (0, 3))
    assert B1 * B2 == A.element({})


def test_coproduct_splits_bold_idempotent(h13, h25):
    # Delta(B_b) = sum over c + d = b of B_c x B_d, the splitting the coarse
    # calculus of pentagon_check and quasi_coassoc_check rests on
    for hopf, bs in ((h13, [(b,) for b in range(3)]), (h25, [(1, 3), (0, 0), (4, 2)])):
        A = hopf.algebra
        n = A.n
        for b in bs:
            want = A.tensor({}, 2)
            for c in coord_table(n, A.rank):
                d = tuple((x - y) % n for x, y in zip(b, c))
                Bc, Bd = O.coarse_idempotent(hopf, c), O.coarse_idempotent(hopf, d)
                want = want + A.tensor_of_elements(Bc, Bd)
            assert hopf.coproduct(O.coarse_idempotent(hopf, b)) == want


def _pair_oracle(hopf, expo):
    """The expansion of a fine pair table, sum q^expo[z][w] 1_z x 1_w, by
    one character sum per cell: m^(-2r) sum_(z, w) q^(expo[z][w] - z.a - w.b)
    at g^a x g^b."""
    A = hopf.algebra
    coords, zero = coord_table(A.m, A.rank), (0,) * A.nroots
    scale, zeta_pow = A.field.from_rational(A.m ** (2 * A.rank)).inv(), A.field.zeta_pow
    out = {}
    for a, b in itertools.product(coords, repeat=2):
        c = sum((zeta_pow(e - sum(x * y for x, y in zip(z + w, a + b)))
                 for z, row in zip(coords, expo) for w, e in zip(coords, row)), A.field.zero)
        if c:
            out[(A.monomial(a, zero), A.monomial(b, zero))] = c * scale
    return A.tensor(out, 2)


def test_diagonal_pair_tensor_matches_oracle(h13, j13):
    # J, J^(-1) and a coarse table (pulled back) at (A1, 3), expanded slot
    # by slot over the idempotents, against one character sum per cell
    J = j13
    E = O.twist_table(J)
    assert O.twist_tensor(J) == _pair_oracle(h13, E)
    inverse = [[-e % 9 for e in row] for row in E]
    assert O.twist_tensor(J, -1) == _pair_oracle(h13, inverse)
    rng = random.Random(41)
    expo = [[rng.randrange(9) for _ in range(3)] for _ in range(3)]
    assert O.diagonal_tensor(h13, expo) == _pair_oracle(h13, O.pullback(h13, expo))


# -- the twist ---------------------------------------------------------


def test_twist_exponent_frozen_a1n3(h13, j13):
    E = O.twist_table(j13)
    assert j13.tables == [[E[1]]] and O.step_rows(j13) == [E[1]]
    assert E[1][3] == (-6) % 9
    assert E[2][8] == (-24) % 9
    for z in range(9):
        for y in range(3):
            assert E[z][y] == 0
    assert not any(E[0]) and not any(row[0] for row in E)


def test_twist_exponent_a2_spot(h25, j25):
    E = j25.exponent
    # -( (1,0) . cartan . (5,0) ) = -10
    assert E((1, 0), (7, 3)) == (-10) % 25
    # defects (5, 5); (2,3).cartan = (1, 4); -(1*5 + 4*5) = -25 = 0
    assert E((2, 3), (6, 9)) == 0
    # defects (5, 0); -(1*5 + 4*0) = -5
    assert E((2, 3), (6, 4)) == (-5) % 25
    # one step table per pair: s_kj(y) = -a_kj (y - y mod 5)
    assert j25.tables[0][1][7] == 5 and j25.tables[1][1][7] == (-10) % 25


@pytest.mark.parametrize("cartan_type, n", [("A1", 3), ("A1", 7), ("A2", 5)])
def test_twist_tables_match_array_kernel(cartan_type, n):
    # the step table s_kj is the definition's full table on the row d_k and
    # the axis of j, the step rows expanded from the tables are its
    # unit-vector rows, and their linear extension is the whole table
    hopf = build_borel(cartan_type, n)
    m, r = hopf.algebra.m, hopf.algebra.rank
    J = build_twist(hopf)
    E = O.np_twist_table(hopf)
    units = [flat_index([int(i == j) for j in range(r)], m) for i in range(r)]
    axis = [[flat_index([y * (t == j) for t in range(r)], m) for y in range(m)] for j in range(r)]
    assert J.tables == [[E[e][axis[j]].tolist() for j in range(r)] for e in units]
    assert O.step_rows(J) == E[units].tolist()
    assert O.twist_table(J) == E.tolist()


@pytest.mark.parametrize("cartan_type, n", [("A1", 5), ("A2", 5)])
def test_step_row_premises_name_the_failing_cell(cartan_type, n, monkeypatch):
    hopf = build_borel(cartan_type, n)
    A = hopf.algebra
    r = A.rank
    real = step_tables(hopf)
    y = n + 1  # at least n: premise 1 says nothing there
    high = (0,) * (r - 1) + (y,)
    # an entry of the last table off the multiples of n, named with its fine cell y d_(r-1)
    tables = [[s[:] for s in row] for row in real]
    tables[-1][-1][y] += 1
    monkeypatch.setattr(qborel.twist, "step_tables", lambda hopf: tables)
    with pytest.raises(ArithmeticError, match=(
            rf"step table \({r - 1}, {r - 1}\) fails at the fine cell y = {re.escape(str(high))}: "
            rf"s_{r - 1}{r - 1}\({y}\) = \d+ is not a multiple of n = {n}")):
        build_twist(hopf)
    # a multiple of n, but a wrong step from y - n up to y
    tables = [[s[:] for s in row] for row in real]
    tables[0][0][y] += n
    below = (1,) + (0,) * (r - 1)
    with pytest.raises(ArithmeticError, match=(
            rf"step table \(0, 0\) fails at the fine cell y = {re.escape(str(below))}: "
            rf"s_00\(1 \+ n\) - s_00\(1\)")):
        build_twist(hopf)


def test_twist_counit_is_normalized(h13, j13):
    one = h13.algebra.one
    assert apply_on_slot(h13.counit, O.twist_tensor(j13), 0) == one
    assert apply_on_slot(h13.counit, O.twist_tensor(j13), 1) == one


def test_twist_tensor_matches_element_construction_a1n3(h13, j13):
    A = h13.algebra
    expected = A.tensor({}, 2)
    for z in range(9):
        pz = O.fine_idempotent(h13, (z,))
        for y in range(9):
            py = O.fine_idempotent(h13, (y,))
            coeff = A.field.zeta_pow(j13.exponent((z,), (y,)))
            expected = expected + A.tensor_of_elements(pz, py).scale(coeff)
    assert O.twist_tensor(j13) == expected


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
    T = O.twist_tensor(j15)
    rng = random.Random(23)
    for _ in range(10):
        z, y = rng.randrange(25), rng.randrange(25)
        want = h15.algebra.field.zeta_pow(j15.exponent((z,), (y,)))
        assert _diag_value(h15, T, ((z,), (y,))) == want


def test_twist_inverse_a1n3(h13, j13):
    unit = h13.algebra.tensor_power(2).one
    assert tensor_multiply(O.twist_tensor(j13), O.twist_tensor(j13, -1)) == unit
    assert tensor_multiply(O.twist_tensor(j13, -1), O.twist_tensor(j13)) == unit


def test_bold_expansion_matches_element_route_a1n3(h13):
    # sum_(b,c) q^T[b][c] B_b x B_c = sum_(z,y) q^T[red z][red y] 1_z x 1_y,
    # the identity by which a coarse table needs no coarse transform
    A = h13.algebra
    rng = random.Random(3)
    expo = [[rng.randrange(9) for _ in range(3)] for _ in range(3)]
    got = O.diagonal_tensor(h13, expo)
    expected = A.tensor({}, 2)
    for b in range(3):
        Bb = O.coarse_idempotent(h13, (b,))
        for c in range(3):
            Bc = O.coarse_idempotent(h13, (c,))
            expected = expected + A.tensor_of_elements(Bb, Bc).scale(A.field.zeta_pow(expo[b][c]))
    assert got == expected
    assert got == O.diagonal_tensor(h13, O.pullback(h13, expo))
    table = O.associator_table(closed_form_associator(h13))
    assert O.diagonal_tensor(h13, table) == O.diagonal_tensor(h13, O.pullback(h13, table))


# -- twisted coproduct -------------------------------------------------


def test_fine_families_frozen_a1(h13, j13, h15, j15):
    for hopf, J, n in ((h13, j13, 3), (h15, j15, 5)):
        m = n * n
        families = O.fine_families(J, 0)
        word_e, word_1 = (1,), (0,)
        left = families[(word_e, word_1)]
        right = families[(word_1, word_e)]
        want_left = [[(2 * (y % n)) % m for y in range(m)] for _ in range(m)]
        assert left == want_left
        want_right = [[(-2 * n * z) % m if y % n == n - 1 else 0 for y in range(m)]
                      for z in range(m)]
        assert right == want_right


def test_fine_expansion_matches_direct_conjugation_a1n3(h13, j13):
    e = h13.algebra.generator_e(0)
    families = O.fine_families(j13, 0)
    assert O.expand_families(h13, families) == O.twisted_coproduct(j13, e)


def test_membership_fine_holds_everywhere(h13, j13, h15, j15, h25, j25):
    # the fine tables of Delta_J(e_i), read off the full twist table, are the
    # pullbacks of the coarse ones: constant on the cosets of n, as
    # twisted_generator_bold proves from the step-row premises
    for hopf, J in ((h13, j13), (h15, j15), (h25, j25)):
        for i in range(hopf.algebra.rank):
            bold = O.bold_families(hopf, J, i)
            fine = O.fine_families(J, i)
            assert fine.keys() == bold.keys()
            for pattern, table in bold.items():
                assert fine[pattern] == O.pullback(hopf, table)


def test_membership_negative_control(h13, j13, monkeypatch):
    # one fine cell moved: the comparison with the pullback notices
    families = O.fine_families(j13, 0)
    pattern = ((1,), (0,))
    arr = [row[:] for row in families[pattern]]
    arr[4][5] = (arr[4][5] + 1) % 9
    assert arr != O.pullback(h13, O.bold_families(h13, j13, 0)[pattern])
    # a step table with a wrong high-digit increment at y = 3: its fine tables
    # leave the subalgebra, and building the twist rejects it
    tables = [[s[:] for s in row] for row in j13.tables]
    tables[0][0][3] = (tables[0][0][3] + 3) % 9
    fine = O.fine_families(O.uncertified_twist(h13, tables), 0)
    assert any(table != [[table[z % 3][y % 3] for y in range(9)] for z in range(9)]
               for table in fine.values())
    monkeypatch.setattr(qborel.twist, "step_tables", lambda hopf: tables)
    with pytest.raises(ArithmeticError, match=r"step table \(0, 0\) fails at the fine cell y = \(0,\)"):
        build_twist(h13)
    (result,) = run_checks("A1", 3, ["associator-coboundary"]).results
    assert result.status == "fail"
    assert "y = (0,): s_00(0 + n) - s_00(0)" in result.counterexample["assertion"]


def test_bold_arrays_frozen_a1n3(h13, j13):
    # held per coordinate: at rank 1 one row f (e in the first slot) and one
    # step row t (in the second), of n entries each
    image = twisted_generator_bold(h13, j13, 0)
    assert image == ([[0, 2, 4]], [[0, 0, 3]])
    bold = O.bold_families(h13, j13, 0)
    left = bold[((1,), (0,))]
    right = bold[((0,), (1,))]
    assert left == [[0, 2, 4]] * 3
    assert right == [[0, 0, 0], [0, 0, 3], [0, 0, 6]]


def test_twisted_coproduct_fixes_grouplikes(h13, j13):
    A = h13.algebra
    g = A.generator_g(0)
    assert O.twisted_coproduct(j13, g) == A.tensor_of_elements(g, g)


def test_twisted_coproduct_matches_direct_a1n3(h13, j13):
    # fact 4 of the associator module: the coarse tables the verifier reads
    # expand to J Delta(e) J^(-1), formed from the definition
    e = h13.algebra.generator_e(0)
    got = O.expand_families(h13, O.bold_families(h13, j13, 0))
    assert got == O.twisted_coproduct(j13, e)


def test_twisted_coproduct_is_algebra_map_a1n3(h13, j13):
    A = h13.algebra
    rng = random.Random(29)
    for _ in range(8):
        x = A.monomial_element((rng.randrange(9),), (rng.randrange(4),))
        y = A.monomial_element((rng.randrange(9),), (rng.randrange(4),))
        lhs = O.twisted_coproduct(j13, x * y)
        rhs = tensor_multiply(O.twisted_coproduct(j13, x), O.twisted_coproduct(j13, y))
        assert lhs == rhs


def test_twisted_coproduct_counit_laws(h13, j13, h25, j25):
    # at (A1, 3) on J Delta(e) J^(-1); at (A2, 5), where J has 625^2 cells,
    # on the expansion of the coarse tables
    e = h13.algebra.generator_e(0)
    images = [(h13, e, O.twisted_coproduct(j13, e))]
    images += [(h25, h25.algebra.generator_e(i),
                O.expand_families(h25, O.bold_families(h25, j25, i))) for i in range(2)]
    for hopf, x, X in images:
        assert apply_on_slot(hopf.counit, X, 0) == x
        assert apply_on_slot(hopf.counit, X, 1) == x


def test_twisted_images_land_in_subalgebra_tensor(h13, j13):
    X = O.twisted_coproduct(j13, h13.algebra.generator_e(0))
    assert membership_in_subalgebra_tensor(X, SubalgebraBasis(h13)) is None
    # untwisted coproduct of e does not lie there: its right leg sees K = g^2
    X0 = h13.coproduct(h13.algebra.generator_e(0))
    assert membership_in_subalgebra_tensor(X0, SubalgebraBasis(h13)) is not None


def test_bold_expansion_matches_fine_expansion_a1n5(h15, j15):
    # fact 4 at (A1, 5), and the fine tables it is read from
    e = h15.algebra.generator_e(0)
    coarse = O.expand_families(h15, O.bold_families(h15, j15, 0))
    assert coarse == O.expand_families(h15, O.fine_families(j15, 0))
    assert coarse == O.twisted_coproduct(j15, e)


def test_twist_proof_checks_raise(h13, j13, monkeypatch):
    # a step table failing a premise is an ArithmeticError at build_twist, and
    # every check that reads the twist reports it as its failure
    tables = [[s[:] for s in row] for row in j13.tables]
    tables[0][0][4] = (tables[0][0][4] + 1) % 9
    monkeypatch.setattr(qborel.twist, "step_tables", lambda hopf: tables)
    with pytest.raises(ArithmeticError, match=r"y = \(4,\): s_00\(4\) = 4 is not a multiple of n = 3"):
        build_twist(h13)
    report = run_checks("A1", 3, ["coproduct-support", "associator-coboundary",
                                  "quasi-coassociativity", "pentagon"])
    statuses = {r.name: (r.status, r.counterexample) for r in report.results}
    for name in ("coproduct-support", "associator-coboundary", "quasi-coassociativity"):
        status, cex = statuses[name]
        assert status == "fail" and "not a multiple of n" in cex["assertion"]
    assert statuses["pentagon"] == ("pass", None)
    # a nonzero entry where every y_j < n breaks (id x eps)(J) = 1
    monkeypatch.setattr(qborel.twist, "step_tables", lambda hopf: [[[1] * 9]])
    with pytest.raises(ArithmeticError, match=r"s_00\(0\) = 1, but s_00 vanishes below n"):
        build_twist(h13)


def test_coarse_images_built_once_per_twist(monkeypatch):
    # coproduct-support and quasi-coassociativity share one images stage:
    # a whole run builds the coarse image of each Delta_J(e_i) exactly once
    calls = []
    monkeypatch.setattr("qborel.report.twisted_generator_bold",
                        lambda h, tw, i: calls.append(i) or twisted_generator_bold(h, tw, i))
    report = run_checks("A2", 5)
    assert not report.failed
    assert sorted(calls) == [0, 1]
