"""Associator closed form, coboundary equality, pentagon, quasi-coassociativity.

The associator's rows and cells, read off its carry tables, are compared
against its closed form on every cell in plain loops, written
independently of the carry tables (oracles.closed_form_table).  The
verifier proves dJ = Phi, the pentagon and quasi-coassociativity by
integer exponent calculus alone.  At (A1, 3) the tensors are small, and
this file multiplies all three identities out in exact cyclotomic
arithmetic, on the group-basis expansions of the oracles module, as
oracles for that calculus.  Negative controls corrupt one cell of one
carry table, or one entry of one row f_ij or step row t_k of Delta_J(e_i),
at every scale
and confirm every checker notices; correct tables with a wrong tensor
expansion confirm the tensor oracles notice too.  The pentagon names the
first cell that oracles.np_pentagon, the pentagon on every cell of the
full table, names.
"""

import ast
import copy
import itertools
import json
import os
import random
import subprocess
import sys

import oracles as O
import pytest

import qborel
from qborel.algebra import Element, apply_on_slot, tensor_multiply
from qborel.borel import build_borel
from qborel.associator import (
    Associator,
    carry_tables,
    closed_form_associator,
    coboundary_matches_associator,
    pentagon_check,
    quasi_coassoc_check,
)
from qborel.cyclotomic import CycScalar
from qborel.report import to_jsonable
from qborel.twist import build_twist, coord_table, flat_index, twisted_generator_bold


@pytest.fixture(scope="module")
def s13():
    h = build_borel("A1", 3)
    return h, build_twist(h)


@pytest.fixture(scope="module")
def s15():
    h = build_borel("A1", 5)
    return h, build_twist(h)


@pytest.fixture(scope="module")
def s25():
    h = build_borel("A2", 5)
    return h, build_twist(h)


@pytest.fixture(scope="module")
def a13(s13):
    return closed_form_associator(s13[0])


@pytest.fixture(scope="module")
def a15(s15):
    return closed_form_associator(s15[0])


@pytest.fixture(scope="module")
def a25(s25):
    return closed_form_associator(s25[0])


def _images(hopf, J):
    """The (f, t) of Delta_J(e_i) for every i, as the verifier's images stage holds them."""
    return tuple(twisted_generator_bold(hopf, J, i) for i in range(hopf.algebra.rank))


def _corrupted(hopf, assoc):
    """assoc with one interior cell of its carry table kappa_(0, r-1) moved by
    q^n: still valid tables, but no longer dJ.  At rank 2 the table is off
    the diagonal, so that both e_1 and e_2 see it: a diagonal kappa_ii
    moves Phi only through coordinate i, which e_j for j != i leaves fixed."""
    A = hopf.algebra
    carries = copy.deepcopy(assoc.carries)
    carries[0][-1][1][1] = (carries[0][-1][1][1] + A.n) % A.m
    return Associator(hopf, carries)


# -- tensor oracles at (A1, 3) -------------------------------------------


def _first_difference(lhs: Element, rhs: Element):
    """None if lhs == rhs, else the first differing key in sorted order and both coefficients."""
    if lhs == rhs:
        return None
    key = min((lhs - rhs).terms)
    zero = lhs.ring.field.zero
    return {"key": key, "lhs": lhs.terms.get(key, zero), "rhs": rhs.terms.get(key, zero)}


def pentagon_tensor_oracle(J, Phi: Element):
    """The pentagon multiplied out with Delta_J on the slots: None or the first difference."""
    dj = lambda x: O.twisted_coproduct(J, x)
    lhs = tensor_multiply(
        tensor_multiply(O.pad(Phi, True), apply_on_slot(dj, Phi, 1)), O.pad(Phi, False))
    rhs = tensor_multiply(apply_on_slot(dj, Phi, 2), apply_on_slot(dj, Phi, 0))
    return _first_difference(lhs, rhs)


def quasi_coassoc_tensor_oracle(J, Phi: Element, x):
    """Quasi-coassociativity on any x, multiplied out: None or the first difference."""
    dj = lambda el: O.twisted_coproduct(J, el)
    X = dj(x)
    lhs = tensor_multiply(apply_on_slot(dj, X, 1), Phi)
    rhs = tensor_multiply(Phi, apply_on_slot(dj, X, 0))
    return _first_difference(lhs, rhs)


def test_table_matches_oracle(s13, s25):
    # the carry table kappa_ij is the closed form on the axis cells
    # (d_i, x d_j, y d_j), the slices expanded from them are its planes at
    # the unit vectors d_i, and the cells read off the tables, like the
    # reference expansion of the tests, are the closed form on every cell;
    # no table over the coarse grid is held
    for hopf, _ in (s13, s25):
        A = hopf.algebra
        n = A.n
        want = O.closed_form_table(hopf)
        units = [n ** (A.rank - 1 - i) for i in range(A.rank)]
        assert carry_tables(hopf) == [[[[want[e][x * f][y * f] for y in range(n)] for x in range(n)]
                                       for f in units] for e in units]
        assoc = closed_form_associator(hopf)
        assert O.associator_slices(assoc) == [want[e] for e in units]
        assert not any(hasattr(assoc, name) for name in ("table", "slices"))
        assert O.associator_table(assoc) == want
        L = assoc.L
        assert [[[assoc.exponent(b, c, d) for d in range(L)] for c in range(L)]
                for b in range(L)] == want
        assert not hasattr(assoc, "row")


def test_table_frozen_a1n3(s13, a13):
    hopf, _ = s13
    assert a13.exponent(1, 2, 2) == (-6) % 9
    assert hopf.algebra.field.zeta_pow(a13.exponent(1, 2, 2)) == hopf.algebra.field.zeta_pow(-6)
    for b in range(3):
        for c in range(3):
            for d in range(3):
                if c + d < 3:
                    assert a13.exponent(b, c, d) == 0
    assert a13.term_count == 27


def test_table_frozen_a2_spot(a25):
    f = a25.hopf.algebra.field
    at = lambda *cells: f.zeta_pow(a25.exponent(*(flat_index(v, 5) for v in cells)))
    # gamma + delta = (6, 7), defects (-5, -5); (1,0).cartan = (2,-1); -10+5 = -5
    assert at((1, 0), (2, 3), (4, 4)) == f.zeta_pow(-5)
    # no defect: gamma + delta = (3, 4)
    assert at((1, 1), (2, 3), (1, 1)) == f.one
    assert a25.term_count == 15625


def test_term_count_a1n5(a15):
    assert a15.term_count == 125


def test_tensor_counit_normalization_a1n3(s13, a13):
    hopf, _ = s13
    unit2 = hopf.algebra.tensor_power(2).one
    Phi = O.diagonal_tensor(hopf, O.associator_table(a13))
    for slot in range(3):
        assert apply_on_slot(hopf.counit, Phi, slot) == unit2


def test_associator_invertible_a1n3(s13, a13):
    hopf, _ = s13
    unit3 = hopf.algebra.tensor_power(3).one
    Phi = O.diagonal_tensor(hopf, O.associator_table(a13))
    Phi_inv = O.diagonal_tensor(hopf, O.associator_table(a13), -1)
    assert tensor_multiply(Phi, Phi_inv) == unit3
    assert tensor_multiply(Phi_inv, Phi) == unit3


def test_constructor_rejects_bad_tables(s13, a13, s25, a25):
    for (hopf, _), assoc in ((s13, a13), (s25, a25)):
        A = hopf.algebra
        last = len(assoc.carries) - 1
        t = copy.deepcopy(assoc.carries)
        t[last][last][2][2] += 1  # not a multiple of n
        with pytest.raises(ValueError, match=rf"carry table \({last}, {last}\): .*powers of q\^n"):
            Associator(hopf, t)
        for c, d in ((0, 2), (2, 0)):  # breaks counit normalization
            t = copy.deepcopy(assoc.carries)
            t[last][0][c][d] = A.n
            with pytest.raises(ValueError, match=rf"carry table \({last}, 0\): .*counit-normalized"):
                Associator(hopf, t)
        shape = rf"{A.rank} x {A.rank} carry tables of {A.n} x {A.n} integers"
        with pytest.raises(ValueError, match=shape):
            Associator(hopf, assoc.carries + [assoc.carries[0]])
        with pytest.raises(ValueError, match=shape):
            Associator(hopf, [row + row[:1] for row in assoc.carries])
        with pytest.raises(ValueError, match=shape):
            Associator(hopf, [[[x[:-1] for x in K] for K in row] for row in assoc.carries])
        with pytest.raises(ValueError, match=shape):
            Associator(hopf, [[O.associator_table(assoc)] * A.rank] * A.rank)


def test_proof_modules_have_no_assert():
    # assert statements vanish under python -O; proof checks must raise instead
    pkg = os.path.dirname(qborel.__file__)
    names = sorted(name for name in os.listdir(pkg) if name.endswith(".py"))
    assert "algebra.py" in names and "report.py" in names
    for name in names:
        with open(os.path.join(pkg, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{name} has assert statements at lines {lines}"


def test_runtime_modules_do_not_import_numpy():
    # the verifier computes on Python ints; numpy stays a test-only dependency
    pkg = os.path.dirname(qborel.__file__)
    names = sorted(name for name in os.listdir(pkg) if name.endswith(".py"))
    assert "algebra.py" in names and "report.py" in names
    for name in names:
        with open(os.path.join(pkg, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names]
        imported += [node.module or "" for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)]
        bad = [mod for mod in imported if mod.split(".")[0] == "numpy"]
        assert not bad, f"{name} imports {bad}"


def test_verify_and_export_never_load_numpy(tmp_path):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = tmp_path / "twist.json"
    code = (
        "import sys\n"
        "from qborel import cli\n"
        "assert cli.main(['verify', '--type', 'A1', '--n', '3', '--checks', 'all']) == 0\n"
        f"assert cli.main(['export', '--type', 'A1', '--n', '3', '--what', 'twist', '--out', {str(out)!r}]) == 0\n"
        "sys.exit(3 if 'numpy' in sys.modules else 0)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert out.stat().st_size > 0


def test_cli_import_leaves_out_dataclasses():
    # every start-up pays for what import qborel.cli loads; the records of
    # the verifier are NamedTuples, so dataclasses is not among it
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = "import sys\nimport qborel.cli\nprint(sorted(m for m in sys.modules if m == 'dataclasses'))\n"
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_coboundary_exponent_frozen_a1n3(s13, a13):
    hopf, J = s13
    # E(2,2)=0, E(1,4)=-6, E(3,2)=0, E(1,2)=0, so EdJ(1,2,2) = -6
    assert O.coboundary_exponent(J, (1,), (2,), (2,)) == (-6) % 9
    assert O.coboundary_exponent(J, (1,), (2,), (2,)) == a13.exponent(1, 2, 2)


def test_coboundary_matches_associator_all_scales(s13, a13, s15, a15, s25, a25):
    for (hopf, J), assoc in ((s13, a13), (s15, a15), (s25, a25)):
        assert coboundary_matches_associator(hopf, J, assoc) is None


def test_coboundary_tensor_equals_associator_a1n3(s13, a13):
    hopf, J = s13
    assert O.twist_coboundary(J) == O.diagonal_tensor(hopf, O.associator_table(a13))


def test_coboundary_negative_control(s13, a13):
    hopf, J = s13
    t = copy.deepcopy(a13.carries)
    t[0][0][2][2] = (t[0][0][2][2] + 3) % 9
    bad = Associator(hopf, t)
    hit = coboundary_matches_associator(hopf, J, bad)
    assert hit is not None
    assert set(hit) == {"z", "u", "v", "coboundary_exponent", "associator_exponent"}
    assert (hit["z"], hit["u"], hit["v"]) == ((1,), (2,), (2,))
    assert hit["coboundary_exponent"] == O.coboundary_exponent(J, (1,), (2,), (2,)) == 3
    assert hit["associator_exponent"] == bad.exponent(1, 2, 2) == 6
    assert O.twist_coboundary(J) != O.diagonal_tensor(hopf, O.associator_table(bad))


def test_coboundary_failures_name_a_differing_fine_cell(s15, a15):
    hopf, J = s15
    A = hopf.algebra
    # the slice at b = 1, the one carry table at rank 1, moved by q^n at one cell
    carries = copy.deepcopy(a15.carries)
    carries[0][0][3][4] = (carries[0][0][3][4] + A.n) % A.m
    assoc = Associator(hopf, carries)
    hit = coboundary_matches_associator(hopf, J, assoc)
    assert (hit["z"], hit["u"], hit["v"]) == ((1,), (3,), (4,))
    assert hit["coboundary_exponent"] == O.coboundary_exponent(J, hit["z"], hit["u"], hit["v"])
    z, u, v = (flat_index(hit[k], A.n) for k in ("z", "u", "v"))
    assert hit["associator_exponent"] == O.associator_table(assoc)[z][u][v]
    assert hit["coboundary_exponent"] != hit["associator_exponent"]


def test_pentagon_all_scales(s13, a13, s15, a15, s25, a25):
    for (hopf, J), assoc in ((s13, a13), (s15, a15), (s25, a25)):
        assert pentagon_check(hopf, assoc) is None
    hopf, J = s13
    assert pentagon_tensor_oracle(J, O.diagonal_tensor(hopf, O.associator_table(a13))) is None


def test_pentagon_negative_control(s13, a13, s15, a15, s25, a25):
    for (hopf, J), assoc in ((s13, a13), (s15, a15), (s25, a25)):
        hit = pentagon_check(hopf, _corrupted(hopf, assoc))
        assert hit is not None and set(hit) == {"cell", "lhs", "rhs"}
        assert len(hit["cell"]) == 4 and hit["lhs"] != hit["rhs"]
    hopf, J = s13
    bad = O.diagonal_tensor(hopf, O.associator_table(_corrupted(hopf, a13)))
    assert pentagon_tensor_oracle(J, bad) is not None


def test_pentagon_rejects_a_corrupted_unit_slice(s13, a13, s15, a15, s25, a25):
    # the unit slice Q_i = P(d_i, ., .) moved by q^n through one cell of its
    # carry table kappa_ij: P is still linear, Q_i is no longer a 2-cocycle,
    # and the sweep names a pentagon cell at a = d_i, with b, c, d on the
    # axis of j, and both sides, which the reference expansion confirms
    for (hopf, J), assoc in ((s13, a13), (s15, a15), (s25, a25)):
        A = hopf.algebra
        n, m, r = A.n, A.m, A.rank
        coarse, add = coord_table(n, r), O.add_table(n, r)
        x0, y0 = 1, n - 1
        for i, j in itertools.product(range(r), repeat=2):
            carries = copy.deepcopy(assoc.carries)
            carries[i][j][x0][y0] = (carries[i][j][x0][y0] + n) % m
            bad = Associator(hopf, carries)
            t = O.associator_table(bad)
            hit = pentagon_check(hopf, bad)
            a, b, c, d = hit["cell"]
            assert coarse[a] == tuple(int(i == k) for k in range(r))
            assert all(v == 0 for cell in (b, c, d) for k, v in enumerate(coarse[cell]) if k != j)
            lhs = (t[b][c][d] + t[a][add[b][c]][d] + t[a][b][c]) % m
            rhs = (t[a][b][add[c][d]] + t[add[a][b]][c][d]) % m
            assert (hit["lhs"], hit["rhs"]) == (lhs, rhs) and lhs != rhs


@pytest.mark.parametrize("cartan_type, n", [("A1", 3), ("A1", 7), ("A2", 5)])
def test_pentagon_matches_array_kernel(cartan_type, n):
    # the per-pair sweep names the first cell, in row-major order, where the
    # pentagon over every cell of the reference expansion of the carry
    # tables fails
    hopf = build_borel(cartan_type, n)
    A = hopf.algebra
    r = A.rank
    assoc = closed_form_associator(hopf)
    assert O.np_pentagon(assoc) is None
    rng = random.Random(13)
    for _ in range(3):
        carries = copy.deepcopy(assoc.carries)
        for _ in range(rng.randrange(1, 3)):
            i, j, x, y = rng.randrange(r), rng.randrange(r), rng.randrange(1, n), rng.randrange(1, n)
            carries[i][j][x][y] = (carries[i][j][x][y] + n) % A.m
        bad = Associator(hopf, carries)
        want = O.np_pentagon(bad)
        assert want is not None
        assert pentagon_check(hopf, bad) == want


def test_quasi_coassoc_generators_all_scales(s13, a13, s15, a15, s25, a25):
    for (hopf, J), assoc in ((s13, a13), (s15, a15), (s25, a25)):
        A = hopf.algebra
        xs = [A.one]
        for i in range(A.rank):
            gn = [0] * A.rank
            gn[i] = A.n
            xs.append(A.monomial_element(gn, (0,) * A.nroots))
            xs.append(A.generator_e(i))
        for x in xs:
            assert quasi_coassoc_check(hopf, _images(hopf, J), assoc, x) is None


def test_quasi_coassoc_arbitrary_element_a1n3(s13, a13):
    hopf, J = s13
    A = hopf.algebra
    # the identity holds on all of u_q(b), not only on the generators of
    # A_q the verifier checks: the tensor oracle confirms it on g and on an
    # element outside the subalgebra, which the coarse calculus refuses
    g, x = A.generator_g(0), A.monomial_element((1,), (1,)) + A.generator_g(0).scale(A.field.zeta_pow(2))
    Phi = O.diagonal_tensor(hopf, O.associator_table(a13))
    for el in (A.one, A.monomial_element((3,), (0,)), A.generator_e(0), g, x):
        assert quasi_coassoc_tensor_oracle(J, Phi, el) is None
    for el in (g, x):
        with pytest.raises(ValueError, match="1, g_i\\^n and e_i only|n dividing a"):
            quasi_coassoc_check(hopf, _images(hopf, J), a13, el)


def test_quasi_coassoc_negative_control(s13, a13, s15, a15, s25, a25):
    for (hopf, J), assoc in ((s13, a13), (s15, a15), (s25, a25)):
        bad = _corrupted(hopf, assoc)
        for i in range(hopf.algebra.rank):
            hit = quasi_coassoc_check(hopf, _images(hopf, J), bad, hopf.algebra.generator_e(i))
            assert hit is not None and hit["lhs"] != hit["rhs"]
    hopf, J = s13
    bad = O.diagonal_tensor(hopf, O.associator_table(_corrupted(hopf, a13)))
    assert quasi_coassoc_tensor_oracle(J, bad, hopf.algebra.generator_e(0)) is not None


def _perturbed(image, family, k, x, by):
    """image with one entry x of its F1 row f_ik, or of its F2 step row t_k, moved by q^by."""
    f, t = ([list(row) for row in rows] for rows in image)
    (f if family == "F1" else t)[k][x] += by
    return f, t


@pytest.mark.parametrize("family", ["F1", "F2"])
def test_quasi_coassoc_rejects_a_perturbed_twisted_image(family, s13, a13, s15, a15, s25, a25):
    # one entry of a held F1 row f_ik (e_i in the first slot) or of one F2
    # step row t_k (e_i in the second) of Delta_J(e_i) moved: by q for a
    # row, by q^n for a step row, which keeps the image linear on (Z/n)^r;
    # the closed-form identities must name a pattern holding e_i and a
    # coarse cell, at a first slot among 0 and the unit vectors
    for (hopf, J), assoc in ((s13, a13), (s15, a15), (s25, a25)):
        A = hopf.algebra
        firsts = [0] + [A.n ** k for k in range(A.rank)]
        for i, k in itertools.product(range(A.rank), repeat=2):
            word = tuple(int(j == A.e_letters[i]) for j in range(A.nroots))
            images = list(_images(hopf, J))
            images[i] = _perturbed(images[i], family, k, 2, 1 if family == "F1" else A.n)
            hit = quasi_coassoc_check(hopf, images, assoc, A.generator_e(i))
            assert hit is not None and hit["lhs"] != hit["rhs"]
            assert word in hit["pattern"] and len(hit["cell"]) == 3
            assert hit["cell"][0] in firsts and max(hit["cell"]) < assoc.L


def test_quasi_coassoc_names_the_cell_of_a_corrupted_step_row(s25, a25):
    # at (A2, 5), F2 step row t_k of Delta_J(e_1) moved by q^n at x0:
    # F2[b][c] = sum_k b_k t_k(c_1) reads the first coordinate of c only, and
    # pattern 1 e 1 reads F2[d_k][c + d] against F2[d_k][c], so the first
    # differing cell in sweep order is (d_k, 0, x0 d_1), on the axis of d_1
    hopf, J = s25
    A = hopf.algebra
    empty, word = (0,) * A.nroots, (1,) + (0,) * (A.nroots - 1)
    x0 = 2
    for k in range(A.rank):
        images = list(_images(hopf, J))
        images[0] = _perturbed(images[0], "F2", k, x0, A.n)
        hit = quasi_coassoc_check(hopf, images, a25, A.generator_e(0))
        assert hit["pattern"] == (empty, word, empty)
        assert hit["cell"] == (A.n ** (A.rank - 1 - k), 0, x0 * A.n)
        assert (hit["lhs"] - hit["rhs"]) % A.m == A.n


def test_quasi_coassoc_refuses_a_step_row_off_the_multiples_of_n(s25, a25):
    # the reduction to r + 1 first slots needs n to divide every step entry
    hopf, J = s25
    images = list(_images(hopf, J))
    images[1] = _perturbed(images[1], "F2", 0, 3, 1)
    with pytest.raises(ValueError, match=r"image of e_2: its step rows must be multiples of n = 5"):
        quasi_coassoc_check(hopf, images, a25, hopf.algebra.generator_e(1))


def test_quasi_coassoc_sweeps_r_plus_1_first_slots(s13, a13, s25, a25):
    # every slot word is compared on (r + 1) r n^2 cells: b in {0, d_1, .., d_r},
    # and for each the r n^2 axis cells (x d_j, y d_j), one row of n cells
    # over y per (b, j, x): counted on the rows the sweep's sides return
    for (hopf, J), assoc in ((s13, a13), (s25, a25)):
        A = hopf.algebra
        n, r = A.n, A.rank
        gn = A.monomial_element((A.n,) + (0,) * (r - 1), (0,) * A.nroots)
        for x, patterns in ((gn, 1), (A.generator_e(r - 1), 3)):
            cells = {}

            def profile(frame, event, arg):
                code = frame.f_code
                if (event == "return" and code.co_qualname == "quasi_coassoc_check.<locals>.<lambda>"
                        and code.co_argcount == 3 and isinstance(arg, tuple)):
                    lhs, rhs = arg
                    assert len(lhs) == len(rhs) == n
                    cells[code.co_firstlineno] = cells.get(code.co_firstlineno, 0) + n

            sys.setprofile(profile)
            try:
                assert quasi_coassoc_check(hopf, _images(hopf, J), assoc, x) is None
            finally:
                sys.setprofile(None)
            assert sorted(cells.values()) == [(r + 1) * r * n * n] * patterns


def test_tensor_routes_name_the_first_differing_key(s13, a13):
    # correct carry tables with a wrong tensor expansion: only a tensor
    # oracle can see it, since the verifier reads the tables only
    hopf, J = s13
    A = hopf.algebra
    e = A.generator_e(0)
    bad = O.diagonal_tensor(hopf, O.associator_table(a13)) + A.tensor_of_elements(
        A.generator_g(0), A.one, A.one)
    assert pentagon_check(hopf, a13) is None
    assert quasi_coassoc_check(hopf, _images(hopf, J), a13, e) is None
    hits = [pentagon_tensor_oracle(J, bad), quasi_coassoc_tensor_oracle(J, bad, e)]
    for hit, arity in zip(hits, (4, 3)):
        assert len(hit["key"]) == arity
        assert isinstance(hit["lhs"], CycScalar) and isinstance(hit["rhs"], CycScalar)
        assert hit["lhs"] != hit["rhs"]
        doc = to_jsonable(hit)
        assert json.loads(json.dumps(doc)) == doc
        assert len(doc["key"]) == arity and set(doc["lhs"]) == {"order", "coeffs"}
    # the quasi-coassociativity mismatch is the least differing key of a recomputation
    dj = lambda el: O.twisted_coproduct(J, el)
    X = dj(e)
    lhs_t = tensor_multiply(apply_on_slot(dj, X, 1), bad)
    rhs_t = tensor_multiply(bad, apply_on_slot(dj, X, 0))
    zero = A.field.zero
    differing = [k for k in set(lhs_t.terms) | set(rhs_t.terms)
                 if lhs_t.terms.get(k, zero) != rhs_t.terms.get(k, zero)]
    key = hits[1]["key"]
    assert key == min(differing)
    assert (hits[1]["lhs"], hits[1]["rhs"]) == (lhs_t.terms.get(key, zero),
                                                rhs_t.terms.get(key, zero))


def test_quasi_coassoc_rank2_rejects_outside_elements(s25, a25):
    hopf, J = s25
    with pytest.raises(ValueError):
        quasi_coassoc_check(hopf, _images(hopf, J), a25, hopf.algebra.generator_g(0))
