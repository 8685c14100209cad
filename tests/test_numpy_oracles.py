"""The plain-int kernels against the numpy kernels they replaced.

The verifier computes on Python ints in nested lists and sparse dicts and
never imports numpy.  The array versions it used before are kept here,
unchanged in substance, as oracles: every table and decision is compared
cell for cell at (A1, 3), (A1, 7) and (A2, 5).  np_bar_differential, d
in every degree, is the reference for oracles.coboundary_of and shows that the
restricted associator is a cocycle, which the verifier proves through the
pentagon instead.  np_carry_expansion and np_pentagon are also the
pentagon reference of the carry-table rows of test_corruptions.py.  The
file also holds the negative control of the associator coboundary check's
counterexample, and the guards that keep numpy off the runtime path and
the coarse images of Delta_J(e_i) built once per run.
"""

import copy
import os
import random
import subprocess
import sys

import numpy as np
import oracles as O
import pytest

import qborel.report
from qborel.associator import (
    Associator,
    closed_form_associator,
    coboundary_matches_associator,
    pentagon_check,
)
from qborel.borel import build_borel
from qborel.cocycle import AdditiveCochain, restrict_associator
from qborel.report import run_checks
from qborel.twist import build_twist, flat_index

SCALES = [("A1", 3), ("A1", 7), ("A2", 5)]


@pytest.fixture(scope="module", params=SCALES, ids=lambda p: f"{p[0]}n{p[1]}")
def hopf(request):
    return build_borel(*request.param)


# -- the numpy kernels -------------------------------------------------


def np_coords(size, r):
    out = np.zeros((size**r, r), dtype=np.int64)
    for flat in range(size**r):
        x = flat
        for j in range(r - 1, -1, -1):
            out[flat, j] = x % size
            x //= size
    return out


def np_add_table(size, r):
    coords = np_coords(size, r)
    weights = np.array([size ** (r - 1 - j) for j in range(r)], dtype=np.int64)
    summed = (coords[:, None, :] + coords[None, :, :]) % size
    return (summed @ weights).reshape(size**r, size**r)


def np_twist_table(hopf):
    A = hopf.algebra
    coords = np_coords(A.m, A.rank)
    cart = np.array(A.datum.cartan_matrix, dtype=np.int64)
    return -(coords @ cart @ (coords - coords % A.n).T) % A.m


def np_associator_table(hopf):
    A = hopf.algebra
    coords = np_coords(A.n, A.rank)
    cart = np.array(A.datum.cartan_matrix, dtype=np.int64)
    summed = coords[:, None, :] + coords[None, :, :]
    return np.einsum("bi,ij,cdj->bcd", coords, cart, summed % A.n - summed) % A.m


def np_carry_expansion(assoc):
    """The full table P[b, c, d] = sum_i b_i Q_i(c, d) mod m of the carry
    tables, Q_i(c, d) = sum_j kappa_ij(c_j, d_j), as an array."""
    A = assoc.hopf.algebra
    coords = np_coords(A.n, A.rank)
    K = np.array(assoc.carries, dtype=np.int64)
    Q = sum(K[:, j][:, cj[:, None], cj[None, :]] for j, cj in enumerate(coords.T))
    return np.einsum("bi,icd->bcd", coords, Q) % A.m


def np_pentagon(P, n, m, r):
    """The pentagon on every cell (a, b, c, d) of the full table P, one a at a
    time: None, or the first cell in row-major order where the sides differ."""
    L = n**r
    ADDb = np_add_table(n, r)
    b, c, d = np.indices((L, L, L))
    for a in range(L):
        lhs = (P[b, c, d] + P[a, ADDb[b, c], d] + P[a, b, c]) % m
        rhs = (P[a, b, ADDb[c, d]] + P[ADDb[a, b], c, d]) % m
        diff = (lhs - rhs) % m
        if diff.any():
            i = tuple(int(t) for t in np.argwhere(diff)[0])
            return {"cell": (a,) + i, "lhs": int(lhs[i]), "rhs": int(rhs[i])}
    return None


def np_bar_differential(T, n, r):
    k, L = T.ndim, n**r
    ADD = np_add_table(n, r)
    idx = np.indices((L,) * (k + 1))
    out = np.zeros((L,) * (k + 1), dtype=np.int64)
    out += T[tuple(idx[1:])]
    out += (-1) ** (k + 1) * T[tuple(idx[:-1])]
    for j in range(k):
        merged = tuple(idx[:j]) + (ADD[idx[j], idx[j + 1]],) + tuple(idx[j + 2:])
        out += (-1) ** (j + 1) * T[merged]
    return out % n


# -- cell for cell -----------------------------------------------------


def test_twist_and_associator_tables_match_array_kernels(hopf):
    # the step table s_kj is the full array table on the row d_k and the
    # axis of j, the step rows expanded from the tables are the unit-vector
    # rows of the array table, and their linear extension is the whole table
    A = hopf.algebra
    m, r = A.m, A.rank
    J = build_twist(hopf)
    E = np_twist_table(hopf)
    units = [flat_index([int(i == j) for j in range(r)], m) for i in range(r)]
    axis = [[flat_index([y * (t == j) for t in range(r)], m) for y in range(m)] for j in range(r)]
    assert J.tables == [[E[e][axis[j]].tolist() for j in range(r)] for e in units]
    assert O.step_rows(J) == E[units].tolist()
    assert O.twist_table(J) == E.tolist()
    assert O.associator_table(closed_form_associator(hopf)) == np_associator_table(hopf).tolist()
    assert O.add_table(A.n, A.rank) == tuple(map(tuple, np_add_table(A.n, A.rank).tolist()))


def test_pentagon_matches_array_kernel(hopf):
    # the per-pair sweep names the first cell, in row-major order, where the
    # full pentagon over the reference expansion of the carry tables fails
    A = hopf.algebra
    n, r = A.n, A.rank
    assoc = closed_form_associator(hopf)
    assert pentagon_check(hopf, assoc) is None
    assert np_pentagon(np_carry_expansion(assoc), A.n, A.m, A.rank) is None
    rng = random.Random(13)
    for _ in range(3):
        carries = copy.deepcopy(assoc.carries)
        for _ in range(rng.randrange(1, 3)):
            i, j, x, y = rng.randrange(r), rng.randrange(r), rng.randrange(1, n), rng.randrange(1, n)
            carries[i][j][x][y] = (carries[i][j][x][y] + A.n) % A.m
        bad = Associator(hopf, carries)
        P = np_carry_expansion(bad)
        assert P.tolist() == O.associator_table(bad)
        want = np_pentagon(P, A.n, A.m, A.rank)
        assert want is not None
        assert pentagon_check(hopf, bad) == want


def _array(c):
    """The cochain's table as an array with one axis of length n^r per argument."""
    return np.array(c.flat).reshape((c.L,) * c.degree)


def test_bar_differential_matches_array_kernel(hopf):
    # coboundary_of, at rank 1 and rank 2, against the array kernel of d
    A = hopf.algebra
    n, r = A.n, A.rank
    rng = random.Random(3)
    mu = O.FlatCochain(n, r, 2, [rng.randrange(n) for _ in range(n ** (2 * r))])
    assert np.array_equal(_array(O.coboundary_of(mu)), np_bar_differential(_array(mu), n, r))


def test_bar_differential_squares_to_zero():
    rng = random.Random(17)
    mu = O.FlatCochain(3, 1, 2, [rng.randrange(3) for _ in range(9)])
    assert not np_bar_differential(_array(O.coboundary_of(mu)), 3, 1).any()


def test_restriction_is_cocycle():
    # the verifier proves dw = 0 by the pentagon; here d on 3-cochains is
    # the array kernel
    for cartan_type, n in (("A1", 3), ("A1", 5), ("A2", 5)):
        w = restrict_associator(closed_form_associator(build_borel(cartan_type, n)))
        assert not np_bar_differential(_array(w), w.n, w.r).any()


def test_standard_and_cross_cochains_are_cocycles():
    # the standard generator a [b + c >= n] of H^3(Z/n; Z/n), and the cross
    # term a_1 [b_2 + c_2 >= 3] on (Z/3)^2 of test_cocycle.py
    for n in (3, 5, 7, 11):
        w = AdditiveCochain.from_cells(n, 1, 3, lambda a, b, c, n=n: a * (b + c >= n))
        assert not np_bar_differential(_array(w), n, 1).any()
    w = AdditiveCochain.from_cells(3, 2, 3, lambda a, b, c: a // 3 * (b % 3 + c % 3 >= 3))
    assert not np_bar_differential(_array(w), 3, 2).any()


# -- the counterexample of the coboundary check ------------------------


def test_coboundary_failures_name_a_differing_fine_cell():
    hopf = build_borel("A1", 5)
    A = hopf.algebra
    J = build_twist(hopf)
    # the slice at b = 1, the one carry table at rank 1, moved by q^n at one cell
    carries = closed_form_associator(hopf).carries
    carries[0][0][3][4] = (carries[0][0][3][4] + A.n) % A.m
    assoc = Associator(hopf, carries)
    hit = coboundary_matches_associator(hopf, J, assoc)
    assert (hit["z"], hit["u"], hit["v"]) == ((1,), (3,), (4,))
    assert hit["coboundary_exponent"] == O.coboundary_exponent(J, hit["z"], hit["u"], hit["v"])
    z, u, v = (flat_index(hit[k], A.n) for k in ("z", "u", "v"))
    assert hit["associator_exponent"] == O.associator_table(assoc)[z][u][v]
    assert hit["coboundary_exponent"] != hit["associator_exponent"]


# -- runtime guards ----------------------------------------------------


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


def test_coarse_images_built_once_per_twist(monkeypatch):
    # coproduct-support and quasi-coassociativity share one images stage:
    # a whole run builds the coarse image of each Delta_J(e_i) exactly once
    calls = []
    real = qborel.report.twisted_generator_bold
    monkeypatch.setattr(qborel.report, "twisted_generator_bold",
                        lambda h, tw, i: calls.append(i) or real(h, tw, i))
    report = run_checks("A2", 5)
    assert not report.failed
    assert sorted(calls) == [0, 1]
