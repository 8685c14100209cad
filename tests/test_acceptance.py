"""Budgets, scale contracts, the reach test and report determinism.

Each check's pass is asserted once through its function, in the test
module of its route, and once through the report, in the verify digests
of tests/test_cli.py and the clean rows of the corruption matrix in
tests/test_corruptions.py.  This file holds what neither makes: the
wall-clock and memory budgets of whole verify and export runs, the
scale contracts that bound the cells, products and bytes a check
touches, the reach test that keeps in src/ only what verify and export
reach, and the byte check of report determinism.  The negative controls
are rows of the corruption matrix; test_negative_controls names three of
them and corrupts a straightening rule in place.
"""

import ast
import hashlib
import importlib
import json
import os
import pkgutil
import random
import subprocess
import sys
import time

import pytest

import qborel.report
from qborel.algebra import BorelAlgebra, Element
from qborel import cli
from qborel.associator import Associator, closed_form_associator, pentagon_check, quasi_coassoc_check
from qborel.borel import HopfData, SubalgebraBasis, build_borel
from qborel.cartan import validate_params
from qborel.cocycle import AdditiveCochain, pair_functional, restrict_associator
from qborel.report import (CHECK_ORDER, CHECKS, EXPORT_KINDS, MAX_N, CheckContext, run_checks,
                           scope_violations)
from qborel.twist import build_twist, coord_table, twisted_generator_bold
from test_corruptions import check_rows


def _images(hopf, J):
    return tuple(twisted_generator_bold(hopf, J, i) for i in range(hopf.algebra.rank))


def test_twist_and_its_checks_stay_below_2mb_at_a2n5():
    # no stage holds a table over the fine grid of pairs (625^2 cells here):
    # the twist is its step rows, and Delta_J(e_i), dJ = Phi and the pentagon
    # are read on the coarse grid
    import tracemalloc

    ctx = CheckContext("A2", 5)
    ctx.hopf, ctx.sub, ctx.assoc
    tracemalloc.start()
    try:
        ctx.twist
        statuses = [CHECKS[name](ctx)[0] for name in (
            "coproduct-support", "associator-coboundary", "pentagon", "quasi-coassociativity")]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert statuses == ["pass"] * 4
    assert peak < 2 * 2**20


def test_verify_at_a2n7_builds_no_cubic_table(monkeypatch):
    # L = 49 coarse cells at (A2, 7), and one L^3 table of small ints takes
    # 1.1 MB under tracemalloc.  The twist, the images, the associator and
    # every check of verify stay below half of that at peak, and the
    # restricted cochain P/n is read through its pair functionals only:
    # its L^3 flat table is never formed by verify
    import tracemalloc

    class Unformed:
        def __get__(self, obj, owner=None):
            raise AssertionError("the L^3 cochain was formed")

    monkeypatch.setattr(AdditiveCochain, "flat", Unformed())
    ctx = CheckContext("A2", 7)
    ctx.hopf, ctx.sub
    tracemalloc.start()
    try:
        ctx.twist, ctx.images, ctx.assoc
        statuses = [CHECKS[name](ctx)[0] for name in CHECK_ORDER]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert statuses == ["pass"] * 7 + ["skip"] * 2
    assert peak < 2**19


def test_cocycle_check_at_a2n7_reads_n_cells(monkeypatch):
    # the class is carried by the restriction to axis 0, whose invariant
    # reads its n cells (1, k, 1): the pullback reads those n associator
    # cells, at (n, n k, n) in flat coarse indices, not the n^3 of the axis
    ctx = CheckContext("A2", 7)
    ctx.assoc
    reads, real = [], Associator.exponent
    monkeypatch.setattr(Associator, "exponent",
                        lambda self, *cell: reads.append(cell) or real(self, *cell))
    status, details, _ = CHECKS["cocycle-nontrivial"](ctx)
    assert status == "pass" and details["obstruction"]["kind"] == "axis-restriction"
    assert sorted(reads) == [(7, 7 * k, 7) for k in range(7)]


@pytest.mark.parametrize("cartan_type, n", [("A1", 7), ("A2", 7)])
def test_pentagon_and_presentation_pass_on_their_certificates(monkeypatch, cartan_type, n):
    # the pentagon reads each of the r^2 n^2 carry entries once, for the
    # normal forms of the tables, and never enters its n^3 row sweep; the
    # presentation forms 4 products per generator of the subalgebra and 2
    # per sector j1, for each coordinate: r (4 (2 r) + 2 n) in all
    import qborel.associator

    ctx = CheckContext(cartan_type, n)
    r = ctx.hopf.algebra.rank
    ctx.sub
    reads = []

    class Row(list):
        def __iter__(self):
            for v in list.__iter__(self):
                reads.append(v)
                yield v

        def __getitem__(self, k):
            v = list.__getitem__(self, k)
            reads.extend(v if isinstance(k, slice) else [v])
            return v

    def no_sweep(*args):
        raise AssertionError("the pentagon entered its row sweep")

    monkeypatch.setattr(ctx.assoc, "carries",
                        [[[Row(x) for x in K] for K in row] for row in ctx.assoc.carries])
    monkeypatch.setattr(qborel.associator, "_pentagon_sweep", no_sweep)
    assert CHECKS["pentagon"](ctx)[0] == "pass"
    assert len(reads) == r * r * n * n
    products, real = [], Element.__mul__
    monkeypatch.setattr(Element, "__mul__", lambda self, other: products.append(other) or real(self, other))
    assert CHECKS["presentation"](ctx)[0] == "pass"
    assert len(products) == r * (8 * r + 2 * n)
    assert all(isinstance(x, Element) for x in products)


def test_cocycle_check_fails_on_class_zero_tables_within_budget(monkeypatch):
    # carry tables n dmu have class 0: the check fails with the witness nu
    # of their normal forms, read off the n^2 cells of the table, where a
    # solver over all (n^r)^3 cells takes minutes
    n = 61
    rng = random.Random(61)
    mu = [0] + [rng.randrange(n) for _ in range(n - 1)]
    carries = [[[[n * ((mu[x] + mu[y] - mu[(x + y) % n]) % n) for y in range(n)] for x in range(n)]]]
    monkeypatch.setattr(qborel.report, "closed_form_associator",
                        lambda hopf: Associator(hopf, carries))
    ctx = CheckContext("A1", n)
    ctx.assoc
    t0 = time.monotonic()
    status, _, counterexample = CHECKS["cocycle-nontrivial"](ctx)
    assert time.monotonic() - t0 < 2.0
    assert status == "fail" and set(counterexample) == {"witness"}
    nu, w = counterexample["witness"], restrict_associator(ctx.assoc)
    assert (nu.n, nu.r, nu.degree) == (n, 1, 2)
    # dnu = w, spot-checked on cells of the four-term formula
    for _ in range(200):
        a, b, c = (rng.randrange(n) for _ in range(3))
        dnu = nu.entry(b, c) - nu.entry((a + b) % n, c) + nu.entry(a, (b + c) % n) - nu.entry(a, b)
        assert dnu % n == w.entry(a, b, c)


def test_cocycle_check_reads_the_cross_pair_within_budget(monkeypatch):
    # with both diagonal carry tables zeroed at (A2, 7), each axis reads
    # class 0 and the class is carried by the cross pair (0, 1), c_01 = 1
    real = closed_form_associator

    def no_diagonal(hopf):
        carries = real(hopf).carries
        for i in range(2):
            carries[i][i] = [[0] * 7 for _ in range(7)]
        return Associator(hopf, carries)

    monkeypatch.setattr(qborel.report, "closed_form_associator", no_diagonal)
    ctx = CheckContext("A2", 7)
    ctx.assoc
    t0 = time.monotonic()
    status, details, _ = CHECKS["cocycle-nontrivial"](ctx)
    assert time.monotonic() - t0 < 2.0
    assert status == "pass"
    assert details["obstruction"] == {"kind": "functional", "modulus": 7, "value": 1,
                                      "cells": pair_functional(7, 2, 0, 1)}


def test_verify_a2_at_max_n_within_budget(tmp_path):
    # MAX_N["A2"] is the largest n measured within the budget with 3x
    # headroom; the whole verify run there, in a fresh process, must stay
    # inside the budget, and the next admissible n is refused.  With no
    # dense power of zeta held it peaks near 135 MB (315 MB when every
    # power was interned densely), so it must stay under 200 MB.  The peak
    # is read in a small parent (SPAWN_AND_MEASURE): a child forked from
    # this test process would report this process's RSS as its own
    n = MAX_N["A2"]
    assert n == 59
    assert scope_violations("A2", 61) and validate_params("A2", 61) == []
    out = tmp_path / "report.json"
    code, elapsed, peak_mb = _spawn_and_measure(out, "verify", "--type", "A2", "--n", str(n),
                                                "--checks", "all", "--format", "structured")
    assert code == 0
    statuses = {e["check"]: e["status"] for e in json.loads(out.read_text())["entries"]}
    assert list(statuses.values()) == ["pass"] * 7 + ["skip"] * 2
    assert elapsed < 60.0
    assert peak_mb < 200.0


def test_twist_and_associator_hold_only_their_pair_tables():
    # at (A2, 29) the twist holds its r^2 step tables of m entries, the
    # associator its r^2 carry tables of n^2 entries, r^2 (m + n^2) in all,
    # beside the shared coarse coordinate table, and each image of
    # Delta_J(e_i) its r rows and r step rows of n entries: no step rows over
    # the m^r fine cells, no slices over the (n^r)^2 coarse pairs and no
    # image rows over the n^r coarse cells.  Building the twist and the
    # associator peaks under 1 MB.  At MAX_N["A2"] the pentagon, over
    # r^2 n^3 cells, takes under 1 s, and so does quasi-coassociativity on
    # 1, g_i^n and e_i, over (r + 1) r n^2 cells per slot word.  No
    # addition table of the coarse grid is built: src/ holds none
    # (test_src_is_what_verify_and_export_reach)
    import tracemalloc

    hopf = build_borel("A2", 29)
    A = hopf.algebra
    m, n, r = A.m, A.n, A.rank
    tracemalloc.start()
    try:
        J = build_twist(hopf)
        assoc = closed_form_associator(hopf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert set(vars(J)) == {"hopf", "tables"}
    assert set(vars(assoc)) == {"hopf", "carries", "L", "coords"}
    assert assoc.coords is coord_table(n, r)
    held = [len(s) for row in J.tables for s in row]
    held += [len(x) for row in assoc.carries for K in row for x in K]
    assert sum(held) == r * r * (m + n * n)
    for f, t in _images(hopf, J):
        assert len(f) == len(t) == r
        assert sum(len(row) for row in f + t) == 2 * r * n
    # the checks read the algebra's structure data only; its basis
    # certificate, most of build_borel at this n, is left out here
    hopf = HopfData(BorelAlgebra("A2", MAX_N["A2"]))
    A = hopf.algebra
    J = build_twist(hopf)
    assoc = closed_form_associator(hopf)
    t0 = time.monotonic()
    assert pentagon_check(hopf, assoc) is None
    assert time.monotonic() - t0 < 1.0
    images = _images(hopf, J)
    probes = [A.one, *SubalgebraBasis(hopf).generators()]
    t0 = time.monotonic()
    assert all(quasi_coassoc_check(hopf, images, assoc, x) is None for x in probes)
    assert time.monotonic() - t0 < 1.0


# Runs the qborel CLI on the argv given, its stdout sent to the file
# given, in a child of this small parent, and prints its exit code, wall
# time and peak RSS in MB.  The peak is read with os.wait4 here rather than
# in the test process, because a spawned child's ru_maxrss counts the RSS
# of the process it was spawned from, and this parent is small where the
# test process is not.
SPAWN_AND_MEASURE = """
import os, sys, time
out = os.open(sys.argv[1], os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
t0 = time.monotonic()
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "qborel.cli", *sys.argv[2:]],
                     os.environ, file_actions=[(os.POSIX_SPAWN_DUP2, out, 1)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), time.monotonic() - t0, usage.ru_maxrss / 1024)
"""


def _spawn_and_measure(out, *argv):
    """The exit code, wall time and peak RSS in MB of one fresh qborel
    process on argv, its stdout written to out (SPAWN_AND_MEASURE)."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", SPAWN_AND_MEASURE, str(out), *argv],
                          env=env, timeout=120, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, elapsed, peak_mb = proc.stdout.split()
    return int(code), float(elapsed), float(peak_mb)


def test_verify_a1n79_within_5_s_and_100_mb(tmp_path):
    # at (A1, 79) the field Q(zeta_6241) has degree 6162, and its m dense
    # powers alone would take 584 MB; the whole run, in a fresh process,
    # passes every check within a twelfth of the budget's time and a tenth
    # of its memory
    out = tmp_path / "report.json"
    code, elapsed, peak_mb = _spawn_and_measure(out, "verify", "--type", "A1", "--n", "79",
                                                "--checks", "all", "--format", "structured")
    assert code == 0
    statuses = {e["check"]: e["status"] for e in json.loads(out.read_text())["entries"]}
    assert list(statuses.values()) == ["pass"] * 7 + ["skip"] * 2
    assert elapsed < 5.0
    assert peak_mb < 100.0


def test_export_streams_within_verify_memory(tmp_path):
    # export writes its document one entry at a time, so a 20 MB twist
    # document at (A1, 9) costs no more memory than verify there (holding
    # the whole document took 159 MB), and the file keeps the bytes one
    # json.dumps of the whole document wrote
    doc = tmp_path / "twist.json"
    code, _, export_mb = _spawn_and_measure(tmp_path / "stdout", "export", "--type", "A1",
                                            "--n", "9", "--what", "twist", "--out", str(doc))
    assert code == 0
    code, _, verify_mb = _spawn_and_measure(tmp_path / "report", "verify", "--type", "A1",
                                            "--n", "9")
    assert code == 0
    assert export_mb < verify_mb + 5.0
    assert hashlib.sha256(doc.read_bytes()).hexdigest() == (
        "741801f4ae3b04dec0e0364b61e00c4a186e4eb0a59dac2bac60a8aed6c47d3c")


@pytest.mark.parametrize("n", [11, 13])
def test_verify_all_a1_large_n(n, capsys):
    t0 = time.monotonic()
    code = cli.main(["verify", "--type", "A1", "--n", str(n), "--checks", "all",
                     "--format", "structured"])
    elapsed = time.monotonic() - t0
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    statuses = {e["check"]: e["status"] for e in doc["entries"]}
    assert sorted(statuses.values()).count("pass") == 7
    assert [k for k, v in statuses.items() if v == "skip"] == ["double-twist", "r-matrix"]
    details = {e["check"]: e["details"] for e in doc["entries"]}
    assert details["subalgebra-dimension"]["dim_subalgebra"] == n**3
    assert details["cocycle-nontrivial"]["obstruction"] == {
        "kind": "invariant", "value": (-2) % n, "modulus": n
    }
    assert elapsed < 15.0


def test_double_checks_at_a1n5_within_budget():
    # the whole verify run in a fresh process; RUSAGE_CHILDREN's peak covers
    # every child this process has waited for, so it bounds this one's
    import resource

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "qborel.cli", "verify", "--type", "A1", "--n", "5",
         "--checks", "all", "--format", "structured"],
        env=env, timeout=120, capture_output=True, text=True,
    )
    elapsed = time.monotonic() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    statuses = {e["check"]: e["status"] for e in doc["entries"]}
    assert len(statuses) == 9 and set(statuses.values()) == {"pass"}
    details = {e["check"]: e["details"] for e in doc["entries"]}
    assert details["double-twist"] == {
        "dimension": 5**8, "t": 13, "central_grouplikes": 25,
    }
    assert elapsed < 60.0
    assert peak_mb < 1024.0


def test_negative_controls():
    # corrupted straightening rule: coproduct multiplicativity must break
    hbad = build_borel("A2", 5)
    B = hbad.algebra
    e1, e2 = B.generator_e(0), B.generator_e(1)
    assert hbad.check_coproduct_multiplicative(e2, e1)
    rules = B.rewrite.swaps[(2, 0)]
    B.rewrite.swaps[(2, 0)] = [(rules[0][0] * B.field.zeta_pow(1), rules[0][1])] + list(
        rules[1:]
    )
    B._letter_mul_cache.clear()
    assert not hbad.check_coproduct_multiplicative(e2, e1)

    # a corrupted carry table, twist step table and R-matrix, as rows
    check_rows("A1-3/carry table/k00(2,2)+n", "A1-3/step table/s00(5)+1", "A1-3/R-matrix/key dropped")


# The functions of src/qborel that the runs of test_src_is_what_verify_and_export_reach
# never call, each with the reason it stays.  Every other function of every
# module is reached.
UNREACHED = {
    # failure paths: they run only when a proof obligation fails
    "associator._pentagon_sweep": "pentagon_check when a carry table fails its certificate",
    "twist.flat_index": "the failing cells of _pentagon_sweep and quasi_coassoc_check",
    "cocycle.normal_form_witness": "decide_coboundary when every class coordinate is 0",
    "cocycle.AdditiveCochain.flat": "the cells of that witness in a failing report",
    "borel.ParameterError.__init__": "an inadmissible (type, n)",
    "cyclotomic.CycScalar.__repr__": "the scalars that certificate failures print",
    # the process entry, which ends the process after cli.main
    "cli.run": "the entry point of qborel and python -m qborel.cli",
    # constructors of the package's types, for callers building their own
    "algebra.BorelAlgebra.tensor": "a tensor from its terms",
    "algebra.Element.__bool__": "whether an element is non-zero",
    "cyclotomic.CycField.from_rational": "the scalar of an int or a Fraction",
    "cyclotomic.CycField.from_integers": "the scalar of its power-basis numerators",
    # the Hopf algebra axioms of H, kept for their certificate (ROADMAP item 11)
    "borel.HopfData.check_coproduct_multiplicative": "a Hopf axiom of H",
    "borel.HopfData.check_coassociativity": "a Hopf axiom of H",
    "borel.HopfData.check_counit_laws": "a Hopf axiom of H",
    "borel.HopfData.check_antipode_axiom": "a Hopf axiom of H",
    "borel.HopfData.counit": "the counit that check_counit_laws reads",
    "borel.HopfData.multiply_tensor_slots": "the slot product of check_antipode_axiom",
    "algebra.apply_on_slot": "the slot maps of check_counit_laws and check_antipode_axiom",
    # products of Hopf-map images: verify and export read the maps at single
    # letter powers only, which need no product
    "algebra.tensor_multiply": "the products of coproducts of check_coproduct_multiplicative "
                               "and of the tests' references",
    "algebra.TensorPower.multiply": "the product of two tensors as Elements, for the same",
    "algebra.LetterExtension._times": "the image of a monomial of two letters or more",
}


def _defined_functions(module):
    """Qualified names of the functions and methods a module defines at its top level."""
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            yield from (f"{node.name}.{sub.name}" for sub in node.body
                        if isinstance(sub, ast.FunctionDef))


def test_src_is_what_verify_and_export_reach(tmp_path, capsys):
    # src/qborel holds what the CLI's verify and export reach, and what
    # UNREACHED lists with its reason: verify at (A1, 3) in both formats and
    # at (A2, 5), every export kind at (A1, 3), and the borel export at
    # (A2, 5).  Larger scales reach no further function.
    import qborel

    modules = {}
    for info in pkgutil.iter_modules(qborel.__path__):
        module = importlib.import_module(f"qborel.{info.name}")
        modules[module.__file__] = module
    for module in modules.values():  # a cached call would not show
        for fn in vars(module).values():
            getattr(fn, "cache_clear", lambda: None)()
    runs = [["verify", "--type", "A1", "--n", "3"],
            ["verify", "--type", "A1", "--n", "3", "--format", "structured"],
            ["verify", "--type", "A2", "--n", "5"]]
    runs += [["export", "--type", "A1", "--n", "3", "--what", kind, "--out", str(tmp_path / kind)]
             for kind in EXPORT_KINDS]
    runs += [["export", "--type", "A2", "--n", "5", "--what", "borel", "--out", str(tmp_path / "b")]]
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in modules:
            called.add((frame.f_code.co_filename, frame.f_code.co_qualname))

    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in runs]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(runs), capsys.readouterr().err
    prefix = len(qborel.__name__) + 1
    unreached = {f"{module.__name__[prefix:]}.{name}" for path, module in modules.items()
                 for name in _defined_functions(module) if (path, name) not in called}
    assert unreached == set(UNREACHED)


def test_reports_deterministic():
    checks = ["subalgebra-dimension", "pentagon", "cocycle-nontrivial"]
    first = run_checks("A1", 3, checks, seed=11).to_structured()
    second = run_checks("A1", 3, checks, seed=11).to_structured()
    third = run_checks("A1", 3, checks, seed=11).to_structured()
    assert first == second == third
