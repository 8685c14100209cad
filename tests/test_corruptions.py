"""The corruption matrix: every negative control of the verifier in one table.

A row of ROWS holds

- a scale (cartan type, n);
- the held object it corrupts, one of HELD;
- a corruption: a plain function that returns a context manager, which
  patches one attribute on entry and restores it on exit (patched);
- the checks of report.CHECK_ORDER that must fail, each with the
  certificate text or cell its counterexample must name (names), and an
  optional oracle for what the report cannot show.

run_row runs a row in process through report.run_checks, with every check
in CHECK_ORDER, and check_row checks it: a check the row does not name
must pass, or skip where the double is not built.  Each scale has an
uncorrupted row, which must pass every check.

The seeded rows (seeded_rows) each lie on a reduced route: the twist
premises per table, dJ = Phi per pair, the pentagon's normal form, or
quasi-coassociativity on axis cells.  Their names are computed from the
whole-grid references of tests/oracles.py on the same corruption, so the
route must reach the verdict of the reference and name the same cell.

The proof obligations raise; none rests on an assert statement.  So the
file is also a script: python -O test_corruptions.py TYPE N first runs
assert False, which only python -O strips, and then prints the statuses
and counterexamples of every row at (TYPE, N) as JSON.
test_rows_reproduce_under_optimize_flag spawns it once per scale and asks
for the in-process results exactly.

To add a row, append a Row to HAND_ROWS with a corruption built from
patched, and name the checks it must fail.  A row id is
"TYPE-N/held/what"; tests elsewhere name rows by it (check_rows).
"""

from __future__ import annotations

import contextlib
import copy
import functools
import json
import os
import random
import re
import subprocess
import sys
from typing import Callable, NamedTuple

import oracles as O
import pytest

import qborel.algebra as algebra
import qborel.associator as associator
import qborel.borel as borel
import qborel.cartan as cartan
import qborel.cocycle as cocycle
import qborel.double as double
import qborel.report as report
import qborel.twist as twist
from qborel.associator import (Associator, coboundary_matches_associator, pentagon_check,
                               quasi_coassoc_check)
from qborel.borel import build_borel, carry
from qborel.double import DOUBLE_SCALES
from qborel.report import CHECK_ORDER, run_checks
from qborel.twist import TwistJ, build_twist, twisted_generator_bold

# The objects the verifier holds and a row can corrupt.  The first nine
# must each have a row (test_every_check_and_held_object_has_a_row).
HELD = (
    "step table",          # s_kj of the twist, twist.step_tables
    "carry table",         # kappa_ij of the associator, associator.carry_tables
    "image row f_ij",      # the rows f of Delta_J(e_i), twist.twisted_generator_bold
    "step row t_k",        # the step rows t of Delta_J(e_i)
    "rewriting rule",      # a straightening rule of u_q(b), moved by q
    "Cartan entry",        # an entry a_ij of the Cartan matrix
    "structure table",     # a scalar of the double's table of cop(e^k) and S^-1
    "W leg",               # the leg W of the double's twist
    "z leg",               # the leg z of the double's twist
    "subalgebra generators",
    "carry",               # the carry of Z/n that the sector presentation reads
    "pair functional",     # the functionals f_ij that decide the class
    "carry normal form",   # the normal form (c, mu) of a carry table
    "coproduct of H",      # the coproduct, antipode and product of H the double reads
    "antipode of H",
    "product of H",
    "R-matrix",
    "generator relations", # the relations identify_generators certifies on E, F, K, K^-1, K'
    "nothing",             # the uncorrupted row of each scale
)
REQUIRED_HELD = HELD[:9]


class Row(NamedTuple):
    id: str
    scale: tuple
    held: str
    corrupt: Callable
    # check -> what its counterexample must name (see _names), or a function
    # of no arguments returning (names, oracle) from the whole-grid references
    names: dict | Callable
    oracle: Callable | None = None  # oracle(results), results as run_row returns them


@contextlib.contextmanager
def patched(owner, name, make):
    """owner.name replaced by make(owner.name) inside the block, then restored."""
    real = getattr(owner, name)
    setattr(owner, name, make(real))
    try:
        yield
    finally:
        setattr(owner, name, real)


def both(first, second):
    """Two corruptions at once."""
    @contextlib.contextmanager
    def corrupt():
        with first(), second():
            yield
    return corrupt


# -- the corruptions ---------------------------------------------------


def cell_moved(path, by, reduce=True):
    """A change of a table: the entry at path moved by by, mod m unless reduce is False."""
    def change(table, A):
        *head, last = path
        for k in head:
            table = table[k]
        table[last] = (table[last] + by) % A.m if reduce else table[last] + by
    return change


def table_moved(i, j, delta):
    """A change of the carry tables: kappa_ij moved by n delta(x, y) on every cell, mod m."""
    def change(tables, A):
        tables[i][j] = [[(v + A.n * delta(x, y)) % A.m for y, v in enumerate(row)]
                        for x, row in enumerate(tables[i][j])]
    return change


def _tables_changed(owner, name, change):
    def make(real):
        def tables(hopf):
            got = real(hopf)
            change(got, hopf.algebra)
            return got
        return tables
    return lambda: patched(owner, name, make)


def step_tables_changed(change):
    """The twist's step tables s_kj, as twist.step_tables builds them, changed."""
    return _tables_changed(twist, "step_tables", change)


def carry_tables_changed(change):
    """The associator's carry tables kappa_ij, as associator.carry_tables builds them, changed."""
    return _tables_changed(associator, "carry_tables", change)


def carry_tables_are(tables):
    return lambda: patched(associator, "carry_tables", lambda real: lambda hopf: copy.deepcopy(tables))


def image_changed(i, change):
    """The (f, t) of Delta_J(e_i) changed, as the images stage builds it."""
    def make(real):
        def twisted_generator_bold(hopf, J, e):
            image = real(hopf, J, e)
            if e == i:
                change(image, hopf.algebra)
            return image
        return twisted_generator_bold
    return lambda: patched(report, "twisted_generator_bold", make)


def image_entry_moved(i, family, k, x, by):
    """Entry x of the row f_ik (family 0) or of the step row t_k (family 1)
    of Delta_J(e_i) moved by by, mod m."""
    return image_changed(i, cell_moved((family, k, x), by))


def rule_moved(pair, index, change):
    """The straightening rule for the letters pair: its term index replaced
    by change(algebra, (coefficient, word)), after the algebra is built."""
    def make(real):
        def __init__(self, *args):
            real(self, *args)
            terms = list(self.rewrite.swaps[pair])
            terms[index] = change(self, terms[index])
            self.rewrite.swaps[pair] = tuple(terms)
        return __init__
    return lambda: patched(algebra.BorelAlgebra, "__init__", make)


def times_q(A, term):
    c, word = term
    return c * A.field.zeta_pow(1), word


def cartan_entry_moved(cartan_type, i, j, by):
    def make(real):
        def lie_datum(tag):
            datum = real(tag)
            if tag != cartan_type:
                return datum
            rows = [list(row) for row in datum.cartan_matrix]
            rows[i][j] += by
            return datum._replace(cartan_matrix=tuple(map(tuple, rows)))
        return lie_datum
    return lambda: patched(algebra, "lie_datum", make)


def r_matrix_key_moved():
    """One key of R moved to a wrong second leg."""
    def make(real):
        def r_matrix(dbl):
            R = real(dbl)
            (k1, (f, a)), c = next(iter(R.items()))
            del R[(k1, (f, a))]
            R[(k1, (f, dbl.algebra.monomial((1,), (0,))))] = c
            return R
        return r_matrix
    return lambda: patched(report, "r_matrix", make)


def r_matrix_key_dropped():
    def make(real):
        def r_matrix(dbl):
            R = real(dbl)
            del R[next(iter(R))]
            return R
        return r_matrix
    return lambda: patched(report, "r_matrix", make)


def w_leg(leg):
    """The leg W of the double's twist replaced by leg(twist)."""
    return lambda: patched(double.DoubleTwist, "W", lambda real: property(leg))


def z_powers_of_f():
    """The powers of z, the other leg of the double's twist, replaced by those of F."""
    return lambda: patched(double.DoubleTwist, "__init__", lambda real: lambda self, dbl, gens, zpow: real(
        self, dbl, gens, [gens["F"].power(k) for k in range(dbl.m)]))


def double_table_moved(change):
    """The structure table of the double changed by change(dbl) after it is built."""
    def make(real):
        def build_double(hopf):
            dbl = real(hopf)
            change(dbl)
            return dbl
        return build_double
    return lambda: patched(report, "build_double", make)


def _scale_antipode_scalar(dbl):
    # the scalar of S^-1(g^2 e), which only the cross terms of e^2 at j = 1 read
    c, cs = dbl.table[2][1]
    dbl.table[2][1] = (c, cs * dbl.field.zeta_pow(1))


def hopf_map_changed(name, change):
    """HopfData.name, as the double reads it: change(hopf, x, got) in place of got."""
    def make(real):
        def method(self, x):
            return change(self, x, real(self, x))
        return method
    return lambda: patched(borel.HopfData, name, make)


def _cop_e_term_scaled(hopf, mono, got):
    # cop(e) with its term 1 x e times q
    A = hopf.algebra
    if mono != A.monomial((0,), (1,)):
        return got
    key = (A.monomial((0,), (0,)), mono)
    return algebra.Element(got.ring, {**got.terms, key: got.terms[key] * A.field.zeta_pow(1)})


def _antipode_inv_of_g_scaled(hopf, x, got):
    # S^-1(g) = q g^-1
    A = hopf.algebra
    return got.scale(A.field.zeta_pow(1)) if set(x.terms) == {A.monomial((1,), (0,))} else got


def _antipode_inv_of_e_shifted(hopf, x, got):
    # S^-1(e) with its group exponent shifted by 1
    A = hopf.algebra
    if set(x.terms) != {A.monomial((0,), (1,))}:
        return got
    (s, c), = got.terms.items()
    return A.element({A.monomial((s.group[0] + 1,), s.pbw): c})


def _grouplike_scaled(hopf, group, got):
    # cop(g) = q g x g
    return got.scale(hopf.algebra.field.zeta_pow(1)) if group == (1,) else got


def product_scaled(u_of, v_of):
    """The product u v of H scaled by q, for the monomials u_of(A), v_of(A)."""
    def make(real):
        def multiply_monomials(self, u, v):
            got = real(self, u, v)
            if (u, v) == (u_of(self), v_of(self)):
                return got.scale(self.field.zeta_pow(1))
            return got
        return multiply_monomials
    return lambda: patched(algebra.BorelAlgebra, "multiply_monomials", make)


def pair_functional_moved():
    def make(real):
        def pair_functional(*args):
            cells = real(*args)
            cells[0][1] += 1
            return cells
        return pair_functional
    return lambda: patched(cocycle, "pair_functional", make)


def normal_form_shifted():
    def make(real):
        def carry_normal_form(lam, n):
            c, mu = real(lam, n)
            mu[2] += 1
            return c, mu
        return carry_normal_form
    return lambda: patched(associator, "carry_normal_form", make)


def generator_g_listed():
    return lambda: patched(borel.SubalgebraBasis, "generators",
                           lambda real: lambda self: real(self) + [self.algebra.generator_g(0)])


# -- the hand rows -------------------------------------------------------

_MU = [0, 1, 1]
# at (A1, 3): a carry table of class 0, n dmu, and one that is no 2-cocycle
_CLASS_ZERO = [[[[3 * (_MU[x] + _MU[y] - _MU[(x + y) % 3]) for y in range(3)] for x in range(3)]]]
_NO_COCYCLE = [[[[0, 0, 0], [0, 0, 3], [0, 0, 0]]]]
_ASSOC_CHECKS = ("associator-coboundary", "pentagon", "quasi-coassociativity", "cocycle-nontrivial")
_DOUBLE_CHECKS = ("double-twist", "r-matrix")
_ALGEBRA_CHECKS = tuple(c for c in CHECK_ORDER if c not in _DOUBLE_CHECKS)


def _fail_all(checks, text):
    return dict.fromkeys(checks, text)


def _twist_fails(text):
    return _fail_all(("coproduct-support", "associator-coboundary", "quasi-coassociativity"), text)


def _quasi_mismatch(element, pattern, cell, lhs, rhs):
    return {"quasi-coassociativity": {"element": element, "mismatch": {
        "pattern": pattern, "cell": cell, "lhs": lhs, "rhs": rhs}}}


def _coboundary(z, u, v, dj, phi):
    return {"associator-coboundary": {"z": z, "u": u, "v": v, "coboundary_exponent": dj,
                                      "associator_exponent": phi}}


def _pentagon_sweeps(results):
    # every table fails its certificate under the shifted normal form, so the
    # pentagon is decided by the sweep over all cells, which the closed form passes
    swept = []
    hopf = build_borel("A1", 3)
    with normal_form_shifted()(), patched(associator, "_pentagon_sweep",
                                          lambda real: lambda *args: swept.append(args) or real(*args)):
        assert pentagon_check(hopf, associator.closed_form_associator(hopf)) is None
    assert swept


_G = "Monomial(group=(1,), pbw=(0,))"
_E = "Monomial(group=(0,), pbw=(1,))"

HAND_ROWS = [
    Row("A1-3/nothing/clean", ("A1", 3), "nothing", contextlib.nullcontext, {}),
    Row("A1-5/nothing/clean", ("A1", 5), "nothing", contextlib.nullcontext, {}),
    Row("A2-5/nothing/clean", ("A2", 5), "nothing", contextlib.nullcontext, {}),
    Row("A2-7/nothing/clean", ("A2", 7), "nothing", contextlib.nullcontext, {}),
    # the twist's premise certificate names the table and the fine cell
    Row("A1-3/step table/s00(5)+1", ("A1", 3), "step table", step_tables_changed(cell_moved((0, 0, 5), 1)),
        _twist_fails("twist step table (0, 0) fails at the fine cell y = (5,): "
                     "s_00(5) = 4 is not a multiple of n = 3")),
    Row("A2-5/step table/s00(5)+1", ("A2", 5), "step table", step_tables_changed(cell_moved((0, 0, 5), 1)),
        _twist_fails("twist step table (0, 0) fails at the fine cell y = (5, 0): "
                     "s_00(5) = 16 is not a multiple of n = 5")),
    # a carry cell off the multiples of n: the associator refuses its tables
    Row("A1-3/carry table/k00(2,2)+1", ("A1", 3), "carry table",
        carry_tables_changed(cell_moved((0, 0, 2, 2), 1, reduce=False)),
        _fail_all(_ASSOC_CHECKS, "carry table (0, 0): associator coefficients must be powers of q^n")),
    # valid tables that are no longer dJ
    Row("A1-3/carry table/k00(2,2)+n", ("A1", 3), "carry table",
        carry_tables_changed(cell_moved((0, 0, 2, 2), 3)), {
        **_coboundary([1], [2], [2], 3, 6), "pentagon": {"cell": [1, 1, 1, 2], "lhs": 0, "rhs": 6},
        **_quasi_mismatch("e1", [[1], [0], [0]], [0, 2, 2], 2, 5)}),
    Row("A1-3/carry table/k00(1,1)+n", ("A1", 3), "carry table",
        carry_tables_changed(cell_moved((0, 0, 1, 1), 3)), {
        **_coboundary([1], [1], [1], 0, 3), "pentagon": {"cell": [1, 1, 1, 2], "lhs": 0, "rhs": 6},
        **_quasi_mismatch("e1", [[1], [0], [0]], [0, 1, 1], 4, 7)}),
    Row("A2-5/carry table/k01(1,1)+n", ("A2", 5), "carry table",
        carry_tables_changed(cell_moved((0, 1, 1, 1), 5)), {
        **_coboundary([1, 0], [0, 1], [0, 1], 0, 5),
        "pentagon": {"cell": [5, 1, 1, 2], "lhs": 5, "rhs": 0},
        **_quasi_mismatch("e1", [[1, 0, 0], [0, 0, 0], [0, 0, 0]], [0, 1, 1], 23, 3)}),
    # moved by n dmu: still a 2-cocycle, so the pentagon passes and dJ = Phi fails
    Row("A2-5/carry table/k01+n dmu", ("A2", 5), "carry table", carry_tables_changed(
        table_moved(0, 1, lambda x, y, mu=(0, 1, 3, 0, 2): mu[x] + mu[y] - mu[(x + y) % 5])), {
        **_coboundary([1, 0], [0, 1], [0, 1], 0, 20),
        **_quasi_mismatch("e1", [[1, 0, 0], [0, 0, 0], [0, 0, 0]], [0, 1, 1], 23, 18)}),
    # moved by 2n carry, a cocycle, then at one cell: the pentagon names the cell
    Row("A2-5/carry table/k11+2n carry,(2,3)+n", ("A2", 5), "carry table", carry_tables_changed(
        table_moved(1, 1, lambda x, y: 2 * (x + y >= 5) + ((x, y) == (2, 3)))), {
        **_coboundary([0, 1], [0, 1], [0, 4], 15, 0),
        "pentagon": {"cell": [1, 1, 1, 3], "lhs": 5, "rhs": 0},
        **_quasi_mismatch("e2", [[0, 0, 1], [0, 0, 0], [0, 0, 0]], [0, 1, 4], 0, 10)}),
    Row("A1-3/carry table/class zero", ("A1", 3), "carry table", carry_tables_are(_CLASS_ZERO), {
        **_coboundary([1], [1], [1], 0, 3), **_quasi_mismatch("e1", [[1], [0], [0]], [0, 1, 1], 4, 7),
        "cocycle-nontrivial": {"witness": {"n": 3, "r": 1, "degree": 2,
                                           "cells": [0, 0, 0, 0, 0, 1, 0, 0, 2]}}}),
    Row("A1-3/carry table/no cocycle", ("A1", 3), "carry table", carry_tables_are(_NO_COCYCLE), {
        **_coboundary([1], [2], [1], 3, 0), "pentagon": {"cell": [1, 1, 1, 1], "lhs": 0, "rhs": 3},
        **_quasi_mismatch("e1", [[1], [0], [0]], [0, 2, 1], 0, 6),
        "cocycle-nontrivial": "carry table (0, 0) has class 0 but is not dmu at (x, y) = (1, 2): "
                              "w is not a 3-cocycle"}),
    Row("A1-3/carry normal form/mu(2)+1", ("A1", 3), "carry normal form", normal_form_shifted(), {},
        _pentagon_sweeps),
    Row("A1-3/carry normal form/mu(2)+1 on class zero", ("A1", 3), "carry normal form",
        both(carry_tables_are(_CLASS_ZERO), normal_form_shifted()), {
            **_coboundary([1], [1], [1], 0, 3), **_quasi_mismatch("e1", [[1], [0], [0]], [0, 1, 1], 4, 7),
            "cocycle-nontrivial": "carry table (0, 0) has class 0 but is not dmu at (x, y) = (1, 1): "
                                  "w is not a 3-cocycle"}),
    Row("A1-3/pair functional/cell 0+1", ("A1", 3), "pair functional", pair_functional_moved(), {
        "cocycle-nontrivial": "functional does not vanish on the coboundary of the unit 2-cochain "
                              "at (0, 1)"}),
    Row("A2-5/step row t_k/t1 of e1 at 2+n", ("A2", 5), "step row t_k", image_entry_moved(0, 1, 1, 2, 5),
        _quasi_mismatch("e1", [[0, 0, 0], [1, 0, 0], [0, 0, 0]], [1, 0, 10], 9, 4)),
    Row("A2-5/image row f_ij/f11 of e2 at 3+1", ("A2", 5), "image row f_ij", image_entry_moved(1, 0, 1, 3, 1),
        _quasi_mismatch("e2", [[0, 0, 1], [0, 0, 0], [0, 0, 0]], [0, 1, 2], 7, 6)),
    # build_borel's basis certificate: every check that reads the algebra fails
    Row("A2-5/rewriting rule/E1 past E0 times q", ("A2", 5), "rewriting rule", rule_moved((1, 0), 0, times_q),
        _fail_all(_ALGEBRA_CHECKS, "PBW basis: the ambiguity E_2 E_1 E_0 does not resolve: its two "
                                   "reductions differ at the normal word (0, 2, 0)")),
    # another algebra with a PBW basis, but not u_q(b): the e_12 relation fails
    Row("A2-5/rewriting rule/E2 past E0 times q", ("A2", 5), "rewriting rule", rule_moved((2, 0), 0, times_q),
        _fail_all(_ALGEBRA_CHECKS, "PBW basis: the relation E_1 = E_0 E_2 - q^(-1) E_2 E_0 fails: its two "
                                   "sides differ at the normal word (1, 0, 1)")),
    # E_2, of weight (0, 1), in place of e12 in the rule for E_2 E_0
    Row("A2-5/rewriting rule/E2 past E0 wrong weight", ("A2", 5), "rewriting rule",
        rule_moved((2, 0), 1, lambda A, term: (term[0], (2,))),
        _fail_all(_ALGEBRA_CHECKS, "PBW basis: the rule for E_2 E_0 has the word (2,); its words must "
                                   "have weight (1, 1) and precede (2, 0) in deglex order")),
    # K = g^4: the twist and the associator follow it, the double's premise
    # cop(e) = e x g^2 + 1 x e does not
    Row("A1-3/Cartan entry/a00+2", ("A1", 3), "Cartan entry", cartan_entry_moved("A1", 0, 0, 2),
        _fail_all(_DOUBLE_CHECKS, f"generator premise: cop(e) is {{({_E}, Monomial(group=(4,), pbw=(0,))): "
                                  "Cyc[9](1), ")),
    Row("A1-3/subalgebra generators/g listed", ("A1", 3), "subalgebra generators", generator_g_listed(),
        _fail_all(("coproduct-support", "subalgebra-dimension", "presentation"),
                  f"the generator {_G} lies outside the subalgebra basis")),
    # carry(x, y) = [x + y > n]: the composition law fails at its first product at the wrap
    Row("A1-3/carry/dropped at the wrap", ("A1", 3), "carry",
        lambda: patched(borel, "carry", lambda real: lambda x, y, n: int(x + y > n)),
        {"presentation": {"relation": "composition", "i": 0, "j1": 2, "j2": 1}}),
    Row("A1-3/R-matrix/key moved", ("A1", 3), "R-matrix", r_matrix_key_moved(), {"r-matrix": {
        "premise": "every key of R is (eps x u) x (delta_v x 1)",
        "key": [[[0, 0], {"group_exp": [0], "pbw_exp": [0]}],
                [{"group_exp": [0], "pbw_exp": [0]}, {"group_exp": [1], "pbw_exp": [0]}]]}}),
    Row("A1-3/R-matrix/key dropped", ("A1", 3), "R-matrix", r_matrix_key_dropped(), {"r-matrix": {
        "generator": "E", "residual_terms": 36,
        "key": [[{"group_exp": [0], "pbw_exp": [0]}, {"group_exp": [0], "pbw_exp": [0]}],
                [{"group_exp": [0], "pbw_exp": [0]}, {"group_exp": [0], "pbw_exp": [1]}]]}}),
    # scaled by q after the certificate has run: the products read it
    Row("A1-3/structure table/S^-1(g^2 e) of e^2 times q", ("A1", 3), "structure table",
        double_table_moved(_scale_antipode_scalar), {
        "r-matrix": {"generator": "F", "residual_terms": 81,
                     "key": [[{"group_exp": [0], "pbw_exp": [0]}, {"group_exp": [0], "pbw_exp": [1]}],
                             [{"group_exp": [1], "pbw_exp": [2]}, {"group_exp": [8], "pbw_exp": [0]}]]}}),
    Row("A1-3/generator relations/K inverse", ("A1", 3), "generator relations",
        lambda: patched(double, "_relations_hold", lambda real: lambda *args: "K inverse"),
        _fail_all(_DOUBLE_CHECKS, {"generator_validation": "K inverse"})),
    # q K^5 has order 9 and the weights of K^5, but Delta(q K^5) = q K^5 x K^5
    Row("A1-3/W leg/q K^5", ("A1", 3), "W leg",
        w_leg(lambda tw: tw.gens["K"].power(5).scale(tw.dbl.field.zeta_pow(1))),
        {"double-twist": "W must be grouplike: Delta(W) = W x W"}),
    Row("A1-3/W leg/E", ("A1", 3), "W leg", w_leg(lambda tw: tw.gens["E"]),
        {"double-twist": "W must have order dividing 9"}),
    Row("A1-3/z leg/F", ("A1", 3), "z leg", z_powers_of_f(),
        {"double-twist": "z must have order dividing 9"}),
    # H as the double reads it, the images of g and e and the products of
    # fact 4: each row is caught by the check of certify_grading it breaks
    Row("A1-3/coproduct of H/cop(g) times q", ("A1", 3), "coproduct of H",
        hopf_map_changed("grouplike_tensor", _grouplike_scaled),
        _fail_all(_DOUBLE_CHECKS, f"generator premise: cop(g) is {{({_G}, {_G}): Cyc[9](z)}}, not g x g")),
    Row("A1-3/coproduct of H/cop(e) 1 x e times q", ("A1", 3), "coproduct of H",
        hopf_map_changed("coproduct_monomial", _cop_e_term_scaled),
        _fail_all(_DOUBLE_CHECKS, f"generator premise: cop(e) is {{({_E}, Monomial(group=(2,), pbw=(0,))): "
                                  f"Cyc[9](1), (Monomial(group=(0,), pbw=(0,)), {_E}): Cyc[9](z)}}, "
                                  "not e x g^2 + 1 x e")),
    Row("A1-3/antipode of H/S^-1(g) times q", ("A1", 3), "antipode of H",
        hopf_map_changed("antipode_inv", _antipode_inv_of_g_scaled),
        _fail_all(_DOUBLE_CHECKS, "generator premise: S^(-1)(g) is {Monomial(group=(8,), pbw=(0,)): "
                                  "Cyc[9](z)}, not g^(-1)")),
    Row("A1-3/antipode of H/S^-1(e) shifted", ("A1", 3), "antipode of H",
        hopf_map_changed("antipode_inv", _antipode_inv_of_e_shifted),
        _fail_all(_DOUBLE_CHECKS, "generator premise: S^(-1)(e) is {Monomial(group=(8,), pbw=(1,)): "
                                  "Cyc[9](-1)}, not -g^(-2) e")),
    Row("A1-3/product of H/g g times q", ("A1", 3), "product of H",
        product_scaled(lambda A: A.monomial((1,), (0,)), lambda A: A.monomial((1,), (0,))), {
            "presentation": {"relation": "composition", "i": 0, "j1": 1, "j2": 1},
            **_fail_all(_DOUBLE_CHECKS, "product rule: g^1 g^1 is {Monomial(group=(2,), pbw=(0,)): "
                                        "Cyc[9](z)}, the rule gives")}),
    Row("A1-3/product of H/e g times q", ("A1", 3), "product of H",
        product_scaled(lambda A: A.monomial((0,), (1,)), lambda A: A.monomial((1,), (0,))), {
            "presentation": {"relation": "conjugation", "i": 0, "j": 1},
            **_fail_all(_DOUBLE_CHECKS, "product rule: e^1 g^1 is {Monomial(group=(1,), pbw=(1,)): "
                                        "Cyc[9](1)}, the rule gives")}),
]


# -- the seeded rows of the reduced routes ------------------------------


@functools.cache
def _stages(cartan_type, n):
    """The uncorrupted hopf, twist, associator and images of Delta_J(e_i) at
    a scale, which the references corrupt in copies."""
    hopf = build_borel(cartan_type, n)
    J = build_twist(hopf)
    images = [twisted_generator_bold(hopf, J, i) for i in range(hopf.algebra.rank)]
    return hopf, J, associator.closed_form_associator(hopf), images


def _changed_copy(table, change, A):
    out = copy.deepcopy(table)
    change(out, A)
    return out


def _quasi_references(hopf, images, assoc):
    """The whole-grid sweep of quasi-coassociativity on each e_i, and what the
    check must name: the first e_i on which it fails.  The check probes 1
    and each g_i^n first, which are grouplike and commute with the diagonal
    Phi, so they pass on any tables, as the run must show."""
    A = hopf.algebra
    refs = [O.quasi_coassoc_reference(hopf, images, assoc, A.generator_e(i)) for i in range(A.rank)]
    failing = [(i, ref) for i, ref in enumerate(refs) if ref is not None]
    if not failing:
        return refs, {}
    i, ref = failing[0]
    return refs, {"quasi-coassociativity": {"element": f"e{i + 1}", "mismatch": ref}}


def _first_non_cocycle(carries, n):
    """The first table (i, j) whose lambda = kappa_ij / n breaks the cocycle
    identity on (Z/n)^3, or None."""
    for i, row in enumerate(carries):
        for j, K in enumerate(row):
            lam = [[v // n for v in x] for x in K]
            if any((lam[x][y] + lam[(x + y) % n][w] - lam[y][w] - lam[x][(y + w) % n]) % n
                   for x in range(n) for y in range(n) for w in range(n)):
                return i, j
    return None


_PREMISE = re.compile(r"twist step table \((\d+), (\d+)\) fails at the fine cell y = (\([\d, ]*\)): "
                      r".*(vanishes below n|is not a multiple of n|want -n a)")
_PREMISE_KINDS = {"vanishes below n": 1, "is not a multiple of n": 2, "want -n a": 3}


def _step_names(scale, j, change):
    """A step-table row names the table and the fine cell of the premise that
    the sweep over every fine cell names; dJ = Phi on the uncertified twist
    reaches the verdict of its sweep over every coarse pair."""
    hopf, J, assoc, _ = _stages(*scale)
    tables = _changed_copy(J.tables, change, hopf.algebra)
    with pytest.raises(ArithmeticError):
        TwistJ(hopf, tables)
    bad = O.uncertified_twist(hopf, tables)
    hit = coboundary_matches_associator(hopf, bad, assoc)
    ref = O.coboundary_reference(bad, assoc)
    assert (hit is None) == (ref is None)
    assert hit is None or (hit["z"], hit["u"], hit["v"]) == ref
    k, cell, kind = O.step_row_premises(bad)

    def oracle(results):
        got = _PREMISE.match(results["coproduct-support"][1]["assertion"]).groups()
        assert (int(got[0]), got[2], _PREMISE_KINDS[got[3]]) == (k, str(cell), kind)
    return _twist_fails(f"twist step table ({k}, {j}) fails at the fine cell y = {cell}: "), oracle


def _carry_names(scale, change, image=None, cocycle_move=False):
    """A carry-table row names the pentagon cell of O.np_pentagon over every
    cell, the dJ = Phi cell of its sweep over every coarse pair, and the
    quasi-coassociativity cell of its whole-grid sweep; the class is read off
    the normal forms.  image is (i, change) of an image of Delta_J(e_i) moved too."""
    hopf, J, assoc, images = _stages(*scale)
    A = hopf.algebra
    n, r = A.n, A.rank
    bad = Associator(hopf, _changed_copy(assoc.carries, change, A))
    if image is not None:
        images = list(images)
        images[image[0]] = _changed_copy(images[image[0]], image[1], A)
    names = {}
    pentagon = O.np_pentagon(bad)
    # a one-cell move is no 2-cocycle, a move by a 2-cocycle is one
    assert (pentagon is None) == cocycle_move or image is not None
    if pentagon is not None:
        names["pentagon"] = pentagon
    z, u, v = O.coboundary_reference(J, bad)
    names["associator-coboundary"] = {"z": z, "u": u, "v": v,
                                      "coboundary_exponent": O.coboundary_exponent(J, z, u, v)}
    refs, quasi = _quasi_references(hopf, images, bad)
    names.update(quasi)
    # c_ij = sum_x lambda_ij(x, 1) mod n: when every c_ij is 0 the class is
    # trivial, with a witness, or a table is no 2-cocycle and is named
    if all(sum(x[1] // n for x in K) % n == 0 for row in bad.carries for K in row):
        table = _first_non_cocycle(bad.carries, n)
        names["cocycle-nontrivial"] = (
            {"witness": {"n": n, "r": r, "degree": 2}} if table is None
            else f"carry table {table} has class 0 but is not dmu at (x, y) = ")

    def oracle(results):
        es = [image[0]] if image else range(r)
        hits = [quasi_coassoc_check(hopf, images, bad, A.generator_e(i)) for i in es]
        assert hits == [refs[i] for i in es]
        assert any(hits) or image is not None
        witness = results["cocycle-nontrivial"][1]
        if witness is not None and "witness" in witness:
            w = cocycle.restrict_associator(bad)
            cells = O.FlatCochain(n, r, 2, witness["witness"]["cells"])
            assert O.solve_coboundary(w).trivial and O.coboundary_of(cells) == w
    return names, oracle


def _image_names(scale, i, change):
    """An image row names the cell of the whole-grid sweep on e_i."""
    hopf, _, assoc, images = _stages(*scale)
    images = list(images)
    images[i] = _changed_copy(images[i], change, hopf.algebra)
    _, names = _quasi_references(hopf, images, assoc)
    assert names["quasi-coassociativity"]["element"] == f"e{i + 1}"
    return names, None


def _draw_image(rng, r, n, m, family, x):
    i, k = rng.randrange(r), rng.randrange(r)
    by = rng.randrange(1, m) if family == 0 else n * rng.randrange(1, n)
    return i, cell_moved((family, k, x), by)


def _draw_carry(rng, r, n):
    i, j, x, y = rng.randrange(r), rng.randrange(r), rng.randrange(1, n), rng.randrange(1, n)
    return cell_moved((i, j, x, y), n * rng.randrange(1, n))


def seeded_rows(cartan_type, n):
    """72 seeded corruptions at a scale, each on a reduced route, drawn from
    Random(31 + m) in this order: 20 one-cell moves of a step table s_kj,
    20 of a carry table kappa_ij by a multiple of n, 20 of an image row f_ij
    or step row t_k of Delta_J(e_i) (a step row by a multiple of n, and the
    first four at x = 0), 10 of an image entry and a carry table together,
    and 2 of a carry table by a 2-cocycle: n dmu with mu(0) = 0 and mu not
    additive, and n c carry with c != 0.  Their names are computed from the
    whole-grid references on first use."""
    r, m = cartan.lie_datum(cartan_type).rank, n * n
    rng = random.Random(31 + m)
    scale, tag = (cartan_type, n), f"{cartan_type}-{n}"
    rows = []

    def add(what, held, corrupt, reference):
        rows.append(Row(f"{tag}/{held}/{what}", scale, held, corrupt, reference))

    for t in range(20):
        k, j, y = rng.randrange(r), rng.randrange(r), rng.randrange(m)
        change = cell_moved((k, j, y), rng.randrange(1, m))
        add(f"seed {t}", "step table", step_tables_changed(change),
            functools.partial(_step_names, scale, j, change))
    for t in range(20):
        change = _draw_carry(rng, r, n)
        add(f"seed {t}", "carry table", carry_tables_changed(change),
            functools.partial(_carry_names, scale, change))
    for t in range(20):
        x = 0 if t < 4 else rng.randrange(n)
        i, change = _draw_image(rng, r, n, m, t % 2, x)
        add(f"seed {t}", ("image row f_ij", "step row t_k")[t % 2], image_changed(i, change),
            functools.partial(_image_names, scale, i, change))
    for t in range(10):
        image = _draw_image(rng, r, n, m, t % 2, rng.randrange(n))
        change = _draw_carry(rng, r, n)
        add(f"seed {t} with an image entry", "carry table",
            both(image_changed(*image), carry_tables_changed(change)),
            functools.partial(_carry_names, scale, change, image))
    for t in range(2):
        i, j = rng.randrange(r), rng.randrange(r)
        if t % 2:
            c = rng.randrange(1, n)
            delta = functools.partial(lambda c, x, y: c * carry(x, y, n), c)
        else:
            mu = [0] + [rng.randrange(n) for _ in range(n - 1)]
            mu[2] = (2 * mu[1] + rng.randrange(1, n)) % n  # dmu(1, 1) != 0
            delta = functools.partial(lambda mu, x, y: mu[x] + mu[y] - mu[(x + y) % n], mu)
        change = table_moved(i, j, delta)
        add(f"seed {t} by a 2-cocycle", "carry table", carry_tables_changed(change),
            functools.partial(_carry_names, scale, change, cocycle_move=True))
    return rows


SEEDED_SCALES = (("A1", 5), ("A2", 5), ("A2", 7))
ROWS = HAND_ROWS + [row for scale in SEEDED_SCALES for row in seeded_rows(*scale)]
SCALES = sorted({row.scale for row in ROWS})


# -- the harness ---------------------------------------------------------

# The harness shares what a row's held object cannot reach: a row on an
# object outside ALGEBRA_READS reads the algebra its scale builds once
# (_stages), and a row on an object outside DOUBLE_READS, at a scale where
# the double is built, gets the results of the double's two checks on the
# uncorrupted stages, which are the only stages those checks read.
ALGEBRA_READS = {"rewriting rule", "Cartan entry", "coproduct of H", "antipode of H", "product of H"}
DOUBLE_READS = ALGEBRA_READS | {"structure table", "W leg", "z leg", "R-matrix", "generator relations"}


@functools.cache
def _double_checks(cartan_type, n):
    """The double's two checks, run once on the uncorrupted stages:
    (status, details, counterexample) by check."""
    ctx = report.CheckContext(cartan_type, n)
    return {name: report.CHECKS[name](ctx) for name in _DOUBLE_CHECKS}


def _shared(row):
    stack = contextlib.ExitStack()
    if row.held not in ALGEBRA_READS:
        hopf = _stages(*row.scale)[0]
        stack.enter_context(patched(report, "build_borel", lambda real: lambda cartan_type, n: hopf))
    if row.held not in DOUBLE_READS and row.scale in DOUBLE_SCALES:
        done = _double_checks(*row.scale)
        stack.enter_context(patched(report, "CHECKS", lambda real: {
            **real, **{name: lambda ctx, got=got: got for name, got in done.items()}}))
    return stack


def run_row(row):
    """{check: [status, counterexample]} of every check at the row's scale,
    run by report.run_checks under the row's corruption, in JSON form."""
    with _shared(row), row.corrupt():
        got = run_checks(*row.scale)
    return json.loads(json.dumps({r.name: [r.status, r.counterexample] for r in got.results}))


def _names(cex, want):
    """Does the counterexample cex name want?  A str is the start of its
    assertion; a dict holds items of it, a nested dict again a part."""
    if isinstance(want, str):
        return list(cex) == ["assertion"] and cex["assertion"].startswith(want)
    return _part(cex, want)


def _part(got, want):
    if isinstance(want, dict):
        return isinstance(got, dict) and all(k in got and _part(got[k], v) for k, v in want.items())
    return got == want


BY_ID = {row.id: row for row in ROWS}


@functools.cache
def results(row_id):
    """run_row of the row, once per session."""
    return run_row(BY_ID[row_id])


@functools.cache
def check_row(row_id):
    """Once per session, the row's nine statuses and what its failing checks
    name: a check the row names fails and names what the row says, any
    other passes, or skips where the double is not built; then the row's
    oracle."""
    row = BY_ID[row_id]
    if callable(row.names):
        names, oracle = row.names()
    else:
        names, oracle = row.names, row.oracle
    names = json.loads(json.dumps(names))
    got = results(row_id)
    skip = row.scale not in DOUBLE_SCALES
    assert {c: status for c, (status, _) in got.items()} == {
        c: "fail" if c in names else "skip" if skip and c in _DOUBLE_CHECKS else "pass" for c in CHECK_ORDER}
    for check, want in names.items():
        assert _names(got[check][1], want), (check, got[check][1], want)
    if oracle is not None:
        oracle(got)


_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


@functools.cache
def optimized(scale):
    """{row id: results} of every row at scale, run by one python -O process."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(_SRC))
    proc = subprocess.run([sys.executable, "-O", os.path.abspath(__file__), *map(str, scale)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout)


def check_optimized(*row_ids):
    """The python -O run of each row's scale reproduces its in-process
    statuses and counterexamples exactly."""
    for row_id in row_ids:
        assert optimized(BY_ID[row_id].scale)[row_id] == results(row_id), row_id


def check_rows(*row_ids):
    """check_row for each row."""
    for row_id in row_ids:
        check_row(row_id)


# -- the tests -----------------------------------------------------------


@pytest.mark.parametrize("row_id", list(BY_ID))
def test_row(row_id):
    check_row(row_id)


@pytest.mark.parametrize("scale", SCALES, ids=lambda s: f"{s[0]}-{s[1]}")
def test_rows_reproduce_under_optimize_flag(scale):
    ids = [row.id for row in ROWS if row.scale == scale]
    assert sorted(optimized(scale)) == sorted(ids)
    check_optimized(*ids)


def test_every_check_and_held_object_has_a_row():
    # every check is an expected failure of some row, every held object of
    # REQUIRED_HELD has a row, every row holds one of HELD, and each scale
    # has its uncorrupted row
    failing = set()
    for row in HAND_ROWS:
        failing |= set(row.names)
    assert failing == set(CHECK_ORDER)
    assert {row.held for row in ROWS} >= set(REQUIRED_HELD)
    assert {row.held for row in ROWS} <= set(HELD)
    assert {row.scale for row in ROWS if row.held == "nothing"} == set(SCALES)
    assert len(BY_ID) == len(ROWS)


def main(argv):
    assert False, "python -O strips this statement; without -O the run stops here"
    scale = (argv[0], int(argv[1]))
    json.dump({row.id: run_row(row) for row in ROWS if row.scale == scale}, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
