"""Group-basis expansions of the twist and the associator, from their definitions.

The verifier holds J as its r^2 step tables s_kj, Delta_J(e_i) as r
rows f_ij and r step rows t_k on Z/n, and Phi as its r^2 carry tables
kappa_ij: only the linear data that fixes each, per coordinate.  The
tests multiply the identities about them out in exact cyclotomic
arithmetic, on elements built here:

- the fine idempotent is 1_z = m^(-r) sum_a q^(-z.a) g^a over a in
  (Z/m)^r, m^r terms;
- the coarse idempotent is B_beta = sum over z = beta (mod n) of 1_z,
  formed as its closed form n^(-r) sum_a q^(-n beta.a) g^(n a) over a in
  (Z/n)^r, n^r terms;
- a diagonal element sum q^T[s_1]..[s_k] P_s1 x .. x P_sk is expanded slot
  by slot, over the fine idempotents when each level of T has m^r entries
  and over the coarse ones when it has n^r.  Since sum_beta T(beta) B_beta
  = sum_z T(red z) 1_z, a coarse table expands to the fine expansion of
  its pullback (test_bold_expansion_matches_element_route_a1n3);
- J and J^(-1) are the diagonal elements of E and -E, with E the full
  m^r x m^r table of J.exponent, and Phi and Phi^(-1) those of P and -P,
  with P the full (n^r)^3 table of the carry tables (associator_table);
- the fine tables of Delta_J(e_i) are read off E by the conjugation
  formulas of twisted_generator_bold, without reducing mod n, and its
  coarse tables are expanded from the per-coordinate rows it holds
  (bold_families);
- Delta_J(x) = J Delta(x) J^(-1);
- dJ = (1 x J)(id x Delta)(J)(J^(-1) x 1)(Delta x id)(J^(-1)); every
  factor is diagonal in the commutative group algebra, so none is inverted.

It also holds the routes by which the verifier once swept the whole
grid, as references for the per-pair routes: the twist premises on the
step rows s_k over all m^r fine cells (step_row_premises), dJ = Phi
on the unit slices Q_i over all (n^r)^2 coarse pairs
(coboundary_reference), and quasi-coassociativity on the expanded
tables of Delta_J(e_i) over all (n^r)^2 coarse pairs at each of the
r + 1 first slots (quasi_coassoc_reference).  Two numpy kernels read
these tables as arrays: the pentagon on every cell of the full
associator table (np_pentagon) and d on a cochain of any degree
(np_bar_differential).  The one definition-level reference of J is its
full table from the definition, as an array (np_twist_table), and that
of Phi is its closed form on every cell, in plain loops
(closed_form_table).  No other test module builds a whole-grid table of
the twist, the associator or the coarse addition.

It also holds the one reference of each of the two routes the paper's
theorem rests on.  The double's product is the cross product walked term
by term from the Hopf data of H (GenericProduct); the term-pair product
in D x D built on it (mixed_tensor_multiply) is the reference for both
sides of the R-matrix check.  The class of the associator's restriction
is the general solver of dmu = w (mod n) for any 3-cochain on (Z/n)^r
(solve_coboundary), the reference for decide_coboundary, which reads it
off the carry tables; both certify every verdict.

And it holds the helpers that no verify or export path calls: the
inverse of double.to_delta (from_delta), in closed form, m character keys
per dual-basis key; the addition table of the coarse grid (add_table), which
the whole-grid references read; d on a whole 2-cochain table
(coboundary_of, built on cocycle._coboundary_terms, the verifier's one
definition of d), with FlatCochain, a cochain given by its table and
compared by it, for the witness check of solve_coboundary; and the
readers of export documents (scalar_from_doc, monomial_from_doc).
"""

import functools
import itertools
import math
import operator

from qborel.algebra import Element, Monomial, accumulate, apply_on_slot, tensor_multiply
from qborel.cocycle import (AdditiveCochain, CoboundaryDecision, _coboundary_terms,
                            certified_value)
from qborel.cyclotomic import CycScalar, cyc_field
from qborel.twist import TwistJ, coord_table, flat_index, twisted_generator_bold


@functools.cache
def add_table(size: int, r: int) -> tuple:
    """ADD[x][y]: flat index of the coordinatewise sum mod size of flat x and y."""
    rows = []
    for x in coord_table(size, r):
        row = [0]
        for xj in x:
            digits = [(xj + y) % size for y in range(size)]
            row = [v * size + t for v in row for t in digits]
        rows.append(tuple(row))
    return tuple(rows)


def _idempotent(hopf, z, step: int) -> Element:
    """size^(-r) sum_a q^(-step z.a) g^(step a) over a in (Z/size)^r,
    size = m / step."""
    A = hopf.algebra
    size, zero_pbw = A.m // step, (0,) * A.nroots
    scale = A.field.from_rational(size**A.rank).inv()
    zeta_pow = A.field.zeta_pow
    return A.element({Monomial(tuple(step * ai for ai in a), zero_pbw):
                      scale * zeta_pow(-step * sum(zi * ai for zi, ai in zip(z, a)))
                      for a in coord_table(size, A.rank)})


@functools.cache
def fine_idempotent(hopf, z) -> Element:
    """1_z = m^(-r) sum_a q^(-z.a) g^a over a in (Z/m)^r."""
    return _idempotent(hopf, z, 1)


@functools.cache
def coarse_idempotent(hopf, beta) -> Element:
    """B_beta = n^(-r) sum_a q^(-n beta.a) g^(n a) over a in (Z/n)^r, the
    sum of the 1_z over z = beta (mod n)."""
    return _idempotent(hopf, beta, hopf.algebra.n)


def diagonal_tensor(hopf, table, sign: int = 1) -> Element:
    """sum q^(sign T[s_1]..[s_k]) P_s1 x .. x P_sk for a nested-list table T of depth k >= 2."""
    A = hopf.algebra
    fine = len(table) == A.m**A.rank
    idempotent = fine_idempotent if fine else coarse_idempotent
    coords = coord_table(A.m if fine else A.n, A.rank)

    def expand(t):  # {tuple of monomials: scalar}
        if isinstance(t, int):
            return {(): A.field.zeta_pow(sign * t)}
        out = {}
        for s, sub in enumerate(t):
            inner = expand(sub).items()
            P = idempotent(hopf, coords[s]).terms.items()
            accumulate(out, (((mono,) + key, c * v) for mono, c in P for key, v in inner))
        return out

    depth, t = 0, table
    while isinstance(t, list):
        depth, t = depth + 1, t[0]
    return Element(A.tensor_power(depth), expand(table))


def pullback(hopf, table) -> list:
    """The fine table T(red z) of a coarse table T."""
    A = hopf.algebra
    coarse = coord_table(A.n, A.rank)
    red = [coarse.index(tuple(a % A.n for a in z)) for z in coord_table(A.m, A.rank)]
    pull = lambda t: t if isinstance(t, int) else [pull(t[i]) for i in red]
    return pull(table)


def step_rows(J) -> list:
    """s_k(y) = sum_j s_kj(y_j) mod m over the flat fine indices y: the r step rows
    of J on all m^r fine cells, expanded from its step tables."""
    A = J.hopf.algebra
    return [[sum(s[yj] for s, yj in zip(row, y)) % A.m for y in coord_table(A.m, A.rank)]
            for row in J.tables]


@functools.cache
def twist_table(J) -> list:
    """E[z][y] = sum_k z_k s_k(y) mod m over flat fine indices: the full m^r x m^r
    table of J; J.tables must not change after the first call."""
    A = J.hopf.algebra
    columns = list(zip(*step_rows(J)))
    return [[sum(a * s for a, s in zip(z, col)) % A.m for col in columns]
            for z in coord_table(A.m, A.rank)]


def uncertified_twist(hopf, tables) -> TwistJ:
    """A twist holding the given step tables, built without the premise certificate."""
    J = object.__new__(TwistJ)
    J.hopf, J.tables = hopf, tables
    return J


def step_row_premises(J):
    """The premises of TwistJ on the expanded step rows s_k, swept over every
    fine cell y as the twist once certified them: None, or (k, y, premise)
    for the first failing cell, premise 1, 2 or 3 as numbered in TwistJ."""
    A = J.hopf.algebra
    m, n, r = A.m, A.n, A.rank
    rows = step_rows(J)
    coords = coord_table(m, r)
    for k, row in enumerate(rows):
        for y, s in enumerate(row):
            if s % m and max(coords[y]) < n:
                return k, coords[y], 1
    for k, row in enumerate(rows):
        for y, s in enumerate(row):
            if s % n:
                return k, coords[y], 2
    for k, row in enumerate(rows):
        for y, vec in enumerate(coords):
            for j, a in enumerate(A.datum.cartan_matrix[k]):
                # the fine flat index of y + n d_j, wrapping in coordinate j
                up = y + (n if vec[j] < m - n else n - m) * m ** (r - 1 - j)
                if (row[up] - row[y] + n * a) % m:
                    return k, vec, 3
    return None


def coboundary_exponent(J, z, u, v) -> int:
    """EdJ(z, u, v) = E(u, v) + E(z, u + v) - E(z + u, v) - E(z, u) mod m on fine vectors."""
    add = lambda x, y: [a + b for a, b in zip(x, y)]
    E = J.exponent
    return (E(u, v) + E(z, add(u, v)) - E(add(z, u), v) - E(z, u)) % J.hopf.algebra.m


def coboundary_reference(J, assoc):
    """dJ = Phi compared as the verifier once did, s_i(u + v) - s_i(u) - s_i(v)
    against the unit slice Q_i(u, v) on every coarse pair (u, v) at its fine
    representatives in [0, n)^r: None, or the first failing (d_i, u, v)."""
    A = J.hopf.algebra
    m, n, r = A.m, A.n, A.rank
    coarse = coord_table(n, r)
    lift = [flat_index(c, m) for c in coarse]
    for i, (s, Q) in enumerate(zip(step_rows(J), associator_slices(assoc))):
        for c, fc in enumerate(lift):
            for d, fd in enumerate(lift):
                if (s[fc + fd] - s[fc] - s[fd] - Q[c][d]) % m:
                    return tuple(int(k == i) for k in range(r)), coarse[c], coarse[d]
    return None


def fine_families(J, i) -> dict:
    """The fine tables of Delta_J(e_i), keyed like twisted_generator_bold:

        J (e_i x K_i) J^(-1) = sum q^(E[z + d_i][y] - E[z][y] + (C y)_i) e_i 1_z x 1_y,
        J (1 x e_i) J^(-1)   = sum q^(E[z][y + d_i] - E[z][y]) 1_z x e_i 1_y,

    by 1_z e_i = e_i 1_(z - d_i), with E the full table of J."""
    A = J.hopf.algebra
    m = A.m
    E = twist_table(J)
    coords = coord_table(m, A.rank)
    shift = [flat_index([a + (j == i) for j, a in enumerate(z)], m) for z in coords]
    cy = [sum(a * yj for a, yj in zip(A.datum.cartan_matrix[i], y)) for y in coords]
    word_e = tuple(int(k == A.e_letters[i]) for k in range(A.nroots))
    word_1 = (0,) * A.nroots
    return {
        (word_e, word_1): [[(E[shift[z]][y] - E[z][y] + cy[y]) % m for y in range(len(coords))]
                           for z in range(len(coords))],
        (word_1, word_e): [[(row[shift[y]] - row[y]) % m for y in range(len(coords))] for row in E],
    }


def associator_slices(assoc) -> list:
    """Q_i[c][d] = sum_j kappa_ij(c_j, d_j) mod m over flat coarse indices: the r
    unit slices P(d_i, ., .), expanded from the carry tables."""
    A = assoc.hopf.algebra
    coords = coord_table(A.n, A.rank)
    return [[[sum(K[cj][dj] for K, cj, dj in zip(row, c, d)) % A.m for d in coords] for c in coords]
            for row in assoc.carries]


def associator_table(assoc) -> list:
    """P[b][c][d] = sum_i b_i Q_i(c, d) mod m over flat coarse indices: the
    full (n^r)^3 table of the associator's carry tables, the reference
    expansion of the tensor oracles and of np_pentagon."""
    A = assoc.hopf.algebra
    coords = coord_table(A.n, A.rank)
    slices = associator_slices(assoc)
    # the r slice rows at c zipped into the cells (Q_1[c][d], .., Q_r[c][d])
    return [[[sum(map(operator.mul, b, cell)) % A.m for cell in zip(*(Q[c] for Q in slices))]
             for c in range(len(coords))] for b in coords]


def closed_form_table(hopf) -> list:
    """P[b][c][d] = sum_ij a_ij b_i ((c_j + d_j) mod n - (c_j + d_j)) mod m over
    flat coarse indices, in plain loops: the associator from its closed form,
    the one definition-level reference of Phi, whose carry tables
    associator_table expands."""
    A = hopf.algebra
    n, r = A.n, A.rank
    cart = A.datum.cartan_matrix
    vecs = coord_table(n, r)
    out = [[[0] * len(vecs) for _ in vecs] for _ in vecs]
    for b, bv in enumerate(vecs):
        for c, cv in enumerate(vecs):
            for d, dv in enumerate(vecs):
                e = 0
                for i in range(r):
                    for j in range(r):
                        s = cv[j] + dv[j]
                        e += cart[i][j] * bv[i] * (s % n - s)
                out[b][c][d] = e % A.m
    return out


def bold_families(hopf, J, i, image=None) -> dict:
    """The coarse tables of Delta_J(e_i), keyed like fine_families, expanded
    from the (f, t) that twisted_generator_bold holds, or from image:
    F1[b][c] = sum_j f[j][c_j] and F2[b][c] = sum_k b_k t[k][c_i] mod m."""
    A = hopf.algebra
    f, t = image or twisted_generator_bold(hopf, J, i)
    coords = coord_table(A.n, A.rank)
    word_e = tuple(int(k == A.e_letters[i]) for k in range(A.nroots))
    word_1 = (0,) * A.nroots
    first = [sum(row[cj] for row, cj in zip(f, c)) % A.m for c in coords]
    return {
        (word_e, word_1): [list(first) for _ in coords],
        (word_1, word_e): [[sum(bk * row[c[i]] for bk, row in zip(b, t)) % A.m for c in coords]
                           for b in coords],
    }


def quasi_coassoc_reference(hopf, images, assoc, x):
    """Quasi-coassociativity swept as the verifier once did: at the r + 1
    first slots b in {0, d_1, .., d_r}, over all (n^r)^2 coarse pairs (c, d)
    in row-major order, one d-row at a time, with the slot-word table of
    quasi_coassoc_check read off the expanded tables of Delta_J(e_i)
    (bold_families) and the unit slices Q_i.  x is 1, g^a with n dividing
    a, or e_i; the step rows of images must be multiples of n.  None, or
    the first pattern and flat cell (b, c, d) where the sides differ, with
    both exponents mod m."""
    A = hopf.algebra
    n, m, r = A.n, A.m, A.rank
    if x == A.one:
        return None
    coords = coord_table(n, r)
    ADD = add_table(n, r)
    slices = associator_slices(assoc)
    P = functools.cache(lambda b, c: [sum(bi * q for bi, q in zip(coords[b], col))
                                      for col in zip(*(Q[c] for Q in slices))])
    empty = (0,) * A.nroots
    (mono, _), *rest = x.terms.items()
    if not rest and not any(mono.pbw):
        ex = [sum(b * a for b, a in zip(vec, mono.group)) for vec in coords]
        sides = {(empty,) * 3: lambda b, c, p: (
            [ex[b] + ex[s] + t for s, t in zip(ADD[c], p)],
            [ex[ADD[b][c]] + e + t for e, t in zip(ex, p)])}
    else:
        i = next(i for i in range(r) if x == A.generator_e(i))
        word = tuple(int(k == A.e_letters[i]) for k in range(A.nroots))
        w = flat_index(A.weights[A.e_letters[i]], n)
        families = bold_families(hopf, None, i, images[i])
        F1, F2 = families[word, empty][0], families[empty, word]
        sides = {
            (word, empty, empty): lambda b, c, p: (
                [F1[s] + t for s, t in zip(ADD[c], p)],
                [F1[c] + f + t for f, t in zip(F1, P(ADD[b][w], c))]),
            (empty, word, empty): lambda b, c, p: (
                [F2[b][s] + f + t for s, f, t in zip(ADD[c], F1, p)],
                [F2[b][c] + f + t for f, t in zip(F1, P(b, ADD[c][w]))]),
            (empty, empty, word): lambda b, c, p: (
                [F2[b][s] + f + t for s, f, t in zip(ADD[c], F2[c], p)],
                [f + p[s] for f, s in zip(F2[ADD[b][c]], ADD[w])]),
        }
    firsts = [0, *(n**k for k in range(r))]
    for pattern, side in sides.items():
        for b in firsts:
            for c in range(len(coords)):
                lhs, rhs = ([v % m for v in row] for row in side(b, c, P(b, c)))
                if lhs != rhs:
                    d = next(d for d, (u, v) in enumerate(zip(lhs, rhs)) if u != v)
                    return {"pattern": pattern, "cell": (b, c, d), "lhs": lhs[d], "rhs": rhs[d]}
    return None


@functools.cache
def twist_tensor(J, sign: int = 1) -> Element:
    """J, or J^(-1) for sign -1; J.tables must not change after the first call."""
    return diagonal_tensor(J.hopf, twist_table(J), sign)


def twisted_coproduct(J, x: Element) -> Element:
    """Delta_J(x) = J Delta(x) J^(-1)."""
    conjugated = tensor_multiply(twist_tensor(J), J.hopf.coproduct(x))
    return tensor_multiply(conjugated, twist_tensor(J, -1))


def expand_families(hopf, families: dict) -> Element:
    """sum over the patterns (w_1, w_2) of (w_1 x w_2) times the diagonal element of
    their table, for the fine families or the coarse ones above."""
    A = hopf.algebra
    out = A.tensor({}, 2)
    for words, table in families.items():
        left = A.tensor_of_elements(*(A.monomial_element((0,) * A.rank, w) for w in words))
        out = out + tensor_multiply(left, diagonal_tensor(hopf, table))
    return out


def pad(X: Element, left: bool) -> Element:
    """1 x X (left) or X x 1, one arity higher."""
    A = X.ring.algebra
    unit = next(iter(A.one.terms))
    return A.tensor({((unit,) + k if left else k + (unit,)): c for k, c in X.terms.items()},
                    X.ring.arity + 1)


def twist_coboundary(J) -> Element:
    """dJ = (1 x J)(id x Delta)(J)(J^(-1) x 1)(Delta x id)(J^(-1))."""
    hopf, Jt, Ji = J.hopf, twist_tensor(J), twist_tensor(J, -1)
    num = tensor_multiply(pad(Jt, True), apply_on_slot(hopf.coproduct, Jt, 1))
    den_inv = tensor_multiply(pad(Ji, False), apply_on_slot(hopf.coproduct, Ji, 0))
    return tensor_multiply(num, den_inv)


def by_second_leg(T: dict) -> dict:
    """k2 -> [(k1, c)] over the terms c k1 x k2 of T."""
    groups = {}
    for (k1, k2), c in T.items():
        groups.setdefault(k2, []).append((k1, c))
    return groups


class GenericProduct:
    """The cross product of the double walked term by term: the one reference
    for multiply_characters, multiply and both sides of the R check.

    (f x a)(g x b) = sum f.(a1 -> g <- S^-1(a3)) x a2 b over cop2(a), on
    dual-basis keys (delta_f, a), with the arrow's coefficient and a2 b
    from straightened monomial products and the convolution by left
    division through the coproduct of H.  No grading is assumed, and cop,
    cop2 and S^-1 are formed from the Hopf data of H, not read off the
    double's tables.
    """

    def __init__(self, dbl):
        self.dbl = dbl
        # (fm, v) -> [(u, c)]: Delta(u) contains c fm x v in H
        self.left_div = {}
        for u in dbl.algebra.basis():
            for (m1, m2), c in dbl.hopf.coproduct_monomial(u).terms.items():
                self.left_div.setdefault((m1, m2), []).append((u, c))
        self._arrows = {}
        self._cop2 = {}
        self._sinv = {}
        self._terms = {}

    def cop2(self, am):
        """[(a1, a2, a3, c)] over the terms of (Delta x id) Delta(am) in H."""
        got = self._cop2.get(am)
        if got is None:
            cop = self.dbl.hopf.coproduct_monomial
            got = [(a1, a2, a3, c * c1) for (m1, a3), c in cop(am).terms.items()
                   for (a1, a2), c1 in cop(m1).terms.items()]
            self._cop2[am] = got
        return got

    def sinv(self, mono):
        """(s, c) with S^-1(mono) = c s in H."""
        got = self._sinv.get(mono)
        if got is None:
            dbl = self.dbl
            (got,) = dbl.hopf.antipode_inv(dbl.algebra.element({mono: dbl.field.one})).terms.items()
            self._sinv[mono] = got
        return got

    def arrow(self, a1, gm, s3):
        """(a1 -> delta_gm <- s3) as a dual-basis dict: u -> coeff of gm in s3 u a1.

        Only the u whose exponents add up to those of gm can contribute; its
        coefficient is read off the straightened product s3 u a1.
        """
        key = (a1, gm, s3)
        got = self._arrows.get(key)
        if got is None:
            dbl = self.dbl
            A = dbl.algebra
            b = gm.pbw[0] - s3.pbw[0] - a1.pbw[0]
            got = {}
            if 0 <= b < dbl.m:
                u = A.monomial((gm.group[0] - s3.group[0] - a1.group[0],), (b,))
                prod = A.multiply_monomials(s3, u) * A.element({a1: dbl.field.one})
                c = prod.terms.get(gm)
                if c:
                    got[u] = c
            self._arrows[key] = got
        return got

    def arrow_terms(self, am, gm):
        """[(a2, v, c)]: the nonzero terms c (a1 -> delta_gm <- S^-1(a3))(v)
        over cop2(am) = sum a1 x a2 x a3, for every fm and bm at once."""
        key = (am, gm)
        got = self._terms.get(key)
        if got is None:
            got = []
            for a1, a2, a3, c in self.cop2(am):
                s3, s3c = self.sinv(a3)
                for v, hv in self.arrow(a1, gm, s3).items():
                    got.append((a2, v, c * s3c * hv))
            self._terms[key] = got
        return got

    def multiply_keys(self, k1, k2) -> dict:
        """(delta_f x a)(delta_g x b) for dual-basis keys (f, a) and (g, b)."""
        dbl = self.dbl
        fm, am = k1
        gm, bm = k2
        out = {}
        for a2, v, coeff in self.arrow_terms(am, gm):
            us = self.left_div.get((fm, v))
            if us:
                ab = dbl.algebra.multiply_monomials(a2, bm)
                accumulate(out, (((u, wm), coeff * cc * wc)
                                 for u, cc in us for wm, wc in ab.terms.items()))
        return out

    def multiply(self, X: dict, Y: dict) -> dict:
        """X Y for dicts over dual-basis keys, over every pair of terms."""
        out = {}
        for k1, c1 in X.items():
            for k2, c2 in Y.items():
                accumulate(out, ((k, c1 * c2 * v) for k, v in self.multiply_keys(k1, k2).items()))
        return out


def mixed_tensor_multiply(oracle: GenericProduct, T1: dict, T2: dict) -> dict:
    """Product in D x D of two tensors whose first legs are character keys
    (see multiply_characters) and whose second legs are dual-basis keys,
    term pair by term pair: the reference for both sides of the R check.

    Each second-leg product is formed by the oracle, on every pair of
    second legs, off the grading too; the first-leg products are
    multiply_characters, itself checked against the oracle.  Terms are
    grouped by their second leg, so each second-leg product is formed once
    per pair of groups; when it is zero the whole block is skipped.
    """
    out = {}
    rows2 = by_second_leg(T2).items()
    for k2, row1 in by_second_leg(T1).items():
        for l2, row2 in rows2:
            right = oracle.multiply_keys(k2, l2)
            if not right:
                continue
            for k1, c1 in row1:
                for l1, c2 in row2:
                    left = oracle.dbl.multiply_characters(k1, l1)
                    c = c1 * c2
                    for u1, v1 in left.items():
                        cv = c * v1
                        accumulate(out, (((u1, u2), cv * v2) for u2, v2 in right.items()))
    return out


def from_delta(dbl, terms: dict, leg: int | None = None) -> dict:
    """The inverse of double.to_delta: terms over dual-basis keys (g^x e^k, a)
    moved to character keys ((alpha, k), a), in closed form:
    delta_(g^x e^k) = m^(-1) sum_alpha q^(-alpha x) psi_(alpha,k), m terms
    per key, summed.  With leg i only the i-th leg of each tensor key moves."""
    m, zeta_pow = dbl.m, dbl.field.zeta_pow
    inv_m = dbl.field.from_rational(m).inv()
    out = {}
    for key, c in terms.items():
        ((x,), (k,)), am = key if leg is None else key[leg]
        moved = (((alpha, k), am) for alpha in range(m))
        if leg is not None:
            moved = (key[:leg] + (d,) + key[leg + 1:] for d in moved)
        c = c * inv_m
        accumulate(out, zip(moved, (c * zeta_pow(-alpha * x) for alpha in range(m))))
    return out


# -- whole-grid array kernels ------------------------------------------
#
# Each imports numpy itself: the python -O runs of test_corruptions.py
# import this module, and loading numpy there would add 0.2 s to each.


def np_twist_table(hopf):
    """E[z][y] = -z.C.(y - y mod n) mod m over flat fine indices, from the
    twist's definition: the one definition-level reference of J, whose
    step tables twist_table expands."""
    import numpy as np

    A = hopf.algebra
    coords = np.array(coord_table(A.m, A.rank))
    cart = np.array(A.datum.cartan_matrix)
    return -(coords @ cart @ (coords - coords % A.n).T) % A.m


def np_pentagon(assoc):
    """The pentagon on every cell (a, b, c, d) of associator_table, one a at a
    time: None, or the first cell in row-major order where the sides differ."""
    import numpy as np

    A = assoc.hopf.algebra
    m, L = A.m, assoc.L
    P = np.array(associator_table(assoc))
    ADD = np.array(add_table(A.n, A.rank))
    b, c, d = np.indices((L, L, L))
    for a in range(L):
        lhs = (P[b, c, d] + P[a, ADD[b, c], d] + P[a, b, c]) % m
        rhs = (P[a, b, ADD[c, d]] + P[ADD[a, b], c, d]) % m
        diff = (lhs - rhs) % m
        if diff.any():
            i = tuple(int(t) for t in np.argwhere(diff)[0])
            return {"cell": (a,) + i, "lhs": int(lhs[i]), "rhs": int(rhs[i])}
    return None


def np_bar_differential(c: AdditiveCochain):
    """dc mod n for a k-cochain c, as an array with one axis of length n^r per
    argument: the alternating sum of the k + 2 faces, each read off add_table."""
    import numpy as np

    k, L = c.degree, c.L
    T = np.array(c.flat).reshape((L,) * k)
    ADD = np.array(add_table(c.n, c.r))
    idx = np.indices((L,) * (k + 1))
    out = T[tuple(idx[1:])] + (-1) ** (k + 1) * T[tuple(idx[:-1])]
    for j in range(k):
        merged = tuple(idx[:j]) + (ADD[idx[j], idx[j + 1]],) + tuple(idx[j + 2:])
        out += (-1) ** (j + 1) * T[merged]
    return out % c.n


# -- the Z/n solver ----------------------------------------------------


def _coboundary_matrix(n: int, r: int) -> list:
    """Sparse rows {column: entry} of mu -> dmu: L^3 rows over flat (a, b, c), L^2 columns."""
    L = n**r
    ADD = add_table(n, r)
    rows = []
    for a, b, c in itertools.product(range(L), repeat=3):
        row = {}
        for j, sign in ((b * L + c, 1), (ADD[a][b] * L + c, -1), (a * L + ADD[b][c], 1),
                        (a * L + b, -1)):
            row[j] = row.get(j, 0) + sign
        rows.append({j: v for j, v in row.items() if v})
    return rows


def _prime_powers(n: int) -> list:
    """(p, p^k) for each prime p dividing n, with p^k the largest power of p dividing n."""
    out = []
    p = 2
    while n > 1:
        if p * p > n:
            p = n
        q = 1
        while n % p == 0:
            n //= p
            q *= p
        if q > 1:
            out.append((p, q))
        p += 1
    return out


def _add_multiple(dst: dict, t: int, src: dict, q: int) -> None:
    """dst += t src mod q on sparse rows, dropping entries that reach 0."""
    for j, v in src.items():
        x = (dst.get(j, 0) + t * v) % q
        if x:
            dst[j] = x
        else:
            dst.pop(j, None)


def solve_mod(rows: list, rhs: list, n: int, width: int) -> tuple:
    """Solve the sparse system sum_j rows[i][j] x_j = rhs[i] (mod n) over Z/n.

    Returns (x, None) with x a list of width values, or (None, f) with f
    a {row: coefficient} functional on the equations such that
    f . rows = 0 and f . rhs != 0 mod n, which proves that no x exists.
    Neither is checked here; the caller certifies what it is given.

    n is split into prime powers q = p^k, and the rows are eliminated over
    each Z/q.  Each pivot is a remaining entry of least p-adic valuation,
    so every other remaining entry is a multiple of it and each step is
    exact; the pivot valuations never fall.  Each row carries its
    provenance: the combination of the original equations that it is.

    A row whose entries have least valuation v (the pivot valuation for a
    pivot row, k for a row that ended empty) blocks when p^v does not
    divide its right-hand side.  Then p^(k-v) (n/q) times its provenance
    is f.  If no row blocks, back substitution solves each Z/q (free
    unknowns are 0), and the Chinese remainder theorem joins the
    solutions.
    """
    x = [0] * width
    for p, q in _prime_powers(n):
        eqs = [{j: v % q for j, v in row.items() if v % q} for row in rows]
        b = [v % q for v in rhs]
        prov = [{i: 1} for i in range(len(eqs))]
        pivots = []  # (row, column, p^v, inverse of the unit part of the pivot)
        active = [i for i, row in enumerate(eqs) if row]
        while active:
            best = None
            for i in active:
                for j, v in eqs[i].items():
                    d = math.gcd(v, q)
                    if best is None or d < best[2]:
                        best = (i, j, d)
                if best[2] == 1:
                    break
            i, j, d = best
            inv = pow(eqs[i][j] // d, -1, q)
            pivots.append((i, j, d, inv))
            still = []
            for k in active:
                if k == i:
                    continue
                a = eqs[k].get(j)
                if a:
                    t = -(a // d) * inv % q
                    _add_multiple(eqs[k], t, eqs[i], q)
                    _add_multiple(prov[k], t, prov[i], q)
                    b[k] = (b[k] + t * b[i]) % q
                if eqs[k]:
                    still.append(k)
            active = still
        valuation = {i: d for i, _, d, _ in pivots}
        for i, v in enumerate(b):
            d = valuation.get(i, q)
            if v % d:
                scale = q // d * (n // q)
                f = {row: y * scale % n for row, y in prov[i].items()}
                return None, {row: y for row, y in f.items() if y}
        y = [0] * width
        for i, j, d, inv in reversed(pivots):
            s = (b[i] - sum(v * y[col] for col, v in eqs[i].items() if col != j)) % q
            y[j] = s // d * inv % q
        # e = 1 mod q and 0 mod n/q
        e = n // q * pow(n // q, -1, q)
        x = [(u + e * z) % n for u, z in zip(x, y)]
    return x, None


class FlatCochain(AdditiveCochain):
    """The cochain whose row-major table is flat (entries are reduced mod n),
    equal to every cochain with the same n, r, degree and table."""

    def __init__(self, n: int, r: int, degree: int, flat: list):
        if len(flat) != n ** (r * degree):
            raise ValueError(f"{degree}-cochain on (Z/{n})^{r} needs {n ** (r * degree)} "
                             f"entries, got {len(flat)}")
        self.n, self.r, self.degree = n, r, degree
        self.flat = [v % n for v in flat]
        self._cell = lambda *index: self.flat[flat_index(index, n**r)]

    def __eq__(self, other):
        return (
            isinstance(other, AdditiveCochain)
            and (self.n, self.r, self.degree) == (other.n, other.r, other.degree)
            and self.flat == other.flat
        )


def coboundary_of(mu: AdditiveCochain) -> FlatCochain:
    """dmu, each cell the sum of its four terms in cocycle._coboundary_terms,
    the one definition of d on 2-cochains.  It forms all L^3 cells, so it
    reads the coarse sums off the L^2 entries of add_table."""
    if mu.degree != 2:
        raise ValueError(f"coboundary_of takes a 2-cochain, got degree {mu.degree}")
    L, S, T = mu.L, add_table(mu.n, mu.r), mu.flat
    return FlatCochain(mu.n, mu.r, 3, [
        sum(sign * T[j] for j, sign in _coboundary_terms(a, b, c, S[a][b], S[b][c], L))
        for a, b, c in itertools.product(range(L), repeat=3)])


def solve_coboundary(c: AdditiveCochain) -> CoboundaryDecision:
    """Solve dmu = c mod n at any n and rank with solve_mod; every verdict is certified.

    A witness mu is checked with coboundary_of.  A blocking functional f
    on the equations, which are the flat 3-cochain cells, is checked by
    certify_coboundary_functional and must not vanish on c; it is
    reported as {"kind": "functional", "modulus", "value", "cells"}.
    """
    mu, f = solve_mod(_coboundary_matrix(c.n, c.r), c.flat, c.n, c.L * c.L)
    if f is None:
        return _witness_decision(c, mu)
    return _functional_decision(c, [[cell, v] for cell, v in sorted(f.items())])


def _witness_decision(c: AdditiveCochain, flat: list) -> CoboundaryDecision:
    """The trivial verdict for the 2-cochain flat, after checking that its coboundary is c."""
    witness = FlatCochain(c.n, c.r, 2, flat)
    if coboundary_of(witness) != c:
        raise ArithmeticError("solved witness must reproduce the cochain")
    return CoboundaryDecision(True, witness, None)


def _functional_decision(c: AdditiveCochain, cells: list) -> CoboundaryDecision:
    """The nontrivial verdict for the functional with these [cell, coefficient] pairs,
    after certifying f . dmu = 0 for every mu and f . c != 0 mod n."""
    value = certified_value(c, cells)
    if not value:
        raise ArithmeticError("blocking functional must not vanish on the cochain")
    return CoboundaryDecision(False, None, {"kind": "functional", "modulus": c.n, "value": value,
                                            "cells": cells})


# -- readers of export documents ----------------------------------------


def scalar_from_doc(doc: dict) -> CycScalar:
    """The scalar of report.scalar_doc: [numerator, denominator] pairs on the power basis."""
    pairs = [(operator.index(num), operator.index(den)) for num, den in doc["coeffs"]]
    common = math.lcm(*(den for _, den in pairs))
    return cyc_field(doc["order"]).from_integers([num * (common // den) for num, den in pairs], common)


def monomial_from_doc(algebra, doc: dict) -> Monomial:
    """The monomial of report.monomial_doc."""
    return algebra.monomial(tuple(doc["group_exp"]), tuple(doc["pbw_exp"]))
