"""Group cohomology of the associator's grouplike restriction.

Restricting the associator to the grouplikes of the subalgebra reads
off an additive 3-cochain on (Z/n)^r with values in Z/n,

    w(b, c, d) = P(b, c, d) / n  mod n,

where P is the associator's exponent (all its values are multiples of n).
The pentagon identity makes w a 3-cocycle for the bar differential

    (dw)(a,b,c,d) = w(b,c,d) - w(a+b,c,d) + w(a,b+c,d) - w(a,b,c+d) + w(a,b,c),

so pentagon_check proves dw = 0, and d on 3-cochains is not formed here.
Whether w is the coboundary of some 2-cochain mu,

    (dmu)(a,b,c) = mu(b,c) - mu(a+b,c) + mu(a,b+c) - mu(a,b),

decides the class of w in H^3((Z/n)^r; Z/n), and nothing more.  Twists
on the group part take values in C^x, so gauging the quasi-Hopf
structure away there asks about the class of zeta_n^w in
H^3((Z/n)^r; C^x) instead.  At rank 1 the two questions agree, because
H^2(Z/n; C^x) = 0.  At rank 2 they need not: at (n, r) = (3, 2) the
Bockstein cochain w = d(a_0 b_1) / n, that is
w(a, b, c) = c_1 [a_0 + b_0 >= n] - a_0 [b_1 + c_1 >= n], is nontrivial
over Z/n, yet zeta_n^w = d(exp(2 pi i a_0 b_1 / n^2)).

The class is read off the carry tables the associator is held as.
With lambda_ij = kappa_ij / n mod n,

    w(a, b, c) = sum_ij a_i lambda_ij(b_j, c_j)  mod n,

and each lambda_ij is a normalized 2-cochain on Z/n.  A normalized
2-cocycle on Z/n is c carry + dmu with carry(x, y) = [x + y >= n]
(Brown, Cohomology of Groups, GTM 87, III.1), and its class coordinate
is c_ij = sum_k lambda_ij(k, 1) mod n.  The associator owns that normal
form: carry_normal_form builds (c, mu), and Associator.carry_certificate
checks lambda = c carry + dmu, the one decision of whether a carry table
is a normalized 2-cocycle, which the pentagon reads too.  Each pair
(i, j) has one functional on 3-cochains that reads c_ij off w, the unit
vectors d_i taken as flat coarse indices:

    f_ii(w) = sum_k w(d_i, k d_i, d_i),
    f_ij(w) = sum_k [w(d_i, k d_j, d_j) - w(k d_j, d_i, d_j) + w(k d_j, d_j, d_i)],  i != j.

f_ii is the invariant that takes the standard generator a [b + c >= n]
of H^3(Z/n; Z/n) = Z/n to 1 (Dijkgraaf-Witten, CMP 129 (1990)), on
axis i; f_ij is the shuffle product of the 1-cycle [d_i] with the
2-cycle sum_k [k d_j | d_j].  They are the type-I and type-II terms of
de Wild Propitius (hep-th/9511195).  On w every cell but those of
lambda_ij(k, 1) reads lambda(0, .) = lambda(., 0) = 0, so f_ij(w) = c_ij.
The decision does not rest on these theorems: every call checks
exactly that f_ij vanishes on the coboundaries of all unit 2-cochains,
hence on every coboundary, before reading it, so f_ij(w) != 0 proves w
nontrivial.  When every c_ij is 0, each table's certificate shows it is
dmu_ij on its n^2 cells, and the witness follows from those identities
(decide_coboundary).  Since every verdict carries a certificate, the
tests keep one reference for the class: the general solver of dmu = w
(mod n) in tests/oracles.py, whose verdicts are certified the same way.
A cochain is the function of its flat cell indices, its table formed
only when a reader needs all of it.  d on 2-cochains is defined once, by
the four terms of _coboundary_terms, with coarse indices added
coordinate by coordinate: certify_coboundary_functional reads its
transpose, and the whole-table d of the tests' witness checks
(coboundary_of in tests/oracles.py) reads it too.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from .associator import Associator
from .twist import coord_table


class AdditiveCochain:
    """k-cochain on (Z/n)^r with values in Z/n, given by the function of its cells.

    cell(a_1, .., a_k) at flat coarse indices, reduced mod n, is the entry
    there: entry reads one cell, and flat, the whole table as one
    row-major list, is formed on first use.  The verifier reads its
    cochains cell by cell (restrict_associator, the witness of
    decide_coboundary); flat is read only to report the witness of a
    failing check, and by the tests.
    """

    @classmethod
    def from_cells(cls, n: int, r: int, degree: int, cell) -> "AdditiveCochain":
        """The cochain whose entry at the flat indices (a_1, .., a_k) is
        cell(a_1, .., a_k) mod n."""
        self = cls.__new__(cls)
        self.n, self.r, self.degree, self._cell = n, r, degree, cell
        return self

    @functools.cached_property
    def flat(self) -> list:
        return [self._cell(*index) % self.n
                for index in itertools.product(range(self.L), repeat=self.degree)]

    def entry(self, *index) -> int:
        """The value at the flat coarse indices (a_1, .., a_k)."""
        return self._cell(*index) % self.n

    @property
    def L(self) -> int:
        return self.n**self.r


def restrict_associator(assoc: Associator) -> AdditiveCochain:
    """The additive 3-cochain P/n mod n on the coarse group, read off the
    carry tables cell by cell: P(b, c, d) = sum_ij b_i kappa_ij(c_j, d_j),
    and Associator certifies that n divides every kappa_ij, so n divides
    every exponent.  Its (n^r)^3 flat table is formed only when a reader
    needs all of it: decide_coboundary reads the n or 3n cells of each
    pair functional."""
    n, r = assoc.hopf.algebra.n, assoc.hopf.algebra.rank
    return AdditiveCochain.from_cells(n, r, 3, lambda b, c, d: assoc.exponent(b, c, d) // n)


def _adder(n: int, r: int):
    """The flat index of the sum of two flat coarse indices, added coordinate by
    coordinate: the digit at place p of the sum is that of x plus that of y, mod n."""
    places = [n**k for k in range(r)]
    return lambda x, y: sum((x // p + y // p) % n * p for p in places)


def _coboundary_terms(a: int, b: int, c: int, ab: int, bc: int, L: int) -> tuple:
    """(column, sign) of the four terms of (dmu)(a, b, c) over flat 2-cochain
    indices, given the flat indices ab of a + b and bc of b + c."""
    return ((b * L + c, 1), (ab * L + c, -1), (a * L + bc, 1), (a * L + b, -1))


# -- coboundary decision -----------------------------------------------


class CoboundaryDecision(NamedTuple):
    trivial: bool
    witness: AdditiveCochain | None
    obstruction: dict | None


def pair_functional(n: int, r: int, i: int, j: int) -> list:
    """f_ij on 3-cochains over (Z/n)^r (see the module docstring), as
    [flat cell, coefficient mod n] pairs in increasing cell order over flat
    3-cochain indices (a L + b) L + c: n cells when i = j, 3n otherwise."""
    L, di, dj = n**r, n ** (r - 1 - i), n ** (r - 1 - j)
    terms = [((di, k * dj, dj), 1) for k in range(n)]
    if i != j:
        terms += [(cell, sign) for k in range(n)
                  for cell, sign in (((k * dj, di, dj), -1), ((k * dj, dj, di), 1))]
    return sorted([(a * L + b) * L + c, sign % n] for (a, b, c), sign in terms)


def decide_coboundary(assoc: Associator) -> CoboundaryDecision:
    """Is the restriction w of the associator a bar coboundary mod n?  Exact, with certificate.

    Nontrivial: the pairs (i, i) are tried first, in increasing i, then
    the pairs i != j in row-major order.  Each f_ij is certified to vanish
    on every coboundary and then read on its n or 3n cells of w, and the
    first non-zero value decides.  It is named as the invariant at rank 1,
    as the invariant of axis i inside an axis restriction when i = j at
    rank 2, and as the functional itself when i != j.

    Trivial: then every c_ij = f_ij(w) is 0, and these are the c of the
    normal forms of the tables, so Associator.carry_certificate certifies
    each table lambda_ij as the coboundary of its 1-cochain mu_ij,

        lambda_ij(x, y) = mu_ij(x) + mu_ij(y) - mu_ij(x + y)  mod n,

    on all n^2 cells; a cell where it fails raises ArithmeticError naming
    the table and the cell.  (Every normalized 2-cocycle passes its
    certificate, so such a table is no 2-cocycle, and neither w nor the
    pentagon is.)  The witness is
    nu(a, b) = -sum_ij a_i mu_ij(b_j).  With (a + b)_i = a_i + b_i mod n
    and nu linear in the coordinates of a mod n,
    nu(b, c) - nu(a + b, c) = sum_ij a_i mu_ij(c_j), and so

        dnu(a, b, c) = sum_i a_i sum_j (mu_ij(b_j) + mu_ij(c_j) - mu_ij(b_j + c_j))
                     = sum_i a_i sum_j lambda_ij(b_j, c_j) = w(a, b, c)  mod n

    by the per-table identities, r^2 n^2 cells in all: the same reduction
    as coboundary_matches_associator.
    """
    w = restrict_associator(assoc)
    n, r = w.n, w.r
    pairs = [(i, i) for i in range(r)] + [
        (i, j) for i, j in itertools.product(range(r), repeat=2) if i != j]
    for i, j in pairs:
        cells = pair_functional(n, r, i, j)
        value = certified_value(w, cells)
        if value and i != j:
            return CoboundaryDecision(False, None, {"kind": "functional", "modulus": n,
                                                    "value": value, "cells": cells})
        if value:
            inner = {"kind": "invariant", "value": value, "modulus": n}
            return CoboundaryDecision(False, None, inner if r == 1 else {
                "kind": "axis-restriction", "axis": i, "inner": inner})
    mus = [[None] * r for _ in range(r)]
    for i, j in itertools.product(range(r), repeat=2):
        _, mus[i][j], bad = assoc.carry_certificate(i, j)
        if bad is not None:
            raise ArithmeticError(f"carry table ({i}, {j}) has class 0 but is not dmu at "
                                  f"(x, y) = {bad}: w is not a 3-cocycle")
    return CoboundaryDecision(True, normal_form_witness(n, r, mus), None)


def normal_form_witness(n: int, r: int, mus: list) -> AdditiveCochain:
    """nu(a, b) = -sum_ij a_i mu_ij(b_j) at flat coarse indices a, b."""
    coords = coord_table(n, r)
    return AdditiveCochain.from_cells(n, r, 2, lambda a, b: -sum(
        ai * mu[bj] for ai, row in zip(coords[a], mus) for mu, bj in zip(row, coords[b])))


def certify_coboundary_functional(cells, n: int, r: int) -> None:
    """Raise ArithmeticError unless f . dmu = 0 mod n for every 2-cochain mu on (Z/n)^r.

    f is given by its (flat cell, coefficient) pairs over flat 3-cochain
    indices (a L + b) L + c.  Checking the coboundaries of the unit
    2-cochains suffices, since they generate all coboundaries over Z.
    f . d(unit i) is entry i of the transpose of d applied to f, summed
    only over the unit cochains that the non-zero cells of f touch.
    """
    L, add, out = n**r, _adder(n, r), {}
    for cell, v in cells:
        if v:
            (a, b), c = divmod(cell // L, L), cell % L
            for j, sign in _coboundary_terms(a, b, c, add(a, b), add(b, c), L):
                out[j] = out.get(j, 0) + sign * v
    bad = min((j for j, v in out.items() if v % n), default=None)
    if bad is not None:
        raise ArithmeticError(
            f"functional does not vanish on the coboundary of the unit 2-cochain "
            f"at {divmod(bad, L)}"
        )


def certified_value(c: AdditiveCochain, cells) -> int:
    """f . c mod n for the functional f with these (flat cell, coefficient)
    pairs, after certifying that f vanishes on every coboundary; reads the
    cells of f only."""
    L = c.L
    certify_coboundary_functional(cells, c.n, c.r)
    return sum(x * c.entry(cell // (L * L), cell // L % L, cell % L) for cell, x in cells) % c.n
