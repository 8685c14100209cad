"""Group cohomology of the associator's grouplike restriction.

Restricting the associator to the grouplikes of the subalgebra reads
off an additive 3-cochain on (Z/n)^r with values in Z/n,

    w(b, c, d) = P(b, c, d) / n  mod n,

where P is the coarse exponent table (all entries are multiples of n).
The pentagon identity makes w a 3-cocycle for the bar differential

    (dw)(a,b,c,d) = w(b,c,d) - w(a+b,c,d) + w(a,b+c,d) - w(a,b,c+d) + w(a,b,c).

Whether w is the coboundary of some 2-cochain mu,

    (dmu)(a,b,c) = mu(b,c) - mu(a+b,c) + mu(a,b+c) - mu(a,b),

decides the class of w in H^3((Z/n)^r; Z/n), and nothing more.  Twists
on the group part take values in C^x, so gauging the quasi-Hopf
structure away there asks about the class of zeta_n^w in
H^3((Z/n)^r; C^x) instead.  At rank 1 the two questions agree, because
H^2(Z/n; C^x) = 0.  At rank 2 they need not: at (n, r) = (3, 2) the
Bockstein cochain w = d(a_0 b_1) / n, that is
w(a, b, c) = c_1 [a_0 + b_0 >= n] - a_0 [b_1 + c_1 >= n], is nontrivial
over Z/n, yet zeta_n^w = d(exp(2 pi i a_0 b_1 / n^2)).  At rank 1 the
decision first evaluates the invariant

    I(w) = sum_k w(1, k, 1)  mod n,

the functional that takes the standard generator a [b + c >= n] of
H^3(Z/n; Z/n) = Z/n to 1 (Dijkgraaf-Witten, CMP 129 (1990)).  It does
not rest on that theorem: every call checks exactly that I vanishes on
the coboundaries of all unit 2-cochains, hence on every coboundary, so
I(w) != 0 proves w nontrivial.  Only when I(w) = 0 does the system
dmu = w get solved mod n.  At rank 2 a nontrivial restriction to a
coordinate axis certifies nontriviality (restriction of a coboundary is
a coboundary); the solver decides the rest.  The one solver, for every
n and rank, eliminates over each prime power dividing n and returns
either a witness mu, checked by coboundary_of, or a functional f on
3-cochains with f . dmu = 0 for every mu and f . w != 0 mod n, checked
by the same certificate as the invariant.  A full enumeration of all
2-cochains provides an independent oracle at the smallest scale.
Cochains and matrices are Python ints in nested lists and sparse rows.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

from .associator import Associator
from .twist import add_table, table_depth, table_values


class AdditiveCochain:
    """k-cochain on (Z/n)^r with values in Z/n, stored as a nested-list table.

    table[a_1][a_2]..[a_k] over flat coarse indices, entries reduced mod n;
    flat is the same table as one row-major list.  The nested table is
    formed on first use: most cochains are only compared and combined
    through flat.
    """

    def __init__(self, n: int, r: int, degree: int, table):
        if table_depth(table) != degree:
            raise ValueError(f"{degree}-cochain on (Z/{n})^{r} needs a table of depth "
                             f"{degree}, got depth {table_depth(table)}")
        self._init(n, r, degree, map(int, table_values(table, n**r)))

    @classmethod
    def from_flat(cls, n: int, r: int, degree: int, flat: list) -> "AdditiveCochain":
        """The cochain whose row-major table is flat (entries are reduced mod n)."""
        if len(flat) != n ** (r * degree):
            raise ValueError(f"{degree}-cochain on (Z/{n})^{r} needs {n ** (r * degree)} "
                             f"entries, got {len(flat)}")
        self = cls.__new__(cls)
        self._init(n, r, degree, flat)
        return self

    def _init(self, n: int, r: int, degree: int, flat) -> None:
        self.n = n
        self.r = r
        self.degree = degree
        self.flat = [v % n for v in flat]

    @functools.cached_property
    def table(self) -> list:
        return _nest(self.flat, self.L, self.degree)

    @property
    def L(self) -> int:
        return self.n**self.r

    def __eq__(self, other):
        return (
            isinstance(other, AdditiveCochain)
            and (self.n, self.r, self.degree) == (other.n, other.r, other.degree)
            and self.flat == other.flat
        )

    def is_zero(self) -> bool:
        return not any(self.flat)


def _nest(flat: list, L: int, degree: int) -> list:
    """The row-major list flat as a nested-list table with degree levels of length L."""
    for _ in range(degree - 1):
        flat = [flat[i:i + L] for i in range(0, len(flat), L)]
    return flat


def restrict_associator(assoc: Associator) -> AdditiveCochain:
    """The additive 3-cochain P/n mod n on the coarse group."""
    A = assoc.hopf.algebra
    n = A.n
    if any(v % n for v in table_values(assoc.table, assoc.L)):
        raise ValueError(f"associator exponents must be multiples of n = {n}")
    return AdditiveCochain(n, A.rank, 3, [[[v // n for v in row] for row in plane]
                                          for plane in assoc.table])


def bar_differential(c: AdditiveCochain) -> AdditiveCochain:
    """The degree-raising bar differential with alternating signs."""
    n, k = c.n, c.degree
    L = c.L
    ADD = add_table(n, c.r)
    T = c.flat
    # out(a_0..a_k) = T(a_1..a_k) + (-1)^(k+1) T(a_0..a_(k-1))
    #   + sum_j (-1)^(j+1) T(.., a_j + a_(j+1), ..), one a_k-row at a time;
    # h is the flat index of head = (a_0..a_(k-1)), and a row of T starts
    # at L times the flat index of its first k - 1 entries
    power = [L**i for i in range(k + 1)]
    out = []
    for h, head in enumerate(itertools.product(range(L), repeat=k)):
        start = h % power[k - 1] * L
        last = (-1) ** (k + 1) * T[h]
        row = [x + last for x in T[start:start + L]]
        for j in range(k - 1):
            low = power[k - 2 - j]
            start = ((h // power[k - j] * L + ADD[head[j]][head[j + 1]]) * low + h % low) * L
            sign = (-1) ** (j + 1)
            row = [x + sign * y for x, y in zip(row, T[start:start + L])]
        # the last interior term merges a_(k-1) with the running index a_k
        start = h // L * L
        sign = (-1) ** k
        out.extend(x + sign * T[start + s] for x, s in zip(row, ADD[head[-1]]))
    return AdditiveCochain.from_flat(n, c.r, k + 1, out)


def is_cocycle(c: AdditiveCochain) -> bool:
    return bar_differential(c).is_zero()


def coboundary_of(mu: AdditiveCochain) -> AdditiveCochain:
    if mu.degree != 2:
        raise ValueError(f"coboundary_of takes a 2-cochain, got degree {mu.degree}")
    return bar_differential(mu)


def _unit_coboundaries(n: int, r: int) -> list:
    """Row i is the flat coboundary of the i-th unit 2-cochain; L^2 rows of length L^3.

    The bar differential is Z-linear, so every coboundary mod n is an
    integer combination of these rows reduced mod n.
    """
    L = n**r
    units = ([int(i == j) for j in range(L * L)] for i in range(L * L))
    return [bar_differential(AdditiveCochain.from_flat(n, r, 2, e)).flat for e in units]


# -- coboundary decision -----------------------------------------------


class CoboundaryDecision(NamedTuple):
    trivial: bool
    witness: AdditiveCochain | None
    obstruction: dict | None


def _coboundary_terms(a: int, b: int, c: int, L: int, ADD) -> tuple:
    """(column, sign) of the four terms of (dmu)(a, b, c) over flat 2-cochain indices."""
    return ((b * L + c, 1), (ADD[a][b] * L + c, -1), (a * L + ADD[b][c], 1), (a * L + b, -1))


def _coboundary_matrix(n: int, r: int) -> list:
    """Sparse rows {column: entry} of mu -> dmu: L^3 rows over flat (a, b, c), L^2 columns."""
    L = n**r
    ADD = add_table(n, r)
    rows = []
    for a, b, c in itertools.product(range(L), repeat=3):
        row = {}
        for j, sign in _coboundary_terms(a, b, c, L, ADD):
            row[j] = row.get(j, 0) + sign
        rows.append({j: v for j, v in row.items() if v})
    return rows


def decide_coboundary(c: AdditiveCochain) -> CoboundaryDecision:
    """Is the 3-cochain a bar coboundary mod n?  Exact, with certificate.

    Rank 1 evaluates the certified invariant and solves dmu = c only when
    the invariant is 0.  Rank 2 first restricts to each coordinate axis
    and decides each restriction the same way; the solver runs on the
    whole cochain only if every restriction is trivial.
    """
    if c.degree != 3:
        raise ValueError(f"decide_coboundary takes a 3-cochain, got degree {c.degree}")
    if c.is_zero():
        return CoboundaryDecision(True, AdditiveCochain.from_flat(c.n, c.r, 2, [0] * (c.L * c.L)),
                                  None)
    if c.r == 1:
        return _decide_rank1(c)
    for axis in range(c.r):
        sub = axis_restriction(c, axis)
        subdec = _decide_rank1(sub)
        if not subdec.trivial:
            return CoboundaryDecision(
                False, None, {"kind": "axis-restriction", "axis": axis, "inner": subdec.obstruction}
            )
    return solve_coboundary(c)


def axis_restriction(c: AdditiveCochain, axis: int) -> AdditiveCochain:
    """Pull back along the cyclic subgroup of the given coordinate axis."""
    n, r = c.n, c.r
    flats = [v * n ** (r - 1 - axis) for v in range(n)]
    T = c.table
    return AdditiveCochain(n, 1, c.degree, [[[T[a][b][d] for d in flats] for b in flats]
                                            for a in flats])


def rank1_invariant_functional(n: int) -> list:
    """The functional f[1][k][1] = 1 on rank-1 3-cochains, as (flat cell, coefficient) pairs."""
    return [((n + k) * n + 1, 1) for k in range(n)]


def certify_coboundary_functional(cells, n: int, r: int) -> None:
    """Raise ArithmeticError unless f . dmu = 0 mod n for every 2-cochain mu on (Z/n)^r.

    f is given by its (flat cell, coefficient) pairs over flat 3-cochain
    indices (a L + b) L + c.  Checking the coboundaries of the unit
    2-cochains suffices, since they generate all coboundaries over Z.
    f . d(unit i) is entry i of the transpose of the coboundary matrix
    applied to f, formed from the non-zero cells of f only.
    """
    L = n**r
    ADD = add_table(n, r)
    out = [0] * (L * L)
    for cell, v in cells:
        if v:
            ab, c = divmod(cell, L)
            for j, sign in _coboundary_terms(*divmod(ab, L), c, L, ADD):
                out[j] += sign * v
    bad = next((i for i, v in enumerate(out) if v % n), None)
    if bad is not None:
        raise ArithmeticError(
            f"functional does not vanish on the coboundary of the unit 2-cochain "
            f"at {divmod(bad, L)}"
        )


def _decide_rank1(c: AdditiveCochain) -> CoboundaryDecision:
    """Certified invariant first; the solver only when it reads 0."""
    n = c.n
    f = rank1_invariant_functional(n)
    certify_coboundary_functional(f, n, 1)
    v = sum(x * c.flat[cell] for cell, x in f) % n
    if v:
        return CoboundaryDecision(False, None, {"kind": "invariant", "value": v, "modulus": n})
    return solve_coboundary(c)


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
    witness = AdditiveCochain.from_flat(c.n, c.r, 2, flat)
    if coboundary_of(witness) != c:
        raise ArithmeticError("solved witness must reproduce the cochain")
    return CoboundaryDecision(True, witness, None)


def _functional_decision(c: AdditiveCochain, cells: list) -> CoboundaryDecision:
    """The nontrivial verdict for the functional with these [cell, coefficient] pairs,
    after certifying f . dmu = 0 for every mu and f . c != 0 mod n."""
    n = c.n
    certify_coboundary_functional(cells, n, c.r)
    value = sum(x * c.flat[cell] for cell, x in cells) % n
    if not value:
        raise ArithmeticError("blocking functional must not vanish on the cochain")
    return CoboundaryDecision(False, None, {"kind": "functional", "modulus": n, "value": value,
                                            "cells": cells})


def brute_force_decision(c: AdditiveCochain) -> CoboundaryDecision:
    """Enumerate every 2-cochain; only feasible at the smallest scale.

    The candidates are taken in itertools.product order, so the witness is
    the first one in that order.  The bar differential is Z-linear, so the
    coboundary of a candidate is its integer combination of the images of
    the unit cochains, reduced mod n.  The search is an exhaustive
    meet-in-the-middle join: every leading half of the coordinates is
    matched against a table holding, for each coboundary a trailing half
    can contribute, the first trailing half that contributes it.  The
    matching candidate is confirmed with coboundary_of before it is
    returned.
    """
    if c.degree != 3:
        raise ValueError(f"brute force decides 3-cochains, got degree {c.degree}")
    n = c.n
    L = c.L
    count = n ** (L * L)
    if count > 3**9:
        raise ValueError(f"enumeration of {count} 2-cochains is a small-scale oracle only")
    images = _unit_coboundaries(n, c.r)
    split = (L * L + 1) // 2

    def combos(imgs):
        for vals in itertools.product(range(n), repeat=len(imgs)):
            vec = [0] * len(c.flat)
            for v, img in zip(vals, imgs):
                if v:
                    vec = [a + v * b for a, b in zip(vec, img)]
            yield vals, vec

    tails = {}
    for vals, vec in combos(images[split:]):
        tails.setdefault(tuple(x % n for x in vec), vals)
    for vals, vec in combos(images[:split]):
        tail = tails.get(tuple((w - x) % n for w, x in zip(c.flat, vec)))
        if tail is not None:
            mu = AdditiveCochain.from_flat(n, c.r, 2, list(vals + tail))
            if coboundary_of(mu) != c:
                raise ArithmeticError("batched coboundary disagrees with coboundary_of")
            return CoboundaryDecision(True, mu, None)
    return CoboundaryDecision(False, None, {"kind": "exhausted", "count": count})

