"""Group cohomology of the associator's grouplike restriction.

Restricting the associator to the grouplikes of the subalgebra reads
off an additive 3-cochain on (Z/n)^r with values in Z/n,

    w(b, c, d) = P(b, c, d) / n  mod n,

where P is the coarse exponent table (all entries are multiples of n).
The pentagon identity makes w a 3-cocycle for the bar differential

    (dw)(a,b,c,d) = w(b,c,d) - w(a+b,c,d) + w(a,b+c,d) - w(a,b,c+d) + w(a,b,c).

Whether w is the coboundary of some 2-cochain mu,

    (dmu)(a,b,c) = mu(b,c) - mu(a+b,c) + mu(a,b+c) - mu(a,b),

decides if the quasi-Hopf structure can be gauged away on the group
part.  At rank 1 the decision first evaluates the invariant

    I(w) = sum_k w(1, k, 1)  mod n,

the functional that takes the standard generator a [b + c >= n] of
H^3(Z/n; Z/n) = Z/n to 1 (Dijkgraaf-Witten, CMP 129 (1990)).  It does
not rest on that theorem: every call checks exactly that I vanishes on
the coboundaries of all unit 2-cochains, hence on every coboundary, so
I(w) != 0 proves w nontrivial.  Only when I(w) = 0 does the system
dmu = w get solved mod n through the Smith normal form of the integer
coefficient matrix, with a reconstructed witness on success and a named
congruence obstruction on failure.  At rank 2 a nontrivial restriction
to a coordinate axis certifies nontriviality (restriction of a
coboundary is a coboundary); Gaussian elimination mod p covers the
remaining prime-order cases.  A full enumeration of all 2-cochains
provides an independent oracle at the smallest scale.  Cochains and
matrices are Python ints in nested lists and sparse rows.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

from .associator import Associator
from .twist import add_table, grid_cells, table_depth, table_values


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


# -- Smith normal form -------------------------------------------------


def _identity(k: int):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def _mat_mul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        Ai = A[i]
        for k in range(inner):
            a = Ai[k]
            if a:
                Bk = B[k]
                Oi = out[i]
                for j in range(cols):
                    if Bk[j]:
                        Oi[j] += a * Bk[j]
    return out


def _int_det(M) -> int:
    """Bareiss fraction-free determinant of a square integer matrix."""
    n = len(M)
    A = [row[:] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def smith_normal_form(M):
    """Diagonalize an integer matrix by unimodular row and column moves.

    Returns (D, L, R) with L M R = D, D diagonal with the divisibility
    chain d_1 | d_2 | ..., and both transforms unimodular.  The identity
    L M R = D is verified exactly before returning.
    """
    rows = len(M)
    cols = len(M[0])
    D = [row[:] for row in M]
    L = _identity(rows)
    R = _identity(cols)

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        L[i], L[j] = L[j], L[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in R:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, f):
        D[dst] = [a + f * b for a, b in zip(D[dst], D[src])]
        L[dst] = [a + f * b for a, b in zip(L[dst], L[src])]

    def add_col(src, dst, f):
        for row in D:
            row[dst] += f * row[src]
        for row in R:
            row[dst] += f * row[src]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # locate a pivot of smallest magnitude in the remaining block
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = abs(D[i][j])
                if v and (best is None or v < best):
                    best = v
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if D[i][t]:
                    f = D[i][t] // D[t][t]
                    add_row(t, i, -f)
                    if D[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if D[t][j]:
                    f = D[t][j] // D[t][t]
                    add_col(t, j, -f)
                    if D[t][j]:
                        swap_cols(t, j)
                        dirty = True
        t += 1
    # enforce the divisibility chain d_t | d_(t+1)
    changed = True
    while changed:
        changed = False
        for t in range(limit - 1):
            a, b = D[t][t], D[t + 1][t + 1]
            if a and b and b % a:
                add_col(t + 1, t, 1)
                # re-clear the disturbed 2x2 block by the same Euclid moves
                while D[t + 1][t]:
                    f = D[t + 1][t] // D[t][t]
                    add_row(t, t + 1, -f)
                    if D[t + 1][t]:
                        swap_rows(t, t + 1)
                while D[t][t + 1]:
                    f = D[t][t + 1] // D[t][t]
                    add_col(t, t + 1, -f)
                    if D[t][t + 1]:
                        swap_cols(t, t + 1)
                changed = True
    for t in range(limit):
        if D[t][t] < 0:
            D[t] = [-v for v in D[t]]
            L[t] = [-v for v in L[t]]
    if _mat_mul(_mat_mul(L, M), R) != D:
        raise ArithmeticError("transform identity L M R = D failed")
    if abs(_int_det(L)) != 1 or abs(_int_det(R)) != 1:
        raise ArithmeticError("transforms must be unimodular")
    return D, L, R


# -- coboundary decision -----------------------------------------------


class CoboundaryDecision(NamedTuple):
    trivial: bool
    witness: AdditiveCochain | None
    obstruction: dict | None


def _coboundary_matrix(n: int, r: int):
    """Integer matrix of mu -> dmu over flat indices; shape (L^3, L^2)."""
    L = n**r
    ADD = add_table(n, r)
    M = [[0] * (L * L) for _ in range(L * L * L)]
    for a in range(L):
        for b in range(L):
            ab = ADD[a][b]
            for c in range(L):
                row = M[(a * L + b) * L + c]
                bc = ADD[b][c]
                row[b * L + c] += 1
                row[ab * L + c] -= 1
                row[a * L + bc] += 1
                row[a * L + b] -= 1
    return M


def decide_coboundary(c: AdditiveCochain) -> CoboundaryDecision:
    """Is the 3-cochain a bar coboundary mod n?  Exact, with certificate.

    Rank 1 evaluates the certified invariant and goes through the Smith
    normal form of the integer coboundary matrix only when the invariant
    is 0.  Rank 2 first restricts to each coordinate axis; rank 2 with
    prime n falls back to elimination mod n if every axis restriction is
    trivial.
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
    if _is_prime(c.n):
        return _decide_dense_prime(c)
    raise NotImplementedError("full rank-2 decision implemented for prime n only")


def axis_restriction(c: AdditiveCochain, axis: int) -> AdditiveCochain:
    """Pull back along the cyclic subgroup of the given coordinate axis."""
    n, r = c.n, c.r
    flats = [v * n ** (r - 1 - axis) for v in range(n)]
    T = c.table
    return AdditiveCochain(n, 1, c.degree, [[[T[a][b][d] for d in flats] for b in flats]
                                            for a in flats])


def rank1_invariant_functional(n: int) -> list:
    """The 0/1 functional f on rank-1 3-cochains with f[1][k][1] = 1, as a nested table."""
    return [[[int(a == 1 and c == 1) for c in range(n)] for _ in range(n)] for a in range(n)]


def certify_coboundary_functional(f, n: int) -> None:
    """Raise ArithmeticError unless f . dmu = 0 mod n for every rank-1 2-cochain mu.

    Checking the coboundaries of the unit 2-cochains suffices, since they
    generate all coboundaries over Z.  f . d(unit i) is entry i of the
    transpose of the coboundary matrix applied to f, formed from the
    non-zero cells of f only.
    """
    ADD = add_table(n, 1)
    out = [0] * (n * n)
    for (a, b, c), v in grid_cells(f, n):
        if v:
            out[b * n + c] += v
            out[ADD[a][b] * n + c] -= v
            out[a * n + ADD[b][c]] += v
            out[a * n + b] -= v
    bad = [i for i, v in enumerate(out) if v % n]
    if bad:
        raise ArithmeticError(
            f"functional does not vanish on the coboundary of the unit 2-cochain "
            f"at {divmod(bad[0], n)}"
        )


def _decide_rank1(c: AdditiveCochain) -> CoboundaryDecision:
    """Certified invariant first; Smith normal form only when it reads 0."""
    n = c.n
    f = rank1_invariant_functional(n)
    certify_coboundary_functional(f, n)
    v = sum(x * y for x, y in zip(table_values(f, n), c.flat)) % n
    if v:
        return CoboundaryDecision(False, None, {"kind": "invariant", "value": v, "modulus": n})
    return _decide_rank1_snf(c)


@functools.cache
def _rank1_snf(n: int):
    """(M, D, L, R) of the rank-1 coboundary matrix as row tuples, checked once per n."""
    M = _coboundary_matrix(n, 1)
    return tuple(tuple(tuple(row) for row in X) for X in (M, *smith_normal_form(M)))


def _decide_rank1_snf(c: AdditiveCochain) -> CoboundaryDecision:
    """Solve dmu = c mod n through the Smith normal form; witness or congruence."""
    n = c.n
    M, D, Lt, Rt = _rank1_snf(n)
    w = c.flat
    rows, cols = len(M), len(M[0])
    # c' = L w, then solve d_i y_i = c'_i (mod n) coordinatewise
    cprime = [sum(Lt[i][k] * w[k] for k in range(rows)) % n for i in range(rows)]
    y = [0] * cols
    for i in range(rows):
        d = D[i][i] if i < cols else 0
        rhs = cprime[i]
        g = math.gcd(d, n)
        if rhs % g:
            return CoboundaryDecision(
                False,
                None,
                {"kind": "congruence", "index": i, "diagonal": d, "rhs": rhs,
                 "gcd": g, "modulus": n},
            )
        if i < cols and d % n:
            dd, nn = d // g, n // g
            y[i] = (rhs // g) * pow(dd % nn, -1, nn) % nn
    x = [sum(Rt[i][k] * y[k] for k in range(cols)) % n for i in range(cols)]
    mu = AdditiveCochain.from_flat(n, 1, 2, x)
    if coboundary_of(mu) != c:
        raise ArithmeticError("recovered witness must reproduce the cochain")
    return CoboundaryDecision(True, mu, None)


def _decide_dense_prime(c: AdditiveCochain) -> CoboundaryDecision:
    """Gaussian elimination of dmu = w over the prime field F_n.

    Rows are sparse {column: entry} dicts over the L^2 unknowns plus the
    right-hand side in column L^2; each pivot step touches only the rows
    with a non-zero entry in the pivot column.
    """
    p = c.n
    L = c.L
    cols = L * L
    M = []
    for row, rhs in zip(_coboundary_matrix(p, c.r), c.flat):
        entries = {j: v % p for j, v in enumerate(row) if v % p}
        if rhs:
            entries[cols] = rhs
        M.append(entries)
    row = 0
    pivots = []
    for col in range(cols):
        pivot = next((i for i in range(row, len(M)) if col in M[i]), None)
        if pivot is None:
            continue
        M[row], M[pivot] = M[pivot], M[row]
        inv = pow(M[row][col], -1, p)
        prow = {j: v * inv % p for j, v in M[row].items()}
        M[row] = prow
        for i, other in enumerate(M):
            f = other.get(col) if i != row else None
            if f:
                for j, v in prow.items():
                    x = (other.get(j, 0) - f * v) % p
                    if x:
                        other[j] = x
                    else:
                        del other[j]
        pivots.append(col)
        row += 1
        if row == len(M):
            break
    bad = next((i for i, entries in enumerate(M) if list(entries) == [cols]), None)
    if bad is not None:
        return CoboundaryDecision(False, None, {"kind": "rank", "row": bad, "modulus": p})
    x = [0] * cols
    for i, col in enumerate(pivots):
        x[col] = M[i].get(cols, 0)
    mu = AdditiveCochain.from_flat(c.n, c.r, 2, x)
    if coboundary_of(mu) != c:
        raise ArithmeticError("eliminated witness must reproduce the cochain")
    return CoboundaryDecision(True, mu, None)


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


def _is_prime(k: int) -> bool:
    if k < 2:
        return False
    f = 2
    while f * f <= k:
        if k % f == 0:
            return False
        f += 1
    return True
