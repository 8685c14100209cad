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
coboundary is a coboundary); dense elimination mod p covers the
remaining prime-order cases.  A full enumeration of all 2-cochains
provides an independent oracle at the smallest scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .associator import Associator


class AdditiveCochain:
    """k-cochain on (Z/n)^r with values in Z/n, stored as an exponent array.

    table has shape (n^r,) * degree over flat coarse indices.
    """

    def __init__(self, n: int, r: int, degree: int, table: np.ndarray):
        self.n = n
        self.r = r
        self.degree = degree
        L = n**r
        table = np.asarray(table, dtype=np.int64) % n
        if table.shape != (L,) * degree:
            raise ValueError(f"{degree}-cochain on (Z/{n})^{r} needs shape {(L,) * degree}, "
                             f"got {table.shape}")
        self.table = table

    @property
    def L(self) -> int:
        return self.n**self.r

    def __eq__(self, other):
        return (
            isinstance(other, AdditiveCochain)
            and (self.n, self.r, self.degree) == (other.n, other.r, other.degree)
            and (self.table == other.table).all()
        )

    def is_zero(self) -> bool:
        return not self.table.any()


def restrict_associator(assoc: Associator) -> AdditiveCochain:
    """The additive 3-cochain P/n mod n on the coarse group."""
    A = assoc.hopf.algebra
    if (assoc.table % A.n).any():
        raise ValueError(f"associator exponents must be multiples of n = {A.n}")
    return AdditiveCochain(A.n, A.rank, 3, assoc.table // A.n)


def _sum_table(n: int, r: int) -> np.ndarray:
    from .twist import add_table

    return add_table(n, r)


def bar_differential(c: AdditiveCochain) -> AdditiveCochain:
    """The degree-raising bar differential with alternating signs."""
    n, r, k = c.n, c.r, c.degree
    L = c.L
    ADD = _sum_table(n, r)
    T = c.table
    idx = np.indices((L,) * (k + 1))
    out = np.zeros((L,) * (k + 1), dtype=np.int64)
    # drop-first and drop-last terms
    out += T[tuple(idx[1:])]
    out += (-1) ** (k + 1) * T[tuple(idx[:-1])]
    # interior terms merge neighbors j, j+1
    for j in range(k):
        merged = tuple(idx[:j]) + (ADD[idx[j], idx[j + 1]],) + tuple(idx[j + 2 :])
        out += (-1) ** (j + 1) * T[merged]
    return AdditiveCochain(n, r, k + 1, out)


def is_cocycle(c: AdditiveCochain) -> bool:
    return bar_differential(c).is_zero()


def coboundary_of(mu: AdditiveCochain) -> AdditiveCochain:
    if mu.degree != 2:
        raise ValueError(f"coboundary_of takes a 2-cochain, got degree {mu.degree}")
    return bar_differential(mu)


def _unit_coboundaries(n: int, r: int) -> np.ndarray:
    """Row i is the flat coboundary of the i-th unit 2-cochain; shape (L^2, L^3).

    The bar differential is Z-linear, so every coboundary mod n is an
    integer combination of these rows reduced mod n.
    """
    L = n**r
    units = np.eye(L * L, dtype=np.int64).reshape(L * L, L, L)
    return np.stack([bar_differential(AdditiveCochain(n, r, 2, e)).table.reshape(-1)
                     for e in units])


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


@dataclass
class CoboundaryDecision:
    trivial: bool
    witness: AdditiveCochain | None
    obstruction: dict | None


def _coboundary_matrix(n: int, r: int):
    """Integer matrix of mu -> dmu over flat indices; shape (L^3, L^2)."""
    L = n**r
    ADD = _sum_table(n, r)
    M = [[0] * (L * L) for _ in range(L * L * L)]
    for a in range(L):
        for b in range(L):
            ab = int(ADD[a, b])
            for c in range(L):
                row = M[(a * L + b) * L + c]
                bc = int(ADD[b, c])
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
    prime n falls back to dense elimination if every axis restriction is
    trivial.
    """
    if c.degree != 3:
        raise ValueError(f"decide_coboundary takes a 3-cochain, got degree {c.degree}")
    if c.is_zero():
        return CoboundaryDecision(True, AdditiveCochain(c.n, c.r, 2, np.zeros((c.L, c.L))), None)
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
    weights = np.array([n ** (r - 1 - j) for j in range(r)], dtype=np.int64)
    flats = []
    for v in range(n):
        vec = np.zeros(r, dtype=np.int64)
        vec[axis] = v
        flats.append(int(vec @ weights))
    flats = np.array(flats)
    return AdditiveCochain(n, 1, c.degree, c.table[np.ix_(flats, flats, flats)])


def rank1_invariant_functional(n: int) -> np.ndarray:
    """The 0/1 functional f on rank-1 3-cochains with f(1, k, 1) = 1."""
    f = np.zeros((n, n, n), dtype=np.int64)
    f[1, :, 1] = 1
    return f


def certify_coboundary_functional(f: np.ndarray, n: int) -> None:
    """Raise ArithmeticError unless f . dmu = 0 mod n for every rank-1 2-cochain mu.

    Checking the coboundaries of the unit 2-cochains suffices, since they
    generate all coboundaries over Z.
    """
    bad = np.flatnonzero((_unit_coboundaries(n, 1) @ f.reshape(-1)) % n)
    if bad.size:
        raise ArithmeticError(
            f"functional does not vanish on the coboundary of the unit 2-cochain "
            f"at {divmod(int(bad[0]), n)}"
        )


def _decide_rank1(c: AdditiveCochain) -> CoboundaryDecision:
    """Certified invariant first; Smith normal form only when it reads 0."""
    n = c.n
    f = rank1_invariant_functional(n)
    certify_coboundary_functional(f, n)
    v = int((f.reshape(-1) @ c.table.reshape(-1)) % n)
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
    L = c.L
    M, D, Lt, Rt = _rank1_snf(n)
    w = [int(v) for v in c.table.reshape(-1)]
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
                {"kind": "congruence", "index": i, "diagonal": int(d), "rhs": int(rhs),
                 "gcd": int(g), "modulus": n},
            )
        if i < cols and d % n:
            dd, nn = d // g, n // g
            y[i] = (rhs // g) * pow(dd % nn, -1, nn) % nn
    x = [sum(Rt[i][k] * y[k] for k in range(cols)) % n for i in range(cols)]
    mu = AdditiveCochain(n, 1, 2, np.array(x, dtype=np.int64).reshape(L, L))
    if coboundary_of(mu) != c:
        raise ArithmeticError("recovered witness must reproduce the cochain")
    return CoboundaryDecision(True, mu, None)


def _decide_dense_prime(c: AdditiveCochain) -> CoboundaryDecision:
    """Gaussian elimination of dmu = w over the prime field F_n."""
    p = c.n
    L = c.L
    ADD = _sum_table(c.n, c.r)
    rows = L * L * L
    cols = L * L
    M = np.zeros((rows, cols + 1), dtype=np.int64)
    a, b, cc = np.indices((L, L, L))
    ridx = ((a * L + b) * L + cc).reshape(-1)
    np.add.at(M, (ridx, (b * L + cc).reshape(-1)), 1)
    np.add.at(M, (ridx, (ADD[a, b] * L + cc).reshape(-1)), -1)
    np.add.at(M, (ridx, (a * L + ADD[b, cc]).reshape(-1)), 1)
    np.add.at(M, (ridx, (a * L + b).reshape(-1)), -1)
    M[:, cols] = c.table.reshape(-1)
    M %= p
    row = 0
    pivots = []
    for col in range(cols):
        pivot = None
        for i in range(row, rows):
            if M[i, col]:
                pivot = i
                break
        if pivot is None:
            continue
        M[[row, pivot]] = M[[pivot, row]]
        M[row] = (M[row] * pow(int(M[row, col]), -1, p)) % p
        mask = M[:, col] != 0
        mask[row] = False
        M[mask] = (M[mask] - np.outer(M[mask, col], M[row])) % p
        pivots.append(col)
        row += 1
        if row == rows:
            break
    bad = np.nonzero((M[:, :cols] == 0).all(axis=1) & (M[:, cols] != 0))[0]
    if bad.size:
        return CoboundaryDecision(
            False, None, {"kind": "rank", "row": int(bad[0]), "modulus": p}
        )
    x = np.zeros(cols, dtype=np.int64)
    for i, col in enumerate(pivots):
        x[col] = M[i, cols]
    mu = AdditiveCochain(c.n, c.r, 2, x.reshape(L, L))
    if coboundary_of(mu) != c:
        raise ArithmeticError("eliminated witness must reproduce the cochain")
    return CoboundaryDecision(True, mu, None)


def brute_force_decision(c: AdditiveCochain) -> CoboundaryDecision:
    """Enumerate every 2-cochain; only feasible at the smallest scale.

    The candidates are taken in itertools.product order, so the witness is
    the first one in that order.  The bar differential is Z-linear, so the
    coboundaries of all candidates at once are their integer combinations of
    the images of the unit cochains, reduced mod n.  The matching candidate
    is confirmed with coboundary_of before it is returned.
    """
    if c.degree != 3:
        raise ValueError(f"brute force decides 3-cochains, got degree {c.degree}")
    n = c.n
    L = c.L
    count = n ** (L * L)
    if count > 3**9:
        raise ValueError(f"enumeration of {count} 2-cochains is a small-scale oracle only")
    images = _unit_coboundaries(n, c.r)
    # row i is the i-th tuple of itertools.product(range(n), repeat=L*L)
    candidates = np.indices((n,) * (L * L)).reshape(L * L, -1).T
    hits = np.flatnonzero(((candidates @ images) % n == c.table.reshape(-1)).all(axis=1))
    if not hits.size:
        return CoboundaryDecision(False, None, {"kind": "exhausted", "count": count})
    mu = AdditiveCochain(n, c.r, 2, candidates[hits[0]].reshape(L, L))
    if coboundary_of(mu) != c:
        raise ArithmeticError("batched coboundary disagrees with coboundary_of")
    return CoboundaryDecision(True, mu, None)


def _is_prime(k: int) -> bool:
    if k < 2:
        return False
    f = 2
    while f * f <= k:
        if k % f == 0:
            return False
        f += 1
    return True
