"""Closed-form associator, its coboundary origin, and the pentagon.

The coboundary of the twist,

    dJ = (1 x J) (id x Delta)(J) [(Delta x id)(J)]^(-1) (J x 1)^(-1),

is diagonal in the fine idempotent basis with exponent

    EdJ(z, u, v) = E(u, v) + E(z, u + v) - E(z + u, v) - E(z, u),

where E is the twist exponent; since every factor is diagonal the order
of the factors is immaterial.  The claim verified here is that this
equals the closed-form associator

    Phi = sum over beta, gamma, delta in (Z/n)^r of
          q^P(beta, gamma, delta)  B_beta x B_gamma x B_delta,

    P(b, c, d) = sum_i b_i Q_i(c, d),
    Q_i(c, d) = sum_j a_ij ((c_j + d_j)' - c_j - d_j),

supported on the coarse idempotents B with all coefficients powers of
q^n.  Like the twist, the associator is a sum over coordinate pairs:

    Q_i(c, d) = sum_j kappa_ij(c_j, d_j),   kappa_ij(x, y) = a_ij ((x + y)' - x - y),

and it is held as its r^2 carry tables kappa_ij on (Z/n)^2 and nothing
else.  P is linear in its first slot by construction, and every reader,
the checks and the export alike, reads P off the tables one cell at a
time; no table over the (n^r)^3 coarse cells, nor over the (n^r)^2
cells of one Q_i, is formed.  Since n divides every kappa_ij and
m = n^2, n Q_i = 0 mod m, so b -> P(b, c, d) is additive on (Z/n)^r and
its pullback to (Z/m)^r is additive too.  Equality with dJ on every cell
of the fine grid is then proved as integer congruences mod m between
the step tables of the twist and the carry tables, pair by pair, on
(Z/n)^2 only (see coboundary_matches_associator).

Pentagon and quasi-coassociativity are proved by one route at every
scale, as closed-form congruences mod m between integer exponents read
off the per-coordinate tables, one coordinate at a time.  For the
pentagon it is the 2-cocycle condition on each carry table, decided on
its n^2 cells by its normal form c carry + dmu (carry_normal_form and
Associator.carry_certificate, the one decision of it, which
decide_coboundary reads too); the n^3 sweep of a table runs only to name
the cell where a table that fails its certificate fails the pentagon.
For quasi-coassociativity it is one congruence per slot word of each
generator (three for e_i, one for g_i^n), checked at the r + 1 first
slots b in {0, d_1, .., d_r} and, for each, on the axis cells
(x d_j, y d_j) of the other two slots.  No check forms a table over
pairs of coarse cells.
pentagon_check and quasi_coassoc_check derive them from four
group-algebra facts, which the tests assert and the verifier takes as
given:

1. the B_b are orthogonal idempotents summing to 1, and g_i^n acts on
   B_b by q^(n b_i) (test_bold_idempotent_a1n3, test_bold_idempotent_a2_spot);
2. Delta(B_b) = sum over c + d = b of B_c x B_d
   (test_coproduct_splits_bold_idempotent);
3. e_i B_b = B_(b + d_i) e_i, the coarse sum of 1_z e_i = e_i 1_(z - d_i)
   (test_shift_identity_moves_e_past_idempotent);
4. J Delta(e_i) J^(-1) = sum q^G1(z,y) e_i 1_z x 1_y + q^G2(z,y) 1_z x e_i 1_y,
   with the conjugation exponents G1, G2 of twisted_generator_bold
   (test_fine_expansion_matches_direct_conjugation_a1n3).

From fact 4 and the step-table premises that building the twist
certifies, twisted_generator_bold proves that G1 and G2 depend on the
idempotent indices only mod n, and holds Delta_J(e_i) as its linear
data, one n-entry row per coordinate: the r rows f_ij whose sum over j
is G1, which does not read z, and the r step rows t_k of G2, which is
linear in z and reads y_i only (test_twisted_coproduct_matches_direct_a1n3,
test_bold_expansion_matches_fine_expansion_a1n5).

The tests expand J, Phi and Delta_J into the group basis from their
definitions (tests/oracles.py).  At (A1, 3) they multiply both
identities, and dJ = Phi, out as cyclotomic tensors, as oracles for the
congruences.
"""

from __future__ import annotations

import functools
import itertools

from .algebra import Element
from .borel import HopfData, carry
from .twist import TwistJ, axis_cells, coord_table, flat_index


# -- closed form -------------------------------------------------------


def carry_tables(hopf: HopfData) -> list:
    """kappa_ij(x, y) = a_ij ((x + y)' - x - y) mod m for each pair (i, j), over x, y in Z/n."""
    A = hopf.algebra
    n, m = A.n, A.m
    # (x + y)' - x - y = -n carry(x, y)
    return [[[[-n * a * carry(x, y, n) % m for y in range(n)] for x in range(n)] for a in row]
            for row in A.datum.cartan_matrix]


class Associator:
    """The associator held as its r^2 carry tables and nothing else.

    carries[i][j][x][y] = kappa_ij(x, y), and the exponent of q on
    B_b x B_c x B_d is P(b, c, d) = sum_i b_i Q_i(c, d) mod m with
    Q_i(c, d) = sum_j kappa_ij(c_j, d_j): linear in its first slot and a
    sum over coordinates in the others, by construction.  exponent reads
    P off the tables one cell at a time.  The constructor checks that every
    entry is a multiple of n, so that all coefficients are powers of q^n
    and n Q_i = 0 mod m, and that kappa_ij(0, .) = kappa_ij(., 0) = 0.
    Then Q_i(0, d) = sum_j kappa_ij(0, d_j) = 0 and likewise Q_i(c, 0) = 0,
    which with P(0, ., .) = 0 is the counit normalization.  A table
    failing either check raises ValueError, as do carries that are not
    r x r tables of n x n integers.
    """

    def __init__(self, hopf: HopfData, carries: list):
        A = hopf.algebra
        n, m, r = A.n, A.m, A.rank
        self.hopf = hopf
        self.carries = carries
        self.L = n**r
        self.coords = coord_table(n, r)
        if len(carries) != r or any(len(row) != r for row in carries) or any(
                len(K) != n or any(len(x) != n or not all(isinstance(v, int) for v in x) for x in K)
                for row in carries for K in row):
            raise ValueError(f"the associator needs {r} x {r} carry tables of {n} x {n} integers")
        for i, j in itertools.product(range(r), repeat=2):
            K = carries[i][j]
            if any(v % n for x in K for v in x):
                raise ValueError(f"carry table ({i}, {j}): associator coefficients must be powers of q^n")
            if any(v % m for v in K[0]) or any(row[0] % m for row in K):
                raise ValueError(f"carry table ({i}, {j}): associator must be counit-normalized")

    @property
    def term_count(self) -> int:
        return self.L**3

    def exponent(self, b: int, c: int, d: int) -> int:
        """P(b, c, d) mod m at flat coarse indices."""
        c, d = self.coords[c], self.coords[d]
        return sum(bi * K[cj][dj] for bi, row in zip(self.coords[b], self.carries)
                   for K, cj, dj in zip(row, c, d)) % self.hopf.algebra.m

    def carry_certificate(self, i: int, j: int) -> tuple:
        """(c, mu, cell): the normal form of lambda = kappa_ij / n, and its certificate.

        (c, mu) is carry_normal_form(lambda, n), and cell is the first (x, y)
        in row-major order where lambda != c carry + dmu mod n, or None, with
        dmu(x, y) = mu(x) + mu(y) - mu(x + y): n^2 cells.  This is the one
        decision of whether a carry table is a normalized 2-cocycle, and it
        checks whatever mu it is given.  The constructor certifies
        kappa_ij = n lambda with lambda(0, .) = lambda(., 0) = 0 mod n, so
        kappa_ij is a 2-cocycle mod m = n^2 exactly when lambda is one mod n,
        and cell is None exactly then:

        - if cell is None, lambda = c carry + dmu is a cocycle: d(dmu) = 0,
          and carry(x, y) + carry(x + y, w) = floor((x + y + w) / n) =
          carry(y, w) + carry(x, y + w) for x, y, w in [0, n);
        - if lambda is a normalized cocycle, so is
          delta = lambda - c carry - dmu, and delta(x, 1) = 0 for every x:
          for x + 1 < n by the recursion for mu, with carry(x, 1) = 0 and
          mu(1) = 0, and at x = n - 1 since
          mu(n - 1) = -sum_(0<x<n-1) lambda(x, 1) and lambda(0, 1) = 0, so
          delta(n - 1, 1) = sum_k lambda(k, 1) - c = 0.  The cocycle
          identity at (x, y, 1) gives
          delta(x, y + 1) = delta(x, y) + delta(x + y, 1) - delta(y, 1) = delta(x, y),
          and delta(x, 0) = 0, so delta = 0 and no cell fails.
        """
        n = self.hopf.algebra.n
        lam = [[v // n for v in row] for row in self.carries[i][j]]
        c, mu = carry_normal_form(lam, n)
        cell = next(((x, y) for x, y in itertools.product(range(n), repeat=2)
                     if (lam[x][y] - c * carry(x, y, n) - mu[x] - mu[y] + mu[(x + y) % n]) % n), None)
        return c, mu, cell


def carry_normal_form(lam: list, n: int) -> tuple:
    """(c, mu) for a normalized 2-cochain lam on Z/n: c = sum_k lam(k, 1) mod n,
    and the 1-cochain mu with mu(0) = mu(1) = 0 and
    mu(x + 1) = mu(x) + mu(1) - lam(x, 1) + c [x + 1 >= n], which
    lam = c carry + dmu forces once mu(1) is fixed.  For x + 1 < n the carry
    term is 0, so the recursion fills mu(2), .., mu(n - 1)."""
    mu = [0] * n
    for x in range(1, n - 1):
        mu[x + 1] = (mu[x] - lam[x][1]) % n
    return sum(row[1] for row in lam) % n, mu


def closed_form_associator(hopf: HopfData) -> Associator:
    return Associator(hopf, carry_tables(hopf))


# -- coboundary of the twist -------------------------------------------


def coboundary_matches_associator(hopf: HopfData, J: TwistJ, assoc: Associator):
    """dJ equals the pullback of the closed form on every fine cell.

    With red(x) the coarse index of x mod n and P the closed form,
    the claim is EdJ(z, u, v) = P(red z, red u, red v) mod m on all of
    (Z/m)^(3r).  It is proved in three exact steps, none of which visits
    the fine grid:

    1. E(z, y) = sum_i z_i s_i(y) for the step rows s_i of J, by
       construction.  Then E(z + u, v) = E(z, v) + E(u, v), so
       EdJ(z, u, v) = sum_i z_i D_i(u, v) for every z, where
       D_i(u, v) = s_i(u + v) - s_i(u) - s_i(v);
    2. s_i(y) = sum_j s_ij(y_j), so D_i(u, v) = sum_j D_ij(u_j, v_j) with
       D_ij(x, y) = s_ij(x + y) - s_ij(x) - s_ij(y) on Z/m, and
       Q_i(c, d) = sum_j kappa_ij(c_j, d_j) by construction of the
       associator;
    3. D_ij(x, y) = kappa_ij(x mod n, y mod n) on all of (Z/m)^2, for each
       pair.  Moving x by n moves D_ij by
       (s_ij(x + y + n) - s_ij(x + y)) - (s_ij(x + n) - s_ij(x))
       = -n a_ij + n a_ij = 0 by premise 3 of TwistJ, and likewise for
       y; so D_ij depends on (x mod n, y mod n) only, and it is compared
       with kappa_ij on the n^2 representatives in [0, n)^2: r^2 n^2
       cells in all.  (There, by premises 1 and 3, D_ij(x, y) =
       s_ij(x + y) = -n a_ij carry(x + y).)

    So D_i(u, v) = Q_i(red u, red v), and P(red z, c, d) =
    sum_i (z_i mod n) Q_i(c, d) = sum_i z_i Q_i(c, d) mod m by
    construction of P and n Q_i = 0 mod m; both sides are
    sum_i z_i D_i(u, v).  Conversely, a pair (i, j) with D_ij(x, y) !=
    kappa_ij(x, y) fails the claim at z = d_i, u = x d_j, v = y d_j:
    every other pair contributes D_ij'(0, 0) = -s_ij'(0) = 0 (premise 1)
    and kappa_ij'(0, 0) = 0 (checked by Associator).  Returns None on
    success, else a dict naming such a fine cell (z, u, v), with both
    exponents there: EdJ(d_i, u, v) = D_i(u, v) = D_ij(x, y) and
    P(d_i, u, v) = Q_i(u, v) = kappa_ij(x, y), by the same vanishing of
    the other pairs.  Each i is swept in increasing order, and the cells
    (x d_j, y d_j) of each in row-major order of their flat coarse
    indices, so the cell is the first one that a row-major sweep of all
    n^(2r) coarse pairs (u, v) at z = d_i would name: a pair (u, v)
    where the sum over j differs has a j where D_ij(u_j, v_j) differs,
    and the cell (u_j d_j, v_j d_j) comes no later in that order.
    """
    A = hopf.algebra
    m, n, r = A.m, A.n, A.rank
    for i in range(r):
        for j, (x, y) in axis_cells(n, r, 2):
            s, K = J.tables[i][j], assoc.carries[i][j]
            d_ij = (s[x + y] - s[x] - s[y]) % m
            if d_ij != K[x][y] % m:
                u, v = (tuple(t if k == j else 0 for k in range(r)) for t in (x, y))
                return {"z": tuple(int(k == i) for k in range(r)), "u": u, "v": v,
                        "coboundary_exponent": d_ij, "associator_exponent": K[x][y] % m}
    return None


# -- pentagon ----------------------------------------------------------


def pentagon_check(hopf: HopfData, assoc: Associator):
    """(1 x Phi)(id x Delta x id)(Phi)(Phi x 1) = (id x id x Delta)(Phi)(Delta x id x id)(Phi).

    Phi is diagonal in the coarse idempotents, so by facts 1 and 2 of the
    module docstring each side is diagonal in B_a x B_b x B_c x B_d, and
    its exponent there is a sum of entries of P: (id x Delta x id)(Phi)
    reads P[a][b + c][d], and so on.  The defect, left minus right, is

        P(b, c, d) - P(a + b, c, d) + P(a, b + c, d) - P(a, b, c + d) + P(a, b, c).

    P(a + b, c, d) = P(a, c, d) + P(b, c, d) mod m, since P is linear in
    its first slot and n Q_i = 0 mod m (see Associator), so the defect is

        sum_i a_i (Q_i(b + c, d) + Q_i(b, c) - Q_i(b, c + d) - Q_i(c, d)),

    a_i times the coboundary dQ_i of the 2-cochain Q_i.  It vanishes on
    every cell if each Q_i is a 2-cocycle mod m, and at a = d_i it is
    dQ_i, so the pentagon holds exactly when every Q_i is a 2-cocycle.
    Coarse sums are taken coordinatewise, so

        dQ_i(b, c, d) = sum_j dkappa_ij(b_j, c_j, d_j),
        dkappa(x, y, w) = kappa(x + y, w) + kappa(x, y) - kappa(x, y + w) - kappa(y, w),

    and dkappa(0, 0, 0) = 0 for any kappa.  So dQ_i vanishes everywhere
    exactly when every dkappa_ij does: at the cell (x d_j, y d_j, w d_j)
    dQ_i is dkappa_ij(x, y, w) alone.  The pentagon holds exactly when
    every carry table is a 2-cocycle mod m, and Associator.carry_certificate
    decides that from its normal form c carry + dmu on n^2 cells: r^2 n^2
    cells in all.  Only when a table fails its certificate does
    _pentagon_sweep run, and its verdict, with the cell it names, is the
    result: a pass never rests on the normal form alone being right.
    """
    r = hopf.algebra.rank
    if all(assoc.carry_certificate(i, j)[2] is None for i, j in itertools.product(range(r), repeat=2)):
        return None
    return _pentagon_sweep(hopf, assoc)


def _pentagon_sweep(hopf: HopfData, assoc: Associator):
    """The first cell where the pentagon fails, or None: each carry table
    checked as a 2-cocycle mod m on (Z/n)^3, r^2 n^3 cells.

    A failure names the cell (d_i, x d_j, y d_j, w d_j), as flat coarse
    indices, with both sides of the pentagon read off the tables.  The
    d_i are swept in increasing flat index, and for each the cells one
    w-row at a time, the rows in row-major order of (x d_j, y d_j).
    dkappa(0, y, w) = dkappa(x, y, 0) = 0 by the counit normalization
    that Associator certifies, so a failing cell has x != 0, which fixes
    j, and the rows meet the failing cells in row-major order of their
    flat coarse indices.  So the cell is the first one in row-major order
    over all r (n^r)^3 cells (d_i, b, c, d) where the two sides differ:
    where dQ_i(b, c, d) != 0, some dkappa_ij(b_j, c_j, d_j) != 0, and
    that axis cell comes no later (see pentagon_check).
    """
    A = hopf.algebra
    m, n, r = A.m, A.n, A.rank
    P = assoc.exponent
    flat = lambda *vs: flat_index([sum(t) for t in zip(*vs)], n)
    for i in reversed(range(r)):  # d_i has flat index n^(r - 1 - i)
        for j, (x, y) in axis_cells(n, r, 2):
            K = assoc.carries[i][j]
            # one w-row at a time: kappa(x + y, w) + kappa(x, y) against kappa(x, y + w) + kappa(y, w)
            lhs = [(t + K[x][y]) % m for t in K[(x + y) % n]]
            rhs = [(s + t) % m for s, t in zip(K[x][y:] + K[x][:y], K[y])]
            if lhs != rhs:
                w = next(w for w in range(n) if lhs[w] != rhs[w])
                a = [int(k == i) for k in range(r)]
                b, c, d = ([t if k == j else 0 for k in range(r)] for t in (x, y, w))
                cell = tuple(flat(v) for v in (a, b, c, d))
                return {"cell": cell,
                        "lhs": (P(*cell[1:]) + P(cell[0], flat(b, c), cell[3]) + P(*cell[:3])) % m,
                        "rhs": (P(cell[0], cell[1], flat(c, d)) + P(flat(a, b), *cell[2:])) % m}
    return None


# -- quasi-coassociativity ---------------------------------------------


def quasi_coassoc_check(hopf: HopfData, images, assoc: Associator, x: Element):
    """(id x Delta_J)(Delta_J(x)) . Phi = Phi . (Delta_J x id)(Delta_J(x)).

    Checked for x among 1, g^a with n dividing a, and e_i; any other x
    raises ValueError.  Both sides are algebra maps of x, so passing on
    those generators settles the axiom on the whole subalgebra.  Each
    side is a sum over slot words of q^exponent times B_b x B_c x B_d
    placed to the right of the words, and the identity is compared as
    exponents mod m on coarse cells (b, c, d) of (Z/n)^r, with c + d the
    coordinatewise sum mod n:

    - x = 1: both sides are Phi.
    - x = g^a: Delta_J(g^a) = sum q^(a.b + a.c) B_b x B_c (fact 1).  A
      second coproduct splits an idempotent index along coarse addition
      (fact 2), and Phi adds P(b, c, d) to both sides, leaving
      a.b + a.(c + d) = a.(b + c) + a.d.
    - x = e_i: Delta_J(e_i) = sum q^F1[b][c] e_i B_b x B_c
      + q^F2[b][c] B_b x e_i B_c (fact 4), where images[i] is the
      (f, t) of twisted_generator_bold: F1[b][c] = sum_j f[j][c_j] for
      every b, and F2[b][c] = sum_k b_k t[k][c_i].  On the left,
      id x Delta_J splits the second slot: Delta(B_c) yields B_c' x B_d'
      over c' + d' = c (fact 2), and Delta_J(e_i B_c) = Delta_J(e_i) Delta(B_c)
      keeps, by orthogonality (fact 1), the cells of Delta_J(e_i) that
      sum to c.  Phi on the right adds P(b, c, d).  On the right,
      Delta_J x id splits the first slot the same way; Phi on the left
      meets the idempotent of the slot holding e_i only after
      B_(b + w) e_i = e_i B_b (fact 3), w the coarse weight of e_i, so
      that slot reads P at its index plus w.  The coefficients of the
      three slot words are

        pattern  left side                           right side
        e 1 1    F1[b][c+d] + P(b, c, d)             F1[b][c] + F1[b+c][d] + P(b+w, c, d)
        1 e 1    F2[b][c+d] + F1[c][d] + P(b, c, d)  F2[b][c] + F1[b+c][d] + P(b, c+w, d)
        1 1 e    F2[b][c+d] + F2[c][d] + P(b, c, d)  F2[b+c][d] + P(b, c, d+w)

    Reduction to r + 1 first slots.  Write b' for the representative of
    b in [0, n)^r.  For fixed (c, d), every exponent above is a constant
    plus sum_k b'_k u_k mod m, with n u_k = 0 mod m:

    - F1[b][.] and F1[b + c][.] do not read b;
    - F2[b][c] = sum_k b'_k t[k][c_i], and n divides every t[k][x]
      (premise 2 of TwistJ for the images twisted_generator_bold reads
      off the step tables; checked here, a failure raises ValueError);
    - P(b, c, d) = sum_i b'_i Q_i(c, d), and n divides every Q_i, a sum
      of carry table entries (checked by Associator);
    - a.b = sum_j b'_j a_j, and n divides a;
    - at a sum b + c or b + w, (b + c)'_k = b'_k + c'_k - n h_k with a
      carry h_k, and n times a step entry, a Q_i entry or a_j is 0 mod m,
      so F2[b+c][d] = F2[b][d] + F2[c][d], P(b + w, c, d) =
      P(b, c, d) + P(w, c, d) and a.(b + c) = a.b + a.c mod m.

    So the defect of each slot word, left side minus right side, is
    D(b) = D(0) + sum_k b'_k (D(d_k) - D(0)) mod m on each (c, d), and it
    vanishes for every b once it vanishes at b = 0 and at each unit
    vector b = d_k.

    Reduction to axis cells.  Fix b.  Each exponent above is, mod m, a
    sum over coordinates j of functions of (c_j, d_j) alone, plus a
    constant: F1 is sum_j f[j], F2[b][.] reads coordinate i only, Q_i is
    sum_j kappa_ij, a.c is sum_j a_j c'_j, and a coarse sum is taken
    coordinatewise, so c + d, c + w and d + w move coordinate j by
    coordinate j.  The one cross term, F2[c][d] = sum_k c'_k t[k][d_i] in
    pattern 1 1 e, cancels: F2[b+c][d] = F2[b][d] + F2[c][d] mod m, as
    above, so that defect is F2[b][c+d] - F2[b][d] + P(b, c, d) -
    P(b, c, d+w), again a sum over coordinates.  So for every slot word

        D(c, d) = D(0, 0) + sum_j (D(c_j d_j, d_j d_j) - D(0, 0))  mod m,

    and D vanishes on all of ((Z/n)^r)^2 once it vanishes on the axis
    cells (x d_j, y d_j), x, y in [0, n): r n^2 cells per first slot, and
    (r + 1) r n^2 per slot word, against (r + 1) n^(2r) on the whole grid.

    Reading an axis cell.  Both sides are formed, for each (b, j, x), as
    a row over y of the cells (b, x d_j, y d_j), with every term read at
    its actual arguments: F1, F2 and a. are evaluated at the vectors
    y d_j, x d_j, b and b + x d_j, and c + d = ((x + y) mod n) d_j.  P is
    read off one carry table row per i: P(u, x d_j, y d_j) =
    sum_i u_i kappa_ij(x, y), since every other coordinate j' adds
    kappa_ij'(0, 0) = 0.  Likewise c + w = x d_j + w and d + w = y d_j + w
    move coordinate j by w_j, and coordinate j' != j adds
    kappa(w_j', 0) = 0 or kappa(0, w_j') = 0 to P: the counit
    normalization that Associator certifies.  So each entry of a row is
    the exponent of that side at that cell.

    A failure names the first pattern, first slot and coarse cell, in
    that order, where the sides differ, with both exponents mod m read
    at that cell.  The first slots are swept in increasing flat index,
    and for each the axis cells are compared in row-major order of their
    flat coarse indices, so the cell is the first one that a row-major
    sweep of all n^(2r) pairs (c, d) would name: if D(0, 0) != 0 it is
    (0, 0), and otherwise D(c, d) is the sum over j of
    D(c_j d_j, d_j d_j), so where D(c, d) != 0 some axis cell
    (c_j d_j, d_j d_j) differs too, and it comes no later in that order.
    The cell is given as flat coarse indices (b, c, d).
    """
    A = hopf.algebra
    n, m, r = A.n, A.m, A.rank
    if x == A.one:
        return None
    add = lambda u, v: tuple((s + t) % n for s, t in zip(u, v))
    rot = lambda row, k: row[k:] + row[:k]
    # axes[j][y] = y d_j.  K(u, j, x)[y] = P(u, x d_j, y d_j): every other
    # coordinate adds kappa(0, 0) = 0, certified by Associator
    axes = [[tuple(y if k == j else 0 for k in range(r)) for y in range(n)] for j in range(r)]
    K = functools.cache(lambda u, j, x: [sum(col) for col in zip([0] * n, *(
        [uk * v for v in row[j][x]] for uk, row in zip(u, assoc.carries) if uk))])
    empty = (0,) * A.nroots
    terms = list(x.terms.items())
    if len(terms) == 1 and not any(terms[0][0].pbw):
        (mono, coeff), = terms
        if any(a % n for a in mono.group) or coeff != A.field.one:
            raise ValueError("a grouplike must be g^a with n dividing a and coefficient 1")
        ex = functools.cache(lambda v: sum(vk * a for vk, a in zip(v, mono.group)))
        sides = {(empty,) * 3: lambda b, j, x: (
            [ex(b) + ex(v) + p for v, p in zip(rot(axes[j], x), K(b, j, x))],
            [ex(add(b, axes[j][x])) + ex(v) + p for v, p in zip(axes[j], K(b, j, x))])}
    else:
        i = next((i for i in range(r) if x == A.generator_e(i)), None)
        if i is None:
            raise ValueError("quasi-coassociativity is checked on 1, g_i^n and e_i only")
        letter = A.e_letters[i]
        word = tuple(int(k == letter) for k in range(A.nroots))
        w = A.weights[letter]
        f, t = images[i]
        if any(v % n for row in t for v in row):
            raise ValueError(f"image of e_{i + 1}: its step rows must be multiples of n = {n}")
        # F1[j][y] = F1[.][y d_j], and F2(u, j)[y] = F2[u][y d_j]
        F1 = [[sum(row[vk] for row, vk in zip(f, v)) for v in line] for line in axes]
        F2 = functools.cache(lambda u, j: [sum(uk * row[v[i]] for uk, row in zip(u, t)) for v in axes[j]])
        sides = {
            (word, empty, empty): lambda b, j, x: (
                [g + p for g, p in zip(rot(F1[j], x), K(b, j, x))],
                [F1[j][x] + g + p for g, p in zip(F1[j], K(add(b, w), j, x))]),
            (empty, word, empty): lambda b, j, x: (
                [h + g + p for h, g, p in zip(rot(F2(b, j), x), F1[j], K(b, j, x))],
                [F2(b, j)[x] + g + p for g, p in zip(F1[j], K(b, j, (x + w[j]) % n))]),
            (empty, empty, word): lambda b, j, x: (
                [h + g + p for h, g, p in zip(rot(F2(b, j), x), F2(axes[j][x], j), K(b, j, x))],
                [h + p for h, p in zip(F2(add(b, axes[j][x]), j), rot(K(b, j, x), w[j] % n))]),
        }
    # 0, then the unit vectors d_(r-1), .., d_0 in increasing flat index
    firsts = [tuple(int(k == j) for k in range(r)) for j in range(r, -1, -1)]
    for pattern, side in sides.items():
        for b in firsts:
            # each side is a row over y for the cells (b, x d_j, y d_j)
            bad = [(x * n ** (r - 1 - j), y * n ** (r - 1 - j), lhs % m, rhs % m)
                   for j in range(r) for x in range(n)
                   for y, (lhs, rhs) in enumerate(zip(*side(b, j, x))) if (lhs - rhs) % m]
            if bad:
                c, d, lhs, rhs = min(bad)
                return {"pattern": pattern, "cell": (flat_index(b, n), c, d), "lhs": lhs, "rhs": rhs}
    return None
