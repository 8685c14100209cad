"""The diagonal twist on the quantum Borel algebra and its coproduct.

Everything here lives on the commutative group algebra C[(Z/m)^r],
m = n^2, whose primitive idempotents

    1_z = m^(-r) sum_a q^(-z.a) g^a,        1_z g_i = q^(z_i) 1_z,

diagonalize all the data.  The twist is the invertible element

    J = sum_(z,y) prod_(i,j) c(z_i, y_j)^(a_ij)  1_z x 1_y = sum_(z,y) q^E(z,y) 1_z x 1_y,
    c(z, y) = q^(-z(y - y')),   y' = y mod n lifted to [0, n),

which is diagonal in the idempotent basis.  Its exponent
E(z, y) = -sum_ij a_ij z_i (y_j - y_j') is linear in z, so the twist is
held as its r step rows s_k(y) = E(d_k, y) of m^r entries each, never as
a table over the fine grid of pairs (z, y); the inverse twist negates
them, and E vanishes at z = 0 and, by a certified premise, at y = 0: the
counit normalization.

Twisting the coproduct, Delta_J(x) = J Delta(x) J^(-1), fixes grouplikes
and moves the images of the nilpotent generators into the subalgebra
generated by g_i^n and e_i.  That membership is equivalent, in the
idempotent picture, to the exponents of Delta_J(e_i) depending on the
idempotent indices only mod n.  twisted_generator_bold proves it from
three premises on the step rows, which building the twist certifies as
exact congruences on Python ints, never floats, and reads the coarse
images off the step rows at the coset representatives: one row for e_i
in the first slot and r step rows for e_i in the second.

The coarse idempotents

    B_beta = sum over z = beta (mod n) of 1_z,     beta in (Z/n)^r,

aggregate the fine ones, and B_beta g_i^n = q^(n beta_i) B_beta.  No
idempotent is formed here: the twist, Delta_J(e_i) and the associator
are held as exponent rows only, the linear data that fixes each.  The
tests expand them into the group basis from the definitions above
(tests/oracles.py) and assert the idempotent facts there;
test_bold_idempotent_a1n3 and test_bold_idempotent_a2_spot assert the
eigenvalue of g_i^n on B_beta.
"""

from __future__ import annotations

import functools
import itertools

from .algebra import Element
from .borel import HopfData


# -- index tables ------------------------------------------------------


@functools.cache
def coord_table(size: int, r: int) -> tuple:
    """The residue vectors of (Z/size)^r in row-major (flat index) order."""
    return tuple(itertools.product(range(size), repeat=r))


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


def flat_index(vec, size: int) -> int:
    out = 0
    for v in vec:
        out = out * size + (v % size)
    return out


def table_values(table, length: int) -> list:
    """The entries of a nested-list table in row-major order; every level must have the given length."""
    values = [table]
    for _ in range(table_depth(table)):
        if not all(isinstance(t, (list, tuple)) and len(t) == length for t in values):
            raise ValueError(f"every level of the table must have length {length}")
        values = [v for t in values for v in t]
    return values


def combine(coeffs, rows) -> list:
    """sum_k coeffs[k] rows[k] entry by entry, unreduced: a row of linear data at a first slot."""
    out = [0] * len(rows[0])
    for a, row in zip(coeffs, rows):
        if a:
            out = [x + a * y for x, y in zip(out, row)]
    return out


def table_depth(table) -> int:
    """Nesting depth of a nested-list table (0 for a scalar)."""
    depth = 0
    while isinstance(table, (list, tuple)):
        depth += 1
        table = table[0] if table else 0
    return depth


# -- the twist ---------------------------------------------------------


def step_rows(hopf: HopfData) -> list:
    """s_k(y) = E(d_k, y) = -(C (y - y'))_k mod m for each k, over the flat fine indices y."""
    A = hopf.algebra
    m, n = A.m, A.n
    coords = coord_table(m, A.rank)
    return [[-sum(c * (yj - yj % n) for c, yj in zip(row, y)) % m for y in coords]
            for row in A.datum.cartan_matrix]


class TwistJ:
    """The twist, held as its r step rows and nothing else.

    rows[k][y] = s_k(y) is the q-exponent of J at (d_k, y), y a flat fine
    index.  The exponent E(z, y) = sum_k z_k s_k(y) is linear in z by
    construction, so the rows fix J, and the inverse twist negates them.
    Building the twist certifies three premises on every fine cell (k, y),
    and raises ArithmeticError naming the first cell that fails one:

    1. s_k(y) = 0 whenever every y_j < n;
    2. s_k(y) = 0 mod n;
    3. s_k(y + n d_j) - s_k(y) = -n a_kj mod m for every j, y + n d_j
       taken in (Z/m)^r.

    Premise 1 at y = 0, and E(0, y) = 0, are the counit normalizations
    (id x eps)(J) = 1 = (eps x id)(J).  The group-basis expansions of J,
    J^(-1) and Delta_J are test oracles (tests/oracles.py).
    """

    def __init__(self, hopf: HopfData):
        self.hopf = hopf
        self.rows = step_rows(hopf)
        A = hopf.algebra
        m, n, r = A.m, A.n, A.rank
        coords = coord_table(m, r)
        cart = A.datum.cartan_matrix

        def fail(k, y, claim):
            raise ArithmeticError(f"twist step row {k} fails at the fine cell y = {coords[y]}: {claim}")

        for k, row in enumerate(self.rows):
            for y, s in enumerate(row):
                if s % m and max(coords[y]) < n:
                    fail(k, y, f"s(y) = {s}, but s vanishes where every y_j < n")
        for k, row in enumerate(self.rows):
            for y, s in enumerate(row):
                if s % n:
                    fail(k, y, f"s(y) = {s} is not a multiple of n = {n}")
        for k, row in enumerate(self.rows):
            want = [-n * a % m for a in cart[k]]
            for y, vec in enumerate(coords):
                for j, w in enumerate(want):
                    # the fine flat index of y + n d_j, wrapping in coordinate j
                    up = y + (n if vec[j] < m - n else n - m) * m ** (r - 1 - j)
                    if (row[up] - row[y] - w) % m:
                        fail(k, y, f"s(y + n d_{j}) - s(y) = {(row[up] - row[y]) % m}, "
                                   f"want -n a_{k}{j} = {w} mod m")

    def exponent(self, z, y: int) -> int:
        """E(z, y) = sum_k z_k s_k(y) mod m, for a fine vector z and a flat fine index y."""
        return sum(zk * row[y] for zk, row in zip(z, self.rows)) % self.hopf.algebra.m


def build_twist(hopf: HopfData) -> TwistJ:
    return TwistJ(hopf)


# -- twisted coproduct -------------------------------------------------


def twisted_generator_bold(hopf: HopfData, J: TwistJ, i: int) -> tuple:
    """Delta_J(e_i) as (row, steps): its linear data on the coarse grid.

    The coarse exponent tables F1 (e_i in the first slot) and F2 (in the
    second), indexed by flat (Z/n)^r pairs, satisfy

        Delta_J(e_i) = sum q^F1[b][c] e_i B_b x B_c + q^F2[b][c] B_b x e_i B_c,

    and they are held as their linear data only: F1 does not read b, so
    it is the one row, F1[b][c] = row[c], and F2 is linear in b, so it is
    the r step rows, F2[b][c] = sum_k b_k steps[k][c] mod m with b_k in
    [0, n).  Each entry of row and of steps is indexed by a flat (Z/n)^r
    index c.

    Proof.  With Delta(e_i) = e_i x K_i + 1 x e_i and 1_z e_i = e_i 1_(z - d_i)
    (test_shift_identity_moves_e_past_idempotent), conjugation by the
    diagonal twist gives

        Delta_J(e_i) = sum_(z,y) q^G1(z,y) e_i 1_z x 1_y + q^G2(z,y) 1_z x e_i 1_y,
        G1(z, y) = E(z + d_i, y) - E(z, y) + (C y)_i = s_i(y) + (C y)_i,
        G2(z, y) = E(z, y + d_i) - E(z, y) = sum_k z_k (s_k(y + d_i) - s_k(y)),

    using E(z, y) = sum_k z_k s_k(y).  Both depend on (z, y) only through
    (z mod n, y mod n), by the premises TwistJ certifies: moving y by n d_j
    changes G1 by -n a_ij + n a_ij = 0 (premise 3), and G2 by
    sum_k z_k (-n a_kj + n a_kj) = 0 (premise 3 at y + d_i and at y);
    moving z by n d_k changes G2 by n (s_k(y + d_i) - s_k(y)), which is
    0 mod m since n divides every s_k (premise 2).  G1 does not read z.
    So G1 and G2 are the pullbacks of their values at the representatives
    z, y in [0, n)^r, and summing 1_z over each coset gives B.  Those
    values are F1[b][c] = G1(b, c), the row, and F2[b][c] = G2(b, c) =
    sum_k b_k steps[k][c] with steps[k][c] = s_k(c + d_i) - s_k(c) mod m,
    each a multiple of n (premise 2): n^r cells per row, read off the
    step rows of J.
    """
    A = hopf.algebra
    m, n, r = A.m, A.n, A.rank
    coarse = coord_table(n, r)
    # fine flat indices of the representatives; c + d_i stays below m in coordinate i
    lift = [flat_index(c, m) for c in coarse]
    up = m ** (r - 1 - i)
    cart_i, s_i = A.datum.cartan_matrix[i], J.rows[i]
    g1 = [(s_i[y] + sum(a * cj for a, cj in zip(cart_i, c))) % m for y, c in zip(lift, coarse)]
    return g1, [[(row[y + up] - row[y]) % m for y in lift] for row in J.rows]


def membership_in_subalgebra_tensor(X: Element, sub) -> tuple | None:
    """None if every support pair lies in (subalgebra basis)^2."""
    for key in X.terms:
        for mono in key:
            if not sub.contains_monomial(mono):
                return key
    return None
