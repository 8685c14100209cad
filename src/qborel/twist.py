"""The diagonal twist on the quantum Borel algebra and its coproduct.

Everything here lives on the commutative group algebra C[(Z/m)^r],
m = n^2, whose primitive idempotents

    1_z = m^(-r) sum_a q^(-z.a) g^a,        1_z g_i = q^(z_i) 1_z,

diagonalize all the data.  The twist is the invertible element

    J = sum_(z,y) prod_(i,j) c(z_i, y_j)^(a_ij)  1_z x 1_y = sum_(z,y) q^E(z,y) 1_z x 1_y,
    c(z, y) = q^(-z(y - y')),   y' = y mod n lifted to [0, n),

which is diagonal in the idempotent basis.  Its exponent

    E(z, y) = -sum_ij a_ij z_i (y_j - y_j') = sum_k z_k sum_j s_kj(y_j),
    s_kj(y) = -a_kj (y - y') mod m on Z/m,

is linear in z and, for each z_k, a sum of one-coordinate functions of
y: the product over coordinate pairs that defines J.  So the twist is
held as its r^2 step tables s_kj of m entries each, never as a table
over the fine grid (Z/m)^r, let alone over the pairs (z, y); the step
row s_k(y) = E(d_k, y) is the sum sum_j s_kj(y_j), and the inverse twist
negates the tables.  E vanishes at z = 0 and, by a certified premise, at
y = 0: the counit normalization.

Twisting the coproduct, Delta_J(x) = J Delta(x) J^(-1), fixes grouplikes
and moves the images of the nilpotent generators into the subalgebra
generated by g_i^n and e_i.  That membership is equivalent, in the
idempotent picture, to the exponents of Delta_J(e_i) depending on the
idempotent indices only mod n.  twisted_generator_bold proves it from
three premises on the step rows, which building the twist certifies
table by table as exact congruences on Python ints, never floats, and
reads the coarse images off the step tables at the coset
representatives.  They split by coordinate like J: for e_i in the first
slot, r rows f_ij on Z/n whose sum over j is the exponent, and for e_i
in the second, r step rows t_k on Z/n, each read at coordinate i only.

The coarse idempotents

    B_beta = sum over z = beta (mod n) of 1_z,     beta in (Z/n)^r,

aggregate the fine ones, and B_beta g_i^n = q^(n beta_i) B_beta.  No
idempotent is formed here: the twist, the associator and Delta_J(e_i)
are held as tables per coordinate or coordinate pair, only the linear
data that fixes each, and no table over pairs of coarse cells is
formed either: the addition table of (Z/n)^r belongs to the tests'
whole-grid references (add_table in tests/oracles.py).  The tests
expand the data into the group basis from the definitions above
(tests/oracles.py) and assert the idempotent facts there;
test_bold_idempotent_a1n3 and test_bold_idempotent_a2_spot assert the
eigenvalue of g_i^n on B_beta.
"""

from __future__ import annotations

import functools
import heapq
import itertools

from .algebra import Element
from .borel import HopfData


# -- index tables ------------------------------------------------------


@functools.cache
def coord_table(size: int, r: int) -> tuple:
    """The residue vectors of (Z/size)^r in row-major (flat index) order."""
    return tuple(itertools.product(range(size), repeat=r))


def axis_cells(size: int, r: int, k: int):
    """(j, x) for the cells (x_1 d_j, .., x_k d_j) of ((Z/size)^r)^k, x in [0, size)^k,
    one at a time in row-major order of their flat indices."""
    axes = (zip(itertools.repeat(j), itertools.product(range(size), repeat=k)) for j in range(r))
    return heapq.merge(*axes, key=lambda jx: [t * size ** (r - 1 - jx[0]) for t in jx[1]])


def flat_index(vec, size: int) -> int:
    out = 0
    for v in vec:
        out = out * size + (v % size)
    return out


# -- the twist ---------------------------------------------------------


def step_tables(hopf: HopfData) -> list:
    """s_kj(y) = -a_kj (y - y') mod m for each pair (k, j), over y in Z/m."""
    A = hopf.algebra
    m, n = A.m, A.n
    return [[[-a * (y - y % n) % m for y in range(m)] for a in row] for row in A.datum.cartan_matrix]


class TwistJ:
    """The twist, held as its r^2 step tables and nothing else.

    tables[k][j][y] = s_kj(y), y in Z/m, and s_k(y) = sum_j s_kj(y_j) is
    the q-exponent of J at (d_k, y) for a fine vector y.  The exponent
    E(z, y) = sum_k z_k s_k(y) is linear in z by construction, so the
    tables fix J, and the inverse twist negates them.  Building the twist
    certifies three premises on every cell (k, j, y) of every table, r^2 m
    cells in all, and raises ArithmeticError naming the first cell that
    fails one, with its fine cell y d_j:

    1. s_kj(y) = 0 whenever y < n;
    2. s_kj(y) = 0 mod n;
    3. s_kj(y + n) - s_kj(y) = -n a_kj mod m, y + n taken in Z/m.

    Summed over j they are the premises on the step rows s_k that
    twisted_generator_bold and coboundary_matches_associator rest on:
    s_k(y) = 0 whenever every y_j < n; s_k(y) = 0 mod n; and
    s_k(y + n d_j) - s_k(y) = -n a_kj mod m, since moving y by n d_j moves
    the one term s_kj(y_j).  The converse fails: adding c to s_k0 and -c
    to s_k1 leaves every s_k unchanged but breaks premise 1, so the
    tables are certified, not only the rows they sum to.

    The premises are checked one after another, each over k and, for each
    k, over the fine cells y d_j in row-major order.  So when one table
    cell is wrong, the cell named is the one that the same premise, swept
    over the expanded rows s_k on all m^r fine cells, names first
    (tests/oracles.py keeps that sweep): s_k then fails the premise only
    at fine cells whose coordinate j is a y where s_kj fails it, and y d_j
    is the first of those.  Premise 1 at y = 0, and E(0, y) = 0, are the
    counit normalizations (id x eps)(J) = 1 = (eps x id)(J).  The
    group-basis expansions of J, J^(-1) and Delta_J are test oracles
    (tests/oracles.py).
    """

    def __init__(self, hopf: HopfData, tables: list):
        self.hopf = hopf
        self.tables = tables
        A = hopf.algebra
        m, n, r = A.m, A.n, A.rank
        # each table cell (k, j, y), in row-major order of the fine cells y d_j for each k
        sweep = [(k, j, y, tables[k][j]) for k in range(r) for j, (y,) in axis_cells(m, r, 1)]

        def fail(k, j, y, claim):
            cell = tuple(y if t == j else 0 for t in range(r))
            raise ArithmeticError(f"twist step table ({k}, {j}) fails at the fine cell y = {cell}: {claim}")

        for k, j, y, s in sweep:
            if y < n and s[y] % m:
                fail(k, j, y, f"s_{k}{j}({y}) = {s[y]}, but s_{k}{j} vanishes below n")
        for k, j, y, s in sweep:
            if s[y] % n:
                fail(k, j, y, f"s_{k}{j}({y}) = {s[y]} is not a multiple of n = {n}")
        for k, j, y, s in sweep:
            step, want = (s[(y + n) % m] - s[y]) % m, -n * A.datum.cartan_matrix[k][j] % m
            if step != want:
                fail(k, j, y, f"s_{k}{j}({y} + n) - s_{k}{j}({y}) = {step}, want -n a_{k}{j} = {want} mod m")

    def exponent(self, z, y) -> int:
        """E(z, y) = sum_k z_k sum_j s_kj(y_j) mod m, for fine vectors z and y."""
        m = self.hopf.algebra.m
        return sum(zk * s[yj % m] for zk, row in zip(z, self.tables) for s, yj in zip(row, y)) % m


def build_twist(hopf: HopfData) -> TwistJ:
    return TwistJ(hopf, step_tables(hopf))


# -- twisted coproduct -------------------------------------------------


def twisted_generator_bold(hopf: HopfData, J: TwistJ, i: int) -> tuple:
    """Delta_J(e_i) as (f, t): its linear data per coordinate, on Z/n.

    The coarse exponent tables F1 (e_i in the first slot) and F2 (in the
    second), indexed by (Z/n)^r pairs, satisfy

        Delta_J(e_i) = sum q^F1[b][c] e_i B_b x B_c + q^F2[b][c] B_b x e_i B_c,

    and they are held as their linear data only, one n-entry row per
    coordinate: F1 does not read b and is a sum over the coordinates of
    c, F1[b][c] = sum_j f[j][c_j], and F2 is linear in b and reads c_i
    only, F2[b][c] = sum_k b_k t[k][c_i] mod m with b_k in [0, n).  That
    is 2 r n entries.

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
    z, y in [0, n)^r, and summing 1_z over each coset gives B.  There,
    with s_k(y) = sum_j s_kj(y_j), F1[b][c] = G1(b, c) = sum_j f[j][c_j]
    with f[j][x] = s_ij(x) + a_ij x, and F2[b][c] = G2(b, c) =
    sum_k b_k t[k][c_i] with t[k][x] = s_ki(x + 1) - s_ki(x) mod m, since
    only coordinate i of c moves; n divides every t[k][x] (premise 2).
    Both are read off the step tables of J on x in [0, n).
    """
    A = hopf.algebra
    m, n = A.m, A.n
    # x + 1 stays below m
    f = [[(s[x] + a * x) % m for x in range(n)] for s, a in zip(J.tables[i], A.datum.cartan_matrix[i])]
    return f, [[(row[i][x + 1] - row[i][x]) % m for x in range(n)] for row in J.tables]


def membership_in_subalgebra_tensor(X: Element, sub) -> tuple | None:
    """None if every support pair lies in (subalgebra basis)^2."""
    for key in X.terms:
        for mono in key:
            if not sub.contains_monomial(mono):
                return key
    return None
