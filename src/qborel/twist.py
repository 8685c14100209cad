"""The diagonal twist on the quantum Borel algebra and its coproduct.

Everything here lives on the commutative group algebra C[(Z/m)^r],
m = n^2, whose primitive idempotents

    1_z = m^(-r) sum_a q^(-z.a) g^a,        1_z g_i = q^(z_i) 1_z,

diagonalize all the data.  The twist is the invertible element

    J = sum_(z,y) prod_(i,j) c(z_i, y_j)^(a_ij)  1_z x 1_y,
    c(z, y) = q^(-z(y - y')),   y' = y mod n lifted to [0, n),

which is diagonal in the idempotent basis, so its inverse is obtained by
negating exponents and its counit normalization is the statement that
the exponent vanishes whenever z = 0 or y = 0.

Twisting the coproduct, Delta_J(x) = J Delta(x) J^(-1), fixes grouplikes
and moves the images of the nilpotent generators into the subalgebra
generated by g_i^n and e_i.  That membership is equivalent, in the
idempotent picture, to the coefficient exponents being constant on
cosets of n.(Z/n)^r in each slot, which is how the large sweeps check it:
as exact integer congruences on exponent tables (nested lists of Python
ints), never floats.

The coarse idempotents

    B_beta = sum over z = beta (mod n) of 1_z,     beta in (Z/n)^r,

aggregate the fine ones, and B_beta g_i^n = q^(n beta_i) B_beta.  No
idempotent is formed here: the twist, Delta_J(e_i) and the associator
are held as exponent tables only.  The tests expand those tables into
the group basis from the definitions above (tests/oracles.py) and
assert the idempotent facts there; test_bold_idempotent_a1n3 and
test_bold_idempotent_a2_spot assert the eigenvalue of g_i^n on B_beta.
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


def grid_cells(table, length: int):
    """(index tuple, entry) over a nested-list table whose every level has the given length."""
    values = table_values(table, length)
    return zip(itertools.product(range(length), repeat=table_depth(table)), values)


def table_depth(table) -> int:
    """Nesting depth of a nested-list table (0 for a scalar)."""
    depth = 0
    while isinstance(table, (list, tuple)):
        depth += 1
        table = table[0] if table else 0
    return depth


# -- the twist ---------------------------------------------------------


def twist_exponent_table(hopf: HopfData) -> list:
    """E[z][y] with J = sum q^E[z][y] 1_z x 1_y, flat indices over (Z/m)^r, values mod m."""
    A = hopf.algebra
    m, n = A.m, A.n
    cart = A.datum.cartan_matrix
    coords = coord_table(m, A.rank)
    # row z is sum_i z_i steps[i] with steps[i][y] = -(C (y - y mod n))_i mod m,
    # built in row-major order by adding steps[i] as z_i counts up
    steps = [[-sum(c * (yj - yj % n) for c, yj in zip(row, y)) % m for y in coords]
             for row in cart]
    rows = [[0] * len(coords)]
    for step in steps:
        grown = []
        for row in rows:
            for _ in range(m):
                grown.append(row)
                row = [(a + c) % m for a, c in zip(row, step)]
        rows = grown
    return rows


class TwistJ:
    """The twist, held as its exponent table and nothing else.

    exponents[z][y] is the exact q-exponent of the coefficient of
    1_z x 1_y; the inverse twist negates it.  The group-basis expansions
    of J, J^(-1) and Delta_J are test oracles (tests/oracles.py).
    """

    def __init__(self, hopf: HopfData):
        self.hopf = hopf
        self.exponents = twist_exponent_table(hopf)
        # counit normalization: both border rows vanish identically
        if any(self.exponents[0]):
            raise ArithmeticError("(eps x id)(J) must be 1")
        if any(row[0] for row in self.exponents):
            raise ArithmeticError("(id x eps)(J) must be 1")


def build_twist(hopf: HopfData) -> TwistJ:
    return TwistJ(hopf)


# -- twisted coproduct -------------------------------------------------


def twisted_generator_fine(hopf: HopfData, J: TwistJ, i: int) -> dict:
    """Delta_J(e_i) = J Delta(e_i) J^(-1), computed diagonally, in fine-diagonal form.

    The result maps a slot word pattern (w_1, w_2) of pbw exponent tuples
    to an integer exponent table F with

        term = sum_(z,y) q^F[z][y] (w_1 . 1_z) x (w_2 . 1_y).

    With Delta(e_i) = e_i x K_i + 1 x e_i, conjugation by the diagonal
    twist shifts the idempotent index along the weight of e_i in the slot
    where it sits and adds the eigenvalue exponent of K_i:

        J (e_i x K_i) J^(-1) = sum q^(E[z+d_i, y] - E[z, y] + (a y)_i) e_i 1_z x 1_y
        J (1 x e_i) J^(-1)   = sum q^(E[z, y+d_i] - E[z, y]) 1_z x e_i 1_y

    where d_i is the i-th unit vector.  Both shifts follow from
    1_z e_i = e_i 1_(z - d_i), which
    test_shift_identity_moves_e_past_idempotent asserts exactly.
    """
    A = hopf.algebra
    m, r = A.m, A.rank
    E = J.exponents
    di = [0] * r
    di[i] = 1
    dflat = flat_index(di, m)
    shift = [row[dflat] for row in add_table(m, r)]
    cart_i = A.datum.cartan_matrix[i]
    ay = [sum(c * yj for c, yj in zip(cart_i, y)) % m for y in coord_table(m, r)]
    expo1 = [[(a - b + c) % m for a, b, c in zip(E[s], Ez, ay)] for s, Ez in zip(shift, E)]
    expo2 = [[(Ez[s] - e) % m for s, e in zip(shift, Ez)] for Ez in E]
    word_e = tuple(1 if L == A.e_letters[i] else 0 for L in range(A.nroots))
    word_1 = (0,) * A.nroots
    return {(word_e, word_1): expo1, (word_1, word_e): expo2}


def fine_membership_counterexample(hopf: HopfData, families: dict):
    """None when every exponent table of twisted_generator_fine is constant on cosets of n.

    Constancy mod m on each mod-n congruence class of (z, y) is exactly
    membership of the twisted image in (subalgebra x subalgebra); a
    failure returns (pattern, z, y, got, want).
    """
    A = hopf.algebra
    m, n, r = A.m, A.n, A.rank
    # rep maps a fine flat index to the flat index of its coset representative
    rep = [flat_index([a % n for a in z], m) for z in coord_table(m, r)]
    for pattern, arr in families.items():
        for z, row in enumerate(arr):
            source = arr[rep[z]]
            ref = [source[k] for k in rep]
            if row != ref:
                for y, (got, want) in enumerate(zip(row, ref)):
                    if (got - want) % m:
                        return (pattern, z, y, got, want)
    return None


def twisted_generator_bold(hopf: HopfData, J: TwistJ, i: int) -> dict:
    """Coarse (bold) exponent tables of Delta_J(e_i), keyed by pattern.

    Requires the fine membership property; tables are indexed by flat
    (Z/n)^r pairs and satisfy

        Delta_J(e_i) = sum q^F[b][c] (w_1 . B_b) x (w_2 . B_c).

    Recomputed from J.exponents at every call.
    """
    A = hopf.algebra
    m, n, r = A.m, A.n, A.rank
    families = twisted_generator_fine(hopf, J, i)
    bad = fine_membership_counterexample(hopf, families)
    if bad is not None:
        raise ArithmeticError(f"twisted generator image leaves the subalgebra: {bad}")
    # fine indices of the representatives in [0, n)^r, in coarse flat order
    idx = [flat_index(b, m) for b in coord_table(n, r)]
    return {pat: [[arr[b][c] for c in idx] for b in idx] for pat, arr in families.items()}


def membership_in_subalgebra_tensor(X: Element, sub) -> tuple | None:
    """None if every support pair lies in (subalgebra basis)^2."""
    for key in X.terms:
        for mono in key:
            if not sub.contains_monomial(mono):
                return key
    return None
