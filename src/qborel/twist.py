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

aggregate the fine ones; the defining property B_beta g_i^n =
q^(n beta_i) B_beta is verified at construction, not assumed.  Both
kinds of idempotent, and every expansion of a diagonal element into the
group basis, come from algebra.character_transform.
"""

from __future__ import annotations

import functools
import itertools

from .algebra import (
    Element,
    LetterExtension,
    Monomial,
    cartan_terms,
    character_transform,
    tensor_multiply,
)
from .borel import HopfData
from .cyclotomic import CycScalar


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


# -- scalars and idempotents ------------------------------------------


def c_scalar(hopf: HopfData, z: int, y: int) -> CycScalar:
    """q^(-z(y - y')) with y' = y mod n lifted to [0, n)."""
    A = hopf.algebra
    z %= A.m
    y %= A.m
    return A.field.zeta_pow(-z * (y - y % A.n))


def _idempotent(hopf: HopfData, z, step: int) -> Element:
    """The sign -1 character transform of the indicator of z in (Z/size)^r.

    Its cell at a, size^(-r) q^(-step z.a), is cell z.a of the 1-D
    transform of size^(1-r) times the indicator of 1, so one row gives all.
    """
    A = hopf.algebra
    if len(z) != A.rank:
        raise ValueError(f"index {tuple(z)} must have {A.rank} entries")
    size = A.m // step
    one = {(1,): A.field.one / size ** (A.rank - 1)}
    row = character_transform(A.field, one, -1, step)
    zero_pbw = (0,) * A.nroots
    return Element(A, {
        Monomial(tuple(step * ai for ai in a), zero_pbw):
            row[(sum(ai * zi for ai, zi in zip(a, z)) % size,)]
        for a in coord_table(size, A.rank)
    })


def primitive_idempotent(hopf: HopfData, z) -> Element:
    """1_z for a residue vector z in (Z/m)^r."""
    return _idempotent(hopf, z, 1)


def bold_idempotent(hopf: HopfData, beta) -> Element:
    """Coarse idempotent for beta in (Z/n)^r, the sum of 1_z over z = beta (mod n).

    Built as the coarse character sum; the eigenvector equation against
    every g_i^n is verified exactly (ArithmeticError otherwise).
    """
    A = hopf.algebra
    n = A.n
    out = _idempotent(hopf, beta, n)
    for i in range(A.rank):
        exps = [0] * A.rank
        exps[i] = n
        gn = A.monomial_element(tuple(exps), (0,) * A.nroots)
        if out * gn != out.scale(A.field.zeta_pow(n * beta[i])):
            raise ArithmeticError("coarse idempotent fails its eigenvector equation "
                                  f"against g_{i + 1}^n at beta = {tuple(beta)}")
    return out


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
    """The twist, held diagonally; tensor expansions exist at rank 1.

    exponents[z][y] is the exact q-exponent of the coefficient of
    1_z x 1_y; the inverse twist negates it.  The tensor expansions and the
    twisted images of the generators are computed once and cached, so the
    exponent table must not change after construction.  delta is the
    twisted coproduct Delta_J, the multiplicative map that fixes every
    grouplike and sends e_i to twisted_generator_image(hopf, J, i).
    """

    def __init__(self, hopf: HopfData):
        self.hopf = hopf
        self.exponents = twist_exponent_table(hopf)
        # counit normalization: both border rows vanish identically
        if any(self.exponents[0]):
            raise ArithmeticError("(eps x id)(J) must be 1")
        if any(row[0] for row in self.exponents):
            raise ArithmeticError("(id x eps)(J) must be 1")
        self._tensor = None
        self._inverse = None
        self._bold = {}
        A = hopf.algebra
        self.delta = LetterExtension(A, A.tensor_power(2), hopf.grouplike_tensor,
                                     lambda i: twisted_generator_image(hopf, self, i))

    def coefficient(self, z, y) -> CycScalar:
        A = self.hopf.algebra
        zf = flat_index(z if not isinstance(z, int) else (z,), A.m)
        yf = flat_index(y if not isinstance(y, int) else (y,), A.m)
        return A.field.zeta_pow(self.exponents[zf][yf])

    def tensor(self) -> Element:
        if self._tensor is None:
            self._tensor = diagonal_pair_tensor(self.hopf, self.exponents)
        return self._tensor

    def inverse_tensor(self) -> Element:
        if self._inverse is None:
            m = self.hopf.algebra.m
            self._inverse = diagonal_pair_tensor(
                self.hopf, [[-e % m for e in row] for row in self.exponents])
        return self._inverse


def build_twist(hopf: HopfData) -> TwistJ:
    return TwistJ(hopf)


def diagonal_tensor(hopf: HopfData, expo, step: int = 1) -> Element:
    """Expand sum q^expo[s_1]..[s_k] (P_s1 x .. x P_sk) into the group basis.

    step=1 uses the fine idempotents over (Z/m)^r; step=n uses the coarse
    ones over (Z/n)^r (each level of the nested table expo then has length
    n^r and the group support lies on multiples of n).  Indices are flat
    residue vectors.
    """
    A = hopf.algebra
    if step not in (1, A.n):
        raise ValueError(f"step must be 1 or n = {A.n}, got {step}")
    size = A.m // step
    coords = coord_table(size, A.rank)
    cells = {}
    for idx, e in grid_cells(expo, size**A.rank):
        cells[tuple(a for i in idx for a in coords[i])] = A.field.zeta_pow(e)
    grid = character_transform(A.field, cells, -1, step)
    return Element(A.tensor_power(table_depth(expo)), cartan_terms(A, grid, step))


def diagonal_pair_tensor(hopf: HopfData, expo, step: int = 1,
                          left_word: Element | None = None,
                          right_word: Element | None = None) -> Element:
    """diagonal_tensor of a square exponent table, slots then multiplied on
    the left by the optional word Elements."""
    if table_depth(expo) != 2:
        raise ValueError(f"pair exponent table must be square, got depth {table_depth(expo)}")
    out = diagonal_tensor(hopf, expo, step)
    if left_word is not None or right_word is not None:
        A = hopf.algebra
        lw = left_word if left_word is not None else A.one
        rw = right_word if right_word is not None else A.one
        out = tensor_multiply(A.tensor_of_elements(lw, rw), out)
    return out


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
    1_z e_i = e_i 1_(z - d_i), asserted exactly in the tests.
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

    Computed once per generator and cached on J.
    """
    got = J._bold.get(i)
    if got is not None:
        return got
    A = hopf.algebra
    m, n, r = A.m, A.n, A.rank
    families = twisted_generator_fine(hopf, J, i)
    bad = fine_membership_counterexample(hopf, families)
    if bad is not None:
        raise ArithmeticError(f"twisted generator image leaves the subalgebra: {bad}")
    # fine indices of the representatives in [0, n)^r, in coarse flat order
    idx = [flat_index(b, m) for b in coord_table(n, r)]
    got = {pat: [[arr[b][c] for c in idx] for b in idx] for pat, arr in families.items()}
    J._bold[i] = got
    return got


def twisted_generator_image(hopf: HopfData, J: TwistJ, i: int) -> Element:
    """Delta_J(e_i) as a tensor, expanded from its coarse exponent tables.

    Materializing the image is cheap at rank 1 and still exact (though
    larger) at rank 2, where the coarse expansion is used.
    """
    A = hopf.algebra
    e = A.generator_e(i)
    out = A.tensor({}, 2)
    for (w1, w2), arr in twisted_generator_bold(hopf, J, i).items():
        lw = e if any(w1) else None
        rw = e if any(w2) else None
        out = out + diagonal_pair_tensor(hopf, arr, step=A.n, left_word=lw, right_word=rw)
    return out


def twisted_coproduct(hopf: HopfData, J: TwistJ, x: Element) -> Element:
    """Delta_J(x) through the cached multiplicative map J.delta."""
    return J.delta(x)


def membership_in_subalgebra_tensor(X: Element, sub) -> tuple | None:
    """None if every support pair lies in (subalgebra basis)^2."""
    for key in X.terms:
        for mono in key:
            if not sub.contains_monomial(mono):
                return key
    return None
