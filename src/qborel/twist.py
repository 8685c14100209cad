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
as exact integer congruences on exponent arrays, never floats.

The coarse idempotents

    B_beta = sum over z = beta (mod n) of 1_z,     beta in (Z/n)^r,

aggregate the fine ones; the defining property B_beta g_i^n =
q^(n beta_i) B_beta is verified at construction, not assumed.  Both
kinds of idempotent, and every expansion of a diagonal element into the
group basis, come from algebra.character_transform.
"""

from __future__ import annotations

import functools

import numpy as np

from .algebra import (
    Element,
    Monomial,
    TensorElement,
    cartan_terms,
    character_transform,
    tensor_multiply,
)
from .borel import HopfData
from .cyclotomic import CycScalar


# -- index tables ------------------------------------------------------


@functools.cache
def coord_table(size: int, r: int) -> np.ndarray:
    """(size^r, r) array listing residue vectors in row-major order."""
    out = np.zeros((size**r, r), dtype=np.int64)
    for flat in range(size**r):
        x = flat
        for j in range(r - 1, -1, -1):
            out[flat, j] = x % size
            x //= size
    return out


@functools.cache
def add_table(size: int, r: int) -> np.ndarray:
    """Flat index of the coordinatewise sum mod size."""
    coords = coord_table(size, r)
    L = size**r
    weights = np.array([size ** (r - 1 - j) for j in range(r)], dtype=np.int64)
    summed = (coords[:, None, :] + coords[None, :, :]) % size
    return (summed @ weights).astype(np.int64).reshape(L, L)


def flat_index(vec, size: int) -> int:
    out = 0
    for v in vec:
        out = out * size + (v % size)
    return out


# -- scalars and idempotents ------------------------------------------


def c_scalar(hopf: HopfData, z: int, y: int) -> CycScalar:
    """q^(-z(y - y')) with y' = y mod n lifted to [0, n)."""
    A = hopf.algebra
    z %= A.m
    y %= A.m
    return A.field.zeta_pow(-z * (y - y % A.n))


def _idempotent(hopf: HopfData, z, step: int) -> Element:
    """The sign -1 character transform of the indicator of z in (Z/size)^r."""
    A = hopf.algebra
    if len(z) != A.rank:
        raise ValueError(f"index {tuple(z)} must have {A.rank} entries")
    size = A.m // step
    grid = np.full((size,) * A.rank, A.field.zero, dtype=object)
    grid[tuple(zi % size for zi in z)] = A.field.one
    terms = cartan_terms(A, character_transform(A.field, grid, -1, step), step)
    return Element(A, {mono: c for (mono,), c in terms.items()})


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


def twist_exponent_table(hopf: HopfData) -> np.ndarray:
    """E[z, y] with J = sum q^E[z,y] 1_z x 1_y, flat indices over (Z/m)^r."""
    A = hopf.algebra
    m, n, r = A.m, A.n, A.rank
    coords = coord_table(m, r)
    cart = np.array(A.datum.cartan_matrix, dtype=np.int64)
    defect = coords - coords % n  # y_j - y_j'
    E = -(coords @ cart @ defect.T)
    return E % m


class TwistJ:
    """The twist, held diagonally; tensor expansions exist at rank 1.

    exponents[z, y] is the exact q-exponent of the coefficient of
    1_z x 1_y; the inverse twist negates it.
    """

    def __init__(self, hopf: HopfData):
        self.hopf = hopf
        self.exponents = twist_exponent_table(hopf)
        # counit normalization: both border rows vanish identically
        if self.exponents[0, :].any():
            raise ArithmeticError("(eps x id)(J) must be 1")
        if self.exponents[:, 0].any():
            raise ArithmeticError("(id x eps)(J) must be 1")
        self._tensor = None
        self._inverse = None

    def coefficient(self, z, y) -> CycScalar:
        A = self.hopf.algebra
        zf = flat_index(z if not isinstance(z, int) else (z,), A.m)
        yf = flat_index(y if not isinstance(y, int) else (y,), A.m)
        return A.field.zeta_pow(int(self.exponents[zf, yf]))

    def tensor(self) -> TensorElement:
        if self._tensor is None:
            self._tensor = diagonal_pair_tensor(self.hopf, self.exponents)
        return self._tensor

    def inverse_tensor(self) -> TensorElement:
        if self._inverse is None:
            self._inverse = diagonal_pair_tensor(self.hopf, (-self.exponents) % self.hopf.algebra.m)
        return self._inverse


def build_twist(hopf: HopfData) -> TwistJ:
    return TwistJ(hopf)


def diagonal_tensor(hopf: HopfData, expo: np.ndarray, step: int = 1) -> TensorElement:
    """Expand sum q^expo[s_1, .., s_k] (P_s1 x .. x P_sk) into the group basis.

    step=1 uses the fine idempotents over (Z/m)^r; step=n uses the coarse
    ones over (Z/n)^r (each axis of expo then has length n^r and the group
    support lies on multiples of n).  Indices are flat residue vectors.
    """
    A = hopf.algebra
    if step not in (1, A.n):
        raise ValueError(f"step must be 1 or n = {A.n}, got {step}")
    size, k = A.m // step, expo.ndim
    if expo.shape != (size**A.rank,) * k:
        raise ValueError(f"exponent grid shape {expo.shape} must be {(size**A.rank,) * k}")
    powers = np.empty(A.m, dtype=object)
    powers[:] = [A.field.zeta_pow(e) for e in range(A.m)]
    grid = character_transform(A.field, powers[expo % A.m].reshape((size,) * (A.rank * k)), -1, step)
    return TensorElement(A, k, cartan_terms(A, grid, step))


def diagonal_pair_tensor(hopf: HopfData, expo: np.ndarray, step: int = 1,
                          left_word: Element | None = None,
                          right_word: Element | None = None) -> TensorElement:
    """diagonal_tensor of a square exponent grid, slots then multiplied on
    the left by the optional word Elements."""
    if expo.ndim != 2:
        raise ValueError(f"pair exponent grid must be square, got shape {expo.shape}")
    out = diagonal_tensor(hopf, expo, step)
    if left_word is not None or right_word is not None:
        A = hopf.algebra
        lw = left_word if left_word is not None else A.one
        rw = right_word if right_word is not None else A.one
        out = tensor_multiply(A.tensor_of_elements(lw, rw), out)
    return out


# -- twisted coproduct -------------------------------------------------


class FineMixed:
    """Delta_J image of a nilpotent generator in fine-diagonal form.

    families maps a slot word pattern (tuple of pbw exponent tuples) to
    an integer exponent array F with

        term = sum_(z,y) q^F[z,y] (w_1 . 1_z) x (w_2 . 1_y).
    """

    def __init__(self, hopf: HopfData, families: dict):
        self.hopf = hopf
        self.families = families


def twisted_generator_fine(hopf: HopfData, J: TwistJ, i: int) -> FineMixed:
    """Delta_J(e_i) = J Delta(e_i) J^(-1), computed diagonally.

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
    E = J.exponents.astype(np.int64)
    ADD = add_table(m, r)
    coords = coord_table(m, r)
    cart = np.array(A.datum.cartan_matrix, dtype=np.int64)
    di = [0] * r
    di[i] = 1
    dflat = flat_index(di, m)
    shift = ADD[:, dflat]
    ay = (coords @ cart[i]) % m  # (a y)_i per flat y
    expo1 = (E[shift, :] - E + ay[None, :]) % m
    expo2 = (E[:, shift] - E) % m
    word_e = tuple(1 if L == A.e_letters[i] else 0 for L in range(A.nroots))
    word_1 = (0,) * A.nroots
    return FineMixed(hopf, {
        (word_e, word_1): expo1,
        (word_1, word_e): expo2,
    })


def fine_membership_counterexample(hopf: HopfData, fm: FineMixed):
    """None when every family exponent is constant on cosets of n.

    Constancy mod m on each mod-n congruence class of (z, y) is exactly
    membership of the twisted image in (subalgebra x subalgebra); a
    failure returns (pattern, z, y, got, want).
    """
    A = hopf.algebra
    m, n, r = A.m, A.n, A.rank
    coords = coord_table(m, r)
    rep = ((coords % n) @ np.array([m ** (r - 1 - j) for j in range(r)], dtype=np.int64))
    # rep maps a fine flat index to the flat index of its coset representative
    for pattern, arr in fm.families.items():
        ref = arr[np.ix_(rep, rep)]
        diff = (arr - ref) % m
        if diff.any():
            z, y = map(int, np.argwhere(diff)[0])
            return (pattern, z, y, int(arr[z, y]), int(ref[z, y]))
    return None


def twisted_generator_bold(hopf: HopfData, J: TwistJ, i: int) -> dict:
    """Coarse (bold) exponent arrays of Delta_J(e_i), keyed by pattern.

    Requires the fine membership property; arrays are indexed by flat
    (Z/n)^r pairs and satisfy

        Delta_J(e_i) = sum q^F[b,c] (w_1 . B_b) x (w_2 . B_c).
    """
    A = hopf.algebra
    m, n, r = A.m, A.n, A.rank
    fm = twisted_generator_fine(hopf, J, i)
    bad = fine_membership_counterexample(hopf, fm)
    if bad is not None:
        raise ArithmeticError(f"twisted generator image leaves the subalgebra: {bad}")
    fine_coords = coord_table(m, r)
    mask = (fine_coords < n).all(axis=1)
    idx = np.nonzero(mask)[0]
    # order the representatives by their coarse flat index
    weights = np.array([n ** (r - 1 - j) for j in range(r)], dtype=np.int64)
    order = np.argsort(fine_coords[idx] @ weights, kind="stable")
    idx = idx[order]
    return {pat: arr[np.ix_(idx, idx)] for pat, arr in fm.families.items()}


class TwistedCoproduct:
    """Delta_J as an executable multiplicative map.

    Generator images are cached as tensor elements; arbitrary elements
    are handled by extending multiplicatively over the normal form.
    Materializing images is cheap at rank 1 and still exact (though
    larger) at rank 2, where the coarse expansion is used.
    """

    def __init__(self, hopf: HopfData, J: TwistJ):
        self.hopf = hopf
        self.J = J
        self._letter_images = {}
        self._letter_powers = {}
        self._mono_cache = {}

    def _letter_image(self, letter: int) -> TensorElement:
        got = self._letter_images.get(letter)
        if got is None:
            A = self.hopf.algebra
            if letter in A.e_letters:
                got = self._expand_generator(A.e_letters.index(letter))
            else:
                # composite root e_12 = e_1 e_2 - q^(-1) e_2 e_1; its image
                # follows because Delta_J is an algebra map
                qi = A.field.zeta_pow(-1)
                c0, c2 = self._letter_image(0), self._letter_image(2)
                got = tensor_multiply(c0, c2) - tensor_multiply(c2, c0).scale(qi)
            self._letter_images[letter] = got
        return got

    def _expand_generator(self, i: int) -> TensorElement:
        A = self.hopf.algebra
        e = A.generator_e(i)
        bold = twisted_generator_bold(self.hopf, self.J, i)
        out = A.tensor({}, 2)
        for (w1, w2), arr in bold.items():
            lw = e if any(w1) else None
            rw = e if any(w2) else None
            out = out + diagonal_pair_tensor(self.hopf, arr % A.m, step=A.n,
                                              left_word=lw, right_word=rw)
        return out

    def _letter_power(self, letter: int, b: int) -> TensorElement:
        A = self.hopf.algebra
        key = (letter, b)
        got = self._letter_powers.get(key)
        if got is None:
            if b == 0:
                got = A.unit_tensor(2)
            else:
                got = tensor_multiply(self._letter_power(letter, b - 1), self._letter_image(letter))
            self._letter_powers[key] = got
        return got

    def of_monomial(self, mono: Monomial) -> TensorElement:
        got = self._mono_cache.get(mono)
        if got is not None:
            return got
        A = self.hopf.algebra
        gpart = Monomial(mono.group, (0,) * A.nroots)
        out = A.tensor({(gpart, gpart): A.field.one}, 2)
        for letter, b in enumerate(mono.pbw):
            if b:
                out = tensor_multiply(out, self._letter_power(letter, b))
        self._mono_cache[mono] = out
        return out

    def __call__(self, x: Element) -> TensorElement:
        A = self.hopf.algebra
        out = A.tensor({}, 2)
        for mono, c in x.terms.items():
            out = out + self.of_monomial(mono).scale(c)
        return out


def twisted_coproduct(hopf: HopfData, J: TwistJ, x: Element) -> TensorElement:
    """Delta_J(x) through the cached multiplicative map attached to J."""
    dj = getattr(J, "_delta_map", None)
    if dj is None:
        dj = TwistedCoproduct(hopf, J)
        J._delta_map = dj
    return dj(x)


def twisted_coproduct_direct(hopf: HopfData, J: TwistJ, x: Element) -> TensorElement:
    """The definitional route J Delta(x) J^(-1) via tensor arithmetic.

    Rank 1 only (the twist tensor is materialized); this is the oracle
    the cached-image route is cross-checked against.
    """
    D = hopf.coproduct(x)
    return tensor_multiply(tensor_multiply(J.tensor(), D), J.inverse_tensor())


def membership_in_subalgebra_tensor(X: TensorElement, sub) -> tuple | None:
    """None if every support pair lies in (subalgebra basis)^2."""
    for key in X.terms:
        for mono in key:
            if not sub.contains_monomial(mono):
                return key
    return None
