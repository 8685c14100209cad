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

    P(b, c, d) = sum_ij a_ij b_i ((c_j + d_j)' - c_j - d_j),

supported on the coarse idempotents B with all coefficients powers of
q^n.  Equality is checked cell by cell on the fine grid as integer
congruences mod m, and additionally as full cyclotomic tensor
arithmetic at rank 1, n = 3.

Pentagon and quasi-coassociativity are checked the same two ways: the
coarse exponent calculus turns both into additive identities between
integer arrays (exact, fast at every scale), while the generic route
multiplies out honest tensor elements with no shortcuts.
"""

from __future__ import annotations

import numpy as np

from .algebra import Element, TensorElement, apply_on_slot, invert_tensor, tensor_multiply
from .borel import HopfData
from .twist import (
    TwistJ,
    add_table,
    coord_table,
    diagonal_tensor,
    flat_index,
    twisted_coproduct,
    twisted_generator_bold,
)


# -- closed form -------------------------------------------------------


def associator_exponent_table(hopf: HopfData) -> np.ndarray:
    """P[b, c, d] over flat (Z/n)^r indices, values mod m."""
    A = hopf.algebra
    n, m, r = A.n, A.m, A.rank
    L = n**r
    coords = coord_table(n, r)
    cart = np.array(A.datum.cartan_matrix, dtype=np.int64)
    # defect vector of (c + d): (c_j + d_j)' - c_j - d_j is 0 or -n per coord
    summed = coords[:, None, :] + coords[None, :, :]
    defect = summed % n - summed  # (L, L, r), entries 0 or -n
    P = np.einsum("bi,ij,cdj->bcd", coords, cart, defect)
    return P % m


class Associator:
    """The associator held as a coarse diagonal exponent table.

    table[b, c, d] is the exponent of q on B_b x B_c x B_d; every entry
    is a multiple of n (checked), so all coefficients are powers of q^n.
    Border normalization (any index 0 gives exponent 0) is also checked;
    a table failing either check raises ValueError.
    """

    def __init__(self, hopf: HopfData, table: np.ndarray):
        self.hopf = hopf
        self.table = table
        A = hopf.algebra
        self.L = A.n**A.rank
        if table.shape != (self.L,) * 3:
            raise ValueError(f"associator table shape {table.shape} must be {(self.L,) * 3}")
        if (table % A.n).any():
            raise ValueError("associator coefficients must be powers of q^n")
        if table[0].any() or table[:, 0].any() or table[:, :, 0].any():
            raise ValueError("associator must be counit-normalized")
        self._tensor = None

    @property
    def term_count(self) -> int:
        return self.L**3

    def coefficient(self, b, c, d):
        A = self.hopf.algebra
        idx = tuple(flat_index((v,) if isinstance(v, int) else v, A.n) for v in (b, c, d))
        return A.field.zeta_pow(int(self.table[idx]))

    def to_tensor(self) -> TensorElement:
        """Full expansion in the group basis; rank 1 only (it is small there)."""
        A = self.hopf.algebra
        if A.rank != 1:
            raise RuntimeError("associator expansion is materialized only at rank 1; "
                               "use the coarse table at rank 2")
        if self._tensor is None:
            self._tensor = diagonal_tensor(self.hopf, self.table, step=A.n)
        return self._tensor

    def inverse_tensor(self) -> TensorElement:
        return invert_tensor(self.to_tensor())


def closed_form_associator(hopf: HopfData) -> Associator:
    return Associator(hopf, associator_exponent_table(hopf))


# -- coboundary of the twist -------------------------------------------


def coboundary_exponent(hopf: HopfData, J: TwistJ, z, u, v) -> int:
    """EdJ(z, u, v) on fine flat indices, mod m."""
    A = hopf.algebra
    E = J.exponents
    ADD = add_table(A.m, A.rank)
    val = E[u, v] + E[z, ADD[u, v]] - E[ADD[z, u], v] - E[z, u]
    return int(val) % A.m


def twist_coboundary_tensor(hopf: HopfData, J: TwistJ) -> TensorElement:
    """dJ multiplied out as an honest arity-3 tensor; rank 1 scale."""
    A = hopf.algebra
    one = A.one
    Jt = J.tensor()
    j23 = _tensor_pad(Jt, left=one)
    idD = apply_on_slot(hopf.coproduct, Jt, 1)
    Did = apply_on_slot(hopf.coproduct, Jt, 0)
    j12 = _tensor_pad(Jt, right=one)
    num = tensor_multiply(j23, idD)
    den = tensor_multiply(Did, j12)
    return tensor_multiply(num, invert_tensor(den))


def coboundary_matches_associator(hopf: HopfData, J: TwistJ, assoc: Associator):
    """Cellwise comparison of dJ with the pullback of the closed form.

    Sweeps the entire fine grid in z-chunks with exact integer
    congruences mod m; returns None on success, else a dict naming the
    first offending fine cell and both exponents.
    """
    A = hopf.algebra
    m, n, r = A.m, A.n, A.rank
    L = m**r
    E = J.exponents
    ADD = add_table(m, r)
    fine = coord_table(m, r)
    nw = np.array([n ** (r - 1 - j) for j in range(r)], dtype=np.int64)
    red = (fine % n) @ nw  # fine flat -> coarse flat
    P = assoc.table
    for z in range(L):
        term2 = E[z][ADD]          # E(z, u + v)
        term3 = E[ADD[z], :]       # E(z + u, v)
        term4 = E[z][:, None]      # E(z, u)
        edj = (E + term2 - term3 - term4) % m
        pulled = P[red[z]][red[:, None], red[None, :]]
        diff = (edj - pulled) % m
        if diff.any():
            u, v = map(int, np.argwhere(diff)[0])
            return {
                "z": tuple(int(t) for t in fine[z]),
                "u": tuple(int(t) for t in fine[u]),
                "v": tuple(int(t) for t in fine[v]),
                "coboundary_exponent": int(edj[u, v]),
                "associator_exponent": int(pulled[u, v]),
            }
    return None


# -- pentagon ----------------------------------------------------------


def pentagon_check(hopf: HopfData, assoc: Associator, J: TwistJ | None = None):
    """(1 x Phi)(id x Delta x id)(Phi)(Phi x 1) = (id x id x Delta)(Phi)(Delta x id x id)(Phi).

    The coarse route rewrites both sides as sums of exponent arrays over
    the fourfold (Z/n)^r grid.  When J is supplied and the scale is
    small, the identity is additionally multiplied out with full tensor
    arithmetic using the twisted coproduct itself on the slots; a failure
    there names the first differing tensor key and both coefficients.
    """
    A = hopf.algebra
    n, m, r = A.n, A.m, A.rank
    L = n**r
    P = assoc.table
    ADDb = add_table(n, r)
    a, b, c, d = np.indices((L, L, L, L))
    lhs = (P[b, c, d] + P[a, ADDb[b, c], d] + P[a, b, c]) % m
    rhs = (P[a, b, ADDb[c, d]] + P[ADDb[a, b], c, d]) % m
    diff = (lhs - rhs) % m
    if diff.any():
        i = tuple(int(t) for t in np.argwhere(diff)[0])
        return {"cell": i, "lhs": int(lhs[i]), "rhs": int(rhs[i])}
    if J is not None and r == 1 and n == 3:
        Phi = assoc.to_tensor()
        dj = lambda x: twisted_coproduct(hopf, J, x)
        one = A.one
        lhs_t = tensor_multiply(
            tensor_multiply(_tensor_pad(Phi, left=one), apply_on_slot(dj, Phi, 1)),
            _tensor_pad(Phi, right=one),
        )
        rhs_t = tensor_multiply(apply_on_slot(dj, Phi, 2), apply_on_slot(dj, Phi, 0))
        if lhs_t != rhs_t:
            return {"cell": "tensor route", **_first_difference(lhs_t, rhs_t)}
    return None


def _first_difference(lhs: TensorElement, rhs: TensorElement) -> dict:
    """The first differing tensor key in sorted order and its coefficient on each side."""
    key = min((lhs - rhs).terms)
    return {"key": key, "lhs": lhs.coefficient(key), "rhs": rhs.coefficient(key)}


def _tensor_pad(X: TensorElement, left: Element | None = None, right: Element | None = None):
    """1 x X or X x 1 as a tensor of one higher arity (pad must be a monomial)."""
    A = X.algebra
    pad = left if left is not None else right
    (pk, pc), = pad.terms.items()
    terms = {}
    for key, val in X.terms.items():
        newkey = (pk,) + key if left is not None else key + (pk,)
        terms[newkey] = val * pc
    return TensorElement(A, X.arity + 1, terms)


# -- quasi-coassociativity ---------------------------------------------


def _word_weight_bold(A, word):
    """Weight vector of a pbw word, reduced mod n, as a flat coarse index."""
    n, r = A.n, A.rank
    wt = [0] * r
    for letter, mult in enumerate(word):
        if mult:
            for j in range(r):
                wt[j] += mult * A.weights[letter][j]
    out = 0
    for w in wt:
        out = out * n + w % n
    return out


def _bold_slot_coproduct(hopf: HopfData, families: dict, slot: int, gen_bold: dict) -> dict:
    """Apply the twisted coproduct to one slot of a coarse family sum.

    Empty slot words split the idempotent index along coarse addition;
    a single-generator word additionally contributes the two coarse
    exponent arrays of its twisted image.  Other words never occur in
    the identities checked here.
    """
    A = hopf.algebra
    n, r = A.n, A.rank
    L = n**r
    ADDb = add_table(n, r)
    out = {}

    def put(pattern, arr):
        if pattern in out:
            raise ArithmeticError(f"family patterns must stay disjoint: {pattern} repeats")
        out[pattern] = arr % A.m

    for pattern, arr in families.items():
        word = pattern[slot]
        k = len(pattern)
        shape = arr.shape
        split = np.take(arr, ADDb.ravel(), axis=slot)
        split = split.reshape(shape[:slot] + (L, L) + shape[slot + 1 :])
        if not any(word):
            put(pattern[:slot] + (word, word) + pattern[slot + 1 :], split)
            continue
        letters = [letter for letter, mult in enumerate(word) if mult]
        if len(letters) != 1 or word[letters[0]] != 1 or letters[0] not in A.e_letters:
            raise ValueError(f"slot coproduct supports only a single plain generator letter, "
                             f"not the word {word}")
        left_arr, right_arr = gen_bold[letters[0]]
        bshape = (1,) * slot + (L, L) + (1,) * (k - slot - 1)
        empty = (0,) * A.nroots
        put(pattern[:slot] + (word, empty) + pattern[slot + 1 :], split + left_arr.reshape(bshape))
        put(pattern[:slot] + (empty, word) + pattern[slot + 1 :], split + right_arr.reshape(bshape))
    return out


def _bold_add_diag(hopf: HopfData, families: dict, D: np.ndarray, side: str) -> dict:
    """Multiply a family sum by a coarse diagonal element of matching arity.

    Right multiplication only meets the idempotents already sitting at
    the right of each slot word, so it adds exponents pointwise.  Left
    multiplication first moves each idempotent past the slot word,
    shifting its index by the word weight.
    """
    A = hopf.algebra
    n, r = A.n, A.rank
    ADDb = add_table(n, r)
    out = {}
    for pattern, arr in families.items():
        if side == "right":
            out[pattern] = (arr + D) % A.m
        else:
            maps = [ADDb[:, _word_weight_bold(A, w)] for w in pattern]
            out[pattern] = (arr + D[np.ix_(*maps)]) % A.m
    return out


def _bold_delta_of(hopf: HopfData, J: TwistJ, x: Element) -> dict:
    """Coarse families of Delta_J(x) for x = 1, g_i^n, or e_i."""
    A = hopf.algebra
    n, r = A.n, A.rank
    L = n**r
    empty = (0,) * A.nroots
    if x == A.one:
        return {(empty, empty): np.zeros((L, L), dtype=np.int64)}
    monos = list(x.terms)
    if len(monos) == 1 and not any(monos[0].pbw):
        group = monos[0].group
        if any(a % n for a in group) or x.terms[monos[0]] != A.field.one:
            raise ValueError("coarse route needs a subalgebra grouplike")
        coords = coord_table(n, r)
        ex = coords @ np.array([a % A.m for a in group], dtype=np.int64)
        return {(empty, empty): (ex[:, None] + ex[None, :]) % A.m}
    for i in range(A.rank):
        if x == A.generator_e(i):
            return dict(twisted_generator_bold(hopf, J, i))
    raise ValueError("coarse route handles 1, g_i^n and e_i only")


def _families_equal(f1: dict, f2: dict, m: int):
    if set(f1) != set(f2):
        return {"patterns": (sorted(f1), sorted(f2))}
    for pattern in f1:
        diff = (f1[pattern] - f2[pattern]) % m
        if diff.any():
            i = tuple(int(t) for t in np.argwhere(diff)[0])
            return {
                "pattern": pattern,
                "cell": i,
                "lhs": int(f1[pattern][i]),
                "rhs": int(f2[pattern][i]),
            }
    return None


def quasi_coassoc_check(hopf: HopfData, J: TwistJ, assoc: Associator, x: Element):
    """(id x Delta_J)(Delta_J(x)) . Phi = Phi . (Delta_J x id)(Delta_J(x)).

    Coarse exponent calculus at every scale for x among 1, g_i^n, e_i;
    since both sides are algebra maps, passing on those generators
    settles the axiom on the whole subalgebra.  At rank 1, n = 3 the
    identity is additionally multiplied out with full tensor arithmetic,
    and that route accepts arbitrary x; a failure there names the first
    differing tensor key and both coefficients.
    """
    A = hopf.algebra
    coarse_done = False
    try:
        base = _bold_delta_of(hopf, J, x)
    except ValueError:
        base = None
    if base is not None:
        gen_bold = {}
        for i in range(A.rank):
            pair = twisted_generator_bold(hopf, J, i)
            letter = A.e_letters[i]
            empty = (0,) * A.nroots
            word = tuple(1 if k == letter else 0 for k in range(A.nroots))
            gen_bold[letter] = (pair[(word, empty)], pair[(empty, word)])
        lhs = _bold_add_diag(hopf, _bold_slot_coproduct(hopf, base, 1, gen_bold), assoc.table, "right")
        rhs = _bold_add_diag(hopf, _bold_slot_coproduct(hopf, base, 0, gen_bold), assoc.table, "left")
        bad = _families_equal(lhs, rhs, A.m)
        if bad is not None:
            return bad
        coarse_done = True
    if A.rank == 1 and A.n == 3:
        dj = lambda el: twisted_coproduct(hopf, J, el)
        X = dj(x)
        Phi = assoc.to_tensor()
        lhs_t = tensor_multiply(apply_on_slot(dj, X, 1), Phi)
        rhs_t = tensor_multiply(Phi, apply_on_slot(dj, X, 0))
        if lhs_t != rhs_t:
            return {"pattern": "tensor route", "cell": None, **_first_difference(lhs_t, rhs_t)}
    elif not coarse_done:
        raise ValueError("element is outside the coarse route and the scale is too "
                         "large for the tensor route")
    return None
