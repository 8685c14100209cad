"""Group-basis expansions of the twist and the associator, from their definitions.

The verifier holds J, Delta_J(e_i) and Phi as integer exponent tables
only.  The tests multiply the identities about them out in exact
cyclotomic arithmetic, on elements built here:

- the fine idempotent 1_z = m^(-r) sum_a q^(-z.a) g^a is the sign -1
  character transform of the indicator of z;
- the coarse idempotent is B_beta = sum over z = beta (mod n) of 1_z;
- a diagonal element sum q^T[s_1]..[s_k] P_s1 x .. x P_sk is expanded slot
  by slot, over the fine idempotents when each level of T has m^r entries
  and over the coarse ones when it has n^r.  Since sum_beta T(beta) B_beta
  = sum_z T(red z) 1_z, a coarse table expands to the fine expansion of
  its pullback (test_bold_expansion_matches_element_route_a1n3);
- J and J^(-1) are the diagonal elements of E and -E, Phi and Phi^(-1)
  those of P and -P;
- Delta_J(x) = J Delta(x) J^(-1);
- dJ = (1 x J)(id x Delta)(J)(J^(-1) x 1)(Delta x id)(J^(-1)); every
  factor is diagonal in the commutative group algebra, so none is inverted.
"""

import functools

from qborel.algebra import (
    Element, Monomial, accumulate, apply_on_slot, character_transform, tensor_multiply)
from qborel.twist import coord_table


def _transformed(hopf, zs) -> Element:
    """sum of the 1_z over zs: the sign -1 transform of the indicator of zs."""
    A = hopf.algebra
    indicator = {tuple(zi % A.m for zi in z): A.field.one for z in zs}
    cells = character_transform(A.field, indicator, -1)
    return A.element({Monomial(a, (0,) * A.nroots): c for a, c in cells.items()})


@functools.cache
def fine_idempotent(hopf, z) -> Element:
    return _transformed(hopf, [z])


@functools.cache
def coarse_idempotent(hopf, beta) -> Element:
    """B_beta = sum over z = beta (mod n) of 1_z."""
    A = hopf.algebra
    return _transformed(hopf, [z for z in coord_table(A.m, A.rank)
                               if all((zi - bi) % A.n == 0 for zi, bi in zip(z, beta))])


def diagonal_tensor(hopf, table, sign: int = 1) -> Element:
    """sum q^(sign T[s_1]..[s_k]) P_s1 x .. x P_sk for a nested-list table T of depth k >= 2."""
    A = hopf.algebra
    fine = len(table) == A.m**A.rank
    idempotent = fine_idempotent if fine else coarse_idempotent
    coords = coord_table(A.m if fine else A.n, A.rank)

    def expand(t):  # {tuple of monomials: scalar}
        if isinstance(t, int):
            return {(): A.field.zeta_pow(sign * t)}
        out = {}
        for s, sub in enumerate(t):
            inner = expand(sub).items()
            P = idempotent(hopf, coords[s]).terms.items()
            accumulate(out, (((mono,) + key, c * v) for mono, c in P for key, v in inner))
        return out

    depth, t = 0, table
    while isinstance(t, list):
        depth, t = depth + 1, t[0]
    return Element(A.tensor_power(depth), expand(table))


def pullback(hopf, table) -> list:
    """The fine table T(red z) of a coarse table T."""
    A = hopf.algebra
    coarse = coord_table(A.n, A.rank)
    red = [coarse.index(tuple(a % A.n for a in z)) for z in coord_table(A.m, A.rank)]
    pull = lambda t: t if isinstance(t, int) else [pull(t[i]) for i in red]
    return pull(table)


@functools.cache
def twist_tensor(J, sign: int = 1) -> Element:
    """J, or J^(-1) for sign -1; J.exponents must not change after the first call."""
    return diagonal_tensor(J.hopf, J.exponents, sign)


def twisted_coproduct(J, x: Element) -> Element:
    """Delta_J(x) = J Delta(x) J^(-1)."""
    conjugated = tensor_multiply(twist_tensor(J), J.hopf.coproduct(x))
    return tensor_multiply(conjugated, twist_tensor(J, -1))


def expand_families(hopf, families: dict) -> Element:
    """sum over the patterns (w_1, w_2) of (w_1 x w_2) times the diagonal element of
    their table, for the fine or coarse families of twisted_generator_fine or _bold."""
    A = hopf.algebra
    out = A.tensor({}, 2)
    for words, table in families.items():
        left = A.tensor_of_elements(*(A.monomial_element((0,) * A.rank, w) for w in words))
        out = out + tensor_multiply(left, diagonal_tensor(hopf, table))
    return out


def pad(X: Element, left: bool) -> Element:
    """1 x X (left) or X x 1, one arity higher."""
    A = X.ring.algebra
    unit = next(iter(A.one.terms))
    return A.tensor({((unit,) + k if left else k + (unit,)): c for k, c in X.terms.items()},
                    X.ring.arity + 1)


def twist_coboundary(J) -> Element:
    """dJ = (1 x J)(id x Delta)(J)(J^(-1) x 1)(Delta x id)(J^(-1))."""
    hopf, Jt, Ji = J.hopf, twist_tensor(J), twist_tensor(J, -1)
    num = tensor_multiply(pad(Jt, True), apply_on_slot(hopf.coproduct, Jt, 1))
    den_inv = tensor_multiply(pad(Ji, False), apply_on_slot(hopf.coproduct, Ji, 0))
    return tensor_multiply(num, den_inv)
