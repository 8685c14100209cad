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
q^n.  Equality on every cell of the fine grid is proved as integer
congruences mod m through the linearity of both sides in their first
slot (see coboundary_matches_associator).

Pentagon and quasi-coassociativity are proved by one route at every
scale: the coarse exponent calculus turns both into additive identities
between exponent tables of Python ints.  That calculus rests on four
group-algebra facts, which the tests assert and the verifier takes as
given:

1. the B_b are orthogonal idempotents summing to 1, and g_i^n acts on
   B_b by q^(n b_i) (test_bold_idempotent_a1n3, test_bold_idempotent_a2_spot);
2. Delta(B_b) = sum over c + d = b of B_c x B_d
   (test_coproduct_splits_bold_idempotent);
3. e_i B_b = B_(b + d_i) e_i, the coarse sum of 1_z e_i = e_i 1_(z - d_i)
   (test_shift_identity_moves_e_past_idempotent);
4. the coarse tables of twisted_generator_bold expand to J Delta(e_i) J^(-1)
   (test_twisted_coproduct_matches_direct_a1n3,
   test_bold_expansion_matches_fine_expansion_a1n5).

The tests expand J, Phi and Delta_J into the group basis from their
definitions (tests/oracles.py).  At (A1, 3) they multiply both
identities, and dJ = Phi, out as cyclotomic tensors, as oracles for the
calculus.
"""

from __future__ import annotations

import itertools

from .algebra import Element
from .borel import HopfData
from .twist import (
    TwistJ,
    add_table,
    coord_table,
    flat_index,
    grid_cells,
    table_depth,
    twisted_generator_bold,
)


# -- closed form -------------------------------------------------------


def associator_exponent_table(hopf: HopfData) -> list:
    """P[b][c][d] over flat (Z/n)^r indices, values mod m."""
    A = hopf.algebra
    n, m = A.n, A.m
    cart = A.datum.cartan_matrix
    coords = coord_table(n, A.rank)
    # (c_j + d_j)' - c_j - d_j is 0 or -n per coordinate
    defects = [[tuple((cj + dj) % n - cj - dj for cj, dj in zip(c, d)) for d in coords]
               for c in coords]
    out = []
    for b in coords:
        bc = [sum(bi * row[j] for bi, row in zip(b, cart)) for j in range(len(b))]
        out.append([[sum(x * y for x, y in zip(bc, dd)) % m for dd in row] for row in defects])
    return out


class Associator:
    """The associator held as a coarse diagonal exponent table.

    table[b][c][d] is the exponent of q on B_b x B_c x B_d; every entry
    is a multiple of n (checked), so all coefficients are powers of q^n.
    Border normalization (any index 0 gives exponent 0) is also checked;
    a table failing either check raises ValueError.
    """

    def __init__(self, hopf: HopfData, table: list):
        self.hopf = hopf
        self.table = table
        A = hopf.algebra
        self.L = A.n**A.rank
        if table_depth(table) != 3:
            raise ValueError(f"associator table must have depth 3, got {table_depth(table)}")
        cells = list(grid_cells(table, self.L))
        if any(v % A.n for _, v in cells):
            raise ValueError("associator coefficients must be powers of q^n")
        if any(v for idx, v in cells if 0 in idx):
            raise ValueError("associator must be counit-normalized")

    @property
    def term_count(self) -> int:
        return self.L**3

    def coefficient(self, b, c, d):
        A = self.hopf.algebra
        bi, ci, di = (flat_index((v,) if isinstance(v, int) else v, A.n) for v in (b, c, d))
        return A.field.zeta_pow(self.table[bi][ci][di])


def closed_form_associator(hopf: HopfData) -> Associator:
    return Associator(hopf, associator_exponent_table(hopf))


# -- coboundary of the twist -------------------------------------------


def coboundary_exponent(hopf: HopfData, J: TwistJ, z, u, v) -> int:
    """EdJ(z, u, v) on fine flat indices, mod m."""
    A = hopf.algebra
    E = J.exponents
    ADD = add_table(A.m, A.rank)
    return (E[u][v] + E[z][ADD[u][v]] - E[ADD[z][u]][v] - E[z][u]) % A.m


def _first_nonlinear_cell(table, units, coords, m):
    """First (x, y) with table[x][y] != sum_i x_i table[units[i]][y] mod m, or None.

    x runs over the flat indices of the vectors coords; the right side is
    a homomorphism of x, so None certifies that table is linear in its
    first slot.
    """
    for x, (row, vec) in enumerate(zip(table, coords)):
        want = [0] * len(row)
        for xi, unit in zip(vec, units):
            if xi:
                want = [a + xi * b for a, b in zip(want, table[unit])]
        want = [a % m for a in want]
        if row != want:
            for y, (a, b) in enumerate(zip(row, want)):
                if (a - b) % m:
                    return x, y
    return None


def _fine_maps(A):
    """(fine coordinates, fine -> coarse flat index, fine flat indices of the unit vectors)."""
    m, n, r = A.m, A.n, A.rank
    fine = coord_table(m, r)
    red = [flat_index([a % n for a in x], n) for x in fine]
    units = [flat_index([int(i == j) for j in range(r)], m) for i in range(r)]
    return fine, red, units


def _unit_sweep(hopf: HopfData, E, P):
    """First fine cell (e_i, u, v) where D_i(u, v) = E(e_i, u + v) - E(e_i, u) - E(e_i, v)
    differs from P(red e_i, red u, red v) mod m, or None."""
    A = hopf.algebra
    m = A.m
    ADD = add_table(m, A.rank)
    _, red, units = _fine_maps(A)
    for e in units:
        Ee = E[e]
        pulled = [[x % m for x in (row[k] for k in red)] for row in P[red[e]]]
        for u, add_u in enumerate(ADD):
            Eu = Ee[u]
            got, want = [(Ee[s] - Eu - x) % m for s, x in zip(add_u, Ee)], pulled[red[u]]
            if got != want:
                return e, u, next(v for v, (a, b) in enumerate(zip(got, want)) if a != b)
    return None


def coboundary_matches_associator(hopf: HopfData, J: TwistJ, assoc: Associator):
    """dJ equals the pullback of the closed form on every fine cell.

    With red(x) the coarse index of x mod n and P the closed-form table,
    the claim is EdJ(z, u, v) = P(red z, red u, red v) mod m on all of
    (Z/m)^(3r).  It is proved in three exact steps instead of a sweep of
    all m^(3r) cells:

    1. the twist exponent E is linear in its first slot: on all L^2 fine
       cells, E(z, y) = sum_i z_i E(e_i, y) mod m.  Then
       EdJ(z, u, v) = sum_i z_i D_i(u, v) for every z, where
       D_i(u, v) = E(e_i, u + v) - E(e_i, u) - E(e_i, v);
    2. D_i(u, v) = P(red e_i, red u, red v) on the whole fine (u, v) grid,
       for each unit vector e_i;
    3. the pulled-back P is linear in its first slot: on all coarse cells,
       P(b, c, d) = sum_i b_i P(red e_i, c, d) mod m, and
       n P(red e_i, c, d) = 0 mod m, so the pullback to (Z/m)^r is linear.

    Two functions of z that are linear and agree on the unit vectors
    agree everywhere.  Returns None on success, else a dict naming a fine
    cell (z, u, v) where the two exponents differ, with both exponents.
    When step 1 fails, the cells searched are those whose coboundary reads
    the offending twist cell; if none of them differs, the dict names that
    twist cell and the failed obligation instead.
    """
    A = hopf.algebra
    m, n, r = A.m, A.n, A.rank
    L = m**r
    E = J.exponents
    P = assoc.table
    fine, red, units = _fine_maps(A)

    def cell(z, u, v):
        return {
            "z": fine[z],
            "u": fine[u],
            "v": fine[v],
            "coboundary_exponent": coboundary_exponent(hopf, J, z, u, v),
            "associator_exponent": P[red[z]][red[u]][red[v]] % m,
        }

    def first_difference(cells):
        for z, u, v in cells:
            got = cell(z, u, v)
            if got["coboundary_exponent"] != got["associator_exponent"]:
                return got
        return None

    bad = _first_nonlinear_cell(E, units, fine, m)
    if bad is not None:
        z0, y0 = bad
        minus = lambda x, y: flat_index([a - b for a, b in zip(fine[x], fine[y])], m)
        hit = first_difference(itertools.chain(
            ((z, z0, y0) for z in range(L)),
            ((z0, u, minus(y0, u)) for u in range(L)),
            ((minus(z0, u), u, y0) for u in range(L)),
            ((z0, y0, v) for v in range(L)),
        ))
        return hit or {
            "z": fine[z0], "y": fine[y0], "obligation": "twist exponent linear in z",
            "found": E[z0][y0] % m,
            "required": sum(a * E[e][y0] for a, e in zip(fine[z0], units)) % m,
        }
    bad = _unit_sweep(hopf, E, P)
    if bad is not None:
        return cell(*bad)
    # a coarse failure at (b, c, d) shows at the fine cell of the lifts of
    # b, c and d; one of n P(e_i, c, d) at the fine cell (n e_i, c, d)
    coarse = coord_table(n, r)
    lift = lambda vec: flat_index(vec, m)
    coarse_units = [red[e] for e in units]
    for c in range(len(coarse)):
        hit = _first_nonlinear_cell([P[b][c] for b in range(len(coarse))],
                                    coarse_units, coarse, m)
        if hit is not None:
            b, d = hit
            return cell(lift(coarse[b]), lift(coarse[c]), lift(coarse[d]))
        for b in coarse_units:
            for d, x in enumerate(P[b][c]):
                if n * x % m:
                    return cell(lift([n * a for a in coarse[b]]), lift(coarse[c]), lift(coarse[d]))
    return None


# -- pentagon ----------------------------------------------------------


def pentagon_check(hopf: HopfData, assoc: Associator):
    """(1 x Phi)(id x Delta x id)(Phi)(Phi x 1) = (id x id x Delta)(Phi)(Delta x id x id)(Phi).

    Phi is diagonal in the coarse idempotents, so by facts 1 and 2 of the
    module docstring each side is diagonal in B_a x B_b x B_c x B_d, and
    its exponent there is a sum of entries of P: (id x Delta x id)(Phi)
    reads P[a][b + c][d], and so on.  Both sides are compared on every
    cell of the fourfold (Z/n)^r grid; a failure names the first cell
    (a, b, c, d) and both exponents.
    """
    A = hopf.algebra
    n, m, r = A.n, A.m, A.rank
    L = n**r
    P = assoc.table
    ADDb = add_table(n, r)
    # one d-row per (a, b, c): lhs P[b][c] + P[a][b+c] + P[a][b][c],
    # rhs P[a][b][c+d] + P[a+b][c]
    for a in range(L):
        Pa = P[a]
        for b in range(L):
            Pb, Pab, Pa_b = P[b], Pa[b], P[ADDb[a][b]]
            for c in range(L):
                const, Pac = Pab[c], Pa[ADDb[b][c]]
                lhs = [(x + y + const) % m for x, y in zip(Pb[c], Pac)]
                rhs = [(Pab[s] + y) % m for s, y in zip(ADDb[c], Pa_b[c])]
                if lhs != rhs:
                    d = next(d for d in range(L) if lhs[d] != rhs[d])
                    return {"cell": (a, b, c, d), "lhs": lhs[d], "rhs": rhs[d]}
    return None


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

    A family is a flat row-major list over the (Z/n)^r index of each slot.
    Empty slot words split the idempotent index along coarse addition;
    a single-generator word additionally contributes the two coarse
    exponent tables of its twisted image.  Other words never occur in
    the identities checked here.
    """
    A = hopf.algebra
    n, r = A.n, A.rank
    L = n**r
    ADDb = add_table(n, r)
    zero = [[0] * L for _ in range(L)]
    out = {}

    def put(pattern, flat, k, extra):
        # out[.., b, c, ..] = flat[.., b + c, ..] + extra[b][c], the new axes at slot
        if pattern in out:
            raise ArithmeticError(f"family patterns must stay disjoint: {pattern} repeats")
        post = L ** (k - slot - 1)
        split = []
        for p in range(L**slot):
            for b in range(L):
                for c in range(L):
                    off, g = (p * L + ADDb[b][c]) * post, extra[b][c]
                    split.extend([(x + g) % A.m for x in flat[off:off + post]])
        out[pattern] = split

    for pattern, flat in families.items():
        word = pattern[slot]
        k = len(pattern)
        if not any(word):
            put(pattern[:slot] + (word, word) + pattern[slot + 1 :], flat, k, zero)
            continue
        letters = [letter for letter, mult in enumerate(word) if mult]
        if len(letters) != 1 or word[letters[0]] != 1 or letters[0] not in A.e_letters:
            raise ValueError(f"slot coproduct supports only a single plain generator letter, "
                             f"not the word {word}")
        left, right = gen_bold[letters[0]]
        empty = (0,) * A.nroots
        put(pattern[:slot] + (word, empty) + pattern[slot + 1 :], flat, k, left)
        put(pattern[:slot] + (empty, word) + pattern[slot + 1 :], flat, k, right)
    return out


def _bold_add_diag(hopf: HopfData, families: dict, D: list, side: str) -> dict:
    """Multiply a family sum by a coarse diagonal element of matching arity.

    Right multiplication only meets the idempotents already sitting at
    the right of each slot word, so it adds exponents pointwise.  Left
    multiplication first moves each idempotent past the slot word,
    shifting its index by the word weight.
    """
    A = hopf.algebra
    ADDb = add_table(A.n, A.rank)
    out = {}
    for pattern, flat in families.items():
        # index shift per slot; ADDb[i][0] = i leaves right products unshifted
        weights = [0] * len(pattern) if side == "right" else [
            _word_weight_bold(A, w) for w in pattern]
        shifts = [[row[w] for row in ADDb] for w in weights]
        moved = [_nested_get(D, idx) for idx in itertools.product(*shifts)]
        out[pattern] = [(x + y) % A.m for x, y in zip(flat, moved)]
    return out


def _nested_get(table, idx):
    for i in idx:
        table = table[i]
    return table


def _bold_delta_of(hopf: HopfData, J: TwistJ, x: Element) -> dict:
    """Coarse families of Delta_J(x) for x = 1, g_i^n, or e_i, as flat lists."""
    A = hopf.algebra
    n, r = A.n, A.rank
    L = n**r
    empty = (0,) * A.nroots
    if x == A.one:
        return {(empty, empty): [0] * (L * L)}
    monos = list(x.terms)
    if len(monos) == 1 and not any(monos[0].pbw):
        group = monos[0].group
        if any(a % n for a in group) or x.terms[monos[0]] != A.field.one:
            raise ValueError("a grouplike must be g^a with n dividing a and coefficient 1")
        ex = [sum(b * a for b, a in zip(vec, group)) for vec in coord_table(n, r)]
        return {(empty, empty): [(s + t) % A.m for s in ex for t in ex]}
    for i in range(A.rank):
        if x == A.generator_e(i):
            return {pat: [v for row in table for v in row]
                    for pat, table in twisted_generator_bold(hopf, J, i).items()}
    raise ValueError("quasi-coassociativity is checked on 1, g_i^n and e_i only")


def _families_equal(f1: dict, f2: dict, m: int, L: int):
    if set(f1) != set(f2):
        return {"patterns": (sorted(f1), sorted(f2))}
    for pattern in f1:
        for i, (x, y) in enumerate(zip(f1[pattern], f2[pattern])):
            if (x - y) % m:
                cell = []
                for _ in pattern:
                    i, rem = divmod(i, L)
                    cell.append(rem)
                return {"pattern": pattern, "cell": tuple(reversed(cell)), "lhs": x, "rhs": y}
    return None


def quasi_coassoc_check(hopf: HopfData, J: TwistJ, assoc: Associator, x: Element):
    """(id x Delta_J)(Delta_J(x)) . Phi = Phi . (Delta_J x id)(Delta_J(x)).

    Coarse exponent calculus for x among 1, g_i^n and e_i; any other x
    raises ValueError.  Delta_J(x) is held as coarse families (fact 4 of
    the module docstring for e_i, fact 1 for g_i^n); a second Delta_J on
    one slot splits the idempotent index along coarse addition (fact 2);
    multiplying by Phi adds its exponents, on the left after moving each
    idempotent past the slot word (fact 3).  Both sides are algebra maps
    of x, so passing on those generators settles the axiom on the whole
    subalgebra.  A failure names the family pattern, the coarse cell and
    both exponents.
    """
    A = hopf.algebra
    base = _bold_delta_of(hopf, J, x)
    empty = (0,) * A.nroots
    gen_bold = {}
    for i in range(A.rank):
        pair = twisted_generator_bold(hopf, J, i)
        letter = A.e_letters[i]
        word = tuple(1 if k == letter else 0 for k in range(A.nroots))
        gen_bold[letter] = (pair[(word, empty)], pair[(empty, word)])
    lhs = _bold_add_diag(hopf, _bold_slot_coproduct(hopf, base, 1, gen_bold), assoc.table, "right")
    rhs = _bold_add_diag(hopf, _bold_slot_coproduct(hopf, base, 0, gen_bold), assoc.table, "left")
    return _families_equal(lhs, rhs, A.m, A.n**A.rank)
