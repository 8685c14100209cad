"""Hopf structure of the quantum Borel algebra at a root of unity.

build_borel constructs, for a Cartan type and an admissible odd n, the
algebra generated by commuting grouplikes g_i of order n^2 and
skew-primitive nilpotents e_i with

    g_i e_j g_i^(-1) = q^(delta_ij) e_j,
    Delta(g_i) = g_i x g_i,
    Delta(e_i) = e_i x K_i + 1 x e_i,   K_i = prod_j g_j^(a_ij),
    eps(g_i) = 1,  eps(e_i) = 0,
    S(g_i) = g_i^(-1),  S(e_i) = -e_i K_i^(-1),

q a primitive root of unity of order n^2.  The antipode formula on e_i is
not an independent axiom: it is forced by the Hopf antipode identity
given the coproduct above, and the test suite verifies it rather than
trusting it.  HopfData holds Delta, S and S^(-1) as the extensions of
these images of the 2r generators (algebra.LetterExtension), Delta
multiplicative and S, S^(-1) anti-multiplicative; so Delta(g_i^a) is
Delta(g_i)^a by construction, not a formula of its own.

build_borel proves, each time it runs, that the normal-form monomials
are a basis (BorelAlgebra.certify_basis, by the diamond lemma).
build_subalgebra extracts the distinguished subalgebra generated by the
n-th powers g_i^n together with all e_i; its basis consists of the
normal-form monomials whose group exponents are divisible by n, and its
dimension is n^(dim g).  Its closure follows from how products are
formed, with no product computed (see build_subalgebra).

The sector-presentation functions verify that adjoining the cyclic
sectors p_(i,j) = g_i^j, j in [0, n), to the subalgebra reproduces the
full algebra: conjugation relations and the sector composition law with
its correction factor (g_i^n)^carry(j1, j2), where carry is the one
definition of the carry of Z/n.  Both are certified on O(r n) products,
at j = 1 and at j2 = 1, and every other sector follows by induction from
associativity and the carry's cocycle identity; the spanning count
follows from how the sectors index the group exponents.
"""

from __future__ import annotations

import itertools

from .algebra import (
    BorelAlgebra,
    Element,
    LetterExtension,
    Monomial,
    apply_on_slot,
    linear_extension,
    tensor_multiply,
)
from .cartan import validate_params
from .cyclotomic import CycScalar


class ParameterError(ValueError):
    """Raised when (type, n) fails the admissibility conditions."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class HopfData:
    """An algebra together with executable Delta, eps, S (and S inverse).

    Delta, S and S^(-1) are LetterExtension maps, fixed by their images
    of the 2r generators g_i and e_i, with memoized letter powers and
    monomial images; the image of g^a is the a-th power of that of g.
    """

    def __init__(self, algebra: BorelAlgebra):
        self.algebra = A = algebra
        r = A.rank
        g, e = [A.generator_g(i) for i in range(r)], [A.generator_e(i) for i in range(r)]
        g_inv = [A.monomial_element([-(j == i) for j in range(r)], (0,) * A.nroots) for i in range(r)]
        self.coproduct = LetterExtension(
            A, A.tensor_power(2),
            [A.tensor_of_elements(x, x) for x in g]
            + [A.tensor_of_elements(x, self.K(i)) + A.tensor_of_elements(A.one, x)
               for i, x in enumerate(e)])
        self.antipode = LetterExtension(
            A, A, g_inv + [-(x * self.K_inv(i)) for i, x in enumerate(e)], anti=True)
        self.antipode_inv = LetterExtension(
            A, A, g_inv + [-(self.K_inv(i) * x) for i, x in enumerate(e)], anti=True)

    # -- distinguished group elements ----------------------------------

    def K(self, i: int) -> Element:
        A = self.algebra
        exps = tuple(A.datum.cartan_matrix[i][j] % A.m for j in range(A.rank))
        return A.monomial_element(exps, (0,) * A.nroots)

    def K_inv(self, i: int) -> Element:
        A = self.algebra
        exps = tuple(-A.datum.cartan_matrix[i][j] % A.m for j in range(A.rank))
        return A.monomial_element(exps, (0,) * A.nroots)

    # -- counit --------------------------------------------------------

    def counit(self, x: Element) -> CycScalar:
        A = self.algebra
        out = A.field.zero
        for mono, c in x.terms.items():
            if not any(mono.pbw):
                out = out + c
        return out

    # -- structural checks (used by the test suite and the CLI) --------

    def check_coproduct_multiplicative(self, x: Element, y: Element) -> bool:
        return self.coproduct(x * y) == tensor_multiply(self.coproduct(x), self.coproduct(y))

    def check_coassociativity(self, x: Element) -> bool:
        D = self.coproduct(x)
        left = apply_on_slot(self.coproduct, D, 0)
        right = apply_on_slot(self.coproduct, D, 1)
        return left == right

    def check_counit_laws(self, x: Element) -> bool:
        D = self.coproduct(x)
        return apply_on_slot(self.counit, D, 0) == x and apply_on_slot(self.counit, D, 1) == x

    def multiply_tensor_slots(self, X: Element) -> Element:
        A = self.algebra
        return linear_extension(A, lambda key: A.multiply_monomials(*key), X)

    def check_antipode_axiom(self, x: Element) -> bool:
        D = self.coproduct(x)
        left = self.multiply_tensor_slots(apply_on_slot(self.antipode, D, 0))
        right = self.multiply_tensor_slots(apply_on_slot(self.antipode, D, 1))
        target = self.algebra.one.scale(self.counit(x))
        return left == target and right == target


def build_borel(cartan_type: str, n: int) -> HopfData:
    """The quantum Borel Hopf algebra, its PBW basis certified; raises
    ParameterError when (type, n) fails the admissibility conditions, and
    ArithmeticError when the basis certificate fails."""
    violations = validate_params(cartan_type, n)
    if violations:
        raise ParameterError(violations)
    algebra = BorelAlgebra(cartan_type, n)
    algebra.certify_basis()
    return HopfData(algebra)


class SubalgebraBasis:
    """Basis data of the subalgebra generated by g_i^n and the e_i.

    A normal-form monomial lies in the subalgebra iff every group
    exponent is divisible by n.  The basis is never materialized above
    desk scale; membership is a predicate and the count is closed-form.
    """

    def __init__(self, hopf: HopfData):
        self.algebra = hopf.algebra
        self.n = self.algebra.n

    @property
    def count(self) -> int:
        A = self.algebra
        return self.n ** A.rank * A.m ** A.nroots

    def contains_monomial(self, mono: Monomial) -> bool:
        return all(a % self.n == 0 for a in mono.group)

    def monomials(self):
        A = self.algebra
        group_vals = range(0, A.m, self.n)
        for g in itertools.product(group_vals, repeat=A.rank):
            for p in itertools.product(range(A.m), repeat=A.nroots):
                yield Monomial(g, p)

    def generators(self) -> list[Element]:
        """The 2r generators: the g_i^n, then the e_i."""
        A = self.algebra
        return ([A.monomial_element([self.n * (j == i) for j in range(A.rank)], (0,) * A.nroots)
                 for i in range(A.rank)] + [A.generator_e(i) for i in range(A.rank)])


def build_subalgebra(hopf: HopfData) -> SubalgebraBasis:
    """Subalgebra basis with verified generators, closed by construction.
    Raises ValueError when a generator lies outside the basis.

    span(B), B the normal-form monomials g^(n beta) e^p, is the subalgebra
    that the g_i^n and the e_i generate, with no product formed:

    - multiply_monomials gives g^alpha e^p g^beta e^s as q^k g^(alpha + beta)
      times the straightened e^p e^s, so group exponents add, and a sum of
      multiples of n stays one mod m = n^2;
    - the right side of every straightening rule is a word in the e-letters
      (BorelAlgebra.certify_basis), so straightening changes no group
      exponent; hence span(B) is closed under multiplication, and it holds
      1 and, as checked here, each of the 2r generators;
    - every basis monomial is a word in the generators: g^(n beta) in the
      g_i^n, and e^p in the letters, each of them an e_i or a composite
      letter, itself a word in the e_i (BorelAlgebra.composite_letters; at
      A2, e_12 = e_1 e_2 - q^(-1) e_2 e_1).

    The diamond lemma makes B linearly independent, so the subalgebra has
    dimension |B| = n^r m^N = n^(dim g) (count).
    """
    basis = SubalgebraBasis(hopf)
    for gen in basis.generators():
        for mono in gen.terms:
            if not basis.contains_monomial(mono):
                raise ValueError(f"the generator {mono} lies outside the subalgebra basis")
    return basis


# -- sector presentation ----------------------------------------------


def sector_element(hopf: HopfData, i: int, j: int) -> Element:
    """The sector generator p_(i,j) = g_i^j, 0 <= j < n."""
    A = hopf.algebra
    if not 0 <= j < A.n:
        raise ValueError(f"sector index {j} must lie in [0, {A.n})")
    exps = [0] * A.rank
    exps[i] = j
    return A.monomial_element(tuple(exps), (0,) * A.nroots)


def carry(x: int, y: int, n: int) -> int:
    """[x + y >= n] for x, y in [0, n): the carry of adding in Z/n.

    It is the one definition of the carry: the exponent of g_i^n in
    p_(i,x) p_(i,y) = p_(i,(x+y)') (g_i^n)^carry(x, y), the carry tables
    kappa_ij = -n a_ij carry of the associator, and the 2-cocycle that
    generates H^2(Z/n; Z/n) in their normal form.
    """
    return int(x + y >= n)


def sector_presentation_check(hopf: HopfData):
    """Verify the sector presentation; None on pass, else a counterexample.

    (a) p_(i,j) a = (g_i^j a g_i^-j) p_(i,j) for subalgebra generators a;
    (b) p_(i,j1) p_(i,j2) = p_(i,(j1+j2)') (g_i^n)^carry(j1, j2).

    Both are certified on O(r n) products: (a) at j = 1 for each generator
    a, and (b) at j2 = 1 for every j1.  Every other j follows by induction,
    from associativity of the product, which the basis certificate of
    build_borel gives, and from two facts about the carry c = carry(., ., n)
    on [0, n): c(j, 1) = 0 for j + 1 < n, and its cocycle identity
    c(j1, j2) + c((j1 + j2)', j3) = c(j2, j3) + c(j1, (j2 + j3)').

    - (b) for j2 + 1 < n, from (b) at j2 and at (., 1): the group
      monomials commute, so
      p_j1 p_(j2+1) = p_j1 p_j2 p_1 = p_(j1+j2)' p_1 (g_i^n)^c(j1, j2)
      = p_(j1+j2+1)' (g_i^n)^(c(j1, j2) + c((j1+j2)', 1)), and the cocycle
      identity at j3 = 1 turns the exponent into c(j1, j2 + 1).  j2 = 0
      holds since p_(i,0) = 1.
    - (a) for j + 1 < n and every element x, from (a) at j and at 1:
      p_(j+1) = p_j p_1 by (b), so
      p_(j+1) x = p_j (g_i x g_i^-1) p_1 = (g_i^(j+1) x g_i^-(j+1)) p_j p_1.
      (a) at j = 1 holds for every x by associativity, since
      g_i^-1 g_i = 1, and the check confirms it on the generators; j = 0
      holds since p_(i,0) = 1.

    A failure names the first generator or j1 where a certified product
    differs, with j = 1 or j2 = 1.

    The spanning count needs no check: a group exponent x in [0, m) is
    n a + j for one subalgebra exponent a and sector j in [0, n), so the
    subalgebra basis times the sector monomials hits every normal-form
    monomial once, and n^r n^(dim g) = dim u_q(b).
    """
    A = hopf.algebra
    n = A.n
    gens = SubalgebraBasis(hopf).generators()
    for i in range(A.rank):
        gi = A.generator_g(i)
        gi_inv = A.monomial_element(tuple(-1 if k == i else 0 for k in range(A.rank)), (0,) * A.nroots)
        p1 = sector_element(hopf, i, 1)
        for a in gens:
            if p1 * a != gi * a * gi_inv * p1:
                return {"relation": "conjugation", "i": i, "j": 1, "generator": a}
        for j1 in range(n):
            gn = A.monomial_element(tuple(n * carry(j1, 1, n) if k == i else 0 for k in range(A.rank)),
                                    (0,) * A.nroots)
            if sector_element(hopf, i, j1) * p1 != sector_element(hopf, i, (j1 + 1) % n) * gn:
                return {"relation": "composition", "i": i, "j1": j1, "j2": 1}
    return None
