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
trusting it.

build_subalgebra extracts the distinguished subalgebra generated by the
n-th powers g_i^n together with all e_i; its basis consists of the
normal-form monomials whose group exponents are divisible by n, and its
dimension is n^(dim g).  Closure is proved by left products generator x
basis monomial, exhaustively up to 10^4 basis elements (all of A1) and
on a seeded sample of basis pairs above that (A2).

The sector-presentation functions verify that adjoining the cyclic
sectors p_(i,j) = g_i^j, j in [0, n), to the subalgebra reproduces the
full algebra: conjugation relations, the sector composition law with its
g_i^n correction factor, and the spanning count.
"""

from __future__ import annotations

import itertools
import random

from .algebra import (
    BorelAlgebra,
    Element,
    Monomial,
    TensorElement,
    apply_on_slot,
    tensor_multiply,
)
from .cartan import LieDatum, validate_params
from .cyclotomic import CycScalar


class ParameterError(ValueError):
    """Raised when (type, n) fails the admissibility conditions."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class HopfData:
    """An algebra together with executable Delta, eps, S (and S inverse).

    Generator images are stored; everything else is extended
    (anti)multiplicatively with per-monomial memoization.
    """

    def __init__(self, algebra: BorelAlgebra):
        self.algebra = algebra
        A = algebra
        self._letter_cop = {}
        self._letter_cop_powers = {}
        self._letter_antipode = {}
        self._letter_antipode_inv = {}
        self._cop_cache = {}
        self._antipode_cache = {}
        self._antipode_inv_cache = {}
        if A.nroots:
            for i, letter in enumerate(A.e_letters):
                e = A.generator_e(i)
                Ki = self.K(i)
                self._letter_cop[letter] = A.tensor_of_elements(e, Ki) + A.tensor_of_elements(A.one, e)
                self._letter_antipode[letter] = -(e * self.K_inv(i))
                self._letter_antipode_inv[letter] = -(self.K_inv(i) * e)
            if A.cartan_type == "A2":
                # the composite letter e_12 = e_1 e_2 - q^(-1) e_2 e_1 inherits
                # its structure maps from the generators
                qi = A.field.zeta_pow(-1)
                c0, c2 = self._letter_cop[0], self._letter_cop[2]
                self._letter_cop[1] = tensor_multiply(c0, c2) - tensor_multiply(c2, c0).scale(qi)
                s0, s2 = self._letter_antipode[0], self._letter_antipode[2]
                self._letter_antipode[1] = s2 * s0 - (s0 * s2).scale(qi)
                t0, t2 = self._letter_antipode_inv[0], self._letter_antipode_inv[2]
                self._letter_antipode_inv[1] = t2 * t0 - (t0 * t2).scale(qi)

    # -- distinguished group elements ----------------------------------

    def K(self, i: int) -> Element:
        A = self.algebra
        exps = tuple(A.datum.cartan_matrix[i][j] % A.m for j in range(A.rank))
        return A.monomial_element(exps, (0,) * A.nroots)

    def K_inv(self, i: int) -> Element:
        A = self.algebra
        exps = tuple(-A.datum.cartan_matrix[i][j] % A.m for j in range(A.rank))
        return A.monomial_element(exps, (0,) * A.nroots)

    # -- coproduct -----------------------------------------------------

    def _letter_cop_power(self, letter: int, b: int) -> TensorElement:
        A = self.algebra
        key = (letter, b)
        got = self._letter_cop_powers.get(key)
        if got is None:
            if b == 0:
                got = A.unit_tensor(2)
            else:
                got = tensor_multiply(self._letter_cop_power(letter, b - 1), self._letter_cop[letter])
            self._letter_cop_powers[key] = got
        return got

    def coproduct_monomial(self, mono: Monomial) -> TensorElement:
        got = self._cop_cache.get(mono)
        if got is not None:
            return got
        A = self.algebra
        gpart = Monomial(mono.group, (0,) * A.nroots)
        out = A.tensor({(gpart, gpart): A.field.one}, 2)
        for letter, b in enumerate(mono.pbw):
            if b:
                out = tensor_multiply(out, self._letter_cop_power(letter, b))
        self._cop_cache[mono] = out
        return out

    def coproduct(self, x: Element) -> TensorElement:
        A = self.algebra
        out = A.tensor({}, 2)
        for mono, c in x.terms.items():
            out = out + self.coproduct_monomial(mono).scale(c)
        return out

    def coproduct_tensor_slot(self, X: TensorElement, slot: int) -> TensorElement:
        return apply_on_slot(self.coproduct, X, slot)

    # -- counit --------------------------------------------------------

    def counit(self, x: Element) -> CycScalar:
        A = self.algebra
        out = A.field.zero
        for mono, c in x.terms.items():
            if not any(mono.pbw):
                out = out + c
        return out

    # -- antipode ------------------------------------------------------

    def antipode(self, x: Element) -> Element:
        return self._anti_extend(x, self._letter_antipode, self._antipode_cache)

    def antipode_inv(self, x: Element) -> Element:
        return self._anti_extend(x, self._letter_antipode_inv, self._antipode_inv_cache)

    def _anti_extend(self, x: Element, letter_images: dict, cache: dict) -> Element:
        A = self.algebra
        out = A.element({})
        for mono, c in x.terms.items():
            img = cache.get(mono)
            if img is None:
                img = A.monomial_element(tuple(-a % A.m for a in mono.group), (0,) * A.nroots)
                # anti-homomorphism: letters in reverse PBW order act on the left
                for letter, b in enumerate(mono.pbw):
                    if b:
                        piece = A.one
                        for _ in range(b):
                            piece = piece * letter_images[letter]
                        img = piece * img
                cache[mono] = img
            out = out + img.scale(c)
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

    def multiply_tensor_slots(self, X: TensorElement) -> Element:
        A = self.algebra
        out = A.element({})
        for (m1, m2), c in X.terms.items():
            out = out + A.multiply_monomials(m1, m2).scale(c)
        return out

    def check_antipode_axiom(self, x: Element) -> bool:
        D = self.coproduct(x)
        left = self.multiply_tensor_slots(apply_on_slot(self.antipode, D, 0))
        right = self.multiply_tensor_slots(apply_on_slot(self.antipode, D, 1))
        target = self.algebra.one.scale(self.counit(x))
        return left == target and right == target


def build_borel(cartan_type: str, n: int) -> HopfData:
    """The quantum Borel Hopf algebra; raises ParameterError when (type, n)
    fails the admissibility conditions."""
    violations = validate_params(cartan_type, n)
    if violations:
        raise ParameterError(violations)
    return HopfData(BorelAlgebra(cartan_type, n))


class SubalgebraBasis:
    """Basis data of the subalgebra generated by g_i^n and the e_i.

    A normal-form monomial lies in the subalgebra iff every group
    exponent is divisible by n.  The basis is never materialized above
    desk scale; membership is a predicate and the count is closed-form.
    """

    def __init__(self, hopf: HopfData):
        self.hopf = hopf
        self.algebra = hopf.algebra
        self.n = self.algebra.n

    @property
    def count(self) -> int:
        A = self.algebra
        return self.n ** A.rank * A.m ** A.nroots

    def contains_monomial(self, mono: Monomial) -> bool:
        return all(a % self.n == 0 for a in mono.group)

    def contains(self, x: Element) -> bool:
        return all(self.contains_monomial(m) for m in x.terms)

    def monomials(self):
        A = self.algebra
        group_vals = range(0, A.m, self.n)
        for g in itertools.product(group_vals, repeat=A.rank):
            for p in itertools.product(range(A.m), repeat=A.nroots):
                yield Monomial(g, p)

    def generators(self) -> list[Element]:
        A = self.algebra
        gens = []
        for i in range(A.rank):
            exps = [0] * A.rank
            exps[i] = self.n
            gens.append(A.monomial_element(tuple(exps), (0,) * A.nroots))
        for i in range(A.rank):
            gens.append(A.generator_e(i))
        return gens

    def closure_counterexample(self, sample: int = 0, seed: int = 0):
        """None if closed under multiplication; else (m1, m2, bad product).

        sample=0 forms every left product g b of a generator monomial g with
        a basis monomial b (2|B| products at A1).  That proves closure:
        every basis monomial (g^n)^a e^p is a product of generators, since
        it is already in PBW normal form, and b = 1 is swept too, so each
        generator lies in span(B).  If g span(B) is in span(B) for every
        generator g, then so is b span(B) for every product b of
        generators, hence span(B) span(B) is in span(B).  A counterexample
        is (g, b, monomial of g b outside B).

        Otherwise that many seeded random pairs of basis monomials are
        checked.
        """
        A = self.algebra
        if sample == 0:
            gens = [mono for g in self.generators() for mono in g.terms]
            pairs = itertools.product(gens, self.monomials())
        else:
            rng = random.Random(seed)
            group_vals = range(0, A.m, self.n)

            def rand_mono():
                return Monomial(
                    tuple(rng.choice(list(group_vals)) for _ in range(A.rank)),
                    tuple(rng.randrange(A.m) for _ in range(A.nroots)),
                )

            pairs = ((rand_mono(), rand_mono()) for _ in range(sample))
        for m1, m2 in pairs:
            prod = A.multiply_monomials(m1, m2)
            for mono in prod.terms:
                if not self.contains_monomial(mono):
                    return (m1, m2, mono)
        return None


def build_subalgebra(hopf: HopfData) -> SubalgebraBasis:
    """Subalgebra basis with verified count and multiplicative closure.

    Raises ValueError when a check fails.
    """
    basis = SubalgebraBasis(hopf)
    A = hopf.algebra
    if basis.count != A.n ** A.datum.dim_g:
        raise ValueError(f"dimension {basis.count} must be n^dim(g) = {A.n ** A.datum.dim_g}")
    if basis.count <= 10**4:
        listed = sum(1 for _ in basis.monomials())
        if listed != basis.count:
            raise ValueError(f"basis enumeration lists {listed} monomials, expected {basis.count}")
        bad = basis.closure_counterexample()
    else:
        bad = basis.closure_counterexample(sample=300, seed=17)
    if bad is not None:
        raise ValueError(f"subalgebra not closed: {bad}")
    return basis


def build_group_algebra_T(r: int, n: int) -> HopfData:
    """Commutative group algebra of (Z/n^2)^r with grouplike generators."""
    datum = LieDatum(
        tag=f"torus-rank-{r}",
        rank=r,
        cartan_matrix=tuple(tuple(2 if i == j else 0 for j in range(r)) for i in range(r)),
        positive_root_count=0,
        dim_g=r,
        root_weights=(),
    )
    return HopfData(BorelAlgebra(datum, n))


# -- sector presentation ----------------------------------------------


def sector_element(hopf: HopfData, i: int, j: int) -> Element:
    """The sector generator p_(i,j) = g_i^j, 0 <= j < n."""
    A = hopf.algebra
    assert 0 <= j < A.n
    exps = [0] * A.rank
    exps[i] = j
    return A.monomial_element(tuple(exps), (0,) * A.nroots)


def sector_correction_exponent(j1: int, j2: int, n: int) -> int:
    """Exponent of g_i^n in p_(i,j1) p_(i,j2) = p_(i,(j1+j2)') (g_i^n)^c.

    c = (j1 + j2 - (j1+j2) mod n)/n, always 0 or 1 for j1, j2 in [0, n);
    equivalently the correction element carries exponent -c with
    c' = ((j1+j2)' - j1 - j2)/n in {0, -1}.
    """
    s = j1 + j2
    return (s - s % n) // n


def sector_action_data(hopf: HopfData, i: int, j: int):
    """(conjugator g_i^j, correction map (j1,j2) -> Element).

    The conjugator implements the sector's algebra automorphism of the
    subalgebra; the correction element (g_i^n)^((((j1+j2)') - j1 - j2)/n)
    measures the failure of sectors to compose on the nose.
    """
    A = hopf.algebra
    conj = sector_element(hopf, i, j)

    def correction(j1: int, j2: int) -> Element:
        c = ((j1 + j2) % A.n - j1 - j2) // A.n
        assert c in (0, -1)
        exps = [0] * A.rank
        exps[i] = c * A.n
        return A.monomial_element(tuple(exps), (0,) * A.nroots)

    return conj, correction


def sector_presentation_check(hopf: HopfData):
    """Verify the sector presentation; None on pass, else a counterexample.

    (a) p_(i,j) a = (g_i^j a g_i^-j) p_(i,j) for subalgebra generators a;
    (b) p_(i,j1) p_(i,j2) = p_(i,(j1+j2)') (g_i^n)^((j1+j2-(j1+j2)')/n);
    (c) spanning: subalgebra basis times sector monomials hits every
        normal-form monomial exactly once (count n^r * n^dim_g = dim).
    """
    A = hopf.algebra
    n = A.n
    sub = SubalgebraBasis(hopf)
    gens = sub.generators()
    for i in range(A.rank):
        gi = A.generator_g(i)
        gi_inv = A.monomial_element(tuple(-1 if k == i else 0 for k in range(A.rank)), (0,) * A.nroots)
        for j in range(n):
            p = sector_element(hopf, i, j)
            for a in gens:
                conj = a
                for _ in range(j):
                    conj = gi * conj * gi_inv
                if p * a != conj * p:
                    return {"relation": "conjugation", "i": i, "j": j, "generator": a}
        for j1 in range(n):
            for j2 in range(n):
                lhs = sector_element(hopf, i, j1) * sector_element(hopf, i, j2)
                c = sector_correction_exponent(j1, j2, n)
                exps = [0] * A.rank
                exps[i] = c * n
                corr = A.monomial_element(tuple(exps), (0,) * A.nroots)
                rhs = sector_element(hopf, i, (j1 + j2) % n) * corr
                if lhs != rhs:
                    return {"relation": "composition", "i": i, "j1": j1, "j2": j2}
    # (c) the indexing (subalgebra exponent a, sector j) -> n*a + j is a
    # bijection onto [0, n^2) in every group coordinate, so the count
    # n^r * n^dim_g equals dim u_q(b); spot-verify the coordinate bijection.
    covered = {(n * a + j) % A.m for a in range(n) for j in range(n)}
    if covered != set(range(A.m)):
        return {"relation": "spanning-bijection"}
    if n ** A.rank * sub.count != A.dimension:
        return {"relation": "spanning-count"}
    return None
