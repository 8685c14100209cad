"""Sparse PBW algebra core: monomials, rewriting, elements, tensor powers.

The algebras handled here all have a basis of normal-form monomials

    g_1^(a_1) ... g_r^(a_r) * E_1^(b_1) ... E_N^(b_N)

with commuting group generators g_i of order m = n^2 in front and an
ordered list of nilpotent root vectors E_L behind (E_L^m = 0).  The
defining relations are

    g_i g_j = g_j g_i,   g_i^m = 1,
    g_i E_L g_i^(-1) = q^(w_i) E_L      (w = weight of E_L),
    E_hi E_lo = sum of straightening terms   (hi > lo in the PBW order),

with q a fixed primitive m-th root of unity.  Products are computed by
moving letters leftward one at a time.  That the normal-form monomials
are a basis is proved, by Bergman's diamond lemma (G. Bergman, Adv.
Math. 29 (1978) 178), at every build_borel: BorelAlgebra.certify_basis
checks that the rewriting terminates (every rule's right side is shorter
than, or of length two and lexicographically smaller than, its left side)
and that every overlap ambiguity of the rules resolves, each side
straightened exactly.  It then checks that the defining relations of
u_q(b) (BorelAlgebra.relations) hold in the rewrite algebra: at A2, that
the expansion E_0 E_2 - q^(-1) E_2 E_0 of e_12 straightens to the letter
E_1, and that both q-Serre words straighten to 0 (Lusztig, Geom.
Dedicata 35 (1990) 89).  So sending e_1, e_2 to E_0, E_2 and g_i to g_i
is an algebra map from u_q(b) onto the rewrite algebra, onto since E_1
is a word in E_0 and E_2.  Both algebras have dimension m^(r + N), the
rewrite algebra by the diamond lemma and u_q(b) by Lusztig's PBW
theorem, so the map is an isomorphism: the two algebras are the same.

Element is the one sparse type: an immutable map from basis keys to
exact cyclotomic coefficients, with no zero coefficient stored, over a
ring that supplies the field and the product.  The rings are a
BorelAlgebra (monomial keys), its tensor powers (TensorPower, keys are
tuples of monomials) and the Drinfeld double.  LetterExtension turns the
images of the generators into an (anti)multiplicative linear map; the
coproduct, the antipode and its inverse are such maps.  Every sum here
adds CycScalars (accumulate); how a scalar of Q(zeta_m) is stored is
known to cyclotomic.py alone.

The double moves its keys to the dual basis in closed form
(double.to_delta); the character transform over (Z/m)^d, from which the
tests build the idempotents, is a test oracle (tests/oracles.py).
apply_on_slot serves the Hopf axioms of borel.HopfData, kept for their
certificate (ROADMAP item 11).
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from .cartan import LieDatum, lie_datum
from .cyclotomic import CycScalar, cyc_field, rational_parts


class Monomial(NamedTuple):
    group: tuple[int, ...]  # exponents of g_1..g_r, residues mod n^2
    pbw: tuple[int, ...]    # exponents of the ordered root vectors, < n^2


class RewriteSystem(NamedTuple):
    """Straightening data: the adjacent-swap rules.  The order reductions
    E^m = 0 and g^m = 1 use the algebra's m."""

    # (hi, lo) -> tuple of (coefficient, replacement letter word)
    swaps: dict


def accumulate(out: dict, items) -> dict:
    """Add the (key, value) pairs of items into out, deleting every key
    whose sum is zero, so that out never holds a zero; returns out."""
    get = out.get
    for k, v in items:
        acc = get(k)
        if acc is not None:
            v = acc + v
        if v:
            out[k] = v
        elif acc is not None:
            del out[k]
    return out


class BorelAlgebra:
    """The nilpotent-plus-torus algebra for a Cartan type at order n.

    cartan_type is a supported type name or a LieDatum; a datum without
    positive roots gives the group algebra of the torus.
    """

    def __init__(self, cartan_type: str | LieDatum, n: int):
        self.datum = lie_datum(cartan_type) if isinstance(cartan_type, str) else cartan_type
        self.cartan_type = self.datum.tag
        self.n = n
        self.m = n * n
        self.field = cyc_field(self.m)
        self.rank = self.datum.rank
        self.nroots = self.datum.positive_root_count
        self.weights = self.datum.root_weights
        # the simple root vectors e_i are the letters of weight d_i, in PBW order
        self.e_letters = tuple(letter for letter, w in enumerate(self.weights) if sum(w) == 1)
        # composite letter -> its expansion (coefficient, word of simple letters)
        self.composite_letters = {}
        # the defining relations of u_q(b) among the e-letters, each a sum of
        # (coefficient, word) that must straighten to 0 (certify_basis)
        self.relations = {}
        swaps = {}
        if self.cartan_type == "A2":
            # letters 0,1,2 = e_1, e_12, e_2 with e_12 = e_1 e_2 - q^(-1) e_2 e_1
            one = self.field.one
            q = self.field.zeta_pow(1)
            qi = self.field.zeta_pow(-1)
            swaps = {
                (2, 0): ((q, (0, 2)), (-q, (1,))),
                (1, 0): ((qi, (0, 1)),),
                (2, 1): ((qi, (1, 2)),),
            }
            self.composite_letters = {1: ((one, (0, 2)), (-qi, (2, 0)))}
            two = q + qi  # the quantum integer [2]_q
            self.relations = {
                "E_1 = E_0 E_2 - q^(-1) E_2 E_0": self.composite_letters[1] + ((-one, (1,)),),
                "E_0 E_0 E_2 - [2] E_0 E_2 E_0 + E_2 E_0 E_0 = 0":
                    ((one, (0, 0, 2)), (-two, (0, 2, 0)), (one, (2, 0, 0))),
                "E_2 E_2 E_0 - [2] E_2 E_0 E_2 + E_0 E_2 E_2 = 0":
                    ((one, (2, 2, 0)), (-two, (2, 0, 2)), (one, (0, 2, 2))),
            }
        self.rewrite = RewriteSystem(swaps)
        self._letter_mul_cache = {}
        self._tensor_powers = {}
        self.one = self.element({Monomial((0,) * self.rank, (0,) * self.nroots): self.field.one})

    # -- constructors --------------------------------------------------

    def monomial(self, group, pbw) -> Monomial:
        m = self.m
        group = tuple(a % m for a in group)
        pbw = tuple(pbw)
        if len(group) != self.rank or len(pbw) != self.nroots:
            raise ValueError(f"monomial needs {self.rank} group and {self.nroots} PBW exponents")
        if not all(0 <= b < m for b in pbw):
            raise ValueError(f"PBW exponents {pbw} must lie in [0, {m})")
        return Monomial(group, pbw)

    def element(self, terms) -> "Element":
        return Element(self, {k: v for k, v in terms.items() if v})

    def monomial_element(self, group, pbw, coeff=None) -> "Element":
        c = coeff if coeff is not None else self.field.one
        return self.element({self.monomial(group, pbw): c})

    def generator_g(self, i: int) -> "Element":
        g = [0] * self.rank
        g[i] = 1
        return self.monomial_element(g, (0,) * self.nroots)

    def generator_e(self, i: int) -> "Element":
        p = [0] * self.nroots
        p[self.e_letters[i]] = 1
        return self.monomial_element((0,) * self.rank, p)

    def generators(self) -> list["Element"]:
        return [self.generator_g(i) for i in range(self.rank)] + [
            self.generator_e(i) for i in range(self.rank)
        ]

    def basis(self):
        """Iterator over all normal-form monomials (use only at A1 scale)."""
        m = self.m
        for g in itertools.product(range(m), repeat=self.rank):
            for p in itertools.product(range(m), repeat=self.nroots):
                yield Monomial(g, p)

    @property
    def dimension(self) -> int:
        return self.m ** (self.rank + self.nroots)

    # -- rewriting -----------------------------------------------------

    def _first_letter(self, pbw):
        for idx, b in enumerate(pbw):
            if b:
                return idx
        return None

    def _words_times(self, terms, tail: tuple) -> dict:
        """Normal form of the sum of c (word) (normal word tail) over the
        (c, word) of terms, a word being a sequence of letters.

        The straightening runs on an explicit work list of generators
        (_words_steps, _letter_steps), each suspended at the product
        (letter, normal word) it needs and sent that product's normal form.
        A product not yet in the cache is straightened by a generator of its
        own, pushed above the one waiting for it, so the depth of the Python
        stack does not grow with the words, as it would by recursion: E_c
        moves past E_b^k through a chain of about k products.
        """
        cache = self._letter_mul_cache
        work, value = [(None, self._words_steps(terms, tail))], None
        while True:
            key, steps = work[-1]
            try:
                need = steps.send(value)
            except StopIteration as done:
                work.pop()
                if not work:
                    return done.value
                cache[key] = value = done.value
                continue
            value = cache.get(need)
            if value is None:
                work.append((need, self._letter_steps(*need)))

    def _letter_steps(self, letter: int, pbw: tuple):
        """The straightening of E_letter * (normal word) into {pbw: coeff};
        see _words_times."""
        first = self._first_letter(pbw)
        if first is None or letter <= first:  # E_letter merges into the word
            return self._pbw_mul(tuple(int(k == letter) for k in range(self.nroots)), pbw)
        rule = self.rewrite.swaps.get((letter, first))
        if rule is None:
            raise ValueError(f"no straightening rule for pair ({letter}, {first})")
        tail = tuple(b - (k == first) for k, b in enumerate(pbw))
        return (yield from self._words_steps(rule, tail))

    def _words_steps(self, terms, tail: tuple):
        """The straightening of _words_times: the letters of each word move
        onto the tail one at a time, from the last; see _words_times."""
        out = {}
        for coeff, word in terms:
            part = {tail: coeff}
            for lt in reversed(word):
                moved = {}
                for w, c in part.items():
                    prod = yield (lt, w)
                    accumulate(moved, ((w2, c * c2) for w2, c2 in prod.items()))
                part = moved
            accumulate(out, part.items())
        return out

    def _pbw_mul(self, p1: tuple, p2: tuple):
        """Normal form of (normal word p1) * (normal word p2).

        When every letter of p1 is <= the first letter of p2, no
        straightening rule applies: moving the letters of p1 one at a time,
        from the last, each one merges into the first letter of the word it
        meets, so the product is the word with the exponents of p1 and p2
        added, or zero once one of them reaches the nilpotent order.  That
        word is returned in one step; at rank 1 it is every product,
        e^a e^b = e^(a + b).  Otherwise the letters move one at a time.
        """
        first = self._first_letter(p2)
        if first is None or not any(p1[first + 1:]):
            merged = tuple(a + b for a, b in zip(p1, p2))
            return {} if any(b >= self.m for b in merged) else {merged: self.field.one}
        word = tuple(k for k, b in enumerate(p1) for _ in range(b))
        return self._words_times(((self.field.one, word),), p2)

    def ambiguities(self):
        """(name, left, right) for each overlap ambiguity of the straightening
        rules: left and right are the normal forms that the word name reaches
        when one, or the other, of the two rules that overlap in it is applied
        first and the result is straightened.

        The ambiguities are E_c E_b E_a for c > b > a where both (c, b) and
        (b, a) are swap rules, and, for each swap rule (hi, lo), the
        nilpotency overlaps E_hi^m E_lo and E_hi E_lo^m, whose side through
        E^m = 0 is 0.  No left side of a rule lies inside another, and E^m
        overlapping itself gives 0 both ways.
        """
        swaps, m = self.rewrite.swaps, self.m

        def reduce(prefix, pair, suffix):
            """The normal form of prefix (the rule for pair) suffix."""
            return self._words_times(((x, prefix + w + suffix) for x, w in swaps[pair]),
                                     (0,) * self.nroots)

        for c, b in sorted(swaps):
            for a in range(b):
                if (b, a) in swaps:
                    yield f"E_{c} E_{b} E_{a}", reduce((), (c, b), (a,)), reduce((c,), (b, a), ())
            yield f"E_{c}^{m} E_{b}", reduce((c,) * (m - 1), (c, b), ()), {}
            yield f"E_{c} E_{b}^{m}", reduce((), (c, b), (b,) * (m - 1)), {}

    def certify_basis(self) -> int:
        """Prove that the normal-form monomials are a basis; returns the
        number of ambiguities resolved: 0 at A1, 7 at A2.

        By the diamond lemma it suffices that the rewriting terminates and
        that every ambiguity resolves.  Each word of the rule for E_hi E_lo
        must have the weight of E_hi E_lo and precede it in the
        degree-lexicographic order, a well-order compatible with
        concatenation, so the rewriting terminates.  The rules' right sides
        are words in the e-letters, and moving g_i past a word multiplies it
        by q to the word's weight, with q^m = 1; so weight-homogeneous rules
        resolve every ambiguity with a group letter.  The ambiguities of the
        e-letters are resolved by straightening both sides exactly.  Then
        every defining relation (relations) must straighten to 0, which ties
        the rules to u_q(b).  Raises ArithmeticError naming the first rule,
        ambiguity or relation that fails.
        """
        def weight(word):
            return tuple(map(sum, zip(*(self.weights[L] for L in word))))

        for (hi, lo), rule in sorted(self.rewrite.swaps.items()):
            for _, word in rule:
                if weight(word) != weight((hi, lo)) or (len(word), word) >= (2, (hi, lo)):
                    raise ArithmeticError(
                        f"PBW basis: the rule for E_{hi} E_{lo} has the word {word}; its words must "
                        f"have weight {weight((hi, lo))} and precede ({hi}, {lo}) in deglex order")
        ambiguities = list(self.ambiguities())
        for name, left, right in ambiguities:
            if left != right:
                bad = min(w for w in left.keys() | right.keys() if left.get(w) != right.get(w))
                raise ArithmeticError(f"PBW basis: the ambiguity {name} does not resolve: its "
                                      f"two reductions differ at the normal word {bad}")
        for name, terms in self.relations.items():
            rest = self._words_times(terms, (0,) * self.nroots)
            if rest:
                raise ArithmeticError(f"PBW basis: the relation {name} fails: its two sides "
                                      f"differ at the normal word {min(rest)}")
        return len(ambiguities)

    def multiply_monomials(self, m1: Monomial, m2: Monomial) -> "Element":
        # move the PBW word of m1 past the group part of m2:
        # E g_i = q^(-w_i) g_i E for a root vector of weight w
        shift = 0
        for letter, b in enumerate(m1.pbw):
            if b:
                w = self.weights[letter]
                shift -= b * sum(wi * ai for wi, ai in zip(w, m2.group))
        scale = self.field.zeta_pow(shift)
        group = tuple((a + b) % self.m for a, b in zip(m1.group, m2.group))
        terms = {}
        for pbw, c in self._pbw_mul(m1.pbw, m2.pbw).items():
            terms[Monomial(group, pbw)] = c * scale
        return Element(self, terms)

    def multiply(self, x: "Element", y: "Element") -> "Element":
        out = {}
        for mx, cx in x.terms.items():
            for my, cy in y.terms.items():
                c = cx * cy
                prod = self.multiply_monomials(mx, my).terms
                accumulate(out, ((mz, c * cz) for mz, cz in prod.items()))
        return Element(self, out)

    # -- tensor layer --------------------------------------------------

    def tensor_power(self, arity: int) -> "TensorPower":
        got = self._tensor_powers.get(arity)
        if got is None:
            got = self._tensor_powers[arity] = TensorPower(self, arity)
        return got

    def tensor(self, terms, arity) -> "Element":
        return Element(self.tensor_power(arity), {k: v for k, v in terms.items() if v})

    def tensor_of_elements(self, *factors) -> "Element":
        """Outer product of elements of this algebra, in its tensor power."""
        terms = {(): self.field.one}
        for f in factors:
            nxt = {}
            for key, c in terms.items():
                for mono, cf in f.terms.items():
                    nxt[key + (mono,)] = c * cf
            terms = nxt
        return Element(self.tensor_power(len(factors)), terms)


class TensorPower:
    """The arity-fold tensor power of a BorelAlgebra, as the ring of the
    elements whose keys are tuples of monomials, one per slot.

    BorelAlgebra.tensor_power keeps one per arity, so two tensors share a
    ring exactly when they share the algebra and the arity.
    """

    def __init__(self, algebra: BorelAlgebra, arity: int):
        self.algebra = algebra
        self.arity = arity
        self.field = algebra.field
        unit = Monomial((0,) * algebra.rank, (0,) * algebra.nroots)
        self.one = Element(self, {(unit,) * arity: self.field.one})

    def multiply(self, X: "Element", Y: "Element") -> "Element":
        return tensor_multiply(X, Y)


class Element:
    """Immutable sparse linear combination of the basis keys of a ring.

    The ring supplies field, one and multiply(x, y).  Elements of
    different rings are never equal, and adding or multiplying them
    raises ValueError.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms: dict):
        self.ring = ring
        self.terms = terms

    def _same_ring(self, other: "Element") -> None:
        if other.ring is not self.ring:
            raise ValueError("cannot combine elements of different rings")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int) and other == 0:
            return not self.terms
        if not isinstance(other, Element):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._same_ring(other)
        return Element(self.ring, accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return Element(self.ring, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not isinstance(c, CycScalar):
            c = self.ring.field.from_rational(c)
        if not c:
            return Element(self.ring, {})
        return Element(self.ring, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            self._same_ring(other)
            return self.ring.multiply(self, other)
        if isinstance(other, CycScalar) or rational_parts(other) is not None:
            return self.scale(other)
        return NotImplemented

    def power(self, k: int) -> "Element":
        """self^k for k >= 0 by repeated squaring: about 2 log2(k) products."""
        if k < 0:
            raise ValueError(f"power needs an exponent k >= 0, got {k}")
        out, base = self.ring.one, self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out


def linear_extension(ring, image, x: Element) -> Element:
    """sum c image(key) over the terms c key of x, as an element of ring."""
    out = {}
    for key, c in x.terms.items():
        accumulate(out, ((k, c * v) for k, v in image(key).terms.items()))
    return Element(ring, out)


class LetterExtension:
    """The linear map on a BorelAlgebra that is multiplicative, or with
    anti anti-multiplicative, and is fixed by its images of group parts
    and of the simple root vectors.

    A monomial g^a E_0^(b_0) ... E_N^(b_N) maps to
    group_image(a) L_0^(b_0) ... L_N^(b_N), or with anti to
    L_N^(b_N) ... L_0^(b_0) group_image(a), where L_j is the image of the
    letter E_j.  generator_image(i) gives the image of e_i and is asked
    once, on first use; a composite letter's image follows from its
    expansion in the simple letters (BorelAlgebra.composite_letters).
    Images land in ring.  Letter images, their powers b >= 1 (each formed
    once, from the one below it) and monomial images are memoized in
    letters, powers and monomials.
    """

    def __init__(self, algebra: BorelAlgebra, ring, group_image, generator_image,
                 anti: bool = False):
        self.algebra = algebra
        self.ring = ring
        self.anti = anti
        self._group_image = group_image
        self._generator_image = generator_image
        self.letters = {}    # letter -> image of E_letter
        self.powers = {}     # (letter, b) -> image of E_letter^b
        self.monomials = {}  # monomial -> its image

    def _times(self, x: Element, y: Element) -> Element:
        """The image of a product whose factors have the images x, y."""
        return y * x if self.anti else x * y

    def letter(self, letter: int) -> Element:
        got = self.letters.get(letter)
        if got is None:
            A = self.algebra
            if letter in A.e_letters:
                got = self._generator_image(A.e_letters.index(letter))
            else:
                got = Element(self.ring, {})
                for c, word in A.composite_letters[letter]:
                    got = got + functools.reduce(self._times, map(self.letter, word)).scale(c)
            self.letters[letter] = got
        return got

    def power(self, letter: int, b: int) -> Element:
        """The image of E_letter^b, b >= 1.  The missing powers up to b are
        formed in a loop, not by recursion, so b may pass the recursion limit."""
        got = self.powers.get((letter, b))
        if got is None:
            image = self.letter(letter)
            for k in range(1, b + 1):
                below, got = got, self.powers.get((letter, k))
                if got is None:
                    got = self.powers[(letter, k)] = image if k == 1 else below * image
        return got

    def monomial(self, mono: Monomial) -> Element:
        got = self.monomials.get(mono)
        if got is None:
            got = self._group_image(mono.group)
            for letter, b in enumerate(mono.pbw):
                if b:
                    got = self._times(got, self.power(letter, b))
            self.monomials[mono] = got
        return got

    def __call__(self, x: Element) -> Element:
        return linear_extension(self.ring, self.monomial, x)


def tensor_multiply(X: Element, Y: Element) -> Element:
    """Componentwise product in the tensor power (no braiding anywhere).

    The sum over every pair of terms of X and Y and every combination of
    the terms of their slot products, each coefficient a product of
    scalars, summed per output key.  A slot product comes from
    multiply_monomials once per pair of slot monomials and call.
    """
    if X.ring is not Y.ring:
        raise ValueError("tensor_multiply needs two tensors of one arity over one algebra")
    mul = X.ring.algebra.multiply_monomials
    slot_products = {}
    out = {}
    for kx, cx in X.terms.items():
        for ky, cy in Y.terms.items():
            combos = [((), cx * cy)]
            for pair in zip(kx, ky):
                prod = slot_products.get(pair)
                if prod is None:
                    prod = slot_products[pair] = mul(*pair).terms
                combos = [(key + (mono,), c * s) for key, c in combos for mono, s in prod.items()]
                if not combos:
                    break
            accumulate(out, combos)
    return Element(X.ring, out)


def apply_on_slot(fn, X: Element, slot: int) -> Element:
    """Apply a linear map to one slot of a tensor.

    fn receives a single-monomial element of the algebra and may return
    a CycScalar (arity-lowering, e.g. a counit), an element of the algebra
    (arity-preserving) or a tensor (arity-raising, e.g. a coproduct).  The
    result arity follows from the first value returned; arity 1 gives an
    element of the algebra.
    """
    ring = X.ring
    if not 0 <= slot < ring.arity:
        raise ValueError("slot out of range")
    alg = ring.algebra
    cache = {}
    out = {}
    out_arity = None
    for key, c in X.terms.items():
        mono = key[slot]
        img = cache.get(mono)
        if img is None:
            val = fn(Element(alg, {mono: alg.field.one}))
            val_ring = val.ring if isinstance(val, Element) else None
            if isinstance(val, CycScalar):
                img = ({(): val} if val else {}, ring.arity - 1)
            elif val_ring is alg:
                img = ({(mo,): v for mo, v in val.terms.items()}, ring.arity)
            elif isinstance(val_ring, TensorPower):
                img = (val.terms, ring.arity - 1 + val_ring.arity)
            else:
                raise TypeError(f"slot map returned {type(val)!r}")
            cache[mono] = img
        pieces, arity = img
        if out_arity is None:
            out_arity = arity
        if arity != out_arity:
            raise ValueError("slot map must have a fixed output arity")
        accumulate(out, ((key[:slot] + mid + key[slot + 1:], c * v) for mid, v in pieces.items()))
    if out_arity is None:
        out_arity = ring.arity
    if out_arity == 1:
        return Element(alg, {k[0]: v for k, v in out.items()})
    return Element(alg.tensor_power(out_arity), out)
