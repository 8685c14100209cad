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
moving letters leftward one at a time; every straightening rule strictly
decreases (inversions, length) in lexicographic order, so the rewriting
terminates.  Confluence is not proved symbolically; it is certified
empirically by an exact associativity sweep over generator and seeded
random triples in the test suite, plus the dimension count, which
together pin down the normal-form basis.

Element is the one sparse type: an immutable map from basis keys to
exact cyclotomic coefficients, with no zero coefficient stored, over a
ring that supplies the field and the product.  The rings are a
BorelAlgebra (monomial keys), its tensor powers (TensorPower, keys are
tuples of monomials) and the Drinfeld double.  LetterExtension turns the
images of the generators into an (anti)multiplicative linear map; the
coproduct, the antipode and the twisted coproduct are such maps.
"""

from __future__ import annotations

import functools
import itertools
from math import lcm
from typing import NamedTuple

from .cartan import LieDatum, lie_datum
from .cyclotomic import CycScalar, cyc_field, rational_parts


class Monomial(NamedTuple):
    group: tuple[int, ...]  # exponents of g_1..g_r, residues mod n^2
    pbw: tuple[int, ...]    # exponents of the ordered root vectors, < n^2


class RewriteSystem(NamedTuple):
    """Straightening data: adjacent-swap rules plus order reductions."""

    # (hi, lo) -> tuple of (coefficient, replacement letter word)
    swaps: dict
    nilpotent_order: int   # E^order = 0 for every root vector
    group_order: int       # g^order = 1 for every group generator


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
    positive roots gives the group algebra of the torus.  rule_overrides,
    if given, replaces entries of the swap-rule table and exists so the
    test harness can inject corrupted rules and confirm the associativity
    sweep catches them.
    """

    def __init__(self, cartan_type: str | LieDatum, n: int, rule_overrides=None):
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
        swaps = {}
        if self.cartan_type == "A2":
            # letters 0,1,2 = e_1, e_12, e_2 with e_12 = e_1 e_2 - q^(-1) e_2 e_1
            q = self.field.zeta_pow(1)
            qi = self.field.zeta_pow(-1)
            swaps = {
                (2, 0): ((q, (0, 2)), (-q, (1,))),
                (1, 0): ((qi, (0, 1)),),
                (2, 1): ((qi, (1, 2)),),
            }
            self.composite_letters = {1: ((self.field.one, (0, 2)), (-qi, (2, 0)))}
        if rule_overrides:
            swaps.update(rule_overrides)
        self.rewrite = RewriteSystem(swaps, self.m, self.m)
        self._letter_mul_cache = {}
        self._tensor_powers = {}
        # (m1, m2) -> the terms of m1 m2, lifted for tensor_multiply: 468 pairs
        # at (A1, 3) and 8,700 at (A1, 5) once the double is built
        self._lifted_products = {}
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

    def _letter_mul(self, letter: int, pbw: tuple):
        """Normal form of E_letter * (normal word), as {pbw: coeff}."""
        key = (letter, pbw)
        cached = self._letter_mul_cache.get(key)
        if cached is not None:
            return cached
        first = self._first_letter(pbw)
        if first is None or letter <= first:
            merged = list(pbw)
            merged[letter] += 1
            out = {} if merged[letter] >= self.m else {tuple(merged): self.field.one}
        else:
            rule = self.rewrite.swaps.get((letter, first))
            if rule is None:
                raise ValueError(f"no straightening rule for pair ({letter}, {first})")
            tail = list(pbw)
            tail[first] -= 1
            tail = tuple(tail)
            out = {}
            for coeff, word in rule:
                part = {tail: coeff}
                for lt in reversed(word):
                    part = self._letter_times(lt, part)
                accumulate(out, part.items())
        self._letter_mul_cache[key] = out
        return out

    def _letter_times(self, letter: int, part: dict) -> dict:
        """Normal form of E_letter * (the words of part with their coefficients)."""
        out = {}
        for w, c in part.items():
            accumulate(out, ((w2, c * c2) for w2, c2 in self._letter_mul(letter, w).items()))
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
        part = {p2: self.field.one}
        for letter in range(self.nroots - 1, -1, -1):
            for _ in range(p1[letter]):
                part = self._letter_times(letter, part)
                if not part:
                    return part
        return part

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

    def unit_tensor(self, arity) -> "Element":
        return self.tensor_power(arity).one

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

    def __hash__(self):
        return hash((id(self.ring), frozenset(self.terms.items())))

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

    def __rmul__(self, other):
        if isinstance(other, CycScalar) or rational_parts(other) is not None:
            return self.scale(other)
        return NotImplemented

    def power(self, k: int) -> "Element":
        """self^k by repeated squaring: about 2 log2(k) products."""
        out, base = self.ring.one, self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def coefficient(self, key) -> CycScalar:
        return self.terms.get(key, self.ring.field.zero)

    def __repr__(self):
        items = sorted(self.terms.items())
        parts = [f"{c!r}*{k}" for k, c in items[:6]]
        more = f" + ... ({len(items)} terms)" if len(items) > 6 else ""
        return f"Element[{type(self.ring).__name__}: {' + '.join(parts) or '0'}{more}]"


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

    The sum runs on Python ints, in the lifted form that character_transform
    uses too.  Each coefficient c of X and of Y is lifted once (_lift),
    over its tensor's common denominator, to x q^e times a dense part: None
    when c is tagged as a rational multiple of one power of q, else the
    numerators of c as a scalar over 1.  Each slot product comes from
    multiply_monomials and is lifted the same way, over its own
    denominator, once per pair of slot monomials: the algebra keeps it
    (BorelAlgebra._lifted_products) for the next product that meets that
    pair; at (A1, 5) `verify --checks all` asks for 17,396 slot
    products of 8,700 pairs.  A term pair then contributes to an
    output key one exponent (the powers of q of all its factors added), one
    int (their x multiplied), the product of its dense parts, if it has any
    (one field product per distinct pair of dense parts), and a denominator.

    A key keeps its first contribution as it is.  A second one opens a row
    of m ints, the coefficients of q^0 .. q^(m-1) in the group ring Z[Z/m]
    over one denominator, and every further contribution is added into
    that row.  At the end each key is reduced mod Phi_m and canonicalized
    once: a row by _reduce, a single contribution by one shift of its dense
    part.  So no scalar is formed inside the sum, and a key reached once
    costs no row.
    """
    if X.ring is not Y.ring:
        raise ValueError("tensor_multiply needs two tensors of one arity over one algebra")
    alg = X.ring.algebra
    field = alg.field
    m = field.order
    mul = alg.multiply_monomials
    dx, xs = _lift_terms(X.terms)
    dy, ys = _lift_terms(Y.terms)
    dxy = dx * dy
    slot_cache = alg._lifted_products
    dense = {}  # (id(a), id(b)) -> a b; every dense part a, b stays alive in xs, ys,
    #            alg._lifted_products or here, so no id is reused
    out = {}  # key -> (e, x, dense part, den) for one contribution, a row for more

    def times(a, b):
        if a is None:
            return b
        if b is None:
            return a
        k = (id(a), id(b))
        got = dense.get(k)
        if got is None:
            got = dense[k] = a * b
        return got

    for kx, ex, cx, rx in xs:
        for ky, ey, cy, ry in ys:
            key, e, c, d = (), ex + ey, cx * cy, dxy
            r = rx if ry is None else ry if rx is None else times(rx, ry)
            combos = None  # the contributions, once a slot product has other than one term
            for pair in zip(kx, ky):
                prod = slot_cache.get(pair)
                if prod is None:
                    prod = slot_cache[pair] = tuple((mono, *_lift(s), s.den)
                                                    for mono, s in mul(*pair).terms.items())
                if combos is None:
                    if len(prod) == 1:
                        mono, es, cs, rs, ds = prod[0]
                        key += (mono,)
                        e += es
                        c *= cs
                        d *= ds
                        if rs is not None:
                            r = rs if r is None else times(r, rs)
                        continue
                    combos = [(key, e, c, r, d)]
                combos = [(key + (mono,), e + es, c * cs, times(r, rs), d * ds)
                          for key, e, c, r, d in combos for mono, es, cs, rs, ds in prod]
                if not combos:
                    break
            for key, e, c, r, d in combos if combos is not None else ((key, e, c, r, d),):
                row = out.get(key)
                if row is None:
                    out[key] = (e, c, r, d)
                    continue
                if type(row) is tuple:
                    e1, c1, r1, d1 = row
                    row = out[key] = [0] * m + [d1]
                    for j, v in _pairs(e1, c1, r1, m):
                        row[j] = v
                if d != row[m]:
                    c *= _rescale(row, d)
                if r is None:
                    row[e % m] += c
                else:
                    for i, y in enumerate(r.num):
                        if y:
                            row[(i + e) % m] += c * y
    terms = {}
    for key, row in out.items():
        if type(row) is tuple:
            e, c, r, d = row
            s = _tagged(field, e % m, c, d) if r is None else r._scale_shift((c, e % m), d)
        else:
            s = _reduce(field, [(j, x) for j, x in enumerate(row[:m]) if x], row[m])
            if not s:
                continue
        terms[key] = s
    return Element(X.ring, terms)


def _lift(c: CycScalar):
    """(e, x, r) with c = x q^e r / c.den, the lifted form of a scalar: r, its
    dense part, is None when c is tagged as a rational multiple of one power
    of q, else the numerators of c as a scalar over 1, with e = 0 and x = 1."""
    if c._mono is not None:
        a, k = c._mono
        return k, a, None
    return 0, 1, c if c.den == 1 else CycScalar(c.field, c.num, 1)


def _lift_terms(terms: dict):
    """(den, [(key, e, x, r)]): each coefficient c of terms lifted over their
    common denominator den, its x scaled by den / c.den.  Equal numerators
    share one dense part."""
    den = lcm(*(c.den for c in terms.values()))
    parts = {}
    out = []
    for key, c in terms.items():
        e, x, r = _lift(c)
        if r is not None:
            r = parts.setdefault(r.num, r)
        out.append((key, e, x * (den // c.den), r))
    return den, out


def _pairs(e: int, x: int, r, m: int) -> tuple:
    """x q^e r, r a dense part or None for 1, as the non-zero (power of q, int)
    pairs of an element of the group ring Z[Z/m]."""
    if r is None:
        return ((e % m, x),)
    return tuple(((i + e) % m, x * y) for i, y in enumerate(r.num) if y)


def _rescale(row: list, den: int) -> int:
    """Put row, ints over the denominator row[-1], over lcm(row[-1], den);
    returns the factor that takes a numerator over den to that denominator."""
    common = lcm(den, row[-1])
    up = common // row[-1]
    if up != 1:
        row[:-1] = [v * up for v in row[:-1]]
    row[-1] = common
    return common // den


def _tagged(field, k: int, x: int, den: int) -> CycScalar:
    """The canonical scalar x q^k / den, tagged, for 0 <= k < m and x != 0."""
    if x == 1 and den == 1:
        return field._powers[k]
    return field._canonical([x * v for v in field.power_reductions[k]], den, (x, k))


def _reduce(field, pairs, den: int) -> CycScalar:
    """The canonical scalar sum x q^j / den over the (j, x) of pairs, j < m:
    the one reduction mod Phi_m of a lifted sum; tagged when pairs is one
    pair."""
    if len(pairs) == 1:
        (j, x), = pairs
        return _tagged(field, j, x, den)
    num = [0] * field.degree
    rows = field._sparse_reductions
    for j, x in pairs:
        for i, rc in rows[j]:
            num[i] += x * rc
    return field._canonical(num, den, None)


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


def character_transform(field, cells: dict, sign: int, step: int = 1,
                        batch: int = 0) -> dict:
    """Exact character transform of sparse scalar cells over (Z/size)^d, size = m / step.

    cells maps an index to a CycScalar; absent cells are zero.  An index
    is batch leading keys, which label independent grids and pass through
    unchanged, followed by d residues in range(size).  With q = zeta_m,
    sign = +1 evaluates characters and sign = -1 inverts that:

        out[z] = sum_a cells[a] q^(step z.a),
        out[a] = size^(-d) sum_z cells[z] q^(-step z.a).

    The non-zero output cells are returned, keyed the same way.  A Cartan
    tensor of arity k at rank r has d = r k residues, residue s r + i
    holding the exponent of g_i in slot s divided by step.  At step 1 the
    sign = -1 image of the indicator of z is the primitive idempotent
    1_z = m^(-r) sum_a q^(-z.a) g^a; at step n it is the coarse idempotent
    B_z = n^(-r) sum_a q^(-n z.a) g^(n a).

    The sums run axis by axis on Python-int numerators over one common
    denominator, each scalar lifted (_lift, the form tensor_multiply sums
    in too) to the group ring Z[Z/m] as its non-zero (power of q,
    coefficient) pairs, where multiplying by a power of q shifts the power.
    A zero cell is skipped and a tagged scalar (a rational multiple of one
    power of q) is a single pair, so it costs one index shift per output
    cell.  Each cell is reduced to the power basis once at the end
    (_reduce).
    """
    m = field.order
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if step < 1 or m % step:
        raise ValueError(f"step {step} must divide the field order {m}")
    size = m // step
    if not cells:
        return {}
    width = len(next(iter(cells)))
    d = width - batch
    for idx in cells:
        if d < 0 or len(idx) != width or not all(0 <= a < size for a in idx[batch:]):
            raise ValueError(f"index {idx} must end in {d} residues below {size}")
    den = lcm(*(c.den for c in cells.values()))
    rings = {}
    for idx, c in cells.items():
        if c:
            e, x, r = _lift(c)
            rings[idx] = _pairs(e, x * (den // c.den), r, m)
    shift = sign * step
    for axis in range(batch, width):
        lines = {}
        for idx, pairs in rings.items():
            lines.setdefault(idx[:axis] + idx[axis + 1:], []).append((idx[axis], pairs))
        out = {}
        done = {}  # equal lines have equal transforms
        for rest, entries in lines.items():
            entries = tuple(entries)
            got = done.get(entries)
            if got is None:
                got = done[entries] = [_line_transform(entries, shift * z, m) for z in range(size)]
            head, tail = rest[:axis], rest[axis:]
            for z, pairs in enumerate(got):
                if pairs:
                    out[head + (z,) + tail] = pairs
        rings = out
    if sign < 0:
        den *= size**d
    result = {}
    done = {}
    for idx, pairs in rings.items():
        c = done.get(pairs)
        if c is None:
            c = done[pairs] = _reduce(field, pairs, den)
        if c:
            result[idx] = c
    return result


def _line_transform(entries, s, m):
    """sum over (a, pairs) of the group ring element pairs times q^(s a), as its non-zero pairs."""
    acc = [0] * m
    for a, pairs in entries:
        sa = s * a
        for k, c in pairs:
            acc[(k + sa) % m] += c
    return tuple((j, c) for j, c in enumerate(acc) if c)


def cartan_terms(alg: BorelAlgebra, cells: dict, step: int = 1) -> dict:
    """{key: scalar} for the non-zero cells of a character_transform result."""
    r = alg.rank
    zero_pbw = (0,) * alg.nroots
    return {
        tuple(Monomial(tuple(step * a for a in idx[s:s + r]), zero_pbw)
              for s in range(0, len(idx), r)): c
        for idx, c in cells.items() if c
    }


def invert_tensor(X: Element) -> Element:
    """Exact inverse in the tensor-power algebra.

    Two strategies: a single monomial term with trivial PBW parts inverts
    directly; a tensor supported entirely on the Cartan subalgebra is
    inverted pointwise in the character basis.  Anything else (e.g. a
    nilpotent-carrying tensor) raises ValueError.
    """
    alg = X.ring.algebra
    if len(X.terms) == 1:
        (key, c), = X.terms.items()
        if all(not any(mono.pbw) for mono in key):
            nk = tuple(Monomial(tuple(-a % alg.m for a in mono.group), mono.pbw) for mono in key)
            return Element(X.ring, {nk: c.inv()})
    if not all(all(not any(mono.pbw) for mono in key) for key in X.terms):
        raise ValueError("tensor inversion needs Cartan support or a single invertible monomial")
    field = alg.field
    cells = {tuple(a for mono in key for a in mono.group): c for key, c in X.terms.items()}
    diag = character_transform(field, cells, 1)
    if len(diag) != alg.m ** (alg.rank * X.ring.arity):
        raise ValueError("tensor is singular: a character evaluation vanished")
    inv = {idx: c.inv() for idx, c in diag.items()}
    return Element(X.ring, cartan_terms(alg, character_transform(field, inv, -1)))
