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
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .cartan import LieDatum, lie_datum
from .cyclotomic import CycScalar, cyc_field


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
        """Normal form of (normal word p1) * (normal word p2)."""
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
        if isinstance(c, (int, Fraction)):
            c = self.ring.field.from_rational(c)
        if not c:
            return Element(self.ring, {})
        return Element(self.ring, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            self._same_ring(other)
            return self.ring.multiply(self, other)
        if isinstance(other, (int, Fraction, CycScalar)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, CycScalar)):
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
    """Componentwise product in the tensor power (no braiding anywhere)."""
    if X.ring is not Y.ring:
        raise ValueError("tensor_multiply needs two tensors of one arity over one algebra")
    alg = X.ring.algebra
    out = {}
    slot_cache = {}
    for kx, cx in X.terms.items():
        for ky, cy in Y.terms.items():
            c = cx * cy
            # per-slot products, each possibly multi-term
            combos = [((), c)]
            for pair in zip(kx, ky):
                prod = slot_cache.get(pair)
                if prod is None:
                    prod = slot_cache[pair] = alg.multiply_monomials(*pair).terms
                combos = [(prefix + (mono,), pc * mc)
                          for prefix, pc in combos for mono, mc in prod.items()]
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
    denominator, each scalar lifted to the group ring Z[Z/m] as its
    non-zero (power of q, coefficient) pairs, where multiplying by a power
    of q shifts the power.  A zero cell is skipped and a tagged scalar
    (a rational multiple of one power of q) is a single pair, so it costs
    one index shift per output cell.  Each cell is reduced to the power
    basis once at the end.
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
            scale = den // c.den
            if c._mono is not None:
                rings[idx] = ((c._mono[1], c._mono[0] * scale),)
            else:
                rings[idx] = tuple((i, x * scale) for i, x in enumerate(c.num) if x)
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
    reductions = field._sparse_reductions
    result = {}
    done = {}
    for idx, pairs in rings.items():
        c = done.get(pairs)
        if c is None:
            num = [0] * field.degree
            for j, x in pairs:
                for i, rc in reductions[j]:
                    num[i] += x * rc
            c = done[pairs] = field.from_integers(num, den)
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
