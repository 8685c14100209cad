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
empirically by associativity_probe plus the dimension count, which
together pin down the normal-form basis.

Elements and tensor elements are immutable sparse maps with exact
cyclotomic coefficients; no zero coefficient is ever stored.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple

import numpy as np

from .cartan import LieDatum, lie_datum
from .cyclotomic import CycScalar, cyc_field


class Monomial(NamedTuple):
    group: tuple[int, ...]  # exponents of g_1..g_r, residues mod n^2
    pbw: tuple[int, ...]    # exponents of the ordered root vectors, < n^2


@dataclass(frozen=True)
class RewriteSystem:
    """Straightening data: adjacent-swap rules plus order reductions."""

    # (hi, lo) -> tuple of (coefficient, replacement letter word)
    swaps: dict
    nilpotent_order: int   # E^order = 0 for every root vector
    group_order: int       # g^order = 1 for every group generator


class BorelAlgebra:
    """The nilpotent-plus-torus algebra for a Cartan type at order n.

    cartan_type is a supported type name or a LieDatum; a datum without
    positive roots gives the group algebra of the torus.  rule_overrides,
    if given, replaces entries of the swap-rule table and exists so the
    test harness can inject corrupted rules and confirm the associativity
    probe catches them.
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
        if rule_overrides:
            swaps.update(rule_overrides)
        self.rewrite = RewriteSystem(swaps, self.m, self.m)
        self._letter_mul_cache = {}
        self.one = self.element({Monomial((0,) * self.rank, (0,) * self.nroots): self.field.one})

    # -- constructors --------------------------------------------------

    def monomial(self, group, pbw) -> Monomial:
        m = self.m
        group = tuple(a % m for a in group)
        pbw = tuple(pbw)
        assert len(group) == self.rank and len(pbw) == self.nroots
        assert all(0 <= b < m for b in pbw)
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
                    nxt = {}
                    for w, c in part.items():
                        for w2, c2 in self._letter_mul(lt, w).items():
                            acc = nxt.get(w2)
                            acc = c * c2 if acc is None else acc + c * c2
                            if acc:
                                nxt[w2] = acc
                            elif w2 in nxt:
                                del nxt[w2]
                    part = nxt
                for w, c in part.items():
                    acc = out.get(w)
                    acc = c if acc is None else acc + c
                    if acc:
                        out[w] = acc
                    elif w in out:
                        del out[w]
        self._letter_mul_cache[key] = out
        return out

    def _pbw_mul(self, p1: tuple, p2: tuple):
        """Normal form of (normal word p1) * (normal word p2)."""
        part = {p2: self.field.one}
        for letter in range(self.nroots - 1, -1, -1):
            for _ in range(p1[letter]):
                nxt = {}
                for w, c in part.items():
                    for w2, c2 in self._letter_mul(letter, w).items():
                        acc = nxt.get(w2)
                        acc = c * c2 if acc is None else acc + c * c2
                        if acc:
                            nxt[w2] = acc
                        elif w2 in nxt:
                            del nxt[w2]
                part = nxt
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
                for mz, cz in self.multiply_monomials(mx, my).terms.items():
                    acc = out.get(mz)
                    acc = c * cz if acc is None else acc + c * cz
                    if acc:
                        out[mz] = acc
                    elif mz in out:
                        del out[mz]
        return Element(self, out)

    # -- tensor layer --------------------------------------------------

    def tensor(self, terms, arity) -> "TensorElement":
        return TensorElement(self, arity, {k: v for k, v in terms.items() if v})

    def unit_tensor(self, arity) -> "TensorElement":
        key = (Monomial((0,) * self.rank, (0,) * self.nroots),) * arity
        return TensorElement(self, arity, {key: self.field.one})

    def tensor_of_elements(self, *factors) -> "TensorElement":
        """Outer product of Elements as a TensorElement."""
        terms = {(): self.field.one}
        for f in factors:
            nxt = {}
            for key, c in terms.items():
                for mono, cf in f.terms.items():
                    nxt[key + (mono,)] = c * cf
            terms = nxt
        return TensorElement(self, len(factors), terms)


class Element:
    """Immutable sparse linear combination of normal-form monomials."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: BorelAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int) and other == 0:
            return not self.terms
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.algebra), frozenset(self.terms.items())))

    def __add__(self, other):
        assert isinstance(other, Element) and other.algebra is self.algebra
        out = dict(self.terms)
        for k, v in other.terms.items():
            acc = out.get(k)
            acc = v if acc is None else acc + v
            if acc:
                out[k] = acc
            elif k in out:
                del out[k]
        return Element(self.algebra, out)

    def __neg__(self):
        return Element(self.algebra, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if isinstance(c, (int, Fraction)):
            c = self.algebra.field.from_rational(c)
        if not c:
            return Element(self.algebra, {})
        return Element(self.algebra, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.algebra.multiply(self, other)
        if isinstance(other, (int, Fraction, CycScalar)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, CycScalar)):
            return self.scale(other)
        return NotImplemented

    def coefficient(self, mono: Monomial) -> CycScalar:
        return self.terms.get(mono, self.algebra.field.zero)

    def __repr__(self):
        if not self.terms:
            return "Element(0)"
        parts = [f"{c!r}*g{list(m.group)}e{list(m.pbw)}" for m, c in sorted(self.terms.items())]
        return "Element(" + " + ".join(parts[:6]) + (" + ..." if len(parts) > 6 else "") + ")"


class TensorElement:
    """Immutable sparse element of the arity-fold tensor power."""

    __slots__ = ("algebra", "arity", "terms")

    def __init__(self, algebra: BorelAlgebra, arity: int, terms: dict):
        self.algebra = algebra
        self.arity = arity
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int) and other == 0:
            return not self.terms
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (
            self.algebra is other.algebra
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __add__(self, other):
        assert isinstance(other, TensorElement) and other.arity == self.arity
        out = dict(self.terms)
        for k, v in other.terms.items():
            acc = out.get(k)
            acc = v if acc is None else acc + v
            if acc:
                out[k] = acc
            elif k in out:
                del out[k]
        return TensorElement(self.algebra, self.arity, out)

    def __neg__(self):
        return TensorElement(self.algebra, self.arity, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if isinstance(c, (int, Fraction)):
            c = self.algebra.field.from_rational(c)
        if not c:
            return TensorElement(self.algebra, self.arity, {})
        return TensorElement(self.algebra, self.arity, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, TensorElement):
            return tensor_multiply(self, other)
        if isinstance(other, (int, Fraction, CycScalar)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, CycScalar)):
            return self.scale(other)
        return NotImplemented

    def coefficient(self, key) -> CycScalar:
        return self.terms.get(tuple(key), self.algebra.field.zero)

    def __repr__(self):
        return f"TensorElement(arity={self.arity}, terms={len(self.terms)})"


def tensor_multiply(X: TensorElement, Y: TensorElement) -> TensorElement:
    """Componentwise product in the tensor power (no braiding anywhere)."""
    if X.arity != Y.arity:
        raise ValueError(f"arity mismatch: {X.arity} vs {Y.arity}")
    alg = X.algebra
    out = {}
    slot_cache = {}
    for kx, cx in X.terms.items():
        for ky, cy in Y.terms.items():
            c = cx * cy
            # per-slot products, each possibly multi-term
            combos = [((), c)]
            dead = False
            for s in range(X.arity):
                pair = (kx[s], ky[s])
                prod = slot_cache.get(pair)
                if prod is None:
                    prod = alg.multiply_monomials(*pair).terms
                    slot_cache[pair] = prod
                if not prod:
                    dead = True
                    break
                nxt = []
                for prefix, pc in combos:
                    for mono, mc in prod.items():
                        nxt.append((prefix + (mono,), pc * mc))
                combos = nxt
            if dead:
                continue
            for key, kc in combos:
                acc = out.get(key)
                acc = kc if acc is None else acc + kc
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
    return TensorElement(alg, X.arity, out)


def apply_on_slot(fn, X: TensorElement, slot: int):
    """Apply a linear map to one tensor slot.

    fn receives a single-monomial Element and may return a CycScalar
    (arity-lowering, e.g. a counit), an Element (arity-preserving) or a
    TensorElement (arity-raising, e.g. a coproduct).  The result arity
    follows from the first value returned.
    """
    if not 0 <= slot < X.arity:
        raise ValueError("slot out of range")
    alg = X.algebra
    cache = {}
    out = {}
    out_arity = None
    for key, c in X.terms.items():
        mono = key[slot]
        img = cache.get(mono)
        if img is None:
            val = fn(Element(alg, {mono: alg.field.one}))
            if isinstance(val, CycScalar):
                img = ({(): val} if val else {}, X.arity - 1)
            elif isinstance(val, Element):
                img = ({(mo,): v for mo, v in val.terms.items()}, X.arity)
            elif isinstance(val, TensorElement):
                img = (val.terms, X.arity - 1 + val.arity)
            else:
                raise TypeError(f"slot map returned {type(val)!r}")
            cache[mono] = img
        pieces, arity = img
        if out_arity is None:
            out_arity = arity
        assert arity == out_arity, "slot map must have a fixed output arity"
        for mid, v in pieces.items():
            nk = key[:slot] + mid + key[slot + 1:]
            acc = out.get(nk)
            acc = c * v if acc is None else acc + c * v
            if acc:
                out[nk] = acc
            elif nk in out:
                del out[nk]
    if out_arity is None:
        out_arity = X.arity
    if out_arity == 1:
        return Element(alg, {k[0]: v for k, v in out.items()})
    return TensorElement(alg, out_arity, out)


def character_transform(field, values: np.ndarray, sign: int, step: int = 1) -> np.ndarray:
    """Exact character transform of a grid of scalars over (Z/size)^d, size = m / step.

    values is an object array of CycScalar with shape (size,) * d.  With
    q = zeta_m, sign = +1 evaluates characters and sign = -1 inverts that:

        out[z] = sum_a values[a] q^(step z.a),
        out[a] = size^(-d) sum_z values[z] q^(-step z.a).

    A Cartan tensor of arity k at rank r is a grid with d = r k axes, axis
    s r + i holding the exponent of g_i in slot s divided by step.  At
    step 1 the sign = -1 image of the indicator of z is the primitive
    idempotent 1_z = m^(-r) sum_a q^(-z.a) g^a; at step n it is the coarse
    idempotent B_z = n^(-r) sum_a q^(-n z.a) g^(n a).

    The sums run axis by axis on Python-int numerators over one common
    denominator, each scalar lifted to the group ring Z[Z/m] (coefficients
    of q^0 .. q^(m-1)), where multiplying by a power of q is a cyclic index
    shift.  Each cell is reduced to the power basis once at the end.
    """
    m = field.order
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if step < 1 or m % step:
        raise ValueError(f"step {step} must divide the field order {m}")
    size, d = m // step, values.ndim
    if values.shape != (size,) * d:
        raise ValueError(f"grid shape {values.shape} must be ({size},) * {d}")
    flat = values.reshape(-1)
    den = lcm(*(c.den for c in flat))
    pad = [0] * (m - field.degree)
    ring = np.array([[x * (den // c.den) for x in c.num] + pad for c in flat], dtype=object)
    ring = ring.reshape(values.shape + (m,))
    # out[.., z, .., j] = sum_a ring[.., a, .., j - sign step z a], one z at a time
    a = np.arange(size)
    shifts = (np.arange(m) - sign * step * np.outer(a, a)[:, :, None]) % m
    for axis in range(d):
        moved = np.moveaxis(ring, axis, -2)
        ring = np.stack([moved[..., a[:, None], s].sum(axis=-2) for s in shifts], axis=axis)
    if sign < 0:
        den *= size**d
    num = ring.reshape(-1, m) @ np.array(field.power_reductions[:m], dtype=object)
    out = np.empty(len(num), dtype=object)
    out[:] = [field.from_integers(row.tolist(), den) for row in num]
    return out.reshape(values.shape)


def cartan_terms(alg: BorelAlgebra, grid: np.ndarray, step: int = 1) -> dict:
    """{key: scalar} for the non-zero cells of a character_transform grid."""
    r = alg.rank
    zero_pbw = (0,) * alg.nroots
    out = {}
    for idx, c in np.ndenumerate(grid):
        if c:
            key = tuple(
                Monomial(tuple(step * a for a in idx[s:s + r]), zero_pbw)
                for s in range(0, grid.ndim, r)
            )
            out[key] = c
    return out


def invert_tensor(X: TensorElement) -> TensorElement:
    """Exact inverse in the tensor-power algebra.

    Two strategies: a single monomial term with trivial PBW parts inverts
    directly; a tensor supported entirely on the Cartan subalgebra is
    inverted pointwise in the character basis.  Anything else (e.g. a
    nilpotent-carrying tensor) raises ValueError.
    """
    alg = X.algebra
    if len(X.terms) == 1:
        (key, c), = X.terms.items()
        if all(not any(mono.pbw) for mono in key):
            nk = tuple(Monomial(tuple(-a % alg.m for a in mono.group), mono.pbw) for mono in key)
            return TensorElement(alg, X.arity, {nk: c.inv()})
    if not all(all(not any(mono.pbw) for mono in key) for key in X.terms):
        raise ValueError("tensor inversion needs Cartan support or a single invertible monomial")
    field = alg.field
    grid = np.full((alg.m,) * (alg.rank * X.arity), field.zero, dtype=object)
    for key, c in X.terms.items():
        grid[tuple(a for mono in key for a in mono.group)] = c
    diag = character_transform(field, grid, 1)
    if not all(diag.flat):
        raise ValueError("tensor is singular: a character evaluation vanished")
    inv = np.frompyfunc(CycScalar.inv, 1, 1)(diag)
    return TensorElement(alg, X.arity, cartan_terms(alg, character_transform(field, inv, -1)))


def associativity_probe(algebra: BorelAlgebra, samples: int = 100, seed: int = 0):
    """Exact (xy)z = x(yz) sweep; None on pass, else the first bad triple.

    Covers all triples of generators and single root-vector letters
    exhaustively (the composite letters exercise every straightening
    overlap), then `samples` random basis-monomial triples drawn with the
    given seed.
    """
    gens = algebra.generators()
    for letter in range(algebra.nroots):
        if letter not in algebra.e_letters:
            p = [0] * algebra.nroots
            p[letter] = 1
            gens.append(algebra.monomial_element((0,) * algebra.rank, p))
    for x, y, z in itertools.product(gens, repeat=3):
        if (x * y) * z != x * (y * z):
            return (x, y, z)
    rng = random.Random(seed)
    m = algebra.m
    for _ in range(samples):
        monos = [
            algebra.monomial_element(
                tuple(rng.randrange(m) for _ in range(algebra.rank)),
                tuple(rng.randrange(m) for _ in range(algebra.nroots)),
            )
            for _ in range(3)
        ]
        x, y, z = monos
        if (x * y) * z != x * (y * z):
            return (x, y, z)
    return None
