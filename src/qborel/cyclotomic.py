"""Exact arithmetic in the cyclotomic field Q(zeta_m), m odd.

A scalar is a polynomial in zeta = exp(2*pi*i/m) reduced modulo the m-th
cyclotomic polynomial Phi_m, read on the power basis

    1, zeta, zeta^2, ..., zeta^(phi(m)-1)

as a tuple of Python int numerators num over one positive int denominator
den: the value is sum(num[i] * zeta^i) / den, with gcd(den, *num) == 1
(zero is all-zero numerators over 1).  Sums and products are computed on
the integers and divided by the gcd only when the denominator is not 1;
every constant of straightening and of the coproducts lies in Z[zeta], so
most scalars never leave den == 1.

Each scalar is held in exactly one of two forms.  A monomial
(a / den) * zeta^k, the form of the twist, the associator and every
grouplike conjugation, is held by its tag (a, k) alone, with
gcd(a, den) == 1 and 0 <= k < m: a product of two costs O(1) exponent
arithmetic, and a product with any other scalar one sparse shift instead
of a polynomial convolution.  Every other scalar is held by its
numerators.  A monomial's numerators are formed only when read, as a
times the sparse row of x^k mod Phi_m; that row has content 1, so they
are canonical too.  The field holds those rows, each only its non-zero
entries, and no power of zeta: about max(m, 2 phi(m)) small rows, not m
dense vectors of phi(m) ints.

Two monomials are equal iff their (den, tag) pairs are: for odd m,
zeta^j is rational only when m divides j.  Any other pair of scalars is
compared, like every hash, by (den, num).

No polynomial is divided by another.  Phi_m is the Moebius product of
the binomials x^(m/s) - 1 over the squarefree divisors s of m, each
factor applied in one pass over the coefficients, and an inverse is
y / N(x) with y the product of the Galois conjugates sigma_k(x), k != 1
in (Z/m)^x (Washington, Introduction to Cyclotomic Fields, ch. 2).  A
binomial quotient that leaves a remainder, and a norm N(x) = x * y that
is not a non-zero rational, raise ArithmeticError, also under python -O.

No floating point anywhere; all arithmetic is exact.
"""

from __future__ import annotations

import functools
import sys
from math import gcd


def rational_parts(x):
    """(numerator, denominator) of an int or a fractions.Fraction, else None.

    fractions is looked up in sys.modules, not imported: no Fraction can
    exist until some caller has imported it, and the verifier never does.
    """
    if isinstance(x, int):
        return x.numerator, 1
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(x, fractions.Fraction):
        return x.numerator, x.denominator
    return None


def _divide_by_binomial(p, d):
    """The quotient of the integer polynomial p (low degree first) by
    x^d - 1, in one pass upwards: p = q * (x^d - 1) reads p[i] =
    q[i - d] - q[i] coefficient by coefficient.  A non-zero remainder
    raises ArithmeticError."""
    top = len(p) - d
    q = [-c for c in p[:top]]
    for i in range(d, top):
        q[i] += q[i - d]
    if any(c != (q[i - d] if i >= d else 0) for i, c in enumerate(p[top:], top)):
        raise ArithmeticError(f"x^{d} - 1 does not divide the polynomial")
    return q


def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, low degree first, monic with integer entries.

    Formed by the Moebius product Phi_m = prod (x^(m/s) - 1)^mu(s) over
    the squarefree divisors s of m: starting from 1, multiply by each
    factor with mu(s) = +1, then divide exactly by each factor with
    mu(s) = -1 (_divide_by_binomial), one pass over the coefficients a
    factor.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(3)
    (1, 1, 1)
    >>> cyclotomic_polynomial(9)
    (1, 0, 0, 1, 0, 0, 1)
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    # m / s over the squarefree divisors s of m, split by the sign of mu(s)
    plus, minus, rest, p = [m], [], m, 2
    while rest > 1:
        if p * p > rest:
            p = rest
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            plus, minus = plus + [d // p for d in minus], minus + [d // p for d in plus]
        p += 1
    phi = [1]
    for d in plus:
        phi = [hi - lo for lo, hi in zip(phi + [0] * d, [0] * d + phi)]
    for d in minus:
        phi = _divide_by_binomial(phi, d)
    return tuple(phi)


class CycField:
    """The field Q(zeta_m), m odd, with its sparse reduction rows.

    _sparse_reductions[k] holds the non-zero (index, coefficient) pairs of
    x^k mod Phi_m for 0 <= k < max(m, 2*phi(m) - 1): enough to reduce a
    convolution (degree <= 2*phi(m) - 2) and to read the numerators of
    any power of zeta.  Each row is the one before times x, its top
    coefficient c folded back as -c (Phi_m - x^phi(m)), so a row costs
    only its own support: one entry for k < phi(m), and at most p - 1 at
    m = p^2 for a prime p.  zeta_pow(k) forms zeta^k by its tag; the field
    keeps no power.

    An even m is refused: there zeta^(m/2) = -1, and two monomials could
    no longer be compared by their tags.

    Use cyc_field(m) to obtain the cached instance; scalars from distinct
    instances never mix.
    """

    def __init__(self, m: int):
        if m % 2 == 0:
            raise ValueError(f"the order m = {m} must be odd")
        self.order = m
        mod = self.modulus = cyclotomic_polynomial(m)
        deg = self.degree = len(mod) - 1
        fold = [(j, -c) for j, c in enumerate(mod[:-1]) if c]
        rows = [((0, 1),)]
        for _ in range(1, max(m, 2 * deg - 1)):
            row = {j + 1: c for j, c in rows[-1]}
            top = row.pop(deg, 0)
            for j, c in fold if top else ():
                row[j] = row.get(j, 0) + top * c
            rows.append(tuple((j, c) for j, c in row.items() if c))
        self._sparse_reductions = tuple(rows)
        self.zero = CycScalar(self, None, 1, (0, 0))
        self.one = self._monomial(1, 1, 0)

    def zeta_pow(self, k: int) -> "CycScalar":
        """The root of unity zeta^k, held by its tag alone."""
        return self._monomial(1, 1, k)

    def from_rational(self, r) -> "CycScalar":
        """The scalar r, for an int or a Fraction r."""
        parts = rational_parts(r)
        if parts is None:
            raise TypeError(f"not an int or a Fraction: {r!r}")
        return self._monomial(*parts, 0)

    def from_integers(self, num, den: int) -> "CycScalar":
        """The scalar sum(num[i] * zeta^i) / den, for ints num and den > 0."""
        if len(num) != self.degree:
            raise ValueError("coefficient vector has wrong length")
        if den <= 0:
            raise ValueError("denominator must be positive")
        return self._canonical(num, den)

    def _canonical(self, num, den):
        """Wrap the numerators num / den (den > 0) after dividing out gcd(den, *num)."""
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = [x // g for x in num]
                den //= g
        return CycScalar(self, tuple(num), den)

    def _monomial(self, a, den, k):
        """(a / den) * zeta^k (den > 0) by its canonical tag; zero for a == 0."""
        if not a:
            return self.zero
        if den != 1:
            g = gcd(a, den)
            a, den = a // g, den // g
        return CycScalar(self, None, den, (a, k % self.order))


@functools.cache
def cyc_field(m: int) -> CycField:
    return CycField(m)


class CycScalar:
    """Immutable element of Q(zeta_m) over a denominator den > 0.

    Held in one form: the tag _mono = (a, k), meaning the value is
    (a / den) * zeta^k with gcd(a, den) == 1 and 0 <= k < m, or else the
    numerators _num with gcd(den, *num) == 1.  num reads the numerators
    in either form.
    """

    __slots__ = ("field", "_num", "den", "_mono", "_hash")

    def __init__(self, field: CycField, num, den: int, _mono=None):
        self.field = field
        self._num = num
        self.den = den
        self._mono = _mono

    @property
    def num(self) -> tuple:
        """The power-basis numerators over den."""
        if self._mono is None:
            return self._num
        a, k = self._mono
        out = [0] * self.field.degree
        for j, c in self.field._sparse_reductions[k]:
            out[j] = a * c
        return tuple(out)

    # -- predicates ----------------------------------------------------

    def __bool__(self):
        return bool(self._mono[0]) if self._mono is not None else any(self._num)

    # -- coercion ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycScalar):
            if other.field is not self.field:
                raise ValueError("scalars from different cyclotomic fields")
            return other
        if rational_parts(other) is not None:
            return self.field.from_rational(other)
        return None

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        if type(other) is not CycScalar or other.field is not self.field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        da, db = self.den, other.den
        if da == db:
            ta = tb = 1
        else:
            g = gcd(da, db)
            ta, tb = db // g, da // g
        a, b = self._mono, other._mono
        if a is not None and b is not None and a[1] == b[1]:
            return self.field._monomial(a[0] * ta + b[0] * tb, da * ta, a[1])
        if da == db:
            num = [x + y for x, y in zip(self.num, other.num)]
        else:
            num = [x * ta + y * tb for x, y in zip(self.num, other.num)]
        return self.field._canonical(num, da * ta)

    __radd__ = __add__

    def __neg__(self):
        if self._mono is not None:
            return CycScalar(self.field, None, self.den, (-self._mono[0], self._mono[1]))
        return CycScalar(self.field, tuple(-x for x in self._num), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not CycScalar or other.field is not self.field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self._mono, other._mono
        if a is not None and b is not None:
            return self.field._monomial(a[0] * b[0], self.den * other.den, a[1] + b[1])
        if a is not None:
            return other._scale_shift(a, self.den)
        if b is not None:
            return self._scale_shift(b, other.den)
        return self._dense_mul(other)

    __rmul__ = __mul__

    def _scale_shift(self, mono, mono_den):
        """self * (a / mono_den) * zeta^k via sparse reduction rows; self
        holds numerators."""
        a, k = mono
        field = self.field
        if not a:
            return field.zero
        if k == 0 and a == mono_den == 1:
            return self
        m = field.order
        rows = field._sparse_reductions
        out = [0] * field.degree
        for i, c in enumerate(self._num):
            if c:
                ac = a * c
                for j, rj in rows[(i + k) % m]:
                    out[j] += ac * rj
        return field._canonical(out, self.den * mono_den)

    def _dense_mul(self, other):
        """self * other, both holding numerators."""
        field = self.field
        deg = field.degree
        prod = [0] * (2 * deg - 1)
        bs = [(j, b) for j, b in enumerate(other._num) if b]
        for i, a in enumerate(self._num):
            if a:
                for j, b in bs:
                    prod[i + j] += a * b
        out = prod[:deg]
        rows = field._sparse_reductions
        for k in range(deg, 2 * deg - 1):
            c = prod[k]
            if c:
                for j, rj in rows[k]:
                    out[j] += c * rj
        return field._canonical(out, self.den * other.den)

    def inv(self):
        """Multiplicative inverse; raises ZeroDivisionError on zero.

        A monomial inverts by its tag: ((a / den) zeta^k)^-1 =
        (den / a) zeta^-k.  Numerators x = num invert by their Galois
        conjugates: sigma_k(zeta) = zeta^k for k in (Z/m)^x is an
        automorphism, so y = prod_(k != 1) sigma_k(x) makes the norm
        N(x) = x * y rational and non-zero, and (x / den)^-1 = den * y /
        N(x).  Each sigma_k(x) is read off the reduction rows, row
        k * i mod m for numerator i.  A norm that is not a non-zero
        rational raises ArithmeticError.
        """
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(zeta_m)")
        field = self.field
        if self._mono is not None:
            a, k = self._mono
            return field._monomial(-self.den if a < 0 else self.den, abs(a), -k)
        m, rows = field.order, field._sparse_reductions
        y = field.one
        for k in range(2, m):
            if gcd(k, m) == 1:
                conj = [0] * field.degree
                for i, c in enumerate(self._num):
                    if c:
                        for j, rj in rows[k * i % m]:
                            conj[j] += c * rj
                y = y * CycScalar(field, tuple(conj), 1)
        norm = (CycScalar(field, self._num, 1) * y).num
        if not norm[0] or any(norm[1:]):
            raise ArithmeticError(f"the norm {norm} of a non-zero scalar must be a non-zero rational")
        sign = -1 if norm[0] < 0 else 1
        return field._canonical([sign * self.den * c for c in y.num], abs(norm[0]))

    # -- equality ------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, CycScalar):
            if rational_parts(other) is None:
                return NotImplemented
            other = self.field.from_rational(other)
        if self.field is not other.field or self.den != other.den:
            return False
        if self._mono is not None and other._mono is not None:
            return self._mono == other._mono
        return self.num == other.num

    def __hash__(self):
        # computed on first use and kept: dict lookups keyed by scalars are hot
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.field.order, self.den, self.num))
            return self._hash

    def __repr__(self):
        from fractions import Fraction

        if not self:
            return "Cyc(0)"
        parts = []
        for i, c in enumerate(Fraction(x, self.den) for x in self.num):
            if c:
                if i == 0:
                    parts.append(str(c))
                elif i == 1:
                    parts.append(f"{c}*z" if c != 1 else "z")
                else:
                    parts.append(f"{c}*z^{i}" if c != 1 else f"z^{i}")
        return f"Cyc[{self.field.order}]({' + '.join(parts)})"
