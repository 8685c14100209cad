"""Exact arithmetic in the cyclotomic field Q(zeta_m).

A scalar is a polynomial in zeta = exp(2*pi*i/m) reduced modulo the m-th
cyclotomic polynomial Phi_m, stored on the power basis

    1, zeta, zeta^2, ..., zeta^(phi(m)-1)

as a tuple of Python int numerators over one positive int denominator:
the value is sum(num[i] * zeta^i) / den.  The form is canonical because
gcd(den, *num) == 1 (zero is all-zero numerators over 1), so two scalars
are equal iff their (den, num) pairs are equal, which keeps equality
testing (the single most used predicate in this package) a tuple compare.
Sums and products are computed on the integers and divided by the gcd only
when the denominator is not 1; every constant of straightening and of the
coproducts lies in Z[zeta], so most scalars never leave den == 1.

Scalars that happen to be a rational multiple of a single power of zeta
carry an (a, k) tag, meaning value == (a / den) * zeta^k, so that products
of root-of-unity monomials cost O(1) exponent arithmetic and a product
with such a monomial costs one sparse shift instead of a polynomial
convolution.  Everything else falls back to dense convolution and
reduction by the precomputed sparse rows of x^k mod Phi_m.

No floating point anywhere; all arithmetic is exact.
"""

from __future__ import annotations

import functools
import sys
from math import gcd, lcm


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


def _poly_mul(a, b):
    """Product of two integer coefficient lists (low degree first)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_divmod(num, den):
    """Exact division of integer polynomials, den monic; returns (quot, rem)."""
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    num = list(num)
    q = [0] * max(1, len(num) - len(den) + 1)
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1]
        if c:
            q[k] = c
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


@functools.cache
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, low degree first, monic with integer entries.

    Computed by dividing x^m - 1 by the product of Phi_d over proper
    divisors d of m; the division is exact and a non-zero remainder
    raises ArithmeticError.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(3)
    (1, 1, 1)
    >>> cyclotomic_polynomial(9)
    (1, 0, 0, 1, 0, 0, 1)
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    num = [-1] + [0] * (m - 1) + [1]
    den = [1]
    for d in range(1, m):
        if m % d == 0:
            den = _poly_mul(den, list(cyclotomic_polynomial(d)))
    q, r = _poly_divmod(num, den)
    if r != [0]:
        raise ArithmeticError("cyclotomic division must be exact")
    return tuple(q)


class CycField:
    """The field Q(zeta_m) with precomputed reduction data.

    Use cyc_field(m) to obtain the cached instance; scalars from distinct
    instances never mix.
    """

    def __init__(self, m: int):
        self.order = m
        mod = cyclotomic_polynomial(m)
        self.modulus = mod
        self.degree = len(mod) - 1
        # x^k mod Phi_m for 0 <= k < max(m, 2*degree - 1), as integer tuples.
        # Covers both exponent interning (k < m) and post-convolution
        # reduction (k <= 2*degree - 2).
        top = max(m, 2 * self.degree - 1)
        red = []
        row = [0] * self.degree
        row[0] = 1
        red.append(tuple(row))
        for _ in range(1, top):
            prev = red[-1]
            row = [0] + list(prev[:-1])
            lead = prev[-1]
            if lead:
                for j in range(self.degree):
                    row[j] -= lead * mod[j]
            red.append(tuple(row))
        self.power_reductions = tuple(red)
        # The same rows as (index, coefficient) pairs of their non-zero
        # entries, which are few: reduction touches only those.
        self._sparse_reductions = tuple(
            tuple((j, c) for j, c in enumerate(row) if c) for row in red
        )
        self._power_index = {red[k]: k for k in range(m - 1, -1, -1)}
        self.zero = CycScalar(self, (0,) * self.degree, 1, (0, 0))
        self._powers = [CycScalar(self, red[k], 1, (1, k)) for k in range(m)]
        self.one = self._powers[0]

    def zeta_pow(self, k: int) -> "CycScalar":
        """The root of unity zeta^k in canonical form (interned)."""
        return self._powers[k % self.order]

    def from_rational(self, r) -> "CycScalar":
        """The scalar r, for an int or a Fraction r."""
        parts = rational_parts(r)
        if parts is None:
            raise TypeError(f"not an int or a Fraction: {r!r}")
        a, den = parts
        if not a:
            return self.zero
        return CycScalar(self, (a,) + (0,) * (self.degree - 1), den, (a, 0))

    def from_coeffs(self, coeffs) -> "CycScalar":
        """The scalar with the given int or Fraction power-basis coefficients."""
        parts = [rational_parts(c) for c in coeffs]
        if None in parts:
            raise TypeError(f"not ints or Fractions: {coeffs!r}")
        den = lcm(*(d for _, d in parts))
        return self.from_integers([a * (den // d) for a, d in parts], den)

    def from_integers(self, num, den: int) -> "CycScalar":
        """The scalar sum(num[i] * zeta^i) / den, for ints num and den > 0."""
        if len(num) != self.degree:
            raise ValueError("coefficient vector has wrong length")
        if den <= 0:
            raise ValueError("denominator must be positive")
        return self._canonical(num, den, None)

    def _canonical(self, num, den, mono):
        """Wrap num / den (den > 0) after dividing out gcd(den, *num).

        mono, if given, is the (a, k) tag of num / den before the division.
        """
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = [x // g for x in num]
                den //= g
                if mono is not None:
                    mono = (mono[0] // g, mono[1])
        return CycScalar(self, tuple(num), den, mono)

    def __repr__(self):
        return f"CycField({self.order})"


@functools.cache
def cyc_field(m: int) -> CycField:
    return CycField(m)


def zeta_pow(m: int, k: int) -> "CycScalar":
    """Module-level convenience for cyc_field(m).zeta_pow(k)."""
    return cyc_field(m).zeta_pow(k)


class CycScalar:
    """Immutable element of Q(zeta_m): int numerators num over den > 0.

    Canonical: gcd(den, *num) == 1.  The optional _mono tag (a, k) records
    that the value equals (a / den) * zeta^k with 0 <= k < m; it is an
    optimization only and never affects equality, which always compares
    (den, num).
    """

    __slots__ = ("field", "num", "den", "_mono", "_hash")

    def __init__(self, field: CycField, num: tuple, den: int, _mono=None):
        self.field = field
        self.num = num
        self.den = den
        self._mono = _mono

    @property
    def coeffs(self) -> tuple:
        """The power-basis coefficients as Fractions."""
        from fractions import Fraction

        den = self.den
        return tuple(Fraction(x, den) for x in self.num)

    # -- predicates ----------------------------------------------------

    def __bool__(self):
        return any(self.num)

    def as_q_power(self):
        """Exponent k with self == zeta^k, or None if not a pure power."""
        if self.den != 1:
            return None
        if self._mono is not None:
            return self._mono[1] if self._mono[0] == 1 else None
        return self.field._power_index.get(self.num)

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
            num = [x + y for x, y in zip(self.num, other.num)]
        else:
            g = gcd(da, db)
            ta, tb = db // g, da // g
            num = [x * ta + y * tb for x, y in zip(self.num, other.num)]
        a, b = self._mono, other._mono
        if a is not None and b is not None and a[1] == b[1]:
            mono = (a[0] * ta + b[0] * tb, a[1])
        else:
            mono = None
        return self.field._canonical(num, da * ta, mono)

    __radd__ = __add__

    def __neg__(self):
        mono = (-self._mono[0], self._mono[1]) if self._mono is not None else None
        return CycScalar(self.field, tuple(-x for x in self.num), self.den, mono)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if type(other) is not CycScalar or other.field is not self.field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self._mono, other._mono
        if a is not None and b is not None:
            r = a[0] * b[0]
            if not r:
                return self.field.zero
            den = self.den * other.den
            if den != 1:
                g = gcd(r, den)
                r, den = r // g, den // g
            k = (a[1] + b[1]) % self.field.order
            if r == 1 and den == 1:
                return self.field._powers[k]
            red = self.field.power_reductions[k]
            return CycScalar(self.field, tuple(r * c for c in red), den, (r, k))
        if a is not None:
            return other._scale_shift(a, self.den)
        if b is not None:
            return self._scale_shift(b, other.den)
        return self._dense_mul(other)

    __rmul__ = __mul__

    def _scale_shift(self, mono, mono_den):
        """self * (a / mono_den) * zeta^k via sparse reduction rows."""
        a, k = mono
        field = self.field
        if not a:
            return field.zero
        if k == 0 and a == mono_den == 1:
            return self
        m = field.order
        rows = field._sparse_reductions
        out = [0] * field.degree
        for i, c in enumerate(self.num):
            if c:
                ac = a * c
                for j, rj in rows[(i + k) % m]:
                    out[j] += ac * rj
        return field._canonical(out, self.den * mono_den, None)

    def _dense_mul(self, other):
        field = self.field
        deg = field.degree
        prod = [0] * (2 * deg - 1)
        bs = [(j, b) for j, b in enumerate(other.num) if b]
        for i, a in enumerate(self.num):
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
        return field._canonical(out, self.den * other.den, None)

    def inv(self):
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(zeta_m)")
        field = self.field
        if self._mono is not None:
            # ((a / den) zeta^k)^-1 = (den / a) zeta^-k
            a, k = self._mono
            den = -self.den if a < 0 else self.den
            rational = field._canonical((den,) + (0,) * (field.degree - 1), abs(a), (den, 0))
            return rational * field.zeta_pow(-k)
        s, c = _inverse_numerators(self.num, field.modulus)
        # (num / den)^-1 = den * s / c, made canonical with c > 0
        if c < 0:
            s, c = [-x for x in s], -c
        s = [self.den * x for x in s] + [0] * (field.degree - len(s))
        return field._canonical(s, c, None)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    # -- equality ------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, CycScalar):
            if rational_parts(other) is None:
                return NotImplemented
            other = self.field.from_rational(other)
        return self.field is other.field and self.den == other.den and self.num == other.num

    def __hash__(self):
        # computed on first use and kept: dict lookups keyed by scalars are hot
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.field.order, self.den, self.num))
            return self._hash

    def __repr__(self):
        if not self:
            return "Cyc(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                if i == 0:
                    parts.append(str(c))
                elif i == 1:
                    parts.append(f"{c}*z" if c != 1 else "z")
                else:
                    parts.append(f"{c}*z^{i}" if c != 1 else f"z^{i}")
        return f"Cyc[{self.field.order}]({' + '.join(parts)})"


def _inverse_numerators(num, modulus):
    """(s, c) with s * num == c (mod modulus) and c a non-zero int.

    Extended Euclid in Z[x] by pseudo-division: each step multiplies the
    dividend by a power of the divisor's leading coefficient, so the
    remainders r and cofactors s stay integral, and the invariant
    r == s * num (mod modulus) is kept by dividing both by their common
    content.  modulus is irreducible, so the last remainder is a non-zero
    constant c, and num^-1 = s / c.
    """
    a = list(num)
    while len(a) > 1 and not a[-1]:
        a.pop()
    r0, s0 = list(modulus), [0]
    r1, s1 = a, [1]
    while len(r1) > 1:
        lead, dn = r1[-1], len(r1) - 1
        # lead^(len(r0) - dn) * r0 = q * r1 + r, dividing from the top down
        r, q = list(r0), [0] * (len(r0) - dn)
        for k in range(len(r0) - dn - 1, -1, -1):
            c = r[k + dn]
            r = [lead * x for x in r]
            q = [lead * x for x in q]
            if c:
                q[k] = c
                for j, dj in enumerate(r1):
                    r[k + j] -= c * dj
        del r[dn:]
        while len(r) > 1 and not r[-1]:
            r.pop()
        scale = lead ** (len(r0) - dn)
        s = [scale * x for x in s0] + [0] * max(0, len(q) + len(s1) - 1 - len(s0))
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    s[i + j] -= qi * sj
        while len(s) > 1 and not s[-1]:
            s.pop()
        g = gcd(*r, *s)
        r0, s0, r1, s1 = r1, s1, [x // g for x in r], [x // g for x in s]
    if not r1[0]:
        raise ArithmeticError("modulus is irreducible, gcd must be a unit")
    return s1, r1[0]
