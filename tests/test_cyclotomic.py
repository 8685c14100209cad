"""Exactness tests for the cyclotomic scalar layer.

Expected values marked as frozen below were computed by the independent
oracles in this file (naive polynomial division / remainder with Fraction
arithmetic) before the implementation existed, then pinned.
"""

import doctest
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest

import qborel.cyclotomic as cyclotomic
from qborel.cyclotomic import CycScalar, cyc_field, cyclotomic_polynomial, zeta_pow


def _oracle_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _oracle_poly_div(num, den):
    """Exact quotient with Fraction arithmetic; asserts zero remainder."""
    num = [Fraction(c) for c in num]
    q = [Fraction(0)] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = num[k + len(den) - 1] / den[-1]
        q[k] = c
        for j, dj in enumerate(den):
            num[k + j] -= c * dj
    assert not any(num[: len(den) - 1]), "oracle division must be exact"
    return q


def _oracle_poly_rem(num, den):
    num = [Fraction(c) for c in num]
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1] / den[-1]
        for j, dj in enumerate(den):
            num[k + j] -= c * dj
    return num[: len(den) - 1]


def test_doctests():
    failures, _ = doctest.testmod(cyclotomic)
    assert failures == 0


def test_cyclotomic_base_cases():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)


def test_cyclotomic_9_against_division_oracle():
    # divide x^9 - 1 by (x - 1)(x^2 + x + 1) independently
    den = _oracle_poly_mul([-1, 1], [1, 1, 1])
    num = [-1] + [0] * 8 + [1]
    q = _oracle_poly_div(num, den)
    assert q == [1, 0, 0, 1, 0, 0, 1]  # frozen
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)


def test_cyclotomic_25():
    expect = tuple(1 if k % 5 == 0 else 0 for k in range(21))
    assert cyclotomic_polynomial(25) == expect


def test_zeta_pow_identity_and_order():
    F = cyc_field(9)
    assert F.zeta_pow(0) == F.one
    assert F.zeta_pow(9) == F.one
    assert zeta_pow(9, 4) * zeta_pow(9, 5) == F.one


def test_zeta6_mod_phi9_remainder_oracle():
    # x^6 mod Phi_9, computed by naive polynomial remainder
    rem = _oracle_poly_rem([0] * 6 + [1], list(cyclotomic_polynomial(9)))
    assert rem == [-1, 0, 0, -1, 0, 0]  # frozen: zeta^6 = -1 - zeta^3
    assert zeta_pow(9, 6).coeffs == (-1, 0, 0, -1, 0, 0)


def test_primitivity():
    for m in (9, 25):
        F = cyc_field(m)
        for k in range(1, m):
            assert F.zeta_pow(k) != F.one


def test_add_of_opposites():
    z = zeta_pow(9, 1)
    assert not (z + (-z))
    assert z + (-z) == cyc_field(9).zero


def test_invert_one_plus_zeta_m3():
    F = cyc_field(3)
    a = F.one + F.zeta_pow(1)
    # frozen from the extended-Euclid oracle: (1+z)(-z) = -z - z^2 = 1
    assert a.inv() == -F.zeta_pow(1)
    assert a * a.inv() == F.one


def test_invert_zero_raises():
    F = cyc_field(9)
    try:
        F.zero.inv()
    except ZeroDivisionError:
        pass
    else:
        raise AssertionError("expected ZeroDivisionError")


def _random_scalar(rng, F, allow_zero=False):
    while True:
        coeffs = [
            Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
            for _ in range(F.degree)
        ]
        s = F.from_coeffs(coeffs)
        if allow_zero or s:
            return s


def test_inverse_property_random():
    rng = random.Random(20230)
    for m in (3, 9, 25):
        F = cyc_field(m)
        for _ in range(12):
            a = _random_scalar(rng, F)
            assert a * a.inv() == F.one


def test_ring_axioms_random():
    rng = random.Random(4091)
    F = cyc_field(9)
    for _ in range(40):
        a = _random_scalar(rng, F, allow_zero=True)
        b = _random_scalar(rng, F, allow_zero=True)
        c = _random_scalar(rng, F, allow_zero=True)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)


def test_mono_fast_path_agrees_with_dense():
    rng = random.Random(77)
    F = cyc_field(9)
    for _ in range(30):
        j, k = rng.randrange(9), rng.randrange(9)
        fast = F.zeta_pow(j) * F.zeta_pow(k)
        dense_j = F.from_coeffs(F.zeta_pow(j).coeffs)
        dense_k = F.from_coeffs(F.zeta_pow(k).coeffs)
        assert dense_j._mono is None
        assert fast == dense_j._dense_mul(dense_k)


def test_as_q_power():
    F = cyc_field(25)
    for k in (0, 1, 7, 24):
        assert F.zeta_pow(k).as_q_power() == k
        dense = F.from_coeffs(F.zeta_pow(k).coeffs)
        assert dense.as_q_power() == k
    assert (F.zeta_pow(2) + F.one).as_q_power() is None
    assert F.from_rational(Fraction(1, 2)).as_q_power() is None


def test_rational_coercion():
    F = cyc_field(9)
    assert F.zeta_pow(3) * 1 == F.zeta_pow(3)
    assert 2 * F.one == F.from_rational(2)
    assert F.one / 2 == F.from_rational(Fraction(1, 2))
    assert (1 - F.zeta_pow(0)) == F.zero


def test_scalar_hash_consistency():
    F = cyc_field(9)
    a = F.zeta_pow(4)
    b = F.from_coeffs(a.coeffs)
    assert a == b and hash(a) == hash(b)


def _assert_canonical(s):
    F = s.field
    assert len(s.num) == F.degree
    assert all(type(x) is int for x in s.num) and type(s.den) is int
    assert s.den > 0 and gcd(s.den, *s.num) == 1
    if s._mono is not None:
        a, k = s._mono
        assert 0 <= k < F.order
        assert s.num == tuple(a * c for c in F.power_reductions[k])


def _oracle_mul(F, x, y):
    prod = _oracle_poly_mul(list(x), list(y))
    rem = _oracle_poly_rem(prod, list(F.modulus))
    return tuple(rem + [Fraction(0)] * (F.degree - len(rem)))


def _random_tagged(rng, F, k):
    """(r / d) * zeta^k, built through the tagged fast path."""
    r = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 10), rng.choice([1, 3, 9, 14]))
    return F.from_rational(r) * F.zeta_pow(k)


def test_integer_form_against_fraction_oracle():
    rng = random.Random(9025)
    for m, rounds in ((9, 12), (25, 3), (49, 1)):
        F = cyc_field(m)
        one = (Fraction(1),) + (Fraction(0),) * (F.degree - 1)
        for _ in range(rounds):
            # dense scalars with non-trivial denominators, and tagged ones
            # with non-unit rational tags, two of them sharing a power
            k = rng.randrange(F.order)
            d1, d2 = _random_scalar(rng, F), _random_scalar(rng, F)
            t1, t2 = _random_tagged(rng, F, k), _random_tagged(rng, F, k)
            t3 = _random_tagged(rng, F, rng.randrange(F.order))
            for a, b in ((d1, d2), (d1, t1), (t1, d1), (t1, t2), (t2, t3)):
                ca, cb = a.coeffs, b.coeffs
                expect = {
                    "+": tuple(x + y for x, y in zip(ca, cb)),
                    "-": tuple(x - y for x, y in zip(ca, cb)),
                    "*": _oracle_mul(F, ca, cb),
                }
                got = {"+": a + b, "-": a - b, "*": a * b}
                for op, want in expect.items():
                    s = got[op]
                    _assert_canonical(s)
                    assert s.coeffs == want, op
                    oracle = F.from_coeffs(want)
                    assert s == oracle and hash(s) == hash(oracle), op
                quo = a / b
                _assert_canonical(quo)
                assert _oracle_mul(F, quo.coeffs, cb) == ca
            for a in (d1, t1, t2, t3):
                inv = a.inv()
                _assert_canonical(inv)
                assert _oracle_mul(F, inv.coeffs, a.coeffs) == one


def _frac_divmod(num, den):
    num = list(num)
    dn = len(den) - 1
    inv_lead = 1 / den[-1]
    q = [Fraction(0)] * max(1, len(num) - dn)
    for k in range(len(num) - dn - 1, -1, -1):
        c = num[k + dn] * inv_lead
        if c:
            q[k] = c
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    while len(num) > 1 and not num[-1]:
        num.pop()
    return q, num


def _frac_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _frac_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _oracle_inv(x):
    """Power-basis coefficients of 1/x by extended Euclid over Q[x] with
    Fraction arithmetic (the implementation before the integer one)."""
    F = x.field
    a = list(x.coeffs)
    while len(a) > 1 and not a[-1]:
        a.pop()
    # invariants: r0 = s0*a (mod Phi), r1 = s1*a (mod Phi)
    r0, s0 = [Fraction(c) for c in F.modulus], [Fraction(0)]
    r1, s1 = a, [Fraction(1)]
    while len(r1) > 1:
        q, r = _frac_divmod(r0, r1)
        s = _frac_sub(s0, _frac_mul(q, s1))
        r0, s0, r1, s1 = r1, s1, r, s
    out = [c / r1[0] for c in s1]
    return tuple(out + [Fraction(0)] * (F.degree - len(out)))


def test_inverse_against_fraction_euclid_oracle():
    rng = random.Random(121)

    def scalar(F, support, size, den):
        coeffs = [Fraction(rng.randrange(-size, size + 1), rng.randrange(1, den + 1))
                  for _ in range(support)]
        return F.from_coeffs(coeffs + [0] * (F.degree - support))

    # at m = 121 the Fraction oracle takes minutes on a dense scalar, so the
    # scalars it sees there live on the first few powers of zeta
    for m, rounds, support in ((9, 8, 6), (25, 4, 20), (49, 1, 42), (121, 2, 5)):
        F = cyc_field(m)
        cases = [F.zeta_pow(1) - F.zeta_pow(-1), F.one + F.zeta_pow(m // 3)]
        for _ in range(rounds):
            cases.append(scalar(F, support, 9, 6))
            # a tagged scalar with a negative, non-unit rational coefficient
            k = rng.randrange(min(support, F.order))
            tagged = F.from_rational(Fraction(-rng.randrange(2, 50), rng.randrange(2, 50))) * F.zeta_pow(k)
            assert tagged._mono is not None
            cases.append(tagged)
            # large numerators over large denominators
            cases.append(scalar(F, 4 if m < 121 else 3, 10**9, 10**6))
        for x in cases:
            inv = x.inv()
            _assert_canonical(inv)
            assert inv.coeffs == _oracle_inv(x)
            assert x * inv == F.one and inv * x == 1
        with pytest.raises(ZeroDivisionError):
            F.zero.inv()
    # a dense scalar at m = 121 is checked by its product alone
    F = cyc_field(121)
    x = scalar(F, F.degree, 9, 6)
    assert x * x.inv() == F.one


def test_tagged_and_untagged_forms_hash_equal():
    for m in (9, 25, 49):
        F = cyc_field(m)
        for k in (0, 1, m - 1):
            tagged = F.from_rational(Fraction(1, 9)) * F.zeta_pow(k)
            assert tagged._mono is not None
            _assert_canonical(tagged)
            plain = F.from_coeffs(tagged.coeffs)
            assert plain._mono is None
            assert tagged == plain and hash(tagged) == hash(plain)


def test_proof_checks_survive_optimize_flag():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = (
        "from qborel.cyclotomic import _poly_divmod\n"
        "try:\n"
        "    _poly_divmod([1, 0, 1], [1, 2])\n"
        "except ValueError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
    assert proc.returncode == 0
