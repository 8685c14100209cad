"""Exactness tests for the cyclotomic scalar layer.

Expected values marked as frozen below were computed by the independent
oracles in this file (naive polynomial division / remainder with Fraction
arithmetic) before the implementation existed, then pinned.
"""

import doctest
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd

import pytest

import qborel.cyclotomic as cyclotomic
from qborel.cyclotomic import CycField, CycScalar, cyc_field, cyclotomic_polynomial


def _coeffs(x):
    """The power-basis coefficients of the scalar x, as Fractions."""
    return tuple(Fraction(c, x.den) for c in x.num)


def _from_fractions(F, coeffs):
    """The scalar of F with these int or Fraction power-basis coefficients."""
    coeffs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in coeffs))
    return F.from_integers([int(c * den) for c in coeffs], den)


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


def _radical(n):
    return math.prod(p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p)))


def _spread(coeffs, step):
    """The coefficients of f(x^step), f given by coeffs."""
    out = [0] * (step * (len(coeffs) - 1) + 1)
    out[::step] = coeffs
    return tuple(out)


def test_cyclotomic_polynomial_against_its_divisors():
    # x^m - 1 is the product of Phi_d over the divisors d of m, and
    # Phi_(n^2)(x) = Phi_rad(n)(x^(n^2 / rad(n))); both are checked by
    # products alone, so no division is trusted here
    for m in range(1, 400, 2):
        prod = [1]
        for d in range(m, 0, -1):
            if m % d == 0:
                prod = _oracle_poly_mul(prod, list(cyclotomic_polynomial(d)))
        assert prod == [-1] + [0] * (m - 1) + [1], m
    for n in range(1, 100, 2):
        r = _radical(n)
        assert cyclotomic_polynomial(n * n) == _spread(cyclotomic_polynomial(r), n * n // r), n
    # the degree-86,184 Phi_(399^2) takes a pass per squarefree divisor of
    # 399^2; dividing x^m - 1 by the product of every Phi_d took 6 s
    start = time.perf_counter()
    phi = cyclotomic_polynomial(399**2)
    assert time.perf_counter() - start < 1
    assert phi == _spread(cyclotomic_polynomial(399), 399)


def test_zeta_pow_identity_and_order():
    F = cyc_field(9)
    assert F.zeta_pow(0) == F.one
    assert F.zeta_pow(9) == F.one
    assert F.zeta_pow(4) * F.zeta_pow(5) == F.one


def test_zeta6_mod_phi9_remainder_oracle():
    # x^6 mod Phi_9, computed by naive polynomial remainder
    rem = _oracle_poly_rem([0] * 6 + [1], list(cyclotomic_polynomial(9)))
    assert rem == [-1, 0, 0, -1, 0, 0]  # frozen: zeta^6 = -1 - zeta^3
    assert _coeffs(cyc_field(9).zeta_pow(6)) == (-1, 0, 0, -1, 0, 0)


def test_primitivity():
    for m in (9, 25):
        F = cyc_field(m)
        for k in range(1, m):
            assert F.zeta_pow(k) != F.one


def test_add_of_opposites():
    z = cyc_field(9).zeta_pow(1)
    assert not (z + (-z))
    assert z + (-z) == cyc_field(9).zero
    # two tags of one power cancel to the field's zero itself
    assert z * Fraction(2, 3) - z * Fraction(4, 6) is cyc_field(9).zero


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
        s = _from_fractions(F, coeffs)
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
        dense_j = F.from_integers(F.zeta_pow(j).num, 1)
        dense_k = F.from_integers(F.zeta_pow(k).num, 1)
        assert dense_j._mono is None
        assert fast == dense_j._dense_mul(dense_k)


def _remainder(F, k):
    """x^k mod Phi_m by integer long division by the monic Phi_m, padded
    to the degree."""
    num, mod, deg = [0] * k + [1], F.modulus, F.degree
    for top in range(k, deg - 1, -1):
        c = num[top]
        if c:
            for j, mj in enumerate(mod):
                num[top - deg + j] -= c * mj
    return num[:deg] + [0] * (deg - len(num))


def _keeps_no_power(F):
    """The field holds no scalar but zero and one, each by its tag alone,
    in its attributes or in any tuple, list or dict among them."""
    def scalars(v):
        if isinstance(v, CycScalar):
            yield v
        elif isinstance(v, (tuple, list, dict)):
            for x in v.values() if isinstance(v, dict) else v:
                yield from scalars(x)

    kept = [(s, s._mono, s._num) for s in scalars(list(vars(F).values()))]
    return kept == [(F.zero, (0, 0), None), (F.one, (1, 0), None)]


def _read_power(F, k):
    """The numerators of zeta^k, asserting the power holds its tag (1, k)
    alone before and after they are read."""
    power = F.zeta_pow(k)
    assert power._mono == (1, k % F.order) and power._num is None
    num = power.num
    assert power._mono == (1, k % F.order) and power._num is None
    return list(num)


def test_powers_hold_tags_only():
    # zeta^k is its tag alone under every exponent that names it, formed
    # when asked for and kept by no field; its numerators are formed when
    # read, never kept, and it equals its dense form
    F = CycField(25)
    assert _keeps_no_power(F)
    for k in (0, 1, 7, 24):
        assert F.zeta_pow(k) == F.zeta_pow(k + 25) == F.zeta_pow(k - 25)
        assert F.zeta_pow(k)._mono == F.zeta_pow(k - 25)._mono == (1, k)
        assert _read_power(F, k) == _read_power(F, k + 25) == _remainder(F, k)
        dense = F.from_integers(F.zeta_pow(k).num, 1)
        assert dense._mono is None and dense == F.zeta_pow(k)
        assert hash(dense) == hash(F.zeta_pow(k))
    assert _keeps_no_power(F)
    powers = {F.zeta_pow(k) for k in range(25)}
    assert len(powers) == 25
    assert F.zeta_pow(2) + F.one not in powers
    assert F.from_rational(Fraction(1, 2)) not in powers


@pytest.mark.parametrize("m", [9, 25, 49, 81, 121, 225])
def test_sparse_rows_and_powers_match_division(m):
    # every reduction row and the numerators of every power read off it
    # are the remainder of x^k by Phi_m from long division, a row holds its
    # non-zero entries only, and reading a power keeps no numerators
    F = CycField(m)
    assert _keeps_no_power(F)
    assert len(F._sparse_reductions) == max(m, 2 * F.degree - 1)
    for k, row in enumerate(F._sparse_reductions):
        dense = [0] * F.degree
        for j, c in row:
            assert c and not dense[j]
            dense[j] = c
        assert dense == _remainder(F, k)
    for k in range(m):
        assert _read_power(F, k) == _remainder(F, k)
    assert _keeps_no_power(F)


def test_field_of_order_79_squared_is_small():
    # the field holds sparse rows, zero and one: its m dense powers of
    # phi(m) ints would take 584 MB at m = 79^2 (phi = 6162)
    import tracemalloc

    tracemalloc.start()
    try:
        F = CycField(79**2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert _keeps_no_power(F)
    # the top power's row has several entries; reading it keeps nothing
    assert len(F._sparse_reductions[F.order - 1]) > 1
    assert _read_power(F, -1) == _remainder(F, F.order - 1)
    assert _keeps_no_power(F)


def test_even_order_refused():
    # at an even m, zeta^(m/2) = -1 and two tags could name one value
    for m in (2, 4, 18, 50):
        with pytest.raises(ValueError, match="odd"):
            CycField(m)


def test_rational_coercion():
    F = cyc_field(9)
    assert F.zeta_pow(3) * 1 == F.zeta_pow(3)
    assert 2 * F.one == F.from_rational(2)
    assert F.one * Fraction(1, 2) == F.from_rational(Fraction(1, 2))
    assert F.from_rational(1) - F.zeta_pow(0) == F.zero


def test_scalar_hash_consistency():
    # a value reached as a tag and as numerators is one key; zeta^6 and
    # zeta^8 have rows of several entries at m = 9
    F = cyc_field(9)
    for k in (4, 6, 8):
        a = F.zeta_pow(k)
        b = F.from_integers(a.num, a.den)
        assert a._mono is not None and b._mono is None
        assert a == b and hash(a) == hash(b)
        assert {a: k}[b] == k
        c = F.from_rational(Fraction(-5, 3)) * a
        d = F.from_integers(c.num, c.den)
        assert c._mono == (-5, k) and c.den == 3 and d._mono is None
        assert c == d and hash(c) == hash(d) and c != a


def _assert_canonical(s):
    F = s.field
    assert type(s.den) is int and s.den > 0
    if s._mono is not None:
        # a tag alone: (a / den) * zeta^k in lowest terms, zero only as F.zero
        a, k = s._mono
        assert s._num is None
        assert type(a) is int and type(k) is int and 0 <= k < F.order
        assert gcd(a, s.den) == 1 and (a or s is F.zero)
        assert list(s.num) == [a * c for c in _remainder(F, k)]
    num = s.num
    assert len(num) == F.degree
    assert all(type(x) is int for x in num)
    assert gcd(s.den, *num) == 1


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
            # with non-unit rational tags, two of them sharing a power;
            # t4 and t5 share a power k >= phi(m), whose row has several
            # entries, and t4 has a negative a over a denominator d > 1
            k = rng.randrange(F.order)
            high = rng.randrange(F.degree, F.order)
            d1, d2 = _random_scalar(rng, F), _random_scalar(rng, F)
            t1, t2 = _random_tagged(rng, F, k), _random_tagged(rng, F, k)
            t3 = _random_tagged(rng, F, rng.randrange(F.order))
            t4 = F.from_rational(Fraction(-rng.randrange(1, 10), rng.choice([11, 14]))) * F.zeta_pow(high)
            t5 = _random_tagged(rng, F, high)
            assert t4._mono[0] < 0 and t4.den > 1 and len(F._sparse_reductions[high]) > 1
            for t in (t1, t2, t3, t4, t5):
                assert t._num is None, t
            for a, b in ((d1, d2), (d1, t1), (t1, d1), (t1, t2), (t2, t3),
                         (t4, t5), (t5, t4), (t4, d2), (d2, t4), (t4, t3)):
                ca, cb = _coeffs(a), _coeffs(b)
                expect = {
                    "+": tuple(x + y for x, y in zip(ca, cb)),
                    "-": tuple(x - y for x, y in zip(ca, cb)),
                    "*": _oracle_mul(F, ca, cb),
                }
                got = {"+": a + b, "-": a - b, "*": a * b}
                for op, want in expect.items():
                    s = got[op]
                    _assert_canonical(s)
                    assert _coeffs(s) == want, op
                    oracle = _from_fractions(F, want)
                    assert s == oracle and hash(s) == hash(oracle), op
                quo = a * b.inv()
                _assert_canonical(quo)
                assert _oracle_mul(F, _coeffs(quo), cb) == ca
            for a in (d1, t1, t2, t3, t4, t5):
                inv = a.inv()
                _assert_canonical(inv)
                assert _oracle_mul(F, _coeffs(inv), _coeffs(a)) == one


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
    a = list(_coeffs(x))
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
        return _from_fractions(F, coeffs + [0] * (F.degree - support))

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
            assert _coeffs(inv) == _oracle_inv(x)
            assert x * inv == F.one and inv * x == 1
        with pytest.raises(ZeroDivisionError):
            F.zero.inv()
    # a dense scalar at m = 121 is checked by its product alone
    F = cyc_field(121)
    x = scalar(F, F.degree, 9, 6)
    assert x * x.inv() == F.one


def test_tagged_and_untagged_forms_hash_equal():
    # one value reached as a tag and as numerators: by its coefficients,
    # as zeta^a * zeta^b against zeta^a * (zeta^b + 1) - zeta^a, and zero
    # by cancellation against F.zero; the forms agree in ==, hash and bool
    for m in (9, 25, 49):
        F = cyc_field(m)
        pairs = []
        for k in (0, 1, m - 1):
            tagged = F.from_rational(Fraction(1, 9)) * F.zeta_pow(k)
            pairs.append((tagged, F.from_integers(tagged.num, tagged.den)))
            negative = F.from_rational(Fraction(-4, 7)) * F.zeta_pow(k)
            pairs.append((negative, F.from_integers(negative.num, negative.den)))
        for a, b in ((1, m - 1), (2, m - 3), (m - 2, m - 1)):
            za, zb = F.zeta_pow(a), F.zeta_pow(b)
            pairs.append((za * zb, za * (zb + 1) - za))
            c = F.from_rational(Fraction(-2, 3))
            pairs.append((c * za * zb, c * za * (zb + 1) - c * za))
            pairs.append((F.zero, (za + zb) - za - zb))
            pairs.append((F.zero, (za * Fraction(3, 5) + zb) - zb - za * Fraction(3, 5)))
        for tagged, plain in pairs:
            _assert_canonical(tagged)
            _assert_canonical(plain)
            assert tagged._mono is not None and plain._mono is None
            assert tagged == plain and plain == tagged
            assert hash(tagged) == hash(plain)
            assert bool(tagged) == bool(plain)


def test_proof_checks_survive_optimize_flag():
    # with asserts stripped, a quotient by x^d - 1 that leaves a remainder
    # (x^3 + 1 = x (x^2 - 1) + x + 1) raises, and so does an inverse whose
    # conjugates take in the non-unit k = 3 at m = 9: sigma_3(1 + 2 zeta)
    # = 1 + 2 zeta^3 is not rational, and neither is the norm
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = (
        "assert False, 'asserts must be stripped here'\n"
        "import math\n"
        "import qborel.cyclotomic as cyclotomic\n"
        "try:\n"
        "    cyclotomic._divide_by_binomial([1, 0, 0, 1], 2)\n"
        "except ArithmeticError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit(1)\n"
        "x = cyclotomic.cyc_field(9).from_integers([1, 2, 0, 0, 0, 0], 1)\n"
        "if x * x.inv() != 1:\n"
        "    raise SystemExit(4)\n"
        "cyclotomic.gcd = lambda *a: 1 if sorted(a) == [3, 9] else math.gcd(*a)\n"
        "try:\n"
        "    x.inv()\n"
        "except ArithmeticError as e:\n"
        "    raise SystemExit(0 if 'norm' in str(e) else 2)\n"
        "raise SystemExit(3)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
    assert proc.returncode == 0


# how Q(zeta_m) is stored: the two forms of a scalar (its tag, its kept
# numerators), the reduction rows and the two constructors, which only
# cyclotomic.py may read
SCALAR_INTERNALS = {"_mono", "_num", "_scale_shift", "_canonical", "_monomial",
                    "_sparse_reductions"}


def test_only_the_scalar_module_reads_the_scalar_format():
    # every other module of the package reaches scalars through their
    # arithmetic; report.scalar_doc reads num and den, the export schema
    import ast

    package = os.path.dirname(cyclotomic.__file__)
    readers = {}
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "cyclotomic.py":
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in SCALAR_INTERNALS:
                readers.setdefault(name, []).append(f"{node.attr} at line {node.lineno}")
    assert len([n for n in os.listdir(package) if n.endswith(".py")]) > 5
    assert readers == {}
