#!/usr/bin/env python3

"""
Why A_q is quasi-Hopf and not merely a twisted Hopf algebra: the
associator restricts to a 3-cocycle w on the grouplikes (Z/n)^r, and
its class in H^3((Z/n)^r; Z/n) is not zero.  (Twists on the group part
take values in C^x, so gauging the structure away there asks about the
class of zeta_n^w in H^3((Z/n)^r; C^x); at rank 1 the two agree.)  The
class is read off the carry tables kappa_ij = n lambda_ij: each pair
(i, j) has a functional f_ij on 3-cochains, checked on every call to
vanish on every coboundary, whose value on w is the class coordinate
c_ij = sum_k lambda_ij(k, 1) mod n.  When every c_ij is 0, each table is
certified to be dmu_ij on its n^2 cells, and the witness follows.
"""

import itertools

from qborel import (
    build_borel,
    closed_form_associator,
    decide_coboundary,
    pentagon_check,
    restrict_associator,
)
from qborel.associator import Associator
from qborel.cocycle import (
    certified_value,
    certify_coboundary_functional,
    pair_functional,
)

hopf = build_borel("A1", 3)
assoc = closed_form_associator(hopf)
w = restrict_associator(assoc)
print("type A1, n = 3: restricted cochain w(b,c,d) on Z/3, additive exponents:")
for b in range(w.L):
    print(f"  b = {b}: {[[w.entry(b, c, d) for d in range(w.L)] for c in range(w.L)]}")
assert pentagon_check(hopf, assoc) is None
print("w is a 3-cocycle: the pentagon holds exactly on the carry tables")
print()

dec = decide_coboundary(assoc)
assert not dec.trivial
print(f"not a coboundary, obstruction: {dec.obstruction}")

# the certificate the verdict rests on: f_00 on its n cells (b, k, d) =
# (1, k, 1), checked to vanish on every coboundary, reads a non-zero value on w
cells = pair_functional(3, 1, 0, 0)
certify_coboundary_functional(cells, 3, 1)
value = certified_value(w, cells)
assert value == dec.obstruction["value"] != 0
print("f_00 = sum_k w(1, k, 1) reads w on the cells (b, c, d) with coefficients")
print("  " + ", ".join(f"{(cell // 9, cell // 3 % 3, cell % 3)}: {x}" for cell, x in cells))
print("f_00 vanishes on every coboundary: certify_coboundary_functional passes")
print(f"f_00(w) = {value} mod 3, not 0, so w is no coboundary")
print()

# control: the carry table n dmu of a 1-cochain mu has class 0, and the
# witness nu read off its normal form has dnu = w, checked on all 27 cells
mu = [0, 1, 1]
control = Associator(hopf, [[[[3 * (mu[x] + mu[y] - mu[(x + y) % 3]) for y in range(3)]
                              for x in range(3)]]])
dec2 = decide_coboundary(control)
assert dec2.trivial
nu, w0 = dec2.witness, restrict_associator(control)
for a, b, c in itertools.product(range(3), repeat=3):
    dnu = nu.entry(b, c) - nu.entry((a + b) % 3, c) + nu.entry(a, (b + c) % 3) - nu.entry(a, b)
    assert dnu % 3 == w0.entry(a, b, c)
print("control: the carry table n dmu is decided trivial, and the witness nu")
print("read off its normal form has dnu(a, b, c) = w(a, b, c) on all 27 cells")
print()

assoc2 = closed_form_associator(build_borel("A2", 5))
w2 = restrict_associator(assoc2)
dec3 = decide_coboundary(assoc2)
assert not dec3.trivial
print(f"type A2, n = 5 on (Z/5)^2: nontrivial, obstruction {dec3.obstruction['kind']}")
for i in range(2):
    for j in range(2):
        c = certified_value(w2, pair_functional(5, 2, i, j))
        assert c
        print(f"  pair ({i}, {j}): class coordinate c_{i}{j} = {c} mod 5")
