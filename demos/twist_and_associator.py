#!/usr/bin/env python3

"""
The subalgebra A_q generated by g^n and e is not a sub-coalgebra of
u_q(b): Delta(e) has a bare K = g^2 leg.  A diagonal twist J supported
on the group algebra repairs this, and the price is an associator
Phi = dJ whose coefficients are powers of q^n.  Shown here for type A1
at n = 3, with the pentagon identity checked exactly.
"""

from qborel import (
    build_borel,
    build_subalgebra,
    build_twist,
    closed_form_associator,
    coboundary_matches_associator,
    pentagon_check,
)
from qborel.twist import membership_in_subalgebra_tensor, twisted_generator_bold

hopf = build_borel("A1", 3)
A = hopf.algebra
sub = build_subalgebra(hopf)
print(f"dim u_q(b) = {A.dimension}, dim A_q = {sub.count}")
print()

e = A.generator_e(0)
outside = membership_in_subalgebra_tensor(hopf.coproduct(e), sub)
assert outside is not None
print(f"untwisted Delta(e) leaves A_q x A_q at the term {outside}")

J = build_twist(hopf)
(step,), = J.tables
print("J = sum over characters of q^E(z,y) 1_z x 1_y with E(z,y) = z s(y), held as")
print(f"its one step table (rank 1 has one coordinate pair) s(y) = E(1, y), y = 0..{A.m - 1}:")
print(" ".join(f"{e:2d}" for e in step))
for z in range(A.m):
    assert [J.exponent((z,), (y,)) for y in range(A.m)] == [z * s % A.m for s in step]
assert step == [(-2 * (y - y % 3)) % 9 for y in range(9)]
print()

(f,), (t,) = twisted_generator_bold(hopf, J, 0)
assert (f, t) == ([0, 2, 4], [0, 0, 3])
print("twisted Delta_J(e) = sum q^F1[b][c] e B_b x B_c + q^F2[b][c] B_b x e B_c over")
print("the coarse idempotents B_b, so it lies in A_q x A_q.  F1 does not read b,")
print("and F2 is linear in b; at rank 1 Delta_J(e) is held as one row f and one")
print("step row t of n entries (r of each at rank r, one per coordinate):")
print(f"  pattern e x 1: F1[b][c] = {f}[c]")
print(f"  pattern 1 x e: F2[b][c] = b * {t}[c] mod {A.m}")
print()

phi = closed_form_associator(hopf)
assert coboundary_matches_associator(hopf, J, phi) is None
print("dJ = (1 x J)(id x Delta)(J) ((J x 1)(Delta x id)(J))^-1 equals the")
print("closed-form associator Phi, term by term, on all 27 idempotent triples")

assert pentagon_check(hopf, phi) is None
print("pentagon identity for Phi: exact")
print()

cells = [(1, 1, 1), (1, 2, 2), (2, 2, 2)]
for b, c, d in cells:
    print(f"Phi coefficient at 1_{b} x 1_{c} x 1_{d}: {A.field.zeta_pow(phi.exponent(b, c, d))}")
print("(each coefficient is a power of q^3; q^6 prints reduced modulo the")
print(" ninth cyclotomic polynomial as -1 - q^3)")
