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
    twist_exponent_table,
)
from qborel.twist import (
    fine_membership_counterexample,
    membership_in_subalgebra_tensor,
    twisted_generator_fine,
)

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
fam = twisted_generator_fine(hopf, J, 0)
assert fine_membership_counterexample(hopf, fam) is None
print("twisted Delta_J(e): every idempotent component lies in A_q x A_q")
print()

expo = twist_exponent_table(hopf)
print(f"J = sum over characters of q^E(z,y) 1_z x 1_y, table {len(expo)} x {len(expo[0])}:")
for row in expo:
    print(" ".join(f"{e:2d}" for e in row))
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
    print(f"Phi coefficient at 1_{b} x 1_{c} x 1_{d}: {phi.coefficient(b, c, d)}")
print("(each coefficient is a power of q^3; q^6 prints reduced modulo the")
print(" ninth cyclotomic polynomial as -1 - q^3)")
