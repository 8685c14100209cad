#!/usr/bin/env python3

"""
Build the quantum Borel algebra u_q(b) for type A1 at n = 3 and walk
through its exact structure: the PBW basis g^a e^b, straightening,
the coproduct Delta(e) = e x K + 1 x e, counit, and antipode.  Every
coefficient is a cyclotomic integer; nothing is floated.
"""

from qborel import build_borel

hopf = build_borel("A1", 3)
A = hopf.algebra
q = A.field

print(f"type A1, n = 3, m = n^2 = {A.m}")
print(f"dim u_q(b) = m^2 = {A.dimension}")
print()

g = A.generator_g(0)
e = A.generator_e(0)
K = hopf.K(0)

# the group generator has order m and e is nilpotent of order m
gm = g
for _ in range(A.m - 1):
    gm = gm * g
assert gm == A.one
em = e
for _ in range(A.m - 1):
    em = em * e
assert not em.terms
print(f"g^{A.m} = 1 and e^{A.m} = 0: exact")

# group commutation: e g = q^-1 g e, so K = g^2 gives K e K^-1 = q^2 e
lhs = e * g
rhs = (g * e).scale(q.zeta_pow(-1))
assert lhs == rhs
K_inv = hopf.K_inv(0)
assert K * e * K_inv == e.scale(q.zeta_pow(2))
print("e g = q^-1 g e, hence K e K^-1 = q^2 e for K = g^2")
print()

cop = hopf.coproduct(e)
print("Delta(e) = e x K + 1 x e with K = g^2:")
for (m1, m2), c in sorted(cop.terms.items()):
    print(f"  {c} * ({m1} x {m2})")
unit_m = A.monomial((0,), (0,))
e_m = A.monomial((0,), (1,))
K_m = A.monomial((2,), (0,))
assert cop == A.tensor({(e_m, K_m): q.one, (unit_m, e_m): q.one}, 2)
assert hopf.check_coproduct_multiplicative(e, g)
assert hopf.check_coassociativity(e * e)
print("coassociativity and Delta(xy) = Delta(x)Delta(y): exact")
print()

eps_e = hopf.counit(e)
eps_g = hopf.counit(g)
print(f"counit: eps(e) = {eps_e}, eps(g) = {eps_g}")
assert hopf.check_counit_laws(g * e)
print("counit laws (eps x id)Delta = id = (id x eps)Delta: exact")
S_e = hopf.antipode(e)
print("antipode: S(e) = " + " + ".join(f"{c} * {mono}" for mono, c in sorted(S_e.terms.items())))
assert hopf.check_antipode_axiom(e)
assert hopf.check_antipode_axiom(g * e)
print("antipode axiom m(S x id)Delta = eps 1: exact")
