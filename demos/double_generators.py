#!/usr/bin/env python3

"""
The Drinfeld double D(u_q(b)) at type A1, n = 3: dimension 6561.  Its
elements live in the character basis psi_(alpha,k) x a, with
psi_(alpha,k)(g^x e^y) = delta_(y,k) q^(alpha x).  There the generators
E, F, K, K' of the full small quantum group are single terms
(character or degree-one functional) x (group element), and their
coproducts have a closed form: Delta(E) has two terms.  The dual basis
(dual monomial, monomial) is used only for the second tensor leg of the
R-matrix check and for exports.  The quantum group relations, the
printed coproduct formulas, the central grouplike family, the
bicharacter twist that restores the standard tensor-product coproducts,
and the R-matrix intertwiner are all checked exactly.
"""

from qborel import (
    bicharacter_twist,
    build_borel,
    build_double,
    central_grouplikes,
    identify_generators,
    r_matrix,
    r_matrix_check,
)
from qborel.double import (
    double_coproduct_formula_check,
    dtensor_add,
    dtensor_of,
    to_delta,
)

dbl = build_double(build_borel("A1", 3))
print(f"dim D(u_q(b)) = 81^2 = {dbl.dimension}")

gens = identify_generators(dbl)
assert gens["residual"] is None
t = gens["t"]
print(f"generators found with character parameter t = (m+1)/2 = {t}:")
print("  E  = psi_(0,0) x e              (the counit is psi_(0,0))")
print(f"  F  = q/(q - q^-1) * (psi_({t},1) x g^-1)")
print(f"  K  = psi_({t},0) x g,  K^-1 = psi_({9 - t},0) x g^-1,  K' = psi_({t - 1},0) x g")
names = ("E", "F", "K", "K_inv", "K_prime")
assert all(len(gens[name].terms) == 1 for name in names)
print("each one character key")
print("relations: K E K^-1 = q^2 E, K F K^-1 = q^-2 F,")
print("           [E, F] = (K - K^-1)/(q - q^-1), E^9 = F^9 = 0, K^9 = 1")
print("all verified exactly")
print()

assert double_coproduct_formula_check(dbl, gens) is None
print("coproducts in the double, before any twist:")
print("  Delta(E) = E x K K' + 1 x E")
print("  Delta(F) = F x K'^-1 + K^-1 x F")
assert len(dbl.coproduct(gens["E"])) == len(dbl.coproduct(gens["F"])) == 2
print("with K' central; both formulas hold term by term, two terms each")

centrals = central_grouplikes(dbl, gens)
print(f"central grouplikes: the {len(centrals)} powers z^k = psi_({t}k,0) x g^-k "
      f"of z = psi_({t},0) x g^-1,")
print("  which run over the family psi_(c,0) x g^-2c")
print()

tw = bicharacter_twist(dbl, gens, centrals)
E, F, K, K_inv = gens["E"], gens["F"], gens["K"], gens["K_inv"]
one = dbl.unit()
assert tw.twisted_coproduct(E) == dtensor_add(dtensor_of(E, K), dtensor_of(one, E))
assert tw.twisted_coproduct(F) == dtensor_add(
    dtensor_of(F, one), dtensor_of(K_inv, F)
)
assert tw.twisted_coproduct(K) == dtensor_of(K, K)
print("after the bicharacter twist J2 = sum_a P_a x z^a on those powers, a 2-cocycle")
print("since W = K^5 and z are certified grouplikes of order 9 that commute:")
print("  Delta(E) = E x K + 1 x E")
print("  Delta(F) = F x 1 + K^-1 x F")
print("  Delta(K) = K x K")
print("the standard small quantum group coproducts, recovered exactly")
print()

R = r_matrix(dbl)
print(f"canonical R-matrix: {len(to_delta(dbl, R, leg=0))} terms in the dual basis, "
      f"{len(R)} with its first leg in")
print("characters; checking the intertwiner")
print("R Delta(x) = Delta_op(x) R on E, F, K, K' (well under a second) ...")
assert r_matrix_check(dbl, gens, R=R) is None
print("intertwiner identity: exact")
