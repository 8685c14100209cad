#!/usr/bin/env python3

"""
Why A_q is quasi-Hopf and not merely a twisted Hopf algebra: the
associator restricts to a 3-cocycle on the grouplikes (Z/n)^r, and
that cocycle is not a coboundary.  At rank 1 the decision evaluates the
invariant sum_k w(1, k, 1) mod n, after checking exactly that it vanishes
on every coboundary; a cochain with invariant 0 goes to an exact sparse
solver over Z/n, whose witness or blocking functional is checked in
turn.  At n = 3 an exhaustive sweep over all 3^9 two-cochains confirms
it independently.
"""

from qborel import (
    brute_force_decision,
    build_borel,
    closed_form_associator,
    decide_coboundary,
    pentagon_check,
    restrict_associator,
)
from qborel.cocycle import AdditiveCochain, axis_restriction, coboundary_of

hopf = build_borel("A1", 3)
assoc = closed_form_associator(hopf)
w = restrict_associator(assoc)
print("type A1, n = 3: restricted cochain w(b,c,d) on Z/3, additive exponents:")
for b in range(w.L):
    print(f"  b = {b}: {[[w.entry(b, c, d) for d in range(w.L)] for c in range(w.L)]}")
assert pentagon_check(hopf, assoc) is None
print("w is a 3-cocycle: the pentagon holds exactly on the carry tables")
print()

dec = decide_coboundary(w)
assert not dec.trivial
print(f"not a coboundary, obstruction: {dec.obstruction}")

brute = brute_force_decision(w)
assert not brute.trivial
print("exhaustive check over all 3^9 = 19683 two-cochains agrees: no witness")
print()

# a genuine coboundary is decided trivial and the witness is recovered
mu = AdditiveCochain.from_flat(3, 1, 2, [0, 1, 2, 2, 0, 1, 1, 2, 0])
db = coboundary_of(mu)
dec2 = decide_coboundary(db)
assert dec2.trivial and coboundary_of(dec2.witness) == db
print("control: d(mu) for a 2-cochain mu has invariant 0 and is decided trivial,")
print("witness recovered by the solver and checked by its coboundary")
print()

w2 = restrict_associator(closed_form_associator(build_borel("A2", 5)))
dec3 = decide_coboundary(w2)
assert not dec3.trivial
print(f"type A2, n = 5 on (Z/5)^2: nontrivial, obstruction {dec3.obstruction['kind']}")
for axis in range(2):
    sub = axis_restriction(w2, axis)
    assert not decide_coboundary(sub).trivial
    print(f"  coordinate {axis} restriction alone already carries the class")
