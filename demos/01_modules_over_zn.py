#!/usr/bin/env python3
"""Finite Z/n-modules: canonical forms, hom groups, duality, injectivity.

Everything in the toolkit is exact integer arithmetic; this walk-through
shows the module layer that the representation theory is built on.
"""

from math import gcd

from quiverhom import FinMod, ModHom, Modulus, cyclic, hom_group, present
from quiverhom.znmod import (
    is_injective_module,
    is_pure_module_ses,
    is_split,
    matlis_dual,
    matlis_dual_hom,
    ModSES,
)

Z4 = Modulus(4)
Z6 = Modulus(6)

# --- presentations -----------------------------------------------------------
# A module given by generators and relations is put into its invariant-factor
# canonical form.  One generator with the relation 2g = 0 over Z/4 is Z/2:
m, proj, sect = present([[2]], Z4)
print("coker(2: Z/4 -> Z/4) =", m)

# diag(2, 3) over Z/6 regroups into a single cyclic factor:
m, proj, sect = present([[2, 0], [0, 3]], Z6)
print("coker(diag(2,3)) over Z/6 =", m)

# --- hom groups --------------------------------------------------------------
grp, basis = hom_group(cyclic(Z4, 2), cyclic(Z4, 4))
print("Hom(Z/2, Z/4) over Z/4:", grp, "with", len(basis), "generator(s)")
# the generator doubles: it is the matrix [2]
print("generator matrix:", [list(r) for r in basis[0].matrix])

# --- Matlis duality ----------------------------------------------------------
# Hom(-, Z/n) is exact on finite modules and fixes invariant factors.
f = ModHom(cyclic(Z4, 4), cyclic(Z4, 4), [[2]])
print("dual of doubling is doubling:", [list(r) for r in matlis_dual_hom(f).matrix])
print("(Z/2)+ =", matlis_dual(cyclic(Z4, 2)))

# --- injectivity from invariant factors --------------------------------------
# sum Z/d_i is injective over Z/n iff gcd(d_i, n/d_i) = 1 for every i
print("Z/4 injective over Z/4:", is_injective_module(cyclic(Z4, 4)))
m = cyclic(Z4, 2)
# Baer's criterion names the failing ideal (k): the smallest k whose map
# (k) -> M, k |-> y, for a generator y of the (n/k)-torsion, has y outside kM
witness = next(
    k for k in Z4.divisors[:-1] if any((d // gcd(Z4.n // k, d)) % gcd(k, d) for d in m.factors)
)
print("Z/2 injective over Z/4:", is_injective_module(m), "| witness ideal:", witness)
# the witness is the ideal map (2) -> Z/2, 2 |-> 1, which cannot extend

# --- splitness and purity agree on finite modules -----------------------------
f = ModHom(cyclic(Z4, 2), cyclic(Z4, 4), [[2]])
g = ModHom(cyclic(Z4, 4), cyclic(Z4, 2), [[1]])
ses = ModSES(f, g)
print("0 -> Z/2 -> Z/4 -> Z/2 -> 0 split:", is_split(ses) is not None)
pure, witness = is_pure_module_ses(ses)
print("pure:", pure, "| failing divisor:", witness)
