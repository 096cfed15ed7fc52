#!/usr/bin/env python3
"""Representations, the canonical maps at each vertex, hom groups, and the
right adjoint of restriction."""

from quiverhom import Modulus, Representation, cyclic, hom_reps, psi, phi, restrict, right_adjoint, stalk
from quiverhom.quiver import a2, out_arrows
from quiverhom.rep import coinduced
from quiverhom.znmod import ModHom, direct_sum_with_maps, kernel_of_hom

Z4 = Modulus(4)
q = a2()
m = cyclic(Z4, 4)

# X = (Z/4 --x2--> Z/4)
x = Representation(q, Z4, {1: m, 2: m}, {"a": ModHom(m, m, [[2]])})

# psi at a vertex collects the arrow maps into the product of the targets;
# with one outgoing arrow it is the arrow map itself
h = psi(x, 1)
_, _, projs = direct_sum_with_maps([x.vertex_modules[a.tgt] for a in out_arrows(q, 1)], Z4)
print("psi_1 codomain:", h.codomain, "| proj o psi == X(a):", projs[0].compose(h) == x.map("a"))
ker, incl = kernel_of_hom(h)
print("ker(psi_1) =", ker)

# phi is dual, indexed by incoming arrows
print("phi_2 matrix:", [list(r) for r in phi(x, 2).matrix])

# hom groups of representations solve the naturality equations exactly
grp, basis = hom_reps(x, x)
print("End(X) =", grp)

# the right adjoint of restriction: e^1(M) = (M -> 0), e^2(M) = (M --id--> M)
e1 = coinduced(q, Z4, 1, m).rep
print("e^1(Z/4):", e1)
e2 = coinduced(q, Z4, 2, m).rep
print("e^2(Z/4):", e2, "| arrow map:", [list(r) for r in e2.map("a").matrix])

# restricting the right adjoint along the full subquiver recovers the input
print("restrict(e^Q(X)) == X:", restrict(q, right_adjoint(q, q, x)) == x)
