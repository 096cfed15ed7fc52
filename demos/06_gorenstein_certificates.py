#!/usr/bin/env python3
"""Gorenstein strongly fp-injective representations and their certificates.

The running example: X = (Z/2 --id--> Z/2) over Z/4 on the two-vertex line.
Its components are not injective, so X is not an injective representation,
but every canonical map is surjective and X sits as a cycle inside a totally
acyclic complex of injective representations built from e^v's of free
modules with multiplication-by-2 splice maps.
"""

from quiverhom import Modulus, Representation, cyclic, classify_injective
from quiverhom.classify import classify_gorenstein_sfp, membership_psi_class
from quiverhom.homology import totally_acyclic_injective_complex
from quiverhom.quiver import a2
from quiverhom.znmod import gi_module_certificate, identity_hom, is_gi_certified, verify_gi_certificate

Z4 = Modulus(4)
q = a2()
m2 = cyclic(Z4, 2)
x = Representation(q, Z4, {1: m2, 2: m2}, {"a": identity_hom(m2)})

cv = classify_gorenstein_sfp(x, with_oracle=True, oracle_full=True)
print("Gorenstein strongly fp-injective:", cv.verdict)
print("injective:", classify_injective(x).verdict)
print("per-vertex evidence:", cv.evidence)

# the module-level certificate: a 2-periodic totally acyclic complex of free
# modules with Z/2 as the degree-zero cycle
cx, witness = gi_module_certificate(m2)
print("module certificate verifies:", verify_gi_certificate(m2, cx, witness))
print("differentials at degrees 0 and 1:",
      [list(r) for r in cx.diffs[0].matrix], [list(r) for r in cx.diffs[1].matrix])

# the representation-level certificate: a verified window of the totally
# acyclic complex, with Hom-exactness replayed against the test family
cert, err = totally_acyclic_injective_complex(x, depth=2, full=True)
print("window degrees:", cert.complex.degrees())
print("verification:", dict(cert.verification))
print("degree 0 component:", cert.complex.components[0])

# psi-class membership with the Gorenstein module predicate (the certificate
# replay above, memoized per module) realizes the same class
member = membership_psi_class(x, is_gi_certified)
print("psi-class membership:", member)

# a failing case: the sink stalk has a non-surjective canonical map
from quiverhom.rep import stalk

cert, err = totally_acyclic_injective_complex(stalk(q, Z4, 2, m2), depth=1)
print("sink stalk certificate:", cert, "|", err)
