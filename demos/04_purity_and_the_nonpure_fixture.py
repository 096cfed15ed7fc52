#!/usr/bin/env python3
"""Purity of sequences of representations, and the fixture showing that
vertexwise purity does not imply purity.

The star of this script: over the two-vertex line with an injective module I,
the canonical copresentation of the sink stalk

    0 -> s_2(I) -> e^2(I) -> e^1(I) -> 0

splits at every vertex, yet fails to be pure as a sequence of
representations: its dual admits no natural retraction.
"""

from quiverhom import Modulus, is_pure_rep_ses, definitional_purity_check
from quiverhom.harness import nonpure_fixture_ses
from quiverhom.purity import rep_retraction
from quiverhom.rep import dual_rep_ses
from quiverhom.znmod import is_split as mod_is_split

for n in (4, 2, 9):
    ses = nonpure_fixture_ses(Modulus(n))
    print(f"--- I = Z/{n} over Z/{n} ---")
    print("middle:", ses.y, "| right:", ses.z)
    for v in (1, 2):
        print(f"  splits at vertex {v}:", mod_is_split(ses.vertex_ses(v)) is not None)
    verdict = is_pure_rep_ses(ses)
    print("  pure as a sequence of representations:", verdict.pure)
    print("  impurity witness:", verdict.witness)
    defin, tested, witness = definitional_purity_check(ses)
    print(f"  definitional check over {tested} test objects:", defin)
    # the dual sequence is the displayed non-split diagram: a stalk included
    # into an isomorphism representation
    dual = dual_rep_ses(ses)
    print("  dual sub term:", dual.f.source)
    print("  dual middle:", dual.f.target)
    print("  dual retraction exists:", rep_retraction(dual.f) is not None)
    print("  split as representations:", rep_retraction(ses.f) is not None)
