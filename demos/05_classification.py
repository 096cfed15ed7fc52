#!/usr/bin/env python3
"""Classifying representations: injective, fp-injective, strongly
fp-injective, with their independent oracles, and the collapse that makes
all three coincide over Z/n."""

from quiverhom import (
    Modulus,
    Representation,
    classify_fp_injective,
    classify_injective,
    classify_strongly_fp_injective,
    cyclic,
    definitional_sfp_check,
    stalk,
)
from quiverhom.quiver import a2
from quiverhom.rep import coinduced
from quiverhom.znmod import ModHom, identity_hom

Z4 = Modulus(4)
q = a2()


def show(name, x):
    inj = classify_injective(x, with_oracle=True)
    fp = classify_fp_injective(x)
    sfp = classify_strongly_fp_injective(x, with_oracle=True)
    print(f"{name:22s} injective={inj.verdict} (oracle {inj.oracle})  "
          f"fp={fp.verdict}  strongly-fp={sfp.verdict} (definitional {sfp.oracle})")


m = cyclic(Z4, 4)
show("e^1(Z/4) = (Z/4->0)", coinduced(q, Z4, 1, m).rep)
show("e^2(Z/4) = (Z/4=Z/4)", coinduced(q, Z4, 2, m).rep)
show("s_2(Z/4) = (0->Z/4)", stalk(q, Z4, 2, m))
m2 = cyclic(Z4, 2)
show("(Z/2 --id--> Z/2)", Representation(q, Z4, {1: m2, 2: m2}, {"a": identity_hom(m2)}))

# the definitional check builds the first step of the canonical injective
# coresolution and tests it for purity: a pure step splits, so the input is
# injective; for the sink stalk that step is the non-pure fixture
ok, info = definitional_sfp_check(stalk(q, Z4, 2, m))
print("definitional check on s_2(Z/4):", ok, "| failed at degree", info["failure"]["degree"])
