"""Vertexwise Matlis duality D = `dual_rep` swaps the two halves of the
vertexwise characterizations.  X is projective (flat) over Q exactly when
DX is injective (fp-injective) over the opposite quiver: D turns the
universal map phi out of the sum of the sources into X(v) into the
universal map psi out of DX(v) into the product of the targets, a split
mono into a split epi, and Ext^1(X, S) into Ext^1(DS, DX), with D a
bijection on the simple stalks.  Each left-rooted verdict is checked here
against a reference that reads phi and Ext over Q itself."""

import random

from hypothesis import given, settings, strategies as st

from quiverhom.classify import (
    classify_flat,
    classify_fp_injective,
    classify_projective,
    simple_stalks,
)
from quiverhom.homology import ExtComputation, projective_generator
from quiverhom.quiver import has_directed_cycle, is_left_rooted, make_quiver
from quiverhom.rep import Representation, direct_sum_reps, double_dual_rep_iso, dual_rep, phi, psi
from quiverhom.znmod import FinMod, Modulus, canonical_chain, is_epi, is_injective_module, is_mono, random_hom, retraction_of, splits

# non-prime-power moduli among them
MODULI = (2, 3, 4, 6, 8, 9, 12, 36)


@st.composite
def quivers(draw):
    """Up to four vertices and five arrows drawn between any two of them:
    loops, cycles and parallel arrows included, and no vertex at all."""
    vertices = list(range(1, draw(st.integers(0, 4)) + 1))
    ends = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)) if vertices else st.nothing()
    pairs = draw(st.lists(ends, max_size=5)) if vertices else []
    return make_quiver(vertices, [(f"a{k}", s, t) for k, (s, t) in enumerate(pairs)])


@st.composite
def representations(draw):
    """A random representation with zero vertex modules allowed or, on an
    acyclic quiver half of the time, a sum of projective generators P_v."""
    q, modulus = draw(quivers()), Modulus(draw(st.sampled_from(MODULI)))
    if q.vertices and not has_directed_cycle(q) and draw(st.booleans()):
        tops = draw(st.lists(st.sampled_from(q.vertices), min_size=1, max_size=2))
        return direct_sum_reps([projective_generator(q, modulus, v) for v in tops])[0]
    divisors = modulus.divisors[1:]
    mods = {v: FinMod(modulus, canonical_chain(draw(st.lists(st.sampled_from(divisors), max_size=2)), modulus.n)) for v in q.vertices}
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    maps = {a.id: random_hom(rng, mods[a.src], mods[a.tgt]) for a in q.arrows}
    return Representation(q, modulus, mods, maps)


def reference_projective(x: Representation):
    """(verdict, mode, oracle) of the phi row over Q: phi split mono, by a
    retraction solve, with injective components, two-sided on left rooted
    quivers; the oracle is Ext^1(X, S) = 0 for every simple S."""
    q = x.quiver
    verdict = all(retraction_of(phi(x, v)) is not None and is_injective_module(x.vertex_modules[v]) for v in q.vertices)
    mode = "full" if is_left_rooted(q) else "necessity-only"
    oracle = None
    if not has_directed_cycle(q):
        oracle = all(ExtComputation(x, s).order(1) == 1 for s in simple_stalks(q, x.modulus))
    return verdict, mode, oracle


def triple(cv):
    return cv.verdict, cv.mode, cv.oracle


@given(representations())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_the_left_rooted_half_is_the_right_rooted_half_on_the_dual(x):
    dx = dual_rep(x)
    for v in x.quiver.vertices:
        # psi(X, v) is a split epi iff its dual phi(DX, v) is a split mono
        assert splits(psi(x, v)) == (retraction_of(phi(dx, v)) is not None), v
    projective = classify_projective(x, with_oracle=True)
    assert triple(projective) == reference_projective(x)
    flat = classify_flat(x, with_oracle=True)
    assert triple(flat) == triple(classify_fp_injective(dx, with_oracle=True))
    assert projective.mode == flat.mode == ("full" if is_left_rooted(x.quiver) else "necessity-only")
    iso = double_dual_rep_iso(x)
    assert all(is_mono(h) and is_epi(h) for h in iso.components.values())
