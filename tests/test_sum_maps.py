"""Every map into or out of a canonical direct sum is one product with the
sum's presentation (`znmod.map_into_sum`, `znmod.map_out_of_sum`).  Over Z,
sum_t P_t R_t S_t = [P_1 ... P_k] [R_1 S_1; ...; R_k S_k], so each such map
must equal the sum of its per-summand composites, folded here by `compose`
and `+` from the summands' injections and projections: psi, phi, the arrow
maps of `direct_sum_reps` and of `RightAdjointRep`,
`RightAdjointRep.transpose` and the components of
`copresentation_embedding`, which an explicit isomorphism also carries
onto the nested sum of separately built e^v(M_v) it replaced.  The sums
include zero summands, sums with no summands and sums whose factors do
not concatenate to a divisibility chain, whose injections and
projections are not 0/1 blocks.  `RightAdjointRep`, which slices its sums
from their presentations on demand, is also checked entry for entry
against its per-summand construction."""

import itertools


import pytest
from hypothesis import example, given, settings, strategies as st

from quiverhom.harness import Config, random_finmod, random_quiver, random_representation
from quiverhom.quiver import Path, Quiver, in_arrows, make_quiver, out_arrows, paths_from, trivial_path
from quiverhom.rep import (
    HomGroupRep,
    RepMorphism,
    Representation,
    RightAdjointRep,
    coinduced,
    coinduced_product,
    copresentation_embedding,
    direct_sum_reps,
    phi,
    psi,
    restrict,
    zero_rep,
)
from quiverhom.znmod import (
    FinMod,
    ModHom,
    Modulus,
    canonical_chain,
    direct_sum_with_maps,
    map_into_sum,
    map_out_of_sum,
    random_hom,
    zero_hom,
)

CONFIG = Config()
Z12 = Modulus(12)


def composite_sum(dom, cod, chains):
    """The sum of the composites h_1 o ... o h_k, one per chain (h_1, ...,
    h_k) of homs from dom to cod, by `compose` and `+`."""
    total = zero_hom(dom, cod)
    for first, *rest in chains:
        for h in rest:
            first = first.compose(h)
        total = total + first
    return total


@st.composite
def instances(draw):
    """(rng, x): a representation of a random acyclic quiver; Z/12 and Z/36
    give summands whose factors do not concatenate to a chain."""
    rng = draw(st.randoms(use_true_random=False))
    modulus = Modulus(draw(st.sampled_from([2, 4, 6, 12, 36])))
    q = random_quiver(rng, CONFIG, right_rooted=True, max_vertices=4, max_arrows=5)
    return rng, random_representation(rng, q, modulus, CONFIG)


def test_a_sum_outside_a_chain_has_injections_that_are_not_blocks():
    z4, z3 = FinMod(Z12, (4,)), FinMod(Z12, (3,))
    total, injs, projs = direct_sum_with_maps([z4, z3], Z12)
    assert total.factors == (12,)
    assert [h.matrix for h in injs] == [((9,),), ((8,),)]
    assert [h.matrix for h in projs] == [((1,),), ((2,),)]
    dom = FinMod(Z12, (12, 12))
    comps = [ModHom(dom, z4, [[1, 3]]), ModHom(dom, z3, [[2, 1]])]
    into = map_into_sum(dom, comps)
    assert into == composite_sum(dom, total, list(zip(injs, comps)))
    assert [p.compose(into) for p in projs] == comps
    back = [ModHom(z4, dom, [[3], [6]]), ModHom(z3, dom, [[4], [8]])]
    out = map_out_of_sum(back, dom)
    assert out == composite_sum(total, dom, list(zip(back, projs)))
    assert [out.compose(i) for i in injs] == back


def test_no_summands_and_zero_summands():
    dom, zero = FinMod(Z12, (2, 6)), FinMod(Z12, ())
    into = map_into_sum(dom, [])
    assert into.codomain.is_zero and into.matrix == ()
    out = map_out_of_sum([], dom)
    assert out.domain.is_zero and out.matrix == ((), ())
    comps = [zero_hom(dom, zero), ModHom(dom, FinMod(Z12, (4,)), [[2, 0]]), zero_hom(dom, zero)]
    total, injs, _ = direct_sum_with_maps([c.codomain for c in comps], Z12)
    assert map_into_sum(dom, comps) == composite_sum(dom, total, list(zip(injs, comps)))
    back = [zero_hom(zero, dom), ModHom(FinMod(Z12, (4,)), dom, [[0], [3]])]
    total, _, projs = direct_sum_with_maps([c.domain for c in back], Z12)
    assert map_out_of_sum(back, dom) == composite_sum(total, dom, list(zip(back, projs)))


def test_components_must_share_the_named_end():
    dom = FinMod(Z12, (12,))
    with pytest.raises(ValueError, match="^components do not start at the domain$"):
        map_into_sum(dom, [zero_hom(FinMod(Z12, (6,)), dom)])
    with pytest.raises(ValueError, match="^components do not end at the codomain$"):
        map_out_of_sum([zero_hom(dom, FinMod(Z12, (6,)))], dom)


@given(instances())
@settings(max_examples=60, deadline=None)
def test_psi_and_phi_are_the_composite_sums(instance):
    _, x = instance
    for v in x.quiver.vertices:
        arrows = out_arrows(x.quiver, v)
        total, injs, _ = direct_sum_with_maps([x.vertex_modules[a.tgt] for a in arrows], x.modulus)
        assert psi(x, v) == composite_sum(x.vertex_modules[v], total, [(i, x.map(a.id)) for i, a in zip(injs, arrows)])
        arrows = in_arrows(x.quiver, v)
        total, _, projs = direct_sum_with_maps([x.vertex_modules[a.src] for a in arrows], x.modulus)
        assert phi(x, v) == composite_sum(total, x.vertex_modules[v], [(x.map(a.id), p) for p, a in zip(projs, arrows)])


@given(instances(), st.integers(1, 3), st.booleans())
@settings(max_examples=60, deadline=None)
def test_direct_sum_arrow_maps_are_the_composite_sums(instance, count, with_zero):
    rng, x = instance
    reps = [x] + [random_representation(rng, x.quiver, x.modulus, CONFIG) for _ in range(count - 1)]
    if with_zero:
        reps.insert(rng.randrange(len(reps) + 1), zero_rep(x.quiver, x.modulus))
    total, injs, projs = direct_sum_reps(reps)
    for a in x.quiver.arrows:
        chains = [(i.components[a.tgt], r.map(a.id), p.components[a.src]) for i, r, p in zip(injs, reps, projs)]
        assert total.map(a.id) == composite_sum(total.vertex_modules[a.src], total.vertex_modules[a.tgt], chains)


def _subquiver(rng, q):
    """A random subquiver: some vertices, and some arrows between them."""
    vs = [v for v in q.vertices if rng.random() < 0.7] or [q.vertices[0]]
    arrows = [(a.id, a.src, a.tgt) for a in q.arrows if a.src in vs and a.tgt in vs and rng.random() < 0.6]
    return make_quiver(vs, arrows)


@given(instances())
@settings(max_examples=60, deadline=None)
def test_right_adjoint_arrow_maps_and_transposes_are_the_composite_sums(instance):
    rng, x = instance
    q = x.quiver
    qsub = _subquiver(rng, q)
    inner = random_representation(rng, qsub, x.modulus, CONFIG)
    ra = RightAdjointRep(q, qsub, inner)
    sub_ids = {a.id for a in qsub.arrows}
    for b in q.arrows:
        chains = []
        for p in ra.factor_keys[b.tgt]:
            if p.is_trivial and b.id in sub_ids:
                chain = (inner.map(b.id), ra.projection(b.src, trivial_path(b.src)))
            else:
                chain = (ra.projection(b.src, Path(b.src, p.target, (b,) + p.arrows)),)
            chains.append((ra.injection(b.tgt, p),) + chain)
        assert ra.rep.map(b.id) == composite_sum(ra.rep.vertex_modules[b.src], ra.rep.vertex_modules[b.tgt], chains)
    homs = HomGroupRep(restrict(qsub, x), inner)
    h = homs.from_coords([rng.randrange(d) for d in homs.group.factors])
    k = ra.transpose(x, h)
    for v in q.vertices:
        chains = [(ra.injection(v, p), h.components[p.target], x.along(p)) for p in ra.factor_keys[v]]
        assert k.components[v] == composite_sum(x.vertex_modules[v], ra.rep.vertex_modules[v], chains)


class ReferenceRightAdjoint:
    """`RightAdjointRep` built summand by summand, the reference: the sum at
    each vertex from `direct_sum_with_maps`, with every factor's injection
    and projection, and each arrow map through `map_into_sum` of its
    per-factor components, x(b) after the trivial projection or the
    projection onto the factor at b p."""

    def __init__(self, q, qsub, x):
        sub_vertices, sub_arrow_ids = set(qsub.vertices), {a.id for a in qsub.arrows}
        self.factor_keys = {
            v: tuple(p for p in paths_from(q, v) if p.target in sub_vertices and (p.is_trivial or p.arrows[-1].id not in sub_arrow_ids))
            for v in q.vertices
        }
        self.sums = {v: direct_sum_with_maps([x.vertex_modules[p.target] for p in keys], x.modulus) for v, keys in self.factor_keys.items()}
        maps = {}
        for b in q.arrows:
            comps = [
                x.map(b.id).compose(self.projection(b.src, trivial_path(b.src)))
                if p.is_trivial and b.id in sub_arrow_ids
                else self.projection(b.src, Path(b.src, p.target, (b,) + p.arrows))
                for p in self.factor_keys[b.tgt]
            ]
            maps[b.id] = map_into_sum(self.sums[b.src][0], comps)
        self.rep = Representation(q, x.modulus, {v: total for v, (total, _, _) in self.sums.items()}, maps)

    def injection(self, v, p):
        return self.sums[v][1][self.factor_keys[v].index(p)]

    def projection(self, v, p):
        return self.sums[v][2][self.factor_keys[v].index(p)]


@st.composite
def adjoint_instances(draw):
    """(q, qsub, inner): an acyclic quiver on at most 4 vertices, parallel
    arrows allowed; a subquiver that keeps some of the arrows between its
    vertices, so x(b) enters the arrow maps; and a representation of it
    over Z/12, Z/36 or Z/72 whose modules may be zero, so that the
    summands' factors often do not concatenate to a chain."""
    nv = draw(st.integers(1, 4))
    pairs = list(itertools.combinations(range(1, nv + 1), 2))
    ends = draw(st.lists(st.sampled_from(pairs), max_size=6)) if pairs else []
    q = make_quiver(range(1, nv + 1), [(f"a{k}", s, t) for k, (s, t) in enumerate(ends)])
    vs = draw(st.lists(st.sampled_from(q.vertices), unique=True))
    inside = [a for a in q.arrows if a.src in vs and a.tgt in vs]
    kept = draw(st.sets(st.sampled_from(inside))) if inside else set()
    qsub = Quiver(tuple(vs), tuple(a for a in inside if a in kept))
    modulus = Modulus(draw(st.sampled_from([12, 36, 72])))
    orders = st.lists(st.sampled_from(modulus.divisors), max_size=3)
    mods = {v: FinMod(modulus, canonical_chain(draw(orders), modulus.n)) for v in qsub.vertices}
    rng = draw(st.randoms(use_true_random=False))
    maps = {a.id: random_hom(rng, mods[a.src], mods[a.tgt]) for a in qsub.arrows}
    return q, qsub, Representation(qsub, modulus, mods, maps)


def _parallel_arrows_in_the_subquiver():
    """1 => 2 kept in the subquiver and 1 -> 3 -> 2 outside it, Z/12 at 1
    and Z/18 at 2 over Z/36: the sum at 1 is Z/12 + Z/18, outside a chain,
    and x(a) and x(b) act on its trivial factor."""
    q = make_quiver([1, 2, 3], [("a", 1, 2), ("b", 1, 2), ("e", 1, 3), ("f", 3, 2)])
    qsub = make_quiver([1, 2], [("a", 1, 2), ("b", 1, 2)])
    z36 = Modulus(36)
    m1, m2 = FinMod(z36, (12,)), FinMod(z36, (18,))
    x = Representation(qsub, z36, {1: m1, 2: m2}, {"a": ModHom(m1, m2, [[3]]), "b": ModHom(m1, m2, [[15]])})
    return q, qsub, x


@given(adjoint_instances())
@example(_parallel_arrows_in_the_subquiver())
@settings(max_examples=150, deadline=None)
def test_right_adjoint_is_its_per_summand_construction(instance):
    q, qsub, x = instance
    ra, ref = RightAdjointRep(q, qsub, x), ReferenceRightAdjoint(q, qsub, x)
    assert dict(ra.factor_keys) == ref.factor_keys
    assert ra.rep == ref.rep
    for v, keys in ref.factor_keys.items():
        for p in keys:
            for got, want in ((ra.injection(v, p), ref.injection(v, p)), (ra.projection(v, p), ref.projection(v, p))):
                assert (got.domain, got.codomain, got.matrix) == (want.domain, want.codomain, want.matrix)
                assert all(type(row) is tuple and all(type(e) is int for e in row) for row in got.matrix)


def nested_copresentation_embedding(x, embeds):
    """The embedding as it was first built, the reference: a sum over the
    vertices v of the separately built e^v(M_v), with one product into each
    e^v(M_v) and then one into their sum.  Returns the embedding, the
    summands and the sum's projections."""
    q, modulus = x.quiver, x.modulus
    singles = [coinduced(q, modulus, v, embeds[v].codomain) for v in q.vertices]
    total, _, projs = direct_sum_reps([s.rep for s in singles])
    comps = {}
    for w in q.vertices:
        xw = x.vertex_modules[w]
        into = [map_into_sum(xw, [embeds[v].compose(x.along(p)) for p in s.factor_keys[w]]) for v, s in zip(q.vertices, singles)]
        comps[w] = map_into_sum(xw, into)
    return RepMorphism(x, total, comps), singles, projs


@st.composite
def embedding_instances(draw):
    """(x, embeds): homs out of the vertex modules of a representation, all
    into one module half the time, so that the homs at two vertices with
    equal modules can differ only in their entries."""
    rng, x = draw(instances())
    shared = random_finmod(rng, x.modulus, CONFIG) if rng.random() < 0.5 else None
    return x, {v: random_hom(rng, x.vertex_modules[v], shared or random_finmod(rng, x.modulus, CONFIG)) for v in x.quiver.vertices}


def _equal_ends():
    """Z/12 at both ends of one arrow, embedded by 1 and by 7."""
    m = FinMod(Z12, (12,))
    x = Representation(make_quiver([1, 2], [("a", 1, 2)]), Z12, {1: m, 2: m}, {"a": ModHom(m, m, [[5]])})
    return x, {1: ModHom(m, m, [[1]]), 2: ModHom(m, m, [[7]])}


@given(embedding_instances())
@example(_equal_ends())
@settings(max_examples=60, deadline=None)
def test_copresentation_embedding_is_the_flat_composite_sum(instance):
    x, embeds = instance
    q, modulus = x.quiver, x.modulus
    total, f = copresentation_embedding(x, embeds)
    flat = coinduced_product(q, modulus, {v: embeds[v].codomain for v in q.vertices})
    assert total == flat.rep and f.target is total
    # entry for entry: the factor at each path p out of w is embed_{target p} o X(p)
    for w in q.vertices:
        chains = [(flat.injection(w, p), embeds[p.target], x.along(p)) for p in flat.factor_keys[w]]
        assert f.components[w] == composite_sum(x.vertex_modules[w], total.vertex_modules[w], chains)
    # the nested sum carries its embedding onto this one: factor p of
    # e^v(M_v) goes to factor p of the flat product
    nested, singles, projs = nested_copresentation_embedding(x, embeds)
    iso = {}
    for w in q.vertices:
        chains = [
            (flat.injection(w, p), single.projection(w, p), proj.components[w])
            for single, proj in zip(singles, projs)
            for p in single.factor_keys[w]
        ]
        iso[w] = composite_sum(nested.target.vertex_modules[w], total.vertex_modules[w], chains)
    iso = RepMorphism(nested.target, total, iso)  # checks naturality
    assert iso.is_monomorphism and nested.target.total_cardinality == total.total_cardinality
    assert iso.compose(nested) == f

