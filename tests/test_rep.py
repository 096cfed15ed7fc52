import itertools
import random

import numpy as np
import pytest

from quiverhom.quiver import Quiver, a2, kronecker, loop_quiver, make_quiver, opposite
from quiverhom.rep import (
    HomGroupRep,
    RepMorphism,
    RepSES,
    Representation,
    RightAdjointRep,
    adjunction_check,
    cokernel_rep,
    copresentation_embedding,
    direct_sum_reps,
    dual_rep,
    dual_rep_morphism,
    dual_rep_ses,
    double_dual_rep_iso,
    hom_reps,
    identity_morphism,
    image_rep,
    ker_psi,
    kernel_rep,
    phi,
    phi_data,
    psi,
    psi_data,
    restrict,
    restriction_adjunction_check,
    coinduced,
    right_adjoint,
    stalk,
    tensor,
    TensorPresentation,
    zero_morphism,
    zero_rep,
)
from quiverhom.znmod import (
    FinMod,
    ModHom,
    Modulus,
    cyclic,
    hom_entry_orders,
    hom_entry_scales,
    identity_hom,
    is_epi,
    is_mono,
    zero_mod,
)

Z2 = Modulus(2)
Z4 = Modulus(4)


def rep_a2(modulus, m1, m2, mat):
    q = a2()
    return Representation(q, modulus, {1: m1, 2: m2}, {"a": ModHom(m1, m2, mat)})


def doubling_rep():
    m = cyclic(Z4, 4)
    return rep_a2(Z4, m, m, [[2]])


def test_psi_named_examples():
    x = doubling_rep()
    total, h, arrows, projs = psi_data(x, 1)
    # one outgoing arrow: psi is the arrow map in the product coordinate
    assert len(arrows) == 1
    assert projs[0].compose(h) == x.map("a")
    # at the sink the product is empty
    assert psi(x, 2).codomain.is_zero
    # stalk at the sink: psi at 1 is the zero map into the stalk value
    s = stalk(a2(), Z4, 2, cyclic(Z4, 4))
    h = psi(s, 1)
    assert h.domain.is_zero and h.codomain.factors == (4,)
    # Kronecker diagonal
    m = cyclic(Z2, 2)
    x = Representation(
        kronecker(), Z2, {1: m, 2: m},
        {"a": identity_hom(m), "b": identity_hom(m)},
    )
    total, h, arrows, projs = psi_data(x, 1)
    assert total.cardinality == 4
    for p in projs:
        assert p.compose(h) == identity_hom(m)


def test_phi_named_examples():
    x = doubling_rep()
    total, h, arrows, injs = phi_data(x, 2)
    assert h.compose(injs[0]) == x.map("a")
    # phi at a source vertex comes from the zero module
    assert phi(x, 1).domain.is_zero
    # two parallel arrows into 2
    m = cyclic(Z2, 2)
    x = Representation(kronecker(), Z2, {1: m, 2: m}, {"a": identity_hom(m), "b": ModHom(m, m, [[0]])})
    total, h, arrows, injs = phi_data(x, 2)
    assert h.compose(injs[0]) == x.map("a")
    assert h.compose(injs[1]) == x.map("b")


def test_kernel_cokernel_named_examples():
    x = doubling_rep()
    k = kernel_rep(identity_morphism(x))[0]
    assert k.is_zero
    z = zero_rep(a2(), Z4)
    c, _ = cokernel_rep(zero_morphism(z, x))
    assert c.vertex_modules[1] == x.vertex_modules[1]
    assert c.vertex_modules[2] == x.vertex_modules[2]
    ker, _ = ker_psi(x, 1)
    assert ker.factors == (2,)


def test_hom_reps_named_examples():
    q = a2()
    s1 = stalk(q, Z2, 1, cyclic(Z2, 2))
    s2 = stalk(q, Z2, 2, cyclic(Z2, 2))
    grp, basis = hom_reps(s1, s2)
    assert grp.is_zero and not basis
    x = doubling_rep()
    grp_xx = HomGroupRep(x, x)
    ident = identity_morphism(x)
    coords = grp_xx.coords(ident)
    assert grp_xx.from_coords(coords) == ident


def test_hom_reps_enumeration_matches_brute_force():
    # Hom((Z/4 --2--> Z/4), (Z/4 --2--> Z/4)): pairs (h1, h2) with 2 h1 = 2 h2
    x = doubling_rep()
    grp = HomGroupRep(x, x)
    brute = [(h1, h2) for h1 in range(4) for h2 in range(4) if (2 * h1) % 4 == (2 * h2) % 4]
    assert grp.cardinality == len(brute)
    seen = {(int(m.components[1].matrix[0, 0]), int(m.components[2].matrix[0, 0])) for m in grp.elements()}
    assert seen == set(brute)


def test_stalk_named_examples():
    q = a2()
    s = stalk(q, Z4, 2, cyclic(Z4, 4))
    assert s.vertex_modules[1].is_zero and s.vertex_modules[2].factors == (4,)
    assert stalk(q, Z4, 1, zero_mod(Z4)).is_zero
    with pytest.raises(KeyError):
        stalk(q, Z4, 7, cyclic(Z4, 2))


def test_restrict():
    x = doubling_rep()
    assert restrict(a2(), x) == x
    one = Quiver((1,), ())
    r = restrict(one, x)
    assert r.vertex_modules[1].factors == (4,)
    with pytest.raises(ValueError):
        restrict(Quiver((9,), ()), x)


def test_right_adjoint_named_examples():
    q = a2()
    m = cyclic(Z4, 4)
    # e^1(M) = (M -> 0)
    e1 = coinduced(q, Z4, 1, m).rep
    assert e1.vertex_modules[1].factors == (4,) and e1.vertex_modules[2].is_zero
    # e^2(I) = (I --id--> I): exactly one path from 1 to 2
    e2 = coinduced(q, Z4, 2, m).rep
    assert e2.vertex_modules[1].factors == (4,) and e2.vertex_modules[2].factors == (4,)
    assert is_mono(e2.map("a")) and is_epi(e2.map("a"))
    # restricting the right adjoint along the full subquiver gives back x
    x = doubling_rep()
    full = right_adjoint(q, q, x)
    assert restrict(q, full) == x


def test_restriction_adjunction_cardinality_and_bijection():
    rng = random.Random(9)
    q = make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])
    m = cyclic(Z4, 2)
    x = Representation(
        q, Z4,
        {1: cyclic(Z4, 4), 2: m, 3: cyclic(Z4, 4)},
        {"a": ModHom(cyclic(Z4, 4), m, [[1]]), "b": ModHom(m, cyclic(Z4, 4), [[2]])},
    )
    qsub = make_quiver([2, 3], [("b", 2, 3)])
    y = Representation(qsub, Z4, {2: cyclic(Z4, 4), 3: m}, {"b": ModHom(cyclic(Z4, 4), m, [[1]])})
    ok, info = restriction_adjunction_check(q, qsub, x, y)
    assert ok, info


def test_dual_rep_named_examples():
    x = doubling_rep()
    d = dual_rep(x)
    assert d.quiver == opposite(a2())
    assert d.vertex_modules[1].factors == (4,)
    # dual of doubling is doubling
    assert d.arrow_maps["a_op"].matrix[0, 0] == 2
    assert dual_rep(zero_rep(a2(), Z4)).is_zero
    dd = dual_rep(d)
    assert dd.quiver == a2()
    iso = double_dual_rep_iso(x)
    assert iso.is_monomorphism and iso.is_epimorphism


def test_dual_ses_and_split_preservation():
    x = doubling_rep()
    total, injs, projs = direct_sum_reps([x, x])
    s = RepSES(injs[0], projs[1])
    ds = dual_rep_ses(s)
    assert ds.f.source == dual_rep(s.z)
    assert ds.g.target == dual_rep(s.x)


def test_hom_group_near_the_modulus_cap():
    # HomSystem forms L @ scales @ R unreduced, up to (n - 1)**3, which the
    # cap keeps below 2**63; at n = 2 * 4294967311 it wrapped
    n = 2 * 1000003
    m = Modulus(n)
    two, big = cyclic(m, 2), cyclic(m, n)
    x = Representation(a2(), m, {1: two, 2: two}, {"a": ModHom(two, two, [[1]])})
    y = Representation(a2(), m, {1: big, 2: big}, {"a": ModHom(big, big, [[n - 1]])})
    assert HomGroupRep(x, y).cardinality == 2


def test_tensor_named_examples():
    q = a2()
    qop = opposite(q)
    m = cyclic(Z2, 2)
    y = stalk(qop, Z2, 1, m)
    x = stalk(q, Z2, 1, m)
    assert tensor(y, x).cardinality == 2
    # relations kill the target copy when the arrow map of x is surjective
    p1 = Representation(q, Z2, {1: m, 2: m}, {"a": identity_hom(m)})
    y2 = stalk(qop, Z2, 2, m)
    assert tensor(y2, p1).is_zero
    # additivity
    xx = direct_sum_reps([x, x])[0]
    assert tensor(y, xx).cardinality == tensor(y, x).cardinality ** 2


def test_adjunction_check_named_examples():
    q = a2()
    m = cyclic(Z2, 2)
    y = stalk(opposite(q), Z2, 1, m)
    x = stalk(q, Z2, 1, m)
    ok, info = adjunction_check(y, x)
    assert ok and info["cardinality"] == 2
    ok, _ = adjunction_check(y, zero_rep(q, Z2))
    assert ok
    # a denser example over Z/4
    x2 = doubling_rep()
    y2 = dual_rep(x2)
    ok, info = adjunction_check(y2, x2)
    assert ok, info


def test_copresentation_embedding_is_mono():
    q = a2()
    x = stalk(q, Z4, 2, cyclic(Z4, 4))
    embeds = {v: identity_hom(x.vertex_modules[v]) for v in q.vertices}
    total, f = copresentation_embedding(x, embeds)
    assert f.is_monomorphism
    # E = e^2(Z/4) since the vertex-1 module is zero
    assert total.vertex_modules[1].factors == (4,)
    assert total.vertex_modules[2].factors == (4,)
    coker, _ = cokernel_rep(f)
    # cokernel is e^1(Z/4) = (Z/4 -> 0)
    assert coker.vertex_modules[1].factors == (4,)
    assert coker.vertex_modules[2].is_zero


def test_image_rep():
    x = doubling_rep()
    f = RepMorphism(x, x, {1: ModHom(cyclic(Z4, 4), cyclic(Z4, 4), [[2]]), 2: ModHom(cyclic(Z4, 4), cyclic(Z4, 4), [[2]])})
    img, incl = image_rep(f)
    assert img.vertex_modules[1].factors == (2,)
    assert incl.is_monomorphism


def _random_instances(seed, count, moduli=(2, 4, 9)):
    from quiverhom.harness import Config, random_quiver, random_representation

    rng = random.Random(seed)
    cfg = Config()
    for _ in range(count):
        modulus = Modulus(rng.choice(moduli))
        q = random_quiver(rng, cfg, right_rooted=True, max_vertices=4, max_arrows=4)
        yield rng, q, modulus, random_representation(rng, q, modulus, cfg)


def test_psi_phi_universal_properties_random():
    # composing psi with each coordinate projection recovers the arrow map,
    # and dually for phi with the injections
    from quiverhom.quiver import out_arrows, in_arrows

    for rng, q, modulus, x in _random_instances(21, 40):
        for v in q.vertices:
            total, h, arrows, projs = psi_data(x, v)
            for a, p in zip(arrows, projs):
                assert p.compose(h) == x.map(a.id)
            total, h, arrows, injs = phi_data(x, v)
            for a, inj in zip(arrows, injs):
                assert h.compose(inj) == x.map(a.id)


def test_dual_rep_ses_exact_random():
    # duality sends vertexwise-exact sequences to vertexwise-exact reversed
    # sequences; the RepSES constructor certifies exactness on both sides
    from quiverhom.harness import random_rep_ses

    for rng, q, modulus, x in _random_instances(22, 25):
        ses = random_rep_ses(rng, x)
        dual = dual_rep_ses(ses)
        assert dual.f.source == dual_rep(ses.z)
        assert dual.g.target == dual_rep(ses.x)


def test_tensor_right_exact_random():
    # for any short exact sequence and any test object the induced sequence
    # of tensor groups is exact at the middle and right positions
    from quiverhom.harness import random_rep_ses, random_representation, Config
    from quiverhom.rep import tensor_induced
    from quiverhom.znmod import image_of_hom, kernel_of_hom

    cfg = Config()
    for rng, q, modulus, x in _random_instances(23, 20):
        ses = random_rep_ses(rng, x)
        s = random_representation(rng, opposite(q), modulus, cfg, max_rank=1)
        pres = {name: TensorPresentation(s, rep) for name, rep in (("x", ses.x), ("y", ses.y), ("z", ses.z))}
        ident = identity_morphism(s)
        sf = tensor_induced(pres["x"], pres["y"], ident, ses.f)
        sg = tensor_induced(pres["y"], pres["z"], ident, ses.g)
        img_g, _ = image_of_hom(sg)
        assert img_g.cardinality == pres["z"].module.cardinality  # right exact
        img_f, _ = image_of_hom(sf)
        ker_g, _ = kernel_of_hom(sg)
        assert img_f.cardinality == ker_g.cardinality  # exact at the middle
        assert not sg.compose(sf).matrix.any()


def _hom_matrices(dom, cod):
    """Every well-defined matrix dom -> cod, stacked as (count, r, s)."""
    orders = hom_entry_orders(dom.factors, cod.factors).reshape(-1)
    scales = hom_entry_scales(dom.factors, cod.factors).reshape(-1)
    coeffs = np.array(list(itertools.product(*[range(o) for o in orders])), dtype=np.int64)
    return (coeffs.reshape(len(coeffs), len(orders)) * scales).reshape(len(coeffs), cod.rank, dom.rank)


def _natural_transformations(x, y):
    """Every natural x -> y, by enumerating all tuples of vertex homs."""
    q = x.quiver
    mats = [_hom_matrices(x.vertex_modules[v], y.vertex_modules[v]) for v in q.vertices]
    grids = np.meshgrid(*[np.arange(len(m)) for m in mats], indexing="ij")
    picks = [g.reshape(-1) for g in grids]
    ok = np.ones(len(picks[0]), dtype=bool)
    pos = {v: t for t, v in enumerate(q.vertices)}
    for a in q.arrows:
        e = np.array(y.vertex_modules[a.tgt].factors, dtype=np.int64).reshape(1, -1, 1)
        src = mats[pos[a.src]][picks[pos[a.src]]]
        tgt = mats[pos[a.tgt]][picks[pos[a.tgt]]]
        lhs = np.einsum("jk,nki->nji", y.map(a.id).matrix, src)
        rhs = np.einsum("njk,ki->nji", tgt, x.map(a.id).matrix)
        ok &= ((lhs - rhs) % e == 0).reshape(len(ok), -1).all(axis=1)
    return [
        RepMorphism(x, y, {v: ModHom(x.vertex_modules[v], y.vertex_modules[v], mats[t][picks[t][k]]) for v, t in pos.items()})
        for k in np.flatnonzero(ok)
    ]


@pytest.mark.parametrize("quiver", [loop_quiver, kronecker], ids=["loop", "parallel"])
def test_hom_group_matches_enumeration_with_loops_and_parallel_arrows(quiver):
    # two terms of one arrow equation land on the same unknown for a loop,
    # and two equations share both unknowns for parallel arrows
    from quiverhom.harness import Config, random_representation

    rng = random.Random(7)
    cfg = Config()
    q = quiver()
    seen = 0
    while seen < 20:
        modulus = Modulus(rng.randint(2, 12))
        x = random_representation(rng, q, modulus, cfg)
        y = random_representation(rng, q, modulus, cfg)
        if any(r.vertex_modules[v].is_zero for r in (x, y) for v in q.vertices):
            continue
        total = 1
        for v in q.vertices:
            total *= int(hom_entry_orders(x.vertex_modules[v].factors, y.vertex_modules[v].factors).prod())
        if total > 2000:
            continue
        seen += 1
        naturals = _natural_transformations(x, y)
        grp = HomGroupRep(x, y)
        assert grp.cardinality == len(naturals)
        for f in naturals:
            assert grp.from_coords(grp.coords(f)) == f


def _natural_by_composites(x, y, comps):
    """The earlier naturality rule: compare the two checked composites."""
    return all(y.map(a.id).compose(comps[a.src]) == comps[a.tgt].compose(x.map(a.id)) for a in x.quiver.arrows)


def test_naturality_on_matrices_matches_composites():
    from quiverhom.harness import Config, random_representation
    from quiverhom.znmod import random_hom

    verdicts = []
    for rng, q, modulus, x in _random_instances(23, 40):
        y = random_representation(rng, q, modulus, Config())
        grp = HomGroupRep(x, y)
        for _ in range(3):
            coords = np.array([rng.randrange(d) for d in grp.group.factors], dtype=np.int64)
            comps = dict(grp.from_coords(coords).components)
            if rng.random() < 0.7:
                v = rng.choice(q.vertices)
                comps[v] = comps[v] + random_hom(rng, x.vertex_modules[v], y.vertex_modules[v])
            old = _natural_by_composites(x, y, comps)
            try:
                RepMorphism(x, y, comps)
                new = True
            except ValueError as exc:
                assert str(exc).startswith("naturality fails at arrow ")
                new = False
            assert new == old
            verdicts.append(new)
    assert True in verdicts and False in verdicts


def test_rep_ses_names_the_failing_vertex():
    # 0 -> 0 -> P_1 -> S_1 -> 0 on 1 -> 2 is exact at 1 and not at 2
    from quiverhom.io import FormatError, morphism_to_dict, quiver_to_dict, rep_block_to_dict, ses_from_dict

    m = cyclic(Z2, 2)
    p1 = rep_a2(Z2, m, m, [[1]])
    s1 = stalk(a2(), Z2, 1, m)
    zero = zero_rep(a2(), Z2)
    f = zero_morphism(zero, p1)
    g = RepMorphism(p1, s1, {1: identity_hom(m), 2: ModHom(m, zero_mod(Z2), np.zeros((0, 1), dtype=np.int64))})
    with pytest.raises(ValueError, match="^at vertex 2: cardinalities"):
        RepSES(f, g)
    payload = {
        "modulus": 2,
        "quiver": quiver_to_dict(a2()),
        "x": rep_block_to_dict(zero),
        "y": rep_block_to_dict(p1),
        "z": rep_block_to_dict(s1),
        "f": morphism_to_dict(f),
        "g": morphism_to_dict(g),
    }
    with pytest.raises(FormatError, match="^sequence is not short exact: at vertex 2: "):
        ses_from_dict(payload)
