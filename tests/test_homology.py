import itertools
import math
import pathlib
import random
from collections import namedtuple

import numpy as np
import pytest

from linalg_oracle import arr, kron
from projective_reference import free_cover_onto, free_rep
from quiverhom.quiver import Path, Quiver, a2, has_directed_cycle, kronecker, loop_quiver, make_quiver, opposite, paths_between, root_sequence
from quiverhom.rep import (
    HomGroupRep,
    RepMorphism,
    Representation,
    cokernel_rep,
    coinduced,
    direct_sum_reps,
    double_dual_rep_iso,
    dual_rep,
    dual_rep_morphism,
    hom_reps,
    identity_morphism,
    kernel_rep,
    psi,
    stalk,
    zero_morphism,
    zero_rep,
)
from quiverhom import classify, harness, homology
from quiverhom.homology import (
    ExtComputation,
    canonical_injective_embedding,
    ext,
    ext1_extension_count,
    ext_induced_second,
    injective_hull,
    projective_cover_onto,
    projective_generator,
    strongly_fp_injective_test_family,
    totally_acyclic_injective_complex,
)
from quiverhom.linalg import diag, hstack, identity, mod_rows, quotient_order, transpose
from quiverhom.znmod import (
    MAX_MODULUS,
    FinMod,
    ModHom,
    Modulus,
    ambient_coords_solve,
    cyclic,
    ext_module,
    free_mod,
    hom_entry_orders,
    hom_entry_scales,
    identity_hom,
    image_order,
    is_epi,
    is_mono,
    kernel_of_hom,
    kernel_order,
    present,
    retraction_of,
    solve_congruences,
    zero_hom,
    zero_mod,
)

Z2 = Modulus(2)
Z4 = Modulus(4)


def morphism_digest(f: RepMorphism):
    return tuple(f.components[v].matrix for v in f.source.quiver.vertices)


def yoneda_morphism(p_v: Representation, v, x: Representation, element: np.ndarray) -> RepMorphism:
    """The morphism P_v -> X sending the trivial-path generator to element."""
    q = x.quiver
    comps = {}
    for w in q.vertices:
        paths = paths_between(q, v, w)
        mat = np.zeros((x.vertex_modules[w].rank, len(paths)), dtype=np.int64)
        for t, p in enumerate(paths):
            mat[:, t] = x.along(p)(element)
        comps[w] = ModHom(p_v.vertex_modules[w], x.vertex_modules[w], mat)
    return RepMorphism(p_v, x, comps)


def test_projective_generator_named_examples():
    q = a2()
    p1 = projective_generator(q, Z2, 1)
    assert p1.vertex_modules[1].factors == (2,)
    assert p1.vertex_modules[2].factors == (2,)
    assert p1.map("a") == identity_hom(cyclic(Z2, 2))
    p2 = projective_generator(q, Z2, 2)
    assert p2.vertex_modules[1].is_zero
    assert p2.vertex_modules[2].factors == (2,)
    one = Quiver((7,), ())
    pv = projective_generator(one, Z4, 7)
    assert pv.vertex_modules[7].factors == (4,)


def test_yoneda_hom_identification():
    # Hom(P_v, X) has exactly |X(v)| elements, realized by yoneda morphisms
    rng = random.Random(10)
    q = a2()
    for _ in range(20):
        m1 = cyclic(Z4, rng.choice([2, 4]))
        m2 = cyclic(Z4, rng.choice([2, 4]))
        mat = [[rng.choice([t for t in range(4) if (t * m1.factors[0]) % m2.factors[0] == 0])]]
        x = Representation(q, Z4, {1: m1, 2: m2}, {"a": ModHom(m1, m2, mat)})
        for v in (1, 2):
            p_v = projective_generator(q, Z4, v)
            grp, _ = hom_reps(p_v, x)
            assert grp.cardinality == x.vertex_modules[v].cardinality
            seen = set()
            for elt in x.vertex_modules[v].elements():
                seen.add(tuple(
                    yoneda_morphism(p_v, v, x, elt).components[w].matrix for w in q.vertices
                ))
            assert len(seen) == grp.cardinality


def reference_projective_generator(q, modulus, v):
    """P_v written down one path at a time: the free module on the paths
    from v at each vertex, with arrows acting by path extension."""
    path_sets = {w: paths_between(q, v, w) for w in q.vertices}
    mods = {w: free_mod(modulus, len(path_sets[w])) for w in q.vertices}
    maps = {}
    for a in q.arrows:
        src_paths = path_sets[a.src]
        tgt_paths = path_sets[a.tgt]
        index = {p.key(): t for t, p in enumerate(tgt_paths)}
        mat = np.zeros((len(tgt_paths), len(src_paths)), dtype=np.int64)
        for s, p in enumerate(src_paths):
            extended = Path(v, a.tgt, p.arrows + (a,))
            mat[index[extended.key()], s] = 1
        maps[a.id] = ModHom(mods[a.src], mods[a.tgt], mat)
    return Representation(q, modulus, mods, maps)


def _rep_bytes(x):
    q = x.quiver
    return (
        [x.vertex_modules[w].factors for w in q.vertices],
        [m.matrix for m in (x.map(a.id) for a in q.arrows)],
    )


def _dual_order(q, ranks, w):
    """The basis at w of the Matlis-dual builders, as positions in the
    reference layout at w (the triples (v, i, p) ordered by v, then i, then
    p in `paths_between` order, for i < ranks[v]): the pairs (p, i) ordered
    by the `Path.key` of the opposite of p, a path of Q^op and a factor key
    of the right adjoint there, then by i."""
    op_arrow = dict(zip(q.arrows, opposite(q).arrows))
    pairs, start = [], 0
    for v in q.vertices:
        paths = paths_between(q, v, w) if ranks[v] else ()
        for t, p in enumerate(paths):
            key = Path(w, v, tuple(op_arrow[a] for a in reversed(p.arrows))).key()
            pairs += [(key, i, start + i * len(paths) + t) for i in range(ranks[v])]
        start += ranks[v] * len(paths)
    return [position for *_, position in sorted(pairs)]


def _in_dual_order(x, ranks, epi=None):
    """`_cover_bytes` (or `_rep_bytes` without an epi) of a representation in
    the reference layout, with the basis at every vertex permuted into the
    order of the Matlis-dual builders."""
    q = x.quiver
    order = {w: _dual_order(q, ranks, w) for w in q.vertices}
    mods = [tuple(x.vertex_modules[w].factors[t] for t in order[w]) for w in q.vertices]
    maps = [tuple(tuple(x.map(a.id).matrix[s][t] for t in order[a.src]) for s in order[a.tgt]) for a in q.arrows]
    if epi is None:
        return mods, maps
    return mods, maps, [tuple(tuple(row[t] for t in order[w]) for row in epi.components[w].matrix) for w in q.vertices]


def test_projective_generator_matches_path_by_path_reference():
    from quiverhom.harness import Config, random_quiver

    cfg = Config()
    rng = random.Random(5)
    quivers = [kronecker()] + [random_quiver(rng, cfg, right_rooted=True, max_vertices=4, max_arrows=5) for _ in range(40)]
    checked = 0
    for q in quivers:
        for n in (2, 6):
            for v in q.vertices:
                ref = reference_projective_generator(q, Modulus(n), v)
                ranks = {w: int(w == v) for w in q.vertices}
                assert _rep_bytes(projective_generator(q, Modulus(n), v)) == _in_dual_order(ref, ranks)
                assert _rep_bytes(free_rep(q, Modulus(n), ranks)[0]) == _rep_bytes(ref)
                checked += 1
    assert checked >= 150


def reference_projective_cover_onto(x):
    """The cover as a direct sum of one P_v per canonical generator of x(v),
    mapped onto x by the Yoneda morphism of that generator."""
    q, modulus = x.quiver, x.modulus
    pieces, morphs = [], []
    for v in q.vertices:
        p_v = reference_projective_generator(q, modulus, v)
        for i in range(x.vertex_modules[v].rank):
            e = np.zeros(x.vertex_modules[v].rank, dtype=np.int64)
            e[i] = 1
            pieces.append(p_v)
            morphs.append(yoneda_morphism(p_v, v, x, e))
    if not pieces:
        z = zero_rep(q, modulus)
        return z, zero_morphism(z, x)
    total, _, projs = direct_sum_reps(pieces)
    comps = {}
    for w in q.vertices:
        h = zero_hom(total.vertex_modules[w], x.vertex_modules[w])
        for t, m in enumerate(morphs):
            h = h + m.components[w].compose(projs[t].components[w])
        comps[w] = h
    return total, RepMorphism(total, x, comps)


def _cover_bytes(total, epi):
    return _rep_bytes(total) + ([c.matrix for c in (epi.components[w] for w in total.quiver.vertices)],)


def _cover_cases():
    from quiverhom.harness import Config, random_gorenstein_rep, random_injective_rep, random_quiver, random_representation

    cfg = Config()
    rng = random.Random(8)
    for n in (2, 4, 6, 9, 12, 36):
        modulus = Modulus(n)
        for _ in range(12):
            q = random_quiver(rng, cfg, right_rooted=True, max_vertices=4, max_arrows=5)
            yield random_representation(rng, q, modulus, cfg)
            yield random_gorenstein_rep(rng, q, modulus, cfg)
            yield random_injective_rep(rng, q, modulus, cfg)
        # parallel arrows, a zero vertex module, and stalks
        kq = kronecker()
        yield random_representation(rng, kq, modulus, cfg)
        m = cyclic(modulus, n)
        yield Representation(kq, modulus, {1: m, 2: zero_mod(modulus)}, {"a": zero_hom(m, zero_mod(modulus)), "b": zero_hom(m, zero_mod(modulus))})
        yield zero_rep(kq, modulus)
        for v in kq.vertices:
            yield stalk(kq, modulus, v, FinMod(modulus, (n, n)))


def test_projective_cover_matches_direct_sum_of_yoneda_maps():
    checked = 0
    for x in _cover_cases():
        new = projective_cover_onto(x)
        ref = reference_projective_cover_onto(x)
        ranks = {v: x.vertex_modules[v].rank for v in x.quiver.vertices}
        assert _cover_bytes(*new) == _in_dual_order(ref[0], ranks, ref[1])
        assert _cover_bytes(*free_cover_onto(x)) == _cover_bytes(*ref)
        assert new[1].is_epimorphism
        checked += 1
    assert checked >= 150


def test_projectives_build_exactly_where_the_paths_from_their_vertices_are_finite():
    quivers = [
        # 1 -> 2 and 3 -> 1 with a loop at 3: the loop lies on no path out of 1 or 2
        make_quiver([1, 2, 3], [("a", 1, 2), ("b", 3, 1), ("l", 3, 3)]),
        make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 1), ("c", 2, 3)]),  # a 2-cycle into 3
        make_quiver([1, 2], [("a", 1, 2), ("b", 1, 2), ("l", 1, 1)]),  # parallel arrows out of a loop
        loop_quiver(),
    ]
    built = []
    for q in quivers:
        for v in q.vertices:
            ranks = {w: int(w == v) for w in q.vertices}
            x = stalk(q, Z4, v, cyclic(Z4, 2))
            try:
                ref, ref_cover = free_rep(q, Z4, ranks)[0], free_cover_onto(x)
            except ValueError:
                for build in (lambda: projective_generator(q, Z4, v), lambda: projective_cover_onto(x)):
                    with pytest.raises(ValueError, match="infinite path set"):
                        build()
                continue
            assert _rep_bytes(projective_generator(q, Z4, v)) == _in_dual_order(ref, ranks)
            assert _cover_bytes(*projective_cover_onto(x)) == _in_dual_order(ref_cover[0], ranks, ref_cover[1])
            built.append((quivers.index(q), v))
    assert built == [(0, 1), (0, 2), (1, 3), (2, 2)]


Resolution = namedtuple("Resolution", "terms diffs augmentation")


def reference_projective_resolution(x, length):
    """P_{L-1} -> ... -> P_1 -> P_0 -> x -> 0 with exactly `length` terms,
    by iterated covers in the layout of `free_rep`: terms[k + 1] covers
    the kernel of the map out of terms[k], and diffs[k] maps terms[k + 1]
    to terms[k]."""
    cover, augmentation = free_cover_onto(x)
    terms, diffs, last = [cover], [], augmentation
    while len(terms) < length:
        syz, incl = kernel_rep(last)
        cover, epi = free_cover_onto(syz)
        last = incl.compose(epi)
        terms.append(cover)
        diffs.append(last)
    return Resolution(tuple(terms), tuple(diffs), augmentation)


def test_projective_resolution_of_source_stalk():
    # 0 -> P_2 -> P_1 -> s_1 -> 0 over A2 / Z2
    q = a2()
    s1 = stalk(q, Z2, 1, cyclic(Z2, 2))
    res = reference_projective_resolution(s1, 2)
    assert res.terms[0].vertex_modules[1].factors == (2,)
    assert res.terms[0].vertex_modules[2].factors == (2,)
    # first syzygy is P_2 = (0 -> R)
    syz = kernel_rep(res.augmentation)[0]
    assert syz.vertex_modules[1].is_zero
    assert syz.vertex_modules[2].cardinality == 2


def test_ext_window_is_the_resolution_length_less_one():
    # of the Yoneda reference; ExtComputation answers every degree
    q = a2()
    x = stalk(q, Z4, 1, cyclic(Z4, 2))
    y = stalk(q, Z4, 2, cyclic(Z4, 4))
    for length in range(1, 5):
        comp = YonedaExtComputation(reference_projective_resolution(x, length), y)
        for m in range(length):
            assert comp.ext(m) == ext(x, y, m)
            assert comp.order(m) == comp.ext(m).cardinality
        for bad in (length, -1):
            with pytest.raises(ValueError):
                comp.ext(bad)
            with pytest.raises(ValueError):
                comp.order(bad)
    with pytest.raises(ValueError):
        ext(x, y, -1)
    for bad in (-1, -3):
        with pytest.raises(ValueError):
            ExtComputation(x, y).ext(bad)
        with pytest.raises(ValueError):
            ExtComputation(x, y).order(bad)


def _count_calls(monkeypatch, name, *modules):
    """The first arguments handed to the homology function `name`, in call
    order, through every module that imports it."""
    seen = []
    real = getattr(homology, name)

    def counting(x, *args):
        seen.append(x)
        return real(x, *args)

    for module in (homology,) + modules:
        monkeypatch.setattr(module, name, counting, raising=False)
    return seen


def test_ext_oracles_call_no_projective_resolution(monkeypatch):
    # every projective resolution starts from a cover
    seen = _count_calls(monkeypatch, "projective_cover_onto", classify, harness)
    q = a2()
    # over A2 / Z6, P_1 is projective and injective, P_2 projective only
    p1, p2 = (projective_generator(q, Modulus(6), v) for v in (1, 2))
    # Ext^1(P_2, S) = 0 is read as Ext^1(DS, DP_2) = 0 on the Matlis dual
    assert classify._ext1_vanishes_against_simples(dual_rep(p2))
    assert not classify._ext1_vanishes_against_simples(p2)
    assert [classify.classify_projective(p, with_oracle=True).oracle for p in (p1, p2)] == [True, True]
    assert [classify.classify_injective(p, with_oracle=True).oracle for p in (p1, p2)] == [True, False]
    s1, s2 = (stalk(q, Z2, v, cyclic(Z2, 2)) for v in (1, 2))
    assert ext(s1, s2, 1).factors == (2,) and ext(s1, s2, 7).is_zero
    assert harness._les_consistency(s1, harness.random_rep_ses(random.Random(3), s2))
    assert seen == []


def test_ext_engine_takes_omega_from_one_cover(monkeypatch):
    covered = _count_calls(monkeypatch, "projective_cover_onto", harness)
    # trials 2 and 7 skip the long-exact-sequence check, 1 and 6 run it
    for t in (1, 2, 6, 7):
        covered.clear()
        rng = random.Random(harness.derive_seed(0, "ext_engine", t))
        verdicts = harness._ext_engine(harness.Config(), rng, t)
        assert verdicts["dimension_shift"] and verdicts.get("les_consistent", True)
        assert len(covered) == 1


def test_injective_hull():
    h, emb = injective_hull(cyclic(Z4, 2))
    assert h.factors == (4,) and emb.matrix == ((2,),)
    h, emb = injective_hull(FinMod(Modulus(6), (2, 6)))
    assert h.factors == (2, 6)
    h, _ = injective_hull(zero_mod(Z4))
    assert h.is_zero


def test_injective_coresolution_named_example():
    # X = s_2(Z/4) on A2 over Z/4: 0 -> X -> e^2(Z/4) -> e^1(Z/4) -> 0
    q = a2()
    x = stalk(q, Z4, 2, cyclic(Z4, 4))
    e0, mono = canonical_injective_embedding(x)
    assert e0.vertex_modules[1].factors == (4,)
    assert e0.vertex_modules[2].factors == (4,)
    syz1, _ = cokernel_rep(mono)
    assert syz1.vertex_modules[1].factors == (4,)
    assert syz1.vertex_modules[2].is_zero
    # next term resolves e^1(Z/4), which is injective, so the second syzygy vanishes
    _, mono1 = canonical_injective_embedding(syz1)
    assert cokernel_rep(mono1)[0].is_zero


def test_ext_named_examples():
    q = a2()
    s1 = stalk(q, Z2, 1, cyclic(Z2, 2))
    s2 = stalk(q, Z2, 2, cyclic(Z2, 2))
    assert ext(s1, s2, 1).factors == (2,)
    assert ext(s2, s1, 1).is_zero
    p1 = projective_generator(q, Z2, 1)
    for m in (1, 2):
        assert ext(p1, s2, m).is_zero
    # Ext^0 recovers Hom
    assert ext(s1, s1, 0).cardinality == hom_reps(s1, s1)[0].cardinality


def test_ext_matches_extension_enumeration():
    q = a2()
    s1 = stalk(q, Z2, 1, cyclic(Z2, 2))
    s2 = stalk(q, Z2, 2, cyclic(Z2, 2))
    assert ext1_extension_count(s1, s2) == ext(s1, s2, 1).cardinality == 2
    assert ext1_extension_count(s2, s1) == ext(s2, s1, 1).cardinality == 1
    # a Z/4 instance with a nonsplit vertexwise extension available
    x = stalk(a2(), Z4, 1, cyclic(Z4, 2))
    y = stalk(a2(), Z4, 1, cyclic(Z4, 2))
    assert ext1_extension_count(x, y) == ext(x, y, 1).cardinality


def test_ext_random_agreement_with_oracle():
    rng = random.Random(11)
    q = a2()
    hits = 0
    for _ in range(12):
        mods = {}
        for v in (1, 2):
            mods[v] = cyclic(Z2, 2) if rng.random() < 0.7 else zero_mod(Z2)
        matb = np.zeros((mods[2].rank, mods[1].rank), dtype=np.int64)
        if matb.size and rng.random() < 0.5:
            matb[0, 0] = 1
        x = Representation(q, Z2, mods, {"a": ModHom(mods[1], mods[2], matb)})
        y = stalk(q, Z2, rng.choice([1, 2]), cyclic(Z2, 2))
        if x.total_cardinality * y.total_cardinality > 256:
            continue
        cnt = ext1_extension_count(x, y)
        if cnt is None:
            continue
        hits += 1
        assert cnt == ext(x, y, 1).cardinality
    assert hits >= 8


def _module_hom_order(dom, cod):
    """|Hom(dom, cod)|: the product of the entry group orders."""
    return math.prod(o for row in hom_entry_orders(dom.factors, cod.factors) for o in row)


def _capped_module_homs(dom, cod, cap):
    """Every hom dom -> cod, or None when there are more than cap."""
    if _module_hom_order(dom, cod) > cap:
        return None
    orders = arr(hom_entry_orders(dom.factors, cod.factors), dom.rank)
    scales = arr(hom_entry_scales(dom.factors, cod.factors), dom.rank)
    return [
        ModHom(dom, cod, np.array(combo, dtype=np.int64).reshape(orders.shape) * scales)
        for combo in itertools.product(*[range(int(o)) for o in orders.ravel()])
    ]


def reference_ext1_extension_count(x, y, cap=4096):
    """The orbit-counting extension oracle: for each middle structure E,
    the orbits of its exact pairs (i, p) under Aut_rep(E), found by search,
    weighted by |Aut_rep(E)| / prod_v |Aut E(v)|, with the same caps as
    `ext1_extension_count`."""
    q, modulus = x.quiver, x.modulus
    cards = {v: x.vertex_modules[v].cardinality * y.vertex_modules[v].cardinality for v in q.vertices}
    chain_options = {v: homology._chains_of_cardinality(modulus, cards[v]) for v in q.vertices}
    grand_total = 0
    for combo in itertools.product(*[chain_options[v] for v in q.vertices]):
        mods = {v: FinMod(modulus, c) for v, c in zip(q.vertices, combo)}
        g_order = 1
        for v in q.vertices:
            homs = _capped_module_homs(mods[v], mods[v], cap)
            if homs is None:
                return None
            g_order *= sum(1 for h in homs if is_mono(h))
        arrow_spaces = []
        total_structures = 1
        for a in q.arrows:
            homs = _capped_module_homs(mods[a.src], mods[a.tgt], cap)
            if homs is None:
                return None
            arrow_spaces.append(homs)
            total_structures *= len(homs)
            if total_structures > cap:
                return None
        numerator = 0
        for arrow_maps in itertools.product(*arrow_spaces):
            e = Representation(q, modulus, mods, {a.id: h for a, h in zip(q.arrows, arrow_maps)})
            homs_ye, homs_ex, homs_ee = HomGroupRep(y, e), HomGroupRep(e, x), HomGroupRep(e, e)
            if homs_ye.cardinality > cap or homs_ex.cardinality > cap or homs_ee.cardinality > cap:
                return None
            monos = [i for i in homs_ye.elements() if i.is_monomorphism]
            epis = [p for p in homs_ex.elements() if p.is_epimorphism]
            pairs = [(i, p) for i in monos for p in epis if p.compose(i).is_zero]
            if not pairs:
                continue
            auts = []
            for phi in homs_ee.elements():
                if phi.is_monomorphism:
                    inv = {v: retraction_of(phi.components[v]) for v in q.vertices}
                    auts.append((phi, RepMorphism(e, e, inv)))
            numerator += _count_orbits(pairs, auts) * len(auts)
        assert numerator % g_order == 0
        grand_total += numerator // g_order
    return grand_total


def _count_orbits(pairs, auts):
    def digest(pair):
        return morphism_digest(pair[0]), morphism_digest(pair[1])

    index = {digest(pair): pair for pair in pairs}
    seen = set()
    orbits = 0
    for pair in pairs:
        if digest(pair) in seen:
            continue
        orbits += 1
        stack = [pair]
        seen.add(digest(pair))
        while stack:
            i, p = stack.pop()
            for phi, phi_inv in auts:
                nd = (morphism_digest(phi.compose(i)), morphism_digest(p.compose(phi_inv)))
                if nd not in seen:
                    assert nd in index, "automorphism left the set of exact pairs"
                    seen.add(nd)
                    stack.append(index[nd])
    return orbits


def _extension_count_cases():
    """The named stalk cases, then random pairs over A2, linear A3, the
    Kronecker quiver, a loop, a 2-cycle and a loop with an arrow, on moduli
    2 to 9, each with a cap of 128, 512 or 2048; like `ext_engine`, only
    pairs with |X| |Y| <= 256."""
    from quiverhom.harness import Config, random_representation

    q = a2()
    s1, s2 = (stalk(q, Z2, v, cyclic(Z2, 2)) for v in (1, 2))
    yield s1, s2, 4096
    yield s2, s1, 4096
    t = stalk(q, Z4, 1, cyclic(Z4, 2))
    yield t, stalk(q, Z4, 1, cyclic(Z4, 2)), 4096
    quivers = [
        q,
        make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)]),
        kronecker(),
        loop_quiver(),
        make_quiver([1, 2], [("a", 1, 2), ("b", 2, 1)]),
        make_quiver([1, 2], [("l", 1, 1), ("a", 1, 2)]),
    ]
    cfg = Config()
    rng = random.Random(2025)
    for k in range(120):
        quiver = quivers[k % len(quivers)]
        modulus = Modulus(rng.randint(2, 9))
        x = random_representation(rng, quiver, modulus, cfg, max_rank=1 + (k % 4 == 3))
        y = random_representation(rng, quiver, modulus, cfg, max_rank=1)
        if x.total_cardinality * y.total_cardinality <= 256:
            yield x, y, (128, 512, 2048)[k % 3]


def test_extension_count_matches_the_orbit_count():
    compared = nonzero = capped = 0
    for x, y, cap in _extension_count_cases():
        cnt = ext1_extension_count(x, y, cap=cap)
        assert cnt == reference_ext1_extension_count(x, y, cap=cap)
        compared += 1
        nonzero += cnt is not None and cnt > 1
        capped += cnt is None
    assert compared >= 80 and nonzero >= 10 and capped >= 30


def _cap_contract_cases():
    """(check, X, Y, cap) where `check` is the first cap check to bind."""
    q, cap = a2(), 128
    v4 = FinMod(Z2, (2, 2))

    def everywhere(quiver, m):
        return Representation(quiver, Z2, {v: m for v in quiver.vertices}, {a.id: zero_hom(m, m) for a in quiver.arrows})

    # E(1) = (Z/2)^4 has 2^16 endomorphisms
    yield "vertex End", stalk(q, Z2, 1, v4), stalk(q, Z2, 1, v4), cap
    # E = (Z/2)^2 at both vertices carries 16 * 16 Kronecker structures
    k2 = everywhere(kronecker(), cyclic(Z2, 2))
    yield "arrow structures", k2, k2, cap
    # on the zero structure, Hom(E, E) is the whole product of the End E(v),
    # and Hom(Y, E) or Hom(E, X) is that too when X or Y is zero
    yield "Hom(Y, E)", zero_rep(q, Z2), everywhere(q, v4), cap
    yield "Hom(E, X)", everywhere(q, v4), zero_rep(q, Z2), cap
    yield "Hom(E, E)", stalk(q, Z2, 1, v4), stalk(q, Z2, 2, v4), cap
    # E_0 = ((Z/2)^2, Z/2) on a loop with an arrow: prod_v |End E_0(v)| is
    # 2^5, within a cap of 32, while the structures number 2^4 * 2^2
    la = make_quiver([1, 2], [("l", 1, 1), ("a", 1, 2)])
    yield "arrow structures", everywhere(la, cyclic(Z2, 2)), stalk(la, Z2, 1, cyclic(Z2, 2)), 32


def _spy_hom_groups(monkeypatch):
    """(source, target, cardinality) of every HomGroupRep homology builds,
    in order."""
    built = []
    real = homology.HomGroupRep

    def spying(a, b):
        grp = real(a, b)
        built.append((a, b, grp.cardinality))
        return grp

    monkeypatch.setattr(homology, "HomGroupRep", spying)
    return built


def test_extension_count_caps_bind_like_the_orbit_count(monkeypatch):
    """Each check of the orbit oracle that binds first is caught by the one
    cap test up front, before any hom group is solved."""
    built = _spy_hom_groups(monkeypatch)
    for check, x, y, cap in _cap_contract_cases():
        built.clear()
        assert ext1_extension_count(x, y, cap=cap) is None, check
        assert built == [], check
        assert reference_ext1_extension_count(x, y, cap=cap) is None, check


def test_extension_count_solves_hom_e_e_only_above_the_end_bound(monkeypatch):
    """Hom(E, E) is never solved: the cap test bounds it by
    prod_v |End E_0(v)| before the enumeration, so no group built is over
    the cap.  |Hom(X, Y)| is read once, at the first exact pair, and there
    is one whenever the count is not capped: the split extension."""
    built = _spy_hom_groups(monkeypatch)
    counted = middles = 0
    cases = [case[1:] for case in _cap_contract_cases()]
    for x, y, cap in itertools.chain(cases, itertools.islice(_extension_count_cases(), 60)):
        built.clear()
        cnt = ext1_extension_count(x, y, cap=cap)
        hom_xy = sum(a is x and b is y for a, b, _ in built)
        assert hom_xy <= 1 and (cnt is None or hom_xy == 1)
        assert not any(a is b for a, b, _ in built)
        assert all(card <= cap for _, _, card in built)
        middles += sum(a is y and b is not x for a, b, _ in built)
        counted += cnt is not None
    assert counted >= 30 and middles >= 1000


def test_elementary_chains_bound_every_hom_the_extension_count_solves():
    """For chains A, C and every chain B of order |A| |C|, |End B|,
    |Hom(A, B)| and |Hom(B, C)| are at most |End E_0|, E_0 the elementary
    chain of that order, which is one of the B; between two such orders,
    every |Hom(B, B')| is at most |Hom(E_0, E_0')|."""
    pairs = 0
    for n in (2, 4, 6, 8, 9, 12, 16, 18, 27, 30):
        modulus = Modulus(n)
        divisors = modulus.divisors[1:]
        chains = [FinMod(modulus, ())] + [FinMod(modulus, (d,)) for d in divisors]
        chains += [FinMod(modulus, (d, e)) for d in divisors for e in divisors if e % d == 0]
        middles = {}
        for a in chains:
            for c in chains:
                card = a.cardinality * c.cardinality
                if card not in middles:
                    middles[card] = [FinMod(modulus, f) for f in homology._chains_of_cardinality(modulus, card)]
                end_e0 = homology._elementary_hom_order(modulus, card, card)
                assert max(_module_hom_order(b, b) for b in middles[card]) == end_e0
                assert all(max(_module_hom_order(a, b), _module_hom_order(b, c)) <= end_e0 for b in middles[card])
                pairs += 1
        for card, bs in middles.items():
            for card2, bs2 in middles.items():
                bound = homology._elementary_hom_order(modulus, card, card2)
                assert max(_module_hom_order(b, b2) for b in bs for b2 in bs2) == bound
    assert pairs >= 1000
    # the bound holds over all B together, not for each B alone: over Z/8,
    # A = (Z/2)^3 and B = Z/2 + Z/4 have |Hom(A, B)| = 64 > |End B| = 32
    z8 = Modulus(8)
    a, b = FinMod(z8, (2, 2, 2)), FinMod(z8, (2, 4))
    assert _module_hom_order(a, b) == 64 and _module_hom_order(b, b) == 32


def test_dimension_shifting():
    q = a2()
    s1 = stalk(q, Z4, 1, cyclic(Z4, 2))
    s2 = stalk(q, Z4, 2, cyclic(Z4, 2))
    omega = kernel_rep(projective_cover_onto(s1)[1])[0]
    for m in (1, 2):
        lhs = ext(s1, s2, m + 1)
        rhs = ext(omega, s2, m)
        assert lhs.factors == rhs.factors


def stalk_ext_identity_check(f: FinMod, x: Representation, i) -> bool:
    """Compare Ext^1 over the ring of (F, ker psi_i) with Ext^1 of
    (stalk_i F, X) in the representation category; requires psi_i epi.

    Both sides are reduced to canonical invariant-factor form, so equality of
    the chains exhibits the isomorphism."""
    h = psi(x, i)
    if not is_epi(h):
        raise ValueError("psi at the chosen vertex is not an epimorphism")
    ker, _ = kernel_of_hom(h)
    lhs = ext_module(f, ker, 1)
    rhs = ext(stalk(x.quiver, x.modulus, i, f), x, 1)
    return lhs.factors == rhs.factors


def test_stalk_ext_identity():
    q = a2()
    m = cyclic(Z4, 4)
    x = Representation(q, Z4, {1: m, 2: m}, {"a": identity_hom(m)})
    assert stalk_ext_identity_check(cyclic(Z4, 2), x, 1)
    assert stalk_ext_identity_check(cyclic(Z4, 2), x, 2)
    s = stalk(q, Z4, 2, cyclic(Z4, 4))
    with pytest.raises(ValueError):
        stalk_ext_identity_check(cyclic(Z4, 2), s, 1)


def test_stalk_ext_identity_random_instances():
    # 100 random (F, X, i) with the canonical map at i surjective
    from quiverhom.harness import Config, random_finmod, random_gorenstein_rep, random_quiver
    from quiverhom.znmod import Modulus

    cfg = Config()
    rng = random.Random(31)
    checked = 0
    while checked < 100:
        modulus = Modulus(rng.choice([2, 4, 9]))
        q = random_quiver(rng, cfg, right_rooted=True, max_vertices=3, max_arrows=3)
        x = random_gorenstein_rep(rng, q, modulus, cfg)  # every psi is epi
        f = random_finmod(rng, modulus, cfg, max_rank=1)
        i = rng.choice(q.vertices)
        assert stalk_ext_identity_check(f, x, i)
        checked += 1


def test_totally_acyclic_named_examples():
    q = a2()
    m2 = cyclic(Z4, 2)
    x = Representation(q, Z4, {1: m2, 2: m2}, {"a": identity_hom(m2)})
    cert, err = totally_acyclic_injective_complex(x, depth=2, full=True)
    assert cert is not None, err
    assert cert.verification["exact"] and cert.verification["hom_exact"]
    # X injective: contractible certificate exists
    m4 = cyclic(Z4, 4)
    inj = Representation(q, Z4, {1: m4, 2: m4}, {"a": identity_hom(m4)})
    cert, err = totally_acyclic_injective_complex(inj, depth=1)
    assert cert is not None, err
    # psi_1 not epi: no certificate
    s = stalk(q, Z4, 2, m2)
    cert, err = totally_acyclic_injective_complex(s, depth=1)
    assert cert is None and "vertex 1" in err


def test_totally_acyclic_left_steps_are_ses():
    q = a2()
    m2 = cyclic(Z4, 2)
    x = Representation(q, Z4, {1: m2, 2: m2}, {"a": identity_hom(m2)})
    cert, _ = totally_acyclic_injective_complex(x, depth=1)
    assert cert is not None and len(cert.left_steps) == 2


def test_left_injective_step_refuses_a_directed_cycle_first():
    # before building a kernel, cover or product, whose paths are infinite
    m = cyclic(Z4, 4)
    x = Representation(loop_quiver(), Z4, {"v": m}, {"alpha": identity_hom(m)})
    for _ in range(2):
        with pytest.raises(ValueError, match="^quiver has a directed cycle$"):
            homology._left_injective_step(x)


def test_totally_acyclic_certificate_is_read_only():
    x = coinduced(a2(), Z4, 1, cyclic(Z4, 4)).rep
    cert, err = totally_acyclic_injective_complex(x, depth=1)
    assert cert is not None, err
    cx = cert.complex
    with pytest.raises(TypeError):
        cx.diffs[1] = zero_morphism(cx.components[1], cx.components[0])
    with pytest.raises(TypeError):
        cx.components[0] = x
    with pytest.raises(TypeError):
        cert.verification["exact"] = False
    assert cert.verification["exact"] is True
    assert isinstance(cert.left_steps, tuple)


def test_totally_acyclic_refuses_a_negative_depth():
    x = stalk(a2(), Z4, 1, cyclic(Z4, 2))
    with pytest.raises(ValueError):
        totally_acyclic_injective_complex(x, depth=-1)
    cert, err = totally_acyclic_injective_complex(x, depth=0)
    assert cert is not None, err
    assert cert.complex.degrees() == [-1, 0]


def reference_totally_acyclic_verdict(x, depth, full):
    """(cert is None, err, verification) of the window whose right half
    dualizes a projective resolution of the dual of x; the left half and
    every check are those of `totally_acyclic_injective_complex`."""
    if has_directed_cycle(x.quiver):
        return True, "quiver is not right rooted", None
    components, diffs, pis, kernels = {}, {}, [], []
    current = x
    try:
        for k in range(depth + 1):
            components[k], pi, current, incl = homology._left_injective_step(current)
            pis.append(pi)
            kernels.append(incl)
    except homology.LeftResolutionFailure as exc:
        return True, str(exc), None
    for k in range(1, depth + 1):
        diffs[k] = kernels[k - 1].compose(pis[k])
    res = reference_projective_resolution(dual_rep(x), depth + 1)
    for k in range(depth + 1):
        components[-(k + 1)] = dual_rep(res.terms[k])
    emb = dual_rep_morphism(res.augmentation).compose(double_dual_rep_iso(x))
    diffs[0] = emb.compose(pis[0])
    for k in range(1, depth + 1):
        diffs[-k] = dual_rep_morphism(res.diffs[k - 1])
    cx = homology.RepComplex(components, diffs)
    verification = {
        "exact": cx.interior_exact(),
        "components_injective": all(homology._injective_rep_structure_check(c) for c in components.values()),
        "hom_exact": homology._hom_exactness_against_family(cx) if full else None,
    }
    if not verification["exact"] or not verification["components_injective"]:
        return True, f"window verification failed: {verification}", None
    if verification["hom_exact"] is False:
        return True, "Hom-exactness against the test family failed", None
    return False, None, verification


def _totally_acyclic_cases():
    from quiverhom.harness import Config, random_gorenstein_rep, random_injective_rep, random_quiver, random_representation

    q = a2()
    m2, m4 = cyclic(Z4, 2), cyclic(Z4, 4)
    yield Representation(q, Z4, {1: m2, 2: m2}, {"a": identity_hom(m2)}), 2
    yield Representation(q, Z4, {1: m4, 2: m4}, {"a": identity_hom(m4)}), 1
    yield stalk(q, Z4, 2, m2), 1
    yield zero_rep(q, Z4), 1
    yield stalk(loop_quiver(), Z4, "v", m2), 1
    cfg = Config()
    rng = random.Random(24)
    make = (random_gorenstein_rep, random_injective_rep, random_representation)
    for t in range(42):
        modulus = Modulus(rng.choice([4, 6, 9]))
        q = random_quiver(rng, cfg, right_rooted=True, max_vertices=3, max_arrows=3)
        yield make[t % 3](rng, q, modulus, cfg), t % 3


def test_totally_acyclic_right_half_is_the_canonical_coresolution():
    # Hom(J, -) of any injective coresolution of x has cohomology Ext(J, x),
    # so the dualized resolution of the dual gives the same verdicts
    certified = failed = 0
    for x, depth in _totally_acyclic_cases():
        for full in (False, True):
            cert, err = totally_acyclic_injective_complex(x, depth=depth, full=full)
            got = (cert is None, err, None if cert is None else cert.verification)
            assert got == reference_totally_acyclic_verdict(x, depth, full)
            if cert is None:
                failed += 1
                continue
            certified += 1
            assert morphism_digest(cert.cycle_witness) == morphism_digest(canonical_injective_embedding(x)[1])
            assert cert.complex.components[-1] == cert.cycle_witness.target
    assert certified >= 70 and failed >= 10


def test_test_family_members_are_injective():
    from quiverhom.homology import _injective_rep_structure_check

    q = make_quiver([1, 2, 3], [("a", 1, 2), ("b", 1, 3)])
    fam = strongly_fp_injective_test_family(q, Z4)
    assert len(fam) == 3
    for j in fam:
        assert _injective_rep_structure_check(j)


def _term_ranks(term):
    """The ranks that `free_rep` builds a resolution term from: at each
    vertex, taken predecessors first, its rank less the paths into it from
    the generators before it."""
    q = term.quiver
    stages = root_sequence(q).stages
    sinks_first = [v for prev, cur in zip(stages, stages[1:]) for v in q.vertices if v in cur - prev]
    ranks = {}
    for v in reversed(sinks_first):
        ranks[v] = term.vertex_modules[v].rank - sum(r * len(paths_between(q, u, v)) for u, r in ranks.items())
    return ranks


class YonedaExtComputation:
    """The Ext engine that read cochains off an iterated-cover resolution,
    kept as a reference: cohomology of Hom(P_., Y) in Yoneda coordinates,
    in degrees 0 .. L - 1 for a resolution of L terms.

    A morphism P_v -> Y is determined by where it sends the trivial path at
    v, so Hom(P_k, Y) is the product of one copy of Y(v) per generator
    (v, i) of P_k, in the order of the generators; orders[k] lists the
    orders of its coordinates.  deltas[k] is the matrix of g -> g o d_k from
    those coordinates of Hom(P_k, Y) to those of Hom(P_{k+1}, Y).  The last
    term has no d, so deltas[L - 1] evaluates g on generators of the kernel
    of the resolution's last map instead, with orders[L] the orders of those
    values: a cochain is a cocycle iff it vanishes on a generating set of
    that syzygy.
    """

    def __init__(self, resolution, y):
        self.resolution = resolution
        self.y = y
        vs = y.quiver.vertices
        length = len(resolution.terms)
        self.ranks = [_term_ranks(term) for term in resolution.terms]
        # at each vertex, the generators of the syzygy after each term as
        # columns over the triples of that term
        tops = [self._trivial_path_columns(k) for k in range(length - 1)]
        tops.append(self._kernel_columns(resolution.diffs[-1] if resolution.diffs else resolution.augmentation))
        ranks = self.ranks + [{v: tops[-1][v].shape[1] for v in vs}]
        self.orders = [tuple(d for v in vs for _ in range(r[v]) for d in y.vertex_modules[v].factors) for r in ranks]
        self._along = {}
        self.deltas = [self._delta(k, tops[k]) for k in range(length)]
        self._ext_data = {}

    def _along_stack(self, u, v):
        """Y along each path from u to v, stacked in `paths_between` order;
        asked only for pairs joined by some path."""
        if (u, v) not in self._along:
            mods = self.y.vertex_modules
            self._along[u, v] = np.stack([arr(self.y.along(p).matrix, mods[u].rank).reshape(mods[v].rank, mods[u].rank) for p in paths_between(self.y.quiver, u, v)])
        return self._along[u, v]

    def _trivial_path_columns(self, k):
        """The columns of d_k at the trivial paths of the generators (v, j)
        of P_{k+1}: the images in P_k(v) of the generators of the syzygy."""
        q = self.y.quiver
        return {
            v: arr(d.matrix, d.domain.rank)[:, _generator_positions(self.resolution.terms[k + 1], self.ranks[k + 1], v)]
            for v, d in self.resolution.diffs[k].components.items()
        }

    def _kernel_columns(self, last):
        """Generators of ker last(v) as columns, one solve per vertex, except
        where Y(v) is zero and the values of cochains there have no
        coordinates."""
        out = {}
        for v in self.y.quiver.vertices:
            f = last.components[v]
            if not self.y.vertex_modules[v].rank or not f.domain.rank:
                out[v] = np.zeros((f.domain.rank, 0), dtype=np.int64)
                continue
            zero = np.zeros((f.codomain.rank, 0), dtype=np.int64)
            out[v] = arr(solve_congruences(f.matrix, zero, 0, f.codomain.factors, f.domain.factors, self.y.modulus)[1], f.domain.rank).T
        return out

    def _delta(self, k, columns):
        """The block of the generator in column j of columns[v] against
        generator (u, i) of P_k is sum_p c_p Y(p), over the paths p from u
        to v, where c_p is the coefficient of (u, i, p) in that column."""
        q, mods = self.y.quiver, self.y.vertex_modules
        src = self.ranks[k]
        tgt = {v: columns[v].shape[1] for v in q.vertices}
        src_at = _yoneda_offsets(q.vertices, src, mods)
        tgt_at = _yoneda_offsets(q.vertices, tgt, mods)
        mat = np.zeros((len(self.orders[k + 1]), len(self.orders[k])), dtype=np.int64)
        for v in q.vertices:
            if not tgt[v] or not mods[v].rank:
                continue
            column = columns[v]
            rows = slice(tgt_at[v], tgt_at[v] + tgt[v] * mods[v].rank)
            row = 0
            for u in q.vertices:
                if not src[u] or not paths_between(q, u, v):
                    continue
                along = self._along_stack(u, v)
                coeffs = column[row : row + src[u] * len(along)].reshape(src[u], len(along), tgt[v])
                row += src[u] * len(along)
                block = np.einsum("itj,tab->jaib", coeffs, along)
                mat[rows, src_at[u] : src_at[u] + src[u] * mods[u].rank] = block.reshape(rows.stop - rows.start, -1)
        return mat % _column(self.orders[k + 1])

    def _data(self, m):
        """(gens, quo, proj, sect), as `ExtComputation._data` gives them."""
        if m not in self._ext_data:
            modulus, orders = self.y.modulus, self.orders[m]
            zero = np.zeros((len(self.orders[m + 1]), 0), dtype=np.int64)
            gens = arr(solve_congruences(self.deltas[m], zero, 0, self.orders[m + 1], orders, modulus)[1], len(orders)).T
            k = gens.shape[1]
            image = self.deltas[m - 1] if m else np.zeros((len(orders), 0), dtype=np.int64)
            coboundaries, relations = solve_congruences(gens, image, image.shape[1], orders, [modulus.n] * k, modulus)
            relations, coboundaries = arr(relations, k), arr(coboundaries, image.shape[1])
            self._ext_data[m] = (gens,) + present(np.hstack([relations.T, coboundaries]), modulus)
        return self._ext_data[m]

    def _check_degree(self, m):
        if m < 0:
            raise ValueError("negative degree")
        if m >= len(self.deltas):
            raise ValueError("degree beyond computed window")

    def ext(self, m):
        self._check_degree(m)
        return self._data(m)[1]

    def order(self, m):
        self._check_degree(m)
        n = self.y.modulus.n
        prev = quotient_order(self.deltas[m - 1], self.orders[m], n) if m else math.prod(self.orders[0])
        return quotient_order(self.deltas[m], self.orders[m + 1], n) * prev // math.prod(self.orders[m + 1])

    def cocycle_to_ext_coords(self, m, hom_coords, cols):
        gens, quo, proj, _ = self._data(m)
        c = ambient_coords_solve(self.orders[m], gens, gens.shape[1], hom_coords, cols, self.y.modulus)
        if c is None:
            raise ValueError("not a cocycle")
        return arr(proj, gens.shape[1]).dot(arr(c, cols)) % _column(quo.factors)


def yoneda_ext_induced_second(comp_src, comp_tgt, f, m):
    """`ext_induced_second` for two Yoneda computations sharing a
    resolution: f applies f_v to the coordinates of each generator (v, i)."""
    assert comp_src.resolution is comp_tgt.resolution
    gens, quo_s, _, sect = comp_src._data(m)
    cocycles = gens.dot(arr(sect, quo_s.rank)) % _column(comp_src.orders[m])
    post = np.zeros((len(comp_tgt.orders[m]), len(comp_src.orders[m])), dtype=np.int64)
    r = c = 0
    for v in f.source.quiver.vertices:
        fv = arr(f.components[v].matrix, f.components[v].domain.rank)
        for _ in range(comp_src.ranks[m][v]):
            post[r : r + fv.shape[0], c : c + fv.shape[1]] = fv
            r, c = r + fv.shape[0], c + fv.shape[1]
    images = post.dot(cocycles) % _column(comp_tgt.orders[m])
    return ModHom(quo_s, comp_tgt.ext(m), comp_tgt.cocycle_to_ext_coords(m, images, quo_s.rank))


def _yoneda_offsets(vertices, ranks, mods):
    """Where the Yoneda coordinates of the generators at each vertex start."""
    out, at = {}, 0
    for v in vertices:
        out[v] = at
        at += ranks[v] * mods[v].rank
    return out


def _column(factors):
    return np.array(factors, dtype=np.int64).reshape(-1, 1)


def _block_slices(blocks, y):
    """The coordinates of each block of a degree of T."""
    out, at = [], 0
    for v, copies in blocks:
        size = copies * y.vertex_modules[v].rank
        out.append(slice(at, at + size))
        at += size
    return out


def kron_delta(comp, m):
    """`ExtComputation._delta` as it was before its blocks were written from
    their nonzeros: a dense matrix that each block adds into, the arrow
    blocks built as Kronecker products."""
    x, y, n = comp.x, comp.y, comp.y.modulus.n
    q, r = x.quiver, comp._ranks
    nv = len(q.vertices)
    cols, rows = _block_slices(comp._blocks(m), y), _block_slices(comp._blocks(m + 1), y)
    mat = [[0] * len(comp.orders[m]) for _ in comp.orders[m + 1]]
    d = {v: x.vertex_modules[v].factors for v in q.vertices}

    def boundary(v, k, copies):
        return diag([e if k % 2 else n // e for e in d[v] for _ in range(copies)])

    def add(rows, cols, block, sign=1):
        for i, brow in zip(range(rows.start, rows.stop), block, strict=True):
            mat[i][cols] = [u + sign * w for u, w in zip(mat[i][cols], brow, strict=True)]

    for t, v in enumerate(q.vertices):
        if r[v] and y.vertex_modules[v].rank:
            add(rows[t], cols[t], boundary(v, m + 1, y.vertex_modules[v].rank))
    index = {v: t for t, v in enumerate(q.vertices)}
    for s, a in enumerate(q.arrows):
        i, j = a.src, a.tgt
        yj = y.vertex_modules[j].rank
        if not r[i] or not yj:
            continue
        row = rows[nv + s]
        add(row, cols[index[i]], kron(identity(r[i]), y.map(a.id).matrix))
        phi = x.map(a.id).matrix
        if m % 2:
            phi = [[u * di // dj for u, di in zip(prow, d[i])] for prow, dj in zip(phi, d[j])]
        add(row, cols[index[j]], kron(transpose(phi, r[i]), identity(yj)), -1)
        if m:
            add(row, cols[nv + s], boundary(i, m, yj), -1)
    return mod_rows(mat, comp.orders[m + 1])


def _nonzero_diagonal(h):
    return any(row[t] for t, row in enumerate(h.matrix))


def test_coboundaries_match_their_kron_reference():
    # entry for entry, on loops whose Y(a) and phi terms add in one cell
    # before the reduction, parallel arrows, zero-rank vertices and moduli
    # that are not prime powers; cycles are allowed
    from quiverhom.harness import Config, random_quiver, random_representation

    moduli = (2, 4, 6, 12, 36, 72)
    cfg = Config(moduli=moduli)
    rng = random.Random(20)
    loops = parallel = zero_rank = composite = 0
    for k in range(150):
        modulus = Modulus(moduli[k % len(moduli)])
        q = random_quiver(rng, cfg, max_vertices=3, max_arrows=4)
        x, y = (random_representation(rng, q, modulus, cfg, max_rank=1 + k % 3) for _ in range(2))
        comp = ExtComputation(x, y)
        for m in range(4):
            assert comp.deltas[m] == kron_delta(comp, m)
        loops += any(a.src == a.tgt and _nonzero_diagonal(x.map(a.id)) and _nonzero_diagonal(y.map(a.id)) for a in q.arrows)
        parallel += len({(a.src, a.tgt) for a in q.arrows}) < len(q.arrows)
        zero_rank += any(r.vertex_modules[v].is_zero for r in (x, y) for v in q.vertices)
        composite += len(modulus.prime_factors) > 1
    assert loops >= 20 and parallel >= 20 and zero_rank >= 20 and composite >= 50


class ReferenceExtComputation:
    """The earlier Ext engine, kept as the oracle: each cochain group is a
    general hom group `HomGroupRep(P_k, Y)` and each differential is the
    coordinate matrix of the composites of its basis with d_k."""

    def __init__(self, resolution, y, max_degree):
        self.resolution = resolution
        self.y = y
        self.homs = [HomGroupRep(p, y) for p in resolution.terms[: max_degree + 2]]
        self.deltas = []
        for k in range(max_degree + 1):
            src, tgt = self.homs[k], self.homs[k + 1]
            mat = tgt.coord_matrix([g.compose(resolution.diffs[k]) for g in src.basis])
            self.deltas.append(ModHom(src.group, tgt.group, mat))
        self._ext_data = {}

    def _data(self, m):
        if m not in self._ext_data:
            ker, incl = kernel_of_hom(self.deltas[m])
            im_gens = []
            if m:
                prev = self.deltas[m - 1]
                coords = ambient_coords_solve(incl.codomain.factors, incl.matrix, ker.rank, prev.matrix, prev.domain.rank, self.y.modulus)
                assert coords is not None
                coords = arr(coords, prev.domain.rank)
                im_gens = [ker.reduce(coords[:, c]) for c in range(prev.domain.rank)]
            quo, proj, _ = present(hstack([diag(ker.factors), transpose(im_gens, ker.rank)], ker.rank), self.y.modulus)
            self._ext_data[m] = (ker, quo, incl, proj)
        return self._ext_data[m]

    def ext(self, m):
        return self._data(m)[1]


def reference_ext_induced_second(comp_src, comp_tgt, f, m):
    """The induced map on Ext through `HomGroupRep`: each lifted cocycle
    becomes a morphism, is composed with f and read back by coordinates."""
    ker_s, quo_s, incl_s, proj_s = comp_src._data(m)
    ker_t, quo_t, incl_t, proj_t = comp_tgt._data(m)
    src_hom, tgt_hom = comp_src.homs[m], comp_tgt.homs[m]
    eye = np.eye(quo_s.rank, dtype=np.int64)
    lifts = ambient_coords_solve(quo_s.factors, proj_s, ker_s.rank, eye, quo_s.rank, comp_src.y.modulus)
    cocycles = arr(incl_s.matrix, ker_s.rank).dot(arr(lifts, quo_s.rank) % _column(ker_s.factors))
    fgs = [f.compose(src_hom.from_coords(cocycles[:, k])) for k in range(quo_s.rank)]
    c = ambient_coords_solve(incl_t.codomain.factors, incl_t.matrix, ker_t.rank, tgt_hom.coord_matrix(fgs), quo_s.rank, comp_tgt.y.modulus)
    assert c is not None
    return ModHom(quo_s, quo_t, arr(proj_t, ker_t.rank).dot(arr(c, quo_s.rank)))


def _generator_positions(term, ranks, v):
    """The columns of the trivial-path generators (v, i) in term(v), for a
    term `free_rep(ranks)` of a resolution over an acyclic quiver."""
    q = term.quiver
    start = sum(ranks[w] * len(paths_between(q, w, v)) for w in q.vertices[: q.vertices.index(v)] if ranks[w])
    return range(start, start + ranks[v])


def _summand_projection(term, ranks, u, i):
    """The projection of `free_rep(ranks)` onto its summand (u, i), a P_u."""
    q = term.quiver
    p_u = reference_projective_generator(q, term.modulus, u)
    comps = {}
    for w in q.vertices:
        start = sum(ranks[s] * len(paths_between(q, s, w)) for s in q.vertices[: q.vertices.index(u)] if ranks[s])
        count = len(paths_between(q, u, w))
        mat = np.zeros((count, term.vertex_modules[w].rank), dtype=np.int64)
        mat[np.arange(count), start + i * count + np.arange(count)] = 1
        comps[w] = ModHom(term.vertex_modules[w], p_u.vertex_modules[w], mat)
    return RepMorphism(term, p_u, comps)


def _yoneda_coords(h, ranks):
    """The Yoneda coordinates of h : `free_rep(ranks)` -> Y: the image of
    each trivial-path generator, in generator order."""
    q = h.source.quiver
    parts = [np.zeros(0, dtype=np.int64)]
    for v in q.vertices:
        for col in _generator_positions(h.source, ranks, v):
            parts.append(arr(h.components[v].matrix, h.components[v].domain.rank)[:, col])
    return np.concatenate(parts)


def _from_yoneda_coords(term, ranks, y, coords):
    """The morphism `free_rep(ranks)` -> Y with the given Yoneda
    coordinates: a sum of Yoneda morphisms out of the summands."""
    q = term.quiver
    h = zero_morphism(term, y)
    at = 0
    for u in q.vertices:
        rank = y.vertex_modules[u].rank
        p_u = reference_projective_generator(q, term.modulus, u)
        for i in range(ranks[u]):
            element = coords[at : at + rank]
            at += rank
            h = h + yoneda_morphism(p_u, u, y, element).compose(_summand_projection(term, ranks, u, i))
    return h


def _yoneda_delta_oracle(comp, k):
    """deltas[k] column by column: the Yoneda morphism of each coordinate
    vector, precomposed with d_k, read back in Yoneda coordinates."""
    res, y = comp.resolution, comp.y
    ranks, ranks_next = comp.ranks[k], comp.ranks[k + 1]
    cols = []
    for c in range(len(comp.orders[k])):
        e = np.zeros(len(comp.orders[k]), dtype=np.int64)
        e[c] = 1
        g = _from_yoneda_coords(res.terms[k], ranks, y, e)
        cols.append(_yoneda_coords(g.compose(res.diffs[k]), ranks_next))
    return np.array(cols, dtype=np.int64).reshape(len(comp.orders[k]), len(comp.orders[k + 1])).T


def _yoneda_cases():
    from quiverhom.harness import Config, random_quiver, random_representation
    from quiverhom.io import load_json, reps_file_from_dict

    # the `ext` inputs of the large_reps benchmark files
    for name in ("item0001-ext.json", "item0005-ext.json"):
        reps = reps_file_from_dict(load_json(str(pathlib.Path(__file__).parent / "data" / "large_reps" / name)))[2]
        yield reps["x"], reps["y"]
    cfg = Config()
    rng = random.Random(23)
    for n in (2, 4, 6, 12):
        modulus = Modulus(n)
        for _ in range(6):
            q = random_quiver(rng, cfg, right_rooted=True, max_vertices=4, max_arrows=5)
            yield random_representation(rng, q, modulus, cfg, 3), random_representation(rng, q, modulus, cfg, 3)
        kq = kronecker()
        x = random_representation(rng, kq, modulus, cfg)
        yield x, random_representation(rng, kq, modulus, cfg)
        yield zero_rep(kq, modulus), x
        yield x, zero_rep(kq, modulus)
        for v in kq.vertices:
            yield stalk(kq, modulus, v, FinMod(modulus, (n, n))), x
            yield x, stalk(kq, modulus, v, cyclic(modulus, n))
    # the largest prime modulus below the cap
    big = Modulus(2097143)
    assert MAX_MODULUS - 2097143 < 10
    kq = kronecker()
    m = cyclic(big, big.n)
    y = Representation(kq, big, {1: m, 2: m}, {"a": ModHom(m, m, [[big.n - 1]]), "b": ModHom(m, m, [[big.n - 2]])})
    yield stalk(kq, big, 1, m), y
    yield y, y


def test_yoneda_delta_is_precomposition_with_the_differential():
    checked = 0
    for x, y in _yoneda_cases():
        comp = YonedaExtComputation(reference_projective_resolution(x, 4), y)
        for k in range(3):
            assert _rep_bytes(comp.resolution.terms[k]) == _rep_bytes(free_rep(x.quiver, x.modulus, comp.ranks[k])[0])
            assert comp.deltas[k].shape == (len(comp.orders[k + 1]), len(comp.orders[k]))  # the reference's own array
            assert np.array_equal(comp.deltas[k], _yoneda_delta_oracle(comp, k))
            checked += np.count_nonzero(comp.deltas[k])
    assert checked >= 300


def _same_bytes(got, want):
    if isinstance(want, np.ndarray):
        return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    return got == want and type(got) is type(want)


def test_last_delta_from_kernel_generators_matches_a_longer_resolution():
    # the last term's delta reads generators of the kernel of the last map,
    # not a further term; the cocycles are the Howell form of the same
    # subgroup either way, so Ext^{L-1} is presented byte for byte alike
    checked = nonzero = 0
    for x, y in _yoneda_cases():
        res = [None] + [reference_projective_resolution(x, length) for length in range(1, 5)]
        for length in range(1, 4):
            short, long = YonedaExtComputation(res[length], y), YonedaExtComputation(res[length + 1], y)
            m = length - 1
            assert all(_same_bytes(got, want) for got, want in zip(short._data(m), long._data(m)))
            assert short.order(m) == short.ext(m).cardinality == long.order(m)
            checked += 1
            nonzero += not short.ext(m).is_zero
        # and the order of each degree of the longest window
        assert all(long.order(m) == long.ext(m).cardinality for m in range(4))
    assert checked >= 160 and nonzero >= 60


def _reference_cases():
    from quiverhom.harness import Config, random_gorenstein_rep, random_quiver, random_rep_ses, random_representation

    cfg = Config()
    rng = random.Random(29)
    for n in (2, 4, 6, 9, 12):
        modulus = Modulus(n)
        for _ in range(3):
            q = random_quiver(rng, cfg, right_rooted=True, max_vertices=3, max_arrows=3)
            x = random_representation(rng, q, modulus, cfg)
            ses = random_rep_ses(rng, random_representation(rng, q, modulus, cfg))
            yield x, ses
        kq = kronecker()
        ses = random_rep_ses(rng, random_gorenstein_rep(rng, kq, modulus, cfg))
        yield stalk(kq, modulus, 1, cyclic(modulus, n)), ses
        yield zero_rep(kq, modulus), ses


def test_ext_matches_hom_group_reference():
    # the standard complex and the Yoneda engine against hom-group cochains
    nonzero_ext = nonzero = 0
    for x, ses in _reference_cases():
        res = reference_projective_resolution(x, 5)
        terms = (("x", ses.x), ("y", ses.y), ("z", ses.z))
        old = {name: ReferenceExtComputation(res, rep, 3) for name, rep in terms}
        for new, induced in (
            ({name: ExtComputation(x, rep) for name, rep in terms}, ext_induced_second),
            ({name: YonedaExtComputation(res, rep) for name, rep in terms}, yoneda_ext_induced_second),
        ):
            for m in range(4):
                for name in new:
                    assert new[name].ext(m).factors == old[name].ext(m).factors
                    nonzero_ext += not new[name].ext(m).is_zero
                for src, tgt, f in (("x", "y", ses.f), ("y", "z", ses.g)):
                    got = induced(new[src], new[tgt], f, m)
                    want = reference_ext_induced_second(old[src], old[tgt], f, m)
                    assert got.domain.factors == want.domain.factors and got.codomain.factors == want.codomain.factors
                    assert (image_order(got), kernel_order(got)) == (image_order(want), kernel_order(want))
                    nonzero += image_order(got) > 1
    assert nonzero_ext >= 60 and nonzero > 0


def test_section_lifts_round_trip_to_ext_coordinates():
    # each Ext generator, lifted through the presentation's section, reads
    # back as itself
    for x, ses in _reference_cases():
        res = reference_projective_resolution(x, 5)
        for y in (ses.x, ses.y, ses.z):
            for comp in (ExtComputation(x, y), YonedaExtComputation(res, y)):
                _assert_section_round_trip(comp, range(4))


def _assert_section_round_trip(comp, degrees):
    for m in degrees:
        gens, quo, _, sect = comp._data(m)
        cocycles = arr(gens, len(sect)).dot(arr(sect, quo.rank)) % _column(comp.orders[m])
        got = comp.cocycle_to_ext_coords(m, cocycles, quo.rank)
        assert np.array_equal(arr(got, quo.rank), np.eye(quo.rank, dtype=np.int64))


def test_ext_without_cochains_or_cocycle_generators():
    # the cover of P_1 on 1 -> 2 takes one summand per generator, P_1 + P_2,
    # and its kernel is P_2: delta_0 is injective on Hom(P_0, S_2) = Z/2, so
    # ker delta_0 has no generators, and Hom(P_2, S_2) has no coordinates
    q = a2()
    s2 = stalk(q, Z2, 2, cyclic(Z2, 2))
    p1 = projective_generator(q, Z2, 1)
    yoneda = YonedaExtComputation(reference_projective_resolution(p1, 4), s2)
    assert [yoneda._data(m)[0].shape for m in range(3)] == [(1, 0), (1, 1), (0, 0)]  # the reference's arrays
    # in the standard complex T^0 = S_2(2) and T^m = S_2(2) + S_2(2) for m >= 1
    # (the block of vertex 2, then of the arrow); D_0 and D_1 are injective
    standard = ExtComputation(p1, s2)
    assert [tuple(map(len, standard._data(m)[0])) for m in range(3)] == [(0,), (1, 1), (1, 1)]
    for comp, induced_map in ((yoneda, yoneda_ext_induced_second), (standard, ext_induced_second)):
        for m in range(3):
            assert comp.ext(m).is_zero
            cochains = np.zeros((len(comp.orders[m]), 2), dtype=np.int64)
            assert len(comp.cocycle_to_ext_coords(m, cochains, 2)) == 0
            induced = induced_map(comp, comp, identity_morphism(s2), m)
            assert induced.domain.is_zero and induced.codomain.is_zero


def _ext_induced_second_per_generator(comp_src, comp_tgt, f, m):
    """The induced map one Ext generator at a time: lift it to a cocycle,
    make that cocycle a morphism P_m -> Y, compose with f and read the
    composite back in Yoneda coordinates."""
    gens_s, quo_s, proj_s, _ = comp_src._data(m)
    gens_t, quo_t, proj_t, _ = comp_tgt._data(m)
    res = comp_src.resolution
    term, ranks = res.terms[m], comp_src.ranks[m]
    cols = []
    for k in range(quo_s.rank):
        target = np.zeros((quo_s.rank, 1), dtype=np.int64)
        target[k] = 1
        # lifted by solving against proj, not read off the section
        kcoords = ambient_coords_solve(quo_s.factors, proj_s, gens_s.shape[1], target, 1, comp_src.y.modulus)
        cocycle = gens_s.dot(arr(kcoords, 1)[:, 0]) % np.array(comp_src.orders[m], dtype=np.int64)
        fg = f.compose(_from_yoneda_coords(term, ranks, comp_src.y, cocycle))
        target = _yoneda_coords(fg, ranks).reshape(-1, 1)
        c = ambient_coords_solve(comp_tgt.orders[m], gens_t, gens_t.shape[1], target, 1, comp_tgt.y.modulus)
        assert c is not None
        cols.append(quo_t.reduce(arr(proj_t, gens_t.shape[1]).dot(arr(c, 1)[:, 0])))
    return ModHom(quo_s, quo_t, np.array(cols, dtype=np.int64).reshape(quo_s.rank, quo_t.rank).T)


def test_ext_induced_second_matches_per_generator_loop():
    # the sequences and test objects of the ext_engine suite's long exact
    # sequence check, at every degree it reads
    from quiverhom.harness import Config, random_quiver, random_rep_ses, random_representation

    cfg = Config()
    rng = random.Random(41)
    seen_rank = 0
    for _ in range(12):
        modulus = Modulus(rng.choice([2, 4, 6, 9]))
        q = random_quiver(rng, cfg, right_rooted=True, max_vertices=2, max_arrows=2)
        y = random_representation(rng, q, modulus, cfg, max_rank=1)
        ses = random_rep_ses(rng, y)
        t_obj = stalk(q, modulus, rng.choice(q.vertices), cyclic(modulus, rng.choice([d for d in modulus.divisors if d > 1])))
        res = reference_projective_resolution(t_obj, 5)
        comps = {name: YonedaExtComputation(res, rep) for name, rep in (("x", ses.x), ("y", ses.y), ("z", ses.z))}
        for m in range(4):
            for src, tgt, f in (("x", "y", ses.f), ("y", "z", ses.g)):
                got = yoneda_ext_induced_second(comps[src], comps[tgt], f, m)
                assert got == _ext_induced_second_per_generator(comps[src], comps[tgt], f, m)
                seen_rank = max(seen_rank, got.domain.rank * got.codomain.rank)
    assert seen_rank > 0


def test_cocycle_check_holds_when_ext_is_zero():
    # Ext^0(S_1, P_1) = Hom(S_1, P_1) is zero on 1 -> 2, while the identity of
    # P_1 is a degree-0 cochain that is not a cocycle
    q = a2()
    p1 = projective_generator(q, Z2, 1)
    s1 = stalk(q, Z2, 1, cyclic(Z2, 2))
    for comp in (YonedaExtComputation(reference_projective_resolution(s1, 2), p1), ExtComputation(s1, p1)):
        assert comp.ext(0).is_zero
        delta = arr(comp.deltas[0], len(comp.orders[0]))
        cochains = np.eye(len(comp.orders[0]), dtype=np.int64)
        assert delta.dot(cochains).any()
        with pytest.raises(ValueError, match="not a cocycle"):
            comp.cocycle_to_ext_coords(0, cochains, len(comp.orders[0]))
        assert len(comp.cocycle_to_ext_coords(0, np.zeros((len(comp.orders[0]), 2), dtype=np.int64), 2)) == 0


def test_standard_complex_matches_yoneda_reference():
    # Ext factors, the kernel and image orders of the maps a short exact
    # sequence 0 -> Y' -> Y -> Y'' -> 0 induces, and the section round trip
    from quiverhom.harness import random_rep_ses

    rng = random.Random(43)
    checked = nonzero = induced_nonzero = 0
    for x, y in _yoneda_cases():
        ses = random_rep_ses(rng, y)
        res = reference_projective_resolution(x, 4)
        terms = (("x", ses.x), ("y", ses.y), ("z", ses.z))
        new = {name: ExtComputation(x, rep) for name, rep in terms}
        old = {name: YonedaExtComputation(res, rep) for name, rep in terms}
        for m in range(4):
            for name in new:
                assert new[name].ext(m) == old[name].ext(m)
                assert new[name].order(m) == old[name].order(m)
                checked += 1
                nonzero += not new[name].ext(m).is_zero
            for src, tgt, f in (("x", "y", ses.f), ("y", "z", ses.g)):
                got = ext_induced_second(new[src], new[tgt], f, m)
                want = yoneda_ext_induced_second(old[src], old[tgt], f, m)
                assert (image_order(got), kernel_order(got)) == (image_order(want), kernel_order(want))
                induced_nonzero += image_order(got) > 1
        for comp in new.values():
            _assert_section_round_trip(comp, range(4))
    assert checked >= 600 and nonzero >= 150 and induced_nonzero >= 40


def test_ext_periodicity_against_yoneda_reference():
    # D_{m+2} = D_m for m >= 1, so Ext^{m+2} = Ext^m for m >= 2
    from quiverhom.harness import Config, random_quiver, random_representation

    cfg = Config()
    rng = random.Random(53)
    checked = nonzero = 0
    # Z/n of square-free n is semisimple, so those have Ext^m = 0 for m >= 2
    for n in (4, 8, 9, 12):
        modulus = Modulus(n)
        for _ in range(6):
            q = random_quiver(rng, cfg, right_rooted=True, max_vertices=3, max_arrows=3)
            x = random_representation(rng, q, modulus, cfg)
            res = reference_projective_resolution(x, 6)
            for y in (random_representation(rng, q, modulus, cfg), stalk(q, modulus, rng.choice(q.vertices), cyclic(modulus, n))):
                comp, old = ExtComputation(x, y), YonedaExtComputation(res, y)
                for m in range(2, 6):
                    assert comp.ext(m) == old.ext(m)
                    checked += 1
                for m in (2, 3):
                    assert old.ext(m + 2) == old.ext(m) == comp.ext(m + 2) == comp.ext(m + 20)
                    nonzero += not old.ext(m).is_zero
    assert checked >= 150 and nonzero >= 15


def test_ext_cost_does_not_depend_on_the_degree():
    q = a2()
    x = stalk(q, Z4, 1, cyclic(Z4, 2))
    y = stalk(q, Z4, 2, cyclic(Z4, 2))
    assert not ext(x, y, 2).is_zero and not ext(x, y, 3).is_zero
    assert ext(x, y, 10**6) == ext(x, y, 2)
    assert ext(x, y, 10**6 + 1) == ext(x, y, 3)
    # a degree reads only its own two coboundaries, chosen by parity
    comp = ExtComputation(x, y)
    assert comp.order(10**6 + 1) == comp.ext(10**6 + 1).cardinality
    assert sorted(comp.deltas._built) == [1, 2]


def test_by_degree_builds_each_period_class_once():
    for start, representatives in ((1, [0, 1, 2, 1, 2, 1, 2, 1, 2, 1]), (2, [0, 1, 2, 3, 2, 3, 2, 3, 2, 3])):
        built = []
        values = homology._ByDegree(lambda k: built.append(k) or k, start)
        assert [values[m] for m in reversed(range(10))] == representatives[::-1]
        assert sorted(built) == list(range(start + 2))
        with pytest.raises(IndexError):
            values[-1]


def test_ext_data_is_built_once_per_period_class():
    # Ext^m = ker D_m / im D_{m-1} repeats with period 2 from degree 2 on:
    # asked for degrees 9 down to 0, a computation presents Ext at 0 .. 3
    # only, each equal to a fresh computation's at that degree
    checked = nonzero = 0
    for x, ses in _reference_cases():
        for y in (ses.x, ses.y, ses.z):
            comp, fresh = ExtComputation(x, y), ExtComputation(x, y)
            for m in reversed(range(10)):
                representative = m if m < 4 else 2 + m % 2
                assert comp.ext(m) == fresh.ext(representative)
                assert all(_same_bytes(got, want) for got, want in zip(comp._data(m), fresh._data(representative)))
                checked += 1
                nonzero += m > 3 and not comp.ext(m).is_zero
            assert sorted(comp._ext_data._built) == [0, 1, 2, 3]
    assert checked == 750 and nonzero >= 10


def _cyclic_quivers():
    return [
        loop_quiver(),
        make_quiver([1, 2], [("a", 1, 2), ("b", 2, 1)]),
        make_quiver([1, 2], [("l", 1, 1), ("a", 1, 2)]),
    ]


def test_ext_refuses_a_quiver_with_a_directed_cycle():
    for q in _cyclic_quivers():
        x = stalk(q, Z2, q.vertices[0], cyclic(Z2, 2))
        for degree in (0, 1, 2):
            with pytest.raises(ValueError, match="acyclic"):
                ext(x, x, degree)


def test_ext_computation_on_cyclic_quivers_matches_extension_count():
    from quiverhom.harness import Config, random_representation

    cfg = Config()
    rng = random.Random(47)
    checked = nonzero = 0
    for q in _cyclic_quivers():
        for n in (2, 3, 4):
            modulus = Modulus(n)
            for _ in range(8):
                x = random_representation(rng, q, modulus, cfg, max_rank=1)
                y = random_representation(rng, q, modulus, cfg, max_rank=1)
                cnt = ext1_extension_count(x, y, cap=128)
                if cnt is None:
                    continue
                assert ExtComputation(x, y).order(1) == cnt
                checked += 1
                nonzero += cnt > 1
    assert checked >= 40 and nonzero >= 10
