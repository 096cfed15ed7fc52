"""The Kronecker-form tensor product against the entry-by-entry loops it
replaced, its relations and induced maps, written from their nonzeros,
against the Kronecker-product builders they replaced, entry for entry,
and the order-counting tensor test of purity against the
present-based test it replaced, all kept here as reference oracles; the
vertex-top route of purity's stalk tests is checked against both.  The
projective and random members that `definitional_purity_check` counts but
does not build are built here, as the sanity net behind the splitting
criterion."""

import json
import pathlib
import random
from math import gcd

import numpy as np
import pytest

from linalg_oracle import arr, kron
from quiverhom import purity, rep
from quiverhom.harness import (
    NONPURE_FIXTURE_MODULI,
    Config,
    nonpure_fixture_ses,
    random_quiver,
    random_rep_ses,
    random_representation,
)
from quiverhom.homology import canonical_injective_embedding, projective_generator
from quiverhom.io import ses_from_dict
from quiverhom.linalg import diag, hstack, identity, matmul, mod_rows, transpose
from quiverhom.quiver import has_directed_cycle, opposite
from quiverhom.rep import (
    HomGroupRep,
    RepSES,
    Representation,
    TensorPresentation,
    cokernel_rep,
    dual_rep,
    dual_rep_ses,
    identity_morphism,
    tensor_functional_coords,
    tensor_induced,
    tensor_order,
)
from quiverhom.znmod import (
    FinMod,
    ModHom,
    Modulus,
    canonical_chain,
    is_mono,
    matlis_dual,
    present,
    random_hom,
    torsion_order,
    zero_hom,
)

MODULI = (2, 4, 6, 12, 36, 72)
LARGE_REPS = pathlib.Path(__file__).parent / "data" / "large_reps"


class LoopTensorPresentation:
    """Y tensor_Q X built one entry at a time through a (v, s, t) -> position
    dict: the construction `TensorPresentation` replaced."""

    def __init__(self, y, x):
        self.y = y
        self.x = x
        self.positions = {}
        self.orders = []
        for v in x.quiver.vertices:
            cf = y.vertex_modules[v].factors
            df = x.vertex_modules[v].factors
            for s, c in enumerate(cf):
                for t, d in enumerate(df):
                    self.positions[(v, s, t)] = len(self.orders)
                    self.orders.append(gcd(c, d))
        relations = []
        qop = opposite(x.quiver)
        flip = {a.id: a_op.id for a, a_op in zip(x.quiver.arrows, qop.arrows)}
        for a in x.quiver.arrows:
            i, j = a.src, a.tgt
            y_map = y.map(flip[a.id])
            x_map = x.map(a.id)
            for s in range(y.vertex_modules[j].rank):
                for t in range(x.vertex_modules[i].rank):
                    rel = np.zeros(len(self.orders), dtype=np.int64)
                    w = [row[s] for row in y_map.matrix]
                    for u in range(y.vertex_modules[i].rank):
                        p = self.positions[(i, u, t)]
                        rel[p] = (rel[p] + int(w[u])) % self.orders[p]
                    z = [row[t] for row in x_map.matrix]
                    for r in range(x.vertex_modules[j].rank):
                        p = self.positions[(j, s, r)]
                        rel[p] = (rel[p] - int(z[r])) % self.orders[p]
                    if rel.any():
                        relations.append(rel)
        g = len(self.orders)
        self.module, self._proj, self._sect = present(hstack([diag(self.orders), transpose(relations, g)], g), x.modulus)

    def lift(self, coords):
        c = self.module.reduce(coords)
        if not len(self.orders):
            return np.zeros(0, dtype=np.int64)
        v = arr(self._sect, self.module.rank).dot(c) % self.x.modulus.n if self.module.rank else np.zeros(len(self.orders), dtype=np.int64)
        return v % np.array(self.orders, dtype=np.int64)


def _descend(pres_src, pres_tgt, big):
    src, tgt = pres_src.module, pres_tgt.module
    if not (src.rank and tgt.rank):
        return zero_hom(src, tgt)
    return ModHom(src, tgt, arr(pres_tgt._proj, len(pres_tgt.orders)).dot(big).dot(arr(pres_src._sect, src.rank)))


def loop_induced_right(pres_src, pres_tgt, f):
    big = np.zeros((len(pres_tgt.orders), len(pres_src.orders)), dtype=np.int64)
    for (v, s, t), p_src in pres_src.positions.items():
        fm = f.components[v].matrix
        for r in range(f.target.vertex_modules[v].rank):
            p_tgt = pres_tgt.positions[(v, s, r)]
            big[p_tgt, p_src] = (big[p_tgt, p_src] + fm[r][t]) % pres_tgt.orders[p_tgt]
    return _descend(pres_src, pres_tgt, big)


def loop_induced_left(pres_src, pres_tgt, theta):
    big = np.zeros((len(pres_tgt.orders), len(pres_src.orders)), dtype=np.int64)
    for (v, s, t), p_src in pres_src.positions.items():
        tm = theta.components[v].matrix
        for u in range(theta.target.vertex_modules[v].rank):
            p_tgt = pres_tgt.positions[(v, u, t)]
            big[p_tgt, p_src] = (big[p_tgt, p_src] + tm[u][s]) % pres_tgt.orders[p_tgt]
    return _descend(pres_src, pres_tgt, big)


def loop_functional_coords(pres, g):
    n = pres.x.modulus.n
    lam = np.zeros(len(pres.orders), dtype=np.int64)
    for (v, s, t), p in pres.positions.items():
        w = [row[s] for row in g.components[v].matrix]
        d = pres.x.vertex_modules[v].factors[t]
        lam[p] = (int(w[t]) * (n // d)) % n
    dual = matlis_dual(pres.module)
    coords = np.zeros(dual.rank, dtype=np.int64)
    for k in range(dual.rank):
        val = int(lam.dot(pres.lift(np.eye(dual.rank, dtype=np.int64)[k]))) % n
        f = dual.factors[k]
        assert val % (n // f) == 0
        coords[k] = (val // (n // f)) % f
    return coords


def _pairs(seed, count):
    """Harness-generated (Y over Q^op, X over Q) pairs: quivers of up to 3
    vertices and 4 arrows, loops and cycles allowed, ranks 0 to 3."""
    cfg = Config(moduli=MODULI)
    for k in range(count):
        rng = random.Random(seed * 100003 + k)
        modulus = Modulus(MODULI[k % len(MODULI)])
        q = random_quiver(rng, cfg, max_vertices=3, max_arrows=4)
        x = random_representation(rng, q, modulus, cfg, max_rank=1 + k % 3)
        y = random_representation(rng, opposite(q), modulus, cfg, max_rank=1 + k % 3)
        yield rng, q, modulus, x, y


def _random_morphism(rng, source, target):
    hom = HomGroupRep(source, target)
    return hom.from_coords([rng.randrange(d) for d in hom.group.factors])


def test_presentation_matches_loop_oracle():
    nonzero = cyclic = zero_rank = 0
    for _, q, _, x, y in _pairs(1, 300):
        new, old = TensorPresentation(y, x), LoopTensorPresentation(y, x)
        assert new.orders == tuple(old.orders)
        assert new.module == old.module
        assert new._proj == old._proj
        assert new._sect == old._sect
        assert tensor_order(y, x) == new.module.cardinality
        nonzero += not new.module.is_zero
        cyclic += has_directed_cycle(q)
        zero_rank += any(r.vertex_modules[v].is_zero for r in (x, y) for v in q.vertices)
    assert nonzero >= 100 and cyclic >= 30 and zero_rank >= 30


def test_induced_maps_and_functionals_match_loop_oracle():
    for rng, q, modulus, x, y in _pairs(2, 200):
        cfg = Config(moduli=MODULI)
        x2 = random_representation(rng, q, modulus, cfg)
        y2 = random_representation(rng, opposite(q), modulus, cfg)
        f = _random_morphism(rng, x, x2)
        theta = _random_morphism(rng, y2, y)
        reps = {"yx": (y, x), "yx2": (y, x2), "y2x": (y2, x)}
        new = {k: TensorPresentation(*r) for k, r in reps.items()}
        old = {k: LoopTensorPresentation(*r) for k, r in reps.items()}
        right = tensor_induced(new["yx"], new["yx2"], identity_morphism(y), f)
        left = tensor_induced(new["y2x"], new["yx"], theta, identity_morphism(x))
        assert right == loop_induced_right(old["yx"], old["yx2"], f)
        assert left == loop_induced_left(old["y2x"], old["yx"], theta)
        both = tensor_induced(new["y2x"], new["yx2"], theta, f)
        assert both == loop_induced_right(old["yx"], old["yx2"], f).compose(loop_induced_left(old["y2x"], old["yx"], theta))
        basis = HomGroupRep(y, dual_rep(x)).basis
        gs = basis + [_random_morphism(rng, y, dual_rep(x))]
        cols = tensor_functional_coords(new["yx"], gs)
        assert len(cols) == new["yx"].module.rank and all(len(row) == len(gs) for row in cols)
        for k, g in enumerate(gs):
            assert np.array_equal([row[k] for row in cols], loop_functional_coords(old["yx"], g))


def test_tensor_induced_rejects_mismatched_morphisms():
    _, _, _, x, y = next(_pairs(3, 1))
    pres = TensorPresentation(y, x)
    with pytest.raises(ValueError):
        tensor_induced(pres, pres, identity_morphism(x), identity_morphism(y))


def kron_tensor_relations(y, x):
    """`rep._tensor_relations` as it was before its blocks were written from
    their nonzeros: a dense block of two Kronecker products per arrow."""
    qop = opposite(x.quiver)
    if y.quiver != qop or y.modulus != x.modulus:
        raise ValueError("tensor needs representations over mutually opposite quivers")
    orders = []
    slices = {}
    for v in x.quiver.vertices:
        start = len(orders)
        orders += [gcd(c, d) for c in y.vertex_modules[v].factors for d in x.vertex_modules[v].factors]
        slices[v] = slice(start, len(orders))
    rels = []  # the relations, as columns
    for a, a_op in zip(x.quiver.arrows, qop.arrows):
        ym, xm = y.map(a_op.id).matrix, x.map(a.id).matrix  # Y(j) -> Y(i), X(i) -> X(j)
        ys, xs = y.vertex_modules[a.tgt].rank, x.vertex_modules[a.src].rank
        if not (ys and xs):
            continue  # no pairs (s, t) at (j, i)
        rel = [[0] * (ys * xs) for _ in orders]
        for rows, block, sign in ((slices[a.src], kron(ym, identity(xs)), 1), (slices[a.tgt], kron(identity(ys), xm), -1)):
            for r, brow in zip(range(rows.start, rows.stop), block, strict=True):
                rel[r] = [u + sign * w for u, w in zip(rel[r], brow)]
        rels += [col for col in zip(*mod_rows(rel, orders)) if any(col)]
    return tuple(orders), slices, transpose(rels, len(orders))


def kron_tensor_induced(pres_src, pres_tgt, theta, f):
    """`rep.tensor_induced` as it was before its blocks were written from
    their nonzeros: the block kron(theta_v, f_v) at each vertex."""
    if (theta.source, theta.target, f.source, f.target) != (pres_src.y, pres_tgt.y, pres_src.x, pres_tgt.x):
        raise ValueError("presentations do not match the morphisms")
    src, tgt = pres_src.module, pres_tgt.module
    if not (src.rank and tgt.rank):
        return zero_hom(src, tgt)
    big = [[0] * len(pres_src.orders) for _ in pres_tgt.orders]
    for v, rows in pres_tgt.slices.items():
        block = kron(theta.components[v].matrix, f.components[v].matrix)
        for r, brow in zip(range(rows.start, rows.stop), block, strict=True):
            big[r][pres_src.slices[v]] = brow
    big = mod_rows(big, pres_tgt.orders)
    return ModHom(src, tgt, matmul(matmul(pres_tgt._proj, big, len(pres_src.orders)), pres_src._sect, src.rank))


def _shares_a_cell(left, right):
    """Whether a loop's two relation blocks meet in a cell where both are
    nonzero: a diagonal entry of each map."""
    return any(row[s] for s, row in enumerate(left)) and any(row[t] for t, row in enumerate(right))


def test_block_builders_match_their_kron_references():
    # entry for entry, on loops whose two blocks add in one cell before the
    # reduction, parallel arrows, zero-rank vertices and moduli that are
    # not prime powers
    loops = parallel = zero_rank = composite = 0
    for rng, q, modulus, x, y in _pairs(4, 150):
        assert rep._tensor_relations(y, x) == kron_tensor_relations(y, x)
        cfg = Config(moduli=MODULI)
        x2 = random_representation(rng, q, modulus, cfg)
        y2 = random_representation(rng, opposite(q), modulus, cfg)
        f = _random_morphism(rng, x, x2)
        theta = _random_morphism(rng, y2, y)
        src, tgt = TensorPresentation(y2, x), TensorPresentation(y, x2)
        assert tensor_induced(src, tgt, theta, f) == kron_tensor_induced(src, tgt, theta, f)
        flip = dict(zip(q.arrows, opposite(q).arrows))
        loops += any(a.src == a.tgt and _shares_a_cell(y.map(flip[a].id).matrix, x.map(a.id).matrix) for a in q.arrows)
        parallel += len({(a.src, a.tgt) for a in q.arrows}) < len(q.arrows)
        zero_rank += any(r.vertex_modules[v].is_zero for r in (x, y) for v in q.vertices)
        composite += len(modulus.prime_factors) > 1
    assert loops >= 20 and parallel >= 20 and zero_rank >= 20 and composite >= 50


def reference_tensor_left_exact(s, ses):
    """Whether s tensor f is mono, decided on the presented groups: the
    test `purity._tensor_left_exact` replaced."""
    pres_x = TensorPresentation(s, ses.x)
    pres_y = TensorPresentation(s, ses.y)
    return is_mono(tensor_induced(pres_x, pres_y, identity_morphism(s), ses.f))


def _stalk_descriptors(ses):
    """The witness descriptors of the stalks of the cheap family, in the
    order `definitional_purity_check` decides them."""
    vertices, divisors = ses.x.quiver.vertices, ses.x.modulus.divisors
    return [{"kind": "test-object", "shape": "stalk", "vertex": v, "order": d} for v in vertices for d in divisors[1:]]


def _reference_random_rep(qop, modulus, rng):
    divisors = [d for d in modulus.divisors if d > 1]
    mods = {}
    for v in qop.vertices:
        orders = [rng.choice(divisors) for _ in range(rng.randrange(0, 3))]
        mods[v] = FinMod(modulus, canonical_chain(orders, modulus.n))
    maps = {a.id: random_hom(rng, mods[a.src], mods[a.tgt]) for a in qop.arrows}
    return Representation(qop, modulus, mods, maps)


def reference_definitional_members(ses, budget=5, seed=0):
    """The sanity-net test objects `definitional_purity_check` counts but
    does not build, as (witness descriptor, representation) pairs: the
    projective generators of the opposite quiver when it is acyclic, then
    `budget` random representations drawn from `random.Random(seed)`."""
    modulus = ses.f.source.modulus
    qop = opposite(ses.f.source.quiver)
    members = []
    if not has_directed_cycle(qop):
        for v in qop.vertices:
            members.append(({"kind": "test-object", "shape": "projective", "vertex": v}, projective_generator(qop, modulus, v)))
    rng = random.Random(seed)
    for t in range(budget):
        members.append(({"kind": "test-object", "shape": "random", "index": t}, _reference_random_rep(qop, modulus, rng)))
    return members


def reference_definitional_purity_check(ses, budget=5, seed=0):
    """The cheap family's witness, else the first reference member the
    sequence fails, each tensored through `purity._tensor_left_exact`, with
    the count of every test object: the definitional check that built and
    tensored its whole family."""
    members = reference_definitional_members(ses, budget, seed)
    witness = purity._cheap_definitional_witness(ses)
    if witness is None:
        witness = next((desc for desc, s in members if not purity._tensor_left_exact(s, ses)), None)
    cheap = len(ses.x.quiver.vertices) * (len(ses.x.modulus.divisors) - 1) + 1
    return witness is None, cheap + len(members), witness


def _definitional_test_objects(monkeypatch, ses):
    """Every test object `definitional_purity_check` counts for `ses`: the
    stalks, rebuilt from their descriptors since the check reads them from
    vertex tops, then the one it tensors (the dual of the sub term) and the
    reference projective and random members.  Tests that always pass keep
    the check from stopping at the first failure."""
    seen = []
    monkeypatch.setattr(purity, "_stalk_witness", lambda _: None)
    monkeypatch.setattr(purity, "_tensor_left_exact", lambda s, _: seen.append(s) or True)
    _, tested, _ = purity.definitional_purity_check(ses)
    monkeypatch.undo()
    purity._cheap_definitional_witness.cache_clear()  # memoized under the patches
    stalks = [purity._cheap_test_object(ses, desc) for desc in _stalk_descriptors(ses)]
    seen += [s for _, s in reference_definitional_members(ses)]
    assert len(stalks) + len(seen) == tested
    return stalks + seen


def _purity_sequences():
    """Harness sequences (cycles allowed, n up to 72), canonical
    coresolution steps, the non-pure fixtures and the purity files of
    tests/data/large_reps."""
    moduli = (2, 4, 6, 9, 12, 36, 72)
    cfg = Config(moduli=moduli)
    for k in range(90):
        rng = random.Random(7919 * k + 5)
        modulus = Modulus(moduli[k % len(moduli)])
        q = random_quiver(rng, cfg, max_vertices=3, max_arrows=4)
        x = random_representation(rng, q, modulus, cfg, max_rank=1 + k % 3)
        yield random_rep_ses(rng, x)
        if not has_directed_cycle(q):
            _, mono = canonical_injective_embedding(x)
            yield RepSES(mono, cokernel_rep(mono)[1])
    for n in NONPURE_FIXTURE_MODULI:
        yield nonpure_fixture_ses(Modulus(n))
    for path in sorted(LARGE_REPS.glob("item*-purity.json")):
        yield ses_from_dict(json.loads(path.read_text()))


def test_order_count_matches_presented_tensor_test(monkeypatch):
    objects = not_mono = cyclic = 0
    for ses in _purity_sequences():
        for s in _definitional_test_objects(monkeypatch, ses):
            verdict = purity._tensor_left_exact(s, ses)
            assert verdict == reference_tensor_left_exact(s, ses)
            objects += 1
            not_mono += not verdict
        cyclic += has_directed_cycle(ses.x.quiver)
    assert objects >= 1000 and not_mono >= 50 and cyclic >= 5


def test_splitting_decides_purity_as_the_full_definitional_family_does():
    # the sanity net: the splitting criterion, the dual-splitting criterion
    # and the definitional check over every reference member agree, and a
    # pure verdict's retraction replays
    pure = impure = 0
    for ses in _purity_sequences():
        verdict = purity.is_pure_rep_ses(ses)
        assert verdict.pure == (purity.rep_retraction(dual_rep_ses(ses).f) is not None)
        assert reference_definitional_purity_check(ses) == purity.definitional_purity_check(ses)
        if verdict.pure:
            assert verdict.replay(ses)
            pure += 1
        else:
            impure += 1
    assert pure >= 50 and impure >= 20


def test_vertex_tops_give_the_stalk_tensor_orders():
    # S (x) R = Z/d (x) top_v(R) for the stalk S of Z/d at v, so the top
    # route decides each stalk as the presented tensor test does, and the
    # stalk witness is the first stalk that test fails
    objects = not_mono = 0
    for ses in _purity_sequences():
        failing = []
        for desc in _stalk_descriptors(ses):
            s, v, d = purity._cheap_test_object(ses, desc), desc["vertex"], desc["order"]
            orders = [torsion_order(purity._vertex_top(r, v), d) for r in (ses.x, ses.y, ses.z)]
            assert orders == [tensor_order(s, r) for r in (ses.x, ses.y, ses.z)]
            verdict = orders[0] * orders[2] == orders[1]
            assert verdict == reference_tensor_left_exact(s, ses)
            objects += 1
            if not verdict:
                not_mono += 1
                failing.append(desc)
        assert purity._stalk_witness(ses) == (failing[0] if failing else None)
    assert objects >= 1000 and not_mono >= 50
