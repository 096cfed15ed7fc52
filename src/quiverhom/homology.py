"""Projective generators and resolutions, the canonical injective
coresolution step, Ext groups in the category of quiver representations, a
brute-force extension-counting oracle, and totally acyclic complexes of
injective representations.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .quiver import Quiver, VertexId, has_directed_cycle, out_arrows, paths_between, trivial_path
from .rep import (
    HomGroupRep,
    RepMorphism,
    RepSES,
    Representation,
    coinduced,
    copresentation_embedding,
    direct_sum_reps,
    double_dual_rep_iso,
    dual_rep,
    dual_rep_morphism,
    kernel_rep,
    psi,
)
from .znmod import (
    FinMod,
    HomSystem,
    ModHom,
    Modulus,
    ambient_coords_solve,
    free_mod,
    hom_entry_orders,
    hom_entry_scales,
    image_order,
    is_epi,
    is_injective_module,
    is_mono,
    kernel_of_hom,
    kernel_order,
    quotient_with_projection,
    retraction_of,
    section_of,
)


def rep_digest(x: Representation) -> str:
    h = hashlib.sha256()
    h.update(repr(x.quiver).encode())
    h.update(str(x.modulus.n).encode())
    for v in x.quiver.vertices:
        h.update(str(x.vertex_modules[v].factors).encode())
    for a in x.quiver.arrows:
        h.update(a.id.encode())
        h.update(x.arrow_maps[a.id].matrix.tobytes())
    return h.hexdigest()[:16]


def morphism_digest(f: RepMorphism) -> Tuple:
    return tuple(f.components[v].matrix.tobytes() for v in f.source.quiver.vertices)


# ---------------------------------------------------------------------------
# projective generators and covers
# ---------------------------------------------------------------------------


def _free_rep(q: Quiver, modulus: Modulus, ranks: Dict[VertexId, int]):
    """The direct sum of ranks[v] copies of P_v over the vertices v, and its
    path table {(v, w): paths from v to w} for every v with ranks[v] > 0.

    At w it is free on the triples (v, i, p), with i < ranks[v] and p a path
    from v to w, ordered by v, then i, then p in `paths_between` order.
    Arrow maps extend paths, block by block.  Requires every path set from
    a vertex of positive rank to be finite."""
    sources = [v for v in q.vertices if ranks[v]]
    paths = {(v, w): paths_between(q, v, w) for v in sources for w in q.vertices}
    mods = {w: free_mod(modulus, sum(ranks[v] * len(paths[v, w]) for v in sources)) for w in q.vertices}
    maps = {}
    for a in q.arrows:
        mat = np.zeros((mods[a.tgt].rank, mods[a.src].rank), dtype=np.int64)
        row = col = 0
        for v in sources:
            src, tgt = paths[v, a.src], paths[v, a.tgt]
            index = {p.arrows: t for t, p in enumerate(tgt)}
            extended = np.array([index[p.arrows + (a,)] for p in src], dtype=np.int64)
            for _ in range(ranks[v]):
                mat[row + extended, col + np.arange(len(src))] = 1
                row, col = row + len(tgt), col + len(src)
        maps[a.id] = ModHom(mods[a.src], mods[a.tgt], mat)
    return Representation(q, modulus, mods, maps), paths


def projective_generator(q: Quiver, modulus: Modulus, v: VertexId) -> Representation:
    """P_v: the free module on the paths from v at each vertex, with arrows
    acting by path extension.  Requires the paths from v to be finite."""
    q.check_vertex(v)
    return _free_rep(q, modulus, {w: int(w == v) for w in q.vertices})[0]


def yoneda_morphism(p_v: Representation, v: VertexId, x: Representation, element: np.ndarray) -> RepMorphism:
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


def projective_cover_onto(x: Representation) -> Tuple[Representation, RepMorphism]:
    """An epi from a finite direct sum of the P_v onto x (one copy of P_v per
    canonical generator of x(v)); not minimal.

    The cover is `_free_rep` on ranks[v] = rank of x(v), so at w it is free
    on the triples (v, i, p) with i a canonical generator of x(v); (v, i, p)
    maps to column i of x.along(p).
    """
    q = x.quiver
    ranks = {v: x.vertex_modules[v].rank for v in q.vertices}
    total, paths = _free_rep(q, x.modulus, ranks)
    comps = {}
    for w in q.vertices:
        xw = x.vertex_modules[w]
        blocks = [np.zeros((xw.rank, 0), dtype=np.int64)]
        for v in q.vertices:
            if ranks[v] and paths[v, w]:
                # along[:, i, t] is column i of x along the t-th path, so the
                # reshape orders the columns by generator, then by path
                along = np.stack([x.along(p).matrix for p in paths[v, w]], axis=2)
                blocks.append(along.reshape(xw.rank, ranks[v] * len(paths[v, w])))
        comps[w] = ModHom(total.vertex_modules[w], xw, np.hstack(blocks))
    return total, RepMorphism(total, x, comps)


@dataclass
class ProjResolution:
    """... -> P_1 -> P_0 -> x -> 0 with projective terms, built by iterated
    covers; diffs[k] maps terms[k+1] to terms[k]."""

    x: Representation
    terms: List[Representation]
    diffs: List[RepMorphism]
    augmentation: RepMorphism
    syzygies: List[Representation]

    def extend_to(self, length: int):
        while len(self.terms) < length:
            syz, incl = kernel_rep(self.diffs[-1] if self.diffs else self.augmentation)
            cover, epi = projective_cover_onto(syz)
            self.terms.append(cover)
            self.diffs.append(incl.compose(epi))
            self.syzygies.append(syz)


_RES_CACHE: Dict[Tuple, ProjResolution] = {}


def projective_resolution(x: Representation, length: int) -> ProjResolution:
    """Projective resolution with at least `length` terms; cached by the
    structural digest of x."""
    if has_directed_cycle(x.quiver):
        raise ValueError("projective resolutions need an acyclic quiver")
    key = (rep_digest(x),)
    res = _RES_CACHE.get(key)
    if res is None or res.x != x:
        cover, epi = projective_cover_onto(x)
        res = ProjResolution(x, [cover], [], epi, [])
        _RES_CACHE[key] = res
    res.extend_to(length)
    return res


# ---------------------------------------------------------------------------
# injective hulls and the coresolution step
# ---------------------------------------------------------------------------


def injective_hull(m: FinMod) -> Tuple[FinMod, ModHom]:
    """Hull over Z/n computed per invariant factor: Z/d embeds in Z/h where h
    carries the full n-power of every prime dividing d."""
    n = m.modulus.n
    hull_factors = []
    for d in m.factors:
        h = 1
        for p, k in m.modulus.prime_factors.items():
            if d % p == 0:
                h *= p**k
        hull_factors.append(h)
    hull = FinMod(m.modulus, tuple(hull_factors))
    embed = ModHom(m, hull, np.diag(np.array([h // d for d, h in zip(m.factors, hull_factors)], dtype=np.int64)) if m.rank else np.zeros((0, 0), dtype=np.int64))
    return hull, embed


def canonical_injective_embedding(x: Representation) -> Tuple[Representation, RepMorphism]:
    """One step of the canonical injective coresolution: the mono from x into
    the product of the e^v of the injective hulls of its vertex modules."""
    return copresentation_embedding(x, {v: injective_hull(x.vertex_modules[v])[1] for v in x.quiver.vertices})


# ---------------------------------------------------------------------------
# Ext groups
# ---------------------------------------------------------------------------


@dataclass
class ExtGroup:
    value: FinMod
    degree: int
    source_digest: str
    target_digest: str

    @property
    def cardinality(self) -> int:
        return self.value.cardinality

    @property
    def is_zero(self) -> bool:
        return self.value.is_zero


class ExtComputation:
    """Cohomology of Hom(P_., Y) for a fixed projective resolution of X.

    Exposes the Ext groups together with coordinates for cocycles, which is
    what the long-exact-sequence and dimension-shifting checks consume.
    """

    def __init__(self, resolution: ProjResolution, y: Representation, max_degree: int):
        resolution.extend_to(max_degree + 2)
        self.resolution = resolution
        self.y = y
        self.max_degree = max_degree
        self.homs: List[HomGroupRep] = [HomGroupRep(p, y) for p in resolution.terms[: max_degree + 2]]
        self.deltas: List[ModHom] = []
        for k in range(max_degree + 1):
            src, tgt = self.homs[k], self.homs[k + 1]
            mat = tgt.coord_matrix([g.compose(resolution.diffs[k]) for g in src.basis])
            self.deltas.append(ModHom(src.group, tgt.group, mat))
        self._ext_data: Dict[int, Tuple[FinMod, FinMod, ModHom, np.ndarray]] = {}

    def _data(self, m: int):
        if m not in self._ext_data:
            ker, incl = kernel_of_hom(self.deltas[m])
            im_gens: List[np.ndarray] = []
            if m and self.deltas[m - 1].domain.rank:
                # every image generator solved against incl at once
                prev = self.deltas[m - 1]
                coords = ambient_coords_solve(incl.codomain.factors, incl.matrix, prev.matrix, self.y.modulus)
                assert coords is not None, "image does not lie in the kernel (bug)"
                im_gens = [ker.reduce(coords[:, c]) for c in range(prev.domain.rank)]
            quo, proj, _ = quotient_with_projection(ker.factors, im_gens, self.y.modulus)
            self._ext_data[m] = (ker, quo, incl, proj)
        return self._ext_data[m]

    def ext(self, m: int) -> FinMod:
        if m < 0:
            raise ValueError("negative degree")
        if m > self.max_degree:
            raise ValueError("degree beyond computed window")
        return self._data(m)[1]

    def cocycle_to_ext_coords(self, m: int, hom_coords: np.ndarray) -> np.ndarray:
        """The Ext^m coordinates of cocycles given by their Hom(P_m, Y)
        coordinates, one column per cocycle, all solved at once."""
        ker, quo, incl, proj = self._data(m)
        c = ambient_coords_solve(incl.codomain.factors, incl.matrix, hom_coords, self.y.modulus)
        if c is None:
            raise ValueError("not a cocycle")
        if not quo.rank:
            return np.zeros((0, hom_coords.shape[1]), dtype=np.int64)
        return proj.dot(c % _column(ker.factors)) % _column(quo.factors)


def ext(x: Representation, y: Representation, degree: int) -> ExtGroup:
    """Ext^degree(X, Y) in the representation category."""
    res = projective_resolution(x, degree + 2)
    comp = ExtComputation(res, y, degree)
    return ExtGroup(comp.ext(degree), degree, rep_digest(x), rep_digest(y))


def ext_induced_second(comp_src: ExtComputation, comp_tgt: ExtComputation, f: RepMorphism, m: int) -> ModHom:
    """The map Ext^m(X, Y) -> Ext^m(X, Y') induced by f : Y -> Y', for two
    computations sharing the same resolution of X."""
    if comp_src.resolution is not comp_tgt.resolution:
        raise ValueError("computations must share the resolution")
    ker_s, quo_s, incl_s, proj_s = comp_src._data(m)
    src_hom, tgt_hom = comp_src.homs[m], comp_tgt.homs[m]
    # lift every Ext generator to a cocycle, postcompose with f, project
    lifts = ambient_coords_solve(quo_s.factors, proj_s, np.eye(quo_s.rank, dtype=np.int64), comp_src.y.modulus)
    assert lifts is not None
    cocycles = incl_s.matrix.dot(lifts % _column(ker_s.factors)) % _column(src_hom.group.factors)
    fgs = [f.compose(src_hom.from_coords(cocycles[:, k])) for k in range(quo_s.rank)]
    return ModHom(quo_s, comp_tgt.ext(m), comp_tgt.cocycle_to_ext_coords(m, tgt_hom.coord_matrix(fgs)))


def _column(factors: Tuple[int, ...]) -> np.ndarray:
    return np.array(factors, dtype=np.int64).reshape(-1, 1)


# ---------------------------------------------------------------------------
# brute-force extension enumeration (independent oracle for Ext^1)
# ---------------------------------------------------------------------------


def _chains_of_cardinality(modulus: Modulus, card: int) -> List[Tuple[int, ...]]:
    """All invariant-factor chains over Z/n with the given cardinality."""
    out: List[Tuple[int, ...]] = []

    def go(remaining: int, min_factor: int, acc: Tuple[int, ...]):
        if remaining == 1:
            out.append(acc)
            return
        for d in modulus.divisors:
            if d <= 1 or remaining % d != 0:
                continue
            if min_factor > 1 and d % min_factor != 0:
                continue
            go(remaining // d, d, acc + (d,))

    go(card, 1, ())
    return out


def _enumerate_module_homs(dom: FinMod, cod: FinMod, cap: int):
    orders = hom_entry_orders(dom.factors, cod.factors)
    scales = hom_entry_scales(dom.factors, cod.factors)
    total = int(np.prod(orders)) if orders.size else 1
    if total > cap:
        return None
    mats = []
    for combo in itertools.product(*[range(int(o)) for o in orders.reshape(-1)]):
        t = np.array(combo, dtype=np.int64).reshape(orders.shape)
        mats.append(ModHom(dom, cod, t * scales))
    return mats


def _module_aut_count(m: FinMod, cap: int) -> Optional[int]:
    homs = _enumerate_module_homs(m, m, cap)
    if homs is None:
        return None
    return sum(1 for h in homs if is_mono(h))


def ext1_extension_count(x: Representation, y: Representation, cap: int = 4096) -> Optional[int]:
    """Number of equivalence classes of extensions 0 -> Y -> E -> X -> 0,
    counted by exhaustive enumeration of middle structures; the count equals
    the cardinality of Ext^1(X, Y).  Returns None when the search space
    exceeds the cap.

    To avoid isomorphism tests across candidate middles, each isomorphism
    class is weighted by |Aut_rep(E)| / prod_v |Aut(E(v))|, which counts each
    class exactly once over all structures carrying it.
    """
    q, modulus = x.quiver, x.modulus
    cards = {v: x.vertex_modules[v].cardinality * y.vertex_modules[v].cardinality for v in q.vertices}
    chain_options = {v: _chains_of_cardinality(modulus, cards[v]) for v in q.vertices}
    grand_total = 0
    for combo in itertools.product(*[chain_options[v] for v in q.vertices]):
        mods = {v: FinMod(modulus, c) for v, c in zip(q.vertices, combo)}
        g_order = 1
        for v in q.vertices:
            cnt = _module_aut_count(mods[v], cap)
            if cnt is None:
                return None
            g_order *= cnt
        arrow_spaces = []
        total_structures = 1
        for a in q.arrows:
            homs = _enumerate_module_homs(mods[a.src], mods[a.tgt], cap)
            if homs is None:
                return None
            arrow_spaces.append(homs)
            total_structures *= len(homs)
            if total_structures > cap:
                return None
        numerator = 0
        for arrow_maps in itertools.product(*arrow_spaces):
            e = Representation(q, modulus, mods, {a.id: h for a, h in zip(q.arrows, arrow_maps)})
            homs_ye = HomGroupRep(y, e)
            homs_ex = HomGroupRep(e, x)
            homs_ee = HomGroupRep(e, e)
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
                    inv_comps = {v: _module_inverse(phi.components[v]) for v in q.vertices}
                    auts.append((phi, RepMorphism(e, e, inv_comps)))
            orbits = _count_orbits(pairs, auts)
            numerator += orbits * len(auts)
        assert numerator % g_order == 0, "orbit-counting identity failed (bug)"
        grand_total += numerator // g_order
    return grand_total


def _module_inverse(h: ModHom) -> ModHom:
    inv = retraction_of(h)
    assert inv is not None
    return inv


def _count_orbits(pairs, auts) -> int:
    def digest(pair):
        i, p = pair
        return (morphism_digest(i), morphism_digest(p))

    index = {digest(pair): pair for pair in pairs}
    seen = set()
    orbits = 0
    for pair in pairs:
        d = digest(pair)
        if d in seen:
            continue
        orbits += 1
        stack = [pair]
        seen.add(d)
        while stack:
            i, p = stack.pop()
            for phi, phi_inv in auts:
                nd = (morphism_digest(phi.compose(i)), morphism_digest(p.compose(phi_inv)))
                if nd not in seen:
                    if nd not in index:
                        raise AssertionError("automorphism left the SES set (bug)")
                    seen.add(nd)
                    stack.append(index[nd])
    return orbits


# ---------------------------------------------------------------------------
# complexes of representations and total acyclicity
# ---------------------------------------------------------------------------


class RepComplex:
    """A finite window of a complex; diffs[k] maps degree k to degree k-1."""

    def __init__(self, components: Dict[int, Representation], diffs: Dict[int, RepMorphism]):
        self.components = dict(components)
        self.diffs = dict(diffs)
        for k, d in self.diffs.items():
            if d.source != self.components[k] or d.target != self.components[k - 1]:
                raise ValueError(f"differential at degree {k} has wrong endpoints")
            if k - 1 in self.diffs and not self.diffs[k - 1].compose(d).is_zero:
                raise ValueError(f"d o d != 0 at degree {k}")

    def degrees(self) -> List[int]:
        return sorted(self.components)

    def interior_degrees(self) -> List[int]:
        degs = self.degrees()
        return [k for k in degs if k + 1 in self.diffs and k in self.diffs]

    def is_exact_at(self, k: int) -> bool:
        inc, out = self.diffs[k + 1], self.diffs[k]
        return all(
            image_order(inc.components[v]) == kernel_order(out.components[v])
            for v in out.source.quiver.vertices
        )

    def interior_exact(self) -> bool:
        return all(self.is_exact_at(k) for k in self.interior_degrees())


@dataclass
class AcyclicComplex:
    """A verified window of a totally acyclic complex of injective
    representations with a designated cycle."""

    complex: RepComplex
    cycle_witness: RepMorphism  # mono from the cycle representation into degree -1
    left_steps: List[RepSES]
    verification: dict


def _injective_rep_structure_check(x: Representation) -> bool:
    for v in x.quiver.vertices:
        if not is_injective_module(x.vertex_modules[v])[0]:
            return False
        if section_of(psi(x, v)) is None:
            return False
    return True


def strongly_fp_injective_test_family(q: Quiver, modulus: Modulus) -> List[Representation]:
    """e^v of the free module of rank one, for each vertex; finite products of
    these add nothing to Hom-exactness tests since Hom out of a finite direct
    sum splits."""
    return [coinduced(q, modulus, v, free_mod(modulus, 1)).rep for v in q.vertices]


class LeftResolutionFailure(Exception):
    def __init__(self, vertex, reason):
        self.vertex = vertex
        self.reason = reason
        super().__init__(f"left resolution failed at vertex {vertex!r}: {reason}")


def _left_injective_step(w: Representation):
    """An epi from an injective representation onto w with kernel again
    having epi canonical maps, built by projective lifting vertex by vertex
    in reverse topological order; fails organically when some psi is not epi.

    Returns (total, pi, ker, incl)."""
    q, modulus = w.quiver, w.modulus
    kernels = {v: kernel_of_hom(psi(w, v)) for v in q.vertices}
    covers = {v: free_mod(modulus, kernels[v][0].rank) for v in q.vertices}
    singles = {v: coinduced(q, modulus, v, covers[v]) for v in q.vertices}
    total, injs, projs = direct_sum_reps([singles[v].rep for v in q.vertices])
    vertex_order = _sinks_first_order(q)
    v_index = {v: t for t, v in enumerate(q.vertices)}
    pi_comps: Dict[VertexId, ModHom] = {}
    for wv in vertex_order:
        sysm = HomSystem(modulus)
        var = sysm.add_hom_unknown(total.vertex_modules[wv].factors, w.vertex_modules[wv].factors)
        for a in out_arrows(q, wv):
            u = a.tgt
            rhs_h = pi_comps[u].compose(total.map(a.id))
            sysm.add_matrix_equation(
                [(var, w.map(a.id).matrix, np.eye(total.vertex_modules[wv].rank, dtype=np.int64), 1)],
                rhs_h.matrix,
                w.vertex_modules[u].factors,
            )
        out = sysm.solve()
        if out is None:
            raise LeftResolutionFailure(wv, "no lift against the canonical product map")
        part = ModHom(total.vertex_modules[wv], w.vertex_modules[wv], sysm.assignment(out[0])[0])
        # force the solution to vanish on the kernel-cover factor, then add the
        # cover of ker psi so that the component is surjective
        single = singles[wv]
        inj_g = injs[v_index[wv]].components[wv].compose(single.injection(wv, trivial_path(wv)))
        proj_g = single.projection(wv, trivial_path(wv)).compose(projs[v_index[wv]].components[wv])
        part = part - part.compose(inj_g).compose(proj_g)
        ker_mod, ker_incl = kernels[wv]
        cover_map = ker_incl.compose(ModHom(covers[wv], ker_mod, np.eye(ker_mod.rank, dtype=np.int64)))
        pi_comps[wv] = part + cover_map.compose(proj_g)
        if not is_epi(pi_comps[wv]):
            raise LeftResolutionFailure(wv, "component map is not onto")
    pi = RepMorphism(total, w, pi_comps)
    ker, incl = kernel_rep(pi)
    return total, pi, ker, incl


def _sinks_first_order(q: Quiver) -> List[VertexId]:
    order: List[VertexId] = []
    remaining = set(q.vertices)
    while remaining:
        layer = [v for v in remaining if all(a.tgt not in remaining for a in out_arrows(q, v))]
        if not layer:
            raise ValueError("quiver has a directed cycle")
        for v in sorted(layer, key=lambda t: q.vertices.index(t)):
            order.append(v)
            remaining.discard(v)
    return order


def totally_acyclic_injective_complex(
    x: Representation, depth: int = 2, verify: str = "structural"
) -> Tuple[Optional[AcyclicComplex], Optional[str]]:
    """Attempt to exhibit x as a cycle of a totally acyclic complex of
    injective representations.

    Left half: iterated epis from injective representations built by the
    product-of-path-covers lifting.  Right half: the dual of a projective
    resolution of the dual of x.  The window is verified for exactness, the
    components for injectivity; with verify="full" the Hom-exactness against
    the strongly fp-injective test family is replayed as well.
    """
    q, modulus = x.quiver, x.modulus
    if has_directed_cycle(q):
        return None, "quiver is not right rooted"
    components: Dict[int, Representation] = {}
    diffs: Dict[int, RepMorphism] = {}
    # left half at degrees 0 .. depth
    left_steps: List[RepSES] = []
    current = x
    pis: List[RepMorphism] = []
    kernels: List[RepMorphism] = []
    try:
        for k in range(depth + 1):
            total, pi, ker, incl = _left_injective_step(current)
            components[k] = total
            pis.append(pi)
            kernels.append(incl)
            left_steps.append(RepSES(incl, pi))
            current = ker
    except LeftResolutionFailure as exc:
        return None, str(exc)
    for k in range(1, depth + 1):
        diffs[k] = kernels[k - 1].compose(pis[k])
    # right half: dualize a projective resolution of the dual
    xd = dual_rep(x)
    res = projective_resolution(xd, depth + 1)
    for k in range(depth + 1):
        components[-(k + 1)] = dual_rep(res.terms[k])
    emb = dual_rep_morphism(res.augmentation).compose(double_dual_rep_iso(x))
    diffs[0] = emb.compose(pis[0])
    for k in range(1, depth + 1):
        diffs[-k] = dual_rep_morphism(res.diffs[k - 1])
    cx = RepComplex(components, diffs)
    verification = {"exact": cx.interior_exact(), "components_injective": True, "hom_exact": None}
    for k, rep in components.items():
        if not _injective_rep_structure_check(rep):
            verification["components_injective"] = False
    if verify == "full":
        verification["hom_exact"] = _hom_exactness_against_family(cx)
    if not verification["exact"] or not verification["components_injective"]:
        return None, f"window verification failed: {verification}"
    if verification["hom_exact"] is False:
        return None, "Hom-exactness against the test family failed"
    return AcyclicComplex(cx, emb, left_steps, verification), None


def _hom_exactness_against_family(cx: RepComplex) -> bool:
    degs = cx.degrees()
    some = cx.components[degs[0]]
    family = strongly_fp_injective_test_family(some.quiver, some.modulus)
    for j in family:
        homs = {k: HomGroupRep(j, cx.components[k]) for k in degs}
        induced: Dict[int, ModHom] = {}
        for k in cx.diffs:
            src, tgt = homs[k], homs[k - 1]
            induced[k] = ModHom(src.group, tgt.group, tgt.coord_matrix([cx.diffs[k].compose(g) for g in src.basis]))
        for k in cx.interior_degrees():
            if image_order(induced[k + 1]) != kernel_order(induced[k]):
                return False
    return True
