"""The category of representations of a finite quiver by finite Z/n-modules:
objects, morphisms, short exact sequences, kernels and cokernels, hom groups,
stalk/restriction/right-adjoint functors, duality into the opposite quiver,
and the tensor product with its defining adjunction.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from array import array
from collections import Counter
from functools import lru_cache
from math import gcd, prod
from operator import mul
from types import MappingProxyType
from typing import Dict, List, Mapping, Sequence, Tuple

from .linalg import Matrix, diag, from_entries, hstack, matmul, mod_rows, quotient_order, transpose
from .quiver import (
    Arrow,
    Path,
    Quiver,
    VertexId,
    in_arrows,
    is_subquiver,
    opposite,
    out_arrows,
    part_reaching,
    paths_from,
    trivial_path,
)
from .znmod import (
    FinMod,
    HomSystem,
    ModHom,
    ModSES,
    Modulus,
    ambient_coords_solve,
    cokernel_of_hom,
    direct_sum_with_maps,
    double_dual_iso,
    identity_hom,
    image_of_hom,
    is_epi,
    is_mono,
    kernel_of_hom,
    map_into_sum,
    map_out_of_sum,
    matlis_dual,
    matlis_dual_hom,
    present,
    subgroup_present,
    subgroup_with_inclusion,
    sum_presentation,
    zero_hom,
    zero_mod,
)


def _read_only(given: Mapping, keys: Sequence, what: str) -> Mapping:
    """`given` on exactly `keys`, read-only and in their order; the caller
    has checked that every key is present."""
    if len(given) != len(keys):
        raise ValueError(f"{what} keys not in the quiver: {[k for k in given if k not in keys]!r}")
    return MappingProxyType({k: given[k] for k in keys})


class Representation:
    """A functor from the free category on a quiver to finite Z/n-modules,
    with read-only tables keyed by the quiver's vertices and arrow ids.
    Equal representations hash equally, so they can key memos."""

    def __init__(self, quiver: Quiver, modulus: Modulus, vertex_modules: Mapping[VertexId, FinMod], arrow_maps: Mapping[str, ModHom]):
        for v in quiver.vertices:
            if v not in vertex_modules:
                raise ValueError(f"missing module at vertex {v!r}")
            if vertex_modules[v].modulus != modulus:
                raise ValueError(f"modulus mismatch at vertex {v!r}")
        for a in quiver.arrows:
            if a.id not in arrow_maps:
                raise ValueError(f"missing map for arrow {a.id}")
            h = arrow_maps[a.id]
            if h.domain != vertex_modules[a.src] or h.codomain != vertex_modules[a.tgt]:
                raise ValueError(f"arrow map {a.id} has wrong endpoints")
        self.quiver = quiver
        self.modulus = modulus
        self.vertex_modules = _read_only(vertex_modules, quiver.vertices, "vertex")
        self.arrow_maps = _read_only(arrow_maps, [a.id for a in quiver.arrows], "arrow")
        self._hash = None

    def map(self, arrow_id: str) -> ModHom:
        return self.arrow_maps[arrow_id]

    def along(self, p: Path) -> ModHom:
        """Composite of the arrow maps along a path; identity on a trivial path."""
        self.quiver.check_vertex(p.source)
        h = identity_hom(self.vertex_modules[p.source])
        for a in p.arrows:
            h = self.map(a.id).compose(h)
        return h

    @property
    def total_cardinality(self) -> int:
        return prod(m.cardinality for m in self.vertex_modules.values())

    @property
    def is_zero(self) -> bool:
        return all(m.is_zero for m in self.vertex_modules.values())

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Representation)
            and self.quiver == other.quiver
            and self.modulus == other.modulus
            and self.vertex_modules == other.vertex_modules
            and self.arrow_maps == other.arrow_maps
        )

    def __hash__(self):
        # the tables are read-only and in quiver order, so the hash is
        # computed once
        if self._hash is None:
            self._hash = hash((
                self.quiver,
                self.modulus,
                tuple(self.vertex_modules.values()),
                tuple(h.matrix for h in self.arrow_maps.values()),
            ))
        return self._hash

    def __repr__(self):
        parts = ", ".join(f"{v}:{self.vertex_modules[v]}" for v in self.quiver.vertices)
        return f"Representation({parts})"


def rep_digest(x: Representation) -> str:
    """A short label for x, for reports: a hash of its quiver, modulus,
    vertex factors and arrow matrices (each as the bytes of its entries,
    row-major, as native 64-bit ints)."""
    h = hashlib.sha256()
    h.update(repr(x.quiver).encode())
    h.update(str(x.modulus.n).encode())
    for v in x.quiver.vertices:
        h.update(str(x.vertex_modules[v].factors).encode())
    for a in x.quiver.arrows:
        h.update(a.id.encode())
        h.update(array("q", [e for row in x.arrow_maps[a.id].matrix for e in row]).tobytes())
    return h.hexdigest()[:16]


def zero_rep(quiver: Quiver, modulus: Modulus) -> Representation:
    z = zero_mod(modulus)
    return Representation(quiver, modulus, {v: z for v in quiver.vertices}, {a.id: zero_hom(z, z) for a in quiver.arrows})


def stalk(quiver: Quiver, modulus: Modulus, v: VertexId, m: FinMod) -> Representation:
    """m at the vertex v, zero elsewhere, zero arrow maps."""
    quiver.check_vertex(v)
    z = zero_mod(modulus)
    mods = {w: (m if w == v else z) for w in quiver.vertices}
    maps = {a.id: zero_hom(mods[a.src], mods[a.tgt]) for a in quiver.arrows}
    return Representation(quiver, modulus, mods, maps)


class RepMorphism:
    """A natural transformation between representations of the same quiver."""

    def __init__(self, source: Representation, target: Representation, components: Mapping[VertexId, ModHom]):
        if source.quiver != target.quiver or source.modulus != target.modulus:
            raise ValueError("source and target live over different quivers or moduli")
        for v in source.quiver.vertices:
            h = components.get(v)
            if h is None or h.domain != source.vertex_modules[v] or h.codomain != target.vertex_modules[v]:
                raise ValueError(f"bad component at vertex {v!r}")
        self.source = source
        self.target = target
        self.components = _read_only(components, source.quiver.vertices, "vertex")
        for a in source.quiver.arrows:
            if target.map(a.id).compose(self.components[a.src]) != self.components[a.tgt].compose(source.map(a.id)):
                raise ValueError(f"naturality fails at arrow {a.id}")

    @classmethod
    def _closed(cls, source: Representation, target: Representation, components: Mapping[VertexId, ModHom]) -> "RepMorphism":
        """A morphism that is natural by construction (a composite, sum or
        negative of morphisms, zero, the identity, a canonical injection,
        projection or inclusion, a solution of the naturality system, a
        transpose across the restriction adjunction): store the read-only
        table and skip the checks."""
        f = cls.__new__(cls)
        f.source = source
        f.target = target
        f.components = _read_only(components, source.quiver.vertices, "vertex")
        return f

    def compose(self, other: "RepMorphism") -> "RepMorphism":
        if other.target != self.source:
            raise ValueError("morphisms do not compose")
        comps = {v: self.components[v].compose(other.components[v]) for v in self.source.quiver.vertices}
        return RepMorphism._closed(other.source, self.target, comps)

    def __add__(self, other: "RepMorphism") -> "RepMorphism":
        if other.source != self.source or other.target != self.target:
            raise ValueError("morphisms have different sources or targets")
        comps = {v: self.components[v] + other.components[v] for v in self.source.quiver.vertices}
        return RepMorphism._closed(self.source, self.target, comps)

    def __neg__(self):
        return RepMorphism._closed(self.source, self.target, {v: -h for v, h in self.components.items()})

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return (
            isinstance(other, RepMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.components == other.components
        )

    @property
    def is_zero(self) -> bool:
        return all(h.is_zero for h in self.components.values())

    @property
    def is_monomorphism(self) -> bool:
        return all(is_mono(h) for h in self.components.values())

    @property
    def is_epimorphism(self) -> bool:
        return all(is_epi(h) for h in self.components.values())


def zero_morphism(x: Representation, y: Representation) -> RepMorphism:
    if x.quiver != y.quiver or x.modulus != y.modulus:
        raise ValueError("source and target live over different quivers or moduli")
    return RepMorphism._closed(x, y, {v: zero_hom(x.vertex_modules[v], y.vertex_modules[v]) for v in x.quiver.vertices})


def identity_morphism(x: Representation) -> RepMorphism:
    return RepMorphism._closed(x, x, {v: identity_hom(x.vertex_modules[v]) for v in x.quiver.vertices})


class RepSES:
    """0 -> X --f--> Y --g--> Z -> 0: one certified `ModSES` per vertex,
    which is exactly short exactness of representations."""

    def __init__(self, f: RepMorphism, g: RepMorphism):
        if f.target != g.source:
            raise ValueError("middle representations disagree")
        self._vertex_ses: Dict[VertexId, ModSES] = {}
        for v in f.source.quiver.vertices:
            try:
                self._vertex_ses[v] = ModSES(f.components[v], g.components[v])
            except ValueError as exc:
                raise ValueError(f"at vertex {v!r}: {exc}") from exc
        self.f = f
        self.g = g

    @property
    def x(self):
        return self.f.source

    @property
    def y(self):
        return self.f.target

    @property
    def z(self):
        return self.g.target

    def vertex_ses(self, v: VertexId) -> ModSES:
        return self._vertex_ses[v]


# ---------------------------------------------------------------------------
# canonical maps, sums, kernels, cokernels
# ---------------------------------------------------------------------------


# resolutions and classifications ask for the same (representation,
# vertex) over and over, and equal representations hash equally; one
# `verify all` asks for about 340 distinct psi maps
@lru_cache(maxsize=512)
def psi(x: Representation, i: VertexId) -> ModHom:
    """The universal map from X(i) into the product of the targets of the
    arrows leaving i, in `out_arrows` order."""
    return map_into_sum(x.vertex_modules[i], [x.map(a.id) for a in out_arrows(x.quiver, i)])


def phi(x: Representation, i: VertexId) -> ModHom:
    """The universal map out of the coproduct of the sources of the arrows
    entering i, in `in_arrows` order, into X(i): the Matlis dual of psi of
    the dual representation at i."""
    return map_out_of_sum([x.map(a.id) for a in in_arrows(x.quiver, i)], x.vertex_modules[i])


def ker_psi(x: Representation, i: VertexId):
    return kernel_of_hom(psi(x, i))


def direct_sum_reps(reps: Sequence[Representation]):
    """(sum, injections, projections) computed vertexwise."""
    if not reps:
        raise ValueError("empty direct sum needs an ambient quiver; use zero_rep")
    q, modulus = reps[0].quiver, reps[0].modulus
    if any(r.quiver != q or r.modulus != modulus for r in reps):
        raise ValueError("summands live over different quivers or moduli")
    vertex_data = {v: direct_sum_with_maps([r.vertex_modules[v] for r in reps], modulus) for v in q.vertices}
    mods = {v: vertex_data[v][0] for v in q.vertices}
    maps = {a.id: map_into_sum(mods[a.src], [r.map(a.id).compose(p) for r, p in zip(reps, vertex_data[a.src][2])]) for a in q.arrows}
    total = Representation(q, modulus, mods, maps)
    injections, projections = [], []
    for t, r in enumerate(reps):
        injections.append(RepMorphism._closed(r, total, {v: vertex_data[v][1][t] for v in q.vertices}))
        projections.append(RepMorphism._closed(total, r, {v: vertex_data[v][2][t] for v in q.vertices}))
    return total, injections, projections


def _subrep_from_vertex_subgroups(x: Representation, incl_data: Dict[VertexId, Tuple[FinMod, ModHom]]):
    """Build the subrepresentation with the given vertexwise inclusions; the
    subgroups must be closed under the arrow maps."""
    q, modulus = x.quiver, x.modulus
    mods = {v: incl_data[v][0] for v in q.vertices}
    maps = {}
    for w in q.vertices:
        sub_t, incl_t = incl_data[w]
        arrows = in_arrows(q, w)
        width = sum(mods[a.src].rank for a in arrows)
        cols = ((),) * sub_t.rank
        if width:
            # the images of the generators along every arrow into w, solved
            # as one system; each column is what a one-column solve returns
            images = hstack([x.map(a.id).compose(incl_data[a.src][1]).matrix for a in arrows], x.vertex_modules[w].rank)
            cols = ambient_coords_solve(incl_t.codomain.factors, incl_t.matrix, sub_t.rank, images, width, modulus)
            if cols is None:
                raise ValueError(f"subgroups not closed under the arrows into {w!r}")
        at = 0
        for a in arrows:
            maps[a.id] = ModHom(mods[a.src], sub_t, [row[at : at + mods[a.src].rank] for row in cols])
            at += mods[a.src].rank
    sub = Representation(q, modulus, mods, maps)
    incl = RepMorphism._closed(sub, x, {v: incl_data[v][1] for v in q.vertices})
    return sub, incl


def kernel_rep(f: RepMorphism):
    """(K, incl) with K(v) = ker f(v) and the induced arrow maps."""
    incl_data = {v: kernel_of_hom(f.components[v]) for v in f.source.quiver.vertices}
    return _subrep_from_vertex_subgroups(f.source, incl_data)


def image_rep(f: RepMorphism):
    incl_data = {v: image_of_hom(f.components[v]) for v in f.source.quiver.vertices}
    return _subrep_from_vertex_subgroups(f.target, incl_data)


def cokernel_rep(f: RepMorphism):
    """(C, proj) with C(v) = coker f(v) and the induced arrow maps."""
    y = f.target
    q, modulus = y.quiver, y.modulus
    data = {v: cokernel_of_hom(f.components[v]) for v in q.vertices}
    mods = {v: data[v][0] for v in q.vertices}
    maps = {}
    for a in q.arrows:
        quo_s, _, sect_s = data[a.src]
        quo_t, proj_t, _ = data[a.tgt]
        mat = matmul(proj_t.matrix, y.map(a.id).matrix, y.vertex_modules[a.src].rank)
        maps[a.id] = ModHom(quo_s, quo_t, matmul(mat, sect_s, quo_s.rank))
    coker = Representation(q, modulus, mods, maps)
    proj = RepMorphism._closed(y, coker, {v: data[v][1] for v in q.vertices})
    return coker, proj


def subrep_generated(x: Representation, seeds: Dict[VertexId, List[Sequence[int]]]):
    """Smallest subrepresentation containing the seed elements: close the
    vertexwise subgroups under all arrow maps, then present."""
    q = x.quiver
    gens = {v: list(seeds.get(v, [])) for v in q.vertices}
    while True:
        subs = {v: subgroup_present(x.vertex_modules[v].factors, gens[v], x.modulus) for v in q.vertices}
        changed = False
        for a in q.arrows:
            sub, incl = subs[a.tgt]
            for g in list(gens[a.src]):
                img = x.map(a.id)(g)
                if any(img) and ambient_coords_solve(
                    x.vertex_modules[a.tgt].factors, incl, sub.rank, [(c,) for c in img], 1, x.modulus
                ) is None:
                    gens[a.tgt].append(img)
                    changed = True
        if not changed:
            break
    incl_data = {v: subgroup_with_inclusion(x.vertex_modules[v], gens[v]) for v in q.vertices}
    return _subrep_from_vertex_subgroups(x, incl_data)


# ---------------------------------------------------------------------------
# hom groups of representations
# ---------------------------------------------------------------------------


def naturality_system(x: Representation, y: Representation) -> Tuple[HomSystem, Dict[VertexId, int]]:
    """A `HomSystem` with one unknown u_v : x(v) -> y(v) per vertex and the
    naturality equation y(a) u_src = u_tgt x(a) of every arrow a, with the
    unknown of each vertex."""
    sysm = HomSystem(x.modulus)
    var = {v: sysm.add_hom_unknown(x.vertex_modules[v], y.vertex_modules[v]) for v in x.quiver.vertices}
    for a in x.quiver.arrows:
        sysm.add_equation(
            [(1, y.map(a.id), var[a.src], None), (-1, None, var[a.tgt], x.map(a.id))],
            zero_hom(x.vertex_modules[a.src], y.vertex_modules[a.tgt]),
        )
    return sysm, var


class HomGroupRep:
    """Hom_Q(X, Y) as a canonical module with a basis of morphisms and
    coordinate maps both ways."""

    def __init__(self, x: Representation, y: Representation):
        if x.quiver != y.quiver or x.modulus != y.modulus:
            raise ValueError("hom group needs a common quiver and modulus")
        self.x = x
        self.y = y
        sysm, _ = naturality_system(x, y)
        out = sysm.solve()
        assert out is not None
        self.group, self._incl = subgroup_present(sysm.orders, out[1], x.modulus)
        self._sysm = sysm
        self.basis = [self._morphism_from_flat(col) for col in transpose(self._incl, self.group.rank)]

    def _morphism_from_flat(self, flat: Sequence[int]) -> RepMorphism:
        """The morphism at a solution of the naturality system."""
        return RepMorphism._closed(self.x, self.y, dict(zip(self.x.quiver.vertices, self._sysm.assignment(flat))))

    def coords(self, f: RepMorphism) -> Tuple[int, ...]:
        """Coordinates of a morphism in the canonical hom group."""
        return tuple(row[0] for row in self.coord_matrix([f]))

    def coord_matrix(self, fs: Sequence[RepMorphism]) -> Matrix:
        """The coordinates of each morphism as one column, all solved against
        the inclusion of the hom group at once."""
        vs = self.x.quiver.vertices
        flats = [self._sysm.flat_of([f.components[v] for v in vs]) for f in fs]
        orders, modulus = self._sysm.orders, self.x.modulus
        sol = ambient_coords_solve(orders, self._incl, self.group.rank, transpose(flats, len(orders)), len(fs), modulus)
        if sol is None:
            raise ValueError("morphism does not lie in the hom group (bug)")
        return mod_rows(sol, self.group.factors)

    def from_coords(self, coords) -> RepMorphism:
        c = self.group.reduce(coords)
        # each order divides n, so one reduction gives the flat vector
        return self._morphism_from_flat(tuple(sum(map(mul, row, c)) % o for row, o in zip(self._incl, self._sysm.orders)))

    @property
    def cardinality(self) -> int:
        return self.group.cardinality

    def elements(self):
        for coords in itertools.product(*[range(d) for d in self.group.factors]):
            yield self.from_coords(coords)


def hom_reps(x: Representation, y: Representation) -> Tuple[FinMod, List[RepMorphism]]:
    grp = HomGroupRep(x, y)
    return grp.group, grp.basis


# ---------------------------------------------------------------------------
# stalks, restriction, right adjoint
# ---------------------------------------------------------------------------


def restrict(qsub: Quiver, x: Representation) -> Representation:
    if not is_subquiver(qsub, x.quiver):
        raise ValueError("not a subquiver")
    return Representation(
        qsub,
        x.modulus,
        {v: x.vertex_modules[v] for v in qsub.vertices},
        {a.id: x.arrow_maps[a.id] for a in qsub.arrows},
    )


def _composites(x: Representation, v: VertexId, paths: Sequence[Path]) -> List[ModHom]:
    """x along each path from v, each from the composite along its prefix,
    so no prefix is composed twice; the same composites as `x.along`."""
    done = {(): identity_hom(x.vertex_modules[v])}

    def along(arrows: Tuple[Arrow, ...]) -> ModHom:
        if arrows not in done:
            done[arrows] = x.map(arrows[-1].id).compose(along(arrows[:-1]))
        return done[arrows]

    return [along(p.arrows) for p in paths]


class RightAdjointRep:
    """Right adjoint of restriction along a subquiver inclusion, computed by
    the explicit product-over-paths formula.  Only the part of the big
    quiver that reaches the subquiver (`quiver.part_reaching`) is walked,
    since every factor path lies in it; raises when that part has a
    directed cycle, that is when a cycle lies on a path into the
    subquiver, since the paths into it are then infinite.

    Keeps the factor bookkeeping (factor_keys[v], the paths from v that
    index the factors at v) so that units, counits and transposes can be
    assembled on top.  The factors at v are the paths from v that land in
    the subquiver and are trivial or end with an arrow outside it, in
    `paths_from` order, so the trivial path comes first; a vertex with no
    path into the subquiver has none.  The sum at v is
    kept as its `sum_presentation` with the coordinates of each factor, and
    `injection(v, p)` and `projection(v, p)` slice it for the one factor
    asked for.  Every table is read-only, so `coinduced` can share one
    object among its callers.
    """

    def __init__(self, q: Quiver, qsub: Quiver, x: Representation):
        if not is_subquiver(qsub, q):
            raise ValueError("not a subquiver")
        if x.quiver != qsub:
            raise ValueError("representation does not live on the subquiver")
        modulus = x.modulus
        self.q = q
        self.qsub = qsub
        self.inner = x
        sub_vertices, sub_arrow_ids = set(qsub.vertices), {a.id for a in qsub.arrows}
        part = part_reaching(q, qsub.vertices)
        walks = {v: paths_from(part, v) for v in part.vertices}
        self.factor_keys = MappingProxyType({
            v: tuple(p for p in walks.get(v, ()) if p.target in sub_vertices and (p.is_trivial or p.arrows[-1].id not in sub_arrow_ids))
            for v in q.vertices
        })
        coords, presentations = {}, {}
        for v, keys in self.factor_keys.items():
            factors = [x.vertex_modules[p.target].factors for p in keys]
            starts = itertools.accumulate(map(len, factors), initial=0)
            coords[v] = MappingProxyType({p: slice(s, s + len(f)) for p, f, s in zip(keys, factors, starts)})
            presentations[v] = sum_presentation(tuple(itertools.chain.from_iterable(factors)), modulus)
        self._coords, self._presentations = MappingProxyType(coords), MappingProxyType(presentations)
        mods = {v: self._presentations[v][0] for v in q.vertices}
        maps = {}
        for b in q.arrows:
            # the factor at p of the image of an element is its factor at b p,
            # or x(b) of its trivial factor when p is trivial and b is in qsub;
            # those projection rows stay unreduced: the final reduction absorbs them
            width, sect, at = mods[b.src].rank, self._presentations[b.src][2], self._coords[b.src]
            rows = []
            for p in self.factor_keys[b.tgt]:
                if p.is_trivial and b.id in sub_arrow_ids:
                    rows += matmul(x.map(b.id).matrix, sect[at[trivial_path(b.src)]], width)
                else:
                    rows += sect[at[Path(b.src, p.target, (b,) + p.arrows)]]
            maps[b.id] = ModHom._closed(mods[b.src], mods[b.tgt], matmul(self._presentations[b.tgt][1], rows, width))
        self.rep = Representation(q, modulus, mods, maps)

    def injection(self, v: VertexId, p: Path) -> ModHom:
        total, proj, _ = self._presentations[v]
        cut = self._coords[v][p]
        return ModHom._closed(self.inner.vertex_modules[p.target], total, tuple(row[cut] for row in proj))

    def projection(self, v: VertexId, p: Path) -> ModHom:
        total, _, sect = self._presentations[v]
        return ModHom._closed(total, self.inner.vertex_modules[p.target], sect[self._coords[v][p]])

    def transpose(self, x_on_q: Representation, h: RepMorphism) -> RepMorphism:
        """Hom_{Q'}(restrict x, inner) -> Hom_Q(x, rep): the factor component
        at a path p is h(target p) composed with x along p."""
        if h.target != self.inner or h.source != restrict(self.qsub, x_on_q):
            raise ValueError("morphism does not go from restrict x to the inner representation")
        comps = {}
        for v in self.q.vertices:
            paths = self.factor_keys[v]
            alongs = _composites(x_on_q, v, paths)
            comps[v] = map_into_sum(x_on_q.vertex_modules[v], [h.components[p.target].compose(a) for p, a in zip(paths, alongs)])
        return RepMorphism._closed(x_on_q, self.rep, comps)

    def transpose_back(self, x_on_q: Representation, k: RepMorphism) -> RepMorphism:
        """Hom_Q(x, rep) -> Hom_{Q'}(restrict x, inner) via the trivial factors."""
        if k.source != x_on_q or k.target != self.rep:
            raise ValueError("morphism does not go from x to the right adjoint")
        comps = {}
        for w in self.qsub.vertices:
            comps[w] = self.projection(w, trivial_path(w)).compose(k.components[w])
        return RepMorphism._closed(restrict(self.qsub, x_on_q), self.inner, comps)


def right_adjoint(q: Quiver, qsub: Quiver, x: Representation) -> Representation:
    return RightAdjointRep(q, qsub, x).rep


@lru_cache(maxsize=64)
def coinduced(q: Quiver, modulus: Modulus, v: VertexId, m: FinMod) -> RightAdjointRep:
    """e^v(m): the right adjoint of restriction to the one-vertex subquiver
    at v, applied to m.  Its value at w is the product of copies of m indexed
    by the paths from w to v.  Read-only and shared: equal arguments get the
    same object from a bounded memo."""
    one = Quiver((v,), ())
    return RightAdjointRep(q, one, Representation(one, modulus, {v: m}, {}))


def coinduced_product(q: Quiver, modulus: Modulus, mods: Mapping[VertexId, FinMod]) -> RightAdjointRep:
    """prod_v e^v(mods[v]) as one object: the right adjoint of restriction
    to the arrowless subquiver on every vertex, applied to the modules.
    Its factors at w are all the paths out of w, the factor at p a copy of
    mods[target p], and its trivial factor at w is mods[w]."""
    q0 = Quiver(q.vertices, ())
    return RightAdjointRep(q, q0, Representation(q0, modulus, mods, {}))


def copresentation_embedding(x: Representation, embeds: Dict[VertexId, ModHom]) -> Tuple[Representation, RepMorphism]:
    """Given monos embed_v : X(v) -> M_v, build E = prod_v e^v(M_v) with the
    canonical morphism X -> E whose component into the factor indexed by a
    path p is embed_{target p} o X(p): the transpose of the embeds across
    restriction to the arrowless subquiver.  Monomorphism thanks to the
    trivial factors; this is the first step of the canonical injective
    copresentation."""
    q = x.quiver
    if any(embeds[v].domain != x.vertex_modules[v] for v in q.vertices):
        raise ValueError("homs do not compose")
    adj = coinduced_product(q, x.modulus, {v: embeds[v].codomain for v in q.vertices})
    return adj.rep, adj.transpose(x, RepMorphism._closed(restrict(adj.qsub, x), adj.inner, {v: embeds[v] for v in q.vertices}))


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


# `classify` asks for the dual of its input for each of the projective and
# flat rows, and `dual_rep_ses` twice for the dual of the middle term; one
# `verify all --trials 10` asks for about 35 distinct duals
@lru_cache(maxsize=256)
def dual_rep(x: Representation) -> Representation:
    """Vertexwise Matlis duality into the opposite quiver; opposite() flips
    arrows in order, so arrow maps are matched by position."""
    qop = opposite(x.quiver)
    mods = {v: matlis_dual(x.vertex_modules[v]) for v in x.quiver.vertices}
    maps = {a_op.id: matlis_dual_hom(x.map(a.id)) for a, a_op in zip(x.quiver.arrows, qop.arrows)}
    return Representation(qop, x.modulus, mods, maps)


def dual_rep_morphism(f: RepMorphism) -> RepMorphism:
    return RepMorphism(
        dual_rep(f.target),
        dual_rep(f.source),
        {v: matlis_dual_hom(f.components[v]) for v in f.source.quiver.vertices},
    )


def dual_rep_ses(s: RepSES) -> RepSES:
    return RepSES(dual_rep_morphism(s.g), dual_rep_morphism(s.f))


def double_dual_rep_iso(x: Representation) -> RepMorphism:
    return RepMorphism(x, dual_rep(dual_rep(x)), {v: double_dual_iso(x.vertex_modules[v]) for v in x.quiver.vertices})


# ---------------------------------------------------------------------------
# tensor product over the quiver and its adjunction
# ---------------------------------------------------------------------------


def _tensor_relations(y: Representation, x: Representation) -> Tuple[Tuple[int, ...], Dict[VertexId, slice], Matrix]:
    """The generator orders, the vertex slices and the arrow relations of
    Y tensor_Q X, as described on `TensorPresentation`, without the orders
    themselves as relations."""
    qop = opposite(x.quiver)
    if y.quiver != qop or y.modulus != x.modulus:
        raise ValueError("tensor needs representations over mutually opposite quivers")
    orders: List[int] = []
    slices: Dict[VertexId, slice] = {}
    for v in x.quiver.vertices:
        start = len(orders)
        orders += [gcd(c, d) for c in y.vertex_modules[v].factors for d in x.vertex_modules[v].factors]
        slices[v] = slice(start, len(orders))
    rels: List[List[Tuple[int, int]]] = []  # the nonzero relations, as sparse columns
    for a, a_op in zip(x.quiver.arrows, qop.arrows):
        ym, xm = y.map(a_op.id).matrix, x.map(a.id).matrix  # Y(j) -> Y(i), X(i) -> X(j)
        xs, xt = x.vertex_modules[a.src].rank, x.vertex_modules[a.tgt].rank
        # the nonzeros of column s of Y(a^op) at pair (u, 0) of i, and of column t of X(a) at pair (0, u) of j
        ycols = [[(slices[a.src].start + u * xs, w) for u, row in enumerate(ym) if (w := row[s])] for s in range(y.vertex_modules[a.tgt].rank)]
        xcols = [[(slices[a.tgt].start + u, w) for u, row in enumerate(xm) if (w := row[t])] for t in range(xs)]
        for (s, ycol), (t, xcol) in itertools.product(enumerate(ycols), enumerate(xcols)):
            # the relation of pair (s, t); on a loop its two halves can meet in a cell
            col = Counter({k + t: w for k, w in ycol})
            col.subtract({k + s * xt: w for k, w in xcol})
            if reduced := [(k, v) for k, w in col.items() if (v := w % orders[k])]:
                rels.append(reduced)
    return tuple(orders), slices, from_entries(len(orders), len(rels), ((k, c, v) for c, col in enumerate(rels) for k, v in col))


class TensorPresentation:
    """Y tensor_Q X by generators and relations.  At each vertex v the
    generators are the pairs (s, t) of a generator of Y(v) and one of X(v),
    in Kronecker order s * rank X(v) + t, of order gcd(c_s, d_t); `slices[v]`
    is their range.  The relations are the orders, then for each arrow
    a : i -> j the block Y(a^op) (x) I - I (x) X(a), one column per
    pair (s, t) at (j, i), reduced mod the orders, zero columns dropped."""

    def __init__(self, y: Representation, x: Representation):
        self.orders, self.slices, rels = _tensor_relations(y, x)
        self.y = y
        self.x = x
        self.module, self._proj, self._sect = present(hstack([diag(self.orders), rels], len(self.orders)), x.modulus)


def tensor_order(y: Representation, x: Representation) -> int:
    """|Y tensor_Q X|, counted from the relations without presenting it."""
    orders, _, rels = _tensor_relations(y, x)
    return quotient_order(rels, orders, x.modulus.n)


def tensor_induced(pres_src: TensorPresentation, pres_tgt: TensorPresentation, theta: RepMorphism, f: RepMorphism) -> ModHom:
    """theta tensor f : Y' tensor X -> Y tensor X' for theta : Y' -> Y and
    f : X -> X', the block theta_v (x) f_v at each vertex; pass
    `identity_morphism` for a side that stays fixed."""
    if (theta.source, theta.target, f.source, f.target) != (pres_src.y, pres_tgt.y, pres_src.x, pres_tgt.x):
        raise ValueError("presentations do not match the morphisms")
    src, tgt = pres_src.module, pres_tgt.module
    entries = []
    for v, rows in pres_tgt.slices.items():
        # entry ((s, t), (s', t')) is theta_v[s][s'] f_v[t][t'], in Kronecker order
        fv, at = f.components[v], pres_src.slices[v].start
        fnz = [(t, u, w) for t, row in enumerate(fv.matrix) for u, w in enumerate(row) if w]
        tnz = [(s, s2, c) for s, row in enumerate(theta.components[v].matrix) for s2, c in enumerate(row) if c]
        entries += [(rows.start + s * fv.codomain.rank + t, at + s2 * fv.domain.rank + u, c * w) for s, s2, c in tnz for t, u, w in fnz]
    big = mod_rows(from_entries(len(pres_tgt.orders), len(pres_src.orders), entries), pres_tgt.orders)
    return ModHom(src, tgt, matmul(matmul(pres_tgt._proj, big, len(pres_src.orders)), pres_src._sect, src.rank))


def tensor_functional_coords(pres: TensorPresentation, gs: Sequence[RepMorphism]) -> Matrix:
    """Dual coordinates of the functionals <g(v)(y), x> on Y tensor X, one
    column per morphism g : Y -> dual(X) over the opposite quiver."""
    n = pres.x.modulus.n
    entries = []
    for v, cols in pres.slices.items():
        scale = [n // d for d in pres.x.vertex_modules[v].factors]
        for k, g in enumerate(gs):
            # g(v) : Y(v) -> dual X(v); its entry (t, s) is at (s, t), in Kronecker order
            entries += [(k, cols.start + s * len(scale) + t, w) for t, (row, c) in enumerate(zip(g.components[v].matrix, scale)) for s, x in enumerate(row) if (w := x * c % n)]
    lam = from_entries(len(gs), len(pres.orders), entries)
    factors = pres.module.factors
    vals = [[x % n for x in row] for row in matmul(lam, mod_rows(pres._sect, pres.orders), len(factors))]
    if any(x % (n // f) for row in vals for x, f in zip(row, factors)):
        raise ValueError("functional is not well defined on the quotient (bug)")
    return transpose([[x // (n // f) % f for x, f in zip(row, factors)] for row in vals], len(factors))


_NATURALITY_SAMPLES = 3  # endomorphisms of Y that `adjunction_check` samples


def adjunction_check(y: Representation, x: Representation, seed: int = 0) -> Tuple[bool, dict]:
    """Verify Hom(Y tensor X, Z/n) iso Hom_{Qop}(Y, dual X): cardinalities, a
    constructed bijection, and naturality against sampled endomorphisms of Y."""
    pres = TensorPresentation(y, x)
    lhs = matlis_dual(pres.module)
    hom = HomGroupRep(y, dual_rep(x))
    if lhs.cardinality != hom.cardinality:
        return False, {"reason": "cardinality mismatch", "lhs": lhs.cardinality, "rhs": hom.cardinality}
    phi = ModHom(hom.group, lhs, tensor_functional_coords(pres, hom.basis))
    if not is_mono(phi):
        return False, {"reason": "constructed map is not injective"}
    # naturality in Y against sampled endomorphisms: the dual of
    # theta tensor X carries the functional of g to that of g o theta
    rng = random.Random(seed)
    endo = HomGroupRep(y, y)
    fixed = identity_morphism(x)
    for _ in range(_NATURALITY_SAMPLES):
        if endo.group.is_zero:
            break
        theta = endo.from_coords([rng.randrange(d) for d in endo.group.factors])
        moved = matlis_dual_hom(tensor_induced(pres, pres, theta, fixed)).compose(phi)
        if moved.matrix != tensor_functional_coords(pres, [g.compose(theta) for g in hom.basis]):
            return False, {"reason": "naturality failure"}
    return True, {"cardinality": lhs.cardinality}


def restriction_adjunction_check(q: Quiver, qsub: Quiver, x: Representation, y: Representation) -> Tuple[bool, dict]:
    """Verify Hom_{Q'}(restrict X, Y) iso Hom_Q(X, right_adjoint Y) by
    cardinality plus an explicitly constructed mutually inverse pair."""
    adj = RightAdjointRep(q, qsub, y)
    lhs = HomGroupRep(restrict(qsub, x), y)
    rhs = HomGroupRep(x, adj.rep)
    if lhs.cardinality != rhs.cardinality:
        return False, {"reason": "cardinality mismatch", "lhs": lhs.cardinality, "rhs": rhs.cardinality}
    for h in lhs.basis:
        if adj.transpose_back(x, adj.transpose(x, h)) != h:
            return False, {"reason": "round trip failed"}
    # the transpose is a group hom; injectivity on basis coordinates plus
    # equal cardinalities makes it a bijection
    if lhs.group.rank:
        phi = ModHom(lhs.group, rhs.group, rhs.coord_matrix([adj.transpose(x, h) for h in lhs.basis]))
        if not is_mono(phi):
            return False, {"reason": "transpose not injective"}
    return True, {"cardinality": lhs.cardinality}
