"""The category of representations of a finite quiver by finite Z/n-modules:
objects, morphisms, short exact sequences, kernels and cokernels, hom groups,
stalk/restriction/right-adjoint functors, duality into the opposite quiver,
and the tensor product with its defining adjunction.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import weakref
from functools import lru_cache
from math import gcd, prod
from types import MappingProxyType
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .linalg import quotient_order
from .quiver import (
    Path,
    Quiver,
    VertexId,
    in_arrows,
    is_subquiver,
    opposite,
    out_arrows,
    paths_between,
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
    kron,
    matlis_dual,
    matlis_dual_hom,
    present,
    subgroup_present,
    subgroup_with_inclusion,
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
        # computed once; equal reduced matrices have equal bytes
        if self._hash is None:
            self._hash = hash((
                self.quiver,
                self.modulus,
                tuple(self.vertex_modules.values()),
                tuple(h.matrix.tobytes() for h in self.arrow_maps.values()),
            ))
        return self._hash

    def __repr__(self):
        parts = ", ".join(f"{v}:{self.vertex_modules[v]}" for v in self.quiver.vertices)
        return f"Representation({parts})"


def _sum_of_composites(dom: FinMod, cod: FinMod, chains) -> ModHom:
    """The sum of the composites h_1 o ... o h_k, one per chain (h_1, ...,
    h_k) of homs from dom to cod, as one closed hom.  Each product is
    reduced mod the factors of cod: the homs are well defined, so this is
    the matrix that `compose` and `+` give, without their intermediate homs."""
    col = np.array(cod.factors, dtype=np.int64)[:, None]
    total = np.zeros((cod.rank, dom.rank), dtype=np.int64)
    for first, *rest in chains:
        m = first.matrix
        for h in rest:
            m = m.dot(h.matrix) % col
        total += m
    return ModHom._closed(dom, cod, total)


def rep_digest(x: Representation) -> str:
    """A short label for x, for reports: a hash of its quiver, modulus,
    vertex factors and arrow matrices."""
    h = hashlib.sha256()
    h.update(repr(x.quiver).encode())
    h.update(str(x.modulus.n).encode())
    for v in x.quiver.vertices:
        h.update(str(x.vertex_modules[v].factors).encode())
    for a in x.quiver.arrows:
        h.update(a.id.encode())
        h.update(x.arrow_maps[a.id].matrix.tobytes())
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
        # Y(a) f_src == f_tgt X(a) as homs into Y(tgt): the matrices agree
        # mod the target factors of their rows
        for a in source.quiver.arrows:
            ya, xa = target.map(a.id).matrix, source.map(a.id).matrix
            diff = ya.dot(self.components[a.src].matrix) - self.components[a.tgt].matrix.dot(xa)
            if (diff % np.array(target.vertex_modules[a.tgt].factors, dtype=np.int64)[:, None]).any():
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


# psi_data and phi_data by representation, then by kind and vertex; an
# entry goes when its representation does, and holds no reference to it
_CANONICAL_MAPS: "weakref.WeakKeyDictionary[Representation, Dict[Tuple[str, VertexId], tuple]]" = weakref.WeakKeyDictionary()


def _memo_canonical(x: Representation, kind: str, i: VertexId, build):
    maps = _CANONICAL_MAPS.get(x)
    if maps is None:
        maps = _CANONICAL_MAPS[x] = {}
    if (kind, i) not in maps:
        maps[kind, i] = build(x, i)
    return maps[kind, i]


def psi_data(x: Representation, i: VertexId):
    """(P, psi, arrows, projections): the universal map into the product of
    the targets of the arrows leaving i, with its coordinate projections.
    Memoized per representation and vertex."""
    return _memo_canonical(x, "psi", i, _psi_data)


def _psi_data(x: Representation, i: VertexId):
    arrows = tuple(out_arrows(x.quiver, i))
    mods = [x.vertex_modules[a.tgt] for a in arrows]
    total, injs, projs = direct_sum_with_maps(mods, x.modulus)
    h = _sum_of_composites(x.vertex_modules[i], total, [(inj, x.map(a.id)) for inj, a in zip(injs, arrows)])
    return total, h, arrows, projs


def psi(x: Representation, i: VertexId) -> ModHom:
    return psi_data(x, i)[1]


def phi_data(x: Representation, i: VertexId):
    """(S, phi, arrows, injections): the universal map out of the coproduct of
    the sources of the arrows entering i.  Memoized like `psi_data`."""
    return _memo_canonical(x, "phi", i, _phi_data)


def _phi_data(x: Representation, i: VertexId):
    arrows = tuple(in_arrows(x.quiver, i))
    mods = [x.vertex_modules[a.src] for a in arrows]
    total, injs, projs = direct_sum_with_maps(mods, x.modulus)
    h = _sum_of_composites(total, x.vertex_modules[i], [(x.map(a.id), prj) for prj, a in zip(projs, arrows)])
    return total, h, arrows, injs


def phi(x: Representation, i: VertexId) -> ModHom:
    return phi_data(x, i)[1]


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
    maps = {}
    for a in q.arrows:
        total_src, _, projs_src = vertex_data[a.src]
        total_tgt, injs_tgt, _ = vertex_data[a.tgt]
        maps[a.id] = _sum_of_composites(
            total_src, total_tgt, [(injs_tgt[t], r.map(a.id), projs_src[t]) for t, r in enumerate(reps)]
        )
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
        cols = np.zeros((sub_t.rank, 0), dtype=np.int64)
        if any(mods[a.src].rank for a in arrows):
            # the images of the generators along every arrow into w, solved
            # as one system; each column is what a one-column solve returns
            images = np.hstack([x.map(a.id).compose(incl_data[a.src][1]).matrix for a in arrows if mods[a.src].rank])
            cols = ambient_coords_solve(incl_t.codomain.factors, incl_t.matrix, images, modulus)
            if cols is None:
                raise ValueError(f"subgroups not closed under the arrows into {w!r}")
        at = 0
        for a in arrows:
            maps[a.id] = ModHom(mods[a.src], sub_t, cols[:, at : at + mods[a.src].rank])
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
        mat = proj_t.matrix.dot(y.map(a.id).matrix).dot(sect_s) if quo_t.rank and quo_s.rank else np.zeros((quo_t.rank, quo_s.rank), dtype=np.int64)
        maps[a.id] = ModHom(quo_s, quo_t, mat)
    coker = Representation(q, modulus, mods, maps)
    proj = RepMorphism._closed(y, coker, {v: data[v][1] for v in q.vertices})
    return coker, proj


def subrep_generated(x: Representation, seeds: Dict[VertexId, List[np.ndarray]]):
    """Smallest subrepresentation containing the seed elements: close the
    vertexwise subgroups under all arrow maps, then present."""
    q = x.quiver
    gens = {v: [np.asarray(g, dtype=np.int64) for g in seeds.get(v, [])] for v in q.vertices}
    while True:
        incl = {v: subgroup_present(x.vertex_modules[v].factors, gens[v], x.modulus)[1] for v in q.vertices}
        changed = False
        for a in q.arrows:
            for g in list(gens[a.src]):
                img = x.map(a.id)(g)
                if img.any() and ambient_coords_solve(
                    x.vertex_modules[a.tgt].factors, incl[a.tgt], img, x.modulus
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
    var = {v: sysm.add_hom_unknown(x.vertex_modules[v].factors, y.vertex_modules[v].factors) for v in x.quiver.vertices}
    for a in x.quiver.arrows:
        xi, yj = x.vertex_modules[a.src], y.vertex_modules[a.tgt]
        sysm.add_matrix_equation(
            [
                (var[a.src], y.map(a.id).matrix, np.eye(xi.rank, dtype=np.int64), 1),
                (var[a.tgt], np.eye(yj.rank, dtype=np.int64), x.map(a.id).matrix, -1),
            ],
            np.zeros((yj.rank, xi.rank), dtype=np.int64),
            yj.factors,
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
        self.basis = [self._morphism_from_flat(self._incl[:, k]) for k in range(self.group.rank)]

    def _morphism_from_flat(self, flat: np.ndarray) -> RepMorphism:
        """The morphism at a solution of the naturality system; `assignment`
        multiplies by the entry scales, so each component is well defined."""
        mats = self._sysm.assignment(flat)
        comps = {
            v: ModHom._closed(self.x.vertex_modules[v], self.y.vertex_modules[v], mat)
            for v, mat in zip(self.x.quiver.vertices, mats)
        }
        return RepMorphism._closed(self.x, self.y, comps)

    def coords(self, f: RepMorphism) -> np.ndarray:
        """Coordinates of a morphism in the canonical hom group."""
        return self.coord_matrix([f])[:, 0]

    def coord_matrix(self, fs: Sequence[RepMorphism]) -> np.ndarray:
        """The coordinates of each morphism as one column, all solved against
        the inclusion of the hom group at once."""
        if not fs:
            return np.zeros((self.group.rank, 0), dtype=np.int64)
        vs = self.x.quiver.vertices
        flats = [self._sysm.flat_of([f.components[v].matrix for v in vs]) for f in fs]
        flat = np.array(flats, dtype=np.int64).reshape(len(fs), len(self._sysm.orders)).T
        sol = ambient_coords_solve(self._sysm.orders, self._incl, flat, self.x.modulus)
        if sol is None:
            raise ValueError("morphism does not lie in the hom group (bug)")
        return sol % np.array(self.group.factors, dtype=np.int64).reshape(-1, 1)

    def from_coords(self, coords) -> RepMorphism:
        orders = self._sysm.orders
        c = self.group.reduce(coords)
        flat = self._incl.dot(c) % self.x.modulus.n if self.group.rank else np.zeros(len(orders), dtype=np.int64)
        return self._morphism_from_flat(flat % orders)

    @property
    def cardinality(self) -> int:
        return self.group.cardinality

    def elements(self):
        for coords in itertools.product(*[range(d) for d in self.group.factors]):
            yield self.from_coords(np.array(coords, dtype=np.int64))


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


def _adjoint_factors(q: Quiver, qsub: Quiver, v: VertexId) -> List[Path]:
    """Index set of the product defining the right adjoint at vertex v: the
    paths from v that land in the subquiver and are trivial or end with an
    arrow outside it, sorted by `Path.key`, so the trivial path comes first."""
    sub_arrow_ids = {a.id for a in qsub.arrows}
    return sorted(
        (p for w in qsub.vertices for p in paths_between(q, v, w) if p.is_trivial or p.arrows[-1].id not in sub_arrow_ids),
        key=Path.key,
    )


class RightAdjointRep:
    """Right adjoint of restriction along a subquiver inclusion, computed by
    the explicit product-over-paths formula; requires the big quiver acyclic.

    Keeps the factor bookkeeping (factor_keys[v], the paths from v that
    index the factors at v, with their injections and projections) so that
    units, counits and transposes can be assembled on top.  Every table is
    read-only, so `coinduced` can share one object among its callers.
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
        self.factor_keys = MappingProxyType({v: tuple(_adjoint_factors(q, qsub, v)) for v in q.vertices})
        self._pos = MappingProxyType(
            {v: MappingProxyType({p: t for t, p in enumerate(self.factor_keys[v])}) for v in q.vertices}
        )
        self._data = MappingProxyType({
            v: direct_sum_with_maps([x.vertex_modules[p.target] for p in self.factor_keys[v]], modulus)
            for v in q.vertices
        })
        sub_arrow_ids = {a.id for a in qsub.arrows}
        mods = {v: self._data[v][0] for v in q.vertices}
        maps = {}
        for b in q.arrows:
            chains = []
            for p in self.factor_keys[b.tgt]:
                if p.is_trivial and b.id in sub_arrow_ids:
                    chain = (x.map(b.id), self.projection(b.src, trivial_path(b.src)))
                else:
                    chain = (self.projection(b.src, Path(b.src, p.target, (b,) + p.arrows)),)
                chains.append((self.injection(b.tgt, p),) + chain)
            maps[b.id] = _sum_of_composites(mods[b.src], mods[b.tgt], chains)
        self.rep = Representation(q, modulus, mods, maps)

    def injection(self, v: VertexId, p: Path) -> ModHom:
        return self._data[v][1][self._pos[v][p]]

    def projection(self, v: VertexId, p: Path) -> ModHom:
        return self._data[v][2][self._pos[v][p]]

    def transpose(self, x_on_q: Representation, h: RepMorphism) -> RepMorphism:
        """Hom_{Q'}(restrict x, inner) -> Hom_Q(x, rep): the factor component
        at a path p is h(target p) composed with x along p."""
        if h.target != self.inner or h.source != restrict(self.qsub, x_on_q):
            raise ValueError("morphism does not go from restrict x to the inner representation")
        comps = {
            v: _sum_of_composites(
                x_on_q.vertex_modules[v],
                self.rep.vertex_modules[v],
                [(self.injection(v, p), h.components[p.target], x_on_q.along(p)) for p in self.factor_keys[v]],
            )
            for v in self.q.vertices
        }
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


def copresentation_embedding(x: Representation, embeds: Dict[VertexId, ModHom]) -> Tuple[Representation, RepMorphism]:
    """Given monos embed_v : X(v) -> M_v, build E = prod_v e^v(M_v) with the
    canonical morphism X -> E whose component into the factor indexed by a
    path p is embed_{target p} o X(p).  Monomorphism thanks to the trivial
    factors; this is the first step of the canonical injective copresentation."""
    q, modulus = x.quiver, x.modulus
    if any(embeds[v].domain != x.vertex_modules[v] for v in q.vertices):
        raise ValueError("homs do not compose")
    singles = [coinduced(q, modulus, v, embeds[v].codomain) for v in q.vertices]
    total, injs, _ = direct_sum_reps([s.rep for s in singles])
    comps = {
        w: _sum_of_composites(
            x.vertex_modules[w],
            total.vertex_modules[w],
            [
                (inj.components[w], single.injection(w, p), embeds[v], x.along(p))
                for v, single, inj in zip(q.vertices, singles, injs)
                for p in single.factor_keys[w]
            ],
        )
        for w in q.vertices
    }
    return total, RepMorphism._closed(x, total, comps)


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


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


def _tensor_relations(y: Representation, x: Representation) -> Tuple[np.ndarray, Dict[VertexId, slice], np.ndarray]:
    """The generator orders, the vertex slices and the arrow relations of
    Y tensor_Q X, as described on `TensorPresentation`, without the orders
    themselves as relations."""
    qop = opposite(x.quiver)
    if y.quiver != qop or y.modulus != x.modulus:
        raise ValueError("tensor needs representations over mutually opposite quivers")
    orders = []
    slices: Dict[VertexId, slice] = {}
    for v in x.quiver.vertices:
        start = len(orders)
        orders += [gcd(c, d) for c in y.vertex_modules[v].factors for d in x.vertex_modules[v].factors]
        slices[v] = slice(start, len(orders))
    orders = np.array(orders, dtype=np.int64)
    rels = [np.zeros((len(orders), 0), dtype=np.int64)]
    for a, a_op in zip(x.quiver.arrows, qop.arrows):
        ym, xm = y.map(a_op.id).matrix, x.map(a.id).matrix  # Y(j) -> Y(i), X(i) -> X(j)
        if not (ym.shape[1] and xm.shape[1]):
            continue  # no pairs (s, t) at (j, i)
        rel = np.zeros((len(orders), ym.shape[1] * xm.shape[1]), dtype=np.int64)
        rel[slices[a.src]] += kron(ym, np.eye(xm.shape[1], dtype=np.int64))
        rel[slices[a.tgt]] -= kron(np.eye(ym.shape[1], dtype=np.int64), xm)
        rel %= orders[:, None]
        rels.append(rel[:, rel.any(axis=0)])
    return orders, slices, np.hstack(rels)


class TensorPresentation:
    """Y tensor_Q X by generators and relations.  At each vertex v the
    generators are the pairs (s, t) of a generator of Y(v) and one of X(v),
    in Kronecker order s * rank X(v) + t, of order gcd(c_s, d_t); `slices[v]`
    is their range.  The relations are the orders, then for each arrow
    a : i -> j the block kron(Y(a^op), I) - kron(I, X(a)), one column per
    pair (s, t) at (j, i), reduced mod the orders, zero columns dropped."""

    def __init__(self, y: Representation, x: Representation):
        self.orders, self.slices, rels = _tensor_relations(y, x)
        self.y = y
        self.x = x
        self.module, self._proj, self._sect = present(np.hstack([np.diag(self.orders), rels]), x.modulus)


def tensor_order(y: Representation, x: Representation) -> int:
    """|Y tensor_Q X|, counted from the relations without presenting it."""
    orders, _, rels = _tensor_relations(y, x)
    return quotient_order(rels, orders.tolist(), x.modulus.n)


def tensor_induced(pres_src: TensorPresentation, pres_tgt: TensorPresentation, theta: RepMorphism, f: RepMorphism) -> ModHom:
    """theta tensor f : Y' tensor X -> Y tensor X' for theta : Y' -> Y and
    f : X -> X', the block kron(theta_v, f_v) at each vertex; pass
    `identity_morphism` for a side that stays fixed."""
    if (theta.source, theta.target, f.source, f.target) != (pres_src.y, pres_tgt.y, pres_src.x, pres_tgt.x):
        raise ValueError("presentations do not match the morphisms")
    src, tgt = pres_src.module, pres_tgt.module
    if not (src.rank and tgt.rank):
        return zero_hom(src, tgt)
    big = np.zeros((len(pres_tgt.orders), len(pres_src.orders)), dtype=np.int64)
    for v, rows in pres_tgt.slices.items():
        cols = pres_src.slices[v]
        if rows.stop > rows.start and cols.stop > cols.start:
            big[rows, cols] = kron(theta.components[v].matrix, f.components[v].matrix)
    big %= pres_tgt.orders[:, None]
    return ModHom(src, tgt, (pres_tgt._proj.dot(big) % src.modulus.n).dot(pres_src._sect))


def tensor_functional_coords(pres: TensorPresentation, gs: Sequence[RepMorphism]) -> np.ndarray:
    """Dual coordinates of the functionals <g(v)(y), x> on Y tensor X, one
    column per morphism g : Y -> dual(X) over the opposite quiver."""
    n = pres.x.modulus.n
    lam = np.zeros((len(gs), len(pres.orders)), dtype=np.int64)
    for v, cols in pres.slices.items():
        scale = n // np.array(pres.x.vertex_modules[v].factors, dtype=np.int64)
        for k, g in enumerate(gs):
            lam[k, cols] = (g.components[v].matrix.T * scale).reshape(-1) % n
    factors = np.array(pres.module.factors, dtype=np.int64)
    vals = lam.dot(pres._sect % pres.orders[:, None]) % n
    if (vals % (n // factors)).any():
        raise ValueError("functional is not well defined on the quotient (bug)")
    return (vals // (n // factors) % factors).T


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
        coords = np.array([rng.randrange(d) for d in endo.group.factors], dtype=np.int64)
        theta = endo.from_coords(coords)
        moved = matlis_dual_hom(tensor_induced(pres, pres, theta, fixed)).compose(phi)
        if not np.array_equal(moved.matrix, tensor_functional_coords(pres, [g.compose(theta) for g in hom.basis])):
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
