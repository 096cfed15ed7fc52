"""Projective generators and covers, the canonical injective coresolution
step, Ext groups in the category of quiver representations, a
brute-force extension-counting oracle, and totally acyclic complexes of
injective representations.

Ext resolves nothing: `ExtComputation` reads Ext^m(X, Y) off the cochain
complex that Hom(-, Y) makes of the standard resolution of X, lifted to the
2-periodic free resolutions of its vertex modules over Z/n.  That complex
has the same size in every degree m >= 1 and repeats with period 2, so
every degree costs the same.  Nothing here builds a projective resolution:
the right half of `totally_acyclic_injective_complex` is the canonical
injective coresolution.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .linalg import quotient_order
from .quiver import Quiver, VertexId, has_directed_cycle, out_arrows, paths_between, root_sequence, trivial_path
from .rep import (
    HomGroupRep,
    RepMorphism,
    RepSES,
    Representation,
    coinduced,
    cokernel_rep,
    copresentation_embedding,
    direct_sum_reps,
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
    kron,
    present,
    solve_congruences,
    splits,
)


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


def projective_cover_onto(x: Representation) -> Tuple[Representation, RepMorphism]:
    """An epi from a finite direct sum of the P_v onto x (one copy of P_v per
    canonical generator of x(v)); not minimal.

    The cover is `_free_rep` on `_vertex_ranks(x)`, so at w it is free on
    the triples (v, i, p) with i a canonical generator of x(v); (v, i, p)
    maps to column i of x.along(p).
    """
    q = x.quiver
    ranks = _vertex_ranks(x)
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


def _vertex_ranks(x: Representation) -> Dict[VertexId, int]:
    return {v: x.vertex_modules[v].rank for v in x.quiver.vertices}


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
    embed = ModHom._closed(m, hull, np.diag(np.array([h // d for d, h in zip(m.factors, hull_factors)], dtype=np.int64)) if m.rank else np.zeros((0, 0), dtype=np.int64))
    return hull, embed


def canonical_injective_embedding(x: Representation) -> Tuple[Representation, RepMorphism]:
    """One step of the canonical injective coresolution: the mono from x into
    the product of the e^v of the injective hulls of its vertex modules."""
    return copresentation_embedding(x, {v: injective_hull(x.vertex_modules[v])[1] for v in x.quiver.vertices})


# ---------------------------------------------------------------------------
# Ext groups
# ---------------------------------------------------------------------------


class _ByDegree:
    """Values for every degree m >= 0 that repeat with period 2 from degree
    `start` on: only degrees 0 .. start + 1 are built, each on first use."""

    def __init__(self, build, start: int):
        self._build = build
        self._start = start
        self._built: Dict[int, object] = {}

    def __getitem__(self, m: int):
        if m < 0:
            raise IndexError("negative degree")
        k = m if m < self._start + 2 else self._start + (m - self._start) % 2
        if k not in self._built:
            self._built[k] = self._build(k)
        return self._built[k]


class ExtComputation:
    """Ext^m(X, Y) for every degree m >= 0, as the cohomology of one cochain
    complex T whose size does not grow with the degree.

    X has the standard resolution 0 -> (+)_{a: i -> j} f_j X(i) ->
    (+)_i f_i X(i) -> X -> 0, where f_i is the left adjoint of evaluation
    at i (Mitchell, "Rings with several objects"), and each
    X(i) = (+)_k Z/d_ik has the 2-periodic free resolution over Z/n on its
    r_i generators, with boundary d_q = diag(d_ik) for odd q and
    diag(n / d_ik) for even q.  Lifting the sequence to these resolutions
    gives a projective resolution of X (a mapping cone), and since
    Hom(f_i F, Y) = Hom(F, Y(i)), applying Hom(-, Y) to it gives T:

    - T^0 has one block per vertex i, r_i copies of Y(i);
    - T^m for m >= 1 follows those with one block per arrow a: i -> j,
      r_i copies of Y(j).

    A block is a matrix g whose column k lies in Y(i) (or Y(j)); its
    coordinates run over the columns, then the factors of that module, and
    orders[m] lists the orders of the coordinates of T^m, which need not
    form a divisibility chain.  deltas[m] is the matrix of D_m: T^m -> T^{m+1}:

    - from the block of i to itself, g_i -> g_i d_{m+1};
    - into the block of a: i -> j, g -> Y(a) g_i - g_j phi_m, where phi_m
      lifts X(a) to the resolutions: its integer matrix A for even m, and
      A[l, k] d_ik / d_jl (an integer, as X(a) is well defined) for odd m;
    - from the block of a to itself, h -> -h d_m.

    D_{m+2} = D_m for m >= 1, so Ext^{m+2} = Ext^m for m >= 2, and a degree
    costs the same whatever it is.  Nothing here needs the quiver to be
    acyclic.
    """

    def __init__(self, x: Representation, y: Representation):
        self.x = x
        self.y = y
        self._ranks = _vertex_ranks(x)
        self.orders = _ByDegree(
            lambda m: tuple(d for v, copies in self._blocks(m) for _ in range(copies) for d in y.vertex_modules[v].factors), 1
        )
        self.deltas = _ByDegree(self._delta, 1)
        # ker D_m / im D_{m-1} repeats with period 2 from degree 2 on
        self._ext_data = _ByDegree(self._present_ext, 2)

    def _blocks(self, m: int) -> List[Tuple[VertexId, int]]:
        """The blocks of T^m in order, each as (the vertex whose Y module it
        copies, the number of copies)."""
        q, r = self.x.quiver, self._ranks
        blocks = [(v, r[v]) for v in q.vertices]
        if m:
            blocks += [(a.tgt, r[a.src]) for a in q.arrows]
        return blocks

    def _delta(self, m: int) -> np.ndarray:
        x, y, n = self.x, self.y, self.y.modulus.n
        q, r = x.quiver, self._ranks
        nv = len(q.vertices)
        cols, rows = _block_slices(self._blocks(m), y), _block_slices(self._blocks(m + 1), y)
        mat = np.zeros((len(self.orders[m + 1]), len(self.orders[m])), dtype=np.int64)
        d = {v: np.array(x.vertex_modules[v].factors, dtype=np.int64) for v in q.vertices}

        def boundary(v: VertexId, k: int) -> np.ndarray:
            return d[v] if k % 2 else n // d[v]

        for t, v in enumerate(q.vertices):
            if r[v] and y.vertex_modules[v].rank:
                mat[rows[t], cols[t]] = np.diag(np.repeat(boundary(v, m + 1), y.vertex_modules[v].rank))
        index = {v: t for t, v in enumerate(q.vertices)}
        for s, a in enumerate(q.arrows):
            i, j = a.src, a.tgt
            yj = y.vertex_modules[j].rank
            if not r[i] or not yj:
                continue
            row = rows[nv + s]
            mat[row, cols[index[i]]] += kron(np.eye(r[i], dtype=np.int64), y.map(a.id).matrix)
            phi = x.map(a.id).matrix
            if m % 2:
                phi = phi * d[i][None, :] // d[j][:, None]
            mat[row, cols[index[j]]] -= kron(phi.T % n, np.eye(yj, dtype=np.int64))
            if m:
                mat[row, cols[nv + s]] = -np.diag(np.repeat(boundary(i, m), yj))
        return mat % _column(self.orders[m + 1])

    def _data(self, m: int) -> Tuple[np.ndarray, FinMod, np.ndarray, np.ndarray]:
        """(gens, quo, proj, sect): the k kernel generators of delta_m as
        columns, and Ext^m = Z/B presented once on them, with the maps
        between their coordinates in (Z/n)^k and those of Ext^m."""
        return self._ext_data[m]

    def _present_ext(self, m: int):
        modulus, orders = self.y.modulus, self.orders[m]
        zero = np.zeros(len(self.orders[m + 1]), dtype=np.int64)
        out = solve_congruences(self.deltas[m], zero, self.orders[m + 1], orders, modulus)
        assert out is not None
        gens = out[1].T
        k = gens.shape[1]
        image = self.deltas[m - 1] if m else np.zeros((len(orders), 0), dtype=np.int64)
        # the particular solution writes each coboundary in the generators,
        # and the kernel rows are the relations among them, which present Z
        out = solve_congruences(gens, image, orders, [modulus.n] * k, modulus)
        assert out is not None, "image does not lie in the kernel (bug)"
        coboundaries, relations = out
        quo, proj, sect = present(np.hstack([relations.T, coboundaries]), modulus)
        return gens, quo, proj, sect

    def ext(self, m: int) -> FinMod:
        _check_degree(m)
        return self._data(m)[1]

    def order(self, m: int) -> int:
        """|Ext^m| = |ker delta_m| / |im delta_{m-1}|, from the cokernel
        orders of the two coboundaries, with no kernel presentation."""
        _check_degree(m)
        n = self.y.modulus.n
        # |ker delta_m| = |T^m| |coker delta_m| / |T^{m+1}| and
        # |im delta_{m-1}| = |T^m| / |coker delta_{m-1}|, with T^{-1} = 0
        prev = quotient_order(self.deltas[m - 1], self.orders[m], n) if m else math.prod(self.orders[0])
        return quotient_order(self.deltas[m], self.orders[m + 1], n) * prev // math.prod(self.orders[m + 1])

    def cocycle_to_ext_coords(self, m: int, cochains: np.ndarray) -> np.ndarray:
        """The Ext^m coordinates of cocycles given by their coordinates in
        T^m, one column per cocycle, all solved at once."""
        gens, quo, proj, _ = self._data(m)
        c = ambient_coords_solve(self.orders[m], gens, cochains, self.y.modulus)
        if c is None:
            raise ValueError("not a cocycle")
        if not quo.rank:
            return np.zeros((0, cochains.shape[1]), dtype=np.int64)
        return proj.dot(c) % _column(quo.factors)


def _check_degree(m: int):
    if m < 0:
        raise ValueError("negative degree")


def ext(x: Representation, y: Representation, degree: int) -> FinMod:
    """Ext^degree(X, Y) in the representation category, over an acyclic
    quiver (refusing the others is this function's contract, not a limit of
    `ExtComputation`)."""
    _check_degree(degree)
    if has_directed_cycle(x.quiver):
        raise ValueError("ext needs an acyclic quiver")
    return ExtComputation(x, y).ext(degree)


def ext_induced_second(comp_src: ExtComputation, comp_tgt: ExtComputation, f: RepMorphism, m: int) -> ModHom:
    """The map Ext^m(X, Y) -> Ext^m(X, Y') induced by f : Y -> Y', for two
    computations of the same X."""
    if comp_src.x is not comp_tgt.x and comp_src.x != comp_tgt.x:
        raise ValueError("computations must share X")
    gens, quo_s, _, sect = comp_src._data(m)
    # lift every Ext generator to a cocycle through the section, postcompose
    # with f, project; f o g applies f_v to each column of a block copying
    # Y(v), so the postcomposition is one block-diagonal product
    cocycles = gens.dot(sect) % _column(comp_src.orders[m])
    post = np.zeros((len(comp_tgt.orders[m]), len(comp_src.orders[m])), dtype=np.int64)
    r = c = 0
    for v, copies in comp_src._blocks(m):
        fv = f.components[v].matrix
        for _ in range(copies):
            post[r : r + fv.shape[0], c : c + fv.shape[1]] = fv
            r, c = r + fv.shape[0], c + fv.shape[1]
    images = post.dot(cocycles) % _column(comp_tgt.orders[m])
    return ModHom(quo_s, comp_tgt.ext(m), comp_tgt.cocycle_to_ext_coords(m, images))


def _block_slices(blocks: List[Tuple[VertexId, int]], y: Representation) -> List[slice]:
    """The coordinates of each block of a degree of T."""
    out, at = [], 0
    for v, copies in blocks:
        size = copies * y.vertex_modules[v].rank
        out.append(slice(at, at + size))
        at += size
    return out


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


def _enumerate_module_homs(dom: FinMod, cod: FinMod) -> List[ModHom]:
    orders = hom_entry_orders(dom.factors, cod.factors)
    scales = hom_entry_scales(dom.factors, cod.factors)
    mats = []
    for combo in itertools.product(*[range(int(o)) for o in orders.reshape(-1)]):
        t = np.array(combo, dtype=np.int64).reshape(orders.shape)
        mats.append(ModHom(dom, cod, t * scales))
    return mats


@functools.lru_cache(maxsize=256)
def _module_aut_count(m: FinMod) -> int:
    return sum(1 for h in _enumerate_module_homs(m, m) if is_mono(h))


def _elementary_hom_order(modulus: Modulus, dom_card: int, cod_card: int) -> int:
    """|Hom(E_0, E_0')| for the elementary chains E_0 = sum_p (Z/p)^{v_p} of
    the two cardinalities: prod_p p^(v_p(dom_card) v_p(cod_card))."""

    def v(p: int, card: int) -> int:
        k = 0
        while card % p == 0:
            card //= p
            k += 1
        return k

    return math.prod(p ** (v(p, dom_card) * v(p, cod_card)) for p in modulus.prime_factors)


def ext1_extension_count(x: Representation, y: Representation, cap: int = 4096) -> Optional[int]:
    """Number of equivalence classes of extensions 0 -> Y -> E -> X -> 0,
    counted by exhaustive enumeration of middle structures; the count equals
    the cardinality of Ext^1(X, Y).  Returns None, before any enumeration,
    when prod_v |End E_0(v)| or prod_a |Hom(E_0(s a), E_0(t a))| exceeds
    the cap, where E_0(v) is the elementary chain of order |X(v)| |Y(v)|.

    That one test decides whether any End E(v), the arrow structures on any
    choice of vertex modules, or any Hom(Y, E), Hom(E, X) or Hom(E, E)
    exceeds the cap.  For one prime, a chain B of order p^b has
    |Hom(Y(v), B)| <= |B|^(rank Y(v)) <= p^(b b), and likewise
    |Hom(B, X(v))| and |End B|, while |End (Z/p)^b| = p^(b b); each Hom
    between chains is largest on the elementary ones.  And on the zero
    structure over the E_0(v), Hom(E, E) is all of prod_v End E_0(v).

    The vertex modules E(v) run over the invariant-factor chains of the
    right cardinality and E over the arrow structures on them.  The group G
    of vertexwise automorphisms acts on the triples (E, i, p) with i mono,
    p epi and p i = 0 by transport of structure, and its orbits are the
    extension classes.  The stabilizer of a triple is the set of the
    1 + i h p with h in Hom(X, Y), one for each h (such a map is the
    identity on i(Y) and modulo i(Y)), so the number of classes is
    |Hom(X, Y)| #{(E, i, p)} / |G|, read with no automorphism or orbit.
    """
    q, modulus = x.quiver, x.modulus
    cards = {v: x.vertex_modules[v].cardinality * y.vertex_modules[v].cardinality for v in q.vertices}
    ends = math.prod(_elementary_hom_order(modulus, cards[v], cards[v]) for v in q.vertices)
    structures = math.prod(_elementary_hom_order(modulus, cards[a.src], cards[a.tgt]) for a in q.arrows)
    if ends > cap or structures > cap:
        return None
    chain_options = {v: _chains_of_cardinality(modulus, cards[v]) for v in q.vertices}
    hom_xy: Optional[int] = None  # |Hom(X, Y)|, built at the first exact pair
    grand_total = 0
    for combo in itertools.product(*[chain_options[v] for v in q.vertices]):
        mods = {v: FinMod(modulus, c) for v, c in zip(q.vertices, combo)}
        g_order = math.prod(_module_aut_count(mods[v]) for v in q.vertices)
        arrow_spaces = [_enumerate_module_homs(mods[a.src], mods[a.tgt]) for a in q.arrows]
        pairs = 0
        for arrow_maps in itertools.product(*arrow_spaces):
            e = Representation(q, modulus, mods, {a.id: h for a, h in zip(q.arrows, arrow_maps)})
            monos = [i for i in HomGroupRep(y, e).elements() if i.is_monomorphism]
            if not monos:
                continue
            epis = [p for p in HomGroupRep(e, x).elements() if p.is_epimorphism]
            pairs += sum(1 for i in monos for p in epis if p.compose(i).is_zero)
        if not pairs:
            continue
        if hom_xy is None:
            hom_xy = HomGroupRep(x, y).cardinality
        numerator = hom_xy * pairs
        assert numerator % g_order == 0, "orbit-counting identity failed (bug)"
        grand_total += numerator // g_order
    return grand_total


# ---------------------------------------------------------------------------
# complexes of representations and total acyclicity
# ---------------------------------------------------------------------------


class RepComplex:
    """A finite window of a complex; diffs[k] maps degree k to degree k-1.
    Both tables are read-only mappings."""

    def __init__(self, components: Mapping[int, Representation], diffs: Mapping[int, RepMorphism]):
        self.components = MappingProxyType(dict(components))
        self.diffs = MappingProxyType(dict(diffs))
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


@dataclass(frozen=True)
class AcyclicComplex:
    """A verified window of a totally acyclic complex of injective
    representations with a designated cycle."""

    complex: RepComplex
    cycle_witness: RepMorphism  # mono from the cycle representation into degree -1
    left_steps: Tuple[RepSES, ...]
    verification: Mapping[str, Optional[bool]]  # read-only


def _injective_rep_structure_check(x: Representation) -> bool:
    for v in x.quiver.vertices:
        if not is_injective_module(x.vertex_modules[v]):
            return False
        if not splits(psi(x, v), epi=True):
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
    v_index = {v: t for t, v in enumerate(q.vertices)}
    # sinks first: stage by stage of the root sequence, in quiver order within each
    stages = root_sequence(q).stages
    if stages[-1] != frozenset(q.vertices):
        raise ValueError("quiver has a directed cycle")
    vertex_order = [v for prev, cur in zip(stages, stages[1:]) for v in sorted(cur - prev, key=v_index.get)]
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


def totally_acyclic_injective_complex(
    x: Representation, depth: int = 2, full: bool = False
) -> Tuple[Optional[AcyclicComplex], Optional[str]]:
    """Attempt to exhibit x as a cycle of a totally acyclic complex of
    injective representations, in a window of degrees depth .. -(depth + 1).

    Left half: iterated epis from injective representations built by the
    product-of-path-covers lifting.  Right half: the canonical injective
    coresolution of x; Hom(J, -) of any injective coresolution has
    cohomology Ext(J, x), so no verdict depends on that choice.  The window
    is verified for exactness, the components for injectivity; with full
    the Hom-exactness against the strongly fp-injective test family is
    replayed as well.
    """
    if depth < 0:
        raise ValueError("depth must be at least 0")
    if has_directed_cycle(x.quiver):
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
    # right half at degrees -1 .. -(depth + 1)
    components[-1], emb = canonical_injective_embedding(x)
    diffs[0] = emb.compose(pis[0])
    mono = emb
    for k in range(1, depth + 1):
        coker, proj = cokernel_rep(mono)
        components[-(k + 1)], mono = canonical_injective_embedding(coker)
        diffs[-k] = mono.compose(proj)
    cx = RepComplex(components, diffs)
    verification = {"exact": cx.interior_exact(), "components_injective": True, "hom_exact": None}
    for k, rep in components.items():
        if not _injective_rep_structure_check(rep):
            verification["components_injective"] = False
    if full:
        verification["hom_exact"] = _hom_exactness_against_family(cx)
    if not verification["exact"] or not verification["components_injective"]:
        return None, f"window verification failed: {verification}"
    if verification["hom_exact"] is False:
        return None, "Hom-exactness against the test family failed"
    return AcyclicComplex(cx, emb, tuple(left_steps), MappingProxyType(verification)), None


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
