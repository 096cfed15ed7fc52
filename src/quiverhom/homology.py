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

from .linalg import Matrix, diag, from_entries, hstack, identity, matmul, mod_rows, quotient_order, transpose
from .quiver import Quiver, VertexId, has_directed_cycle, out_arrows, paths_between, root_sequence, trivial_path
from .rep import (
    HomGroupRep,
    RepMorphism,
    RepSES,
    Representation,
    coinduced,
    coinduced_product,
    cokernel_rep,
    copresentation_embedding,
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
        entries = []
        row = col = 0
        for v in sources:
            src, tgt = paths[v, a.src], paths[v, a.tgt]
            index = {p.arrows: t for t, p in enumerate(tgt)}
            for _ in range(ranks[v]):
                entries += [(row + index[p.arrows + (a,)], col + c, 1) for c, p in enumerate(src)]
                row, col = row + len(tgt), col + len(src)
        maps[a.id] = ModHom(mods[a.src], mods[a.tgt], from_entries(mods[a.tgt].rank, mods[a.src].rank, entries))
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
        blocks = []
        for v in q.vertices:
            if ranks[v] and paths[v, w]:
                # row r holds entry (r, i) of x along each path, ordered by
                # generator i, then by path
                mats = [x.along(p).matrix for p in paths[v, w]]
                blocks.append(tuple(tuple(itertools.chain.from_iterable(zip(*rows))) for rows in zip(*mats)))
        comps[w] = ModHom(total.vertex_modules[w], xw, hstack(blocks, xw.rank))
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
    embed = ModHom._closed(m, hull, diag([h // d for d, h in zip(m.factors, hull_factors)]))
    return hull, embed


# the sfp oracle, the Gorenstein oracle's right half and the Ding
# classifier walk the same coresolutions, and equal representations hash
# equally; in `verify all --trials 10` a repeat comes at most 39 other
# inputs after its last call
@functools.lru_cache(maxsize=64)
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

    def _delta(self, m: int) -> Matrix:
        x, y, n = self.x, self.y, self.y.modulus.n
        q, r = x.quiver, self._ranks
        nv = len(q.vertices)
        cols, rows = _block_starts(self._blocks(m), y), _block_starts(self._blocks(m + 1), y)
        d = {v: x.vertex_modules[v].factors for v in q.vertices}
        entries = []

        def boundary(row: int, col: int, v: VertexId, k: int, copies: int, sign: int):
            """sign * d_k of X(v), each factor `copies` times, down the diagonal from (row, col)."""
            diagonal = (e if k % 2 else n // e for e in d[v] for _ in range(copies))
            entries.extend((row + t, col + t, sign * e) for t, e in enumerate(diagonal))

        for t, v in enumerate(q.vertices):
            if r[v] and y.vertex_modules[v].rank:
                boundary(rows[t], cols[t], v, m + 1, y.vertex_modules[v].rank, 1)
        index = {v: t for t, v in enumerate(q.vertices)}
        for s, a in enumerate(q.arrows):
            i, j = a.src, a.tgt
            yi, yj = y.vertex_modules[i].rank, y.vertex_modules[j].rank
            if not r[i] or not yj:
                continue
            row, ci, cj = rows[nv + s], cols[index[i]], cols[index[j]]
            # Y(a) on each copy of Y(i), and -phi[l][k] from copy l of Y(j) to copy k
            entries.extend((row + c * yj + p, ci + c * yi + u, w) for c in range(r[i]) for p, yrow in enumerate(y.map(a.id).matrix) for u, w in enumerate(yrow) if w)
            phi = x.map(a.id).matrix
            if m % 2:
                phi = [[u * di // dj for u, di in zip(prow, d[i])] for prow, dj in zip(phi, d[j])]
            entries.extend((row + k * yj + p, cj + l * yj + p, -u) for l, prow in enumerate(phi) for k, u in enumerate(prow) if u for p in range(yj))
            if m:
                boundary(row, cols[nv + s], i, m, yj, -1)
        return mod_rows(from_entries(len(self.orders[m + 1]), len(self.orders[m]), entries), self.orders[m + 1])

    def _data(self, m: int) -> Tuple[Matrix, FinMod, Matrix, Matrix]:
        """(gens, quo, proj, sect): the k kernel generators of delta_m as
        columns, and Ext^m = Z/B presented once on them, with the maps
        between their coordinates in (Z/n)^k and those of Ext^m."""
        return self._ext_data[m]

    def _present_ext(self, m: int):
        modulus, orders = self.y.modulus, self.orders[m]
        out = solve_congruences(self.deltas[m], ((),) * len(self.orders[m + 1]), 0, self.orders[m + 1], orders, modulus)
        assert out is not None
        k = len(out[1])
        gens = transpose(out[1], len(orders))
        image, width = (self.deltas[m - 1], len(self.orders[m - 1])) if m else (((),) * len(orders), 0)
        # the particular solution writes each coboundary in the generators,
        # and the kernel rows are the relations among them, which present Z
        out = solve_congruences(gens, image, width, orders, [modulus.n] * k, modulus)
        assert out is not None, "image does not lie in the kernel (bug)"
        coboundaries, relations = out
        quo, proj, sect = present(hstack([transpose(relations, k), coboundaries], k), modulus)
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

    def cocycle_to_ext_coords(self, m: int, cochains: Matrix, cols: int) -> Matrix:
        """The Ext^m coordinates of `cols` cocycles given by their
        coordinates in T^m, one column per cocycle, all solved at once."""
        gens, quo, proj, sect = self._data(m)
        # sect has one row per kernel generator, the columns of gens
        c = ambient_coords_solve(self.orders[m], gens, len(sect), cochains, cols, self.y.modulus)
        if c is None:
            raise ValueError("not a cocycle")
        return mod_rows(matmul(proj, c, cols), quo.factors)


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
    cocycles = mod_rows(matmul(gens, sect, quo_s.rank), comp_src.orders[m])
    entries = []
    r = c = 0
    for v, copies in comp_src._blocks(m):
        fv = f.components[v]
        for _ in range(copies):
            entries += [(r + i, c + j, x) for i, row in enumerate(fv.matrix) for j, x in enumerate(row) if x]
            r, c = r + fv.codomain.rank, c + fv.domain.rank
    post = from_entries(len(comp_tgt.orders[m]), len(comp_src.orders[m]), entries)
    images = mod_rows(matmul(post, cocycles, quo_s.rank), comp_tgt.orders[m])
    return ModHom(quo_s, comp_tgt.ext(m), comp_tgt.cocycle_to_ext_coords(m, images, quo_s.rank))


def _block_starts(blocks: List[Tuple[VertexId, int]], y: Representation) -> List[int]:
    """The first coordinate of each block of a degree of T."""
    return list(itertools.accumulate((copies * y.vertex_modules[v].rank for v, copies in blocks), initial=0))


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
    for combo in itertools.product(*[range(o) for row in orders for o in row]):
        t = iter(combo)
        mats.append(ModHom(dom, cod, [[next(t) * s for s in row] for row in scales]))
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
        if not splits(psi(x, v)):
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


# the Gorenstein oracle and the Ding classifier build the same left halves,
# a repeat at most 28 other inputs after its last call in `verify all
# --trials 10`; lru_cache keeps no exceptions, so a failing step fails
# every time
@functools.lru_cache(maxsize=32)
def _left_injective_step(w: Representation):
    """An epi from an injective representation onto w with kernel again
    having epi canonical maps, built by projective lifting vertex by vertex
    in reverse topological order; fails organically when some psi is not epi.
    The injective is prod_v e^v of free covers of the ker psi(w, v), one
    `coinduced_product`.

    Returns (total, pi, ker, incl)."""
    q, modulus = w.quiver, w.modulus
    # sinks first: stage by stage of the root sequence, in quiver order within each
    stages = root_sequence(q).stages
    if stages[-1] != frozenset(q.vertices):
        raise ValueError("quiver has a directed cycle")
    kernels = {v: kernel_of_hom(psi(w, v)) for v in q.vertices}
    covers = {v: free_mod(modulus, kernels[v][0].rank) for v in q.vertices}
    adj = coinduced_product(q, modulus, covers)
    total = adj.rep
    v_index = {v: t for t, v in enumerate(q.vertices)}
    vertex_order = [v for prev, cur in zip(stages, stages[1:]) for v in sorted(cur - prev, key=v_index.get)]
    pi_comps: Dict[VertexId, ModHom] = {}
    for wv in vertex_order:
        sysm = HomSystem(modulus)
        var = sysm.add_hom_unknown(total.vertex_modules[wv], w.vertex_modules[wv])
        for a in out_arrows(q, wv):
            sysm.add_equation([(1, w.map(a.id), var, None)], pi_comps[a.tgt].compose(total.map(a.id)))
        out = sysm.solve()
        if out is None:
            raise LeftResolutionFailure(wv, "no lift against the canonical product map")
        part = sysm.assignment(out[0])[0]
        # force the solution to vanish on the kernel-cover factor, then add the
        # cover of ker psi so that the component is surjective
        inj_g, proj_g = adj.injection(wv, trivial_path(wv)), adj.projection(wv, trivial_path(wv))
        part = part - part.compose(inj_g).compose(proj_g)
        ker_mod, ker_incl = kernels[wv]
        cover_map = ker_incl.compose(ModHom(covers[wv], ker_mod, identity(ker_mod.rank)))
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
