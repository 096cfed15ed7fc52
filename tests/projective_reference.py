"""The projective generators and covers written down from path tables, kept
as the reference layout of `quiverhom.homology`'s Matlis-dual builders.

`free_rep(q, modulus, ranks)` is the direct sum of ranks[v] copies of P_v:
at w it is free on the triples (v, i, p), with i < ranks[v] and p a path
from v to w, ordered by v, then i, then p in `paths_between` order.
`free_cover_onto(x)` is the free cover on the canonical generators of x in
that layout.  The Yoneda references of `tests/test_homology.py` read it, and
it needs no numpy."""

import itertools

from quiverhom.linalg import from_entries, hstack
from quiverhom.quiver import paths_between
from quiverhom.rep import RepMorphism, Representation
from quiverhom.znmod import ModHom, free_mod


def free_rep(q, modulus, ranks):
    """The direct sum of ranks[v] copies of P_v over the vertices v, and its
    path table {(v, w): paths from v to w} for every v with ranks[v] > 0.
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


def free_cover_onto(x):
    """`free_rep` on the ranks of x's vertex modules with its epi onto x:
    (v, i, p) maps to column i of x.along(p)."""
    q = x.quiver
    ranks = {v: x.vertex_modules[v].rank for v in q.vertices}
    total, paths = free_rep(q, x.modulus, ranks)
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
