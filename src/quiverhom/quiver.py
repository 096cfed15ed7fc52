"""Finite quivers: paths, opposites, and the rootedness fixpoint."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple, Union

VertexId = Union[str, int]

_OP_SUFFIX = "_op"


@dataclass(frozen=True)
class Arrow:
    id: str
    src: VertexId
    tgt: VertexId


@dataclass(frozen=True)
class Quiver:
    """A finite directed multigraph; parallel arrows and loops are allowed."""

    vertices: Tuple[VertexId, ...]
    arrows: Tuple[Arrow, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        ids = [a.id for a in self.arrows]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate arrow ids")
        vs = set(self.vertices)
        for a in self.arrows:
            if a.src not in vs or a.tgt not in vs:
                raise ValueError(f"arrow {a.id} has an undeclared endpoint")

    def check_vertex(self, v: VertexId):
        if v not in self.vertices:
            raise KeyError(f"unknown vertex {v!r}")


def make_quiver(vertices: Sequence[VertexId], arrows: Sequence[Tuple[str, VertexId, VertexId]]) -> Quiver:
    return Quiver(tuple(vertices), tuple(Arrow(i, s, t) for i, s, t in arrows))


@dataclass(frozen=True)
class Path:
    """A composable arrow sequence; an empty sequence is the trivial path."""

    source: VertexId
    target: VertexId
    arrows: Tuple[Arrow, ...]

    def __post_init__(self):
        if not self.arrows:
            if self.source != self.target:
                raise ValueError("trivial path must have equal endpoints")
            return
        if self.arrows[0].src != self.source or self.arrows[-1].tgt != self.target:
            raise ValueError("path endpoints disagree with the arrow sequence")
        for a, b in zip(self.arrows, self.arrows[1:]):
            if a.tgt != b.src:
                raise ValueError(f"arrows {a.id} and {b.id} do not compose")

    @property
    def length(self) -> int:
        return len(self.arrows)

    @property
    def is_trivial(self) -> bool:
        return not self.arrows

    def key(self) -> Tuple:
        return (self.length, tuple(a.id for a in self.arrows))


def trivial_path(v: VertexId) -> Path:
    return Path(v, v, ())


def out_arrows(q: Quiver, v: VertexId) -> List[Arrow]:
    q.check_vertex(v)
    return [a for a in q.arrows if a.src == v]


def in_arrows(q: Quiver, v: VertexId) -> List[Arrow]:
    q.check_vertex(v)
    return [a for a in q.arrows if a.tgt == v]


@functools.lru_cache(maxsize=1024)
def opposite(q: Quiver) -> Quiver:
    """Same vertices, all arrows reversed; applying it twice gives back q.
    An id with an even number of trailing `_op`s gains one and an id with
    an odd number loses one, so distinct ids stay distinct.  Memoized:
    every tensor product and dual checks against it, and a quiver is
    immutable."""

    def flip(aid: str) -> str:
        stem = aid
        while stem.endswith(_OP_SUFFIX):
            stem = stem.removesuffix(_OP_SUFFIX)
        return aid.removesuffix(_OP_SUFFIX) if (len(aid) - len(stem)) // len(_OP_SUFFIX) % 2 else aid + _OP_SUFFIX

    return Quiver(q.vertices, tuple(Arrow(flip(a.id), a.tgt, a.src) for a in q.arrows))


def has_directed_cycle(q: Quiver) -> bool:
    color: Dict[VertexId, int] = {v: 0 for v in q.vertices}
    out = {v: [] for v in q.vertices}
    for a in q.arrows:
        out[a.src].append(a.tgt)

    def visit(v) -> bool:
        color[v] = 1
        for w in out[v]:
            if color[w] == 1:
                return True
            if color[w] == 0 and visit(w):
                return True
        color[v] = 2
        return False

    return any(color[v] == 0 and visit(v) for v in q.vertices)


# every right adjoint of restriction asks for the paths out of each vertex
# of the part of its quiver that reaches its subquiver, and the right
# adjoints over one quiver ask again; a hit means the vertex passed its
# check before, and lru_cache keeps no exceptions, so a bad vertex or an
# infinite path set raises every time
@functools.lru_cache(maxsize=1024, typed=True)
def paths_from(q: Quiver, v: VertexId) -> Tuple[Path, ...]:
    """All paths out of v, trivial path included, sorted by `Path.key`.

    Raises when a directed cycle is reachable from v, since the path set is
    then infinite; truncating would silently corrupt the product formula of
    the right adjoint.  The walk follows every path whose vertices are
    distinct, so it meets each such cycle as an arrow back to a vertex
    already on its route."""
    q.check_vertex(v)
    fwd = {u: [] for u in q.vertices}
    for a in q.arrows:
        fwd[a.src].append(a)
    out: List[Path] = []

    def walk(u, acc: Tuple[Arrow, ...], route: FrozenSet[VertexId]):
        out.append(Path(v, u, acc))
        for a in fwd[u]:
            if a.tgt in route:
                raise ValueError(f"infinite path set from {v!r}")
            walk(a.tgt, acc + (a,), route | {a.tgt})

    walk(v, (), frozenset((v,)))
    return tuple(sorted(out, key=Path.key))


def part_reaching(q: Quiver, targets: Iterable[VertexId]) -> Quiver:
    """The part of q that reaches `targets`: the vertices with a path to one
    of them, the targets included, and the arrows into those vertices.
    Every path of q that ends at a target is a path of this part."""
    reaches = set(targets)
    while grown := {a.src for a in q.arrows if a.tgt in reaches} - reaches:
        reaches |= grown
    return Quiver(tuple(u for u in q.vertices if u in reaches), tuple(a for a in q.arrows if a.tgt in reaches))


def paths_between(q: Quiver, i: VertexId, j: VertexId) -> Tuple[Path, ...]:
    """All paths from i to j, trivial path included when i == j, sorted by
    `Path.key`: those of `paths_from` on `part_reaching(q, (j,))` that end
    at j.  Raises when a directed cycle is reachable on some i-to-j route,
    which is exactly when that part has one reachable from i."""
    q.check_vertex(i)
    q.check_vertex(j)
    part = part_reaching(q, (j,))
    if i not in part.vertices:
        return ()
    try:
        paths = paths_from(part, i)
    except ValueError:
        raise ValueError(f"infinite path set between {i!r} and {j!r}") from None
    return tuple(p for p in paths if p.target == j)


@dataclass(frozen=True)
class RootSequence:
    """The ascending vertex filtration whose fixpoint detects right rootedness."""

    stages: Tuple[FrozenSet[VertexId], ...]
    fixpoint_index: int

    def __post_init__(self):
        for a, b in zip(self.stages, self.stages[1:]):
            if not a <= b:
                raise ValueError("stages must be ascending")


@functools.lru_cache(maxsize=1024)
def root_sequence(q: Quiver) -> RootSequence:
    """Iterate: a vertex enters the next stage when all its outgoing arrows
    land inside the current stage.  Stabilizes within |vertices| steps.
    Memoized: every classification asks whether its quiver is rooted."""
    out = {v: [a.tgt for a in q.arrows if a.src == v] for v in q.vertices}
    stages = [frozenset()]
    while True:
        cur = stages[-1]
        nxt = frozenset(v for v in q.vertices if all(t in cur for t in out[v]))
        if nxt == cur:
            return RootSequence(tuple(stages), len(stages) - 1)
        stages.append(nxt)


def is_right_rooted(q: Quiver) -> bool:
    return root_sequence(q).stages[-1] == frozenset(q.vertices)


def is_left_rooted(q: Quiver) -> bool:
    return is_right_rooted(opposite(q))


def is_subquiver(sub: Quiver, q: Quiver) -> bool:
    if not set(sub.vertices) <= set(q.vertices):
        return False
    by_id = {a.id: a for a in q.arrows}
    return all(by_id.get(a.id) == a for a in sub.arrows)


# small named quivers used across tests and demos
def a2() -> Quiver:
    return make_quiver([1, 2], [("a", 1, 2)])


def loop_quiver() -> Quiver:
    return make_quiver(["v"], [("alpha", "v", "v")])


def kronecker() -> Quiver:
    return make_quiver([1, 2], [("a", 1, 2), ("b", 1, 2)])
