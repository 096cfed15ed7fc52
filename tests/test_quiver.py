import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from quiverhom.quiver import (
    Path,
    Quiver,
    a2,
    has_directed_cycle,
    in_arrows,
    is_left_rooted,
    is_right_rooted,
    is_subquiver,
    kronecker,
    loop_quiver,
    make_quiver,
    opposite,
    out_arrows,
    paths_between,
    paths_from,
    root_sequence,
    trivial_path,
)
from quiverhom.rep import RightAdjointRep, coinduced, zero_rep
from quiverhom.znmod import Modulus, cyclic


def rand_quiver(rng, max_v=6, max_a=8, acyclic=False):
    nv = rng.randrange(1, max_v + 1)
    vertices = list(range(nv))
    arrows = []
    for k in range(rng.randrange(0, max_a + 1)):
        s = rng.randrange(nv)
        t = rng.randrange(nv)
        if acyclic:
            if nv == 1:
                continue
            s, t = sorted(rng.sample(range(nv), 2))
        arrows.append((f"a{k}", s, t))
    return make_quiver(vertices, arrows)


def test_paths_named_examples():
    q = a2()
    ps = paths_between(q, 1, 2)
    assert len(ps) == 1 and ps[0].length == 1
    ps = paths_between(q, 1, 1)
    assert ps == (trivial_path(1),)
    ps = paths_between(kronecker(), 1, 2)
    assert len(ps) == 2
    assert [tuple(a.id for a in p.arrows) for p in ps] == [("a",), ("b",)]


def test_paths_infinite_detection():
    with pytest.raises(ValueError):
        paths_between(loop_quiver(), "v", "v")
    two_cycle = make_quiver([1, 2], [("a", 1, 2), ("b", 2, 1)])
    with pytest.raises(ValueError):
        paths_between(two_cycle, 1, 2)
    # a cycle that is not on any route from i to j is harmless
    q = make_quiver([1, 2, 3], [("a", 1, 2), ("l", 3, 3)])
    assert len(paths_between(q, 1, 2)) == 1


def test_paths_between_memo_hands_out_its_tuple_and_raises_again():
    q = kronecker()
    first = paths_between(q, 1, 2)
    assert isinstance(first, tuple)
    assert [tuple(a.id for a in p.arrows) for p in first] == [("a",), ("b",)]
    for _ in range(2):
        with pytest.raises(ValueError, match="infinite path set"):
            paths_between(loop_quiver(), "v", "v")


def reference_paths_between(q, i, j):
    """All paths from i to j as first computed, the oracle: the vertices
    reachable from i and the vertices that reach j, a cycle check on the
    part between them, and a walk through that part."""
    q.check_vertex(i)
    q.check_vertex(j)
    fwd = {v: [] for v in q.vertices}
    back = {v: [] for v in q.vertices}
    for a in q.arrows:
        fwd[a.src].append(a)
        back[a.tgt].append(a.src)

    def reach(start, adj):
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj(v):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return frozenset(seen)

    middle = reach(i, lambda v: [a.tgt for a in fwd[v]]) & reach(j, lambda v: back[v])
    sub_arrows = [a for a in q.arrows if a.src in middle and a.tgt in middle]
    if has_directed_cycle(Quiver(tuple(middle), tuple(sub_arrows))):
        raise ValueError(f"infinite path set between {i!r} and {j!r}")
    out = []

    def walk(v, acc):
        if v == j:
            out.append(Path(i, j, acc))
        for a in fwd[v]:
            if (a.tgt in middle or a.tgt == j) and a.src in middle:
                walk(a.tgt, acc + (a,))

    if i in middle:
        walk(i, ())
    return tuple(sorted(out, key=Path.key))


@st.composite
def quivers(draw):
    """At most 4 vertices and 6 arrows with any ends, so loops, 2-cycles,
    parallel arrows and vertices with no arrows all occur."""
    nv = draw(st.integers(1, 4))
    ends = draw(st.lists(st.tuples(st.integers(1, nv), st.integers(1, nv)), max_size=6))
    return make_quiver(range(1, nv + 1), [(f"a{k}", s, t) for k, (s, t) in enumerate(ends)])


@st.composite
def path_queries(draw):
    """(q, i, j): a quiver of at most 5 vertices and 7 arrows with any ends,
    so loops, parallel arrows, vertices with no arrows and 2-cycles on and
    off the i-to-j routes all occur, and two of its vertices."""
    nv = draw(st.integers(1, 5))
    ends = draw(st.lists(st.tuples(st.integers(1, nv), st.integers(1, nv)), max_size=7))
    q = make_quiver(range(1, nv + 1), [(f"a{k}", s, t) for k, (s, t) in enumerate(ends)])
    return q, draw(st.integers(1, nv)), draw(st.integers(1, nv))


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


@given(path_queries())
@example((loop_quiver(), "v", "v"))
@example((make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 1), ("c", 2, 3)]), 1, 3))  # a 2-cycle on the route
@example((make_quiver([1, 2, 3, 4], [("a", 1, 2), ("b", 3, 4), ("c", 4, 3)]), 1, 2))  # a 2-cycle off it
@example((make_quiver([1, 2, 3, 4], [("a", 1, 2), ("b", 3, 4), ("c", 4, 3), ("d", 4, 2)]), 1, 2))  # reaches j only
@example((make_quiver([1, 2, 3], [("a", 1, 2), ("b", 1, 3), ("l", 3, 3)]), 1, 2))  # reached from i only
@example((make_quiver([1, 2, 3], [("a", 1, 2), ("b", 1, 2), ("c", 2, 3), ("d", 2, 3)]), 1, 3))  # parallel arrows
@example((make_quiver([1, 2, 3], [("a", 1, 2)]), 3, 3))  # 3 has no arrows
@example((make_quiver([1, 2], [("a", 1, 2)]), 2, 1))  # no route
@settings(max_examples=200, deadline=None, derandomize=True)
def test_paths_between_is_the_reference(query):
    q, i, j = query
    assert _outcome(paths_between, q, i, j) == _outcome(reference_paths_between, q, i, j)


@given(quivers())
@example(loop_quiver())
@example(make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 1), ("c", 2, 3)]))  # a 2-cycle
@example(make_quiver([1, 2, 3], [("a", 1, 2), ("l", 3, 3)]))  # a loop no route from 1 meets
@example(kronecker())
@example(make_quiver([1, 2, 3], [("a", 1, 2)]))  # 3 has no arrows
@settings(max_examples=200, deadline=None)
def test_paths_from_is_the_sorted_union_of_paths_between(q):
    for v in q.vertices:
        try:
            union = tuple(sorted((p for w in q.vertices for p in reference_paths_between(q, v, w)), key=Path.key))
        except ValueError:
            with pytest.raises(ValueError, match=f"^infinite path set from {re.escape(repr(v))}$"):
                paths_from(q, v)
        else:
            assert paths_from(q, v) == union and paths_from(q, v)[0] == trivial_path(v)


def reference_factor_keys(q, qsub, v):
    """The factors of the right adjoint at v as first listed, from one
    `reference_paths_between` per vertex of the subquiver."""
    sub_arrow_ids = {a.id for a in qsub.arrows}
    return tuple(sorted(
        (p for w in qsub.vertices for p in reference_paths_between(q, v, w) if p.is_trivial or p.arrows[-1].id not in sub_arrow_ids),
        key=Path.key,
    ))


@given(quivers(), st.data())
@settings(max_examples=200, deadline=None)
def test_right_adjoint_factor_keys_are_unchanged(q, data):
    vs = data.draw(st.lists(st.sampled_from(q.vertices), min_size=1, unique=True))
    inside = [a for a in q.arrows if a.src in vs and a.tgt in vs]
    chosen = data.draw(st.sets(st.sampled_from(inside))) if inside else set()
    qsub = Quiver(tuple(vs), tuple(a for a in inside if a in chosen))
    try:
        want = {v: reference_factor_keys(q, qsub, v) for v in q.vertices}
    except ValueError:
        # a cycle lies on a path into the subquiver
        with pytest.raises(ValueError, match="^infinite path set from "):
            RightAdjointRep(q, qsub, zero_rep(qsub, Modulus(2)))
        return
    assert dict(RightAdjointRep(q, qsub, zero_rep(qsub, Modulus(2))).factor_keys) == want


def test_right_adjoint_walks_only_the_part_that_reaches_the_subquiver():
    # 1 -> 2 and 3 -> 1 with a loop at 3: over the opposite quiver the loop
    # lies on no path into 1, so e^1 there is finite
    q = make_quiver([1, 2, 3], [("a", 1, 2), ("b", 3, 1), ("l", 3, 3)])
    z4 = Modulus(4)
    adj = coinduced(opposite(q), z4, 1, cyclic(z4, 4))
    assert {v: [tuple(a.id for a in p.arrows) for p in ps] for v, ps in adj.factor_keys.items()} == {1: [()], 2: [("a_op",)], 3: []}
    assert [m.factors for m in adj.rep.vertex_modules.values()] == [(4,), (4,), ()]
    with pytest.raises(ValueError, match="^infinite path set from "):
        coinduced(q, z4, 1, cyclic(z4, 4))


def test_opposite_named_examples():
    q = a2()
    op = opposite(q)
    assert op.arrows[0].src == 2 and op.arrows[0].tgt == 1
    lq = loop_quiver()
    assert opposite(lq).arrows[0].src == "v"
    rng = random.Random(7)
    for _ in range(200):
        q = rand_quiver(rng)
        assert opposite(opposite(q)) == q


# an arrow id: a stem, then 0 to 4 copies of the suffix that `opposite` adds
op_ids = st.builds(lambda stem, k: stem + "_op" * k, st.sampled_from(["", "a", "a_", "_o", "op", "b_opa"]), st.integers(0, 4))


@given(ids=st.lists(op_ids, unique=True, max_size=6), data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_opposite_is_an_involution_on_ids_with_repeated_op_suffixes(ids, data):
    vertices = [1, 2, 3]
    q = make_quiver(vertices, [(aid, data.draw(st.sampled_from(vertices)), data.draw(st.sampled_from(vertices))) for aid in ids])
    op = opposite(q)
    assert opposite(op) == q
    for a, b in zip(q.arrows, op.arrows):
        # ids with no or one trailing _op keep their opposite names
        trailing = len(re.search(r"(_op)*$", a.id).group()) // 3
        if trailing == 0:
            assert b.id == a.id + "_op"
        elif trailing == 1:
            assert b.id == a.id[:-3]


def test_out_in_arrows():
    q = a2()
    assert [a.id for a in out_arrows(q, 1)] == ["a"]
    assert in_arrows(q, 1) == []
    lq = loop_quiver()
    assert [a.id for a in out_arrows(lq, "v")] == ["alpha"]
    assert [a.id for a in in_arrows(lq, "v")] == ["alpha"]
    star = make_quiver([0, 1, 2, 3], [("a", 0, 1), ("b", 0, 2), ("c", 0, 3)])
    assert len(out_arrows(star, 0)) == 3
    with pytest.raises(KeyError):
        out_arrows(q, 99)


def test_root_sequence_named_examples():
    rs = root_sequence(a2())
    assert [set(s) for s in rs.stages] == [set(), {2}, {1, 2}]
    assert is_right_rooted(a2())
    # the non-right rooted quiver with a single loop
    rs = root_sequence(loop_quiver())
    assert rs.stages[-1] == frozenset()
    assert not is_right_rooted(loop_quiver())
    two_cycle = make_quiver([1, 2], [("a", 1, 2), ("b", 2, 1)])
    assert not is_right_rooted(two_cycle)
    assert is_right_rooted(make_quiver([1, 2], [("a", 1, 2)]))


def test_rootedness_equals_acyclicity_on_random_quivers():
    rng = random.Random(8)
    for _ in range(500):
        q = rand_quiver(rng, max_v=8)
        assert is_right_rooted(q) == (not has_directed_cycle(q))
        assert is_right_rooted(q) == is_left_rooted(opposite(q))
        rs = root_sequence(q)
        assert rs.fixpoint_index <= len(q.vertices)
        # no arrow may leave a stage toward an outside vertex
        for k in range(1, len(rs.stages)):
            for a in q.arrows:
                if a.src in rs.stages[k]:
                    assert a.tgt in rs.stages[k - 1]


def test_subquiver():
    q = a2()
    assert is_subquiver(make_quiver([1], []), q)
    assert is_subquiver(q, q)
    assert not is_subquiver(make_quiver([3], []), q)
