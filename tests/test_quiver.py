import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from quiverhom.quiver import (
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
    root_sequence,
    trivial_path,
)


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
    assert isinstance(first, tuple) and paths_between(q, 1, 2) is first
    assert [tuple(a.id for a in p.arrows) for p in first] == [("a",), ("b",)]
    for _ in range(2):
        with pytest.raises(ValueError, match="infinite path set"):
            paths_between(loop_quiver(), "v", "v")


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
