"""Representations as values: the hash agrees with equality, the memos keyed
by representations hand out what a fresh computation gives and share it
between equal keys, the shared coinduced objects are read-only, every memo
in the package is a bounded lru_cache, and every construction that skips its
checks (`ModHom._closed`, `RepMorphism._closed`) passes them when they are
run."""

import contextlib
import importlib
import io
import json
import os
import pathlib
import pkgutil
import random
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

import quiverhom
from quiverhom import cli, homology, znmod
from quiverhom.harness import Config, random_quiver, random_representation
from quiverhom.io import rep_from_dict, rep_to_dict
from quiverhom.quiver import Quiver, a2, kronecker
from quiverhom.rep import (
    Representation,
    RightAdjointRep,
    coinduced,
    copresentation_embedding,
    direct_sum_reps,
    dual_rep,
    identity_morphism,
    psi,
    restrict,
    stalk,
    zero_morphism,
)
from quiverhom.znmod import ModHom, Modulus, cyclic, hom_entry_orders, hom_entry_scales, identity_hom

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _random_rep(seed: int) -> Representation:
    rng = random.Random(seed)
    cfg = Config()
    modulus = Modulus(rng.choice((2, 4, 6, 9)))
    q = random_quiver(rng, cfg, max_vertices=4, max_arrows=4)
    return random_representation(rng, q, modulus, cfg)


seeds = st.integers(min_value=0, max_value=10**6)


# ---------------------------------------------------------------------------
# the hash
# ---------------------------------------------------------------------------


@given(seeds, seeds)
@settings(max_examples=60, deadline=None)
def test_equal_representations_built_separately_hash_equally(s, t):
    x, y = _random_rep(s), _random_rep(t)
    same = [
        x,
        rep_from_dict(rep_to_dict(x)),
        direct_sum_reps([x])[0],
        restrict(x.quiver, x),
    ]
    for z in same:
        assert z == x and hash(z) == hash(x)
    if x.quiver == y.quiver and x.modulus == y.modulus:
        # two direct sums of the same summands, built one after the other
        a, b = direct_sum_reps([x, y])[0], direct_sum_reps([rep_from_dict(rep_to_dict(x)), y])[0]
        assert a is not b and a == b and hash(a) == hash(b)
    if x == y:
        assert hash(x) == hash(y)


@given(seeds, st.data())
@settings(max_examples=60, deadline=None)
def test_one_arrow_entry_or_the_quiver_alone_makes_representations_unequal(s, data):
    x = _random_rep(s)
    # the same tables over the quiver with its vertices in another order
    flipped = Quiver(tuple(reversed(x.quiver.vertices)), x.quiver.arrows)
    if flipped != x.quiver:
        y = Representation(flipped, x.modulus, dict(x.vertex_modules), dict(x.arrow_maps))
        assert y != x and x != y
    # one entry moved by the generator of its entry group
    cells = []
    for a in x.quiver.arrows:
        h = x.map(a.id)
        orders = hom_entry_orders(h.domain.factors, h.codomain.factors)
        cells += [(a.id, j, i) for j, row in enumerate(orders) for i, o in enumerate(row) if o > 1]
    assume(cells)
    aid, j, i = data.draw(st.sampled_from(cells))
    h = x.map(aid)
    mat = [list(row) for row in h.matrix]
    mat[j][i] += hom_entry_scales(h.domain.factors, h.codomain.factors)[j][i]
    maps = dict(x.arrow_maps)
    maps[aid] = ModHom(h.domain, h.codomain, mat)
    y = Representation(x.quiver, x.modulus, dict(x.vertex_modules), maps)
    assert y != x and x != y


# ---------------------------------------------------------------------------
# the psi memo, the coresolution memos and the coinduced memo
# ---------------------------------------------------------------------------


def _record(monkeypatch, memos):
    """Route every call of each memo in `memos` through a recorder and return
    the arguments each was asked for."""
    asked = {name: [] for name in memos}
    for name, cached in memos.items():

        def recording(*a, _cached=cached, _args=asked[name]):
            _args.append(a)
            return _cached(*a)

        # every module that imported the memo calls it by its own binding
        for mod in _package_modules():
            if getattr(mod, name, None) is cached:
                monkeypatch.setattr(mod, name, recording)
    return asked


def test_memoized_psi_equals_a_fresh_computation(monkeypatch):
    # every (representation, vertex) a `verify all` child asks psi for; the
    # `classify` files add psi of their Matlis duals, one dual that the
    # projective and flat rows share
    recorded = _record(monkeypatch, {"psi": psi, "dual_rep": dual_rep})
    asked = recorded["psi"]
    paths = [ROOT / "tests" / "data" / "large_reps" / name for name in ("item0003-classify.json", "item0007-classify.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "all", "--seed", "42000", "--trials", "10", "--json"]) == 0
        for path in paths:
            assert cli.main(["classify", str(path), "--json"]) == 0
    reps = list({id(x): x for x, _ in asked}.values())
    for path in paths:
        x = rep_from_dict(json.loads(path.read_text()))
        dual = dual_rep(x)
        # asked for twice, built once
        assert sum(y == x for (y,) in recorded["dual_rep"]) == 2
        assert [id(y) for y in reps if y == dual] == [id(dual)]
    for x in reps:
        for v in x.quiver.vertices:
            assert psi(x, v) == psi.__wrapped__(x, v), (x, v)
    # questions repeat, and equal representations built apart share entries
    assert len(asked) > 2 * len(set(asked))
    assert len(set(reps)) < len(reps)


def test_memoized_hom_properties_equal_a_fresh_computation(monkeypatch):
    # the kernels, cokernel orders and splitting verdicts of every hom a
    # `verify all` child asks about
    memos = {name: getattr(znmod, name) for name in ("_kernel_of_hom", "cokernel_order", "splits")}
    asked = _record(monkeypatch, memos)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "all", "--seed", "42002", "--trials", "10", "--json"]) == 0
    for name, cached in memos.items():
        args = asked[name]
        assert len(args) > 2 * len(set(args)), name
        for a in set(args):
            assert cached(*a) == cached.__wrapped__(*a), (name, a)


def _outcome(f, args):
    """f(*args), or the message of the failure it raises."""
    try:
        return f(*args)
    except homology.LeftResolutionFailure as exc:
        return str(exc)


def test_memoized_coresolution_steps_equal_a_fresh_computation(monkeypatch):
    # every representation a `verify all` child and the `classify --oracle`
    # files ask to embed or to cover: the sfp oracle, the Gorenstein oracle
    # and the Ding classifier share these steps
    memos = {name: getattr(homology, name) for name in ("canonical_injective_embedding", "_left_injective_step")}
    asked = _record(monkeypatch, memos)
    paths = [ROOT / "tests" / "data" / "large_reps" / name for name in ("item0003-classify.json", "item0007-classify.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "all", "--seed", "42000", "--trials", "10", "--json"]) == 0
        for path in paths:
            assert cli.main(["classify", str(path), "--oracle", "--json"]) == 0
    for name, cached in memos.items():
        args = asked[name]
        assert len(args) > len(set(args)), name
        for a in set(args):
            assert _outcome(cached, a) == _outcome(cached.__wrapped__, a), (name, a)


def test_memo_entry_goes_with_its_representation():
    m = cyclic(Modulus(8), 8)
    x = Representation(a2(), Modulus(8), {1: m, 2: m}, {"a": ModHom(m, m, [[3]])})
    twin = Representation(a2(), Modulus(8), {1: m, 2: m}, {"a": ModHom(m, m, [[3]])})
    # an equal representation built separately reads the same entry
    assert twin is not x and psi(twin, 1) is psi(x, 1)


def test_coinduced_objects_are_shared_and_read_only():
    q, z4 = a2(), Modulus(4)
    e = coinduced(q, z4, 2, cyclic(z4, 4))
    assert coinduced(q, z4, 2, cyclic(z4, 4)) is e
    p = e.factor_keys[1][0]
    total, proj, sect = e._presentations[1]
    for table, key, value in (
        (e.factor_keys, 1, ()),
        (e._coords, 1, {}),
        (e._coords[1], p, slice(0)),
        (e._presentations, 1, None),
        (e._presentations[1], 0, None),
        (proj, 0, ()),
        (sect, 0, ()),
        (e.factor_keys[1], 0, p),
    ):
        with pytest.raises(TypeError):
            table[key] = value
    assert [len(e.factor_keys[v]) for v in q.vertices] == [1, 1]
    # the presentation is the shared memo entry
    assert e._presentations[1] is znmod.sum_presentation(total.factors, z4)


def test_closed_constructions_check_their_ends():
    q, z4 = a2(), Modulus(4)
    m, half = cyclic(z4, 4), cyclic(z4, 2)
    x = Representation(q, z4, {1: m, 2: m}, {"a": ModHom(m, m, [[2]])})
    y = Representation(q, z4, {1: half, 2: m}, {"a": ModHom(half, m, [[2]])})
    with pytest.raises(ValueError, match="different quivers or moduli"):
        zero_morphism(x, stalk(kronecker(), z4, 1, m))
    with pytest.raises(ValueError, match="homs do not compose"):
        copresentation_embedding(x, {1: identity_hom(half), 2: identity_hom(m)})
    one = Quiver((1,), ())
    adj = RightAdjointRep(q, one, restrict(one, x))
    k = adj.transpose(x, identity_morphism(adj.inner))
    assert adj.transpose_back(x, k) == identity_morphism(adj.inner)
    with pytest.raises(ValueError, match="restrict x to the inner"):
        adj.transpose(y, identity_morphism(adj.inner))
    with pytest.raises(ValueError, match="from x to the right adjoint"):
        adj.transpose_back(y, k)


# ---------------------------------------------------------------------------
# every memo is a bounded lru_cache
# ---------------------------------------------------------------------------


def _package_modules():
    return [importlib.import_module(f"quiverhom.{m.name}") for m in pkgutil.iter_modules(quiverhom.__path__)]


def _namespaces():
    """Every module of the package and every class defined in one."""
    for mod in _package_modules():
        yield mod.__name__, vars(mod)
        for obj in vars(mod).values():
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                yield f"{mod.__name__}.{obj.__name__}", vars(obj)


def _plain_containers():
    """(name, container) of every mutable dict, list or set held by a module
    or class of the package."""
    for where, space in _namespaces():
        for attr, obj in space.items():
            if not attr.startswith("__") and isinstance(obj, (dict, list, set)):
                yield f"{where}.{attr}", obj


def test_every_memo_is_a_bounded_lru_cache():
    caches = []
    for where, space in _namespaces():
        for attr, obj in space.items():
            if isinstance(obj, (staticmethod, classmethod)):
                obj = obj.__func__
            if callable(obj) and hasattr(obj, "cache_info"):
                caches.append(f"{where}.{attr}")
                assert obj.cache_info().maxsize is not None, f"{where}.{attr} is an unbounded cache"
    assert {
        "quiverhom.rep.coinduced",
        "quiverhom.homology.canonical_injective_embedding",
        "quiverhom.homology._left_injective_step",
        "quiverhom.rep.psi",
        "quiverhom.rep.dual_rep",
        "quiverhom.purity._cheap_definitional_witness",
        "quiverhom.znmod._kernel_of_hom",
        "quiverhom.znmod.cokernel_order",
        "quiverhom.znmod.splits",
        "quiverhom.quiver.root_sequence",
        "quiverhom.linalg._echelon",
        "quiverhom.linalg._diagonalize",
        "quiverhom.znmod.sum_presentation",
    } <= set(caches)
    # a plain module-level or class-level container that grows while the
    # package works is an unbounded memo
    before = {name: len(obj) for name, obj in _plain_containers()}
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "all", "--seed", "42001", "--trials", "2", "--json"]) == 0
    grown = [name for name, obj in _plain_containers() if len(obj) != before.get(name, len(obj))]
    assert not grown


# ---------------------------------------------------------------------------
# closed constructions against the checked constructors
# ---------------------------------------------------------------------------

# Runs `verify all` with `ModHom._closed` and `RepMorphism._closed` replaced
# by the checked constructors, and `rep.map_into_sum` and `rep.map_out_of_sum`
# by sums of composites with the summands' injections and projections, built
# by `compose` and `+`, which check the ends.  A checked hom must also equal
# the fast one (rows of Python ints, entry for entry).  Prints the JSON lines
# of each seed, then one line of counts and errors.
_CHECKED_RUN = r"""
import contextlib, io, json, sys
from quiverhom import cli, rep
from quiverhom.rep import RepMorphism
from quiverhom.znmod import ModHom, direct_sum_with_maps, zero_hom

fast_into, fast_out = rep.map_into_sum, rep.map_out_of_sum
counts = {"homs": 0, "morphisms": 0, "sums": 0}
errors = []


def checked(kind, build):
    counts[kind] += 1
    try:
        return build()
    except ValueError as exc:
        errors.append(f"{kind}: {exc}")
        raise


def checking(fast_hom):
    def checked_hom(cls, domain, codomain, m):
        h = checked("homs", lambda: ModHom(domain, codomain, m))
        fast = fast_hom(cls, domain, codomain, m)
        ints = type(fast.matrix) is tuple and all(type(row) is tuple and all(type(x) is int for x in row) for row in fast.matrix)
        if not ints or fast.matrix != h.matrix:
            errors.append(f"homs: closed matrix {fast.matrix} != checked {h.matrix}")
        return h

    return classmethod(checked_hom)


def composites_added(dom, cod, composites):
    h = zero_hom(dom, cod)
    for first, second in composites:
        h = h + first.compose(second)
    return h


def checked_sum(fast, h):
    if fast.matrix != h.matrix:
        errors.append(f"sums: {fast.matrix} != {h.matrix}")
    return h


def checked_into(dom, comps):
    total, injs, _ = direct_sum_with_maps([c.codomain for c in comps], dom.modulus)
    h = checked("sums", lambda: composites_added(dom, total, zip(injs, comps)))
    return checked_sum(fast_into(dom, comps), h)


def checked_out(comps, cod):
    total, _, projs = direct_sum_with_maps([c.domain for c in comps], cod.modulus)
    h = checked("sums", lambda: composites_added(total, cod, zip(comps, projs)))
    return checked_sum(fast_out(comps, cod), h)


ModHom._closed = checking(ModHom._closed.__func__)
rep.map_into_sum, rep.map_out_of_sum = checked_into, checked_out
RepMorphism._closed = classmethod(lambda cls, s, t, c: checked("morphisms", lambda: RepMorphism(s, t, c)))
for seed in sys.argv[1:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["verify", "all", "--seed", seed, "--trials", "10", "--json"])
    print(json.dumps({"seed": seed, "rc": rc, "stdout": out.getvalue()}))
print(json.dumps({"counts": counts, "errors": errors}))
"""

_CROSS_CHECK_SEEDS = ("42000", "7001", "3003")


def test_closed_constructions_pass_the_checked_constructors():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CHECKED_RUN, *_CROSS_CHECK_SEEDS],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    *runs, summary = [json.loads(line) for line in proc.stdout.splitlines()]
    summary_counts, errors = summary["counts"], summary["errors"]
    assert not errors, errors[:5]
    assert summary_counts["homs"] > 10_000 and summary_counts["morphisms"] > 1_000 and summary_counts["sums"] > 1_000
    assert [r["seed"] for r in runs] == list(_CROSS_CHECK_SEEDS)
    for r in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["verify", "all", "--seed", r["seed"], "--trials", "10", "--json"])
        assert (r["rc"], r["stdout"]) == (rc, out.getvalue()) and rc == 0, r["seed"]
