import random

import pytest

from quiverhom.harness import Config, random_gorenstein_rep, random_injective_rep, random_quiver, random_representation
from quiverhom.quiver import a2, loop_quiver, make_quiver, paths_from
from quiverhom.rep import Representation, direct_sum_reps, stalk
from quiverhom.classify import (
    classify_ding_injective,
    classify_flat,
    classify_fp_injective,
    classify_gorenstein_sfp,
    classify_injective,
    classify_projective,
    classify_strongly_fp_injective,
    definitional_sfp_check,
    ext_orthogonality_sample,
    find_orthogonality_violation,
    membership_psi_class,
    simple_stalks,
)
from quiverhom import classify
from quiverhom.homology import canonical_injective_embedding, projective_generator
from quiverhom.purity import is_pure_rep_ses
from quiverhom.rep import RepSES, cokernel_rep, coinduced
from quiverhom.znmod import (
    ModHom,
    Modulus,
    cyclic,
    identity_hom,
    is_injective_module,
)

Z2 = Modulus(2)
Z4 = Modulus(4)


def test_classify_injective_named_examples():
    q = a2()
    e1 = coinduced(q, Z4, 1, cyclic(Z4, 4)).rep  # (Z/4 -> 0)
    cv = classify_injective(e1, with_oracle=True)
    assert cv.verdict and cv.oracle and cv.mode == "full"
    s2 = stalk(q, Z4, 2, cyclic(Z4, 4))
    cv = classify_injective(s2, with_oracle=True)
    assert not cv.verdict and cv.oracle is False
    assert not cv.evidence[1]["psi_split_epi"]
    e2 = coinduced(q, Z4, 2, cyclic(Z4, 4)).rep  # (Z/4 --id--> Z/4)
    cv = classify_injective(e2, with_oracle=True)
    assert cv.verdict and cv.oracle


def test_classify_projective_flat_named_examples():
    q = a2()
    p1 = projective_generator(q, Z2, 1)
    assert classify_projective(p1, with_oracle=True).verdict
    assert classify_flat(p1).verdict
    s1 = stalk(q, Z2, 1, cyclic(Z2, 2))
    cv = classify_projective(s1, with_oracle=True)
    assert not cv.verdict and cv.oracle is False
    # over Z/n flat equals projective on finitely generated instances
    rng = random.Random(13)
    for _ in range(20):
        m1 = cyclic(Z4, rng.choice([2, 4]))
        m2 = cyclic(Z4, rng.choice([2, 4]))
        valid = [t for t in range(4) if (t * m1.factors[0]) % m2.factors[0] == 0]
        x = Representation(q, Z4, {1: m1, 2: m2}, {"a": ModHom(m1, m2, [[rng.choice(valid)]])})
        assert classify_flat(x).verdict == classify_projective(x).verdict


def test_classify_fp_and_sfp_collapse():
    q = a2()
    rng = random.Random(14)
    for _ in range(25):
        m1 = cyclic(Z4, rng.choice([2, 4]))
        m2 = cyclic(Z4, rng.choice([2, 4]))
        valid = [t for t in range(4) if (t * m1.factors[0]) % m2.factors[0] == 0]
        x = Representation(q, Z4, {1: m1, 2: m2}, {"a": ModHom(m1, m2, [[rng.choice(valid)]])})
        inj = classify_injective(x).verdict
        fp = classify_fp_injective(x).verdict
        sfp = classify_strongly_fp_injective(x).verdict
        assert inj == fp == sfp


def test_classify_sfp_named_examples():
    q = a2()
    # e^v of an injective module is strongly fp-injective
    e1 = coinduced(q, Z4, 1, cyclic(Z4, 4)).rep
    cv = classify_strongly_fp_injective(e1, with_oracle=True)
    assert cv.verdict and cv.oracle
    # the stalk s_2(Z/4) is not: its copresentation is not pure
    s2 = stalk(q, Z4, 2, cyclic(Z4, 4))
    cv = classify_strongly_fp_injective(s2, with_oracle=True)
    assert not cv.verdict and cv.oracle is False
    # (Z/4 --id--> Z/4) is strongly fp-injective
    m = cyclic(Z4, 4)
    x = Representation(q, Z4, {1: m, 2: m}, {"a": identity_hom(m)})
    cv = classify_strongly_fp_injective(x, with_oracle=True)
    assert cv.verdict and cv.oracle


def test_definitional_sfp_check_details():
    q = a2()
    m = cyclic(Z4, 4)
    inj = Representation(q, Z4, {1: m, 2: m}, {"a": identity_hom(m)})
    ok, info = definitional_sfp_check(inj)
    assert ok
    s2 = stalk(q, Z4, 2, m)
    ok, info = definitional_sfp_check(s2)
    assert not ok and info["failure"]["degree"] == 0


def reference_coresolution_walk(x):
    """The whole canonical injective coresolution, each step tested for
    purity: an impure step is definitive for False, a vanishing syzygy for
    True.  The support of an injective is closed under predecessors, each
    step after a pure first one is onto at the sinks of that support, and
    the next syzygy is injective on the support minus those sinks, so the
    syzygy vanishes by the degree of the longest path; a nonzero syzygy
    after one pure step per vertex (one more for the quiver with no
    vertices) means that argument is broken."""
    info = {"steps": []}
    y = x
    for k in range(len(x.quiver.vertices) + 1):
        _, mono = canonical_injective_embedding(y)
        y, proj = cokernel_rep(mono)
        verdict = is_pure_rep_ses(RepSES(mono, proj))
        info["steps"].append({"degree": k, "pure": verdict.pure})
        if not verdict.pure:
            info["failure"] = {"degree": k, "witness": verdict.witness}
            return False, info
        if y.is_zero:
            info["terminated"] = {"degree": k, "reason": "syzygy vanished"}
            return True, info
    raise AssertionError(f"a syzygy is nonzero after {k + 1} pure steps over {len(x.quiver.vertices)} vertices")


def _line(length):
    return make_quiver(range(1, length + 1), [(f"a{i}", i, i + 1) for i in range(1, length)])


def one_coresolution_step(monkeypatch):
    """Let `classify` build one injective embedding per `calls.clear()`; a
    second one raises, so a walk past the first step fails at once instead
    of building the later, larger steps."""
    real = classify.canonical_injective_embedding
    calls = []

    def once(x):
        calls.append(x)
        if len(calls) > 1:
            raise AssertionError("a second coresolution step")
        return real(x)

    monkeypatch.setattr(classify, "canonical_injective_embedding", once)
    return calls


def test_definitional_sfp_check_ends_at_the_longest_path_of_a_line():
    # e^L(Z/4) is Z/4 at every vertex of 1 -> ... -> L: the oracle stops at
    # its split first step, while the reference walk is onto at the sink of
    # the syzygy's support at each step and vanishes at degree L - 1
    for length in range(2, 8):
        x = coinduced(_line(length), Z4, length, cyclic(Z4, 4)).rep
        ok, info = definitional_sfp_check(x)
        assert ok and info["terminated"] == {"degree": 0, "reason": "first step split"}, length
        ok, info = reference_coresolution_walk(x)
        assert ok and info["terminated"] == {"degree": length - 1, "reason": "syzygy vanished"}, length


def test_definitional_sfp_check_stops_at_the_first_step_on_the_nine_vertex_line(monkeypatch):
    calls = one_coresolution_step(monkeypatch)
    for length in range(2, 10):
        calls.clear()
        ok, info = definitional_sfp_check(coinduced(_line(length), Z4, length, cyclic(Z4, 4)).rep)
        assert ok and info["terminated"]["degree"] == 0 and len(calls) == 1, length


def test_definitional_sfp_check_raises_past_one_step_per_vertex(monkeypatch):
    # a syzygy that never vanishes breaks the support argument of the
    # reference walk: a harness error naming the vertex count, not a verdict
    x = coinduced(a2(), Z4, 2, cyclic(Z4, 4)).rep
    real = cokernel_rep
    monkeypatch.setitem(globals(), "cokernel_rep", lambda mono: (x, real(mono)[1]))
    with pytest.raises(AssertionError, match="after 3 pure steps over 2 vertices"):
        reference_coresolution_walk(x)


def test_definitional_sfp_check_follows_the_support_argument():
    # a pure first step splits, so the reference decides False at degree 0,
    # True means injective, and a True coresolution vanishes by the longest
    # path's degree; the oracle's one step gives the same verdict
    config = Config(moduli=(2, 4, 6, 8, 9, 12))
    rng = random.Random(49)
    generators = (random_representation, random_injective_rep, random_gorenstein_rep)
    degrees = {True: [], False: []}
    for t in range(300):
        modulus = Modulus(rng.choice(config.moduli))
        q = random_quiver(rng, config, right_rooted=True, max_vertices=5, max_arrows=5)
        x = generators[t % 3](rng, q, modulus, config)
        ok, info = reference_coresolution_walk(x)
        longest = max(p.length for v in q.vertices for p in paths_from(q, v))
        degree = info["terminated" if ok else "failure"]["degree"]
        assert (degree <= longest) if ok else (degree == 0), (t, info)
        assert ok == definitional_sfp_check(x)[0] == classify_injective(x).verdict, t
        degrees[ok].append(degree)
    assert degrees[False] and max(degrees[True]) >= 2


def test_the_injective_oracle_builds_simple_stalks_as_it_tests_them(monkeypatch):
    # Ext^1(S_1(Z/2), x) holds Ext^1_{Z/4}(Z/2, Z/2) != 0, so the first
    # simple already decides and no other is built
    x = stalk(a2(), Z4, 1, cyclic(Z4, 2))
    built = []
    real = classify.stalk
    monkeypatch.setattr(classify, "stalk", lambda *args: built.append(args) or real(*args))
    assert classify_injective(x, with_oracle=True).oracle is False
    assert len(built) == 1


def test_classify_gorenstein_named_examples():
    q = a2()
    m2 = cyclic(Z4, 2)
    x = Representation(q, Z4, {1: m2, 2: m2}, {"a": identity_hom(m2)})
    cv = classify_gorenstein_sfp(x, with_oracle=True)
    assert cv.verdict and cv.oracle
    assert not classify_injective(x).verdict
    s2 = stalk(q, Z4, 2, m2)
    cv = classify_gorenstein_sfp(s2, with_oracle=True)
    assert not cv.verdict and cv.oracle is False
    m4 = cyclic(Z4, 4)
    inj = Representation(q, Z4, {1: m4, 2: m4}, {"a": identity_hom(m4)})
    cv = classify_gorenstein_sfp(inj, with_oracle=True)
    assert cv.verdict and cv.oracle


def test_gorenstein_iff_psi_epi_over_zn():
    # over the quasi-Frobenius ring Z/n every module is Gorenstein strongly
    # fp-injective, so the verdict reduces to surjectivity of every psi
    from quiverhom.rep import psi
    from quiverhom.znmod import is_epi

    q = a2()
    rng = random.Random(15)
    for _ in range(25):
        m1 = cyclic(Z4, rng.choice([2, 4]))
        m2 = cyclic(Z4, rng.choice([2, 4]))
        valid = [t for t in range(4) if (t * m1.factors[0]) % m2.factors[0] == 0]
        x = Representation(q, Z4, {1: m1, 2: m2}, {"a": ModHom(m1, m2, [[rng.choice(valid)]])})
        expected = all(is_epi(psi(x, v)) for v in (1, 2))
        assert classify_gorenstein_sfp(x).verdict == expected


def test_membership_classes():
    q = a2()
    m2 = cyclic(Z4, 2)
    x = Representation(q, Z4, {1: m2, 2: m2}, {"a": identity_hom(m2)})
    assert membership_psi_class(x, lambda m: True)
    assert not membership_psi_class(stalk(q, Z4, 2, m2), lambda m: True)
    # psi-class with the injective-module predicate matches the injective verdict
    rng = random.Random(16)
    for _ in range(20):
        m1 = cyclic(Z4, rng.choice([2, 4]))
        mm2 = cyclic(Z4, rng.choice([2, 4]))
        valid = [t for t in range(4) if (t * m1.factors[0]) % mm2.factors[0] == 0]
        y = Representation(q, Z4, {1: m1, 2: mm2}, {"a": ModHom(m1, mm2, [[rng.choice(valid)]])})
        lhs = membership_psi_class(y, is_injective_module)
        assert lhs == classify_injective(y).verdict


def test_ding_agrees_with_gorenstein():
    q = a2()
    m2 = cyclic(Z4, 2)
    for x in (
        Representation(q, Z4, {1: m2, 2: m2}, {"a": identity_hom(m2)}),
        stalk(q, Z4, 2, m2),
        coinduced(q, Z4, 1, cyclic(Z4, 4)).rep,
    ):
        assert classify_ding_injective(x).verdict == classify_gorenstein_sfp(x, with_oracle=True).oracle


def test_verdicts_are_frozen():
    from dataclasses import FrozenInstanceError

    from quiverhom.homology import totally_acyclic_injective_complex
    from quiverhom.purity import is_pure_rep_ses
    from quiverhom.rep import RepSES

    x = coinduced(a2(), Z4, 1, cyclic(Z4, 4)).rep
    total, injs, projs = direct_sum_reps([x, x])
    cert, err = totally_acyclic_injective_complex(x, depth=1)
    assert err is None
    for value, field in (
        (classify_injective(x), "verdict"),
        (classify_gorenstein_sfp(x, with_oracle=True), "oracle"),
        (is_pure_rep_ses(RepSES(injs[0], projs[1])), "pure"),
        (cert, "cycle_witness"),
    ):
        with pytest.raises(FrozenInstanceError):
            setattr(value, field, None)


def test_necessity_only_on_loop_quiver():
    lq = loop_quiver()
    m = cyclic(Z4, 4)
    x = Representation(lq, Z4, {"v": m}, {"alpha": identity_hom(m)})
    cv = classify_injective(x)
    assert cv.mode == "necessity-only"
    assert cv.oracle is None


def test_loop_quiver_converse_failure_witness():
    # on the non-right-rooted loop quiver the characterization conditions can
    # hold while the representation is not injective: (Z/4, id) embeds into
    # (Z/4^2, unipotent) without a natural retraction
    from quiverhom.purity import rep_retraction
    from quiverhom.rep import RepMorphism
    from quiverhom.znmod import FinMod

    lq = loop_quiver()
    m = cyclic(Z4, 4)
    x = Representation(lq, Z4, {"v": m}, {"alpha": identity_hom(m)})
    cv = classify_injective(x)
    # every characterization condition holds...
    assert cv.verdict and cv.mode == "necessity-only"
    m2 = FinMod(Z4, (4, 4))
    y = Representation(lq, Z4, {"v": m2}, {"alpha": ModHom(m2, m2, [[1, 1], [0, 1]])})
    f = RepMorphism(x, y, {"v": ModHom(m, m2, [[1], [0]])})
    assert f.is_monomorphism
    # ...but the embedding admits no natural retraction, so x is not injective
    assert rep_retraction(f) is None


def test_ext_orthogonality_sampling():
    q = a2()

    def left(rng):
        # arbitrary representation with projective-free component mixes; the
        # weak fp-projectivity condition (Ext^1 against injectives) holds for
        # every module over Z/n and is re-checked here per sample
        from quiverhom.znmod import ext_module, free_mod

        m1 = cyclic(Z4, rng.choice([2, 4]))
        m2 = cyclic(Z4, rng.choice([2, 4]))
        valid = [t for t in range(4) if (t * m1.factors[0]) % m2.factors[0] == 0]
        k = Representation(q, Z4, {1: m1, 2: m2}, {"a": ModHom(m1, m2, [[rng.choice(valid)]])})
        ok = all(ext_module(k.vertex_modules[v], cyclic(Z4, 4), 1).is_zero for v in (1, 2))
        return k, {"valid": ok}

    def right(rng):
        j = coinduced(q, Z4, rng.choice([1, 2]), cyclic(Z4, 4)).rep
        return j, {"valid": classify_strongly_fp_injective(j).verdict}

    report = ext_orthogonality_sample(left, right, trials=20, seed=3)
    assert report["all_orthogonal"], report["failures"]
    # negative control: a corrupted J with psi not pure epi is detected
    bad_j = stalk(q, Z2, 2, cyclic(Z2, 2))
    cands = simple_stalks(q, Z2)
    assert find_orthogonality_violation(bad_j, cands) is not None
