import json
import pathlib
import random

import numpy as np
import pytest

from quiverhom.harness import (
    NONPURE_FIXTURE_MODULI,
    Config,
    nonpure_fixture_ses,
    random_gorenstein_rep,
    random_injective_rep,
    random_quiver,
    random_representation,
)
from quiverhom.homology import canonical_injective_embedding
from quiverhom.io import ses_from_dict
from quiverhom.quiver import a2
from quiverhom import purity
from quiverhom.rep import (
    HomGroupRep,
    RepMorphism,
    RepSES,
    Representation,
    cokernel_rep,
    copresentation_embedding,
    direct_sum_reps,
    dual_rep_morphism,
    dual_rep_ses,
    naturality_system,
    stalk,
    zero_rep,
)
from quiverhom.purity import (
    PurityVerdict,
    definitional_purity_check,
    is_pure_mono_rep,
    is_pure_rep_ses,
    rep_retraction,
)
from quiverhom.znmod import (
    ModHom,
    Modulus,
    cyclic,
    identity_hom,
    zero_hom,
)

Z2 = Modulus(2)
Z4 = Modulus(4)
Z9 = Modulus(9)
LARGE_REPS = pathlib.Path(__file__).parent / "data" / "large_reps"


def nonpure_fixture(modulus, order):
    """0 -> s_2(I) -> e^2(I) -> e^1(I) -> 0 over the two-vertex line."""
    q = a2()
    x = stalk(q, modulus, 2, cyclic(modulus, order))
    embeds = {v: identity_hom(x.vertex_modules[v]) for v in q.vertices}
    total, f = copresentation_embedding(x, embeds)
    coker, proj = cokernel_rep(f)
    return RepSES(f, proj)


def test_nonpure_fixture_shape_and_verdicts():
    for modulus, order in ((Z4, 4), (Z2, 2), (Z9, 9)):
        ses = nonpure_fixture(modulus, order)
        # middle is e^2(I) = (I --iso--> I), right is e^1(I) = (I -> 0)
        assert ses.y.vertex_modules[1].factors == (order,)
        assert ses.y.vertex_modules[2].factors == (order,)
        assert ses.z.vertex_modules[1].factors == (order,)
        assert ses.z.vertex_modules[2].is_zero
        # vertexwise the sequence splits
        from quiverhom.znmod import is_split as mod_is_split

        for v in (1, 2):
            assert mod_is_split(ses.vertex_ses(v)) is not None
        # but the representation-level sequence is not pure
        verdict = is_pure_rep_ses(ses)
        assert not verdict.pure
        assert verdict.replay(ses)
        # and not split
        assert rep_retraction(ses.f) is None
        ok, tested, witness = definitional_purity_check(ses)
        assert not ok and witness is not None


def test_nonpure_fixture_dual_shape():
    # the dual sequence has the displayed form: a stalk at vertex 1 of the
    # opposite quiver included into an iso representation, and it cannot split
    ses = nonpure_fixture(Z4, 4)
    dual = dual_rep_ses(ses)
    zplus = dual.f.source  # (e^1(I))+
    assert zplus.vertex_modules[1].factors == (4,)
    assert zplus.vertex_modules[2].is_zero
    yplus = dual.f.target
    assert yplus.vertex_modules[1].factors == (4,)
    assert yplus.vertex_modules[2].factors == (4,)
    assert rep_retraction(dual.f) is None


def test_split_ses_is_pure():
    q = a2()
    m = cyclic(Z4, 4)
    x = Representation(q, Z4, {1: m, 2: m}, {"a": ModHom(m, m, [[2]])})
    total, injs, projs = direct_sum_reps([x, x])
    ses = RepSES(injs[0], projs[1])
    verdict = is_pure_rep_ses(ses)
    assert verdict.pure and verdict.replay(ses)
    ok, _, _ = definitional_purity_check(ses)
    assert ok
    assert rep_retraction(ses.f) is not None


def test_direct_sum_of_sequences_stays_pure():
    # componentwise direct sum of a pure sequence and a split sequence is
    # pure; tensor is additive so the definitional check sees it directly
    q = a2()
    m = cyclic(Z4, 4)
    x = Representation(q, Z4, {1: m, 2: m}, {"a": ModHom(m, m, [[2]])})
    total, injs, projs = direct_sum_reps([x, x])
    first = RepSES(injs[0], projs[1])
    second = RepSES(injs[1], projs[0])

    def sum_of_sequences(a, b):
        ytot, yinjs, yprojs = direct_sum_reps([a.y, b.y])
        xtot, xinjs, xprojs = direct_sum_reps([a.x, b.x])
        ztot, zinjs, zprojs = direct_sum_reps([a.z, b.z])
        f = yinjs[0].compose(a.f).compose(xprojs[0]) + yinjs[1].compose(b.f).compose(xprojs[1])
        g = zinjs[0].compose(a.g).compose(yprojs[0]) + zinjs[1].compose(b.g).compose(yprojs[1])
        return RepSES(f, g)

    total_ses = sum_of_sequences(first, second)
    assert is_pure_rep_ses(total_ses).pure
    ok, _, _ = definitional_purity_check(total_ses)
    assert ok


def test_nonpure_fixture_definitional_witness_is_a_stalk():
    # tensoring with a stalk S sends the fixture's inclusion to
    # S(a_op) (x) I, so the witness is the stalk at the source of the
    # opposite arrow (the sink of the original quiver)
    ses = nonpure_fixture(Z4, 4)
    ok, _, witness = definitional_purity_check(ses)
    assert not ok and witness["shape"] == "stalk" and witness["vertex"] == 2


def test_cheap_family_is_tensored_once_per_sequence(monkeypatch):
    # the purity command and the purity_bridge suite run both checks on
    # one sequence; the second reads the first's cheap-family witness and
    # presents no vertex top and tensors nothing of its own
    from quiverhom import purity

    calls = []
    for name in ("_vertex_top", "_tensor_left_exact"):
        real = getattr(purity, name)
        monkeypatch.setattr(purity, name, lambda *args, real=real: calls.append(1) or real(*args))
    expected = definitional_purity_check(nonpure_fixture(Z4, 4))
    ses = nonpure_fixture(Z4, 4)
    calls.clear()
    verdict = is_pure_rep_ses(ses)
    after_dual = len(calls)
    assert not verdict.pure and verdict.witness == expected[2] and after_dual > 0
    assert definitional_purity_check(ses) == expected
    assert len(calls) == after_dual


def test_cheap_family_is_built_at_most_once_per_sequence(monkeypatch):
    # definitional_purity_check counts the cheap family without building
    # it: one stalk per vertex and divisor d > 1, plus the dual of the sub
    # term; each of X, Y, Z has its top presented at most once per vertex
    from quiverhom import purity

    q = a2()
    m = cyclic(Z4, 4)
    x = Representation(q, Z4, {1: m, 2: m}, {"a": ModHom(m, m, [[2]])})
    total, injs, projs = direct_sum_reps([x, x])
    pure, impure = RepSES(injs[0], projs[1]), nonpure_fixture(Z4, 4)
    calls = []
    top = purity._vertex_top
    monkeypatch.setattr(purity, "_vertex_top", lambda r, v: calls.append(v) or top(r, v))
    for ses, verdict in ((pure, True), (impure, False)):
        calls.clear()
        assert is_pure_rep_ses(ses).pure is verdict
        ok, count, _ = definitional_purity_check(ses)
        # 2 vertices x the divisors 2, 4 of Z/4, the dual of the sub term,
        # the 2 projectives of the opposite of A2 and the 5 random members
        assert ok is verdict and count == 2 * 2 + 1 + 2 + 5
        assert all(calls.count(v) <= 3 for v in q.vertices)


def test_witness_memo_is_filled_once_and_dropped_with_the_sequence(monkeypatch):
    import gc
    import weakref

    from quiverhom import purity

    calls = []
    stalks = purity._stalk_witness
    monkeypatch.setattr(purity, "_stalk_witness", lambda s: calls.append(1) or stalks(s))
    ses = nonpure_fixture(Z4, 4)
    witness = is_pure_rep_ses(ses).witness
    assert definitional_purity_check(ses)[2] == witness is purity._cheap_definitional_witness(ses)
    assert len(calls) == 1
    # the memo is bounded: once as many newer sequences have been asked
    # about, its entry and the sequence go
    ref = weakref.ref(ses)
    del ses
    monkeypatch.setattr(purity, "_stalk_witness", lambda s: {"kind": "stub"})
    for _ in range(purity._cheap_definitional_witness.cache_info().maxsize):
        purity._cheap_definitional_witness(object())
    gc.collect()
    assert ref() is None


def test_replay_confirms_each_witness_through_the_general_tensor(monkeypatch):
    # a witness found from vertex tops is rebuilt as one stalk and
    # confirmed by the general tensor test; a stalk the sequence passes
    # replays False
    from quiverhom import purity

    sequences = [nonpure_fixture_ses(Modulus(n)) for n in NONPURE_FIXTURE_MODULI]
    sequences += [ses_from_dict(json.loads(p.read_text())) for p in sorted(LARGE_REPS.glob("item*-purity.json"))]
    tensored = []
    real = purity._tensor_left_exact
    monkeypatch.setattr(purity, "_tensor_left_exact", lambda s, ses: tensored.append(s) or real(s, ses))
    impure = passing = 0
    for ses in sequences:
        verdict = is_pure_rep_ses(ses)
        if verdict.pure:
            continue
        impure += 1
        w = verdict.witness
        assert w.get("shape") == "stalk"
        tensored.clear()
        assert verdict.replay(ses) and len(tensored) == 1
        assert tensored[0].vertex_modules[w["vertex"]].factors == (w["order"],)
        # every stalk decided before the witness passed
        order = [(v, d) for v in ses.x.quiver.vertices for d in ses.x.modulus.divisors[1:]]
        for v, d in order[: order.index((w["vertex"], w["order"]))]:
            assert not PurityVerdict(False, None, dict(w, vertex=v, order=d)).replay(ses)
            passing += 1
    assert impure == 6 and passing >= 30


def test_pure_mono_epi_examples():
    ses = nonpure_fixture(Z4, 4)
    assert is_pure_mono_rep(ses.f) is None
    x = ses.x
    ident = RepMorphism(x, x, {v: identity_hom(x.vertex_modules[v]) for v in x.quiver.vertices})
    assert is_pure_mono_rep(ident) is not None


def _is_identity(h):
    return all(h.components[v] == identity_hom(h.source.vertex_modules[v]) for v in h.source.quiver.vertices)


def test_replay_rejects_a_retraction_that_is_not_a_left_inverse():
    q = a2()
    m = cyclic(Z4, 4)
    x = Representation(q, Z4, {1: m, 2: m}, {"a": ModHom(m, m, [[2]])})
    total, injs, projs = direct_sum_reps([x, x])
    ses = RepSES(injs[0], projs[1])
    verdict = is_pure_rep_ses(ses)
    assert verdict.pure and verdict.replay(ses) and _is_identity(verdict.retraction.compose(ses.f))
    zero = RepMorphism(ses.y, ses.x, {v: zero_hom(ses.y.vertex_modules[v], ses.x.vertex_modules[v]) for v in q.vertices})
    assert not PurityVerdict(True, zero, None).replay(ses)
    # the retraction onto the other summand is not a left inverse either
    assert not PurityVerdict(True, projs[1], None).replay(ses)


def reference_dual_section(f):
    """A natural s with D(f) o s = id for the dual D(f): D(Y) -> D(X) of
    f: X -> Y, or None: the dual-section route that decided pure monos."""
    g = dual_rep_morphism(f)
    src, tgt = g.source, g.target
    sysm, var = naturality_system(tgt, src)
    for v in src.quiver.vertices:
        sysm.add_equation([(1, g.components[v], var[v], None)], identity_hom(tgt.vertex_modules[v]))
    out = sysm.solve()
    if out is None:
        return None
    s = RepMorphism(tgt, src, dict(zip(src.quiver.vertices, sysm.assignment(out[0]))))
    assert _is_identity(g.compose(s))
    return s


def _coresolution_monos():
    """The first two canonical injective coresolution steps of harness
    representations, injective ones among them, over acyclic quivers."""
    moduli = (2, 4, 6, 9, 12)
    cfg = Config(moduli=moduli)
    for k in range(40):
        rng = random.Random(104729 * k + 3)
        modulus = Modulus(moduli[k % len(moduli)])
        q = random_quiver(rng, cfg, right_rooted=True, max_vertices=3, max_arrows=3)
        x = random_injective_rep(rng, q, modulus, cfg) if k % 3 == 0 else random_representation(rng, q, modulus, cfg)
        for _ in range(2):
            _, mono = canonical_injective_embedding(x)
            yield mono
            x = cokernel_rep(mono)[0]


def test_pure_mono_is_a_split_mono_as_the_dual_section_decides():
    split = impure = 0
    for f in _coresolution_monos():
        r = is_pure_mono_rep(f)
        assert (r is not None) == (reference_dual_section(f) is not None)
        if r is None:
            impure += 1
        else:
            assert _is_identity(r.compose(f))
            split += 1
    assert split >= 10 and impure >= 10


def _monos_of_every_kind():
    """The canonical embeddings of representations from the three harness
    generators, plain and twisted injections into a direct sum, and the
    embeddings of the nonpure fixtures."""
    moduli = (2, 4, 6, 9, 12)
    cfg = Config(moduli=moduli)
    generators = (random_representation, random_injective_rep, random_gorenstein_rep)
    for k in range(45):
        rng = random.Random(7919 * k + 5)
        modulus = Modulus(moduli[k % len(moduli)])
        q = random_quiver(rng, cfg, right_rooted=True, max_vertices=3, max_arrows=3)
        x = generators[k % 3](rng, q, modulus, cfg)
        yield canonical_injective_embedding(x)[1]
        y = random_representation(rng, q, modulus, cfg)
        _, injs, _ = direct_sum_reps([x, y])
        homs = HomGroupRep(x, y)
        yield injs[0]
        yield injs[0] + injs[1].compose(homs.from_coords([rng.randrange(d) for d in homs.group.factors]))
    for n in NONPURE_FIXTURE_MODULI:
        yield nonpure_fixture_ses(Modulus(n)).f


def test_the_vertexwise_prefilter_never_flips_a_pure_mono_verdict(monkeypatch):
    # a component whose Matlis dual is no split epi decides None before the
    # retraction solve; the solve alone must give the same verdict
    real = purity.rep_retraction
    solved = []
    monkeypatch.setattr(purity, "rep_retraction", lambda f: solved.append(f) or real(f))
    outcomes = {(True, True): 0, (False, True): 0, (False, False): 0}
    for f in _monos_of_every_kind():
        solved.clear()
        pure = is_pure_mono_rep(f) is not None
        assert pure == (real(f) is not None)
        outcomes[pure, bool(solved)] += 1
    # pure, impure by the prefilter, and impure by the solve all occur
    assert all(outcomes.values()), outcomes


def test_psi_of_injective_is_split_epi():
    # e^2(Z/4) on A2 has psi_1 split epi: a section, found by enumerating
    # the hom group, certifies what the orders decide
    from quiverhom.rep import psi
    from quiverhom.znmod import hom_group, is_epi, splits

    ses = nonpure_fixture(Z4, 4)
    e2 = ses.y
    h = psi(e2, 1)
    grp, basis = hom_group(h.codomain, h.domain)
    ident = identity_hom(h.codomain)
    sections = []
    for coeffs in grp.elements():
        s = zero_hom(h.codomain, h.domain)
        for c, b in zip(coeffs, basis):
            s = s + ModHom._closed(b.domain, b.codomain, [[c * x for x in row] for row in b.matrix])
        if h.compose(s) == ident:
            sections.append(s)
    assert sections
    assert is_epi(h) and splits(h)


def test_purity_criteria_agree_on_random():
    # splitting criterion vs definitional tensor check on random SES
    rng = random.Random(12)
    from quiverhom.rep import subrep_generated, kernel_rep

    agree = 0
    for _ in range(25):
        q = a2()
        m1 = cyclic(Z4, rng.choice([2, 4]))
        m2 = cyclic(Z4, rng.choice([2, 4]))
        valid = [t for t in range(4) if (t * m1.factors[0]) % m2.factors[0] == 0]
        x = Representation(q, Z4, {1: m1, 2: m2}, {"a": ModHom(m1, m2, [[rng.choice(valid)]])})
        seeds = {1: [np.array([rng.randrange(m1.factors[0])])], 2: [np.array([rng.randrange(m2.factors[0])])]}
        sub, incl = subrep_generated(x, seeds)
        coker, proj = cokernel_rep(incl)
        ses = RepSES(incl, proj)
        verdict = is_pure_rep_ses(ses)
        definitional, _, _ = definitional_purity_check(ses)
        assert verdict.pure == definitional
        assert verdict.pure == (rep_retraction(ses.f) is not None)
        agree += 1
    assert agree == 25
