"""Purity of short exact sequences of representations via the dual-splitting
criterion, the definitional tensor check as an independent oracle, pure
monos, and natural one-sided inverses of morphisms of representations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .homology import projective_generator
from .quiver import Quiver, has_directed_cycle, opposite
from .rep import (
    RepMorphism,
    RepSES,
    Representation,
    dual_rep,
    dual_rep_morphism,
    dual_rep_ses,
    naturality_system,
    stalk,
    tensor_order,
)
from .znmod import (
    FinMod,
    ModHom,
    Modulus,
    canonical_chain,
    cyclic,
    identity_hom,
    is_pure_module_ses,
    random_hom,
)


@dataclass
class PurityVerdict:
    pure: bool
    # a natural retraction splitting the dual sequence, when pure
    dual_retraction: Optional[RepMorphism]
    # on impurity: where the obstruction was found
    witness: Optional[dict]

    def replay(self, ses: RepSES) -> bool:
        """Re-run the stored certificate against the sequence."""
        if self.pure:
            assert self.dual_retraction is not None
            dual = dual_rep_ses(ses)
            comp = self.dual_retraction.compose(dual.f)
            ident = {
                v: identity_hom(dual.f.source.vertex_modules[v])
                for v in dual.f.source.quiver.vertices
            }
            return all(comp.components[v] == ident[v] for v in ident)
        w = self.witness or {}
        if w.get("kind") == "vertex-module":
            ok, _ = is_pure_module_ses(ses.vertex_ses(w["vertex"]))
            return not ok
        if w.get("kind") == "test-object":
            for desc, s in _cheap_test_objects(ses):
                if desc == w:
                    return not _tensor_left_exact(s, ses)
            raise ValueError(f"unknown witness descriptor {w!r}")
        return False


def _natural_one_sided_inverse(h: RepMorphism, left: bool) -> Optional[RepMorphism]:
    """A natural u: T -> S with u o h = id (left) or h o u = id, for h: S -> T."""
    src, tgt = h.source, h.target
    q = src.quiver
    sysm, var = naturality_system(tgt, src)
    for v in q.vertices:
        side = (src if left else tgt).vertex_modules[v]
        eye = np.eye(side.rank, dtype=np.int64)
        hv = h.components[v].matrix
        sysm.add_matrix_equation([(var[v], eye, hv, 1) if left else (var[v], hv, eye, 1)], eye, side.factors)
    out = sysm.solve()
    if out is None:
        return None
    mats = sysm.assignment(out[0])
    comps = {v: ModHom(tgt.vertex_modules[v], src.vertex_modules[v], m) for v, m in zip(q.vertices, mats)}
    return RepMorphism(tgt, src, comps)


def rep_retraction(f: RepMorphism) -> Optional[RepMorphism]:
    """A natural r with r o f = id on the source, if one exists."""
    return _natural_one_sided_inverse(f, left=True)


def rep_section(g: RepMorphism) -> Optional[RepMorphism]:
    """A natural s with g o s = id on the target, if one exists."""
    return _natural_one_sided_inverse(g, left=False)


def is_split_rep_ses(ses: RepSES) -> Optional[RepMorphism]:
    return rep_retraction(ses.f)


def is_pure_rep_ses(ses: RepSES) -> PurityVerdict:
    """Purity by the dual-splitting criterion: the sequence is pure iff its
    dual splits in the opposite category.

    A vertexwise module-purity prefilter catches most impure sequences
    cheaply; the decisive test is one linear solve for a natural retraction
    of the dualized epi.
    """
    for v in ses.f.source.quiver.vertices:
        ok, divisor = is_pure_module_ses(ses.vertex_ses(v))
        if not ok:
            return PurityVerdict(False, None, {"kind": "vertex-module", "vertex": v, "divisor": divisor})
    dual = dual_rep_ses(ses)
    rho = rep_retraction(dual.f)
    if rho is None:
        witness = _cheap_definitional_witness(ses)
        return PurityVerdict(False, None, witness or {"kind": "dual-not-split"})
    return PurityVerdict(True, rho, None)


def _cheap_test_objects(ses: RepSES) -> List[Tuple[dict, Representation]]:
    """The stalks of the cyclics Z/d, d > 1, at every vertex of the opposite
    quiver, then the dual of the sub term, each with its witness descriptor."""
    q, modulus = ses.f.source.quiver, ses.f.source.modulus
    qop = opposite(q)
    out = [
        ({"kind": "test-object", "shape": "stalk", "vertex": v, "order": d}, stalk(qop, modulus, v, cyclic(modulus, d)))
        for v in q.vertices
        for d in modulus.divisors
        if d > 1
    ]
    out.append(({"kind": "test-object", "shape": "dual-of-sub"}, dual_rep(ses.x)))
    return out


def _tensor_left_exact(s: Representation, ses: RepSES) -> bool:
    # s tensor - is right exact, so |ker(s tensor f)| = |s tensor X| |s tensor Z| / |s tensor Y|
    return tensor_order(s, ses.x) * tensor_order(s, ses.z) == tensor_order(s, ses.y)


def _cheap_definitional_witness(ses: RepSES) -> Optional[dict]:
    """The first member of `_cheap_test_objects` that the sequence fails,
    or None; memoized on the sequence, since `is_pure_rep_ses` and
    `definitional_purity_check` both ask for it."""
    if not hasattr(ses, "_cheap_witness"):
        ses._cheap_witness = next((desc for desc, s in _cheap_test_objects(ses) if not _tensor_left_exact(s, ses)), None)
    return ses._cheap_witness


def _random_test_rep(qop: Quiver, modulus: Modulus, rng: random.Random) -> Representation:
    divisors = [d for d in modulus.divisors if d > 1]
    mods = {}
    for v in qop.vertices:
        orders = [rng.choice(divisors) for _ in range(rng.randrange(0, 3))]
        mods[v] = FinMod(modulus, canonical_chain(orders, modulus.n))
    maps = {a.id: random_hom(rng, mods[a.src], mods[a.tgt]) for a in qop.arrows}
    return Representation(qop, modulus, mods, maps)


def definitional_purity_check(ses: RepSES, budget: int = 5, seed: int = 0) -> Tuple[bool, int, Optional[dict]]:
    """Tensor the sequence with a family of test objects over the opposite
    quiver and check left-exactness of each result.

    The family is `_cheap_test_objects` (the stalks of cyclics, then the
    dual of the sub term), followed by the projective generators when the
    opposite quiver is acyclic and seeded random representations.  The dual
    of the sub term makes the check decisive: exactness of
    (dual X) tensor eta dualizes to surjectivity of Hom(dual X, dual Y) onto
    Hom(dual X, dual X), which produces a splitting of the dual sequence.
    The projective and random members are a sanity net behind it, not part
    of the decision; they stay because dropping them would change the
    reported tested-object count and with it every stored report digest.
    The cheap family is built and tensored at most once per sequence
    (`_cheap_definitional_witness`); the count includes its members, one
    stalk per vertex and divisor d > 1 plus the dual, either way.
    Returns (verdict, tested-object count, witness)."""
    modulus = ses.f.source.modulus
    qop = opposite(ses.f.source.quiver)
    tests = []
    if not has_directed_cycle(qop):
        for v in qop.vertices:
            tests.append(({"kind": "test-object", "shape": "projective", "vertex": v}, projective_generator(qop, modulus, v)))
    rng = random.Random(seed)
    for t in range(budget):
        tests.append(({"kind": "test-object", "shape": "random", "index": t}, _random_test_rep(qop, modulus, rng)))
    witness = _cheap_definitional_witness(ses) or next((desc for desc, s in tests if not _tensor_left_exact(s, ses)), None)
    cheap = len(qop.vertices) * (len(modulus.divisors) - 1) + 1
    return witness is None, cheap + len(tests), witness


def is_pure_mono_rep(f: RepMorphism) -> Tuple[bool, Optional[RepMorphism]]:
    """f mono is pure iff its dual is a split epi; returns the natural
    section of the dual as certificate."""
    if not f.is_monomorphism:
        raise ValueError("map is not a monomorphism")
    fd = dual_rep_morphism(f)
    sec = rep_section(fd)
    return sec is not None, sec
