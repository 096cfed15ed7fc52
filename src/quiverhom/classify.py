"""Decision procedures for the representation classes: injective, projective,
flat, fp-injective, strongly fp-injective, Gorenstein strongly fp-injective
and Ding injective, all but flat and fp-injective with an independent
oracle, plus Ext-orthogonality sampling for the lifted cotorsion pairs.
Projective and flat are read as injective and fp-injective on the Matlis
dual.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .quiver import Quiver, VertexId, is_right_rooted
from .homology import (
    ExtComputation,
    canonical_injective_embedding,
    ext,
    totally_acyclic_injective_complex,
)
from .purity import is_pure_rep_ses
from .rep import (
    RepSES,
    Representation,
    cokernel_rep,
    dual_rep,
    ker_psi,
    psi,
    rep_digest,
    stalk,
)
from .znmod import (
    FinMod,
    Modulus,
    cyclic,
    is_epi,
    is_gi_certified,
    is_injective_module,
    splits,
)


@dataclass(frozen=True)
class ClassVerdict:
    class_name: str
    verdict: bool
    evidence: Dict[VertexId, dict]
    mode: str  # "full" when the characterization is two-sided, else "necessity-only"
    oracle: Optional[bool] = None


def simple_stalks(q: Quiver, modulus: Modulus) -> List[Representation]:
    """The simple representations: a residue field stalk at each vertex."""
    return [stalk(q, modulus, v, cyclic(modulus, p)) for v in q.vertices for p in modulus.prime_factors]


def _ext1_is_zero(x: Representation, y: Representation) -> bool:
    """Ext^1(X, Y) = 0, decided from its order alone."""
    return ExtComputation(x, y).order(1) == 1


def _ext1_vanishes_against_simples(x: Representation) -> bool:
    """Ext^1(S, X) = 0 for every simple S, by orders."""
    return all(_ext1_is_zero(s, x) for s in simple_stalks(x.quiver, x.modulus))


class _Vertexwise(NamedTuple):
    """One vertexwise characterization: psi split epi at every vertex (full
    on right rooted quivers), with components in the one module class that
    Z/n's injective, fp-injective and strongly fp-injective modules form.
    Over finite modules, split is pure."""

    map_key: str
    component_key: str
    oracle: Optional[Callable[[Representation], bool]] = None


_VERTEXWISE = {
    # oracle: Ext^1 against the simple stalks vanishes, which suffices over
    # the artinian path ring by induction along composition series
    "injective": _Vertexwise("psi_split_epi", "component_injective", _ext1_vanishes_against_simples),
    "fp-injective": _Vertexwise("psi_pure_epi", "component_fp_injective"),
    # two-sided over locally target-finite right rooted quivers, which every
    # finite quiver is; oracle: the definitional coresolution check
    "strongly-fp-injective": _Vertexwise(
        "psi_pure_epi", "component_strongly_fp_injective", lambda x: definitional_sfp_check(x)[0]
    ),
}


def _classify_vertexwise(name: str, x: Representation, with_oracle: bool) -> ClassVerdict:
    row = _VERTEXWISE[name]
    evidence = {}
    verdict = True
    for v in x.quiver.vertices:
        split = splits(psi(x, v))
        comp = is_injective_module(x.vertex_modules[v])
        evidence[v] = {row.map_key: split, row.component_key: comp}
        verdict = verdict and split and comp
    rooted = is_right_rooted(x.quiver)
    oracle = None
    if with_oracle and row.oracle is not None and rooted:
        oracle = row.oracle(x)
    return ClassVerdict(name, verdict, evidence, "full" if rooted else "necessity-only", oracle)


def classify_injective(x: Representation, with_oracle: bool = False) -> ClassVerdict:
    return _classify_vertexwise("injective", x, with_oracle)


def classify_projective(x: Representation, with_oracle: bool = False) -> ClassVerdict:
    """X is projective iff its Matlis dual DX is injective over the opposite
    quiver: D turns phi(X, v) into psi(DX, v) and a split mono into a split
    epi, Q is left rooted iff its opposite is right rooted, and D swaps
    Ext^1(X, S) and Ext^1(DS, DX) with DS simple.  The evidence carries the
    keys of DX's injective row; no output prints it."""
    return replace(classify_injective(dual_rep(x), with_oracle), class_name="projective")


def classify_flat(x: Representation, with_oracle: bool = False) -> ClassVerdict:
    """X is flat iff DX is fp-injective, as for `classify_projective`."""
    return replace(classify_fp_injective(dual_rep(x), with_oracle), class_name="flat")


def classify_fp_injective(x: Representation, with_oracle: bool = False) -> ClassVerdict:
    return _classify_vertexwise("fp-injective", x, with_oracle)


def classify_strongly_fp_injective(x: Representation, with_oracle: bool = False) -> ClassVerdict:
    return _classify_vertexwise("strongly-fp-injective", x, with_oracle)


def definitional_sfp_check(x: Representation) -> Tuple[bool, dict]:
    """Build the canonical injective coresolution step by step and test each
    step for purity; an impure step is definitive for False, a vanishing
    syzygy for True.

    Over an acyclic quiver the coresolution ends within one step per vertex.
    Finite representations over Z/n are pure-injective, so a pure first step
    splits and x is injective.  The support of an injective is closed under
    predecessors, each later step is onto at the sinks of that support, and
    the next syzygy is injective on the support minus those sinks.  So the
    syzygy vanishes by the degree of the longest path and never repeats; a
    nonzero syzygy after one pure step per vertex (one more for the quiver
    with no vertices) means that argument is broken, not that x is
    undecided.  On a cyclic quiver the first embedding raises ValueError."""
    info: Dict = {"steps": []}
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


def classify_gorenstein_sfp(x: Representation, with_oracle: bool = False, oracle_full: bool = False) -> ClassVerdict:
    """psi epi at every vertex with Gorenstein strongly fp-injective
    components and kernels, certificates attached; oracle: an explicit
    totally acyclic complex of injective representations."""
    evidence = {}
    verdict = True
    for v in x.quiver.vertices:
        h = psi(x, v)
        epi = is_epi(h)
        comp_cert = False
        ker_cert = False
        if epi:
            comp_cert = is_gi_certified(x.vertex_modules[v])
            ker_cert = is_gi_certified(ker_psi(x, v)[0])
        evidence[v] = {"psi_epi": epi, "component_gorenstein": comp_cert, "kernel_gorenstein": ker_cert}
        verdict = verdict and epi and comp_cert and ker_cert
    rooted = is_right_rooted(x.quiver)
    oracle = None
    if with_oracle and rooted:
        cert, _ = totally_acyclic_injective_complex(x, full=oracle_full)
        oracle = cert is not None
    return ClassVerdict("gorenstein-strongly-fp-injective", verdict, evidence, "full" if rooted else "necessity-only", oracle)


def classify_ding_injective(x: Representation, depth: int = 2) -> ClassVerdict:
    """Ding injectivity uses fp-injective test objects in the total
    acyclicity condition; over Z/n the fp-injective representations are the
    strongly fp-injective ones, so the same certificate decides, and the
    verdict must agree with the Gorenstein classifier."""
    cert, err = totally_acyclic_injective_complex(x, depth=depth)
    evidence = {"certificate": None if cert is None else "window verified", "error": err}
    return ClassVerdict("ding-injective", cert is not None, {"*": evidence}, "full" if is_right_rooted(x.quiver) else "necessity-only")


def membership_psi_class(x: Representation, predicate: Callable[[FinMod], bool]) -> bool:
    """psi epi at every vertex with values and kernels in the class."""
    for v in x.quiver.vertices:
        h = psi(x, v)
        if not is_epi(h):
            return False
        if not predicate(x.vertex_modules[v]):
            return False
        kerm, _ = ker_psi(x, v)
        if not predicate(kerm):
            return False
    return True


def ext_orthogonality_sample(
    left_sampler: Callable[[random.Random], Tuple[Representation, dict]],
    right_sampler: Callable[[random.Random], Tuple[Representation, dict]],
    trials: int,
    seed: int,
) -> dict:
    """Sample pairs (K, J) from the two classes and verify Ext^1(K, J) = 0;
    the per-sample certificates are replayed before the orthogonality test."""
    rng = random.Random(seed)
    failures = []
    checked = 0
    for t in range(trials):
        k_rep, k_cert = left_sampler(rng)
        j_rep, j_cert = right_sampler(rng)
        if not k_cert.get("valid", True) or not j_cert.get("valid", True):
            failures.append({"trial": t, "reason": "sampler certificate invalid"})
            continue
        val = ext(k_rep, j_rep, 1)
        checked += 1
        if not val.is_zero:
            failures.append({
                "trial": t,
                "reason": "nonzero ext",
                "ext": str(val),
                "left": rep_digest(k_rep),
                "right": rep_digest(j_rep),
            })
    return {"trials": trials, "checked": checked, "failures": failures, "all_orthogonal": not failures}


def find_orthogonality_violation(j: Representation, candidates: List[Representation]) -> Optional[Representation]:
    """A test object with nonzero Ext^1 against j, if one exists among the
    candidates; used as the negative control for the orthogonality suites."""
    for k in candidates:
        if not _ext1_is_zero(k, j):
            return k
    return None
