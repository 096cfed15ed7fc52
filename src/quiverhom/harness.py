"""Seeded random instance generation and the theorem-verification suites.

Each suite replays one cluster of statements at desk scale: rootedness of
random quivers, the purity bridge, the classification theorems, the
Gorenstein characterization, closure and stability properties, right-adjoint
preservation, product closure, the non-pure fixture, the totally-acyclic
collapse, cotorsion-pair orthogonality sampling, the restriction and
tensor-hom adjunctions, and the Ext engine against its enumeration oracle.

Each suite is a trial body ``_<name>(config, rng, t)`` that returns its
verdicts plus ``_instance`` and ``_ok``.  ``SUITES`` maps every suite name to
the report groups it emits, each a (report suite name, body, fixed trial
count or None) triple, and ``run_suite`` runs each group through
``_run_trials``.

A trial reports a theorem violation only through ``_ok``.  No check raises
on purpose, so a trial body that raises (a generator's
``RejectionBudgetExceeded``, a failed internal ``assert``, an overflow) is a
harness error: its report carries the exception text and
``harness_error``, and ``verify`` exits 2 rather than 1 for it.

Every trial derives its own seed from (master seed, report suite name, trial
index), so single trials replay independently, and reports are
byte-identical for a fixed configuration.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .quiver import (
    Quiver,
    VertexId,
    a2,
    has_directed_cycle,
    is_right_rooted,
    loop_quiver,
    make_quiver,
    opposite,
    root_sequence,
)
from .rep import (
    HomGroupRep,
    RepSES,
    Representation,
    adjunction_check,
    cokernel_rep,
    coinduced,
    copresentation_embedding,
    direct_sum_reps,
    dual_rep_ses,
    hom_reps,
    kernel_rep,
    psi,
    rep_digest,
    restrict,
    restriction_adjunction_check,
    right_adjoint,
    stalk,
    subrep_generated,
    zero_rep,
)
from .purity import (
    definitional_purity_check,
    is_pure_mono_rep,
    is_pure_rep_ses,
    rep_retraction,
)
from .homology import (
    ExtComputation,
    ext,
    ext1_extension_count,
    ext_induced_second,
    projective_cover_onto,
    totally_acyclic_injective_complex,
)
from .classify import (
    classify_ding_injective,
    classify_fp_injective,
    classify_gorenstein_sfp,
    classify_injective,
    classify_strongly_fp_injective,
    ext_orthogonality_sample,
    find_orthogonality_violation,
    membership_psi_class,
    simple_stalks,
)
from .znmod import (
    MAX_MODULUS,
    FinMod,
    ModComplex,
    Modulus,
    canonical_chain,
    cyclic,
    ext_module,
    gi_module_certificate,
    identity_hom,
    image_order,
    is_epi,
    is_gi_certified,
    is_injective_module,
    is_mono,
    kernel_order,
    random_hom,
    splits,
    verify_gi_certificate,
    zero_hom,
)


class UsageError(ValueError):
    """A configuration or command line the harness will not run."""


@dataclass(frozen=True)
class Config:
    moduli: Tuple[int, ...] = (2, 3, 4, 8, 9)
    max_arrows: int = 8
    max_module_cardinality: int = 4096
    trials: int = 200
    master_seed: int = 0
    suites: Tuple[str, ...] = ()  # empty means all

    def __post_init__(self):
        if (
            not isinstance(self.moduli, (list, tuple))
            or not self.moduli
            or not all(isinstance(m, int) and 2 <= m <= MAX_MODULUS for m in self.moduli)
        ):
            raise UsageError(
                f"moduli must be a nonempty list of integers from 2 to MAX_MODULUS = 2**21 = {MAX_MODULUS}, got {self.moduli!r}"
            )
        if self.max_arrows < 0 or self.max_module_cardinality < 2:
            raise UsageError("caps must be positive")
        if self.trials < 1:
            raise UsageError("trials must be positive")
        if not isinstance(self.suites, (list, tuple)) or not all(isinstance(s, str) and s in SUITES for s in self.suites):
            raise UsageError(f"suites must be a list of names from {', '.join(SUITES)}, got {self.suites!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "Config":
        if not isinstance(d, dict):
            raise UsageError(f"a config must be a JSON object, got {type(d).__name__}")
        names = [f.name for f in fields(cls)]
        unknown = sorted(set(d) - set(names))
        if unknown:
            raise UsageError(f"unknown config keys {unknown}; known: {', '.join(names)}")
        values = {name: d.get(name, getattr(cls, name)) for name in names}
        for name, value in values.items():
            if name in ("moduli", "suites"):
                values[name] = tuple(value) if isinstance(value, list) else value
            elif type(value) is not int:
                raise UsageError(f"{name} must be an integer, got {value!r}")
        return cls(**values)


@dataclass
class TrialReport:
    suite: str
    trial: int
    seed: int
    instance: str
    verdicts: Dict[str, object]
    ok: bool
    ms: int = 0  # deterministic placeholder: wall time would break replayability
    harness_error: bool = False  # the trial body raised; not in the JSON line

    def to_json(self) -> str:
        return json.dumps(
            {
                "suite": self.suite,
                "trial": self.trial,
                "seed": self.seed,
                "instance": self.instance,
                "verdicts": self.verdicts,
                "pass": self.ok,
                "ms": self.ms,
            },
            sort_keys=True,
            separators=(",", ":"),
        )


def derive_seed(master: int, suite: str, trial: int) -> int:
    digest = hashlib.sha256(f"{master}:{suite}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RejectionBudgetExceeded(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def random_quiver(
    rng: random.Random,
    config: Config,
    right_rooted: Optional[bool] = None,
    acyclic: Optional[bool] = None,
    *,
    max_vertices: int,
    max_arrows: Optional[int] = None,
) -> Quiver:
    ma = max_arrows if max_arrows is not None else config.max_arrows
    for _ in range(400):
        nv = rng.randint(1, max_vertices)
        vertices = list(range(1, nv + 1))
        arrows = []
        for k in range(rng.randint(0, ma)):
            s = rng.choice(vertices)
            t = rng.choice(vertices)
            arrows.append((f"a{k}", s, t))
        q = make_quiver(vertices, arrows)
        if right_rooted is not None and is_right_rooted(q) != right_rooted:
            continue
        if acyclic is not None and has_directed_cycle(q) == acyclic:
            continue
        return q
    raise RejectionBudgetExceeded("could not generate a quiver under the constraints")


def random_finmod(rng: random.Random, modulus: Modulus, config: Config, max_rank: int = 2) -> FinMod:
    divisors = [d for d in modulus.divisors if d > 1]
    orders: List[int] = []
    card = 1
    for _ in range(rng.randint(0, max_rank)):
        d = rng.choice(divisors)
        if card * d > config.max_module_cardinality:
            break
        orders.append(d)
        card *= d
    return FinMod(modulus, canonical_chain(orders, modulus.n))


def random_injective_finmod(rng: random.Random, modulus: Modulus, config: Config, max_rank: int = 2) -> FinMod:
    # injective cyclics over Z/n carry the full p-power for every prime they touch
    full = []
    primes = list(modulus.prime_factors)
    for mask in range(1, 2 ** len(primes)):
        d = 1
        for i, p in enumerate(primes):
            if mask & (1 << i):
                d *= p ** modulus.prime_factors[p]
        full.append(d)
    orders = [rng.choice(full) for _ in range(rng.randint(0, max_rank))]
    return FinMod(modulus, canonical_chain(orders, modulus.n))


def random_representation(
    rng: random.Random, q: Quiver, modulus: Modulus, config: Config, max_rank: int = 2
) -> Representation:
    mods = {v: random_finmod(rng, modulus, config, max_rank) for v in q.vertices}
    maps = {a.id: random_hom(rng, mods[a.src], mods[a.tgt]) for a in q.arrows}
    return Representation(q, modulus, mods, maps)


def random_rep_ses(rng: random.Random, x: Representation) -> RepSES:
    """A short exact sequence ending in a quotient of x: take the
    subrepresentation generated by random seed elements and quotient by it."""
    seeds: Dict[VertexId, List[np.ndarray]] = {}
    for v in x.quiver.vertices:
        m = x.vertex_modules[v]
        picks = []
        for _ in range(rng.randint(0, 2)):
            if m.rank:
                picks.append(np.array([rng.randrange(d) for d in m.factors], dtype=np.int64))
        seeds[v] = picks
    sub, incl = subrep_generated(x, seeds)
    _, proj = cokernel_rep(incl)
    return RepSES(incl, proj)


def _coinduced_product(rng: random.Random, q: Quiver, modulus: Modulus, config: Config, sample: Callable[..., FinMod]) -> Representation:
    """The product over the vertices v of e^v(m), m drawn by
    sample(rng, modulus, config, max_rank=1) in vertex order and skipped
    when zero; the zero representation when every draw is zero."""
    pieces = []
    for v in q.vertices:
        m = sample(rng, modulus, config, max_rank=1)
        if not m.is_zero:
            pieces.append(coinduced(q, modulus, v, m).rep)
    if not pieces:
        return zero_rep(q, modulus)
    return direct_sum_reps(pieces)[0]


def random_injective_rep(rng: random.Random, q: Quiver, modulus: Modulus, config: Config) -> Representation:
    """A product of e^v of injective modules: injective over a right rooted
    quiver, with the zero representation as the empty case."""
    return _coinduced_product(rng, q, modulus, config, random_injective_finmod)


def random_gorenstein_rep(rng: random.Random, q: Quiver, modulus: Modulus, config: Config) -> Representation:
    """A product of e^v of arbitrary modules: the canonical maps are split
    epis by construction, so the result is Gorenstein strongly fp-injective
    over Z/n without usually being injective."""
    return _coinduced_product(rng, q, modulus, config, random_finmod)


# the moduli n of the fixture trials, with I = Z/n
NONPURE_FIXTURE_MODULI = (4, 2, 9)


def nonpure_fixture_ses(modulus: Modulus) -> RepSES:
    """The two-vertex fixture 0 -> s_2(I) -> e^2(I) -> e^1(I) -> 0 with
    I = Z/n: exact, vertexwise split, and not pure."""
    q = a2()
    x = stalk(q, modulus, 2, cyclic(modulus, modulus.n))
    embeds = {v: identity_hom(x.vertex_modules[v]) for v in q.vertices}
    _, f = copresentation_embedding(x, embeds)
    _, proj = cokernel_rep(f)
    return RepSES(f, proj)


def is_vertexwise_split(ses: RepSES) -> bool:
    """Whether the module sequence at every vertex of `ses` splits."""
    return all(splits(ses.vertex_ses(v).f, epi=False) for v in ses.x.quiver.vertices)


# ---------------------------------------------------------------------------
# suite infrastructure
# ---------------------------------------------------------------------------


def _run_trials(suite: str, config: Config, trials: int, body: Callable[[random.Random, int], Dict[str, object]]) -> List[TrialReport]:
    reports = []
    for t in range(trials):
        seed = derive_seed(config.master_seed, suite, t)
        rng = random.Random(seed)
        try:
            verdicts = body(rng, t)
            ok = bool(verdicts.pop("_ok", True))
            instance = str(verdicts.pop("_instance", ""))
            error = False
        except Exception as exc:  # a harness error, not a crashed run
            verdicts, ok, instance, error = {"error": f"{type(exc).__name__}: {exc}"}, False, "", True
        reports.append(TrialReport(suite, t, seed, instance, verdicts, ok, harness_error=error))
    return reports


def _pick_modulus(rng: random.Random, config: Config) -> Modulus:
    return Modulus(rng.choice(list(config.moduli)))


def _modulus_and_small_quiver(rng: random.Random, config: Config) -> Tuple[Modulus, Quiver]:
    """A configured modulus and a right rooted quiver of at most 3 vertices
    and 3 arrows, drawn in that order."""
    return _pick_modulus(rng, config), random_quiver(rng, config, right_rooted=True, max_vertices=3, max_arrows=3)


def _rootedness(config: Config, rng: random.Random, t: int) -> Dict[str, object]:
    """Rootedness fixpoint vs independent cycle detection, stage bounds, and
    the loop-quiver fixture."""
    if t == 0:
        lq = loop_quiver()
        rooted = is_right_rooted(lq)
        return {"_instance": "loop-fixture", "loop_not_right_rooted": not rooted, "_ok": not rooted}
    q = random_quiver(rng, config, max_vertices=8)
    rooted = is_right_rooted(q)
    acyclic = not has_directed_cycle(q)
    rs = root_sequence(q)
    ascending = all(a <= b for a, b in zip(rs.stages, rs.stages[1:]))
    bounded = rs.fixpoint_index <= len(q.vertices)
    no_escape = True
    for k in range(1, len(rs.stages)):
        for a in q.arrows:
            if a.src in rs.stages[k] and a.tgt not in rs.stages[k - 1]:
                no_escape = False
    ok = (rooted == acyclic) and ascending and bounded and no_escape
    return {
        "_instance": f"quiver-{len(q.vertices)}v-{len(q.arrows)}a",
        "rooted_equals_acyclic": rooted == acyclic,
        "ascending": ascending,
        "fixpoint_bounded": bounded,
        "no_arrow_escapes_stage": no_escape,
        "_ok": ok,
    }


def _purity_bridge(config: Config, rng: random.Random, t: int) -> Dict[str, object]:
    """Purity by a retraction of f vs the cheap definitional tensor check vs
    splitness of the dual sequence, plus the non-pure fixture."""
    if t < len(NONPURE_FIXTURE_MODULI):
        modulus = Modulus(NONPURE_FIXTURE_MODULI[t])
        ses = nonpure_fixture_ses(modulus)
        verdict = is_pure_rep_ses(ses)
        defin, _, _ = definitional_purity_check(ses)
        vertex_split = is_vertexwise_split(ses)
        ok = (not verdict.pure) and (not defin) and vertex_split and verdict.replay(ses)
        return {
            "_instance": f"nonpure-fixture-Z{modulus.n}",
            "exact": True,
            "vertexwise_split": vertex_split,
            "pure": verdict.pure,
            "definitional": defin,
            "_ok": ok,
        }
    modulus = _pick_modulus(rng, config)
    q = random_quiver(rng, config, right_rooted=True, max_vertices=4, max_arrows=4)
    x = random_representation(rng, q, modulus, config)
    ses = random_rep_ses(rng, x)
    verdict = is_pure_rep_ses(ses)
    defin, _, _ = definitional_purity_check(ses)
    dual_split = rep_retraction(dual_rep_ses(ses).f) is not None
    ok = verdict.pure == defin == dual_split and verdict.replay(ses)
    return {
        "_instance": rep_digest(x),
        "pure": verdict.pure,
        "definitional": defin,
        "dual_split": dual_split,
        "_ok": ok,
    }


def _classification(config: Config, rng: random.Random, t: int) -> Dict[str, object]:
    """Injective classification vs the simple-object Ext oracle; strongly
    fp-injective vs the definitional coresolution; the noetherian collapse."""
    modulus, q = _modulus_and_small_quiver(rng, config)
    if rng.random() < 0.3:
        x = random_injective_rep(rng, q, modulus, config)
    else:
        x = random_representation(rng, q, modulus, config)
    inj = classify_injective(x, with_oracle=True)
    sfp = classify_strongly_fp_injective(x, with_oracle=True)
    fp = classify_fp_injective(x)
    ok = (
        inj.oracle == inj.verdict
        and sfp.oracle == sfp.verdict
        and inj.verdict == sfp.verdict == fp.verdict
    )
    return {
        "_instance": rep_digest(x),
        "injective": inj.verdict,
        "injective_oracle": inj.oracle,
        "sfp": sfp.verdict,
        "sfp_definitional": sfp.oracle,
        "fp": fp.verdict,
        "_ok": ok,
    }


def _gorenstein(config: Config, rng: random.Random, t: int) -> Dict[str, object]:
    """The Gorenstein characterization: classifier vs psi-class membership vs
    existence of a totally acyclic complex; over Z/n the verdict also equals
    surjectivity of every canonical map."""
    modulus = Modulus(rng.choice([4, 9]))
    q = random_quiver(rng, config, right_rooted=True, max_vertices=3, max_arrows=3)
    if t == 0:
        q = a2()
        modulus = Modulus(4)
        m2 = cyclic(modulus, 2)
        x = Representation(q, modulus, {1: m2, 2: m2}, {"a": identity_hom(m2)})
    elif rng.random() < 0.45:
        x = random_gorenstein_rep(rng, q, modulus, config)
    else:
        x = random_representation(rng, q, modulus, config)
    full = t % 10 == 0
    cv = classify_gorenstein_sfp(x, with_oracle=True, oracle_full=full)
    psi_member = membership_psi_class(x, is_gi_certified)
    psi_epi = all(is_epi(psi(x, v)) for v in q.vertices)
    ok = cv.verdict == cv.oracle == psi_member == psi_epi
    if t == 0:
        ok = ok and cv.verdict and not classify_injective(x).verdict
    return {
        "_instance": rep_digest(x),
        "gorenstein": cv.verdict,
        "totally_acyclic_found": cv.oracle,
        "psi_class_membership": psi_member,
        "psi_all_epi": psi_epi,
        "full_hom_verification": full,
        "_ok": ok,
    }


def _twisted_sum_ses(rng: random.Random, j1: Representation, j2: Representation) -> RepSES:
    """0 -> j1 -> j1 + j2 -> j2 -> 0 with the embedding twisted by a random
    hom j1 -> j2, so the inclusion is not coordinate-aligned."""
    total, injs, projs = direct_sum_reps([j1, j2])
    homs = HomGroupRep(j1, j2)
    if homs.group.rank:
        coords = np.array([rng.randrange(d) for d in homs.group.factors], dtype=np.int64)
        theta = homs.from_coords(coords)
    else:
        theta = None
    if theta is None:
        return RepSES(injs[0], projs[1])
    f = injs[0] + injs[1].compose(theta)
    g = projs[1] - theta.compose(projs[0])
    return RepSES(f, g)


def _closure(config: Config, rng: random.Random, t: int) -> Dict[str, object]:
    """Closure of the strongly fp-injective class under extensions, finite
    sums, summands, cokernels of monos, and pure-kernel extraction."""
    modulus, q = _modulus_and_small_quiver(rng, config)
    j1 = random_injective_rep(rng, q, modulus, config)
    j2 = random_injective_rep(rng, q, modulus, config)
    ses = _twisted_sum_ses(rng, j1, j2)
    verdicts = {}
    # extension of two strongly fp-injectives
    verdicts["extension"] = classify_strongly_fp_injective(ses.y).verdict
    # direct sum and summands
    total = ses.y
    if classify_strongly_fp_injective(total).verdict:
        verdicts["summands"] = (
            classify_strongly_fp_injective(j1).verdict and classify_strongly_fp_injective(j2).verdict
        )
    else:
        verdicts["summands"] = False
    # cokernel of the twisted mono between strongly fp-injectives
    coker, _ = cokernel_rep(ses.f)
    verdicts["cokernel_of_mono"] = classify_strongly_fp_injective(coker).verdict
    # pure sequence with middle and right strongly fp-injective: the
    # kernel is as well
    purity = is_pure_rep_ses(ses)
    verdicts["pure_kernel"] = purity.pure and classify_strongly_fp_injective(ses.x).verdict
    ok = all(verdicts.values())
    verdicts["_ok"] = ok
    verdicts["_instance"] = rep_digest(total)
    return verdicts


def _closure_negative_control(config: Config, rng: random.Random, t: int) -> Dict[str, object]:
    """Feed a non strongly fp-injective input through the extension check;
    the violation must be detected."""
    modulus = Modulus(4)
    bad = stalk(a2(), modulus, 2, cyclic(modulus, 4))
    detected = not classify_strongly_fp_injective(bad).verdict
    return {"_instance": rep_digest(bad), "corrupt_input_detected": detected, "_ok": detected}


def _stability(config: Config, rng: random.Random, t: int) -> Dict[str, object]:
    """Pure coresolutions by strongly fp-injective objects certify the class
    both ways; the fp-injective substitution has no finite witness and is
    logged as skipped."""
    if t == 0:
        return {
            "_instance": "fp-injective-substitution",
            "skipped": "no finite witness",
            "_ok": True,
        }
    modulus, q = _modulus_and_small_quiver(rng, config)
    if rng.random() < 0.6:
        x = random_injective_rep(rng, q, modulus, config)
    else:
        x = random_representation(rng, q, modulus, config)
    is_sfp = classify_strongly_fp_injective(x).verdict
    j = random_injective_rep(rng, q, modulus, config)
    total, injs, projs = direct_sum_reps([x, j])
    # pure (split) embedding x -> x + j with strongly fp-injective steps
    step0 = RepSES(injs[0], projs[1])
    step_pure = is_pure_rep_ses(step0).pure
    t0_sfp = classify_strongly_fp_injective(total).verdict
    if is_sfp:
        # forward: a pure coresolution by sfp objects exists and certifies x
        ok = step_pure and t0_sfp and classify_strongly_fp_injective(projs[1].target).verdict
    else:
        # converse: no pure embedding into a strongly fp-injective target
        # exists among the searched candidates
        candidates = [random_injective_rep(rng, q, modulus, config) for _ in range(2)]
        found = False
        for cand in candidates:
            homs = HomGroupRep(x, cand)
            if homs.cardinality > 512:
                continue
            for h in homs.elements():
                if h.is_monomorphism and is_pure_mono_rep(h) is not None:
                    found = True
                    break
            if found:
                break
        ok = not found
    return {
        "_instance": rep_digest(x),
        "x_sfp": is_sfp,
        "step_pure": step_pure,
        "_ok": ok,
    }


def _products(config: Config, rng: random.Random, t: int) -> Dict[str, object]:
    """Finite products of strongly fp-injective (respectively Gorenstein)
    representations stay in the class; the empty product is the zero
    representation."""
    modulus, q = _modulus_and_small_quiver(rng, config)
    if t == 0:
        z = zero_rep(q, modulus)
        ok = classify_strongly_fp_injective(z).verdict and classify_gorenstein_sfp(z).verdict
        return {"_instance": "zero-rep", "empty_product_in_class": ok, "_ok": ok}
    j1 = random_injective_rep(rng, q, modulus, config)
    j2 = random_injective_rep(rng, q, modulus, config)
    prod = direct_sum_reps([j1, j2])[0]
    sfp_closed = classify_strongly_fp_injective(prod).verdict
    g1 = random_gorenstein_rep(rng, q, modulus, config)
    g2 = random_gorenstein_rep(rng, q, modulus, config)
    gprod = direct_sum_reps([g1, g2])[0]
    g_closed = classify_gorenstein_sfp(gprod).verdict
    ok = sfp_closed and g_closed
    return {
        "_instance": rep_digest(prod),
        "sfp_product_closed": sfp_closed,
        "gorenstein_product_closed": g_closed,
        "_ok": ok,
    }


def _random_subquiver(rng: random.Random, q: Quiver) -> Quiver:
    verts = [v for v in q.vertices if rng.random() < 0.7]
    if not verts:
        verts = [rng.choice(q.vertices)]
    arrows = [a for a in q.arrows if a.src in verts and a.tgt in verts and rng.random() < 0.7]
    return Quiver(tuple(verts), tuple(arrows))


def _right_adjoint(config: Config, rng: random.Random, t: int) -> Dict[str, object]:
    """The right adjoint of restriction preserves strong fp-injectivity."""
    modulus, q = _modulus_and_small_quiver(rng, config)
    if t == 0:
        v = rng.choice(q.vertices)
        m = random_injective_finmod(rng, modulus, config)
        e = coinduced(q, modulus, v, m).rep
        ok = classify_strongly_fp_injective(e).verdict
        return {"_instance": f"single-vertex-{v}", "e_v_of_injective_sfp": ok, "_ok": ok}
    if t == 1:
        x = random_representation(rng, q, modulus, config)
        full = right_adjoint(q, q, x)
        ok = restrict(q, full) == x
        return {"_instance": rep_digest(x), "full_subquiver_consistency": ok, "_ok": ok}
    if t == 2:
        z = zero_rep(q, modulus)
        qsub = _random_subquiver(rng, q)
        e = right_adjoint(q, qsub, restrict(qsub, z))
        ok = e.is_zero
        return {"_instance": "zero-rep", "zero_preserved": ok, "_ok": ok}
    qsub = _random_subquiver(rng, q)
    x = random_injective_rep(rng, qsub, modulus, config)
    assert classify_strongly_fp_injective(x).verdict
    e = right_adjoint(q, qsub, x)
    ok = classify_strongly_fp_injective(e).verdict
    return {"_instance": rep_digest(e), "right_adjoint_preserves_sfp": ok, "_ok": ok}


def _nonpure_fixture(config: Config, rng: random.Random, t: int) -> Dict[str, object]:
    """The fixture sequence for I = Z/4, Z/2, Z/9: exact, vertexwise split,
    not pure, with the dual sequence of the displayed non-split shape."""
    n = NONPURE_FIXTURE_MODULI[t]
    ses = nonpure_fixture_ses(Modulus(n))
    vertex_split = is_vertexwise_split(ses)
    verdict = is_pure_rep_ses(ses)
    dual = dual_rep_ses(ses)
    zplus = dual.f.source
    shape_ok = (
        zplus.vertex_modules[1].factors == (n,)
        and zplus.vertex_modules[2].is_zero
        and dual.f.target.vertex_modules[1].factors == (n,)
        and dual.f.target.vertex_modules[2].factors == (n,)
    )
    dual_not_split = rep_retraction(dual.f) is None
    return {
        "_instance": f"xi-Z{n}",
        "exact": True,
        "vertexwise_split": vertex_split,
        "pure": verdict.pure,
        "dual_shape_matches": shape_ok,
        "dual_not_split": dual_not_split,
        "_ok": vertex_split and not verdict.pure and shape_ok and dual_not_split,
    }


def _totally_acyclic(config: Config, rng: random.Random, t: int) -> Dict[str, object]:
    """A strongly fp-injective representation with a pure acyclic left
    injective resolution is injective: around injective objects the left
    steps are pure; around Gorenstein-not-injective ones left purity fails."""
    modulus, q = _modulus_and_small_quiver(rng, config)
    if t == 0:
        z = zero_rep(q, modulus)
        cert, err = totally_acyclic_injective_complex(z, depth=1)
        ok = cert is not None
        return {"_instance": "zero-rep", "zero_certificate": ok, "_ok": ok}
    if rng.random() < 0.5:
        x = random_injective_rep(rng, q, modulus, config)
        if not classify_injective(x).verdict:
            return {"_instance": rep_digest(x), "generator_failed": True, "_ok": False}
        cert, err = totally_acyclic_injective_complex(x, depth=1)
        if cert is None:
            return {"_instance": rep_digest(x), "certificate": False, "_ok": False}
        left_pure = all(is_pure_rep_ses(s).pure for s in cert.left_steps)
        ok = left_pure and classify_injective(x).verdict
        return {"_instance": rep_digest(x), "left_steps_pure": left_pure, "injective": True, "_ok": ok}
    x = random_gorenstein_rep(rng, q, modulus, config)
    if classify_injective(x).verdict:
        return {"_instance": rep_digest(x), "skipped": "instance is injective", "_ok": True}
    cert, err = totally_acyclic_injective_complex(x, depth=1)
    if cert is None:
        return {"_instance": rep_digest(x), "certificate": False, "_ok": False}
    left_pure = all(is_pure_rep_ses(s).pure for s in cert.left_steps)
    ok = not left_pure
    return {
        "_instance": rep_digest(x),
        "left_purity_fails_for_noninjective": not left_pure,
        "_ok": ok,
    }


def _collapse(config: Config, rng: random.Random, t: int) -> Dict[str, object]:
    """The noetherian collapse: fp-injective = strongly fp-injective =
    injective, and Ding injective = Gorenstein strongly fp-injective."""
    modulus, q = _modulus_and_small_quiver(rng, config)
    if t == 0:
        # negative control: a corrupted Gorenstein certificate is flagged.  With
        # d_1 zero, d o d = 0 still holds, so the complex is built and only
        # the replay can catch the lost exactness
        m = cyclic(Modulus(4), 2)
        cx, wit = gi_module_certificate(m)
        tampered = ModComplex(cx.components, {**cx.diffs, 1: zero_hom(cx.components[1], cx.components[0])})
        detected = not verify_gi_certificate(m, tampered, wit)
        return {"_instance": "corrupted-certificate", "corruption_detected": detected, "_ok": detected}
    x = (
        random_injective_rep(rng, q, modulus, config)
        if rng.random() < 0.3
        else random_representation(rng, q, modulus, config)
    )
    inj = classify_injective(x).verdict
    fp = classify_fp_injective(x).verdict
    sfp = classify_strongly_fp_injective(x).verdict
    ding = classify_ding_injective(x, depth=1).verdict
    gor = classify_gorenstein_sfp(x).verdict
    ok = (inj == fp == sfp) and (ding == gor)
    return {
        "_instance": rep_digest(x),
        "injective": inj,
        "fp_injective": fp,
        "strongly_fp_injective": sfp,
        "ding": ding,
        "gorenstein": gor,
        "_ok": ok,
    }


def _adjunction(config: Config, rng: random.Random, t: int) -> Dict[str, object]:
    """The restriction adjunction and the tensor-hom adjunction."""
    modulus, q = _modulus_and_small_quiver(rng, config)
    x = random_representation(rng, q, modulus, config)
    qsub = _random_subquiver(rng, q)
    y = random_representation(rng, qsub, modulus, config)
    ok1, info1 = restriction_adjunction_check(q, qsub, x, y)
    yop = random_representation(rng, opposite(q), modulus, config)
    ok2, info2 = adjunction_check(yop, x, seed=rng.randrange(2**30))
    ok = ok1 and ok2
    return {
        "_instance": rep_digest(x),
        "restriction_adjunction": ok1,
        "tensor_hom_adjunction": ok2,
        "_ok": ok,
    }


def _les_consistency(t_obj: Representation, ses: RepSES) -> bool:
    """Spot-check exactness of the long Hom/Ext sequence through degree 2 by
    cardinalities: left exactness, the coboundary identity at Ext^1, and the
    telescoping alternating-product identity whose tail is the computable
    kernel at degree 3."""
    comps = {name: ExtComputation(t_obj, rep) for name, rep in (("x", ses.x), ("y", ses.y), ("z", ses.z))}
    hom_z = comps["z"].ext(0)
    f_hom = ext_induced_second(comps["x"], comps["y"], ses.f, 0)
    g_hom = ext_induced_second(comps["y"], comps["z"], ses.g, 0)
    # left exactness
    if not is_mono(f_hom):
        return False
    if image_order(f_hom) != kernel_order(g_hom):
        return False
    # |coker(Hom(T,Y) -> Hom(T,Z))| = |ker(Ext1(T,X) -> Ext1(T,Y))|
    coker_card = hom_z.cardinality // image_order(g_hom)
    f_ext1 = ext_induced_second(comps["x"], comps["y"], ses.f, 1)
    if coker_card != kernel_order(f_ext1):
        return False
    # 0 -> Hom(T,X) -> ... -> Ext^2(T,Z) -> K -> 0 with
    # K = ker(Ext^3(T,X) -> Ext^3(T,Y)): alternating product telescopes to 1
    sizes = [comps[name].ext(deg).cardinality for deg in (0, 1, 2) for name in ("x", "y", "z")]
    f_ext3 = ext_induced_second(comps["x"], comps["y"], ses.f, 3)
    even = 1
    odd = kernel_order(f_ext3)
    for idx, s in enumerate(sizes):
        if idx % 2 == 0:
            even *= s
        else:
            odd *= s
    return even == odd


def _ext_engine(config: Config, rng: random.Random, t: int) -> Dict[str, object]:
    """Ext vs the extension-enumeration oracle on small instances, Ext^0
    against Hom, dimension shifting, and long-exact-sequence consistency."""
    modulus = Modulus(2)
    q = a2()
    if t == 0:
        s1 = stalk(q, modulus, 1, cyclic(modulus, 2))
        s2 = stalk(q, modulus, 2, cyclic(modulus, 2))
        ok = (
            ext(s1, s2, 1).factors == (2,)
            and ext(s2, s1, 1).is_zero
            and ext1_extension_count(s1, s2) == 2
            and ext1_extension_count(s2, s1) == 1
        )
        return {"_instance": "a2-stalks", "named_values": ok, "_ok": ok}
    modulus = _pick_modulus(rng, config)
    q = random_quiver(rng, config, right_rooted=True, max_vertices=2, max_arrows=2)
    x = random_representation(rng, q, modulus, config, max_rank=1)
    y = random_representation(rng, q, modulus, config, max_rank=1)
    verdicts: Dict[str, object] = {"_instance": f"{rep_digest(x)}-{rep_digest(y)}"}
    comp = ExtComputation(x, y)
    hom = hom_reps(x, y)[0]
    verdicts["ext0_is_hom"] = comp.ext(0).factors == hom.factors
    ok = bool(verdicts["ext0_is_hom"])
    if x.total_cardinality * y.total_cardinality <= 256:
        cnt = ext1_extension_count(x, y, cap=2048)
        if cnt is not None:
            verdicts["oracle_agrees"] = cnt == comp.ext(1).cardinality
            ok = ok and bool(verdicts["oracle_agrees"])
    # dimension shifting through the kernel of one projective cover
    omega = kernel_rep(projective_cover_onto(x)[1])[0]
    verdicts["dimension_shift"] = comp.ext(2).factors == ext(omega, y, 1).factors
    ok = ok and bool(verdicts["dimension_shift"])
    # long exact sequence spot check on a subsample
    if t % 5 == 1:
        ses = random_rep_ses(rng, y)
        t_obj = stalk(q, modulus, rng.choice(q.vertices), cyclic(modulus, rng.choice([d for d in modulus.divisors if d > 1])))
        verdicts["les_consistent"] = _les_consistency(t_obj, ses)
        ok = ok and bool(verdicts["les_consistent"])
    verdicts["_ok"] = ok
    return verdicts


def _orthogonality(config: Config, rng: random.Random, t: int) -> Dict[str, object]:
    """Ext-orthogonality sampling for the two lifted cotorsion pairs, with a
    sensitivity control."""
    modulus, q = _modulus_and_small_quiver(rng, config)
    if t == 0:
        bad_j = stalk(a2(), Modulus(2), 2, cyclic(Modulus(2), 2))
        witness = find_orthogonality_violation(bad_j, simple_stalks(a2(), Modulus(2)))
        ok = witness is not None
        return {"_instance": "corrupted-J", "violation_found": ok, "_ok": ok}

    def left(r):
        k = random_representation(r, q, modulus, config)
        valid = all(
            ext_module(k.vertex_modules[v], m, 1).is_zero
            for v in q.vertices
            for m in [FinMod(modulus, (modulus.n,))]
        )
        return k, {"valid": valid}

    def right(r):
        j = random_injective_rep(r, q, modulus, config)
        return j, {"valid": classify_strongly_fp_injective(j).verdict}

    report = ext_orthogonality_sample(left, right, trials=3, seed=rng.randrange(2**30))
    # the wider pair: arbitrary psi-epi targets against projective-component sources
    def left_w(r):
        k = random_representation(r, q, modulus, config)
        mods = {v: random_injective_finmod(r, modulus, config) for v in q.vertices}
        maps = {a.id: random_hom(r, mods[a.src], mods[a.tgt]) for a in q.arrows}
        kk = Representation(q, modulus, mods, maps)
        valid = all(is_injective_module(kk.vertex_modules[v]) for v in q.vertices)
        return kk, {"valid": valid}

    def right_w(r):
        j = random_gorenstein_rep(r, q, modulus, config)
        return j, {"valid": classify_gorenstein_sfp(j).verdict}

    report2 = ext_orthogonality_sample(left_w, right_w, trials=2, seed=rng.randrange(2**30))
    ok = report["all_orthogonal"] and report2["all_orthogonal"]
    return {
        "_instance": f"orthogonality-{modulus.n}",
        "weak_fp_projective_vs_sfp": report["all_orthogonal"],
        "w_class_vs_gorenstein": report2["all_orthogonal"],
        "_ok": ok,
    }


TrialBody = Callable[[Config, random.Random, int], Dict[str, object]]

# suite name -> the report groups it emits, in order: (report suite name,
# trial body, fixed trial count or None for the requested count)
SUITES: Dict[str, Tuple[Tuple[str, TrialBody, Optional[int]], ...]] = {
    "rootedness": (("rootedness", _rootedness, None),),
    "purity_bridge": (("purity_bridge", _purity_bridge, None),),
    "classification": (("classification", _classification, None),),
    "gorenstein": (("gorenstein", _gorenstein, None),),
    "closure": (("closure", _closure, None), ("closure_negative_control", _closure_negative_control, 1)),
    "stability": (("stability", _stability, None),),
    "products": (("products", _products, None),),
    "right_adjoint": (("right_adjoint", _right_adjoint, None),),
    "nonpure_fixture": (("nonpure_fixture", _nonpure_fixture, len(NONPURE_FIXTURE_MODULI)),),
    "totally_acyclic": (("totally_acyclic", _totally_acyclic, None),),
    "collapse": (("collapse", _collapse, None),),
    "adjunction": (("adjunction", _adjunction, None),),
    "ext_engine": (("ext_engine", _ext_engine, None),),
    "orthogonality": (("orthogonality", _orthogonality, None),),
}


def run_suite(name: str, config: Config, trials: Optional[int] = None) -> List[TrialReport]:
    """The reports of suite `name`, with `trials` trials (by default the
    config's) in each report group that has no fixed count of its own."""
    if trials is None:
        trials = config.trials
    elif trials < 1:
        raise UsageError(f"trials must be at least 1, got {trials}")
    reports: List[TrialReport] = []
    for part, body, fixed in SUITES[name]:
        reports.extend(_run_trials(part, config, fixed or trials, functools.partial(body, config)))
    return reports


def run_all(config: Config, trials: Optional[int] = None) -> List[TrialReport]:
    out: List[TrialReport] = []
    names = config.suites or tuple(SUITES)
    for name in names:
        out.extend(run_suite(name, config, trials))
    return out
