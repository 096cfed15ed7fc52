import itertools
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linalg_oracle import arr
from quiverhom.linalg import quotient_order, solve_left, xgcd
from quiverhom.znmod import (
    MAX_MODULUS,
    FinMod,
    HomSystem,
    ModComplex,
    ModHom,
    ModSES,
    Modulus,
    canonical_chain,
    cokernel_of_hom,
    cyclic,
    direct_sum_with_maps,
    double_dual_iso,
    ext_module,
    free_mod,
    gi_module_certificate,
    hom_entry_orders,
    hom_entry_scales,
    hom_group,
    identity_hom,
    image_of_hom,
    is_epi,
    is_gi_certified,
    is_injective_module,
    is_mono,
    is_pure_module_ses,
    is_split,
    kernel_of_hom,
    matlis_dual,
    matlis_dual_hom,
    present,
    quotient_with_projection,
    random_hom,
    retraction_of,
    solve_congruences,
    splits,
    subgroup_present,
    subgroup_with_inclusion,
    sum_presentation,
    verify_gi_certificate,
    zero_hom,
    zero_mod,
)

Z4 = Modulus(4)
Z6 = Modulus(6)
Z8 = Modulus(8)
Z9 = Modulus(9)


def rand_finmod(rng, modulus, max_rank=2):
    divisors = [d for d in modulus.divisors if d > 1]
    orders = [rng.choice(divisors) for _ in range(rng.randrange(0, max_rank + 1))]
    return FinMod(modulus, canonical_chain(orders, modulus.n))


def rand_hom(rng, dom, cod):
    from quiverhom.znmod import hom_entry_orders, hom_entry_scales

    orders = hom_entry_orders(dom.factors, cod.factors)
    scales = hom_entry_scales(dom.factors, cod.factors)
    mat = np.zeros((cod.rank, dom.rank), dtype=np.int64)
    for j in range(cod.rank):
        for i in range(dom.rank):
            mat[j, i] = scales[j][i] * rng.randrange(orders[j][i])
    return ModHom(dom, cod, mat)


def test_present_named_examples():
    m, _, _ = present([[2]], Z4)
    assert m.factors == (2,)
    m, _, _ = present(np.zeros((2, 0), dtype=np.int64), Z9)
    assert m.factors == (9, 9)
    # over Z/6 the only invariant-factor chain of cardinality 6 is (6,)
    m, _, _ = present([[2, 0], [0, 3]], Z6)
    chains_card6 = [
        c
        for c in [(6,), (2, 3), (3, 2)]
        if all(6 % d == 0 for d in c)
        and all(c[i + 1] % c[i] == 0 for i in range(len(c) - 1))
    ]
    assert chains_card6 == [(6,)]
    assert m.factors == (6,)
    assert present(np.zeros((0, 3), dtype=np.int64), Z4)[0].rank == 0


def test_present_needs_a_2d_relations_matrix():
    for rel in ([2, 0], [[2], 0], [[2.0]], np.zeros((1, 1, 1), dtype=np.int64)):
        with pytest.raises(ValueError, match="^expected a 2d matrix"):
            present(rel, Z4)
    # no rows is the matrix of no generators, which presents the zero module
    assert present([], Z4) == (zero_mod(Z4), (), ())


def test_present_proj_sect_inverse():
    rng = random.Random(0)
    for modulus in (Z4, Z6, Z8, Z9):
        n = modulus.n
        for _ in range(250):
            g = rng.randrange(1, 4)
            k = rng.randrange(0, 4)
            rel = np.array([rng.randrange(n) for _ in range(g * k)], dtype=np.int64).reshape(g, k)
            m, proj, sect = present(rel, modulus)
            proj, sect = arr(proj, g), arr(sect, m.rank)
            if m.rank:
                eye = proj.dot(sect) % np.array(m.factors)[:, None]
                assert np.array_equal(eye, np.eye(m.rank, dtype=np.int64))
            # every relation maps to zero in the canonical module
            for c in range(k):
                assert not any(m.reduce(proj.dot(rel[:, c])))
            assert m.cardinality * _image_card(rel, modulus) == n**g


def _image_card(rel, modulus):
    """Cardinality of the column span of rel inside (Z/n)^g."""
    from quiverhom.znmod import subgroup_present

    g = rel.shape[0]
    sub, _ = subgroup_present([modulus.n] * g, [rel[:, c] for c in range(rel.shape[1])], modulus)
    return sub.cardinality


def test_hom_group_named_examples():
    grp, basis = hom_group(cyclic(Z4, 2), cyclic(Z4, 4))
    assert grp.cardinality == 2
    brute = [a for a in range(4) if (2 * a) % 4 == 0]
    assert len(brute) == 2
    grp, _ = hom_group(cyclic(Z4, 4), zero_mod(Z4))
    assert grp.is_zero
    grp, basis = hom_group(cyclic(Z4, 4), cyclic(Z4, 4))
    assert grp.cardinality == 4
    assert all(h.domain.factors == (4,) for h in basis)


def test_hom_group_cardinality_formula():
    rng = random.Random(1)
    from math import gcd

    for modulus in (Z4, Z8, Z9, Z6):
        for _ in range(25):
            m = rand_finmod(rng, modulus)
            n = rand_finmod(rng, modulus)
            grp, basis = hom_group(m, n)
            expect = 1
            for d in m.factors:
                for e in n.factors:
                    expect *= gcd(d, e)
            assert grp.cardinality == expect
            # basis generates: all Z-combinations of basis give |grp| distinct homs
            if expect <= 64 and basis:
                seen = set()
                for coeffs in itertools.product(*[range(f) for f in grp.factors]):
                    total = zero_hom(m, n)
                    for c, h in zip(coeffs, basis):
                        for _ in range(c):
                            total = total + h
                    seen.add(total)
                assert len(seen) == expect


def test_matlis_dual_named_examples():
    assert matlis_dual(cyclic(Z4, 2)).factors == (2,)
    assert matlis_dual(zero_mod(Z4)).is_zero
    ident = identity_hom(cyclic(Z4, 4))
    assert matlis_dual_hom(ident) == identity_hom(cyclic(Z4, 4))


def test_matlis_dual_contravariant_and_double_dual():
    rng = random.Random(2)
    for modulus in (Z4, Z8, Z9):
        for _ in range(30):
            a, b, c = (rand_finmod(rng, modulus) for _ in range(3))
            f = rand_hom(rng, a, b)
            g = rand_hom(rng, b, c)
            assert matlis_dual_hom(g.compose(f)) == matlis_dual_hom(f).compose(matlis_dual_hom(g))
            assert matlis_dual_hom(matlis_dual_hom(f)) == ModHom(
                matlis_dual(matlis_dual(a)), matlis_dual(matlis_dual(b)), f.matrix
            )
            iso = double_dual_iso(a)
            assert is_mono(iso) and is_epi(iso)


def eval_pairing(m: FinMod, x, functional) -> int:
    """<x, u> for x in M and u in M+ (dual coordinates)."""
    n = m.modulus.n
    x = m.reduce(x)
    u = np.asarray(functional, dtype=np.int64).reshape(m.rank)
    total = 0
    for i, d in enumerate(m.factors):
        total = (total + int(u[i]) * (n // d) * int(x[i])) % n
    return total


def test_dual_pairing_is_perfect():
    m = FinMod(Z8, (2, 8))
    seen = set()
    for u in matlis_dual(m).elements():
        values = tuple(eval_pairing(m, x, u) for x in m.elements())
        seen.add(values)
    assert len(seen) == m.cardinality


def test_duality_swaps_mono_epi():
    rng = random.Random(3)
    for _ in range(40):
        a = rand_finmod(rng, Z8)
        b = rand_finmod(rng, Z8)
        f = rand_hom(rng, a, b)
        if is_mono(f):
            assert is_epi(matlis_dual_hom(f))
        if is_epi(f):
            assert is_mono(matlis_dual_hom(f))


def _torsion_generators(m: FinMod, k: int):
    """Generators of the k-torsion subgroup {y : k y == 0}, one per factor."""
    gens = []
    for i, d in enumerate(m.factors):
        c = d // math.gcd(k, d)
        if c % d != 0:
            v = np.zeros(m.rank, dtype=np.int64)
            v[i] = c
            gens.append((i, v))
    return gens


def reference_is_injective_module(m: FinMod):
    """Baer criterion over Z/n: every hom from an ideal (k) extends to Z/n.

    A hom (k) -> M is an element y with (n/k) y == 0; it extends iff
    y in k M.  The certificate stores, per ideal, either extension witnesses
    or the first failing ideal map.  The test `is_injective_module`
    replaced with invariant factors.
    """
    n = m.modulus.n
    checks = []
    for k in m.modulus.divisors:
        if k == n:
            continue
        for i, y in _torsion_generators(m, n // k):
            d = m.factors[i]
            c = int(y[i])
            g = math.gcd(k, d)
            if c % g != 0:
                witness = {"ideal": k, "map_sends_generator_to": y.tolist()}
                return False, {"criterion": "baer", "witness": witness}
            # witness x with k x == y
            _, s, _ = xgcd(k, d)
            x = np.zeros(m.rank, dtype=np.int64)
            x[i] = (s * (c // g)) % d
            checks.append({"ideal": k, "torsion_gen": y.tolist(), "extension": x.tolist()})
    return True, {"criterion": "baer", "extensions": checks}


def test_injective_named_examples():
    assert is_injective_module(cyclic(Z4, 4))
    assert not is_injective_module(cyclic(Z4, 2))
    assert is_injective_module(zero_mod(Z4))
    ok, cert = reference_is_injective_module(cyclic(Z4, 4))
    assert ok and cert["criterion"] == "baer"
    ok, cert = reference_is_injective_module(cyclic(Z4, 2))
    assert not ok
    assert cert["witness"]["ideal"] == 2
    assert cert["witness"]["map_sends_generator_to"] == [1]
    assert reference_is_injective_module(zero_mod(Z4))[0]


def test_invariant_factors_decide_injectivity_as_baer_does():
    count = injective = 0
    cases = [(n, 3) for n in range(2, 145)] + [(n, 2) for n in (MAX_MODULUS, 3**13, 510510)]
    for n, max_rank in cases:
        for factors in _chains(n, max_rank):
            m = FinMod(Modulus(n), factors)
            verdict = is_injective_module(m)
            assert verdict == reference_is_injective_module(m)[0], m
            count += 1
            injective += verdict
    assert count == 8747 and injective == 4781


def reference_canonical_chain(orders, n):
    """The invariant-factor chain by regrouping prime-power parts: the
    package's former `canonical_chain`, kept as an oracle independent of
    `linalg.diagonalize`."""
    exps = {}
    mod = Modulus(n)
    for m in orders:
        if n % m != 0:
            raise ValueError(f"order {m} does not divide modulus {n}")
        if m == 1:
            continue
        for p in mod.prime_factors:
            e = 0
            mm = m
            while mm % p == 0:
                e += 1
                mm //= p
            if e:
                exps.setdefault(p, []).append(e)
    if not exps:
        return ()
    length = max(len(v) for v in exps.values())
    chain = []
    for k in range(length):
        f = 1
        for p, v in exps.items():
            v_sorted = sorted(v, reverse=True)
            if k < len(v_sorted):
                f *= p ** v_sorted[k]
        chain.append(f)
    return tuple(reversed(chain))


@st.composite
def orders_over(draw):
    """A modulus and an unsorted list of orders: divisors of n, 1 and
    repeats among them, now and then a non-divisor."""
    n = draw(st.sampled_from((2, 4, 6, 12, 36, 72, 2**21)))
    # one draw in eight is any integer from 1 to 100
    order = st.tuples(st.integers(0, 7), st.sampled_from(Modulus(n).divisors), st.integers(1, 100))
    return n, [x if pick else y for pick, x, y in draw(st.lists(order, max_size=7))]


@given(orders_over())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_canonical_chain_matches_the_prime_power_reference(args):
    n, orders = args
    try:
        want = reference_canonical_chain(orders, n)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            canonical_chain(orders, n)
        assert str(got.value) == str(err)
        return
    assert canonical_chain(orders, n) == want


@pytest.mark.parametrize(
    "order, error, message",
    [(0, ValueError, "order 0 is not positive"), (-2, ValueError, "order -2 is not positive"), (2.0, TypeError, "order 2.0 is not an integer")],
)
def test_canonical_chain_names_a_bad_order(order, error, message):
    with pytest.raises(error) as got:
        canonical_chain([2, order], 4)
    assert str(got.value) == message


def test_solve_congruences_rejects_non_integer_entries():
    with pytest.raises(TypeError, match=r"^coefficient 1\.5 is not an integer$"):
        solve_congruences([[1.5]], [[0]], 1, [4], [4], Z4)
    with pytest.raises(TypeError, match=r"^right-hand side '2' is not an integer$"):
        solve_congruences([[1]], [["2"]], 1, [4], [4], Z4)


def test_subgroup_present_rejects_a_float_generator():
    with pytest.raises(TypeError, match=r"^generator entry 2\.5 is not an integer$"):
        subgroup_present([4], [[2.5]], Z4)


def test_hom_system_assignment_rejects_a_float_coordinate():
    sysm = HomSystem(Z4)
    sysm.add_hom_unknown(cyclic(Z4, 4), cyclic(Z4, 4))
    assert sysm.assignment([3])[0].matrix == ((3,),)
    with pytest.raises(TypeError, match=r"^hom coordinate 1\.5 is not an integer$"):
        sysm.assignment([1.5])


def test_injective_matches_brute_force_baer():
    # brute force: M injective iff for all k | n every y with (n/k)y = 0 lies in kM
    for modulus in (Z4, Z8, Z9, Z6):
        n = modulus.n
        divisors = [d for d in modulus.divisors if d > 1]
        for r in range(0, 3):
            for factors in itertools.product(divisors, repeat=r):
                chain = canonical_chain(factors, n)
                m = FinMod(modulus, chain)
                expected = True
                for k in modulus.divisors:
                    if k == n:
                        continue
                    elements = [np.array(x, dtype=np.int64) for x in m.elements()]
                    torsion = [
                        x for x in elements if not ((n // k) * x % np.array(chain, dtype=np.int64)).any()
                    ] if m.rank else []
                    image = {tuple((k * x) % np.array(chain)) for x in elements} if m.rank else set()
                    for y in torsion:
                        if tuple(y) not in image:
                            expected = False
                assert is_injective_module(m) == expected


def _ses_z2_z4_z2():
    f = ModHom(cyclic(Z4, 2), cyclic(Z4, 4), [[2]])
    g = ModHom(cyclic(Z4, 4), cyclic(Z4, 2), [[1]])
    return ModSES(f, g)


def test_split_named_examples():
    m2 = cyclic(Z4, 2)
    sum_mod, injs, projs = direct_sum_with_maps([m2, m2], Z4)
    ses = ModSES(injs[0], projs[1])
    assert is_split(ses) is not None
    # 0 -> Z/2 --(x->2x)--> Z/4 -> Z/2 -> 0 does not split: both candidate
    # retractions Z/4 -> Z/2 send 2 to 0
    ses = _ses_z2_z4_z2()
    for a in range(2):
        assert (a * 2) % 2 == 0
    assert is_split(ses) is None
    m = FinMod(Z4, (2, 4))
    ses = ModSES(zero_hom(zero_mod(Z4), m), identity_hom(m))
    assert is_split(ses) is not None


def test_pure_named_examples():
    ses = _ses_z2_z4_z2()
    pure, witness = is_pure_module_ses(ses)
    assert not pure and witness == 2
    m2 = cyclic(Z4, 2)
    sum_mod, injs, projs = direct_sum_with_maps([m2, m2], Z4)
    pure, _ = is_pure_module_ses(ModSES(injs[0], projs[1]))
    assert pure


def test_pure_iff_split_on_random_ses():
    # finite modules over Z/n are pure-injective, so purity collapses to
    # splitness; 500+ sequences across the moduli
    rng = random.Random(4)
    count = 0
    for modulus in (Z4, Z8, Z9):
        for _ in range(240):
            m = rand_finmod(rng, modulus, max_rank=3)
            if m.is_zero:
                continue
            gens = [np.array([rng.randrange(d) for d in m.factors]) for _ in range(rng.randrange(1, 3))]
            sub, incl = subgroup_with_inclusion(m, gens)
            quo, proj, _ = cokernel_of_hom(incl)
            ses = ModSES(incl, proj)
            count += 1
            assert (is_split(ses) is not None) == is_pure_module_ses(ses)[0]
    assert count >= 500


def reference_is_pure_module_ses(s):
    """Purity by one lifting solve per divisor d > 1: every element of C[d]
    lifts along g to an element x of B with d x == 0.  The test
    `is_pure_module_ses` replaced with torsion orders."""
    m, c = s.g.domain, s.g.codomain
    mf = np.array(m.factors, dtype=np.int64)
    rows = c.factors + m.factors
    for d in s.modulus.divisors[1:]:
        a = np.vstack([arr(s.g.matrix, m.rank), np.diag(d % mf)])
        ys = [y for _, y in _torsion_generators(c, d)]
        if not ys:
            continue
        b = np.vstack([np.column_stack(ys), np.zeros((m.rank, len(ys)), dtype=np.int64)])
        if solve_congruences(a, b.tolist(), len(ys), rows, m.factors, s.modulus) is None:
            return False, d
    return True, None


def test_torsion_orders_decide_module_purity_as_the_lifting_solves_do():
    rng = random.Random(20)
    count = impure = 0
    for n in (2, 4, 6, 8, 12, 16, 27, 30, 36, 48, 72, 288, MAX_MODULUS):
        modulus = Modulus(n)
        for _ in range(180):
            b = rand_finmod(rng, modulus, max_rank=3)
            gens = [np.array([rng.randrange(d) for d in b.factors], dtype=np.int64) for _ in range(rng.randrange(1, 3))]
            a, incl = subgroup_with_inclusion(b, gens)
            ses = ModSES(incl, cokernel_of_hom(incl)[1])
            verdict = is_pure_module_ses(ses)
            assert verdict == reference_is_pure_module_ses(ses)
            count += 1
            impure += not verdict[0]
    assert count >= 2000 and impure >= 250


def sfp_ext_oracle(m: FinMod) -> bool:
    """Definitional check: Ext^i(Z/d, M) == 0 for all d | n and i = 1, 2.

    The free resolution of Z/d over Z/n is eventually 2-periodic, so the
    first two degrees decide all higher ones.
    """
    for d in m.modulus.divisors:
        if d == 1:
            continue
        f = cyclic(m.modulus, d)
        for i in (1, 2):
            if not ext_module(f, m, i).is_zero:
                return False
    return True


def test_sfp_three_way_agreement():
    rng = random.Random(5)
    for modulus in (Z4, Z8, Z9, Z6):
        for _ in range(40):
            m = rand_finmod(rng, modulus, max_rank=3)
            a = is_injective_module(m)
            b = reference_is_injective_module(m)[0]
            c = sfp_ext_oracle(m)
            assert a == b == c


def test_ext_module_named_examples():
    # via the 2-periodic resolution ... -> Z/4 -> Z/4 -> Z/2 -> 0
    assert ext_module(cyclic(Z4, 2), cyclic(Z4, 4), 1).is_zero
    assert ext_module(cyclic(Z4, 2), cyclic(Z4, 2), 1).factors == (2,)
    assert ext_module(cyclic(Z4, 2), zero_mod(Z4), 1).is_zero
    # degree 0 recovers Hom
    assert ext_module(cyclic(Z4, 2), cyclic(Z4, 4), 0).cardinality == 2


def test_ext_module_matches_kernel_image_computation():
    # independent oracle: Ext^1(Z/d, M) = ker(n/d on M) / im(d on M)
    rng = random.Random(6)
    for modulus in (Z4, Z8, Z9, Z6):
        n = modulus.n
        for _ in range(30):
            d = rng.choice([t for t in modulus.divisors if t > 1])
            m = rand_finmod(rng, modulus, max_rank=3)
            mult = lambda k: ModHom(m, m, k * np.eye(m.rank, dtype=np.int64))
            ker, _ = kernel_of_hom(mult(n // d))
            img, _ = image_of_hom(mult(d))
            expect = ker.cardinality // img.cardinality
            got = ext_module(cyclic(modulus, d), m, 1)
            assert got.cardinality == expect


def test_kernel_image_cokernel():
    f = ModHom(cyclic(Z4, 4), cyclic(Z4, 4), [[2]])
    ker, incl = kernel_of_hom(f)
    assert ker.factors == (2,)
    assert f.compose(incl).is_zero
    img, _ = image_of_hom(f)
    assert img.factors == (2,)
    quo, proj, _ = cokernel_of_hom(f)
    assert quo.factors == (2,)
    assert proj.compose(f).is_zero


def test_solve_congruences_well_definedness_guard():
    with pytest.raises(ValueError, match="not well defined mod 4"):
        solve_congruences([[1]], [[0]], 1, [4], [2], Z4)  # 1 * 2 != 0 mod 4


def test_solve_congruences_guard_matches_product_rule():
    # every 1x1 system over n <= 36: accepted iff (c * m) % r == 0
    for n in range(2, 37):
        modulus = Modulus(n)
        for m in modulus.divisors:
            for r in modulus.divisors:
                for c in range(-r, r):
                    if (c * m) % r == 0:
                        solve_congruences([[c]], [[0]], 1, [r], [m], modulus)
                    else:
                        with pytest.raises(ValueError):
                            solve_congruences([[c]], [[0]], 1, [r], [m], modulus)


def _span(gens, orders):
    """The subgroup of prod Z/m_t generated by gens, as a set of tuples."""
    om = np.array(orders, dtype=np.int64)
    seen = {tuple([0] * len(orders))}
    frontier = list(seen)
    while frontier:
        new = []
        for v in frontier:
            for g in gens:
                w = tuple(((np.array(v, dtype=np.int64) + g) % om).tolist())
                if w not in seen:
                    seen.add(w)
                    new.append(w)
        frontier = new
    return seen


@pytest.mark.parametrize("n", range(2, 13))
def test_solve_congruences_matches_enumeration(n):
    rng = random.Random(n)
    modulus = Modulus(n)
    divs = modulus.divisors
    seen_none = seen_some = 0
    for _ in range(60):
        t, k = rng.randint(0, 3), rng.randint(0, 3)
        orders = [rng.choice(divs) for _ in range(t)]
        rows = [rng.choice(divs) for _ in range(k)]
        # well defined: each coefficient a multiple of r / gcd(m, r), not reduced
        a = np.array(
            [[r // math.gcd(m, r) * rng.randrange(-n, 2 * n) for m in orders] for r in rows], dtype=np.int64
        ).reshape(k, t)
        xs = list(itertools.product(*[range(m) for m in orders]))
        xs = np.array(xs, dtype=np.int64).reshape(len(xs), t)
        if rng.random() < 0.5:
            b = a.dot(xs[rng.randrange(len(xs))])
        else:
            b = np.array([rng.randrange(n) for _ in rows], dtype=np.int64)
        r = np.array(rows, dtype=np.int64)
        solutions = {tuple(x) for x in xs[((xs.dot(a.T) - b) % r == 0).all(axis=1)].tolist()}
        homogeneous = {tuple(x) for x in xs[(xs.dot(a.T) % r == 0).all(axis=1)].tolist()}
        out = solve_congruences(a, b.reshape(k, 1), 1, rows, orders, modulus)
        if not solutions:
            assert out is None
            seen_none += 1
            continue
        seen_some += 1
        part, gens = out
        assert len(part) == t and tuple(row[0] for row in part) in solutions
        for g in gens:
            assert g in homogeneous
        assert _span(gens, orders) == homogeneous
    assert seen_none and seen_some


@pytest.mark.parametrize("n", range(2, 13))
def test_solve_congruences_columns_match_one_column_calls(n):
    rng = random.Random(100 + n)
    modulus = Modulus(n)
    divs = modulus.divisors
    seen = {"no rows": 0, "no unknowns": 0, "no columns": 0, "consistent": 0, "inconsistent": 0}
    for _ in range(60):
        t, k, cols = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        orders = [rng.choice(divs) for _ in range(t)]
        rows = [rng.choice(divs) for _ in range(k)]
        a = np.array(
            [[r // math.gcd(m, r) * rng.randrange(-n, 2 * n) for m in orders] for r in rows], dtype=np.int64
        ).reshape(k, t)
        # each column is either in the image of a or random
        b = np.zeros((k, cols), dtype=np.int64)
        for c in range(cols):
            if rng.random() < 0.6:
                b[:, c] = a.dot([rng.randrange(m) for m in orders])
            else:
                b[:, c] = [rng.randrange(n) for _ in rows]
        singles = [solve_congruences(a, b[:, c : c + 1], 1, rows, orders, modulus) for c in range(cols)]
        out = solve_congruences(a, b.tolist(), cols, rows, orders, modulus)
        seen["no rows"] += k == 0
        seen["no unknowns"] += t == 0
        seen["no columns"] += cols == 0
        if any(s is None for s in singles):
            assert out is None
            seen["inconsistent"] += 1
            continue
        seen["consistent"] += 1
        part, kern = out
        assert len(part) == t and all(len(row) == cols for row in part)
        for c, (single_part, single_kern) in enumerate(singles):
            assert tuple(row[c : c + 1] for row in part) == single_part
            assert kern == single_kern
        assert (((),) * t, kern) == solve_congruences(a, np.zeros((k, 0), dtype=np.int64), 0, rows, orders, modulus)
    assert all(seen.values()), seen


def split_mono(f):
    """Whether f is a split mono: one-to-one with a split cokernel
    projection, as 0 -> A -> B -> B / f(A) -> 0 splits iff its epi does."""
    return is_mono(f) and splits(cokernel_of_hom(f)[1])


def test_pure_mono_epi_module_maps():
    f = ModHom(cyclic(Z4, 2), cyclic(Z4, 4), [[2]])
    assert is_mono(f) and not split_mono(f) and retraction_of(f) is None
    ident = identity_hom(cyclic(Z4, 4))
    assert is_mono(ident) and split_mono(ident) and is_epi(ident) and splits(ident)
    g = ModHom(cyclic(Z4, 4), cyclic(Z4, 2), [[1]])
    assert is_epi(g) and not splits(g)


def section_of(g):
    """s with g o s == id on cod(g), or None: the solve that decided split
    epis before `splits` read them off orders."""
    sysm = HomSystem(g.modulus)
    var = sysm.add_hom_unknown(g.codomain, g.domain)
    sysm.add_equation([(1, g, var, None)], identity_hom(g.codomain))
    out = sysm.solve()
    if out is None:
        return None
    s = sysm.assignment(out[0])[0]
    assert g.compose(s) == identity_hom(g.codomain)
    return s


SPLITS_MODULI = (2, 4, 6, 8, 9, 12, 16, 18, 36, 72, 144, 288)


def test_splits_agrees_with_the_solves_and_the_dual_route():
    # epis onto quotients, monos from subgroups, and random homs that are
    # mostly neither; each verdict against a section or retraction solve,
    # the solve on the Matlis dual, and the purity of the sequence; a mono
    # is read off its cokernel projection and off its dual
    rng = random.Random(23)
    # each sequence gives one epi and one mono, split or not alike
    seen = dict.fromkeys(["split", "nonsplit", "neither"], 0)
    for n in SPLITS_MODULI:
        modulus = Modulus(n)
        for _ in range(40):
            b = rand_finmod(rng, modulus, max_rank=3)
            # multiples of a prime make most of the non-split sequences
            p = rng.choice([1, *modulus.prime_factors])
            gens = [p * np.array([rng.randrange(d) for d in b.factors], dtype=np.int64) for _ in range(rng.randrange(1, 3))]
            _, incl = subgroup_with_inclusion(b, gens)
            proj = cokernel_of_hom(incl)[1]
            split = is_pure_module_ses(ModSES(incl, proj))[0]
            assert splits(proj) == (section_of(proj) is not None) == split
            assert (retraction_of(matlis_dual_hom(proj)) is not None) == split
            assert split_mono(incl) == (retraction_of(incl) is not None) == split
            dual = matlis_dual_hom(incl)
            assert splits(dual) == (section_of(dual) is not None) == split
            seen["split" if split else "nonsplit"] += 1
            h = rand_hom(rng, rand_finmod(rng, modulus, max_rank=3), rand_finmod(rng, modulus, max_rank=3))
            assert splits(h) == (section_of(h) is not None)
            assert split_mono(h) == splits(matlis_dual_hom(h)) == (retraction_of(h) is not None)
            seen["neither"] += not (is_epi(h) or is_mono(h))
    assert seen["nonsplit"] >= 100 and seen["split"] >= 300 and seen["neither"] >= 120, seen


def presented_sum(mods, modulus, presented=None):
    """The direct sum through `present` of the diagonal relations, whatever
    the factors: the route every sum took before chains were read off.
    `presented` is that presentation when the caller already has it."""
    factors = [d for m in mods for d in m.factors]
    if presented is None:
        presented = present(np.diag(np.array(factors, dtype=np.int64)), modulus)
    total, proj, sect = presented
    injs, projs = [], []
    offset = 0
    for m in mods:
        injs.append(ModHom(m, total, [row[offset : offset + m.rank] for row in proj]))
        projs.append(ModHom(total, m, sect[offset : offset + m.rank]))
        offset += m.rank
    return total, tuple(injs), tuple(projs)


def test_direct_sum_of_a_chain_is_the_presented_sum():
    # every chain of length <= 4 whose factors divide n (n itself included:
    # free summands) presents itself; every fifth one is also summed, cut
    # alternately into one summand per factor and, when there are two or
    # more, one summand of the first two factors and cyclic ones after it
    count = 0
    for n in (2, 4, 12, 36, 72, 288, 2**21, 2097143):
        modulus = Modulus(n)
        divisors = modulus.divisors[1:]
        for k in range(5):
            for chain in itertools.combinations_with_replacement(divisors, k):
                if any(b % a for a, b in zip(chain, chain[1:])):
                    continue
                presented = present(np.diag(np.array(chain, dtype=np.int64)), modulus)
                assert presented[0].factors == chain
                assert np.array_equal(arr(presented[1], k), np.eye(k)) and np.array_equal(arr(presented[2], k), np.eye(k))
                if count % 5 == 0:
                    head = 2 if k >= 2 and count % 10 else 1
                    mods = [FinMod(modulus, chain[:head])] + [FinMod(modulus, (d,)) for d in chain[head:]]
                    assert direct_sum_with_maps(mods, modulus) == presented_sum(mods, modulus, presented)
                count += 1
    assert count == 15390


def test_direct_sum_outside_a_chain_is_the_presented_sum():
    rng = random.Random(24)
    count = 0
    for n in SPLITS_MODULI + (2**21,):
        modulus = Modulus(n)
        for _ in range(40):
            mods = [rand_finmod(rng, modulus, max_rank=2) for _ in range(rng.randrange(2, 5))]
            factors = [d for m in mods for d in m.factors]
            count += any(b % a for a, b in zip(factors, factors[1:]))
            assert direct_sum_with_maps(mods, modulus) == presented_sum(mods, modulus)
    assert count >= 200


def test_direct_sum_results_are_shared_tuples_of_read_only_homs():
    m2, m4 = cyclic(Z4, 2), cyclic(Z4, 4)
    for mods in ([m2, m4], [m4, m2], [m2]):
        out = direct_sum_with_maps(mods, Z4)
        total, injs, projs = out
        assert isinstance(injs, tuple) and isinstance(projs, tuple)
        for h in injs + projs:
            assert type(h.matrix) is tuple and all(type(row) is tuple for row in h.matrix)
            with pytest.raises(TypeError):
                h.matrix[0] = ()
            with pytest.raises(TypeError):
                h.matrix[0][0] = 0
        # no memo keeps the homs; the sum itself is the shared presentation's
        again = direct_sum_with_maps(mods, Z4)
        assert again == out and again[0] is total is sum_presentation(tuple(d for m in mods for d in m.factors), Z4)[0]
        assert out == presented_sum(mods, Z4)


def test_gi_certificate_named_examples():
    cx, wit = gi_module_certificate(cyclic(Z4, 2))
    assert verify_gi_certificate(cyclic(Z4, 2), cx, wit)
    # alternating multiplication by 2 with kernel {0, 2}
    assert cx.diffs[0].matrix == cx.diffs[1].matrix == ((2,),)
    cx, wit = gi_module_certificate(cyclic(Z4, 4))
    assert verify_gi_certificate(cyclic(Z4, 4), cx, wit)
    cx, wit = gi_module_certificate(zero_mod(Z4))
    assert verify_gi_certificate(zero_mod(Z4), cx, wit)
    for modulus in (Z8, Z9, Z6):
        m = FinMod(modulus, canonical_chain([2, 2] if modulus.n % 2 == 0 else [3], modulus.n))
        cx, wit = gi_module_certificate(m)
        assert verify_gi_certificate(m, cx, wit)


def test_gi_memo_equals_the_replay_on_every_chain_of_rank_3():
    count = 0
    for n in (2, 4, 6, 8, 9, 12, 36, 72):
        for factors in _chains(n, max_rank=3):
            m = FinMod(Modulus(n), factors)
            assert is_gi_certified(m) == verify_gi_certificate(m, *gi_module_certificate(m))
            count += 1
    assert count == 400


def test_gi_memo_does_not_hide_a_tampered_certificate():
    m = cyclic(Z4, 2)
    assert is_gi_certified(m)
    cx, wit = gi_module_certificate(m)
    # d_1 zero keeps d o d = 0, so only the replay can reject it
    tampered = ModComplex(cx.components, {**cx.diffs, 1: zero_hom(cx.components[1], cx.components[0])})
    assert not verify_gi_certificate(m, tampered, wit)
    assert is_gi_certified(m)


def test_mod_complex_is_read_only_and_rejects_a_nonzero_d_o_d():
    cx, _ = gi_module_certificate(cyclic(Z4, 2))
    with pytest.raises(TypeError):
        cx.diffs[1] = cx.diffs[0]
    with pytest.raises(TypeError):
        cx.components[0] = zero_mod(Z4)
    # d_1 + 1 is multiplication by 3, and d_0 d_1 = 6 = 2 mod 4
    tampered = ModHom(cx.components[1], cx.components[0], [[(x + 1) % 4 for x in row] for row in cx.diffs[1].matrix])
    with pytest.raises(ValueError, match=r"^d o d != 0 at degree 1$"):
        ModComplex(cx.components, {**cx.diffs, 1: tampered})


def test_gi_memo_repeated_call_is_a_cache_hit():
    m = FinMod(Modulus(12), (2, 6))
    is_gi_certified(m)
    hits = is_gi_certified.cache_info().hits
    assert is_gi_certified(FinMod(Modulus(12), (2, 6)))
    assert is_gi_certified.cache_info().hits == hits + 1


def test_double_dual_for_all_modules_up_to_4096():
    # the natural evaluation map is an isomorphism for every canonical module
    # of cardinality at most 4096 over the tested moduli
    from quiverhom.homology import _chains_of_cardinality

    for modulus in (Z4, Z8, Z9, Z6):
        checked = 0
        for card in range(1, 4097):
            for chain in _chains_of_cardinality(modulus, card):
                m = FinMod(modulus, chain)
                iso = double_dual_iso(m)
                assert is_mono(iso) and is_epi(iso)
                assert iso.codomain.factors == m.factors
                checked += 1
        assert checked >= 20


def test_divisors_match_brute_force():
    for n in range(2, 501):
        assert Modulus(n).divisors == tuple(d for d in range(1, n + 1) if n % d == 0)
    start = time.perf_counter()
    assert Modulus(2097143).divisors == (1, 2097143)  # the largest prime under the cap
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError, match="MAX_MODULUS"):
        Modulus(2**31 - 1)


def test_modulus_cap_is_pinned_at_2_to_the_21():
    # a fixed part of the interface: products are Python ints, exact at any n
    assert MAX_MODULUS == 2**21
    assert Modulus(2**21).n == 2**21
    for n in (2**21 + 1, 4294967311):
        with pytest.raises(ValueError, match=rf"^modulus must be at most MAX_MODULUS = 2\*\*21 = 2097152, got {n}$"):
            Modulus(n)


# the value types read their integers with `operator.index`: a float or a
# string raises, naming the value, instead of being truncated or parsed


def test_a_float_modulus_is_rejected():
    with pytest.raises(TypeError, match=r"^modulus 4\.5 is not an integer$"):
        Modulus(4.5)
    # an integer of another type is read as a Python int
    assert type(Modulus(np.int64(12)).n) is int and Modulus(np.int64(12)) == Modulus(12)


def test_a_float_invariant_factor_is_rejected():
    with pytest.raises(TypeError, match=r"^invariant factor 2\.0 is not an integer$"):
        FinMod(Z4, (2.0,))
    assert type(FinMod(Z4, (np.int64(2),)).factors[0]) is int


def test_a_list_of_invariant_factors_is_rejected():
    with pytest.raises(TypeError, match=r"^invariant factors must be a tuple, got \[2, 4\]$"):
        FinMod(Z4, [2, 4])


def test_a_float_or_string_hom_entry_is_rejected():
    m = cyclic(Z4, 4)
    with pytest.raises(TypeError, match=r"^hom entry 2\.7 is not an integer$"):
        ModHom(m, m, [[2.7]])
    with pytest.raises(TypeError, match=r"^hom entry '3' is not an integer$"):
        ModHom(m, m, [["3"]])
    assert ModHom(m, m, [[np.int64(7)]]).matrix == ((3,),)


def test_reduce_rejects_a_string_coordinate():
    with pytest.raises(TypeError, match=r"^coordinate '3' is not an integer$"):
        cyclic(Z4, 4).reduce(["3"])
    assert cyclic(Z4, 4).reduce([np.int64(7)]) == (3,)


def _rank_mod_p(rows, p):
    """Rank of a list of integer rows over GF(p), in Python ints."""
    rows = [[v % p for v in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(v - c * w) % p for v, w in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _matmul(a, b, n):
    return [[sum(x * y for x, y in zip(row, col)) % n for col in zip(*b)] for row in a]


def test_compose_solve_left_and_quotient_order_near_the_cap_match_python_ints():
    n = 2097143  # prime, so solvability is decided by ranks over GF(n)
    m = Modulus(n)
    rng = random.Random(11)

    def draw(r, c):
        return [[rng.choice((rng.randrange(n), rng.randrange(n - 64, n))) for _ in range(c)] for _ in range(r)]

    for _ in range(30):
        r, s, t = (rng.randint(1, 6) for _ in range(3))
        a, b = draw(t, s), draw(s, r)
        f = ModHom(free_mod(m, s), free_mod(m, t), a)
        g = ModHom(free_mod(m, r), free_mod(m, s), b)
        assert f.compose(g).matrix == tuple(map(tuple, _matmul(a, b, n)))
        # Y @ a == b for a consistent right-hand side, and a random one
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        a = draw(rows, cols)
        targets = _matmul(draw(2, rows), a, n) + draw(1, cols)
        for target in targets:
            out = solve_left(np.array(a), np.array([target]), cols, n)
            consistent = _rank_mod_p(a + [target], n) == _rank_mod_p(a, n)
            assert (out is not None) == consistent
            if out is None:
                continue
            y, kernel = out
            assert _matmul(y, a, n) == [target]
            assert not any(any(row) for row in _matmul(kernel, a, n))
            assert _rank_mod_p(kernel, n) == rows - _rank_mod_p(a, n)
        # the column span of a.T leaves n**(cols - rank) cosets in (Z/n)**cols
        assert quotient_order(np.array(a).T, [n] * cols, n) == n ** (cols - _rank_mod_p(a, n))


def _chains(n, max_rank=2):
    """Every invariant-factor chain of rank at most `max_rank` over Z/n."""
    ds = [d for d in Modulus(n).divisors if d > 1]
    chains, last = [()], [()]
    for _ in range(max_rank):
        last = [c + (d,) for c in last for d in ds if not c or d % c[-1] == 0]
        chains += last
    return chains


def test_hom_tables_and_matlis_dual_match_their_loops():
    pairs = 0
    rng = random.Random(3)
    for n in range(2, 73):
        m = Modulus(n)
        chains = _chains(n)
        for dom in chains:
            for cod in chains:
                pairs += 1
                orders = [[math.gcd(d, e) for d in dom] for e in cod]
                assert hom_entry_orders(dom, cod) == tuple(map(tuple, orders))
                scales = [[e // math.gcd(d, e) for d in dom] for e in cod]
                assert hom_entry_scales(dom, cod) == tuple(map(tuple, scales))
                f = random_hom(rng, FinMod(m, dom), FinMod(m, cod))
                dual = [[(f.matrix[j][i] * (n // e)) % n // (n // d) % d for j, e in enumerate(cod)] for i, d in enumerate(dom)]
                assert matlis_dual_hom(f).matrix == tuple(map(tuple, dual))
    assert pairs == 23187
