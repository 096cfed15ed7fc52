"""The order-only path (`quotient_order`, `cokernel_order`, `image_order`,
`kernel_order`, `is_mono`, `is_epi`, the exactness checks built on them) and
the table-based well-definedness check of `ModHom`, each against a
brute-force oracle or the presentation route it replaced."""

import itertools
import random

import numpy as np
import pytest

import linalg_oracle as oracle
from linalg_oracle import arr
from quiverhom.harness import Config, random_representation
from quiverhom.homology import RepComplex, totally_acyclic_injective_complex
from quiverhom.linalg import quotient_order
from quiverhom.quiver import a2, make_quiver
from quiverhom.rep import RepMorphism, image_rep, kernel_rep
from quiverhom.znmod import (
    FinMod,
    ModComplex,
    ModHom,
    Modulus,
    cokernel_of_hom,
    cokernel_order,
    gi_module_certificate,
    hom_entry_orders,
    hom_entry_scales,
    image_of_hom,
    image_order,
    is_epi,
    is_mono,
    kernel_of_hom,
    kernel_order,
)


def _modules(modulus, max_rank=2):
    divs = [d for d in modulus.divisors if d > 1]
    chains = [()] + [(d,) for d in divs] + [(a, b) for a in divs for b in divs if b % a == 0]
    return [FinMod(modulus, c) for c in chains if len(c) <= max_rank]


def _all_hom_matrices(dom, cod):
    """Every well-defined matrix dom -> cod, stacked as (count, r, s)."""
    orders = arr(hom_entry_orders(dom.factors, cod.factors), dom.rank).reshape(-1)
    scales = arr(hom_entry_scales(dom.factors, cod.factors), dom.rank).reshape(-1)
    coeffs = np.array(list(itertools.product(*[range(o) for o in orders])), dtype=np.int64)
    return (coeffs.reshape(len(coeffs), len(orders)) * scales).reshape(len(coeffs), cod.rank, dom.rank)


def _image_orders(dom, cod, mats):
    """|{f(x) : x in dom}| for each matrix, by enumerating every x."""
    xs = np.array(list(itertools.product(*[range(d) for d in dom.factors])), dtype=np.int64)
    xs = xs.reshape(len(xs), dom.rank)
    e = np.array(cod.factors, dtype=np.int64).reshape(1, -1, 1)
    images = np.einsum("krs,xs->krx", mats, xs) % e  # (count, r, |dom|)
    codes = np.zeros((len(mats), len(xs)), dtype=np.int64)
    for j, ej in enumerate(cod.factors):
        codes = codes * ej + images[:, j, :]
    codes.sort(axis=1)
    return 1 + (np.diff(codes, axis=1) != 0).sum(axis=1)


@pytest.mark.parametrize("n", range(2, 13))
def test_orders_match_enumeration_for_every_small_hom(n):
    modulus = Modulus(n)
    mods = _modules(modulus)
    for dom in mods:
        for cod in mods:
            mats = _all_hom_matrices(dom, cod)
            expected = _image_orders(dom, cod, mats)
            for mat, img in zip(mats, expected.tolist()):
                f = ModHom(dom, cod, mat)
                # cokernel_order and kernel_order are |cod| / img and
                # |dom| / img; image_order is computed through the former
                assert image_order(f) == img, f
                assert is_mono(f) == (img == dom.cardinality)
                assert is_epi(f) == (img == cod.cardinality)


def _span_order(a, orders, n):
    """|column span of a| in the sum of the Z/m_i, by enumeration."""
    m = np.array(orders, dtype=np.int64)
    span = {tuple(np.zeros(len(orders), dtype=np.int64))}
    for c in range(a.shape[1]):
        span = {tuple((np.array(v, dtype=np.int64) + k * a[:, c]) % m) for v in span for k in range(n)}
    return len(span)


def test_quotient_order_matches_enumeration():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(2, 13)
        rows, cols = rng.randrange(0, 4), rng.randrange(0, 5)
        orders = [rng.choice(Modulus(n).divisors) for _ in range(rows)]
        a = np.array([rng.randrange(-2 * n, 2 * n) for _ in range(rows * cols)], dtype=np.int64).reshape(rows, cols)
        total = int(np.prod(orders, dtype=np.int64))
        assert quotient_order(a, orders, n) * _span_order(a, orders, n) == total


def test_quotient_order_is_exact_for_large_moduli():
    n = 2**61 - 1  # prime: every nonzero column spans a whole coordinate
    assert quotient_order([[3], [0]], [n, n], n) == n
    assert quotient_order([[3, 0], [5, 7]], [n, n], n) == 1
    n = 2**62
    assert quotient_order([[2**60 + 2**59]], [n], n) == 2**59
    assert quotient_order([[2**60 + 2**59]], [2**60], n) == 2**59
    assert quotient_order(np.zeros((2, 3), dtype=np.int64), [n, 2**40], n) == n * 2**40


@pytest.mark.parametrize("n", [2, 12, 72, 2**21, 2**61 - 1, 2**62])
def test_quotient_order_matches_the_column_fold(n):
    rng = random.Random(n)
    divisors = [d for d in (1, 2, 3, 4, 6, 8, 9, 1024, 2**40, n // 2, n // 3, n) if d and n % d == 0]
    for rows, cols in [(0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (3, 2), (4, 4), (5, 8), (8, 5)] * 4:
        orders = [rng.choice(divisors) for _ in range(rows)]
        # entries across the whole int64 range, or multiples of divisors of n
        if rng.random() < 0.5:
            entries = [rng.randrange(-(2**63), 2**63) for _ in range(rows * cols)]
        else:
            entries = [rng.randrange(-n, 2 * n) * rng.choice(divisors) % n - rng.choice((0, n)) for _ in range(rows * cols)]
        a = np.array(entries, dtype=np.int64).reshape(rows, cols)
        assert quotient_order(a, orders, n) == oracle.quotient_order(a, orders, n), (rows, cols, orders)
        assert quotient_order(a.tolist(), orders, n) == oracle.quotient_order(a, orders, n)


def test_quotient_order_needs_one_row_per_order():
    with pytest.raises(ValueError, match=r"^expected one row per order: 2 rows, 1 orders$"):
        quotient_order([[1], [2]], [4], 4)
    with pytest.raises(ValueError, match=r"^expected one row per order: 1 rows, 2 orders$"):
        quotient_order([[1]], [4, 4], 4)
    with pytest.raises(ValueError, match=r"^expected one row per order: 0 rows, 1 orders$"):
        quotient_order(np.zeros((0, 2), dtype=np.int64), [4], 4)
    assert quotient_order([], [], 4) == 1


def test_quotient_order_rejects_orders_that_do_not_divide_n():
    # Z/3 is not a Z/4-module; 8, 0 and -2 were read as 4, 4 and 2
    for order in (3, 8, 0, -2):
        with pytest.raises(ValueError, match=rf"^order {order} must divide 4$"):
            quotient_order([[0]], [order], 4)
    assert quotient_order([[0]], [4], 4) == 4


def _old_rule_accepts(mat, dom, cod):
    """The former check: every (m_ji * d_i) % e_j is zero, in Python ints."""
    return all(
        (int(mat[j][i]) % e * d) % e == 0 for j, e in enumerate(cod.factors) for i, d in enumerate(dom.factors)
    )


def test_modhom_accepts_exactly_what_the_product_rule_accepts():
    for n in range(2, 37):
        modulus = Modulus(n)
        divs = [d for d in modulus.divisors if d > 1]
        for d in divs:
            for e in divs:
                dom, cod = FinMod(modulus, (d,)), FinMod(modulus, (e,))
                for m in range(-e, 2 * e):
                    ok = _old_rule_accepts([[m]], dom, cod)
                    try:
                        ModHom(dom, cod, [[m]])
                    except ValueError:
                        assert not ok, (n, d, e, m)
                    else:
                        assert ok, (n, d, e, m)
    rng = random.Random(9)
    for _ in range(300):
        modulus = Modulus(rng.choice([4, 8, 12, 36, 72]))
        dom, cod = rng.choice(_modules(modulus)), rng.choice(_modules(modulus))
        mat = [[rng.randrange(modulus.n) for _ in range(dom.rank)] for _ in range(cod.rank)]
        try:
            ModHom(dom, cod, mat)
        except ValueError as exc:
            assert not _old_rule_accepts(mat, dom, cod)
            assert "is not well defined" in str(exc)
        else:
            assert _old_rule_accepts(mat, dom, cod)


def test_modhom_error_names_the_first_bad_entry():
    modulus = Modulus(12)
    dom, cod = FinMod(modulus, (2, 6)), FinMod(modulus, (4, 12))
    with pytest.raises(ValueError, match=r"entry 1 at \(0,1\) is not well defined: 1\*6 != 0 mod 4"):
        ModHom(dom, cod, [[2, 1], [6, 2]])


def test_modhom_rule_is_exact_up_to_the_modulus_cap():
    # n = 3**39, where the product 3 * n wraps int64, is refused by the
    # modulus cap; at 3**13, the largest power of 3 under it, the rule holds
    with pytest.raises(ValueError, match="MAX_MODULUS"):
        Modulus(3**39)
    n = 3**13
    modulus = Modulus(n)
    free, three = FinMod(modulus, (n,)), FinMod(modulus, (3,))
    assert ModHom(free, free, [[3]]).matrix == ((3,),)
    assert ModHom(three, free, [[3**12]]).matrix == ((3**12,),)
    with pytest.raises(ValueError, match="is not well defined"):
        ModHom(three, free, [[3**11]])


def _mod_exact_by_presentations(cx, k):
    ker, _ = kernel_of_hom(cx.diffs[k])
    img, _ = image_of_hom(cx.diffs[k + 1])
    coker = cokernel_of_hom(cx.diffs[k])[0]
    assert (kernel_order(cx.diffs[k]), cokernel_order(cx.diffs[k])) == (ker.cardinality, coker.cardinality)
    return ker.cardinality == img.cardinality and cx.diffs[k].compose(cx.diffs[k + 1]).is_zero


def test_mod_complex_exactness_matches_presentations():
    rng = random.Random(17)
    seen = {True: 0, False: 0}
    for n in (4, 6, 8, 9, 12, 36):
        modulus = Modulus(n)
        for m in _modules(modulus):
            cx, _ = gi_module_certificate(m)
            scaled = [cx]
            for k in cx.diffs:
                c = rng.choice(modulus.divisors[:-1])
                diffs = dict(cx.diffs)
                diffs[k] = ModHom(diffs[k].domain, diffs[k].codomain, c * arr(diffs[k].matrix, diffs[k].domain.rank))
                scaled.append(ModComplex(cx.components, diffs))
            for x in scaled:
                for k in x.degrees()[1:-1]:
                    got = x.is_exact_at(k)
                    assert got == _mod_exact_by_presentations(x, k)
                    seen[got] += 1
    assert seen[True] and seen[False]


def _rep_exact_by_presentations(cx, k):
    img, _ = image_rep(cx.diffs[k + 1])
    ker, _ = kernel_rep(cx.diffs[k])
    return all(img.vertex_modules[v].cardinality == ker.vertex_modules[v].cardinality for v in img.quiver.vertices)


def _scaled(f, c):
    return RepMorphism(f.source, f.target, {v: ModHom(h.domain, h.codomain, c * arr(h.matrix, h.domain.rank)) for v, h in f.components.items()})


def test_rep_complex_exactness_matches_presentations():
    rng = random.Random(29)
    quivers = [a2(), make_quiver([1, 2, 3], [("a", 1, 2), ("b", 1, 3)])]
    seen = {True: 0, False: 0}
    checked = 0
    while checked < 20:
        modulus = Modulus(rng.choice([4, 6, 8, 9]))
        x = random_representation(rng, rng.choice(quivers), modulus, Config(), max_rank=1)
        cert, _ = totally_acyclic_injective_complex(x, depth=1)
        if cert is None:
            continue
        checked += 1
        cx = cert.complex
        variants = [cx]
        for k in cx.diffs:
            diffs = dict(cx.diffs)
            diffs[k] = _scaled(diffs[k], rng.choice(modulus.divisors[1:-1]))
            variants.append(RepComplex(cx.components, diffs))
        for y in variants:
            for k in y.interior_degrees():
                got = y.is_exact_at(k)
                assert got == _rep_exact_by_presentations(y, k)
                seen[got] += 1
    assert seen[True] and seen[False]
