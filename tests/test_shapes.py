"""Every linear-system entry point takes its shapes from the caller, so a
system with no equations, no unknowns or no right-hand sides keeps every
count: `solve_congruences`, `ambient_coords_solve`,
`HomSystem.add_equation` (whose counts are the ends of its homs) and
`ExtComputation.cocycle_to_ext_coords` agree with the numpy oracle of
`linalg_oracle`, which shapes its arrays from the counts alone, and their
results have the stated shapes."""

import random
from collections import namedtuple
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import linalg_oracle as oracle
from linalg_oracle import arr
from quiverhom.harness import Config, random_finmod, random_representation
from quiverhom.homology import ExtComputation
from quiverhom.linalg import matmul, mod_rows
from quiverhom.quiver import a2, kronecker
from quiverhom.znmod import HomSystem, Modulus, ambient_coords_solve, cyclic, hom_entry_scales, identity_hom, random_hom, solve_congruences, zero_hom, zero_mod

moduli = st.sampled_from([2, 3, 4, 6, 8, 9, 12])

# a zero count forced on one dimension of the system, the others drawn
ZERO = {
    "drawn": {},
    "no equations": {"equations": 0},
    "no unknowns": {"unknowns": 0},
    "no right-hand sides": {"cols": 0},
}


System = namedtuple("System", "a b cols rows orders modulus")


@st.composite
def systems(draw, equations=None, unknowns=None, cols=None, free=False):
    """A well-defined `System` a @ x == b, rows read mod `rows`, unknowns
    of orders `orders`; each of the `cols` right-hand sides is in the image
    of a or arbitrary.  With `free` every unknown has order n, as the
    columns of an inclusion do."""
    n = draw(moduli)
    divisors = Modulus(n).divisors

    def count(fixed):
        return draw(st.integers(0, 3)) if fixed is None else fixed

    rows = [draw(st.sampled_from(divisors)) for _ in range(count(equations))]
    orders = [n if free else draw(st.sampled_from(divisors)) for _ in range(count(unknowns))]
    k = count(cols)
    # well defined: each coefficient a multiple of r / gcd(m, r)
    a = [[r // gcd(m, r) * draw(st.integers(0, n - 1)) for m in orders] for r in rows]
    columns = []
    for _ in range(k):
        if draw(st.booleans()):
            x = [draw(st.integers(0, m - 1)) for m in orders]
            columns.append([sum(c * v for c, v in zip(row, x)) for row in a])
        else:
            columns.append([draw(st.integers(0, n - 1)) for _ in rows])
    b = tuple(tuple(col[i] for col in columns) for i in range(len(rows)))
    return System(a, b, k, rows, orders, Modulus(n))


def _oracle(s: System):
    return oracle.solve_congruences(s.a, s.b, s.cols, s.rows, s.orders, s.modulus.n)


@pytest.mark.parametrize("zero", list(ZERO))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_solve_congruences_keeps_every_stated_count(zero, data):
    s = data.draw(systems(**ZERO[zero]))
    got, want = solve_congruences(*s), _oracle(s)
    assert (got is None) == (want is None)
    if got is not None:
        part, kern = got
        assert len(part) == len(s.orders) and all(len(row) == s.cols for row in part)
        assert np.array_equal(arr(part, s.cols), want[0]) and np.array_equal(arr(kern, len(s.orders)), want[1])
        if not s.rows:
            # nothing constrains the unknowns: every right-hand side solves to 0
            assert part == ((0,) * s.cols,) * len(s.orders)


@pytest.mark.parametrize("zero", list(ZERO))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_ambient_coords_solve_takes_rank_and_target_count(zero, data):
    # no equations is a zero-rank ambient, no unknowns a zero column module
    s = data.draw(systems(**ZERO[zero], free=True))
    got, want = ambient_coords_solve(s.rows, s.a, len(s.orders), s.b, s.cols, s.modulus), _oracle(s)
    assert (got is None) == (want is None)
    if got is not None:
        assert len(got) == len(s.orders) and all(len(row) == s.cols for row in got)
        assert np.array_equal(arr(got, s.cols), want[0])


@pytest.mark.parametrize("zero", ["drawn", "no equations", "no right-hand sides", "unknown from 0", "unknown into 0"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_add_equation_takes_its_column_count_from_rhs(zero, data):
    # sign * L U R == rhs for the unknown U: D -> E, with L: E -> F, R: C -> D
    # and rhs: C -> F; F gives the equations' row factors and the rank of C
    # the column count
    modulus = Modulus(data.draw(moduli))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    forced = {"no equations": "F", "no right-hand sides": "C", "unknown from 0": "D", "unknown into 0": "E"}.get(zero)
    c, d, e, f = (zero_mod(modulus) if name == forced else random_finmod(rng, modulus, Config()) for name in "CDEF")
    sign, left, right = data.draw(st.sampled_from([1, -1])), random_hom(rng, e, f), random_hom(rng, c, d)
    rhs = left.compose(random_hom(rng, d, e)).compose(right) if data.draw(st.booleans()) else random_hom(rng, c, f)
    sysm = HomSystem(modulus)
    var = sysm.add_hom_unknown(d, e)
    sysm.add_equation([(sign, left, var, right)], rhs)
    got = sysm.solve()
    # row (a, b), column (j, i): sign L[a, j] R[i, b] scales[j, i], rows read mod F
    scales = arr(hom_entry_scales(d.factors, e.factors), d.rank)
    block = sign * np.einsum("aj,ib,ji->abji", arr(left.matrix, e.rank), arr(right.matrix, c.rank), scales).reshape(f.rank * c.rank, e.rank * d.rank)
    row_moduli = np.repeat(np.array(f.factors, dtype=np.int64), c.rank)
    want = oracle.solve_congruences(block, arr(rhs.matrix, c.rank).reshape(-1, 1), 1, row_moduli, sysm.orders, modulus.n)
    assert (got is None) == (want is None)
    if got is not None:
        assert got[0] == tuple(want[0][:, 0]) and np.array_equal(arr(got[1], len(sysm.orders)), want[1])
        u = sysm.assignment(got[0])[0]
        assert (u.domain, u.codomain) == (d, e) and sysm.flat_of([u]) == got[0]
        assert left.compose(u).compose(right) == (rhs if sign == 1 else -rhs)


def test_add_equation_rejects_a_term_whose_homs_do_not_meet():
    z4 = Modulus(4)
    two, four = cyclic(z4, 2), cyclic(z4, 4)
    sysm = HomSystem(z4)
    var = sysm.add_hom_unknown(four, two)
    for term, rhs in (
        ((1, identity_hom(four), var, None), zero_hom(four, four)),  # L starts off U's codomain
        ((1, None, var, identity_hom(two)), zero_hom(two, two)),  # R ends off U's domain
        ((1, None, var, None), zero_hom(four, four)),  # U ends off rhs's codomain
        ((1, None, var, None), zero_hom(two, two)),  # U starts off rhs's domain
        ((1, zero_hom(two, four), var, None), zero_hom(four, two)),  # L ends off rhs's codomain
    ):
        with pytest.raises(ValueError, match="does not run from"):
            sysm.add_equation([term], rhs)
    # nothing was added, and a term that meets is taken
    sysm.add_equation([(1, None, var, None)], zero_hom(four, two))
    assert sysm.solve()[0] == (0,)


@pytest.mark.parametrize("cols", [0, 1, 3])
@given(seed=st.integers(0, 2**32), n=moduli, m=st.integers(0, 2))
@settings(max_examples=25, deadline=None)
def test_cocycle_to_ext_coords_takes_the_cochain_count(cols, seed, n, m):
    # `cols` cocycles, each a combination of the kernel generators of delta_m
    rng = random.Random(seed)
    modulus = Modulus(n)
    q = rng.choice([a2(), kronecker()])
    comp = ExtComputation(*(random_representation(rng, q, modulus, Config(), max_rank=2) for _ in range(2)))
    gens, quo, proj, sect = comp._data(m)
    k, orders = len(sect), comp.orders[m]
    cochains = mod_rows(matmul(gens, [[rng.randrange(n) for _ in range(cols)] for _ in range(k)], cols), orders)
    got = comp.cocycle_to_ext_coords(m, cochains, cols)
    assert len(got) == quo.rank and all(len(row) == cols for row in got)
    coords = oracle.solve_congruences(gens, cochains, cols, orders, [n] * k, n)[0]
    want = arr(proj, k).dot(coords) % np.array(quo.factors, dtype=np.int64).reshape(-1, 1)
    assert np.array_equal(arr(got, cols), want)
