import itertools
import random
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import linalg_oracle as oracle
from linalg_oracle import arr
from quiverhom import linalg, znmod
from quiverhom.linalg import (
    diagonalize,
    from_entries,
    howell_form,
    matmul,
    quotient_order,
    solve_left,
    unit_multiplier,
    xgcd,
)
from quiverhom.znmod import Modulus, solve_congruences


def assert_read_only(m):
    """Rows are tuples, and assignment raises TypeError."""
    assert type(m) is tuple and all(type(row) is tuple for row in m)
    with pytest.raises(TypeError):
        m[0] = ()
    for row in m[:1]:
        with pytest.raises(TypeError):
            row[0] = 0


def solve_right(a, b, n: int):
    """Solve a @ X == b (mod n) columnwise; returns (X, K) with kernel
    columns, or None: `solve_left` on the transposes."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if b.shape[:1] != a.shape[:1]:
        raise ValueError(f"shape mismatch: a is {a.shape}, b is {b.shape}")
    out = solve_left(a.T, b.T, a.shape[0], n)
    if out is None:
        return None
    y, kern = out
    return arr(y, a.shape[1]).T, arr(kern, a.shape[1]).T


def rand_mat(rng, rows, cols, n):
    return np.array(
        [rng.randrange(n) for _ in range(rows * cols)], dtype=np.int64
    ).reshape(rows, cols)


def brute_solutions(a, b, n):
    """All x with a @ x == b (mod n), by exhaustive search."""
    a = np.asarray(a)
    m, k = a.shape
    sols = []
    for x in itertools.product(range(n), repeat=k):
        xv = np.array(x, dtype=np.int64)
        if np.array_equal(a.dot(xv) % n, np.asarray(b) % n):
            sols.append(tuple(x))
    return set(sols)


def span_of(rows, n):
    rows = np.asarray(rows)
    if rows.shape[0] == 0:
        return {tuple(np.zeros(rows.shape[1], dtype=int))}
    out = set()
    for c in itertools.product(range(n), repeat=rows.shape[0]):
        v = np.zeros(rows.shape[1], dtype=np.int64)
        for ci, r in zip(c, rows):
            v = (v + ci * r) % n
        out.add(tuple(int(t) for t in v))
    return out


def test_xgcd():
    for a in range(-12, 13):
        for b in range(-12, 13):
            g, s, t = xgcd(a, b)
            assert s * a + t * b == g
            assert g >= 0


def test_unit_multiplier():
    from math import gcd

    for n in (2, 3, 4, 6, 8, 9, 12):
        for a in range(n):
            u = unit_multiplier(a, n)
            assert gcd(u, n) == 1
            assert (u * a) % n == gcd(a, n) % n


def test_solver_named_cases():
    # kernel of doubling mod 4
    out = solve_right([[2]], [[0]], 4)
    assert out is not None
    x, kern = out
    assert x[0, 0] == 0
    assert span_of(kern.T, 4) == {(0,), (2,)}
    # unit coefficient
    out = solve_right([[1]], [[3]], 4)
    assert out is not None
    assert out[0][0, 0] == 3
    assert out[1].shape[1] == 0 or not out[1].any()
    # 2x = 1 mod 4 has no solution
    assert solve_right([[2]], [[1]], 4) is None


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9])
def test_howell_is_canonical_for_row_span(n):
    rng = random.Random(17 * n)
    for _ in range(40):
        rows = rng.randrange(0, 4)
        cols = rng.randrange(1, 4)
        a = rand_mat(rng, rows, cols, n)
        h = howell_form(a, n)
        assert span_of(a, n) == span_of(arr(h, cols), n)
        # permuting/duplicating generators does not change the form
        if rows:
            perm = list(range(rows))
            rng.shuffle(perm)
            a2 = np.vstack([a[perm], a[rng.randrange(rows)][None, :]])
            assert howell_form(a2, n) == h


@pytest.mark.parametrize("n", [4, 6, 8, 9])
def test_solve_right_matches_brute_force(n):
    rng = random.Random(5 * n)
    for _ in range(30):
        m = rng.randrange(1, 4)
        k = rng.randrange(1, 4)
        a = rand_mat(rng, m, k, n)
        x0 = np.array([rng.randrange(n) for _ in range(k)], dtype=np.int64)
        b = a.dot(x0) % n
        out = solve_right(a, b.reshape(-1, 1), n)
        assert out is not None
        part, kern = out
        assert np.array_equal(a.dot(part[:, 0]) % n, b)
        got = set()
        for c in itertools.product(range(n), repeat=kern.shape[1]):
            v = part[:, 0].copy()
            for ci, col in zip(c, kern.T):
                v = (v + ci * col) % n
            got.add(tuple(int(t) for t in v))
        assert got == brute_solutions(a, b, n)


@pytest.mark.parametrize("n", [4, 6, 9])
def test_inconsistent_detected(n):
    rng = random.Random(n)
    for _ in range(60):
        m = rng.randrange(1, 3)
        k = rng.randrange(1, 3)
        a = rand_mat(rng, m, k, n)
        b = np.array([rng.randrange(n) for _ in range(m)], dtype=np.int64)
        out = solve_right(a, b.reshape(-1, 1), n)
        brute = brute_solutions(a, b, n)
        if out is None:
            assert not brute
        else:
            assert tuple(int(t) for t in out[0][:, 0]) in brute


def test_kernels_left_right():
    n = 8
    a = np.array([[2, 4], [0, 2]], dtype=np.int64)
    kr = solve_right(a, np.zeros((2, 0), dtype=np.int64), n)[1]
    for col in kr.T:
        assert not (a.dot(col) % n).any()
    kl = solve_left(a, np.zeros((0, 2), dtype=np.int64), 2, n)[1]
    for row in kl:
        assert not (np.array(row).dot(a) % n).any()
    # completeness against brute force
    assert span_of(kr.T, n) == brute_solutions(a, [0, 0], n)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9, 12])
def test_diagonalize_random(n):
    rng = random.Random(11 * n)
    for _ in range(40):
        m = rng.randrange(1, 5)
        k = rng.randrange(1, 5)
        a = rand_mat(rng, m, k, n)
        factors, proj, sect = diagonalize(a, n)
        r = len(factors)
        f = np.array(factors, dtype=np.int64).reshape(r, 1)
        # the kept rows of U a V == diag(d): proj kills every relation, is
        # split by sect, and the factors have the order of the cokernel, so
        # proj induces an isomorphism onto Z/f_1 + ... + Z/f_r
        proj, sect = arr(proj, m), arr(sect, r)
        assert not (proj.dot(a) % f).any()
        assert np.array_equal(proj.dot(sect) % f, np.eye(r, dtype=np.int64))
        assert prod(factors) == quotient_order(a, [n] * m, n)
        assert proj.shape == (r, m) and sect.shape == (m, r) and r <= m
        for i in range(r - 1):
            assert factors[i + 1] % factors[i] == 0
        for di in factors:
            assert di > 1 and n % di == 0


def test_diagonalize_chain_includes_lcm_case():
    factors, *_ = diagonalize([[2, 0], [0, 3]], 6)
    assert factors == (6,)


def _memo_inputs():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randrange(2, 13)
        m, k = rng.randrange(0, 4), rng.randrange(0, 5)
        a = rand_mat(rng, m, k, n)
        b = rand_mat(rng, rng.randrange(0, 3), k, n)
        yield n, a, b


def test_memo_matches_uncached_kernel(monkeypatch):
    for n, a, b in _memo_inputs():
        for kernel, memo, args in ((solve_left, linalg._echelon, (a, b, a.shape[1], n)), (diagonalize, linalg._diagonalize, (a, n))):
            first = kernel(*args)
            cached = kernel(*args)
            assert memo.cache_info().hits >= 1
            memo.cache_clear()
            fresh = kernel(*args)
            assert _identical(cached, first)
            assert _identical(cached, fresh)
            with monkeypatch.context() as m:
                m.setattr(linalg, "_MEMO_MAX_CELLS", -1)  # every input skips the cache
                assert _identical(cached, kernel(*args))


def test_memo_results_are_read_only():
    n, a = 12, np.array([[2, 4, 6], [3, 0, 9]], dtype=np.int64)
    for args in ((a, a[:1], 3, n), (a, a[:1] + 1, 3, n), (a, n), (np.ones((9, 9), dtype=np.int64), n)):
        kernel = solve_left if len(args) == 4 else diagonalize
        for _ in range(2):  # first call fills the cache, second hits it
            out = kernel(*args)
            if out is None:
                continue
            for x in out[kernel is diagonalize :]:  # the matrices; the chain is a tuple of ints
                assert_read_only(x)
    # a cached result is handed out as it is: a tuple, shared by every caller
    assert isinstance(diagonalize(a, n)[0], tuple)
    assert diagonalize(a, n) is diagonalize(a, n)


def test_howell_form_reads_arrays_and_int_rows_and_is_read_only():
    a = np.array([[2, 4, 6], [3, 0, 9]], dtype=np.int64)
    h = howell_form(a, 12)
    assert h == ((1, 8, 3),)  # (3, 0, 9) - (2, 4, 6) generates both rows
    assert _identical(howell_form(a.tolist(), 12), h)
    assert howell_form(np.zeros((0, 3), dtype=np.int64), 12) == ()
    assert howell_form(np.zeros((2, 3), dtype=np.int64), 12) == ()
    assert howell_form([], 12) == ()
    for out in (h, howell_form([], 12)):
        assert_read_only(out)


def test_memo_skips_inputs_over_64_cells():
    rng = random.Random(3)
    # the cells of a alone count for solve_left: 9 x 8 is over the limit
    for kernel, memo, args in (
        (solve_left, linalg._echelon, (rand_mat(rng, 9, 8, 6), rand_mat(rng, 1, 8, 6), 8, 6)),
        (diagonalize, linalg._diagonalize, (rand_mat(rng, 5, 13, 6), 6)),
    ):
        before = memo.cache_info()
        kernel(*args)
        after = memo.cache_info()
        assert after.currsize == before.currsize
        assert (after.hits, after.misses) == (before.hits, before.misses)
    # an 8 x 8 a is cached, however many cells b adds
    before = linalg._echelon.cache_info()
    solve_left(rand_mat(rng, 8, 8, 6), rand_mat(rng, 3, 8, 6), 8, 6)
    after = linalg._echelon.cache_info()
    assert after.hits + after.misses == before.hits + before.misses + 1


# -- the zero-skipping product against a plain triple loop -------------------


def triple_loop(a, b, inner, cols):
    """a b entry by entry, where a has `inner` columns and b `cols`."""
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)) for i in range(len(a)))


@st.composite
def factors(draw):
    """(seed, rows, inner, cols, density): small factors with some counts
    zero, or large ones 1-5 % nonzero.  Only these are drawn: the entries
    come from `random.Random(seed)` in the test, since a large factor drawn
    entry by entry would exceed hypothesis's entropy budget."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        rows, inner, cols = (draw(st.integers(30, 120)) for _ in range(3))
        density = draw(st.floats(0.01, 0.05))
    else:
        rows, inner, cols = (draw(st.integers(0, 5)) for _ in range(3))
        density = draw(st.sampled_from([0.0, 0.3, 1.0]))
    return seed, rows, inner, cols, density


def random_factors(seed, rows, inner, cols, density):
    """(a, b): entries negative or unreduced as often as not, since
    `matmul` is exact over Z, and each factor with an all-zero row half the
    time."""
    rng = random.Random(seed)

    def entry():
        return rng.choice([rng.randrange(-(2**40), 2**40), rng.randrange(1, 10)]) if rng.random() < density else 0

    a = [[entry() for _ in range(inner)] for _ in range(rows)]
    b = [[entry() for _ in range(cols)] for _ in range(inner)]
    for m, width in ((a, inner), (b, cols)):
        if m and rng.random() < 0.5:
            m[rng.randrange(len(m))] = [0] * width  # an all-zero row
    return tuple(map(tuple, a)), tuple(map(tuple, b))


@given(factors())
@settings(max_examples=80, deadline=None)
def test_matmul_matches_the_triple_loop(args):
    seed, rows, inner, cols, density = args
    a, b = random_factors(seed, rows, inner, cols, density)
    got = matmul(a, b, cols)
    assert got == triple_loop(a, b, inner, cols)
    assert len(got) == len(a) and all(len(row) == cols for row in got)
    assert _ints(got)


def test_matmul_with_no_rows():
    assert matmul((), ((1, 2),), 2) == ()
    # b with no rows: a has rows of no entries, and the product is zero
    assert matmul(((), ()), (), 3) == ((0, 0, 0), (0, 0, 0))
    assert matmul(((0, 0),), ((5, -7), (2**70, 1)), 2) == ((0, 0),)
    assert matmul(((-1, 3),), ((5, -7), (2**70, 1)), 2) == ((3 * 2**70 - 5, 10),)


# -- the one block writer against a dense accumulation ----------------------


@st.composite
def triples(draw):
    """(rows, cols, entries): shapes with some counts zero, and triples
    over few cells, so that many land on one cell and add up; values are
    small, negative or 40-bit."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    values = st.integers(-3, 3) | st.integers(-(2**40), 2**40)
    if not (rows and cols):
        return rows, cols, []
    cell = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    cells = draw(st.lists(cell, min_size=1, max_size=4))
    entries = draw(st.lists(st.tuples(st.sampled_from(cells), values), max_size=20))
    return rows, cols, [(i, j, x) for (i, j), x in entries]


@given(triples())
@settings(max_examples=200, deadline=None)
def test_from_entries_matches_dense_accumulation(args):
    rows, cols, entries = args
    got = from_entries(rows, cols, entries)
    assert len(got) == rows and all(len(row) == cols for row in got)
    assert _ints(got)
    assert np.array_equal(arr(got, cols), oracle.from_entries(rows, cols, entries))


def test_from_entries_edge_cases():
    assert from_entries(0, 3, []) == ()
    assert from_entries(2, 0, []) == ((), ())
    assert from_entries(2, 2, []) == ((0, 0), (0, 0))
    # duplicates add, to zero as well, and stay unreduced
    assert from_entries(1, 2, [(0, 0, 2**40), (0, 1, 5), (0, 0, 2**40), (0, 1, -5)]) == ((2**41, 0),)
    assert_read_only(from_entries(2, 2, [(1, 0, -1)]))
    for i, j in ((2, 0), (0, 2)):
        with pytest.raises(IndexError):
            from_entries(2, 2, [(i, j, 1)])


# -- the kernels against the numpy oracle -----------------------------------
#
# `linalg_oracle` holds the numpy kernels that large inputs took before each
# operation had one kernel.  They do the same operations in the same order
# on dense arrays, so both must return identical results: the package's
# tuples of int rows hold the entries of the oracle's int64 arrays.

MODULI = (2, 4, 12, 72, 510510, 2097143, 2**21)


def _ints(x):
    """x is a Python int, or tuples of them all the way down."""
    return all(map(_ints, x)) if type(x) is tuple else type(x) is int


def _identical(x, y):
    """x, a result of the package, equals y, another one or the oracle's,
    where the oracle's matrices are int64 arrays of the same entries."""
    if x is None or y is None:
        return x is None and y is None
    if isinstance(y, np.ndarray):
        return (
            _ints(x) and y.dtype == np.int64 and y.ndim == 2 and len(x) == y.shape[0]
            and all(len(row) == y.shape[1] for row in x) and np.array_equal(np.array(x, dtype=np.int64).reshape(y.shape), y)
        )
    if any(isinstance(v, np.ndarray) for v in y):  # an oracle tuple of results
        return type(x) is tuple and len(x) == len(y) and all(_identical(u, v) for u, v in zip(x, y))
    return _ints(x) and _ints(y) and x == y


def oracle_diagonalize(a, n: int):
    """`oracle.diagonalize`'s (d, U, Uinv), cut down as `diagonalize` cuts
    it: the d_i above 1, their rows of U, each mod its d_i, and the
    matching columns of Uinv."""
    d, u, uinv = oracle.diagonalize(a, n)
    keep = [i for i, di in enumerate(d) if di > 1]
    factors = tuple(d[i] for i in keep)
    return factors, u[keep] % np.array(factors, dtype=np.int64).reshape(-1, 1), uinv[:, keep]


def _divisor_scaled(rng, rows, cols, n):
    """Entries that are often zero divisors: each column times a divisor of n."""
    divisors = [d for d in (1, 2, 3, 4, 6, 8, 9, 12, 16, 17, 64, 1024, n // 2, n // 3) if d and n % d == 0]
    a = rand_mat(rng, rows, cols, n)
    return (a * np.array([rng.choice(divisors) for _ in range(cols)], dtype=np.int64)) % n


@pytest.mark.parametrize("n", MODULI)
def test_int_and_numpy_kernels_agree(n):
    rng = random.Random(n)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (3, 2), (4, 4), (5, 8), (9, 6), (12, 20)]
    inconsistent = 0
    for m, k in shapes:
        for _ in range(3):
            a = _divisor_scaled(rng, m, k, n) if rng.random() < 0.5 else rand_mat(rng, m, k, n)
            # rows of b: none, consistent ones, and (usually) inconsistent ones
            for b in (rand_mat(rng, 0, k, n), rand_mat(rng, 2, m, n).dot(a) % n, rand_mat(rng, 2, k, n)):
                linalg._echelon.cache_clear()
                got = solve_left(a, b, k, n)
                assert _identical(got, oracle.solve_left(a, b, n))
                # the same matrices as rows of Python ints
                assert _identical(solve_left(a.tolist(), b.tolist(), k, n), got)
                inconsistent += got is None
            # unreduced and negative entries are reduced once, on entry
            raw = a - n * rand_mat(rng, m, k, 3)
            assert _identical(howell_form(raw, n), oracle.howell_form(a, n))
            linalg._diagonalize.cache_clear()
            assert _identical(diagonalize(raw, n), oracle_diagonalize(a, n))
            assert _identical(diagonalize(raw.tolist(), n), oracle_diagonalize(a, n))
    assert inconsistent


def test_solve_left_checks_the_shape_of_int_rows():
    with pytest.raises(ValueError, match=r"^matrix rows differ in length: \[1, 2\]$"):
        solve_left([[1, 2], [3]], [[0, 0]], 2, 4)
    with pytest.raises(ValueError, match=r"^shape mismatch: a is \(1, 2\), b is \(1, 1\), expected 2 columns$"):
        solve_left([[1, 2]], [[0]], 2, 4)
    # a and b agree with each other but not with the stated count
    with pytest.raises(ValueError, match=r"^shape mismatch: a is \(1, 2\), b is \(1, 2\), expected 3 columns$"):
        solve_left([[1, 2]], [[0, 0]], 3, 4)
    with pytest.raises(ValueError, match=r"^shape mismatch: a is \(0, None\), b is \(1, 2\), expected 3 columns$"):
        solve_left([], [[0, 0]], 3, 4)
    # a with no rows has no unknowns: y @ a is zero, whatever the count
    assert solve_left([], [[0, 0]], 2, 4)[0] == ((),)
    assert solve_left([], [[1, 0]], 2, 4) is None
    assert solve_left([], [], 3, 4) == ((), ())


def test_one_howell_form_per_coefficient_matrix(monkeypatch):
    """One a against three b's: no rows, consistent rows, and rows that are
    not, through one Howell form of [a | I]; each answer is the oracle's."""
    rng, n = random.Random(47), 12
    a = _divisor_scaled(rng, 4, 5, n)
    a[:, 4] = 0  # so that a b with a nonzero last column is inconsistent
    consistent = rand_mat(rng, 2, 4, n).dot(a) % n
    bs = (rand_mat(rng, 0, 5, n), consistent, consistent + (np.arange(5) == 4))
    calls = []
    monkeypatch.setattr(linalg, "howell_form", lambda rows, n: calls.append(rows) or howell_form(rows, n))
    linalg._echelon.cache_clear()
    outs = [solve_left(a, b, 5, n) for b in bs]
    assert len(calls) == 1
    assert [out is None for out in outs] == [False, False, True]
    for b, out in zip(bs, outs):
        assert _identical(out, oracle.solve_left(a, b, n))


@pytest.mark.parametrize("n", [2**61 - 1, 2**62])
def test_rows_of_numpy_scalars_are_read_as_python_ints(n):
    rng = random.Random(n)
    for m, k in ((2, 2), (3, 4), (5, 3)):
        a = np.array([rng.randrange(-(2**63), 2**63) for _ in range(m * k)], dtype=np.int64).reshape(m, k)
        rows = list(a)  # numpy rows, whose scalars would wrap in int64 products
        assert _identical(howell_form(rows, n), howell_form(a, n))
        assert _identical(solve_left(rows, rows[:1], k, n), solve_left(a, a[:1], k, n))
        assert _identical(diagonalize(rows, n), diagonalize(a, n))
        assert quotient_order(rows, [n] * m, n) == quotient_order(a, [n] * m, n)


@pytest.mark.parametrize("n", [72, 2**21])
def test_kernels_match_the_oracle_across_the_former_cutoff(n):
    rng = random.Random(5)
    # 1,024 and 1,025 cells, the former cutoff between the kernels: counted
    # rows * cols for howell_form, rows * (rows + cols) for the other two
    for kernel, want, (m, k) in (
        (howell_form, oracle.howell_form, (32, 32)),
        (howell_form, oracle.howell_form, (25, 41)),
        (solve_left, oracle.solve_left, (16, 48)),
        (solve_left, oracle.solve_left, (25, 16)),
        (diagonalize, oracle_diagonalize, (16, 48)),
        (diagonalize, oracle_diagonalize, (25, 16)),
    ):
        a = _divisor_scaled(rng, m, k, n)
        args = (a, rand_mat(rng, 2, m, n).dot(a) % n) if kernel is solve_left else (a,)
        counts = (k,) if kernel is solve_left else ()
        assert _identical(kernel(*args, *counts, n), want(*args, n)), (kernel.__name__, m, k)


def _sparse_mat(rng, rows, cols, n, density):
    """About `density` of the entries nonzero, each a random multiple of a
    divisor of n, with some rows and columns left all zero, the last column
    among them."""
    divisors = [d for d in (1, 2, 3, 4, 8, 9, 17, 1024, n // 2, n // 3) if d and n % d == 0]
    a = np.zeros((rows, cols), dtype=np.int64)
    live_rows = [i for i in range(rows) if rng.random() < 0.9]
    live_cols = [j for j in range(cols - 1) if rng.random() < 0.9]
    for _ in range(round(density * rows * cols)):
        if live_rows and live_cols:
            a[rng.choice(live_rows), rng.choice(live_cols)] = rng.randrange(1, n) * rng.choice(divisors) % n
    return a


@pytest.mark.parametrize("n", [72, 2097143, 2**21])
def test_kernels_match_the_oracle_on_large_sparse_inputs(n):
    """Shapes and densities like the largest inputs `ext`, `purity` and
    `classify` build on bigger quivers: about 110 x 160, 0.1-12 % nonzero."""
    rng = random.Random(n + 1)
    shapes = [(0, 40), (40, 0), (1, 150), (150, 1), (110, 160), (160, 110), (70, 70), (48, 96)]
    for (m, k), density in zip(shapes, (0.05, 0.05, 0.12, 0.12, 0.001, 0.02, 0.12, 0.06)):
        a = _sparse_mat(rng, m, k, n, density)
        b = np.vstack([_sparse_mat(rng, 2, m, n, 0.1).dot(a) % n, _sparse_mat(rng, 1, k, n, 0.05)])
        assert _identical(howell_form(a, n), oracle.howell_form(a, n)), (m, k)
        # consistent rows; one off in the zero last column only; a random one
        off = b[:1] + (np.arange(k) == k - 1)
        for rhs in (b[:2], off, b):
            assert _identical(solve_left(a, rhs, k, n), oracle.solve_left(a, rhs, n)), (m, k)
        assert _identical(diagonalize(a, n), oracle_diagonalize(a, n)), (m, k)
        assert _identical(diagonalize(a.T, n), oracle_diagonalize(a.T, n)), (k, m)


@pytest.mark.parametrize("n", MODULI)
def test_solve_congruences_int_and_numpy_paths_agree(n, monkeypatch):
    modulus = Modulus(n)
    divisors = [d for d in modulus.divisors if d > 1][:8] + [n]
    rng = random.Random(7 * n)
    for rows, unknowns in ((0, 0), (0, 2), (2, 0), (1, 1), (3, 2), (4, 5), (6, 9), (14, 30), (20, 35)):
        for _ in range(3):
            r = [rng.choice(divisors) for _ in range(rows)]
            orders = [rng.choice(divisors) for _ in range(unknowns)]
            a = [[rng.randrange(rk) * (rk // gcd(m, rk)) for m in orders] for rk in r]
            x = [rng.randrange(m) for m in orders]
            b = [sum(c * v for c, v in zip(row, x)) for row in a]
            # b, then b beside a random column, then no right-hand side
            for cols in (1, 2, 0):
                rhs = [(c, rng.randrange(n))[:cols] for c in b]
                linalg._echelon.cache_clear()
                got = solve_congruences(a, rhs, cols, r, orders, modulus)
                assert got is not None or cols == 2
                with monkeypatch.context() as m:
                    # the same checks and scaling, then the oracle's solve
                    m.setattr(znmod, "solve_left", oracle.solve_rows)
                    want = solve_congruences(a, rhs, cols, r, orders, modulus)
                assert _identical(got, want)


def test_solve_congruences_error_messages():
    z4 = Modulus(4)
    with pytest.raises(ValueError, match="^unknown order 3 must divide 4$"):
        solve_congruences([[0]], [[0]], 1, [4], [3], z4)
    with pytest.raises(ValueError, match="^equation modulus 0 must divide 4$"):
        solve_congruences([[0]], [[0]], 1, [0], [2], z4)
    # the first bad coefficient in row-major order, reduced mod its row
    with pytest.raises(ValueError, match="^coefficient 3 for unknown of order 2 is not well defined mod 4$"):
        solve_congruences([[0, 7], [1, 0]], [[0], [0]], 1, [4, 4], [2, 2], z4)
    with pytest.raises(ValueError, match=r"^shape mismatch: 1 equations, 1 right-hand sides, rows of lengths \[1, 1\]$"):
        solve_congruences([[0]], [[0], [0]], 1, [4], [2], z4)
    # the stated count, not the first row, gives the number of right-hand sides
    with pytest.raises(ValueError, match=r"rows of lengths \[2\]$"):
        solve_congruences([[0]], [[0, 0]], 1, [4], [2], z4)
    with pytest.raises(ValueError, match=r"^shape mismatch: 0 equations, 0 right-hand sides, rows of lengths \[0\]$"):
        solve_congruences([], [()], 0, [], [2], z4)
