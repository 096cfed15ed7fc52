"""Exact matrix arithmetic over Z/N: Howell normal form, linear solvers,
two-sided diagonalization, the order of a quotient by a column span, and
the few matrix helpers the package builds its systems with.

A matrix is a tuple of row tuples of Python ints; a matrix with no rows is
`()`, and its column count comes from context, which is why `matmul`,
`transpose`, `hstack` and `solve_left` take one.  The kernels read every
matrix through `_entries`, which takes any sequence of rows and reduces
the entries mod N once, on entry; their results are tuples with entries in
[0, N), so they are read-only and can be shared.  `solve_left` and
`diagonalize` build their memo keys from the entries of one matrix.
Each operation has one kernel, in Python ints, and the echelon kernel
`_howell` serves `howell_form`, `solve_left` and `quotient_order` alike.
The working rows of `_howell` and `diagonalize` are dicts from column to
nonzero entry, so a row update reads only the support of its source row, a
column operation skips the rows that are zero in both columns, and a pivot
search reads only nonzero entries: the inputs the package builds are
small, or large and a few percent nonzero.  The Howell form is the
canonical echelon form for row modules over Z/N: unlike a plain echelon
form it spans *all* row-module elements whose leading coordinates vanish,
which is what makes greedy back-substitution and kernel extraction correct
over a ring with zero divisors.  It is built in one pass over the columns:
as each pivot row is fixed, its annihilator multiple (N/d)*row, zero in
the pivot column, joins the rows still to be reduced, so the later columns
absorb it and no second pass is needed.  `diagonalize` reduces on both
sides but returns only the cokernel it presents.
"""

from __future__ import annotations

import functools
import itertools
from math import gcd, prod
from operator import index
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Matrix = Tuple[Tuple[int, ...], ...]


def xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """Extended gcd: returns (g, s, t) with s*a + t*b = g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def unit_multiplier(a: int, n: int) -> int:
    """A unit u of Z/n with u*a == gcd(a, n) mod n.

    Every element of Z/n is a unit multiple of its gcd with n; the unit is
    found by inverting a/g modulo n/g and lifting to a unit mod n.
    """
    a = a % n
    if a == 0:
        return 1
    g = gcd(a, n)
    ap, np_ = a // g, n // g
    _, inv, _ = xgcd(ap, np_)
    u = inv % n if np_ > 1 else 1
    while gcd(u, n) != 1:
        u = (u + np_) % n
        if u == 0:
            u = np_
    return u


# One matrix of at most this many cells (`a`, for `solve_left`) is memoized.
# Only small systems repeat in practice; large ones would make a bounded
# cache hold megabytes per entry for almost no hits.
_MEMO_MAX_CELLS = 64


def _entries(a, n: int) -> Tuple[int, Optional[int], List[int]]:
    """(rows, cols, entries) of the matrix `a`, a sequence of rows of
    integers: its entries row-major, as Python ints reduced mod n (so
    fixed-width integer scalars in the rows cannot wrap in the kernels).  A
    matrix with no rows has no column count of its own; cols is None."""
    try:
        lengths = set(map(len, a))
        entries = [index(x) % n for row in a for x in row]
    except TypeError:
        raise ValueError("expected a 2d matrix: a sequence of rows of integers") from None
    if len(lengths) > 1:
        raise ValueError(f"matrix rows differ in length: {sorted(lengths)}")
    return len(a), (lengths.pop() if lengths else None), entries


# ---------------------------------------------------------------------------
# matrix helpers
# ---------------------------------------------------------------------------


def matmul(a: Matrix, b: Matrix, cols: int) -> Matrix:
    """The product a b, where b has `cols` columns; entries unreduced.  Row
    i adds a[i][k] times row k of b, over its nonzero entries, for each
    nonzero a[i][k] only: large factors are a few percent nonzero."""
    support = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * cols
        for x, nonzero in zip(row, support):
            if x:
                for j, y in nonzero:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def transpose(a: Matrix, cols: int) -> Matrix:
    """The transpose of a, which has `cols` columns."""
    return tuple(zip(*a, strict=True)) if a else ((),) * cols


def hstack(blocks: Sequence[Matrix], rows: int) -> Matrix:
    """The matrices `blocks`, each with `rows` rows, side by side."""
    return tuple(tuple(itertools.chain.from_iterable(r)) for r in zip(((),) * rows, *blocks, strict=True))


def from_entries(rows: int, cols: int, entries: Iterable[Tuple[int, int, int]]) -> Matrix:
    """The rows x cols matrix whose (i, j) entry is the sum of x over the
    triples (i, j, x) of `entries`, with 0 <= i < rows and 0 <= j < cols,
    unreduced as `matmul`'s entries are."""
    acc = [[0] * cols for _ in range(rows)]
    for i, j, x in entries:
        acc[i][j] += x
    return tuple(map(tuple, acc))


def diag(entries: Sequence[int]) -> Matrix:
    return from_entries(len(entries), len(entries), ((i, i, x) for i, x in enumerate(entries)))


def identity(k: int) -> Matrix:
    return diag((1,) * k)


def mod_rows(a: Matrix, moduli: Sequence[int]) -> Matrix:
    """Row i of a reduced mod moduli[i]."""
    return tuple(tuple(x % m for x in row) for row, m in zip(a, moduli, strict=True))


# ---------------------------------------------------------------------------
# sparse rows: dicts from column to nonzero entry in [0, n)
# ---------------------------------------------------------------------------


def _sparse(row: Sequence[int]) -> Dict[int, int]:
    return {j: x for j, x in enumerate(row) if x}


def _dense(rows: Sequence[Dict[int, int]], cols: int) -> Matrix:
    return tuple(tuple(row.get(j, 0) for j in range(cols)) for row in rows)


def _axpy(dst: Dict[int, int], src: Dict[int, int], q: int, n: int) -> None:
    """dst -= q * src, in place, over the support of src."""
    for j, y in src.items():
        x = (dst.get(j, 0) - q * y) % n
        if x:
            dst[j] = x
        else:
            dst.pop(j, None)


def _scaled(row: Dict[int, int], c: int, n: int) -> Dict[int, int]:
    return {j: v for j, x in row.items() if (v := c * x % n)}


def _combined(ri, rj, s: int, t: int, p: int, q: int, n: int):
    """(s*ri + t*rj, p*ri + q*rj), over the union of the supports."""
    a: Dict[int, int] = {}
    b: Dict[int, int] = {}
    for j, x in ri.items():
        y = rj.get(j, 0)
        if v := (s * x + t * y) % n:
            a[j] = v
        if v := (p * x + q * y) % n:
            b[j] = v
    for j, y in rj.items():
        if j not in ri:
            if v := t * y % n:
                a[j] = v
            if v := q * y % n:
                b[j] = v
    return a, b


# a wrapper rather than a bare lru_cache, for the size gate: see _MEMO_MAX_CELLS
def _memoized(small):
    """Memoize the kernel `small(n, m, k, flat)` of one matrix on small
    inputs.

    The matrix is m x k and `flat` holds its entries as `_entries` lists
    them, so the arguments are the key.  Inputs of at most
    `_MEMO_MAX_CELLS` cells go through an LRU cache of 4096 entries; larger
    ones call the kernel directly.  Results are tuples, so the cached ones
    can be shared by every caller.
    """
    cached = functools.lru_cache(maxsize=4096)(small)

    @functools.wraps(small)
    def memoized(n, m, k, flat):
        return (cached if len(flat) <= _MEMO_MAX_CELLS else small)(n, m, k, flat)

    memoized.cache_info = cached.cache_info
    memoized.cache_clear = cached.cache_clear
    return memoized


def howell_form(a, n: int) -> Matrix:
    """Canonical Howell normal form of the row module of `a` over Z/n.

    Pivot entries divide n, entries above each pivot are reduced modulo the
    pivot, zero rows are dropped, and rows are ordered by pivot column.  Two
    matrices have equal Howell forms iff they span the same row module.

    One pass over the columns (Storjohann, *Algorithms for Matrix Canonical
    Forms*, ch. 4).  The working rows span every element of the module that
    vanishes before column j.  A pivot row is scaled so its entry d divides
    n, and the working rows are reduced against it, with a unimodular gcd
    step for each entry d does not divide (each step strictly shrinks d), so
    one row is left with a nonzero entry in column j.  That row becomes a
    Howell row, reduces the rows above it, and is replaced among the working
    rows by its annihilator multiple (n/d)*row, zero in column j.  The
    working rows then span every element that vanishes up to column j.
    """
    m, k, flat = _entries(a, n)
    k = k or 0
    return _dense(_howell([_sparse(flat[i * k : (i + 1) * k]) for i in range(m)], k, n), k)


def _howell(w: List[Dict[int, int]], k: int, n: int) -> List[Dict[int, int]]:
    """The Howell rows of the sparse rows `w`, which are overwritten.

    Among the rows nonzero in a column, the pivot is the first with the
    least gcd(., n), which needs the fewest gcd steps."""
    h: List[Dict[int, int]] = []
    for j in range(k):
        nz = [i for i, row in enumerate(w) if j in row]
        if not nz:
            continue
        p = min(nz, key=lambda i: gcd(w[i][j], n))
        c = unit_multiplier(w[p][j], n)
        if c != 1:
            w[p] = _scaled(w[p], c, n)
        rest = [i for i in nz if i != p]  # the other rows nonzero in column j
        while rest:
            wp = w[p]
            d = wp[j]
            odd = []
            for i in rest:
                q, rem = divmod(w[i][j], d)
                if q:
                    _axpy(w[i], wp, q, n)
                if rem:
                    odd.append(i)
            if not odd:
                break
            i = odd[0]
            b = w[i][j]
            g, s, t = xgcd(d, b)
            w[p], w[i] = _combined(wp, w[i], s, t, -(b // g), d // g, n)
            rest = odd[1:]
        row = w[p]
        d = row[j]
        for above in h:
            if above.get(j, 0) >= d:
                _axpy(above, row, above[j] // d, n)
        h.append(row)
        w[p] = _scaled(row, n // d, n) if d > 1 else {}  # n*row is zero
    return h


@_memoized
def _echelon(n: int, m: int, k: int, flat):
    """The Howell form of [a | I], a (m x k) listed by `flat`: its rows
    pivoting in a as (column, pivot, nonzeros), the (column, entry) pairs,
    and the I part of the rest, which spans the left kernel.  It goes
    through `howell_form`, on dense rows, so that every distinct `a` is one
    call of it in the benchmark's counters."""
    # [a | I] spans the pairs (y a, y); its rows pivoting in a come first
    aug = [list(flat[i * k : (i + 1) * k]) + [int(i == c) for c in range(m)] for i in range(m)]
    h = howell_form(aug, n)
    pivots = []
    for row in h:
        j = next(c for c, x in enumerate(row) if x)
        if j >= k:
            break
        pivots.append((j, row[j], tuple((c, x) for c, x in enumerate(row) if x)))
    return tuple(pivots), tuple(row[k:] for row in h[len(pivots) :])


def solve_left(a, b, cols: int, n: int) -> Optional[Tuple[Matrix, Matrix]]:
    """Solve Y @ a == b (mod n) for each row of b, where a and b have `cols`
    columns.

    Returns (Y, K) where Y stacks one particular solution per row of b and
    the rows of K span the left kernel {y : y a == 0}; None if inconsistent.
    The echelon of [a | I] is memoized by a alone; b is back-substituted.
    """
    m, k, fa = _entries(a, n)
    t, kb, fb = _entries(b, n)
    if k not in (None, cols) or kb not in (None, cols):
        raise ValueError(f"shape mismatch: a is {(m, k)}, b is {(t, kb)}, expected {cols} columns")
    pivots, kernel = _echelon(n, m, cols, tuple(fa))
    sols = []
    for s in range(t):
        # the last m entries of res track -y, so y @ a == b once res[:cols] is zero
        res = fb[s * cols : (s + 1) * cols] + [0] * m
        for j, d, nonzeros in pivots:
            v = res[j]
            if v:
                if v % d:
                    return None
                q = v // d
                for c, y in nonzeros:
                    res[c] = (res[c] - q * y) % n
        if any(res[:cols]):
            return None
        sols.append(tuple(-x % n for x in res[cols:]))
    return tuple(sols), kernel


def quotient_order(a, orders: Sequence[int], n: int) -> int:
    """|(Z/m_1 + ... + Z/m_r) / column span of a|, each m_i dividing n.

    The rows m_i*e_i and the columns of a span a submodule L of (Z/n)^r
    whose Howell form has h rows with pivots d_j; each row adds a factor
    n/d_j to |L|, so the quotient (Z/n)^r / L has order n^(r-h) * prod d_j.
    It calls the Howell kernel directly, without `howell_form`'s dense
    rows or a cache.
    """
    r, c, flat = _entries(a, n)
    if r != len(orders):
        raise ValueError(f"expected one row per order: {r} rows, {len(orders)} orders")
    for m in orders:
        if m < 1 or n % m:
            raise ValueError(f"order {m} must divide {n}")
    c = c or 0
    w = [{i: m % n} for i, m in enumerate(orders) if m % n]
    w += [{i: x for i in range(r) if (x := flat[i * c + j])} for j in range(c)]
    h = _howell(w, r, n)
    return n ** (r - len(h)) * prod(row[min(row)] for row in h)  # a pivot leads its row


@_memoized
def _diagonalize(n: int, m: int, k: int, flat):
    """`diagonalize` on `flat`, the m x k matrix's entries.

    `d` and `u` are kept as sparse rows, and `uinv` as its sparse columns,
    so every operation on `uinv` is a row operation on `uinv_cols`.  Column
    operations act on `d` alone: no caller reads them.  `U` and `Uinv` are
    not canonical, and their kept rows and columns are generator
    coordinates that reach printed output, so the pivot rule and the order
    of the operations below are part of the result.
    """
    d = [_sparse(flat[i * k : (i + 1) * k]) for i in range(m)]
    u = [{i: 1} for i in range(m)]
    uinv_cols = [{i: 1} for i in range(m)]

    def row_swap(i, j):
        for mat in (d, u, uinv_cols):
            mat[i], mat[j] = mat[j], mat[i]

    def row_combine(i, j, s, t, p, q):
        """rows (i,j) <- (s*ri + t*rj, p*ri + q*rj); [[s,t],[p,q]] unimodular."""
        _, dinv, _ = xgcd((s * q - t * p) % n, n)
        for mat in (d, u):
            mat[i], mat[j] = _combined(mat[i], mat[j], s, t, p, q, n)
        # inverse of [[s,t],[p,q]] is dinv*[[q,-t],[-p,s]], applied to columns
        uinv_cols[i], uinv_cols[j] = _combined(
            uinv_cols[i], uinv_cols[j], dinv * q, -dinv * p, -dinv * t, dinv * s, n
        )

    def col_combine(i, j, s, t, p, q):
        for row in d:
            if i in row or j in row:
                x, y = row.pop(i, 0), row.pop(j, 0)
                if v := (s * x + t * y) % n:
                    row[i] = v
                if v := (p * x + q * y) % n:
                    row[j] = v

    def row_scale(i, c):
        if c != 1:
            _, cinv, _ = xgcd(c % n, n)
            d[i], u[i] = _scaled(d[i], c, n), _scaled(u[i], c, n)
            uinv_cols[i] = _scaled(uinv_cols[i], cinv, n)

    def clear_at(p):
        # the pivot: entry with minimal gcd(., n), then smallest value, row, column
        nz = [(gcd(x, n) * (n + 1) + x, i, j) for i in range(p, m) for j, x in d[i].items() if j >= p]
        if not nz:
            return False
        _, bi, bj = min(nz)
        if bi != p:
            row_swap(p, bi)
        if bj != p:
            col_combine(p, bj, 0, 1, 1, 0)  # swap columns p and bj
        while True:
            # each pass either performs only pivot-preserving divisible ops
            # (then exits clean) or strictly decreases the pivot value
            dirty = False
            while True:
                av = d[p][p]
                nzb = [i for i in range(p + 1, m) if p in d[i]]
                divisible = [(i, d[i][p] // av) for i in nzb if d[i][p] % av == 0]
                for i, q in divisible:
                    _axpy(d[i], d[p], q, n)
                    _axpy(u[i], u[p], q, n)
                    _axpy(uinv_cols[p], uinv_cols[i], -q, n)
                rest = [i for i in nzb if p in d[i]]
                if not rest:
                    break
                b = d[rest[0]][p]
                g, s, tt = xgcd(av, b)
                row_combine(p, rest[0], s % n, tt % n, -(b // g) % n, (av // g) % n)
                dirty = True
            while True:
                av = d[p][p]
                nzb = sorted(j for j in d[p] if j > p)
                divisible = [(j, d[p][j] // av) for j in nzb if d[p][j] % av == 0]
                if divisible:
                    qs = dict(divisible)
                    for row in d:
                        if p in row:
                            _axpy(row, qs, row[p], n)
                rest = [j for j in nzb if j in d[p]]
                if not rest:
                    break
                b = d[p][rest[0]]
                g, s, tt = xgcd(av, b)
                col_combine(p, rest[0], s % n, tt % n, -(b // g) % n, (av // g) % n)
                dirty = True
            if not dirty and not any(p in d[i] for i in range(p + 1, m)):
                return True

    rank = 0
    while rank < min(m, k) and clear_at(rank):
        rank += 1
    # normalize diagonal entries to divisors of n
    for p in range(rank):
        row_scale(p, unit_multiplier(d[p][p], n))
        d[p][p] = gcd(d[p][p], n)
    # enforce the divisibility chain d_p | d_{p+1}
    changed = True
    while changed:
        changed = False
        for p in range(rank - 1):
            if d[p + 1].get(p + 1, 0) % d[p][p]:
                changed = True
                row_combine(p, p + 1, 1, 1, 0, 1)  # row p += row p+1
                av, b = d[p].get(p, 0), d[p].get(p + 1, 0)
                g, s, tt = xgcd(av, b)
                col_combine(p, p + 1, s % n, tt % n, -(b // g) % n, (av // g) % n)
                if d[p + 1].get(p):
                    row_combine(p, p + 1, 1, 0, -(d[p + 1][p] // d[p][p]) % n, 1)
                row_scale(p, unit_multiplier(d[p].get(p, 0), n))
                row_scale(p + 1, unit_multiplier(d[p + 1].get(p + 1, 0), n))
                d[p][p] = gcd(d[p].get(p, 0), n)
                d[p + 1][p + 1] = gcd(d[p + 1].get(p + 1, 0), n)
    # rows from `rank` on are zero, so their entry reads as gcd(0, n) = n;
    # the entries 1 present nothing
    keep = [(p, f) for p in range(m) if (f := gcd(d[p].get(p, 0), n)) > 1]
    proj = tuple(tuple(u[p].get(j, 0) % f for j in range(m)) for p, f in keep)
    return tuple(f for _, f in keep), proj, transpose(_dense([uinv_cols[p] for p, _ in keep], m), m)


def diagonalize(a, n: int):
    """The cokernel of `a` over Z/n (rows index generators, columns
    relations) as (factors, proj, sect).  A two-sided reduction
    U a V == diag(d), V never built, gives divisors d_i of n in a
    divisibility chain, a zero entry read as n.  `factors` are the d_i
    above 1, `proj` their rows of U, each reduced mod its factor, and `sect`
    the matching columns of U^-1, so proj @ sect == identity mod the factors.
    """
    m, k, flat = _entries(a, n)
    return _diagonalize(n, m, k or 0, tuple(flat))
