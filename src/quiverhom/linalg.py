"""Exact matrix arithmetic over Z/N: Howell normal form, linear solvers,
two-sided diagonalization, and the order of a quotient by a column span.

Matrices come in as array_like and go out as numpy int64 arrays with
entries in [0, N); every input is reduced mod N once, on entry.  Each of
`howell_form`, `solve_left` and `diagonalize` has two implementations that
do the same operations in the same order, so they return identical results:
one on lists of Python ints for inputs of at most `_SMALL_CELLS` cells,
where numpy's per-call cost would outweigh the arithmetic, and one on numpy
arrays above that.  `quotient_order` computes in Python ints only.  The
Howell form is the canonical echelon form for row modules over Z/N: unlike
a plain echelon form it spans *all* row-module elements whose leading
coordinates vanish, which is what makes greedy back-substitution and kernel
extraction correct over a ring with zero divisors.  It is built in one pass
over the columns: as each pivot row is fixed, its annihilator multiple
(N/d)*row, zero in the pivot column, joins the rows still to be reduced, so
the later columns absorb it and no second pass is needed.  `diagonalize`
reduces on both sides but returns only the row transform and its inverse.
"""

from __future__ import annotations

import functools
from math import gcd
from typing import List, Optional, Sequence, Tuple

import numpy as np


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


# Inputs of at most this many cells run on lists of Python ints, larger ones
# on numpy arrays.  `howell_form` counts rows * cols of its input;
# `solve_left` and `diagonalize` count the cells of `a` and of the row
# transform they track, rows * (rows + cols).  Below the cutoff numpy's
# fixed cost per call outweighs the arithmetic; above it the per-entry cost
# of Python ints does.
_SMALL_CELLS = 1024

# Inputs of at most this many cells (all matrices together) are memoized.
# Only small systems repeat in practice; large ones would make a bounded
# cache hold megabytes per entry for almost no hits.
_MEMO_MAX_CELLS = 64


def _matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.int64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2d matrix, got shape {m.shape}")
    return m


def _flat(n: int, *mats: np.ndarray) -> Tuple[int, ...]:
    """The entries of `mats`, one matrix after another, row-major, as
    Python ints reduced mod n."""
    return tuple(x % n for m in mats for x in m.ravel().tolist())


def _array(rows, cols: int) -> np.ndarray:
    """Rows of Python ints as a read-only int64 array with `cols` columns."""
    out = np.array(rows, dtype=np.int64).reshape(len(rows), cols)
    out.flags.writeable = False
    return out


def _frozen(result):
    if result is not None:
        for x in result:
            if isinstance(x, np.ndarray):
                x.setflags(write=False)
    return result


def _memoized(small):
    """Memoize the Python-int kernel `small(n, dims, flat)` on small inputs.

    `dims` holds each input matrix's (rows, cols) and `flat` their entries
    as `_flat` lists them, so the arguments are the key.  Inputs of at most
    `_MEMO_MAX_CELLS` cells go through an LRU cache of 4096 entries; larger
    ones call the kernel directly.  Results are read-only, since cached
    ones are shared by every caller.
    """
    cached = functools.lru_cache(maxsize=4096)(small)

    @functools.wraps(small)
    def memoized(n, dims, flat):
        return (cached if len(flat) <= _MEMO_MAX_CELLS else small)(n, dims, flat)

    memoized.cache_info = cached.cache_info
    memoized.cache_clear = cached.cache_clear
    return memoized


def howell_form(a, n: int) -> np.ndarray:
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
    w = np.mod(_matrix(a), n)
    k = w.shape[1]
    if w.size > _SMALL_CELLS:
        return _howell_numpy(w, n)
    h = _howell(w.tolist(), k, n)
    return np.array(h, dtype=np.int64).reshape(len(h), k)


def _howell(w: List[List[int]], k: int, n: int) -> List[List[int]]:
    """`_howell_numpy` on lists of Python ints: the same pivots, gcd steps and
    reductions in the same order.  `w` is reduced mod n and is overwritten."""
    h: List[List[int]] = []
    for j in range(k):
        nz = [i for i, row in enumerate(w) if row[j]]
        if not nz:
            continue
        p = min(nz, key=lambda i: gcd(w[i][j], n))
        c = unit_multiplier(w[p][j], n)
        w[p] = [c * x % n for x in w[p]]
        rest = [i for i in nz if i != p]
        while rest:
            wp = w[p]
            d = wp[j]
            odd = []
            for i in rest:
                q, rem = divmod(w[i][j], d)
                if q:
                    w[i] = [(x - q * y) % n for x, y in zip(w[i], wp)]
                if rem:
                    odd.append(i)
            if not odd:
                break
            i = odd[0]
            wi, b = w[i], w[i][j]
            g, s, t = xgcd(d, b)
            w[p] = [(s * x + t * y) % n for x, y in zip(wp, wi)]
            w[i] = [((d // g) * y - (b // g) * x) % n for x, y in zip(wp, wi)]
            rest = odd[1:]
        row = w[p]
        d = row[j]
        for i, above in enumerate(h):
            if above[j] >= d:
                q = above[j] // d
                h[i] = [(x - q * y) % n for x, y in zip(above, row)]
        h.append(row)
        w[p] = [(n // d) * x % n for x in row]
    return h


def _howell_numpy(w: np.ndarray, n: int) -> np.ndarray:
    """`howell_form` on an int64 array reduced mod n, which is overwritten."""
    k = w.shape[1]
    h = np.zeros((k, k), dtype=np.int64)
    r = 0
    for j in range(k):
        nz = np.flatnonzero(w[:, j])
        if not nz.size:
            continue
        # the entry with the least gcd(., n) needs the fewest gcd steps
        p = int(nz[np.argmin(np.gcd(w[nz, j], n))])
        w[p] = (unit_multiplier(int(w[p, j]), n) * w[p]) % n
        rest = nz[nz != p]  # the other rows nonzero in column j
        while rest.size:
            d = int(w[p, j])
            q, rem = np.divmod(w[rest, j], d)
            w[rest] = (w[rest] - q[:, None] * w[p]) % n
            odd = np.flatnonzero(rem)
            if not odd.size:
                break
            i, b = int(rest[odd[0]]), int(rem[odd[0]])
            g, s, t = xgcd(d, b)
            w[p], w[i] = (s * w[p] + t * w[i]) % n, ((d // g) * w[i] - (b // g) * w[p]) % n
            rest = rest[odd[1:]]
        d = int(w[p, j])
        h[r] = w[p]
        above = np.flatnonzero(h[:r, j] >= d)
        if above.size:
            h[above] = (h[above] - (h[above, j] // d)[:, None] * h[r]) % n
        w[p] = ((n // d) * h[r]) % n
        r += 1
    return h[:r]


@_memoized
def _solve(n: int, dims, flat) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """`solve_left` on Python ints: `flat` lists a (m x k), then b (t x k).

    The Howell form goes through `howell_form` itself, so that every Howell
    form the package builds is one call of it.
    """
    (m, k), (t, _) = dims
    # [a | I] spans the pairs (y a, y); its rows pivoting in a come first
    aug = [list(flat[i * k : (i + 1) * k]) + [int(i == c) for c in range(m)] for i in range(m)]
    h = howell_form(np.array(aug, dtype=np.int64).reshape(m, k + m), n).tolist()
    pivots = []
    for row in h:
        j = next(c for c, x in enumerate(row) if x)
        if j >= k:
            break
        pivots.append((row, j, row[j]))
    sols = []
    for s in range(m, m + t):
        # the last m entries of res track -y, so y @ a == b once res[:k] is zero
        res = list(flat[s * k : (s + 1) * k]) + [0] * m
        for row, j, d in pivots:
            v = res[j]
            if v:
                if v % d:
                    return None
                q = v // d
                res = [(x - q * y) % n for x, y in zip(res, row)]
        if any(res[:k]):
            return None
        sols.append([-x % n for x in res[k:]])
    return _array(sols, m), _array([row[k:] for row in h[len(pivots) :]], m)


def _solve_left_numpy(a: np.ndarray, b: np.ndarray, n: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """`solve_left` on int64 arrays reduced mod n."""
    m, k = a.shape
    h = howell_form(np.hstack([a, np.eye(m, dtype=np.int64)]), n)
    # rows are ordered by pivot column, so the rows pivoting in a come first
    pivots = []
    for i, row in enumerate(h):
        j = int(np.argmax(row != 0))
        if j >= k:
            break
        pivots.append((i, j, int(row[j])))
    # copied, so the result does not keep all of h alive
    kernel = h[len(pivots) :, k:].copy()
    sols = np.zeros((b.shape[0], m), dtype=np.int64)
    for t in range(b.shape[0]):
        # the last m entries of res track -y, so y @ a == b once res[:k] is zero
        res = np.hstack([b[t], np.zeros(m, dtype=np.int64)])
        for i, j, d in pivots:
            v = int(res[j])
            if v == 0:
                continue
            if v % d != 0:
                return None
            res = (res - (v // d) * h[i]) % n
        if res[:k].any():
            return None
        sols[t] = (-res[k:]) % n
    return sols, kernel


def _solve_flat(n: int, dims, flat) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """`solve_left` on the arguments `_solve` takes, on either path."""
    (m, k), (t, _) = dims
    if m * (m + k) <= _SMALL_CELLS:
        return _solve(n, dims, flat)
    a = np.array(flat[: m * k], dtype=np.int64).reshape(m, k)
    return solve_left(a, np.array(flat[m * k :], dtype=np.int64).reshape(t, k), n)


def solve_left(a, b, n: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Solve Y @ a == b (mod n) for each row of b.

    Returns (Y, K) where Y stacks one particular solution per row of b and
    the rows of K span the left kernel {y : y a == 0}; None if inconsistent.
    """
    return _solve_left(a, b, n, _solve)


def _solve_left(a, b, n: int, small) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    a, b = _matrix(a), _matrix(b)
    if b.shape[1] != a.shape[1]:
        raise ValueError(f"shape mismatch: a is {a.shape}, b is {b.shape}")
    m, k = a.shape
    if m * (m + k) > _SMALL_CELLS:
        return _frozen(_solve_left_numpy(np.mod(a, n), np.mod(b, n), n))
    return small(n, (a.shape, b.shape), _flat(n, a, b))


solve_left.cache_info, solve_left.cache_clear = _solve.cache_info, _solve.cache_clear
solve_left.__wrapped__ = lambda a, b, n: _solve_left(a, b, n, _solve.__wrapped__)


def quotient_order(a, orders: Sequence[int], n: int) -> int:
    """|(Z/m_1 + ... + Z/m_r) / column span of a|, each m_i dividing n.

    Over Z, the columns of a and the m_i*e_i span a lattice L containing
    nZ^r, and its index in Z^r is the product of the pivots of a column
    echelon form.  Row by row, every column is folded by a unimodular gcd
    step into a pivot column that starts as m_i*e_i and leaves that row
    with a zero.  Since nZ^r lies in L, entries are reduced mod n at every
    step; the arithmetic is in Python ints, without transforms or a cache.
    """
    r = len(orders)
    cols = [[x % n for x in c] for c in np.asarray(a, dtype=np.int64).T.tolist()]
    order = 1
    for i, m in enumerate(orders):
        piv = [0] * r
        piv[i] = m
        rest = []
        for c in cols:
            if c[i]:
                g, s, t = xgcd(piv[i], c[i])
                u, v = c[i] // g, piv[i] // g
                pairs = list(zip(piv, c))
                piv = [(s * x + t * y) % n for x, y in pairs]
                c = [(u * x - v * y) % n for x, y in pairs]
            if any(c):
                rest.append(c)
        order *= piv[i]
        cols = rest
    return order


class _Tracked:
    """Matrix with its row transforms tracked alongside their inverses.

    Column transforms act on the matrix alone: no caller reads them.
    """

    def __init__(self, a: np.ndarray, n: int):
        self.n = n
        self.d = a.copy()
        m = a.shape[0]
        self.u = np.eye(m, dtype=np.int64)
        self.uinv = np.eye(m, dtype=np.int64)

    def row_swap(self, i, j):
        self.d[[i, j]] = self.d[[j, i]]
        self.u[[i, j]] = self.u[[j, i]]
        self.uinv[:, [i, j]] = self.uinv[:, [j, i]]

    def col_swap(self, i, j):
        self.d[:, [i, j]] = self.d[:, [j, i]]

    def row_combine(self, i, j, s, t, p, q):
        """rows (i,j) <- (s*ri + t*rj, p*ri + q*rj); [[s,t],[p,q]] unimodular."""
        n = self.n
        det = (s * q - t * p) % n
        _, dinv, _ = xgcd(det, n)
        dinv %= n
        for mat in (self.d, self.u):
            ri, rj = mat[i].copy(), mat[j].copy()
            mat[i] = (s * ri + t * rj) % n
            mat[j] = (p * ri + q * rj) % n
        # inverse of [[s,t],[p,q]] is dinv*[[q,-t],[-p,s]], applied to columns
        ci, cj = self.uinv[:, i].copy(), self.uinv[:, j].copy()
        self.uinv[:, i] = (dinv * (q * ci - p * cj)) % n
        self.uinv[:, j] = (dinv * (-t * ci + s * cj)) % n

    def col_combine(self, i, j, s, t, p, q):
        """cols (i,j) <- (s*ci + t*cj, p*ci + q*cj); [[s,t],[p,q]] unimodular."""
        d, n = self.d, self.n
        ci, cj = d[:, i].copy(), d[:, j].copy()
        d[:, i] = (s * ci + t * cj) % n
        d[:, j] = (p * ci + q * cj) % n

    def row_scale(self, i, u):
        n = self.n
        _, uinv, _ = xgcd(u % n, n)
        self.d[i] = (u * self.d[i]) % n
        self.u[i] = (u * self.u[i]) % n
        self.uinv[:, i] = (uinv * self.uinv[:, i]) % n

    def rows_axpy(self, idx: np.ndarray, q: np.ndarray, p: int):
        """rows[idx] -= q * row[p], batched."""
        n = self.n
        for mat in (self.d, self.u):
            mat[idx] = (mat[idx] - q[:, None] * mat[p]) % n
        self.uinv[:, p] = (self.uinv[:, p] + self.uinv[:, idx].dot(q)) % n

    def cols_axpy(self, idx: np.ndarray, q: np.ndarray, p: int):
        """cols[idx] -= q * col[p], batched."""
        d = self.d
        d[:, idx] = (d[:, idx] - q[None, :] * d[:, [p]]) % self.n


def _diagonalize_numpy(a: np.ndarray, n: int):
    """`diagonalize` on an int64 array reduced mod n."""
    m, k = a.shape
    t = _Tracked(a, n)
    r = min(m, k)

    def clear_at(p):
        # choose the pivot once: entry with minimal gcd(., n), then smallest value
        sub = t.d[p:, p:]
        nz = np.argwhere(sub != 0)
        if nz.size == 0:
            return False
        vals = sub[nz[:, 0], nz[:, 1]]
        keys = np.gcd(vals, n) * (n + 1) + vals
        order = np.lexsort((nz[:, 1], nz[:, 0], keys))
        bi, bj = int(nz[order[0], 0]) + p, int(nz[order[0], 1]) + p
        if bi != p:
            t.row_swap(p, bi)
        if bj != p:
            t.col_swap(p, bj)
        while True:
            # each pass either performs only pivot-preserving divisible ops
            # (then exits clean) or strictly decreases the pivot value
            dirty = False
            while True:
                av = int(t.d[p, p])
                colv = t.d[p + 1 :, p]
                nzb = np.nonzero(colv)[0]
                if nzb.size == 0:
                    break
                divisible = nzb[colv[nzb] % av == 0]
                if divisible.size:
                    idx = divisible + p + 1
                    t.rows_axpy(idx, t.d[idx, p] // av, p)
                rest = np.nonzero(t.d[p + 1 :, p])[0]
                if rest.size == 0:
                    break
                i = int(rest[0]) + p + 1
                b = int(t.d[i, p])
                g, s, tt = xgcd(av, b)
                t.row_combine(p, i, s % n, tt % n, (-(b // g)) % n, (av // g) % n)
                dirty = True
            while True:
                av = int(t.d[p, p])
                rowv = t.d[p, p + 1 :]
                nzb = np.nonzero(rowv)[0]
                if nzb.size == 0:
                    break
                divisible = nzb[rowv[nzb] % av == 0]
                if divisible.size:
                    idx = divisible + p + 1
                    t.cols_axpy(idx, t.d[p, idx] // av, p)
                rest = np.nonzero(t.d[p, p + 1 :])[0]
                if rest.size == 0:
                    break
                j = int(rest[0]) + p + 1
                b = int(t.d[p, j])
                g, s, tt = xgcd(av, b)
                t.col_combine(p, j, s % n, tt % n, (-(b // g)) % n, (av // g) % n)
                dirty = True
            if not dirty and not t.d[p + 1 :, p].any():
                return True

    rank = 0
    for p in range(r):
        if clear_at(p):
            rank += 1
        else:
            break
    # normalize diagonal entries to divisors of n
    for p in range(rank):
        t.row_scale(p, unit_multiplier(int(t.d[p, p]), n))
        t.d[p, p] = gcd(int(t.d[p, p]), n)
    # enforce the divisibility chain d_p | d_{p+1}
    changed = True
    while changed:
        changed = False
        for p in range(rank - 1):
            dp, dq = int(t.d[p, p]), int(t.d[p + 1, p + 1])
            if dq % dp != 0:
                changed = True
                t.row_combine(p, p + 1, 1, 1, 0, 1)  # row p += row p+1
                av, b = int(t.d[p, p]), int(t.d[p, p + 1])
                g, s, tt = xgcd(av, b)
                t.col_combine(p, p + 1, s % n, tt % n, (-(b // g)) % n, (av // g) % n)
                b2 = int(t.d[p + 1, p])
                if b2:
                    q = b2 // int(t.d[p, p])
                    t.row_combine(p, p + 1, 1, 0, (-q) % n, 1)
                t.row_scale(p, unit_multiplier(int(t.d[p, p]), n))
                t.row_scale(p + 1, unit_multiplier(int(t.d[p + 1, p + 1]), n))
                t.d[p, p] = gcd(int(t.d[p, p]), n)
                t.d[p + 1, p + 1] = gcd(int(t.d[p + 1, p + 1]), n)
    diag = [gcd(int(t.d[p, p]), n) if p < rank else n for p in range(m)]
    # diagonal entries equal to n act as zero; fold them into the tail
    chain = tuple(d if d != 0 else n for d in diag)
    return chain, t.u % n, t.uinv % n


@_memoized
def _diagonalize(n: int, dims, flat):
    """`_diagonalize_numpy` on lists of Python ints, `flat` the matrix: the
    same pivots, gcd steps and row and column operations in the same order."""
    ((m, k),) = dims
    d = [list(flat[i * k : (i + 1) * k]) for i in range(m)]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    uinv = [row[:] for row in u]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for row in uinv:
            row[i], row[j] = row[j], row[i]

    def row_combine(i, j, s, t, p, q):
        """rows (i,j) <- (s*ri + t*rj, p*ri + q*rj); [[s,t],[p,q]] unimodular."""
        _, dinv, _ = xgcd((s * q - t * p) % n, n)
        dinv %= n
        for mat in (d, u):
            ri, rj = mat[i], mat[j]
            mat[i] = [(s * x + t * y) % n for x, y in zip(ri, rj)]
            mat[j] = [(p * x + q * y) % n for x, y in zip(ri, rj)]
        # inverse of [[s,t],[p,q]] is dinv*[[q,-t],[-p,s]], applied to columns
        for row in uinv:
            ci, cj = row[i], row[j]
            row[i], row[j] = dinv * (q * ci - p * cj) % n, dinv * (-t * ci + s * cj) % n

    def col_combine(i, j, s, t, p, q):
        for row in d:
            ci, cj = row[i], row[j]
            row[i], row[j] = (s * ci + t * cj) % n, (p * ci + q * cj) % n

    def row_scale(i, c):
        _, cinv, _ = xgcd(c % n, n)
        d[i] = [c * x % n for x in d[i]]
        u[i] = [c * x % n for x in u[i]]
        for row in uinv:
            row[i] = cinv * row[i] % n

    def clear_at(p):
        nz = [(gcd(x, n) * (n + 1) + x, i, j) for i in range(p, m) for j, x in enumerate(d[i][p:], p) if x]
        if not nz:
            return False
        _, bi, bj = min(nz)
        if bi != p:
            row_swap(p, bi)
        if bj != p:
            for row in d:
                row[p], row[bj] = row[bj], row[p]
        while True:
            dirty = False
            while True:
                av = d[p][p]
                nzb = [i for i in range(p + 1, m) if d[i][p]]
                divisible = [(i, d[i][p] // av) for i in nzb if d[i][p] % av == 0]
                for mat in (d, u):
                    for i, q in divisible:
                        mat[i] = [(x - q * y) % n for x, y in zip(mat[i], mat[p])]
                if divisible:
                    for row in uinv:
                        row[p] = (row[p] + sum(row[i] * q for i, q in divisible)) % n
                rest = [i for i in nzb if d[i][p]]
                if not rest:
                    break
                b = d[rest[0]][p]
                g, s, tt = xgcd(av, b)
                row_combine(p, rest[0], s % n, tt % n, -(b // g) % n, (av // g) % n)
                dirty = True
            while True:
                av = d[p][p]
                nzb = [j for j in range(p + 1, k) if d[p][j]]
                divisible = [(j, d[p][j] // av) for j in nzb if d[p][j] % av == 0]
                if divisible:
                    for row in d:
                        for j, q in divisible:
                            row[j] = (row[j] - q * row[p]) % n
                rest = [j for j in nzb if d[p][j]]
                if not rest:
                    break
                b = d[p][rest[0]]
                g, s, tt = xgcd(av, b)
                col_combine(p, rest[0], s % n, tt % n, -(b // g) % n, (av // g) % n)
                dirty = True
            if not dirty and not any(d[i][p] for i in range(p + 1, m)):
                return True

    rank = 0
    while rank < min(m, k) and clear_at(rank):
        rank += 1
    for p in range(rank):
        row_scale(p, unit_multiplier(d[p][p], n))
        d[p][p] = gcd(d[p][p], n)
    changed = True
    while changed:
        changed = False
        for p in range(rank - 1):
            if d[p + 1][p + 1] % d[p][p]:
                changed = True
                row_combine(p, p + 1, 1, 1, 0, 1)
                av, b = d[p][p], d[p][p + 1]
                g, s, tt = xgcd(av, b)
                col_combine(p, p + 1, s % n, tt % n, -(b // g) % n, (av // g) % n)
                if d[p + 1][p]:
                    row_combine(p, p + 1, 1, 0, -(d[p + 1][p] // d[p][p]) % n, 1)
                row_scale(p, unit_multiplier(d[p][p], n))
                row_scale(p + 1, unit_multiplier(d[p + 1][p + 1], n))
                d[p][p] = gcd(d[p][p], n)
                d[p + 1][p + 1] = gcd(d[p + 1][p + 1], n)
    chain = tuple(gcd(d[p][p], n) if p < rank else n for p in range(m))
    return chain, _array(u, m), _array(uinv, m)


def diagonalize(a, n: int):
    """Two-sided reduction over Z/n: returns (d, U, Uinv) with U a V ==
    diag(d) mod n for some invertible V, which is not computed, and d the
    tuple of the d_i, divisors of n in a divisibility chain (trailing
    entries may equal n, representing zero diagonal entries).
    """
    return _diagonalize_entry(a, n, _diagonalize)


def _diagonalize_entry(a, n: int, small):
    a = _matrix(a)
    m, k = a.shape
    if m * (m + k) > _SMALL_CELLS:
        return _frozen(_diagonalize_numpy(np.mod(a, n), n))
    return small(n, (a.shape,), _flat(n, a))


diagonalize.cache_info, diagonalize.cache_clear = _diagonalize.cache_info, _diagonalize.cache_clear
diagonalize.__wrapped__ = lambda a, n: _diagonalize_entry(a, n, _diagonalize.__wrapped__)
