"""Exact matrix arithmetic over Z/N: Howell normal form, linear solvers,
two-sided diagonalization, and the order of a quotient by a column span.

Everything in this file works on numpy int64 arrays whose entries live in
[0, N), except `quotient_order`, which computes in Python ints.  The Howell
form is the canonical echelon form for row modules over Z/N: unlike a plain
echelon form it spans *all* row-module elements whose leading coordinates
vanish, which is what makes greedy back-substitution and kernel extraction
correct over a ring with zero divisors.  It is built in one pass over the
columns: as each pivot row is fixed, its annihilator multiple (N/d)*row,
zero in the pivot column, joins the rows still to be reduced, so the later
columns absorb it and no second pass is needed.  `diagonalize` reduces on
both sides but returns only the row transform and its inverse.
"""

from __future__ import annotations

import functools
from math import gcd
from typing import Optional, Sequence, Tuple

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


def _as_matrix(a, n: int) -> np.ndarray:
    m = np.asarray(a, dtype=np.int64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2d matrix, got shape {m.shape}")
    return np.mod(m, n)


# Inputs of at most this many cells (all matrices together) are memoized.
# Only small systems repeat in practice; large ones would make a bounded
# cache hold megabytes per entry for almost no hits.
_MEMO_MAX_CELLS = 64


def _memoized(kernel):
    """Memoize `kernel(*matrices, n)` on small inputs.

    The key is n, the shape of each matrix after reduction mod n, and their
    entries as one bytes object (the shapes tell where each matrix ends),
    kept flat because per-entry object overhead dominates the cache's
    memory.  The LRU cache holds 4096 entries.  Inputs over
    `_MEMO_MAX_CELLS` cells call the kernel directly.  Returned arrays are
    read-only on both paths, since cached ones are shared by every caller.
    """

    @functools.lru_cache(maxsize=4096)
    def cached(n, *key):
        *dims, data = key
        flat = np.frombuffer(data, dtype=np.int64)
        mats, at = [], 0
        for r, c in zip(dims[::2], dims[1::2]):
            mats.append(flat[at : at + r * c].reshape(r, c))
            at += r * c
        return _frozen(kernel(*mats, n))

    @functools.wraps(kernel)
    def memoized(*args):
        *mats, n = args
        mats = [_as_matrix(m, n) for m in mats]
        if sum(m.size for m in mats) > _MEMO_MAX_CELLS:
            return _frozen(kernel(*mats, n))
        return cached(n, *(d for m in mats for d in m.shape), b"".join(m.tobytes() for m in mats))

    memoized.cache_info = cached.cache_info
    memoized.cache_clear = cached.cache_clear
    return memoized


def _frozen(result):
    if result is not None:
        for x in result:
            if isinstance(x, np.ndarray):
                x.setflags(write=False)
    return result


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
    w = _as_matrix(a, n)
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
def solve_left(a, b, n: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Solve Y @ a == b (mod n) for each row of b.

    Returns (Y, K) where Y stacks one particular solution per row of b and
    the rows of K span the left kernel {y : y a == 0}; None if inconsistent.
    """
    a = _as_matrix(a, n)
    b = _as_matrix(b, n)
    m, k = a.shape
    if b.shape[1] != k:
        raise ValueError(f"shape mismatch: a is {a.shape}, b is {b.shape}")
    h = howell_form(np.hstack([a, np.eye(m, dtype=np.int64)]), n)
    # rows are ordered by pivot column, so the rows pivoting in a come first
    pivots = []
    for i, row in enumerate(h):
        j = int(np.argmax(row != 0))
        if j >= k:
            break
        pivots.append((i, j, int(row[j])))
    # copied, since a view would keep all of h alive in the memo
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


def solve_right(a, b, n: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Solve a @ X == b (mod n) columnwise; returns (X, K) with kernel columns.

    `solve_left` reduces its inputs mod n and returns reduced, read-only
    arrays, so the transposes are all the work done here.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if b.shape[:1] != a.shape[:1]:
        raise ValueError(f"shape mismatch: a is {a.shape}, b is {b.shape}")
    out = solve_left(a.T, b.T, n)
    if out is None:
        return None
    y, kern = out
    return y.T, kern.T


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


@_memoized
def diagonalize(a, n: int):
    """Two-sided reduction over Z/n: returns (d, U, Uinv) with U a V ==
    diag(d) mod n for some invertible V, which is not computed, and d the
    tuple of the d_i, divisors of n in a divisibility chain (trailing
    entries may equal n, representing zero diagonal entries).
    """
    a = _as_matrix(a, n)
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
