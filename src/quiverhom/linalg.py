"""Exact matrix arithmetic over Z/N: Howell normal form, linear solvers,
two-sided diagonalization, and the order of a quotient by a column span.

Everything in this file works on numpy int64 arrays whose entries live in
[0, N), except `quotient_order`, which computes in Python ints.  The Howell
form is the canonical echelon form for row modules over Z/N: unlike a plain
echelon form it spans *all* row-module elements whose leading coordinates
vanish, which is what makes greedy back-substitution and kernel extraction
correct over a ring with zero divisors.
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
    read-only on both paths, since cached ones are shared by every caller,
    and list members of the result are copied on each call.
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
            out = _frozen(kernel(*mats, n))
        else:
            out = cached(n, *(d for m in mats for d in m.shape), b"".join(m.tobytes() for m in mats))
        return None if out is None else tuple(list(x) if isinstance(x, list) else x for x in out)

    memoized.cache_info = cached.cache_info
    memoized.cache_clear = cached.cache_clear
    return memoized


def _frozen(result):
    if result is not None:
        for x in result:
            if isinstance(x, np.ndarray):
                x.setflags(write=False)
    return result


def _echelon(rows: np.ndarray, n: int) -> Tuple[np.ndarray, List[int]]:
    """Row echelon via unimodular 2x2 gcd transforms; returns (rows, pivot cols).

    Rows that are exact multiples of the pivot are cleared in one vectorized
    sweep; the occasional non-multiple is folded in with a gcd transform,
    which strictly decreases the pivot value, so at most log2(n) sweeps run
    per column.
    """
    w = rows.copy()
    m, k = w.shape
    r = 0
    pivots: List[int] = []
    for j in range(k):
        if r >= m:
            break
        col = w[r:, j]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        # pivot with minimal gcd(., n), then minimal value, for stability
        vals = col[nz]
        keys = np.gcd(vals, n) * (n + 1) + vals
        best = int(nz[int(np.argmin(keys))]) + r
        if best != r:
            w[[r, best]] = w[[best, r]]
        while True:
            piv = int(w[r, j])
            below = w[r + 1 :, j]
            nzb = np.nonzero(below)[0]
            if nzb.size == 0:
                break
            divisible = nzb[below[nzb] % piv == 0]
            if divisible.size:
                idx = divisible + r + 1
                q = w[idx, j] // piv
                w[idx] = (w[idx] - q[:, None] * w[r]) % n
            rest = np.nonzero(w[r + 1 :, j])[0]
            if rest.size == 0:
                break
            i = int(rest[0]) + r + 1
            a, b = int(w[r, j]), int(w[i, j])
            g, s, t = xgcd(a, b)
            new_r = (s * w[r] + t * w[i]) % n
            new_i = ((-(b // g)) * w[r] + (a // g) * w[i]) % n
            w[r], w[i] = new_r, new_i
        if w[r, j] != 0:
            pivots.append(j)
            r += 1
    return w[:r], pivots


def howell_form(a, n: int) -> np.ndarray:
    """Canonical Howell normal form of the row module of `a` over Z/n.

    Pivot entries divide n, entries above each pivot are reduced modulo the
    pivot, zero rows are dropped, and rows are ordered by pivot column.  Two
    matrices have equal Howell forms iff they span the same row module.
    """
    w = _as_matrix(a, n)
    rows, _ = _echelon(w, n)
    # saturate: at the fixpoint every weak multiple of a pivot row reduces to
    # zero against the rows below it, which is exactly the Howell condition
    for _ in range(w.shape[1] + 8):
        extra = []
        for i in range(rows.shape[0]):
            j = int(np.argmax(rows[i] != 0))
            d = int(rows[i, j])
            c = n // gcd(n, d)
            if c % n == 0:
                continue
            cand = (c * rows[i]) % n
            if cand.any():
                extra.append(cand)
        if not extra:
            break
        merged = np.vstack([rows, np.array(extra, dtype=np.int64)])
        new_rows, _ = _echelon(merged, n)
        if new_rows.shape == rows.shape and np.array_equal(new_rows, rows):
            break
        rows = new_rows
    else:
        raise RuntimeError("howell saturation did not converge")
    # normalize pivots to divisors of n and reduce entries above pivots
    for i in range(rows.shape[0]):
        j = int(np.argmax(rows[i] != 0))
        u = unit_multiplier(int(rows[i, j]), n)
        rows[i] = (u * rows[i]) % n
    for i in range(rows.shape[0]):
        if i == 0:
            continue
        j = int(np.argmax(rows[i] != 0))
        d = int(rows[i, j])
        q = rows[:i, j] // d
        rows[:i] = (rows[:i] - q[:, None] * rows[i]) % n
    return rows


def _pivot_index(rows: np.ndarray) -> List[Tuple[int, int, int]]:
    out = []
    for i in range(rows.shape[0]):
        j = int(np.argmax(rows[i] != 0))
        out.append((i, j, int(rows[i, j])))
    return out


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
    aug = np.hstack([a, np.eye(m, dtype=np.int64)])
    h = howell_form(aug, n)
    span_rows = h[[j < k for _, j, _ in _pivot_index(h)]] if h.shape[0] else h
    kern_rows = h[[j >= k for _, j, _ in _pivot_index(h)]] if h.shape[0] else h
    kernel = kern_rows[:, k:] if kern_rows.shape[0] else np.zeros((0, m), dtype=np.int64)
    sols = np.zeros((b.shape[0], m), dtype=np.int64)
    for t in range(b.shape[0]):
        target = np.hstack([b[t], np.zeros(m, dtype=np.int64)])
        res = target.copy()
        y = np.zeros(m, dtype=np.int64)
        for i, j, d in _pivot_index(span_rows):
            v = int(res[j])
            if j >= k or v == 0:
                continue
            if v % d != 0:
                return None
            q = v // d
            res = (res - q * span_rows[i]) % n
            y = (y - q * span_rows[i, k:]) % n
        if res[:k].any():
            return None
        sols[t] = (-y) % n
    return sols % n, kernel


def left_kernel(a, n: int) -> np.ndarray:
    """Basis rows for {y : y a == 0 (mod n)}."""
    a = _as_matrix(a, n)
    out = solve_left(a, np.zeros((0, a.shape[1]), dtype=np.int64), n)
    assert out is not None
    return out[1]


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
    """Matrix with row/column transforms tracked alongside their inverses."""

    def __init__(self, a: np.ndarray, n: int):
        self.n = n
        self.d = a.copy()
        m, k = a.shape
        self.u = np.eye(m, dtype=np.int64)
        self.uinv = np.eye(m, dtype=np.int64)
        self.v = np.eye(k, dtype=np.int64)
        self.vinv = np.eye(k, dtype=np.int64)

    def row_swap(self, i, j):
        self.d[[i, j]] = self.d[[j, i]]
        self.u[[i, j]] = self.u[[j, i]]
        self.uinv[:, [i, j]] = self.uinv[:, [j, i]]

    def col_swap(self, i, j):
        self.d[:, [i, j]] = self.d[:, [j, i]]
        self.v[:, [i, j]] = self.v[:, [j, i]]
        self.vinv[[i, j]] = self.vinv[[j, i]]

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
        n = self.n
        det = (s * q - t * p) % n
        _, dinv, _ = xgcd(det, n)
        dinv %= n
        for mat in (self.d, self.v):
            ci, cj = mat[:, i].copy(), mat[:, j].copy()
            mat[:, i] = (s * ci + t * cj) % n
            mat[:, j] = (p * ci + q * cj) % n
        ri, rj = self.vinv[i].copy(), self.vinv[j].copy()
        self.vinv[i] = (dinv * (q * ri - p * rj)) % n
        self.vinv[j] = (dinv * (-t * ri + s * rj)) % n

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
        n = self.n
        for mat in (self.d, self.v):
            mat[:, idx] = (mat[:, idx] - q[None, :] * mat[:, [p]]) % n
        self.vinv[p] = (self.vinv[p] + q.dot(self.vinv[idx])) % n


@_memoized
def diagonalize(a, n: int):
    """Two-sided reduction over Z/n: returns (d, U, Uinv, V, Vinv) with
    U a V == diag(d) mod n, the d_i divisors of n in a divisibility chain
    (trailing entries may equal n, representing zero diagonal entries).
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
    chain = [d if d != 0 else n for d in diag]
    return chain, t.u % n, t.uinv % n, t.v % n, t.vinv % n
