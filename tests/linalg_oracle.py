"""The numpy kernels that `quiverhom.linalg` ran on large inputs, kept as
the oracle for its one Python-int kernel per operation.

`_howell_numpy`, `_solve_left_numpy`, `_Tracked` and `_diagonalize_numpy`
are the package's former numpy kernels, unchanged.  They do the same
pivots, gcd steps and row and column operations in the same order as the
package's kernels, on dense int64 arrays, so `howell_form`, `solve_left`,
`diagonalize` and `solve_rows` below must return results identical to the
package's: Howell rows, solutions, kernels, chains, `U` and `Uinv`.
`_solve_left_numpy` builds its Howell form with this module's
`howell_form`, so no oracle result goes through the package's kernels.
`quotient_order` is the package's former column fold, a second echelon
algorithm, unchanged: it must give the order the package reads off the
Howell kernel.
"""

from __future__ import annotations

from math import gcd
from typing import Optional, Tuple

import numpy as np

from quiverhom.linalg import unit_multiplier, xgcd


def _reduced(a, n: int) -> np.ndarray:
    return np.mod(np.asarray(a, dtype=np.int64), n)


def howell_form(a, n: int) -> np.ndarray:
    return _howell_numpy(_reduced(a, n), n)


def solve_left(a, b, n: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    return _solve_left_numpy(_reduced(a, n), _reduced(b, n), n)


def solve_rows(a, b, n: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """`solve_left` on sequences of int rows, as `quiverhom.znmod` passes
    them: b has at least one row, which gives the column count of a."""
    k = len(b[0])
    return solve_left(np.array(a, dtype=np.int64).reshape(len(a), k), np.array(b, dtype=np.int64).reshape(len(b), k), n)


def diagonalize(a, n: int):
    return _diagonalize_numpy(_reduced(a, n), n)


def quotient_order(a, orders, n: int) -> int:
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
