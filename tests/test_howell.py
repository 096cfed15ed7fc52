"""The one-pass `howell_form` against brute force and the saturating original.

`reference_howell_form` is the earlier implementation, kept here as the
oracle: an echelon pass, then the annihilator multiples of every pivot row
re-echeloned with the rest until nothing changes.  The same checks run on
`linalg_oracle.howell_form`, the numpy kernel that other tests hold the
package's kernel to.
"""

import random
from math import gcd
from typing import List, Tuple

import numpy as np
import pytest

import linalg_oracle as oracle
from quiverhom.linalg import howell_form, unit_multiplier, xgcd


def _reference_echelon(rows: np.ndarray, n: int) -> Tuple[np.ndarray, List[int]]:
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


def reference_howell_form(a, n: int) -> np.ndarray:
    w = np.mod(np.asarray(a, dtype=np.int64), n)
    rows, _ = _reference_echelon(w, n)
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
        new_rows, _ = _reference_echelon(merged, n)
        if new_rows.shape == rows.shape and np.array_equal(new_rows, rows):
            break
        rows = new_rows
    else:
        raise RuntimeError("howell saturation did not converge")
    for i in range(rows.shape[0]):
        j = int(np.argmax(rows[i] != 0))
        u = unit_multiplier(int(rows[i, j]), n)
        rows[i] = (u * rows[i]) % n
    for i in range(1, rows.shape[0]):
        j = int(np.argmax(rows[i] != 0))
        d = int(rows[i, j])
        q = rows[:i, j] // d
        rows[:i] = (rows[:i] - q[:, None] * rows[i]) % n
    return rows


def span(rows, n: int, k: int) -> np.ndarray:
    """Every Z/n-combination of `rows`, as sorted distinct vectors."""
    vecs = np.zeros((1, k), dtype=np.int64)
    for r in rows:
        vecs = (vecs[:, None, :] + np.arange(n)[None, :, None] * r) % n
        vecs = np.unique(vecs.reshape(-1, k), axis=0)
    return vecs


def rand_mat(rng, rows, cols, n):
    """Uniform entries, or, half the time, each column scaled by a random
    divisor of n, so that pivots with zero divisors are common."""
    a = np.array([rng.randrange(n) for _ in range(rows * cols)], dtype=np.int64).reshape(rows, cols)
    if rng.random() < 0.5:
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        a = (a * np.array([rng.choice(divisors) for _ in range(cols)], dtype=np.int64)) % n
    return a


def _as_array(out, cols: int) -> np.ndarray:
    """A Howell form as an int64 array: the oracle's as it is, the
    package's after checking it is a tuple of tuples of Python ints."""
    if not isinstance(out, np.ndarray):
        assert type(out) is tuple and all(type(row) is tuple and all(type(x) is int for x in row) for row in out)
    return np.array(out, dtype=np.int64).reshape(len(out), cols)


def _check_against_brute_force(howell, n):
    rng = random.Random(31 * n)
    for rows in range(4):
        for cols in range(1, 5):
            for _ in range(6):
                a = rand_mat(rng, rows, cols, n)
                h = _as_array(howell(a, n), cols)
                full = span(a, n, cols)
                assert np.array_equal(span(h, n, cols), full)
                assert all(row.any() for row in h)
                pivots = [int(np.argmax(row != 0)) for row in h]
                assert pivots == sorted(set(pivots))
                for i, j in enumerate(pivots):
                    d = int(h[i, j])
                    assert n % d == 0
                    assert (h[:i, j] < d).all()
                    # Howell property: the rows pivoting at j or later span
                    # every element of the module that vanishes before j
                    tail = full[~full[:, :j].any(axis=1)]
                    assert np.array_equal(span(h[i:], n, cols), tail)
                assert np.array_equal(h, reference_howell_form(a, n))


@pytest.mark.parametrize("n", range(2, 13))
def test_howell_form_against_brute_force(n):
    _check_against_brute_force(howell_form, n)


def _check_against_reference_on_augmented_inputs(howell, n):
    rng = random.Random(n)
    for _ in range(30):
        m, k = rng.randrange(1, 13), rng.randrange(1, 13)
        aug = np.hstack([rand_mat(rng, m, k, n), np.eye(m, dtype=np.int64)])
        h = _as_array(howell(aug, n), m + k)
        ref = reference_howell_form(aug, n)
        assert h.shape == ref.shape and np.array_equal(h, ref)


@pytest.mark.parametrize("n", [12, 36, 72, 388, 1024])
def test_howell_form_matches_reference_on_augmented_inputs(n):
    _check_against_reference_on_augmented_inputs(howell_form, n)


@pytest.mark.parametrize("n", range(2, 13))
def test_numpy_howell_form_against_brute_force(n):
    _check_against_brute_force(oracle.howell_form, n)


@pytest.mark.parametrize("n", [12, 36, 72, 388, 1024])
def test_numpy_howell_form_matches_reference_on_augmented_inputs(n):
    _check_against_reference_on_augmented_inputs(oracle.howell_form, n)
