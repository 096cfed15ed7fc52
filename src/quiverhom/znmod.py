"""Finitely generated Z/n-modules in invariant-factor form, homs between
them, and the module-level homological predicates (injectivity, which over
Z/n is also projectivity, flatness and strong fp-injectivity, splitness,
purity, Gorenstein certificates).

A module is a direct sum of cyclic groups Z/d_1 + ... + Z/d_k with
d_1 | d_2 | ... | d_k and every d_i dividing n; elements are coordinate
vectors with the i-th coordinate read mod d_i.  A hom is a matrix whose
(j, i) entry must satisfy a_ji * d_i == 0 mod e_j, which is checked at
construction, except on homs that satisfy it by construction: sums,
negatives, composites, zero and identity homs, subgroup inclusions,
quotient projections, Matlis duals and the injections and projections of
direct sums.  Internal computations
frequently pass through "ambient" factor tuples that are not divisibility
chains; only FinMod values are required to be canonical.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .linalg import diagonalize, quotient_order, solve_left

# The largest accepted n: the largest with (n - 1)**3 < 2**63, so an
# unreduced product of three residues (HomSystem's L, scales and R) and every
# int64 dot product of two residue vectors shorter than 2**21 stay exact.
MAX_MODULUS = 2**21


@dataclass(frozen=True)
class Modulus:
    """The coefficient ring Z/n, for 2 <= n <= MAX_MODULUS."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("modulus must be at least 2")
        if self.n > MAX_MODULUS:
            raise ValueError(f"modulus must be at most MAX_MODULUS = 2**21 = {MAX_MODULUS}, got {self.n}")

    @cached_property
    def prime_factors(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        m, p = self.n, 2
        while p * p <= m:
            while m % p == 0:
                out[p] = out.get(p, 0) + 1
                m //= p
            p += 1
        if m > 1:
            out[m] = out.get(m, 0) + 1
        return out

    @cached_property
    def divisors(self) -> Tuple[int, ...]:
        """All divisors of n in ascending order."""
        out = [1]
        for p, e in self.prime_factors.items():
            out = [d * p**k for d in out for k in range(e + 1)]
        return tuple(sorted(out))

    def __str__(self):
        return f"Z/{self.n}"


def canonical_chain(orders: Iterable[int], n: int) -> Tuple[int, ...]:
    """Invariant-factor chain of the direct sum of cyclic groups Z/m.

    Regroups prime-power parts so the result is an ascending divisibility
    chain; trivial factors are dropped.
    """
    exps: Dict[int, List[int]] = {}
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


@dataclass(frozen=True)
class FinMod:
    """Finite Z/n-module in canonical invariant-factor form."""

    modulus: Modulus
    factors: Tuple[int, ...]

    def __post_init__(self):
        n = self.modulus.n
        prev = 1
        for d in self.factors:
            if d <= 1 or n % d != 0:
                raise ValueError(f"invalid invariant factor {d} over Z/{n}")
            if d % prev != 0:
                raise ValueError(f"factors {self.factors} are not a divisibility chain")
            prev = d

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def cardinality(self) -> int:
        c = 1
        for d in self.factors:
            c *= d
        return c

    @property
    def is_zero(self) -> bool:
        return not self.factors

    def reduce(self, vec) -> np.ndarray:
        v = np.asarray(vec, dtype=np.int64).reshape(self.rank)
        return np.mod(v, np.array(self.factors, dtype=np.int64)) if self.rank else v

    def elements(self) -> Iterable[np.ndarray]:
        for tup in itertools.product(*[range(d) for d in self.factors]):
            yield np.array(tup, dtype=np.int64)

    def __str__(self):
        if not self.factors:
            return "0"
        return " + ".join(f"Z/{d}" for d in self.factors)


def zero_mod(modulus: Modulus) -> FinMod:
    return FinMod(modulus, ())


def cyclic(modulus: Modulus, d: int) -> FinMod:
    return FinMod(modulus, (d,)) if d > 1 else zero_mod(modulus)


def free_mod(modulus: Modulus, rank: int) -> FinMod:
    return FinMod(modulus, (modulus.n,) * rank)


def _factor_arrays(factors: Sequence[int]):
    return np.array(factors, dtype=np.int64)


class ModHom:
    """Hom of finite Z/n-modules as a congruence-constrained matrix.

    The matrix has shape (codomain rank, domain rank); entries are stored
    reduced mod the codomain factor of their row, so equality of homs is
    equality of matrices.
    """

    __slots__ = ("domain", "codomain", "matrix")

    def __init__(self, domain: FinMod, codomain: FinMod, matrix):
        if domain.modulus != codomain.modulus:
            raise ValueError("modulus mismatch between domain and codomain")
        m = np.asarray(matrix, dtype=np.int64).reshape(codomain.rank, domain.rank)
        if codomain.rank:
            cod_col, scales = _hom_tables(domain.factors, codomain.factors)
            m = np.mod(m, cod_col)
            # m_ji * d_i == 0 mod e_j iff the entry is a multiple of the
            # generator e_j / gcd(d_i, e_j) of its entry group
            bad = m % scales
            if bad.any():
                j, i = np.argwhere(bad).tolist()[0]
                raise ValueError(
                    f"entry {m[j, i]} at ({j},{i}) is not well defined: "
                    f"{m[j, i]}*{domain.factors[i]} != 0 mod {codomain.factors[j]}"
                )
        m.flags.writeable = False
        self.domain = domain
        self.codomain = codomain
        self.matrix = m

    @classmethod
    def _closed(cls, domain: FinMod, codomain: FinMod, m: np.ndarray) -> "ModHom":
        """A hom whose int64 matrix of the right shape is well defined by
        construction (a sum, negative or composite of homs, zero or the
        identity, a subgroup inclusion, a quotient projection, a Matlis
        dual, a direct-sum injection or projection): reduce it mod the
        codomain factors and skip the check."""
        if codomain.rank:
            m = np.mod(m, _hom_tables(domain.factors, codomain.factors)[0])
        m.flags.writeable = False
        h = cls.__new__(cls)
        h.domain = domain
        h.codomain = codomain
        h.matrix = m
        return h

    @property
    def modulus(self) -> Modulus:
        return self.domain.modulus

    def __call__(self, vec) -> np.ndarray:
        x = self.domain.reduce(vec)
        if not self.codomain.rank:
            return np.zeros(0, dtype=np.int64)
        if not self.domain.rank:
            return np.zeros(self.codomain.rank, dtype=np.int64)
        return self.codomain.reduce(self.matrix.dot(x))

    def compose(self, other: "ModHom") -> "ModHom":
        """self after other."""
        if other.codomain != self.domain:
            raise ValueError("homs do not compose")
        return ModHom._closed(other.domain, self.codomain, self.matrix.dot(other.matrix))

    def __add__(self, other: "ModHom") -> "ModHom":
        if (other.domain, other.codomain) != (self.domain, self.codomain):
            raise ValueError("hom addition needs equal domains and codomains")
        return ModHom._closed(self.domain, self.codomain, self.matrix + other.matrix)

    def __neg__(self) -> "ModHom":
        return ModHom._closed(self.domain, self.codomain, -self.matrix)

    def __sub__(self, other: "ModHom") -> "ModHom":
        return self + (-other)

    def __eq__(self, other):
        # equal ends give equal shapes, and both matrices are reduced int64
        return self is other or (
            isinstance(other, ModHom)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.matrix.tobytes() == other.matrix.tobytes()
        )

    def __hash__(self):
        return hash((self.domain.modulus.n, self.domain.factors, self.codomain.factors, self.matrix.tobytes()))

    @property
    def is_zero(self) -> bool:
        return not self.matrix.any()

    def __repr__(self):
        return f"ModHom({self.domain} -> {self.codomain}, {self.matrix.tolist()})"


def zero_hom(domain: FinMod, codomain: FinMod) -> ModHom:
    if domain.modulus != codomain.modulus:
        raise ValueError("modulus mismatch between domain and codomain")
    return ModHom._closed(domain, codomain, np.zeros((codomain.rank, domain.rank), dtype=np.int64))


def identity_hom(m: FinMod) -> ModHom:
    return ModHom._closed(m, m, np.eye(m.rank, dtype=np.int64))


def hom_entry_orders(dom: Sequence[int], cod: Sequence[int]) -> np.ndarray:
    """Order of the (j, i) entry group: gcd(d_i, e_j)."""
    return np.gcd.outer(_factor_arrays(cod), _factor_arrays(dom))


def hom_entry_scales(dom: Sequence[int], cod: Sequence[int]) -> np.ndarray:
    """Generator of the (j, i) entry group: e_j // gcd(d_i, e_j)."""
    return _factor_arrays(cod)[:, None] // hom_entry_orders(dom, cod)


def random_hom(rng: random.Random, dom: FinMod, cod: FinMod) -> ModHom:
    """A uniformly random hom, one draw per entry in row-major order."""
    orders = hom_entry_orders(dom.factors, cod.factors)
    scales = hom_entry_scales(dom.factors, cod.factors)
    mat = np.zeros((cod.rank, dom.rank), dtype=np.int64)
    for j in range(cod.rank):
        for i in range(dom.rank):
            mat[j, i] = scales[j, i] * rng.randrange(int(orders[j, i]))
    return ModHom(dom, cod, mat)


@lru_cache(maxsize=1024)
def _hom_tables(dom: Tuple[int, ...], cod: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """The codomain factors as a column and `hom_entry_scales`, shared per
    factor pair by every `ModHom` construction; read-only."""
    out = (_factor_arrays(cod)[:, None], hom_entry_scales(dom, cod))
    for x in out:
        x.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# mixed-congruence linear systems
# ---------------------------------------------------------------------------


def solve_congruences(
    a, b, row_moduli: Sequence[int], orders: Sequence[int], modulus: Modulus
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Solve a @ x == b with row k read mod r_k and unknown x_t in Z/m_t.

    b is one right-hand side (a vector) or several (the columns of a
    matrix); the particular solution has the same shape, one column per
    column of b, each the solution a one-column call returns.  Every r_k
    and m_t divides n.  A coefficient is well defined when c * m_t == 0
    mod r, i.e. when c is a multiple of r / gcd(m_t, r), which is how it
    is tested, so no product is formed.  Each row is reduced mod its r and
    rescaled by n/r into Z/n; one `solve_left` there projects onto exactly
    the mixed-modulus solutions.  The checks, the scaling and the transpose
    it takes are done in Python ints.  Returns (particular, kernel
    generators as the rows of a matrix) reduced mod the orders, or None
    when some column of b is inconsistent.
    """
    n = modulus.n
    om = np.asarray(orders, dtype=np.int64).ravel().tolist()
    r = np.asarray(row_moduli, dtype=np.int64).ravel().tolist()
    for what, vals in (("unknown order", om), ("equation modulus", r)):
        for m in vals:
            if m < 1 or n % m:
                raise ValueError(f"{what} {m} must divide {n}")
    a_rows = []
    for rk, row in zip(r, np.asarray(a, dtype=np.int64).reshape(len(r), len(om)).tolist()):
        row = [c % rk for c in row]
        for c, m in zip(row, om):
            if c % (rk // gcd(m, rk)):
                raise ValueError(f"coefficient {c} for unknown of order {m} is not well defined mod {rk}")
        a_rows.append([c * (n // rk) for c in row])
    b = np.asarray(b, dtype=np.int64)
    if b.ndim not in (1, 2) or len(b) != len(r):
        raise ValueError(f"shape mismatch: {len(r)} equations, right-hand side of shape {b.shape}")
    rhs = b if b.ndim == 2 else b.reshape(-1, 1)
    b_rows = [[c % rk * (n // rk) for c in row] for rk, row in zip(r, rhs.tolist())]
    # a @ x == b is x^T a^T == b^T: solve_left's operands are the columns,
    # one empty row per unknown and per right-hand side if no equations
    a_cols = list(zip(*a_rows)) if r else [()] * len(om)
    b_cols = list(zip(*b_rows)) if r else [()] * rhs.shape[1]
    out = solve_left(a_cols, b_cols, n)
    if out is None:
        return None
    y, kern = out
    om = np.array(om, dtype=np.int64)
    part = y.T % om[:, None]
    return (part[:, 0] if b.ndim == 1 else part), kern % om


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker product of two matrices, by one broadcast product;
    numpy's own kron costs several times more on the few-by-few blocks
    that the linear systems are assembled from."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


class HomSystem:
    """Linear system whose unknowns are homs between given modules.

    Each unknown hom U is parameterized entrywise by its generator
    multiples, U[j, i] = t_ji * scales[j, i] with t_ji in Z/gcd(d_i, e_j);
    `orders` lists those entry orders for all unknowns, one flat vector.
    Equations are sums of terms sign * L @ U @ R with known L, R, added
    row-major in call order.  Register every unknown before the first
    equation.
    """

    def __init__(self, modulus: Modulus):
        self.modulus = modulus
        self.orders = np.zeros(0, dtype=np.int64)
        # per unknown: its slice of the flat vector, entry scales, codomain column
        self._vars: List[Tuple[slice, np.ndarray, np.ndarray]] = []
        self._blocks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def add_hom_unknown(self, dom_factors: Sequence[int], cod_factors: Sequence[int]) -> int:
        if self._blocks:
            raise ValueError("unknowns must be registered before the first equation")
        cod_col, scales = _hom_tables(tuple(dom_factors), tuple(cod_factors))
        start = len(self.orders)
        self.orders = np.concatenate([self.orders, (cod_col // scales).reshape(-1)])
        self._vars.append((slice(start, len(self.orders)), scales, cod_col))
        return len(self._vars) - 1

    def add_matrix_equation(
        self,
        terms: Sequence[Tuple[int, np.ndarray, np.ndarray, int]],
        rhs: np.ndarray,
        row_factors: Sequence[int],
    ):
        """Sum of sign * L @ U_var @ R terms equals rhs, rows read mod row_factors."""
        if not len(row_factors):
            return
        rhs = np.asarray(rhs, dtype=np.int64)
        n_rows, n_cols = rhs.shape
        moduli = np.repeat(np.array(row_factors, dtype=np.int64), n_cols)[:, None]
        block = np.zeros((n_rows * n_cols, len(self.orders)), dtype=np.int64)
        for var, left, right, sign in terms:
            cols, scales, _ = self._vars[var]
            left = np.asarray(left, dtype=np.int64).reshape(n_rows, scales.shape[0])
            right = np.asarray(right, dtype=np.int64).reshape(scales.shape[1], n_cols)
            # row (a, b), column (j, i): sign * L[a, j] * R[i, b] * scales[j, i]
            block[:, cols] += sign * kron(left, right.T) * scales.reshape(-1) % moduli
        self._blocks.append((block, rhs.reshape(-1), moduli[:, 0]))

    def solve(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """`solve_congruences` on the flat unknowns: (particular, kernel
        generators as rows), or None."""
        if self._blocks:
            a, b, r = (np.concatenate(parts) for parts in zip(*self._blocks))
        else:
            a, b, r = np.zeros((0, len(self.orders)), dtype=np.int64), (), ()
        return solve_congruences(a, b, r, self.orders, self.modulus)

    def assignment(self, flat) -> List[np.ndarray]:
        """The matrix of each unknown hom at a flat vector."""
        flat = np.asarray(flat, dtype=np.int64)
        return [(flat[cols].reshape(scales.shape) * scales) % cod_col for cols, scales, cod_col in self._vars]

    def flat_of(self, matrices: Sequence[np.ndarray]) -> np.ndarray:
        """Inverse of `assignment` on well-defined hom matrices: every entry
        is a multiple of its generator, so the division is exact."""
        flat = np.zeros(len(self.orders), dtype=np.int64)
        for m, (cols, scales, _) in zip(matrices, self._vars):
            flat[cols] = (np.asarray(m, dtype=np.int64) // scales).reshape(-1)
        return flat


# ---------------------------------------------------------------------------
# presentations, subgroups, quotients
# ---------------------------------------------------------------------------


def present(relations, modulus: Modulus):
    """Canonical form of the cokernel of a relations matrix over Z/n.

    Rows index generators, columns index relations.  Returns
    (module, proj, sect) with proj @ sect == identity mod the invariant
    factors; proj maps old generator coordinates onto canonical coordinates.
    """
    n = modulus.n
    rel = np.asarray(relations, dtype=np.int64)
    if rel.ndim != 2:
        raise ValueError(f"expected a 2d relations matrix, got shape {rel.shape}")
    g = rel.shape[0]
    if g == 0:
        return zero_mod(modulus), np.zeros((0, 0), dtype=np.int64), np.zeros((0, 0), dtype=np.int64)
    d, u, uinv = diagonalize(rel, n)
    keep = [i for i, di in enumerate(d) if di > 1]
    factors = tuple(int(d[i]) for i in keep)
    mod = FinMod(modulus, factors)
    proj = u[keep, :] % n
    if keep:
        proj = proj % _factor_arrays(factors)[:, None]
    sect = uinv[:, keep] % n
    return mod, proj, sect


def direct_sum_with_maps(mods: Sequence[FinMod], modulus: Modulus):
    """Canonical direct sum with tuples of injections and projections for
    each summand, memoized per summand tuple and modulus; the homs are
    read-only, so every caller shares them."""
    return _direct_sum(tuple(mods), modulus)


@lru_cache(maxsize=1024)
def _direct_sum(mods: Tuple[FinMod, ...], modulus: Modulus):
    all_factors = tuple(d for m in mods for d in m.factors)
    g = len(all_factors)
    if all(b % a == 0 for a, b in zip(all_factors, all_factors[1:])):
        # already canonical: diag(chain) presents itself with proj = sect = I
        total = FinMod(modulus, all_factors)
        proj = sect = np.eye(g, dtype=np.int64)
    else:
        total, proj, sect = present(np.diag(np.array(all_factors, dtype=np.int64)), modulus)
    injections, projections = [], []
    offset = 0
    for m in mods:
        r = m.rank
        inj = proj[:, offset : offset + r] if total.rank else np.zeros((0, r), dtype=np.int64)
        prj = sect[offset : offset + r, :] if total.rank else np.zeros((r, 0), dtype=np.int64)
        # proj and sect are mutually inverse isomorphisms between the
        # summands' coordinates and the canonical sum, so both are homs
        injections.append(ModHom._closed(m, total, inj))
        projections.append(ModHom._closed(total, m, prj))
        offset += r
    return total, tuple(injections), tuple(projections)


def subgroup_present(ambient_orders: Sequence[int], gens: Sequence[np.ndarray], modulus: Modulus):
    """Present the subgroup of prod Z/m_c generated by gens.

    Returns (module, incl) where incl maps canonical coordinates to ambient
    coordinates (columns are the canonical generators).
    """
    amb = list(ambient_orders)
    r = len(gens)
    if r == 0:
        return zero_mod(modulus), np.zeros((len(amb), 0), dtype=np.int64)
    gmat = np.array([np.asarray(g, dtype=np.int64).reshape(len(amb)) for g in gens], dtype=np.int64).T
    out = solve_congruences(gmat, np.zeros(len(amb), dtype=np.int64), amb, [modulus.n] * r, modulus)
    assert out is not None
    rel = out[1].T
    sub, _, sect = present(rel, modulus)
    incl = gmat.dot(sect) % modulus.n if sub.rank else np.zeros((len(amb), 0), dtype=np.int64)
    if amb:
        incl = incl % _factor_arrays(amb)[:, None]
    return sub, incl


def ambient_coords_solve(
    ambient_orders: Sequence[int], incl: np.ndarray, target: np.ndarray, modulus: Modulus
) -> Optional[np.ndarray]:
    """Solve incl @ c == target in prod Z/m_c for c over the column module;
    a matrix target gives one column of c per column, solved in one pass."""
    out = solve_congruences(incl, target, ambient_orders, [modulus.n] * incl.shape[1], modulus)
    return None if out is None else out[0]


def subgroup_with_inclusion(ambient: FinMod, gens: Sequence[np.ndarray]):
    sub, incl = subgroup_present(ambient.factors, gens, ambient.modulus)
    return sub, ModHom._closed(sub, ambient, incl)


def quotient_with_projection(ambient_orders: Sequence[int], gens: Sequence[np.ndarray], modulus: Modulus):
    """Quotient of prod Z/m_c by the subgroup generated by gens.

    Returns (module, proj, sect): proj is a hom on ambient coordinates and
    sect lifts canonical coordinates to ambient representatives.
    """
    amb = list(ambient_orders)
    g = len(amb)
    cols = [np.diag(np.array(amb, dtype=np.int64))] if g else []
    if gens:
        cols.append(np.array([np.asarray(v, dtype=np.int64).reshape(g) for v in gens]).T)
    rel = np.hstack(cols) if cols else np.zeros((0, 0), dtype=np.int64)
    quo, proj, sect = present(rel, modulus)
    return quo, proj, sect


# a plain function over the memo, unlike `cokernel_order` and `splits`:
# the benchmark counts kernel_of_hom calls, and its tracer wraps only functions
def kernel_of_hom(f: ModHom):
    """(K, incl) with K the kernel of f and incl its inclusion into dom(f).
    Memoized per hom, like `cokernel_order` and `splits`: an LRU cache of
    1024 entries each, which hands every caller the same read-only result."""
    return _kernel_of_hom(f)


@lru_cache(maxsize=1024)
def _kernel_of_hom(f: ModHom):
    zero = np.zeros(f.codomain.rank, dtype=np.int64)
    out = solve_congruences(f.matrix, zero, f.codomain.factors, f.domain.factors, f.modulus)
    assert out is not None
    return subgroup_with_inclusion(f.domain, out[1])


def image_of_hom(f: ModHom):
    gens = [f.matrix[:, i] for i in range(f.domain.rank)]
    return subgroup_with_inclusion(f.codomain, gens)


def cokernel_of_hom(f: ModHom):
    """(C, proj, sect) with proj: cod(f) -> C the canonical projection and
    sect lifting canonical coordinates of C to cod(f)."""
    gens = [f.matrix[:, i] for i in range(f.domain.rank)]
    quo, proj, sect = quotient_with_projection(f.codomain.factors, gens, f.modulus)
    return quo, ModHom._closed(f.codomain, quo, proj), sect


@lru_cache(maxsize=1024)
def cokernel_order(f: ModHom) -> int:
    """|coker f|, without presenting the cokernel."""
    return quotient_order(f.matrix, f.codomain.factors, f.modulus.n)


def image_order(f: ModHom) -> int:
    """|im f| = |cod f| / |coker f|."""
    return f.codomain.cardinality // cokernel_order(f)


def kernel_order(f: ModHom) -> int:
    """|ker f| = |dom f| / |im f|."""
    return f.domain.cardinality // image_order(f)


def is_mono(f: ModHom) -> bool:
    return image_order(f) == f.domain.cardinality


def is_epi(f: ModHom) -> bool:
    return cokernel_order(f) == 1


# ---------------------------------------------------------------------------
# hom groups and Matlis duality
# ---------------------------------------------------------------------------


def hom_group(m: FinMod, nmod: FinMod) -> Tuple[FinMod, List[ModHom]]:
    """The group Hom(M, N) in canonical form with matching generator homs."""
    if m.modulus != nmod.modulus:
        raise ValueError("modulus mismatch")
    orders = hom_entry_orders(m.factors, nmod.factors).reshape(-1)
    scales = hom_entry_scales(m.factors, nmod.factors).reshape(-1)
    rel = np.diag(orders) if len(orders) else np.zeros((0, 0), dtype=np.int64)
    grp, _, sect = present(rel, m.modulus)
    basis = []
    for k in range(grp.rank):
        entries = (sect[:, k] * scales) % m.modulus.n
        basis.append(ModHom(m, nmod, entries.reshape(nmod.rank, m.rank)))
    return grp, basis


def matlis_dual(m: FinMod) -> FinMod:
    """M+ = Hom(M, Z/n); for finite modules this has the same factors as M."""
    return FinMod(m.modulus, m.factors)


def matlis_dual_hom(f: ModHom) -> ModHom:
    """Contravariant dual: (f+)[i, j] acts on dual coordinates.

    The dual coordinate u_j of N+ stands for the functional sending the j-th
    generator to u_j * (n / e_j); pulling back along f and re-expressing in
    the dual coordinates of M+ yields the matrix below.
    """
    n = f.modulus.n
    dom, cod = f.domain, f.codomain
    d = _factor_arrays(dom.factors)[:, None]
    out = (f.matrix.T * (n // _factor_arrays(cod.factors)) % n) // (n // d) % d
    return ModHom._closed(matlis_dual(cod), matlis_dual(dom), out)


def double_dual_iso(m: FinMod) -> ModHom:
    """The natural evaluation map M -> M++ (the identity in coordinates)."""
    return ModHom(m, matlis_dual(matlis_dual(m)), np.eye(m.rank, dtype=np.int64))


# ---------------------------------------------------------------------------
# the one module class: injective = projective = flat = strongly fp-injective
# ---------------------------------------------------------------------------


def is_injective_module(m: FinMod) -> bool:
    """M = sum Z/d_i is injective over Z/n iff gcd(d_i, n/d_i) = 1 for every
    i: each p-part of Z/d_i is 0 or all of Z/p^{v_p(n)}.  Over the
    noetherian ring Z/n this one class is also the projective, flat,
    fp-injective and strongly fp-injective modules."""
    n = m.modulus.n
    return all(gcd(d, n // d) == 1 for d in m.factors)


def ext_module(f: FinMod, m: FinMod, degree: int) -> FinMod:
    """Ext^i(F, M) over Z/n via the 2-periodic free resolutions of cyclics.

    For i >= 1 and cyclic arguments the value is cyclic of order
    gcd(n/d, e) * gcd(d, e) / e, independent of i.
    """
    if f.modulus != m.modulus:
        raise ValueError("modulus mismatch")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    n = f.modulus.n
    if degree == 0:
        return hom_group(f, m)[0]
    orders = []
    for d in f.factors:
        for e in m.factors:
            k = gcd(n // d, e) * gcd(d, e) // e
            if k > 1:
                orders.append(k)
    return FinMod(f.modulus, canonical_chain(orders, n))


# ---------------------------------------------------------------------------
# short exact sequences: splitness and purity
# ---------------------------------------------------------------------------


class ModSES:
    """0 -> L --f--> M --g--> N -> 0 of finite Z/n-modules, certified exact."""

    def __init__(self, f: ModHom, g: ModHom):
        if f.codomain != g.domain:
            raise ValueError("middle terms disagree")
        comp = g.compose(f)
        if not comp.is_zero:
            raise ValueError("g o f is nonzero")
        if not is_mono(f):
            raise ValueError("f is not injective")
        if not is_epi(g):
            raise ValueError("g is not surjective")
        if f.domain.cardinality * g.codomain.cardinality != f.codomain.cardinality:
            raise ValueError("cardinalities rule out exactness at the middle")
        self.f = f
        self.g = g

    @property
    def modulus(self) -> Modulus:
        return self.f.modulus


def retraction_of(f: ModHom) -> Optional[ModHom]:
    """r with r o f == id on dom(f), if one exists."""
    eye = np.eye(f.domain.rank, dtype=np.int64)
    sysm = HomSystem(f.modulus)
    var = sysm.add_hom_unknown(f.codomain.factors, f.domain.factors)
    sysm.add_matrix_equation([(var, eye, f.matrix, 1)], eye, f.domain.factors)
    out = sysm.solve()
    return None if out is None else ModHom(f.codomain, f.domain, sysm.assignment(out[0])[0])


def is_split(s: ModSES) -> Optional[ModHom]:
    """A retraction of s.f when the sequence splits, else None."""
    return retraction_of(s.f)


def torsion_order(m: FinMod, d: int) -> int:
    """|M[d]| = |{x : d x == 0}| = prod gcd(d, m_i), which is also
    |Z/d (x) M|, read off the invariant factors m_i."""
    return prod(gcd(d, c) for c in m.factors)


@lru_cache(maxsize=1024)
def splits(h: ModHom, epi: bool) -> bool:
    """Whether h is a split epi (epi=True) or a split mono, from orders alone.

    A sequence of bounded abelian groups is pure iff it splits (Fuchs,
    Infinite Abelian Groups I, 27-28), and by the primary decomposition
    purity is Hom(Z/d, -) exactness for the prime powers d = p^a only; past
    the p-exponent of every factor of dom(h) and cod(h) the test repeats.
    - Epi g: B -> C: g(B[d]) == C[d].  B[d] is generated by the columns
      (b_i / gcd(d, b_i)) e_i, so |g(B[d])| = |C| / |C / g(B[d])|.
    - Mono f: A -> C: f(A) meets dC in d f(A) only, i.e.
      |C / (f(A) + dC)| |A[d]| == |C[d]|; C / dC is sum Z/gcd(d, c_i).
    At the largest d for each p, B[d], C[d] and A[d] are the p-parts and dC
    is the p'-part of C, so the tests also force g onto and f one-to-one:
    no separate epi or mono check is needed.
    """
    dom, cod = h.domain, h.codomain
    n = h.modulus.n
    top = lcm(dom.factors[-1] if dom.rank else 1, cod.factors[-1] if cod.rank else 1)
    for p in h.modulus.prime_factors:
        d = p
        while top % d == 0:
            if epi:
                gens = h.matrix * [b // gcd(d, b) for b in dom.factors]
                ok = quotient_order(gens, cod.factors, n) * torsion_order(cod, d) == cod.cardinality
            else:
                mod_d = [gcd(d, c) for c in cod.factors]
                ok = quotient_order(h.matrix, mod_d, n) * torsion_order(dom, d) == torsion_order(cod, d)
            if not ok:
                return False
            d *= p
    return True


def is_pure_module_ses(s: ModSES) -> Tuple[bool, Optional[int]]:
    """Purity test by Hom(Z/d, -) exactness for every divisor d > 1 of n.

    Over Z/n every finitely presented module is a finite direct sum of
    cyclics, so these test objects suffice.  Hom(Z/d, -) is left exact, so
    0 -> A[d] -> B[d] -> C[d] is exact and every element of C[d] lifts into
    B[d] iff |A[d]| |C[d]| == |B[d]|: each d costs three products of gcds
    (`torsion_order`) and no solve.  Returns the smallest failing divisor
    as witness when impure.
    """
    a, b, c = s.f.domain, s.f.codomain, s.g.codomain
    for d in s.modulus.divisors[1:]:
        if torsion_order(a, d) * torsion_order(c, d) != torsion_order(b, d):
            return False, d
    return True, None


# ---------------------------------------------------------------------------
# Gorenstein certificates at the module level
# ---------------------------------------------------------------------------


class ModComplex:
    """A window of a complex of modules; diffs[k] maps degree k to k-1.
    Both tables are read-only mappings."""

    def __init__(self, components: Mapping[int, FinMod], diffs: Mapping[int, ModHom]):
        self.components = MappingProxyType(dict(components))
        self.diffs = MappingProxyType(dict(diffs))
        for k, d in self.diffs.items():
            if d.domain != self.components[k] or d.codomain != self.components[k - 1]:
                raise ValueError(f"differential at degree {k} has wrong endpoints")
        for k, d in self.diffs.items():
            if k - 1 in self.diffs and not self.diffs[k - 1].compose(d).is_zero:
                raise ValueError(f"d o d != 0 at degree {k}")

    def degrees(self):
        return sorted(self.components)

    def is_exact_at(self, k: int) -> bool:
        if k + 1 not in self.diffs or k not in self.diffs:
            raise ValueError(f"degree {k} is not interior to the window")
        if kernel_order(self.diffs[k]) != image_order(self.diffs[k + 1]):
            return False
        return self.diffs[k].compose(self.diffs[k + 1]).is_zero

    def interior_exact(self) -> bool:
        degs = self.degrees()
        return all(self.is_exact_at(k) for k in degs[1:-1])

    def dual(self) -> "ModComplex":
        comps = {-k: matlis_dual(m) for k, m in self.components.items()}
        diffs = {}
        for k, d in self.diffs.items():
            diffs[-(k - 1)] = matlis_dual_hom(d)
        return ModComplex(comps, diffs)


def gi_module_certificate(m: FinMod, window: int = 3) -> Tuple[ModComplex, ModHom]:
    """A totally acyclic complex of free modules with M as its degree-0 cycle.

    Built per invariant factor by splicing the 2-periodic complexes with
    differentials alternating multiplication by d and by n/d; over the
    quasi-Frobenius ring Z/n this always succeeds.  Returns the complex and
    the iso from M onto ker(d_0).
    """
    n = m.modulus.n
    free = free_mod(m.modulus, m.rank)
    comps = {k: free for k in range(-window, window + 1)}
    diffs = {}
    for k in range(-window + 1, window + 1):
        if k % 2 == 0:
            diag = [d for d in m.factors]
        else:
            diag = [n // d for d in m.factors]
        diffs[k] = ModHom(free, free, np.diag(np.array(diag, dtype=np.int64)) if m.rank else np.zeros((0, 0)))
    cx = ModComplex(comps, diffs)
    witness = ModHom(m, free, np.diag(np.array([n // d for d in m.factors], dtype=np.int64)) if m.rank else np.zeros((0, 0)))
    return cx, witness


def verify_gi_certificate(m: FinMod, cx: ModComplex, witness: ModHom) -> bool:
    """Replay a Gorenstein certificate: exactness, total acyclicity on the
    window, and that the witness embeds M onto the degree-0 cycles."""
    if not cx.interior_exact():
        return False
    if not cx.dual().interior_exact():
        return False
    if witness.domain != m:
        return False
    if not is_mono(witness):
        return False
    if 0 not in cx.diffs:
        return False
    if not cx.diffs[0].compose(witness).is_zero:
        return False
    ker, _ = kernel_of_hom(cx.diffs[0])
    return ker.cardinality == image_order(witness) and ker.factors == m.factors


@lru_cache(maxsize=1024)
def is_gi_certified(m: FinMod) -> bool:
    """`verify_gi_certificate` on `gi_module_certificate(m)`, memoized per
    module: the verdict depends only on the modulus and the factors.  A
    certificate from elsewhere goes through `verify_gi_certificate`, which
    replays it every time."""
    return verify_gi_certificate(m, *gi_module_certificate(m))
