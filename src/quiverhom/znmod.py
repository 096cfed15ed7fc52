"""Finitely generated Z/n-modules in invariant-factor form, homs between
them, and the module-level homological predicates (injectivity, which over
Z/n is also projectivity, flatness and strong fp-injectivity, splitness,
purity, Gorenstein certificates).

A module is a direct sum of cyclic groups Z/d_1 + ... + Z/d_k with
d_1 | d_2 | ... | d_k and every d_i dividing n; elements are coordinate
vectors with the i-th coordinate read mod d_i, as tuples of Python ints.
A hom is a matrix, a tuple of int rows as in `linalg`, whose (j, i) entry
must satisfy a_ji * d_i == 0 mod e_j, which is checked at
construction, except on homs that satisfy it by construction: sums,
negatives, composites, zero and identity homs, subgroup inclusions,
quotient projections, Matlis duals, the injections and projections of
direct sums and the solutions of hom systems.  Internal computations
frequently pass through "ambient" factor tuples that are not divisibility
chains; only FinMod values are required to be canonical.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from operator import add, index, mul
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .linalg import Matrix, diag, diagonalize, from_entries, hstack, identity, matmul, mod_rows, quotient_order, solve_left, transpose

# The largest accepted n.  Python ints make every product exact at any n;
# the cap is kept as a fixed part of the interface (inputs, messages).
MAX_MODULUS = 2**21


def _as_ints(values, what: str) -> Tuple[int, ...]:
    """The values as Python ints, read with `operator.index`: a float or a
    string raises, named, instead of being truncated or parsed."""
    values = tuple(values)
    try:
        return tuple(map(index, values))
    except TypeError:
        bad = next(x for x in values if not hasattr(type(x), "__index__"))
        raise TypeError(f"{what} {bad!r} is not an integer") from None


@dataclass(frozen=True)
class Modulus:
    """The coefficient ring Z/n, for 2 <= n <= MAX_MODULUS."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _as_ints((self.n,), "modulus")[0])
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
    """Invariant-factor chain of the direct sum of cyclic groups Z/m, each
    m a positive divisor of n: the factors of its `sum_presentation`, so
    trivial factors are dropped.  A float or a string raises, named."""
    modulus, orders = Modulus(n), _as_ints(orders, "order")
    for m in orders:
        if m < 1:
            raise ValueError(f"order {m} is not positive")
        if n % m != 0:
            raise ValueError(f"order {m} does not divide modulus {n}")
    return sum_presentation(tuple(sorted(m for m in orders if m > 1)), modulus)[0].factors


@dataclass(frozen=True)
class FinMod:
    """Finite Z/n-module in canonical invariant-factor form."""

    modulus: Modulus
    factors: Tuple[int, ...]

    def __post_init__(self):
        if type(self.factors) is not tuple:
            raise TypeError(f"invariant factors must be a tuple, got {self.factors!r}")
        object.__setattr__(self, "factors", _as_ints(self.factors, "invariant factor"))
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

    def reduce(self, vec) -> Tuple[int, ...]:
        return tuple(x % d for x, d in zip(_as_ints(vec, "coordinate"), self.factors, strict=True))

    def elements(self) -> Iterable[Tuple[int, ...]]:
        return itertools.product(*[range(d) for d in self.factors])

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
        if len(matrix) != codomain.rank or any(len(row) != domain.rank for row in matrix):
            raise ValueError(f"expected a {codomain.rank}x{domain.rank} matrix, got rows of lengths {[len(row) for row in matrix]}")
        m = tuple(tuple(x % e for x in _as_ints(row, "hom entry")) for row, e in zip(matrix, codomain.factors))
        # m_ji * d_i == 0 mod e_j iff the entry is a multiple of the
        # generator e_j / gcd(d_i, e_j) of its entry group
        for j, (row, scales) in enumerate(zip(m, hom_entry_scales(domain.factors, codomain.factors))):
            for i, (x, s) in enumerate(zip(row, scales)):
                if x % s:
                    raise ValueError(
                        f"entry {x} at ({j},{i}) is not well defined: "
                        f"{x}*{domain.factors[i]} != 0 mod {codomain.factors[j]}"
                    )
        self.domain = domain
        self.codomain = codomain
        self.matrix = m

    @classmethod
    def _closed(cls, domain: FinMod, codomain: FinMod, m: Matrix) -> "ModHom":
        """A hom whose int matrix of the right shape is well defined by
        construction (a sum, negative or composite of homs, zero or the
        identity, a subgroup inclusion, a quotient projection, a Matlis
        dual, a direct-sum injection or projection, a `HomSystem`
        solution): reduce it mod the codomain factors and skip the check."""
        h = cls.__new__(cls)
        h.domain = domain
        h.codomain = codomain
        h.matrix = mod_rows(m, codomain.factors)
        return h

    @property
    def modulus(self) -> Modulus:
        return self.domain.modulus

    def __call__(self, vec) -> Tuple[int, ...]:
        x = self.domain.reduce(vec)
        return tuple(sum(map(mul, row, x)) % e for row, e in zip(self.matrix, self.codomain.factors))

    def compose(self, other: "ModHom") -> "ModHom":
        """self after other."""
        if other.codomain != self.domain:
            raise ValueError("homs do not compose")
        return ModHom._closed(other.domain, self.codomain, matmul(self.matrix, other.matrix, other.domain.rank))

    def __add__(self, other: "ModHom") -> "ModHom":
        if (other.domain, other.codomain) != (self.domain, self.codomain):
            raise ValueError("hom addition needs equal domains and codomains")
        return ModHom._closed(self.domain, self.codomain, tuple(tuple(map(add, r, s)) for r, s in zip(self.matrix, other.matrix)))

    def __neg__(self) -> "ModHom":
        return ModHom._closed(self.domain, self.codomain, tuple(tuple(-x for x in row) for row in self.matrix))

    def __sub__(self, other: "ModHom") -> "ModHom":
        return self + (-other)

    def __eq__(self, other):
        # both matrices are reduced, so equal homs have equal tuples
        return self is other or (
            isinstance(other, ModHom)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.domain.modulus.n, self.domain.factors, self.codomain.factors, self.matrix))

    @property
    def is_zero(self) -> bool:
        return not any(map(any, self.matrix))

    def __repr__(self):
        return f"ModHom({self.domain} -> {self.codomain}, {[list(row) for row in self.matrix]})"


def zero_hom(domain: FinMod, codomain: FinMod) -> ModHom:
    if domain.modulus != codomain.modulus:
        raise ValueError("modulus mismatch between domain and codomain")
    return ModHom._closed(domain, codomain, ((0,) * domain.rank,) * codomain.rank)


def identity_hom(m: FinMod) -> ModHom:
    return ModHom._closed(m, m, identity(m.rank))


def hom_entry_orders(dom: Sequence[int], cod: Sequence[int]) -> Matrix:
    """Order of the (j, i) entry group: gcd(d_i, e_j)."""
    return tuple(tuple(gcd(d, e) for d in dom) for e in cod)


@lru_cache(maxsize=1024)
def hom_entry_scales(dom: Tuple[int, ...], cod: Tuple[int, ...]) -> Matrix:
    """Generator of the (j, i) entry group: e_j // gcd(d_i, e_j).  Memoized
    per factor pair, which every `ModHom` construction and every
    `HomSystem` unknown looks up."""
    return tuple(tuple(e // gcd(d, e) for d in dom) for e in cod)


def random_hom(rng: random.Random, dom: FinMod, cod: FinMod) -> ModHom:
    """A uniformly random hom, one draw per entry in row-major order."""
    scales = hom_entry_scales(dom.factors, cod.factors)
    return ModHom(dom, cod, [[s * rng.randrange(e // s) for s in row] for row, e in zip(scales, cod.factors)])


# ---------------------------------------------------------------------------
# mixed-congruence linear systems
# ---------------------------------------------------------------------------


def solve_congruences(
    a, b, cols: int, row_moduli: Sequence[int], orders: Sequence[int], modulus: Modulus
) -> Optional[Tuple[Matrix, Matrix]]:
    """Solve a @ x == b with row k read mod r_k and unknown x_t in Z/m_t.

    a has one row per equation, b one row per equation and `cols` columns,
    one right-hand side each (cols = 0 asks for the kernel alone).  Every
    r_k and m_t divides n.  A coefficient is well defined when c * m_t == 0
    mod r, i.e. when c is a multiple of r / gcd(m_t, r), which is how it is
    tested, so no product is formed.  Each row is reduced mod its r and
    rescaled by n/r into Z/n; one `solve_left` there projects onto exactly
    the mixed-modulus solutions.  Returns (particular, kernel generators as
    the rows of a matrix) reduced mod the orders, the particular solution
    with one row per unknown and one column per column of b, or None when
    some column of b is inconsistent.
    """
    n = modulus.n
    om, r = tuple(orders), tuple(row_moduli)
    for what, vals in (("unknown order", om), ("equation modulus", r)):
        for m in vals:
            if m < 1 or n % m:
                raise ValueError(f"{what} {m} must divide {n}")
    if len(a) != len(r) or any(len(row) != len(om) for row in a):
        raise ValueError(f"shape mismatch: {len(r)} equations in {len(om)} unknowns, coefficient rows of lengths {[len(row) for row in a]}")
    a_rows = []
    for rk, row in zip(r, a):
        row = [c % rk for c in _as_ints(row, "coefficient")]
        for c, m in zip(row, om):
            if c % (rk // gcd(m, rk)):
                raise ValueError(f"coefficient {c} for unknown of order {m} is not well defined mod {rk}")
        a_rows.append([c * (n // rk) for c in row])
    if len(b) != len(r) or any(len(row) != cols for row in b):
        raise ValueError(f"shape mismatch: {len(r)} equations, {cols} right-hand sides, rows of lengths {[len(row) for row in b]}")
    b_rows = [[c % rk * (n // rk) for c in _as_ints(row, "right-hand side")] for rk, row in zip(r, b)]
    # a @ x == b is x^T a^T == b^T: solve_left's operands are the columns,
    # one empty row per unknown and per right-hand side if no equations
    out = solve_left(transpose(a_rows, len(om)), transpose(b_rows, cols), len(r), n)
    if out is None:
        return None
    y, kern = out
    return mod_rows(transpose(y, len(om)), om), tuple(tuple(x % m for x, m in zip(row, om)) for row in kern)


class HomSystem:
    """Linear system whose unknowns are homs between given modules.

    Each unknown hom U: D -> E is parameterized entrywise by its generator
    multiples, U[j, i] = t_ji * scales[j, i] with t_ji in Z/gcd(d_i, e_j);
    `orders` lists those entry orders for all unknowns, one flat tuple.
    Equations are sums of terms sign * L U R with known homs L, R, equal
    to a known hom, added row-major in call order.  Register every unknown
    before the first equation.
    """

    def __init__(self, modulus: Modulus):
        self.modulus = modulus
        self.orders: Tuple[int, ...] = ()
        # per unknown: its first flat index, domain, codomain, entry scales
        self._vars: List[Tuple[int, FinMod, FinMod, Matrix]] = []
        self._rows: List[Tuple[int, ...]] = []
        self._rhs: List[Tuple[int]] = []
        self._moduli: List[int] = []

    def add_hom_unknown(self, dom: FinMod, cod: FinMod) -> int:
        if self._rows:
            raise ValueError("unknowns must be registered before the first equation")
        scales = hom_entry_scales(dom.factors, cod.factors)
        self._vars.append((len(self.orders), dom, cod, scales))
        self.orders += tuple(e // s for row, e in zip(scales, cod.factors) for s in row)
        return len(self._vars) - 1

    def add_equation(self, terms: Sequence[Tuple[int, Optional[ModHom], int, Optional[ModHom]]], rhs: ModHom):
        """Sum of the terms sign * L U_var R equals rhs: C -> F, where L and
        R are homs or None for an identity.  Row (a, b) is entry (a, b),
        read mod f_a; unknown entry (j, i) has coefficient
        sign * L[a, j] * R[i, b] * scales[j, i], formed only for nonzero
        L[a, j] and R[i, b]."""
        cols = rhs.domain.rank
        entries = []
        for sign, left, var, right in terms:
            start, dom, cod, scales = self._vars[var]
            left_ends = (left.domain, left.codomain) if left else (cod, cod)
            right_ends = (right.domain, right.codomain) if right else (dom, dom)
            if left_ends != (cod, rhs.codomain) or right_ends != (rhs.domain, dom):
                raise ValueError(f"L U R with U: {dom} -> {cod} does not run from {rhs.domain} to {rhs.codomain}")
            # the nonzero L[a, j] of each row a and R[i, b] of each column b
            lead = [[(j, x) for j, x in enumerate(row) if x] for row in left.matrix] if left else [[(a, 1)] for a in range(cod.rank)]
            trail = [[(i, y) for i, row in enumerate(right.matrix) if (y := row[b])] for b in range(cols)] if right else [[(b, 1)] for b in range(cols)]
            for a, lrow in enumerate(lead):
                for b, rcol in enumerate(trail):
                    for j, x in lrow:
                        at, srow = start + j * dom.rank, scales[j]
                        entries += [(a * cols + b, at + i, sign * x * y * srow[i]) for i, y in rcol]
        self._rows += from_entries(rhs.codomain.rank * cols, len(self.orders), entries)
        self._rhs += [(x,) for row in rhs.matrix for x in row]
        self._moduli += [e for e in rhs.codomain.factors for _ in range(cols)]

    def solve(self) -> Optional[Tuple[tuple, Matrix]]:
        """`solve_congruences` on the flat unknowns, one right-hand side:
        (particular as a flat vector, kernel generators as rows), or None."""
        out = solve_congruences(self._rows, self._rhs, 1, self._moduli, self.orders, self.modulus)
        return None if out is None else (tuple(row[0] for row in out[0]), out[1])

    def assignment(self, flat) -> List[ModHom]:
        """Each unknown hom at a flat vector of integers."""
        flat = _as_ints(flat, "hom coordinate")
        return [
            ModHom._closed(dom, cod, tuple(tuple(flat[at] * s for at, s in enumerate(row, start + j * dom.rank)) for j, row in enumerate(scales)))
            for start, dom, cod, scales in self._vars
        ]

    def flat_of(self, homs: Sequence[ModHom]) -> Tuple[int, ...]:
        """Inverse of `assignment`: every entry of a hom is a multiple of
        its generator, so the division is exact."""
        return tuple(
            x // s
            for h, (_, _, _, scales) in zip(homs, self._vars, strict=True)
            for row, srow in zip(h.matrix, scales)
            for x, s in zip(row, srow)
        )


# ---------------------------------------------------------------------------
# presentations, subgroups, quotients
# ---------------------------------------------------------------------------


def present(relations, modulus: Modulus):
    """Canonical form of the cokernel of a relations matrix over Z/n.

    Rows index generators, columns index relations.  Returns
    (module, proj, sect) with proj @ sect == identity mod the invariant
    factors; proj maps old generator coordinates onto canonical coordinates.
    `linalg.diagonalize` computes all three; the factors are wrapped here.
    """
    factors, proj, sect = diagonalize(relations, modulus.n)
    return FinMod(modulus, factors), proj, sect


@lru_cache(maxsize=1024)
def sum_presentation(factors: Tuple[int, ...], modulus: Modulus):
    """(total, proj, sect) for the summands' factors in order: the canonical
    sum, its injections side by side and its projections stacked.  The one
    presentation of a direct sum: every injection, projection and map into
    or out of a sum is sliced from it or multiplied by it."""
    if all(b % a == 0 for a, b in zip(factors, factors[1:])):
        # already canonical: diag(chain) presents itself with proj = sect = I
        return FinMod(modulus, factors), identity(len(factors)), identity(len(factors))
    return present(diag(factors), modulus)


def direct_sum_with_maps(mods: Sequence[FinMod], modulus: Modulus):
    """Canonical direct sum with tuples of injections and projections for
    each summand, sliced from `sum_presentation`: proj and sect are mutually
    inverse isomorphisms between the summands' coordinates and the
    canonical sum, so every slice is a hom."""
    total, proj, sect = sum_presentation(tuple(d for m in mods for d in m.factors), modulus)
    starts = list(itertools.accumulate((m.rank for m in mods), initial=0))
    injections = tuple(ModHom._closed(m, total, tuple(row[s : s + m.rank] for row in proj)) for m, s in zip(mods, starts))
    projections = tuple(ModHom._closed(total, m, sect[s : s + m.rank]) for m, s in zip(mods, starts))
    return total, injections, projections


def map_into_sum(dom: FinMod, comps: Sequence[ModHom]) -> ModHom:
    """sum_t inj_t o comps[t], from dom into the canonical sum of the
    codomains of `comps`, as one product: the sum's injections side by
    side times the components' matrices stacked."""
    if any(c.domain != dom for c in comps):
        raise ValueError("components do not start at the domain")
    total, proj, _ = sum_presentation(tuple(d for c in comps for d in c.codomain.factors), dom.modulus)
    return ModHom._closed(dom, total, matmul(proj, tuple(itertools.chain.from_iterable(c.matrix for c in comps)), dom.rank))


def map_out_of_sum(comps: Sequence[ModHom], cod: FinMod) -> ModHom:
    """sum_t comps[t] o proj_t, from the canonical sum of the domains of
    `comps` into cod, as one product: the components' matrices side by
    side times the sum's projections stacked."""
    if any(c.codomain != cod for c in comps):
        raise ValueError("components do not end at the codomain")
    total, _, sect = sum_presentation(tuple(d for c in comps for d in c.domain.factors), cod.modulus)
    return ModHom._closed(total, cod, matmul(hstack([c.matrix for c in comps], cod.rank), sect, total.rank))


def subgroup_present(ambient_orders: Sequence[int], gens: Sequence[Sequence[int]], modulus: Modulus):
    """Present the subgroup of prod Z/m_c generated by gens.

    Returns (module, incl) where incl maps canonical coordinates to ambient
    coordinates (columns are the canonical generators).
    """
    amb = tuple(ambient_orders)
    r = len(gens)
    if r == 0:
        return zero_mod(modulus), ((),) * len(amb)
    gmat = transpose([_as_ints(g, "generator entry") for g in gens], len(amb))
    out = solve_congruences(gmat, ((),) * len(amb), 0, amb, [modulus.n] * r, modulus)
    assert out is not None
    sub, _, sect = present(transpose(out[1], r), modulus)
    return sub, mod_rows(matmul(gmat, sect, sub.rank), amb)


def ambient_coords_solve(ambient_orders: Sequence[int], incl: Matrix, rank: int, target: Matrix, cols: int, modulus: Modulus):
    """Solve incl @ c == target in prod Z/m_c for c over the column module:
    incl has `rank` columns and target `cols`, and c has one row per column
    of incl and one column per column of target, all solved in one pass."""
    out = solve_congruences(incl, target, cols, ambient_orders, [modulus.n] * rank, modulus)
    return None if out is None else out[0]


def subgroup_with_inclusion(ambient: FinMod, gens: Sequence[Sequence[int]]):
    sub, incl = subgroup_present(ambient.factors, gens, ambient.modulus)
    return sub, ModHom._closed(sub, ambient, incl)


# a plain function over the memo, unlike `cokernel_order` and `splits`:
# the benchmark counts kernel_of_hom calls, and its tracer wraps only functions
def kernel_of_hom(f: ModHom):
    """(K, incl) with K the kernel of f and incl its inclusion into dom(f).
    Memoized per hom, like `cokernel_order` and `splits`: an LRU cache of
    1024 entries each, which hands every caller the same read-only result."""
    return _kernel_of_hom(f)


@lru_cache(maxsize=1024)
def _kernel_of_hom(f: ModHom):
    out = solve_congruences(f.matrix, ((),) * f.codomain.rank, 0, f.codomain.factors, f.domain.factors, f.modulus)
    assert out is not None
    return subgroup_with_inclusion(f.domain, out[1])


def image_of_hom(f: ModHom):
    return subgroup_with_inclusion(f.codomain, transpose(f.matrix, f.domain.rank))


def cokernel_of_hom(f: ModHom):
    """(C, proj, sect) with proj: cod(f) -> C the canonical projection and
    sect lifting canonical coordinates of C to cod(f): [diag(cod) | f]
    presented, the columns of f beside the orders."""
    quo, proj, sect = present(hstack([diag(f.codomain.factors), f.matrix], f.codomain.rank), f.modulus)
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
    orders = [o for row in hom_entry_orders(m.factors, nmod.factors) for o in row]
    scales = hom_entry_scales(m.factors, nmod.factors)
    grp, _, sect = present(diag(orders), m.modulus)
    basis = []
    for col in transpose(sect, grp.rank):
        entries = iter(col)
        basis.append(ModHom(m, nmod, [[next(entries) * s for s in row] for row in scales]))
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
    out = tuple(
        tuple((x * (n // e) % n) // (n // d) for x, e in zip(col, cod.factors))
        for col, d in zip(transpose(f.matrix, dom.rank), dom.factors)
    )
    return ModHom._closed(matlis_dual(cod), matlis_dual(dom), out)


def double_dual_iso(m: FinMod) -> ModHom:
    """The natural evaluation map M -> M++ (the identity in coordinates)."""
    return ModHom(m, matlis_dual(matlis_dual(m)), identity(m.rank))


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
    sysm = HomSystem(f.modulus)
    var = sysm.add_hom_unknown(f.codomain, f.domain)
    sysm.add_equation([(1, None, var, f)], identity_hom(f.domain))
    out = sysm.solve()
    return None if out is None else sysm.assignment(out[0])[0]


def is_split(s: ModSES) -> Optional[ModHom]:
    """A retraction of s.f when the sequence splits, else None."""
    return retraction_of(s.f)


def torsion_order(m: FinMod, d: int) -> int:
    """|M[d]| = |{x : d x == 0}| = prod gcd(d, m_i), which is also
    |Z/d (x) M|, read off the invariant factors m_i."""
    return prod(gcd(d, c) for c in m.factors)


@lru_cache(maxsize=1024)
def splits(h: ModHom) -> bool:
    """Whether h is a split epi, from orders alone.

    A sequence of bounded abelian groups is pure iff it splits (Fuchs,
    Infinite Abelian Groups I, 27-28), and by the primary decomposition
    purity is Hom(Z/d, -) exactness for the prime powers d = p^a only; past
    the p-exponent of every factor of dom(h) and cod(h) the test repeats.
    For h: B -> C the test is h(B[d]) == C[d].  B[d] is generated by the
    columns (b_i / gcd(d, b_i)) e_i, so |h(B[d])| = |C| / |C / h(B[d])|.
    At the largest d for each p, B[d] and C[d] are the p-parts, so the test
    also forces h onto: no separate epi check is needed.  A short exact
    sequence splits iff its epi does, and a mono is split iff its Matlis
    dual is a split epi.
    """
    dom, cod = h.domain, h.codomain
    n = h.modulus.n
    top = lcm(dom.factors[-1] if dom.rank else 1, cod.factors[-1] if cod.rank else 1)
    for p in h.modulus.prime_factors:
        d = p
        while top % d == 0:
            mult = [b // gcd(d, b) for b in dom.factors]
            gens = [tuple(map(mul, row, mult)) for row in h.matrix]
            if quotient_order(gens, cod.factors, n) * torsion_order(cod, d) != cod.cardinality:
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
        # the constructor has checked d_k o d_{k+1} == 0, so orders decide
        return kernel_order(self.diffs[k]) == image_order(self.diffs[k + 1])

    def interior_exact(self) -> bool:
        degs = self.degrees()
        return all(self.is_exact_at(k) for k in degs[1:-1])

    def dual(self) -> "ModComplex":
        comps = {-k: matlis_dual(m) for k, m in self.components.items()}
        diffs = {}
        for k, d in self.diffs.items():
            diffs[-(k - 1)] = matlis_dual_hom(d)
        return ModComplex(comps, diffs)


def gi_module_certificate(m: FinMod) -> Tuple[ModComplex, ModHom]:
    """A totally acyclic complex of free modules with M as its degree-0 cycle.

    Built per invariant factor by splicing the 2-periodic complexes with
    differentials alternating multiplication by d and by n/d; over the
    quasi-Frobenius ring Z/n this always succeeds.  Degrees -2..2 are the
    shortest window whose interior, and its dual's, holds both parities.
    Returns the complex and the iso from M onto ker(d_0).
    """
    n = m.modulus.n
    free = free_mod(m.modulus, m.rank)
    comps = {k: free for k in range(-2, 3)}
    diffs = {}
    for k in range(-1, 3):
        diffs[k] = ModHom(free, free, diag([d if k % 2 == 0 else n // d for d in m.factors]))
    cx = ModComplex(comps, diffs)
    witness = ModHom(m, free, diag([n // d for d in m.factors]))
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
