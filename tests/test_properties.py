"""Property-based checks of the algebraic laws on the module layer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linalg_oracle import arr

from quiverhom.znmod import (
    FinMod,
    ModHom,
    Modulus,
    canonical_chain,
    hom_entry_orders,
    hom_entry_scales,
    identity_hom,
    matlis_dual_hom,
    zero_hom,
)

moduli = st.sampled_from([2, 3, 4, 6, 8, 9, 12])


@st.composite
def finmod(draw, n):
    modulus = Modulus(n)
    divisors = [d for d in modulus.divisors if d > 1]
    orders = draw(st.lists(st.sampled_from(divisors), min_size=0, max_size=3))
    return FinMod(modulus, canonical_chain(orders, n))


@st.composite
def hom_between(draw, dom, cod):
    orders = hom_entry_orders(dom.factors, cod.factors)
    scales = hom_entry_scales(dom.factors, cod.factors)
    mat = np.zeros((cod.rank, dom.rank), dtype=np.int64)
    for j in range(cod.rank):
        for i in range(dom.rank):
            mat[j, i] = scales[j][i] * draw(st.integers(0, orders[j][i] - 1))
    return ModHom(dom, cod, mat)


@st.composite
def composable_triple(draw):
    n = draw(moduli)
    a = draw(finmod(n))
    b = draw(finmod(n))
    c = draw(finmod(n))
    d = draw(finmod(n))
    f = draw(hom_between(a, b))
    g = draw(hom_between(b, c))
    h = draw(hom_between(c, d))
    return f, g, h


@given(composable_triple())
@settings(max_examples=80, deadline=None)
def test_composition_associative(triple):
    f, g, h = triple
    assert h.compose(g).compose(f) == h.compose(g.compose(f))


@given(composable_triple())
@settings(max_examples=80, deadline=None)
def test_identity_units(triple):
    f, _, _ = triple
    assert f.compose(identity_hom(f.domain)) == f
    assert identity_hom(f.codomain).compose(f) == f


@given(composable_triple())
@settings(max_examples=80, deadline=None)
def test_duality_is_contravariant_involution(triple):
    f, g, _ = triple
    assert matlis_dual_hom(g.compose(f)) == matlis_dual_hom(f).compose(matlis_dual_hom(g))
    dd = matlis_dual_hom(matlis_dual_hom(f))
    assert dd.matrix == f.matrix


@given(composable_triple())
@settings(max_examples=60, deadline=None)
def test_hom_application_is_linear(triple):
    f, _, _ = triple
    if f.domain.is_zero:
        return
    x = np.array([d - 1 for d in f.domain.factors], dtype=np.int64)
    y = np.array([1 % d for d in f.domain.factors], dtype=np.int64)
    lhs = f(f.domain.reduce(x + y))
    rhs = f.codomain.reduce(np.add(f(x), f(y)))
    assert lhs == rhs


@st.composite
def closed_op_inputs(draw):
    """Homs f, f2: a -> b and g: b -> c over Z/n, n <= 72, ranks 0 to 3."""
    n = draw(st.integers(2, 72))
    a, b, c = draw(finmod(n)), draw(finmod(n)), draw(finmod(n))
    return draw(hom_between(a, b)), draw(hom_between(a, b)), draw(hom_between(b, c))


@given(closed_op_inputs())
@settings(max_examples=150, deadline=None)
def test_closed_operations_agree_with_the_checked_constructor(inputs):
    # compose, +, -, negation, zero_hom and identity_hom skip the
    # well-definedness check; the checked constructor, given the unreduced
    # matrix, must accept each result and reduce it to the same matrix
    f, f2, g = inputs
    a, b, c = f.domain, f.codomain, g.codomain
    fm, f2m, gm = arr(f.matrix, a.rank), arr(f2.matrix, a.rank), arr(g.matrix, b.rank)
    cases = [
        (g.compose(f), a, c, gm.dot(fm)),
        (f + f2, a, b, fm + f2m),
        (f - f2, a, b, fm - f2m),
        (-f, a, b, -fm),
        (zero_hom(a, c), a, c, np.zeros((c.rank, a.rank), dtype=np.int64)),
        (identity_hom(b), b, b, np.eye(b.rank, dtype=np.int64)),
    ]
    for h, dom, cod, raw in cases:
        checked = ModHom(dom, cod, raw)
        assert h == checked
        # rows are tuples, and assignment raises TypeError
        assert type(h.matrix) is tuple and all(type(row) is tuple for row in h.matrix)
        with pytest.raises(TypeError):
            h.matrix[0] = ()


def test_closed_operations_keep_their_guards():
    z4 = Modulus(4)
    f = identity_hom(FinMod(z4, (2,)))
    g = identity_hom(FinMod(z4, (4,)))
    with pytest.raises(ValueError, match="^homs do not compose$"):
        f.compose(g)
    for op in (f.__add__, f.__sub__):
        with pytest.raises(ValueError, match="^hom addition needs equal domains and codomains$"):
            op(g)
    with pytest.raises(ValueError, match="^modulus mismatch between domain and codomain$"):
        zero_hom(FinMod(z4, (2,)), FinMod(Modulus(2), (2,)))
