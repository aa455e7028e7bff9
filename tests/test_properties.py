"""Property-based checks with hypothesis: coefficient field axioms,
Hecke multiplication, and algebra identities on randomly drawn elements."""

from hypothesis import given, settings, strategies as st

from qbrauer import symgrp as sg
from qbrauer.coefficients import Fp, LaurentPoly, RatFunc, Specialization
from qbrauer.hecke import HeckeWindow, _acc
from qbrauer.qbrauer import QBrAlgebra


def laurent(draw_terms):
    terms = {}
    for c, dq, dr in draw_terms:
        if c:
            terms[(dq, dr)] = terms.get((dq, dr), 0) + c
    return LaurentPoly({k: v for k, v in terms.items() if v})


term = st.tuples(
    st.integers(-3, 3), st.integers(-1, 1), st.integers(-1, 1)
)
laurents = st.lists(term, min_size=0, max_size=3).map(laurent)
# denominators of up to four terms: the heuristic gcd keeps their
# bivariate gcds cheap
dens = st.lists(term, min_size=1, max_size=4).map(laurent)
ratfuncs = st.tuples(laurents, dens).map(
    lambda p: RatFunc(p[0], p[1]) if not p[1].is_zero() else RatFunc(p[0])
)


@given(ratfuncs, ratfuncs, ratfuncs)
@settings(max_examples=30, deadline=None)
def test_ratfunc_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(ratfuncs)
@settings(max_examples=30, deadline=None)
def test_ratfunc_inverse(a):
    if not a.is_zero():
        assert (a / a).is_one()
        assert a * (1 / a) == RatFunc.from_int(1)


@given(st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_fp_field(x, y):
    a, b = Fp(5, x), Fp(5, y)
    assert a + b == b + a
    assert a * b == b * a
    if not b.is_zero():
        assert (a / b) * b == a


perm4 = st.permutations(range(4)).map(tuple)
_H4 = HeckeWindow(4, 1, Specialization.generic(), RatFunc.q() ** 2)
_T4 = sg.perm_table(4)


def hmul(x, y):
    """x y in the Hecke algebra, {code: coeff}, through the right action."""
    out = {}
    for w, c in y.items():
        for u, cu in _H4.rmul_perm(x, w).items():
            _acc(out, u, cu * c)
    return out


def hadd(x, y):
    out = dict(x)
    for w, c in y.items():
        _acc(out, w, c)
    return out


def hg(w):
    return {_T4.code[w]: _H4.field.one()}


def hstar(x):
    return {_T4.inv[w]: c for w, c in x.items()}


def left_gen(i, x):
    """g_i x straight from the left descents of the table, as an oracle."""
    out = {}
    for u, c in x.items():
        if _T4.ldes[u] >> i & 1:
            _acc(out, u, c * _H4.Qm1)
            _acc(out, _T4.lmul[i][u], c * _H4.Q)
        else:
            _acc(out, _T4.lmul[i][u], c)
    return out


@given(perm4, perm4)
@settings(max_examples=50, deadline=None)
def test_hecke_product_linearity(u, v):
    x, y = hg(u), hg(v)
    assert hmul(hadd(x, y), x) == hadd(hmul(x, x), hmul(y, x))


@given(perm4, perm4)
@settings(max_examples=40, deadline=None)
def test_hecke_star(u, v):
    assert hstar(hmul(hg(u), hg(v))) == hmul(hstar(hg(v)), hstar(hg(u)))
    # relabelling by the inverse turns the right action into the left one
    x = hmul(hg(u), hg(v))
    for i in (1, 2, 3):
        assert hstar(_H4.rmul_gen(x, i)) == left_gen(i, hstar(x))


_alg3 = QBrAlgebra(3)
_idx3 = _alg3.basis_indices()


@given(st.integers(0, 14), st.integers(0, 14), st.integers(0, 14))
@settings(max_examples=60, deadline=None)
def test_qbrauer_associativity(i, j, k):
    one = _alg3.field.one()
    x, y, z = {_idx3[i]: one}, {_idx3[j]: one}, {_idx3[k]: one}
    assert _alg3.mul(_alg3.mul(x, y), z) == _alg3.mul(x, _alg3.mul(y, z))


@given(st.integers(0, 14), st.integers(0, 14))
@settings(max_examples=60, deadline=None)
def test_qbrauer_star(i, j):
    one = _alg3.field.one()
    x, y = {_idx3[i]: one}, {_idx3[j]: one}
    assert _alg3.star(_alg3.mul(x, y)) == _alg3.mul(_alg3.star(y), _alg3.star(x))


@given(st.lists(st.integers(1, 6), min_size=0, max_size=6))
@settings(max_examples=60, deadline=None)
def test_partition_sort_dominance(parts):
    lam = sg.Partition(tuple(sorted(parts, reverse=True)))
    assert sg.dominates(lam, lam)
    for mu in sg.partitions(sum(lam)):
        if sg.dominates(lam, mu) and sg.dominates(mu, lam):
            assert lam == sg.Partition(mu)
