"""Hecke algebra on a letter window: quadratic relation, Murphy basis,
transition matrices and their sparse factorisation, and Specht-module Gram
matrices."""

import itertools
import math
import random

import pytest

from qbrauer import symgrp as sg
from qbrauer.cellular import Cellular, det
from qbrauer.coefficients import RatFunc, Specialization
from qbrauer.hecke import HeckeWindow, SparseLU, _acc, is_restricted
from qbrauer.qbrauer import QBrAlgebra


q = RatFunc.q()
Q = q * q


def window(n, lo=1):
    return HeckeWindow(n, lo, Specialization.generic(), Q)


# elements are {code: coeff} over the codes of perm_table(n); code 0 is
# the identity


def g(H, w):
    return {sg.perm_table(H.n).code[w]: H.field.one()}


def unit(H):
    return {0: H.field.one()}


def add(x, y):
    out = dict(x)
    for w, c in y.items():
        _acc(out, w, c)
    return out


def scale(x, c):
    return {w: v * c for w, v in x.items()} if not c.is_zero() else {}


def mul(H, x, y):
    """x y through the right action: the sum of c x g_w over the terms of y."""
    out = {}
    for w, c in y.items():
        out = add(out, scale(H.rmul_perm(x, w), c))
    return out


def star(H, x):
    inv = sg.perm_table(H.n).inv
    return {inv[w]: c for w, c in x.items()}


def rmul_word(H, x, word):
    for i in word:
        x = H.rmul_gen(x, i)
    return x


def left_gen(H, i, x):
    """g_i x straight from the left descents: g_i g_u = (Q-1) g_u + Q g_{s_i u}
    if s_i is a left descent of u, and g_{s_i u} otherwise.  The window
    computes left products through the anti-involution; this is the oracle."""
    T = sg.perm_table(H.n)
    out = {}
    for u, c in x.items():
        if T.ldes[u] >> i & 1:
            _acc(out, u, c * H.Qm1)
            _acc(out, T.lmul[i][u], c * H.Q)
        else:
            _acc(out, T.lmul[i][u], c)
    return out


def lmul_word(H, word, x):
    for i in reversed(word):
        x = left_gen(H, i, x)
    return x


def test_quadratic_relation():
    H = window(4)
    for i in (1, 2, 3):
        gi = g(H, sg.gen(4, i))
        rhs = add(scale(gi, Q - 1), scale(unit(H), Q))
        assert H.rmul_gen(gi, i) == rhs
        assert left_gen(H, i, gi) == rhs


def test_braid_relation():
    H = window(3)
    x = rmul_word(H, unit(H), (1, 2, 1))
    y = rmul_word(H, unit(H), (2, 1, 2))
    assert x == y
    assert lmul_word(H, (1, 2, 1), unit(H)) == lmul_word(H, (2, 1, 2), unit(H)) == x


def test_length_additive_products():
    H = window(4)
    for w in itertools.permutations(range(4)):
        x = rmul_word(H, unit(H), sg.reduced_word(w))
        assert x == g(H, w)
        assert H.rmul_perm(unit(H), sg.perm_table(4).code[w]) == g(H, w)


def test_lmul_matches_rmul():
    H = window(4)
    s3 = sg.gen(4, 3)
    for w in itertools.permutations(range(3)):
        w4 = w + (3,)
        via_left = lmul_word(H, sg.reduced_word(w4), g(H, s3))
        via_right = H.rmul_perm(g(H, w4), sg.perm_table(4).code[s3])
        assert via_left == via_right


def test_star_antiautomorphism():
    H = window(4)
    x = rmul_word(H, unit(H), (1, 2))
    y = rmul_word(H, unit(H), (3, 2))
    assert star(H, mul(H, x, y)) == mul(H, star(H, y), star(H, x))
    assert H.star(x) == star(H, x)
    # star turns the right action of a generator into the left one
    for i in (1, 2, 3):
        assert star(H, H.rmul_gen(x, i)) == left_gen(H, i, star(H, x))


def dense(H):
    """The Murphy transition matrix, rows by window code, columns by label."""
    labels, codes, _ = H.murphy_data()
    zero = H.field.zero()
    cols = [H.murphy_element(*lab) for lab in labels]
    return [[col.get(w, zero) for col in cols] for w in codes]


def sparse_rows(mat):
    return [{j: v for j, v in enumerate(r) if not v.is_zero()} for r in mat]


def assert_invertible(lu, size):
    # a pivot row per column, and the reduced rows upper triangular with
    # the pivot on the diagonal, which is nonzero as no zero is stored
    assert sorted(lu.pivots) == list(range(size))
    assert [min(row) for row in lu.upper] == list(range(size))


def row_sum_brute_force(H, lam):
    """The sum of g_sigma over the row stabiliser of t^lam, sigma running
    over every product of one permutation of each row's letters."""
    T, one = sg.perm_table(H.n), H.field.inner(H.field.one())
    rows = sg.superstandard(lam, H.lo)
    out = {}
    for images in itertools.product(*(itertools.permutations(row) for row in rows)):
        w = list(range(H.n))
        for row, img in zip(rows, images):
            for a, b in zip(row, img):
                w[a - 1] = b - 1
        for u, c in H.rmul_perm({0: one}, T.code[tuple(w)]).items():
            H.field.acc(out, u, c)
    return out


@pytest.mark.parametrize("point", ["generic", "F7"])
def test_c_lambda_is_the_row_stabiliser_sum(point):
    # windows of 1..5 letters, starting at letter 1 and ending at letter 6
    field = Specialization.generic() if point == "generic" else Specialization.prime_field(7, 3, 5)
    for n, lo in [(m, 1) for m in range(1, 6)] + [(6, 7 - m) for m in range(1, 6)]:
        H = HeckeWindow(n, lo, field, field(Q))
        for lam in sg.partitions(H.m):
            assert H.c_lambda(lam) == row_sum_brute_force(H, lam), (n, lo, lam)


def test_murphy_transition_invertible_n4():
    # the factorisation exists for every window with n <= 5
    for n in (2, 3, 4, 5):
        for lo in range(1, n + 1):
            labels, codes, lu = window(n, lo).murphy_data()
            assert len(labels) == len(codes) == math.factorial(n - lo + 1)
            assert_invertible(lu, len(labels))
    for lo in (1, 2, 3, 4):
        H = window(4, lo)
        # round trip through coordinates
        x = rmul_word(H, unit(H), (lo,) if lo < 4 else ())
        coords = H.to_murphy(x)
        back = {}
        for (lam, s, t), c in coords.items():
            for w, c2 in H.murphy_element(lam, s, t).items():
                cur = back.get(w, H.field.zero()) + c * c2
                if cur.is_zero():
                    back.pop(w, None)
                else:
                    back[w] = cur
        assert back == x


def dense_inverse(mat, field):
    """Exact Gauss-Jordan inverse, the oracle for the sparse factorisation."""
    n = len(mat)
    a = [list(row) + [field.one() if i == j else field.zero() for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
        if piv is None:
            raise ArithmeticError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = field.one() / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and not a[r][col].is_zero():
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def oracle_windows():
    for n in (2, 3, 4):
        for lo in range(1, n + 1):
            yield window(n, lo)
    fp = Specialization.prime_field(101, 3, 5)
    for lo in (1, 2):
        yield HeckeWindow(5, lo, fp, fp(Q))


def test_to_murphy_rejects_codes_off_the_window():
    # the rows are the window's codes 0..m!-1, so a code past them, here a
    # generator moving a letter below the window, is a KeyError
    H = window(4, 3)
    T, one = sg.perm_table(4), H.field.one()
    s2, s3 = T.code[sg.gen(4, 2)], T.code[sg.gen(4, 3)]
    assert H.to_murphy({s3: one})
    for x in ({s2: one}, {s3: one, s2: one}):
        with pytest.raises(KeyError):
            H.to_murphy(x)


def test_sparse_solves_match_dense_inverse():
    rng = random.Random(5)
    for H in oracle_windows():
        labels, codes, _ = H.murphy_data()
        zero = H.field.zero()
        inv = dense_inverse(dense(H), H.field)
        for _ in range(5):
            support = rng.sample(codes, min(6, len(codes)))
            x = {w: H.field.from_int(rng.randrange(1, 100)) for w in support}
            want = {}
            for j, lab in enumerate(labels):
                c = zero
                for i, w in enumerate(codes):
                    if w in x:
                        c = c + inv[j][i] * x[w]
                if not c.is_zero():
                    want[lab] = c
            assert H.to_murphy(x) == want


def test_sparse_lu_singular():
    fp = Specialization.prime_field(101, 3, 5)
    one, zero = fp.one(), fp.zero()
    two, four = fp.from_int(2), fp.from_int(4)
    for mat in (
        [[one, two], [two, four]],
        [[one, zero], [two, zero]],
        [[zero, zero], [zero, zero]],
    ):
        with pytest.raises(ArithmeticError):
            SparseLU(sparse_rows(mat), fp)
    # a Murphy transition with one column zeroed
    H = window(4)
    mat = [row[:7] + [H.field.zero()] + row[8:] for row in dense(H)]
    with pytest.raises(ArithmeticError):
        SparseLU(sparse_rows(mat), H.field)


def test_murphy_unit_coordinates():
    # the unit decomposes with nonzero coordinate at the one-column label
    H = window(3)
    coords = H.to_murphy(unit(H))
    assert coords  # nonempty
    lam_col = sg.Partition((1, 1, 1))
    sup = sg.superstandard(lam_col, 1)
    assert (lam_col, sup, sup) in coords


def test_specht_gram_small():
    # the Specht module Gram matrices are the k = 0 cell forms
    C2 = Cellular(QBrAlgebra(2))
    assert C2.gram(0, (2,)) == [[RatFunc.from_int(1) + Q]]
    assert C2.gram(0, (1, 1)) == [[RatFunc.from_int(1)]]
    C3 = Cellular(QBrAlgebra(3))
    # shape (3): 1x1 Poincare polynomial of S_3 in Q
    poincare = 1 + 2 * Q + 2 * Q * Q + Q**3
    assert C3.gram(0, (3,)) == [[poincare]]
    g = C3.gram(0, (2, 1))
    assert g[0][0] == 1 + Q
    assert g[0][1] == g[1][0] == RatFunc.from_int(-1)
    assert g[1][1] == 1 + Q * Q
    assert det(g, Specialization.generic()) == Q * (1 + Q + Q * Q)


def test_window_translation_invariance():
    # the window 3..5 behaves exactly like S_3 with shifted letters
    assert dense(window(5, 3)) == dense(window(3, 1))


def test_is_restricted():
    assert is_restricted((2, 1), 2)
    assert not is_restricted((3,), 2)
    assert is_restricted((3,), 4)
    assert is_restricted((), 2)
    # e = infinity restricts nothing away
    from qbrauer.coefficients import INFINITY

    assert is_restricted((7,), INFINITY)
