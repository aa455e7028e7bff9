"""Hecke algebra on a letter window: quadratic relation, Murphy basis,
transition matrices, and Specht-module Gram matrices."""

from qbrauer import symgrp as sg
from qbrauer.cellular import Cellular, det
from qbrauer.coefficients import RatFunc, Specialization
from qbrauer.hecke import HeckeWindow, is_restricted
from qbrauer.qbrauer import QBrAlgebra


q = RatFunc.q()
Q = q * q


def window(n, lo=1):
    return HeckeWindow(n, lo, Specialization.generic(), Q)


def test_quadratic_relation():
    H = window(3)
    g1 = H.g(sg.gen(3, 1))
    lhs = H.rmul_gen(g1, 1)
    rhs = H.add(H.scale(g1, Q - 1), H.scale(H.unit(), Q))
    assert lhs == rhs


def test_braid_relation():
    H = window(3)
    x = H.rmul_word(H.unit(), (1, 2, 1))
    y = H.rmul_word(H.unit(), (2, 1, 2))
    assert x == y


def test_length_additive_products():
    H = window(4)
    for w in sg.all_perms(4):
        x = H.rmul_word(H.unit(), sg.reduced_word(w))
        assert x == H.g(w)


def test_lmul_matches_rmul():
    H = window(4)
    for w in sg.all_perms(3):
        w4 = w + (3,)
        via_left = H.lmul_word(sg.reduced_word(w4), H.g(sg.gen(4, 3)))
        via_right = H.rmul_perm(H.g(w4), sg.gen(4, 3))
        assert via_left == via_right


def test_star_antiautomorphism():
    H = window(4)
    x = H.rmul_word(H.unit(), (1, 2))
    y = H.rmul_word(H.unit(), (3, 2))
    assert H.star(H.mul(x, y)) == H.mul(H.star(y), H.star(x))


def test_murphy_transition_invertible_n4():
    for lo in (1, 2, 3, 4):
        H = window(4, lo)
        labels, perms, mat, inv = H.murphy_data()
        assert len(labels) == len(perms)
        # round trip through coordinates
        x = H.rmul_word(H.unit(), (lo,) if lo < 4 else ())
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


def test_murphy_unit_coordinates():
    # the unit decomposes with nonzero coordinate at the one-column label
    H = window(3)
    coords = H.to_murphy(H.unit())
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
    _, _, mat, _ = window(5, 3).murphy_data()
    _, _, mat3, _ = window(3, 1).murphy_data()
    assert mat == mat3


def test_is_restricted():
    assert is_restricted((2, 1), 2)
    assert not is_restricted((3,), 2)
    assert is_restricted((3,), 4)
    assert is_restricted((), 2)
    # e = infinity restricts nothing away
    from qbrauer.coefficients import INFINITY

    assert is_restricted((7,), INFINITY)
