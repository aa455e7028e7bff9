"""The version maps: two_param and n_version are the one-parameter algebra
at a substitution, checked through the Gram forms of the cell modules.

A version with map (x, y, c) is one_param at q -> x, r -> y with e
replaced by c e.  The Hecke generators are unchanged, and e_(k), a word in
e and the g_i with k factors e, becomes c^k e_(k); so the cell generator
m_lam = e_(k) c_lam becomes c^k m_lam.  The form of C(k, lam) is defined
by m_lam h m_lam = <., .> m_lam: the left side gains c^(2k) and m_lam on
the right c^k, so every Gram entry is scaled by c^k and the determinant
by c^(k dim C(k, lam)).  The maps are written out here, not read from
``VERSION_MAPS``, so that a wrong table entry fails.
"""

import pytest

from qbrauer.cellular import Cellular
from qbrauer.coefficients import DenominatorVanishes, RatFunc, Specialization
from qbrauer.qbrauer import InternalInconsistency, QBrAlgebra


q = RatFunc.q()
r = RatFunc.r()


def _dets(n, version, N=None):
    cell = Cellular(QBrAlgebra(n, version=version, N=N))
    return {(k, lam): (cell.gram_det(k, lam), len(cell.gram(k, lam))) for k, lam in cell.labels()}


@pytest.mark.parametrize("n", (2, 3, 4))
def test_two_param_gram_dets_are_one_param_at_squares(n):
    # (x, y, c) = (q^2, r^2, q/r): det_two = c^(k dim) det_one(q^2, r^2)
    at_squares = Specialization(("generic",), q * q, r * r)
    one = _dets(n, "one_param")
    for (k, lam), (d, dim) in _dets(n, "two_param").items():
        assert d == (q / r) ** (k * dim) * at_squares(one[k, lam][0]), (k, lam)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_n_version_gram_dets_are_one_param_at_q_powers(n):
    # (x, y, c) = (q^2, q^(2N), 1): det_N = det_one(q^2, q^(2N))
    one = _dets(n, "one_param")
    for N in (-2, 1, 2, 3):
        at_powers = Specialization(("generic",), q * q, q ** (2 * N))
        for (k, lam), (d, _) in _dets(n, "n_version", N).items():
            assert d == at_powers(one[k, lam][0]), (N, k, lam)


def _ranks(n, version, p, q_img, r_img):
    """{(k, lam): Gram rank, or None where the Gram matrix raises
    InternalInconsistency}."""
    cell = Cellular(QBrAlgebra(n, version=version, spec=Specialization.prime_field(p, q_img, r_img)))
    out = {}
    for k, lam in cell.labels():
        try:
            out[k, lam] = len(cell.gram(k, lam)) - cell.radical_dim(k, lam)
        except InternalInconsistency:
            out[k, lam] = None
    return out


@pytest.mark.parametrize("n", (4, 5))
def test_two_param_ranks_are_one_param_at_squares_over_f7(n):
    # c = s/t is a unit of F_7, so the rescaled forms have equal ranks; a
    # cell whose Gram matrix raises InternalInconsistency on one side must
    # raise on the other
    points = 0
    for s in range(1, 7):
        for t in range(1, 7):
            try:
                two = _ranks(n, "two_param", 7, s, t)
            except DenominatorVanishes:
                with pytest.raises(DenominatorVanishes):
                    _ranks(n, "one_param", 7, s * s % 7, t * t % 7)
                continue
            assert two == _ranks(n, "one_param", 7, s * s % 7, t * t % 7), (s, t)
            points += 1
    assert points == 24
