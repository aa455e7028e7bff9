"""Exact scalar arithmetic: Laurent polynomials, rational functions in
q and r, prime fields, cyclotomic fields, and parameter specialization."""

from fractions import Fraction
import operator

import pytest

from qbrauer.coefficients import (
    Cyclo,
    DenominatorVanishes,
    Fp,
    INFINITY,
    LaurentPoly,
    RatFunc,
    Specialization,
    cyclotomic_poly,
    quantum_char,
)


q = RatFunc.q()
r = RatFunc.r()
one = RatFunc.from_int(1)


def test_laurent_basic():
    x = LaurentPoly.gen_q()
    y = LaurentPoly.gen_r()
    assert (x + y) * (x - y) == x * x - y * y
    assert x * LaurentPoly.monomial(1, -1, 0) == LaurentPoly.const(1)
    assert (x - x).is_zero()


def test_ratfunc_field_ops():
    a = (q * q - 1) / (q - 1)
    assert a == q + 1
    b = (r * r - q * q) / (r - q)
    assert b == r + q
    assert (a / a).is_one()
    assert a - a == RatFunc.from_int(0)
    assert 1 / q == q ** (-1)


def test_ratfunc_cancellation_is_canonical():
    # (q^{2N} - 1)/(q^2 - 1) must reduce to a polynomial so that it can be
    # specialized at q = 1
    N = 4
    a = (q ** (2 * N) - 1) / (q * q - 1)
    assert a.den.is_one()
    spec = Specialization.rationals(Fraction(1), Fraction(1))
    assert spec(a) == spec.from_int(N)


def test_ratfunc_quotient_difference():
    lhs = 1 / (q - 1) - 1 / (q + 1)
    assert lhs == 2 / (q * q - 1)


def test_fp_arithmetic():
    x = Fp(5, 3)
    assert x + x == Fp(5, 1)
    assert x * x == Fp(5, 4)
    assert (x / x).is_one()
    assert Fp(5, 0).is_zero()
    with pytest.raises(ArithmeticError):
        x / Fp(5, 0)


FP_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
)


@pytest.mark.parametrize("name", FP_OPERATORS)
def test_fp_rejects_another_prime(name):
    x, y = Fp(7, 3), Fp(5, 3)
    with pytest.raises(TypeError):
        getattr(x, name)(y)
    with pytest.raises(TypeError):
        getattr(y, name)(x)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_fp_int_operand_matches_fp(op):
    p = 7
    for v in range(1, p):
        x = Fp(p, v)
        for n in (-15, -1, 0, 1, 3, 6, 7, 8, 22):
            m = Fp(p, n)
            if op is not operator.truediv or not m.is_zero():
                got = op(x, n)
                assert got.__class__ is Fp and (got.p, got.v) == (p, op(x, m).v)
            got = op(n, x)
            assert got.__class__ is Fp and (got.p, got.v) == (p, op(m, x).v)
    with pytest.raises(ArithmeticError):
        Fp(p, 3) / 14
    with pytest.raises(ArithmeticError):
        3 / Fp(p, 0)


def test_cyclotomic_poly():
    # Phi_8 = x^4 + 1
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclo_zeta8():
    z = Cyclo.zeta(8)
    assert z**8 == Cyclo.from_fraction(8, 1)
    assert z**4 == Cyclo.from_fraction(8, -1)
    i = z * z  # zeta_8^2 is a primitive 4th root
    assert i * i == Cyclo.from_fraction(8, -1)
    assert (z / z).is_one()


def test_cyclo_rationals():
    # conductor 1 is plain Q
    a = Cyclo.from_fraction(1, Fraction(2, 3))
    b = Cyclo.from_fraction(1, Fraction(3, 2))
    assert (a * b).is_one()


def test_specialization_generic_identity():
    spec = Specialization.generic()
    assert spec(q) == q
    assert spec((r - q) / (r + q)) == (r - q) / (r + q)


def test_specialization_prime_field():
    spec = Specialization.prime_field(5, 2, 3)
    assert spec(q * r) == Fp(5, 1)
    assert spec((q + r) / r) == Fp(5, 0)
    with pytest.raises(DenominatorVanishes):
        spec(1 / (q + r))
    # Fermat inverses are wrong modulo a composite
    for p in (1, 4, 9):
        with pytest.raises(ValueError):
            Specialization.prime_field(p, 2, 3)


def test_specialization_rejects_zero_images():
    with pytest.raises(DenominatorVanishes):
        Specialization.prime_field(5, 0, 1)


def test_quantum_char():
    # e(x) = least m with 1 + x + ... + x^{m-1} = 0
    assert quantum_char(Fp(5, 1)) == 5
    assert quantum_char(Fp(5, 4)) == 2
    assert quantum_char(Fp(5, 2)) == 4
    assert quantum_char(Fp(7, 2)) == 3
    assert quantum_char(RatFunc.q()) == INFINITY
    z = Cyclo.zeta(8)
    assert quantum_char(z * z) == 4  # 1 + i + i^2 + i^3 = 0
