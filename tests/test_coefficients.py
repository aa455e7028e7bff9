"""Exact scalar arithmetic: Laurent polynomials, rational functions in
q and r, prime fields, cyclotomic fields, and parameter specialization."""

from fractions import Fraction
from functools import reduce
import math
import operator
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from qbrauer import coefficients
from qbrauer.cli import build_spec
from qbrauer.coefficients import (
    Cyclo,
    DenominatorVanishes,
    Fp,
    INFINITY,
    LaurentPoly,
    ParamPoly,
    RatFunc,
    Specialization,
    _biv_gcd,
    _exponents,
    _rat_canonical,
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


def test_cyclo_rejects_conductor_below_one():
    for make in (
        lambda: Cyclo(0, [5]),
        lambda: Cyclo(-4, [1, 2]),
        lambda: Cyclo.zeta(0),
        lambda: Cyclo.from_fraction(0, 1),
    ):
        with pytest.raises(ValueError, match="no cyclotomic field"):
            make()


def test_cyclo_rationals():
    # conductor 1 is plain Q
    a = Cyclo.from_fraction(1, Fraction(2, 3))
    b = Cyclo.from_fraction(1, Fraction(3, 2))
    assert (a * b).is_one()


def test_specialization_generic_identity():
    spec = Specialization.generic()
    assert spec(q) == q
    assert spec((r - q) / (r + q)) == (r - q) / (r + q)


def test_specialization_skips_only_the_identity_substitution():
    x = (r - q) / (r + q)
    assert Specialization.generic()(x) is x
    assert Specialization(("generic",), q, r)(x) is x
    squares = Specialization(("generic",), q * q, r * r)
    assert squares(x) == (r * r - q * q) / (r * r + q * q)
    with pytest.raises(DenominatorVanishes):
        Specialization(("generic",), q, -q)(x)


@pytest.mark.parametrize(
    "spec",
    [
        Specialization.generic(),
        Specialization.prime_field(13, 3, 5),
        Specialization.cyclotomic(12, Cyclo.zeta(12), Cyclo.zeta(12, 5)),
    ],
    ids=["generic", "fp", "cyclo"],
)
def test_specialization_one_and_zero_are_made_once(spec):
    # one() and zero() return the values made in __init__: no division per call
    assert spec.one() is spec.one() and spec.zero() is spec.zero()
    assert spec.one() == spec.q_img / spec.q_img and spec.one().is_one()
    assert spec.zero() == spec.q_img - spec.q_img and spec.zero().is_zero()
    assert spec.from_int(3) == spec.one() + spec.one() + spec.one()


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


# psi_13, the least composite that is a strong probable prime to each of
# the first 13 primes 2..41 (Sorenson and Webster, Math. Comp. 86, 2017)
PSI_13 = 3317044064679887385961981


def test_prime_field_large_prime_takes_milliseconds():
    t0 = time.process_time()
    spec = Specialization.prime_field(2**61 - 1, 3, 5)
    assert time.process_time() - t0 < 0.05
    assert spec.field == ("fp", 2**61 - 1)
    assert spec(q * r) == Fp(2**61 - 1, 15)


@pytest.mark.parametrize(
    "p",
    [
        561,  # Carmichael numbers
        41041,
        2047,  # strong pseudoprime to base 2
        3215031751,  # strong pseudoprime to bases 2, 3, 5 and 7
        3825123056546413051,  # strong pseudoprime to every prime base up to 31
        2**61 + 1,
        PSI_13,  # the bound of the test, and above it
        PSI_13 + 2**89,
    ],
)
def test_prime_field_rejects_composites_and_the_test_bound(p):
    with pytest.raises(ValueError):
        Specialization.prime_field(p, 3, 5)


def test_prime_field_agrees_with_trial_division():
    for p in range(10**4):
        prime = p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))
        try:
            Specialization.prime_field(p, 1, 1)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == prime, p


def test_quantum_char():
    # e(x) = least m with 1 + x + ... + x^{m-1} = 0
    assert quantum_char(Fp(5, 1)) == 5
    assert quantum_char(Fp(5, 4)) == 2
    assert quantum_char(Fp(5, 2)) == 4
    assert quantum_char(Fp(7, 2)) == 3
    assert quantum_char(RatFunc.q()) == INFINITY
    z = Cyclo.zeta(8)
    assert quantum_char(z * z) == 4  # 1 + i + i^2 + i^3 = 0


CONDUCTORS = (1, 2, 3, 4, 5, 6, 8, 9, 12, 24)


def random_cyclo(rng, m, length):
    cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(length)]
    return cs, Cyclo(m, cs)


@pytest.mark.parametrize("m", CONDUCTORS)
def test_cyclo_product_matches_sympy_rem(m):
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    phi = sympy.cyclotomic_poly(m, x)
    deg = sympy.degree(phi, x)
    rng = random.Random(m)
    for _ in range(10):
        ca, a = random_cyclo(rng, m, deg)
        cb, b = random_cyclo(rng, m, deg)
        prod = sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(ca))
        prod *= sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(cb))
        rem = sympy.Poly(sympy.rem(sympy.expand(prod), phi, x), x)
        want = [Fraction(0)] * deg
        for (i,), c in rem.terms():
            want[i] = Fraction(int(c.p), int(c.q))
        assert (a * b).coeffs == tuple(want)
        # a coefficient list longer than phi(m) is reduced the same way
        assert Cyclo(m, ca + [Fraction(0)] * deg + [Fraction(1)]) == a + Cyclo.zeta(m, 2 * deg)


@pytest.mark.parametrize("m", CONDUCTORS)
def test_cyclo_inverse_and_negative_powers(m):
    one = Cyclo.from_fraction(m, 1)
    deg = len(cyclotomic_poly(m)) - 1
    rng = random.Random(100 + m)
    for _ in range(10):
        _, a = random_cyclo(rng, m, rng.randint(1, 2 * deg + 1))
        if a.is_zero():
            continue
        assert a * a._inverse() == one
        for e in (1, 2, 5):
            assert a ** (-e) * a**e == one


POWER_BASES = [
    LaurentPoly({(1, 0): 2, (-1, 1): -1, (0, 0): 3}),
    (q + r) / (q - 2),
    Cyclo(12, [1, -2, Fraction(1, 3)]),
    Fp(11, 7),
]


@pytest.mark.parametrize("x", POWER_BASES, ids=lambda x: type(x).__name__)
def test_power_is_repeated_product(x):
    unit = x / x if not isinstance(x, LaurentPoly) else LaurentPoly.const(1)
    for e in range(10):
        assert x**e == reduce(operator.mul, [x] * e, unit)


def brute_quantum_char(x, one, limit):
    """Least m <= limit with 1 + x + ... + x^{m-1} = 0, else INFINITY."""
    total, power = x - x, one
    for m in range(1, limit + 1):
        total, power = total + power, power * x
        if total.is_zero():
            return m
    return INFINITY


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_quantum_char_fp_matches_brute_force(p):
    for v in range(1, p):
        assert quantum_char(Fp(p, v)) == brute_quantum_char(Fp(p, v), Fp(p, 1), p)


@pytest.mark.parametrize("m", CONDUCTORS)
def test_quantum_char_roots_of_unity_match_brute_force(m):
    one = Cyclo.from_fraction(m, 1)
    for j in range(m):
        # -zeta_m^j has order 2m when m is odd: the lcm(2, m) bound
        for x in (Cyclo.zeta(m, j), -Cyclo.zeta(m, j)):
            assert quantum_char(x) == brute_quantum_char(x, one, 2 * m)


def test_prime_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    # random n, semiprimes whose factors pass trial division (so rho splits
    # them), prime powers, and p - 1 for the 61-bit Mersenne prime
    cases = [rng.randrange(1, 10 ** rng.randint(1, 18)) for _ in range(300)]
    cases += [1, 2, 43 * 43, 43**5, 43 * 47, 1000003 * 1000033, 4 * 1000003**2]
    cases += [998244353 * 1000000007, 2**61 - 2]
    for n in cases:
        assert coefficients._prime_factors(n) == sorted(sympy.factorint(n)), n


def test_quantum_char_at_a_61_bit_prime_is_the_order():
    p = 2**61 - 1
    for v in (2, 3, 9, 37, p - 1, 2**30 + 3):
        e = quantum_char(Fp(p, v))
        assert (p - 1) % e == 0 and pow(v, e, p) == 1
        for ell in coefficients._prime_factors(e):
            assert pow(v, e // ell, p) != 1
    assert quantum_char(Fp(p, p - 1)) == 2


def test_cyclotomic_specialization_needs_positive_conductor():
    for m in (0, -4):
        with pytest.raises(ValueError):
            Specialization.cyclotomic(m, Cyclo.zeta(8), Cyclo.zeta(8))


def test_cyclotomic_specialization_needs_images_in_its_field():
    with pytest.raises(ValueError, match="not in Q\\(zeta_8\\)"):
        Specialization.cyclotomic(8, Cyclo.zeta(5), Cyclo.zeta(5, 2))
    with pytest.raises(ValueError, match="image of r"):
        Specialization.cyclotomic(8, Cyclo.zeta(8), 3)
    # the CLI's points build their images in Q(zeta_m) of the field's own m
    for field, q_tok, r_tok in (("cyclo:8", "zeta^3", "zeta^-3"), ("cyclo:12", "zeta", "zeta^5")):
        spec = build_spec(field, q_tok, r_tok)
        m = int(field[6:])
        assert spec.field == ("cyclo", m) and spec.q_img.m == spec.r_img.m == m


# -- RatFunc operators against the full canonicalisation ----------------------
#
# The operators cross-cancel instead of canonicalising num*num' / den*den';
# canonical form is unique, so each must return exactly what _rat_canonical
# makes of the textbook numerator and denominator.

Q2M1 = LaurentPoly({(2, 0): 1, (0, 0): -1})
DENOMINATORS = [
    LaurentPoly.const(1),
    LaurentPoly.const(4),
    LaurentPoly({(1, 0): 2, (0, 0): 2}),
    LaurentPoly({(1, 0): 1, (0, 1): -1}),
    LaurentPoly({(1, 1): 1, (0, 0): -1}),
    LaurentPoly({(-1, 0): 1, (1, 0): 1}),
] + [Q2M1**k for k in (1, 2, 3)]

# wide enough for products of bivariate denominators with several terms,
# which the heuristic gcd handles in milliseconds
exponents = st.integers(-3, 3)


def laurents(max_terms):
    keys = st.tuples(exponents, exponents)
    return st.dictionaries(keys, st.integers(-6, 6), max_size=max_terms).map(LaurentPoly)


monomials = st.builds(
    LaurentPoly.monomial, st.integers(-6, 6).filter(bool), exponents, exponents
)
numerators = st.one_of(laurents(5), monomials, laurents(5).map(lambda p: p * 2))
denominators = st.one_of(
    st.sampled_from(DENOMINATORS), laurents(4).filter(lambda p: not p.is_zero())
)
ratfuncs = st.builds(RatFunc, numerators, denominators)


@st.composite
def ratfunc_pairs(draw):
    """(x, y): unrelated, sharing x's denominator, or built to cancel to 0 or 1."""
    x = draw(ratfuncs)
    kind = draw(st.sampled_from(("plain", "shared", "same", "negated", "inverse")))
    if kind == "shared":
        return x, RatFunc(draw(numerators), x.den)
    if kind == "same":
        return x, RatFunc(x.num, x.den)
    if kind == "negated":
        return x, -x
    if kind == "inverse" and not x.is_zero():
        return x, RatFunc(x.den, x.num)
    return x, draw(ratfuncs)


def textbook(op, x, y):
    """(num, den) of x op y by the schoolbook rules, not yet canonical."""
    a, b, c, d = x.num, x.den, y.num, y.den
    return {
        "+": (a * d + c * b, b * d),
        "-": (a * d - c * b, b * d),
        "*": (a * c, b * d),
        "/": (a * d, b * c),
    }[op]


OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def assert_canonical_result(got, num, den):
    assert isinstance(got, RatFunc)
    assert (got.num, got.den) == _rat_canonical(num, den)


@given(ratfunc_pairs(), st.integers(-4, 4))
@settings(max_examples=300, deadline=None)
def test_ratfunc_operators_match_canonical_oracle(pair, n):
    x, y = pair
    for sym, op in OPS.items():
        if sym != "/" or not y.is_zero():
            assert_canonical_result(op(x, y), *textbook(sym, x, y))
        # reflected and plain int operands
        k = RatFunc.from_int(n)
        if sym != "/" or not x.is_zero():
            assert_canonical_result(op(n, x), *textbook(sym, k, x))
        if sym != "/" or n:
            assert_canonical_result(op(x, n), *textbook(sym, x, k))
    if not x.is_zero():
        assert_canonical_result(x.inv(), x.den, x.num)
        assert_canonical_result(x**-2, x.den * x.den, x.num * x.num)


def sympy_expr(x):
    """x as a sympy expression in q and r."""
    import sympy

    qs, rs = sympy.symbols("q r")

    def poly(p):
        return sympy.Add(*[c * qs**i * rs**j for (i, j), c in p.terms.items()])

    return poly(x.num) / poly(x.den)


@given(ratfunc_pairs())
@settings(max_examples=25, deadline=None)
def test_ratfunc_operators_match_sympy_cancel(pair):
    sympy = pytest.importorskip("sympy")
    x, y = pair
    for sym, op in OPS.items():
        if sym == "/" and y.is_zero():
            continue
        assert sympy.cancel(sympy_expr(op(x, y)) - op(sympy_expr(x), sympy_expr(y))) == 0


def field_value_outcome(spec, x):
    """spec(x) for a RatFunc x over F_p the way the other fields take it:
    LaurentPoly.evaluate on Fp values, then one division; as the repr and
    type of the value, or the message of DenominatorVanishes."""
    one = spec.one()
    try:
        den = x.den.evaluate(spec.q_img, spec.r_img, one)
        if den.is_zero():
            raise DenominatorVanishes(f"denominator {x.den!r} vanishes")
        value = spec.zero() if x.num.is_zero() else x.num.evaluate(spec.q_img, spec.r_img, one) / den
    except DenominatorVanishes as exc:
        return str(exc)
    return repr(value), type(value), value.p


@given(ratfuncs, st.sampled_from((2, 3, 5, 7, 13, 2**61 - 1)), st.data())
@settings(max_examples=300, deadline=None)
def test_fp_specialisation_on_residues_matches_field_values(x, p, data):
    spec = Specialization.prime_field(p, data.draw(st.integers(1, p - 1)), data.draw(st.integers(1, p - 1)))
    try:
        got = spec(x)
    except DenominatorVanishes as exc:
        got = str(exc)
    else:
        got = repr(got), type(got), got.p
    assert got == field_value_outcome(spec, x)


def test_polynomial_operands_need_no_gcd(monkeypatch):
    def refuse(*args):
        raise AssertionError("gcd or canonicalisation on polynomial operands")

    monkeypatch.setattr(coefficients, "_biv_gcd", refuse)
    monkeypatch.setattr(coefficients, "_rat_canonical", refuse)
    x, y = q**-2 * r + 3 * q, 2 * r - q**3
    assert x.den.is_one() and y.den.is_one()
    assert (x + y).num == x.num + y.num
    assert (x - y).num == x.num - y.num
    assert (x * y).num == x.num * y.num
    assert (x - x).is_zero() and (x + 5).den.is_one() and (3 * y).den.is_one()
    # a monomial numerator against a denominator takes an integer gcd
    assert (q**3 * 4) / (2 * q + 2) == (q**3 * 2) / (q + 1)


def test_wide_coprime_canonicalisation_takes_milliseconds():
    # coprime moderate-size factors on which a primitive PRS gcd took 2.2 s
    x = (-6 * q**3 * r**2 - 5 * q**5 * r**3 - 4 * q**6 * r**5) / (
        2 * r + 3 * q * r**4 + 6 * q**3 + 4 * q**4 * r
    )
    y = (-2 * q**-3 * r**-1 - 3 * q**-2 * r**2 - 6 * r**-2 - 4 * q * r**-1) / (
        6 + 5 * q**2 * r + 4 * q**3 * r**3
    )
    start = time.process_time()
    z = RatFunc(x.num * y.den + y.num * x.den, x.den * y.den)
    assert time.process_time() - start <= 0.5
    assert z == x + y
    sympy = pytest.importorskip("sympy")
    assert sympy.cancel(sympy_expr(z) - sympy_expr(x) - sympy_expr(y)) == 0


# -- the heuristic gcd of Z[q, r] against sympy -------------------------------


def positive(p):
    """p with a positive graded-lex leading coefficient."""
    if p and p[max(p, key=lambda k: (k[0] + k[1], k[0]))] < 0:
        return {k: -v for k, v in p.items()}
    return p


def sympy_gcd(a, b):
    sympy = pytest.importorskip("sympy")
    qs, rs = sympy.symbols("q r")
    g = sympy.gcd(sympy.Poly.from_dict(a, qs, rs), sympy.Poly.from_dict(b, qs, rs))
    return positive({k: int(c) for k, c in g.terms() if c})


def biv(p):
    return (p if isinstance(p, LaurentPoly) else LaurentPoly.const(p)).terms


QL, RL, L1 = LaurentPoly.gen_q(), LaurentPoly.gen_r(), LaurentPoly.const(1)
# q - r and 1 - qr are coprime, but both map to multiples of 1 - x under r -> q^D
KRONECKER = (QL - RL, L1 - QL * RL)
PINNED_GCDS = {
    "kronecker_trap": (*KRONECKER, 1),
    "kronecker_trap_times_q_plus_1": (
        KRONECKER[0] * (QL + L1), KRONECKER[1] * (QL + L1), QL + L1
    ),
    "constant_operand": (6, 4 * QL * RL + 2 * RL + 8 * L1, 2),
    "constant_coprime": (5, QL - RL, 1),
    "zero_operand": (0, 3 * RL - QL * QL, QL * QL - 3 * RL),
    "equal_operands": (2 * QL - QL * RL - L1, 2 * QL - QL * RL - L1, QL * RL - 2 * QL + L1),
    "one_divides_other": (QL + RL + L1, (QL + RL + L1) * (QL - RL * RL), QL + RL + L1),
    "integer_contents": (6 * (QL + RL), 4 * (QL + RL) * (QL - L1), 2 * (QL + RL)),
    # the first xi fails in Z[q, r]: the images' gcd 2(3r + 1) lifts to qr + 2
    "retry_in_z_q_r": (2 * QL - 3 * QL**2 * RL**2, -(QL * RL) - 2 * L1, 1),
    # the first xi fails one level down, in Z[r]
    "retry_in_z_r": (3 * QL * RL**2, 3 * QL**2 - 3 * QL * RL**2, 3 * QL),
}


@pytest.mark.parametrize("name", PINNED_GCDS)
def test_biv_gcd_pinned_cases(name, monkeypatch):
    a, b, want = (biv(p) for p in PINNED_GCDS[name])
    failed = []

    def counting(divexact):
        def wrapped(x, y):
            try:
                return divexact(x, y)
            except ArithmeticError:
                failed.append(divexact.__name__)
                raise

        return wrapped

    for helper in ("_biv_divexact", "_uni_divexact"):
        monkeypatch.setattr(coefficients, helper, counting(getattr(coefficients, helper)))
    assert _biv_gcd(a, b) == _biv_gcd(b, a) == want == sympy_gcd(a, b)
    if name == "retry_in_z_q_r":
        assert "_biv_divexact" in failed
    if name == "retry_in_z_r":
        assert "_uni_divexact" in failed


def biv_polys(max_exp):
    keys = st.tuples(st.integers(0, max_exp), st.integers(0, max_exp))
    coeffs = st.integers(-1000, 1000).filter(bool)
    return st.dictionaries(keys, coeffs, min_size=1, max_size=5).map(LaurentPoly)


@given(biv_polys(3), biv_polys(5), biv_polys(5), st.integers(1, 12), st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_biv_gcd_matches_sympy(g, u, v, cu, cv):
    # a planted common factor g, cofactors with integer contents; degree <= 8
    a, b = (g * u * cu).terms, (g * v * cv).terms
    assert _biv_gcd(a, b) == sympy_gcd(a, b)


def q_polys(max_exp):
    """Polynomials in Z[q] with a nonzero constant term, so no monomial
    factor, and leading coefficients of either sign; constants included."""
    coeffs = st.integers(-50, 50).filter(bool)
    rest = st.dictionaries(st.integers(1, max_exp), coeffs, max_size=3)
    return st.tuples(coeffs, rest).map(lambda t: LaurentPoly({(e, 0): c for e, c in t[1].items()} | {(0, 0): t[0]}))


@given(q_polys(3), q_polys(3), biv_polys(4), st.integers(-12, 12).filter(bool), st.integers(-12, 12).filter(bool),
       st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=150, deadline=None)
@example(L1, L1, QL + RL, -1, 1, -1, -2)
def test_gcd_with_an_r_free_denominator_matches_biv_gcd_and_sympy(g, u, v, cd, cx, i, j):
    # d in Z[q] takes the reduction to the gcd in Z[q] of d and the
    # r-coefficients of x: a planted common factor g, integer contents on
    # both sides, and x shifted to negative q and r exponents; d = -1, the
    # one gcd that the sign rule has to turn, is pinned
    d = g * u * cd
    x = (g * v * cx).shifted(i, j)
    nq, nr = x.min_exps()
    poly = x.shifted(-nq, -nr).terms
    assert coefficients._gcd_with(x, d).terms == _biv_gcd(poly, d.terms) == sympy_gcd(poly, d.terms)


def const(c):
    """The constant c of the parameter ring, c a nonzero int."""
    return ParamPoly({0: c})


def param_polys():
    """ParamPoly values with Q exponents of either sign, built from the
    indeterminates by the ring operations alone."""
    R = ParamPoly
    atoms = st.sampled_from((R.Q, R.Qinv, R.a, R.b, R.one(), R.Q - 1, R.Qinv - 1))
    term = st.tuples(st.integers(-5, 5).filter(bool), st.lists(atoms, max_size=4)).map(
        lambda t: reduce(operator.mul, t[1], const(t[0]))
    )
    return st.lists(term, max_size=4).map(lambda ts: sum(ts, R.zero()))


@given(param_polys(), param_polys(), st.sampled_from((5, 101, 2**61 - 1)), st.data())
@settings(max_examples=200, deadline=None)
def test_param_poly_evaluation_is_a_ring_homomorphism(x, y, p, data):
    # evaluating Q^i a^j b^l at Q, a, b in F_p term by term commutes with
    # +, *, negation, subtraction and dot, and acc drops exactly the zero sums
    Q, a, b = (Fp(p, data.draw(st.integers(1, p - 1))) for _ in range(3))

    def value(z):
        total = Fp(p, 0)
        for m, c in z.terms.items():
            i, j, l = _exponents(m)
            total = total + Q**i * a**j * b**l * c
        return total

    assert all(all(z.terms.values()) for z in (x, y, x + y, x * y, x - 3, -x, x - y, ParamPoly.dot([x, y], [y, x])))
    assert value(x + y) == value(x) + value(y)
    assert value(x - 3) == value(x) - 3
    assert value(-x) == -value(x) and value(x - y) == value(x) - value(y) and (x - x).is_zero()
    assert value(ParamPoly.dot([x, y, x], [y, x, x])) == value(x) * value(y) * 2 + value(x) * value(x)
    assert value(x * y) == value(x) * value(y)
    assert (x * y).is_zero() == (x.is_zero() or y.is_zero())
    out = {}
    ParamPoly.acc(out, "k", x)
    ParamPoly.acc(out, "k", x * const(-1))
    assert out == {}


def test_param_poly_negation_and_ring_subtraction():
    # psi over the ring scales by -Q^{-1}; Q - a at an F_p point is Q - a
    Q, Qinv, a, b = ParamPoly.Q, ParamPoly.Qinv, ParamPoly.a, ParamPoly.b
    assert (-Q).terms == {1: -1} and -(-Q) == Q and -ParamPoly.zero() == ParamPoly.zero()
    assert Q - a == Q + a * const(-1) and Q - Q == ParamPoly.zero() and Qinv - 1 == Qinv + const(-1)
    p = 101  # Q, a, b -> 3, 7, 11

    def value(x):
        return Fp(p, sum(c * pow(3, i, p) * 7**j * 11**l for (i, j, l), c in ((_exponents(m), c) for m, c in x.terms.items())))

    for x, want in ((-Qinv, -pow(3, -1, p)), (Q - a, 3 - 7), (b - Q * a, 11 - 21), (-(Q - b), 11 - 3)):
        assert value(x) == Fp(p, want), x.terms


def test_dot_sums_products_in_every_internal_form():
    # dot(xs, ys) over F_p returns the unreduced int sum, elsewhere the field value
    fp, gen = Specialization.prime_field(7, 3, 5), Specialization.generic()
    assert fp.dot([5, 6], [6, 6]) == 66 and fp.dot([], []) == 0
    q, r = RatFunc.q(), RatFunc.r()
    assert gen.dot([q, r], [r, q]) == q * r * 2 and gen.dot([], []).is_zero()


def test_param_poly_monomials_decode_each_sign():
    Q, Qinv, a, b = ParamPoly.Q, ParamPoly.Qinv, ParamPoly.a, ParamPoly.b
    x = Qinv * Qinv * Qinv * a * a * b * const(7) + Q * Q * Q * Q * b * b * b * const(-1) + const(2)
    assert sorted((_exponents(m), c) for m, c in x.terms.items()) == [((-3, 2, 1), 7), ((0, 0, 0), 2), ((4, 0, 3), -1)]
    assert (Q * Qinv).terms == {0: 1} and (Q + Q * const(-1)).is_zero()


def test_param_poly_equality_and_powers():
    Q, Qinv, a, b = ParamPoly.Q, ParamPoly.Qinv, ParamPoly.a, ParamPoly.b
    x = Q * a + b * const(3)
    assert x == b * const(3) + a * Q and x != Q * a and x != 3 and Q * Qinv == const(1)
    assert x**0 == const(1) and x**1 == x and x**3 == x * x * x and Qinv**2 == Qinv * Qinv
    with pytest.raises(ValueError):
        Q**-1
