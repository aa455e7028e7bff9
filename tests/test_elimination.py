"""Determinant and rank: ``det_rank`` against independent references, and
one elimination per Gram matrix in ``Cellular``.

Over the generic field the reference is sympy (test-only): the
determinant and rank of ``sympy.polys.matrices.DomainMatrix`` over
Q(q, r) on random small matrices of rational functions, on matrices with
wide coefficients and degrees that reach the bounds of the Kronecker
packing, on matrices over Z[x, y] at each bound of the one exact
elimination (``_poly_det_rank``: y-degree J, coefficients at H where
|y| = X, a rank that shows at one node only, one variable, constant,
empty, non-square), and its fraction-field determinant on every generic
n = 4 Gram matrix.  Over F_p it is the plain Gaussian elimination below,
at p = 2, 3, 7 and 2^61 - 1.  The generic Gram matrices of the default
versions are all nonsingular, so only the matrices here reach the
column-skipping path of the fraction-free elimination; n_version at
N = 1 and N = -2 has singular ones, whose rank the elimination gives
after the universal determinant substitutes to zero.
"""

import math
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from qbrauer import cellular, coefficients
from qbrauer.cellular import (
    _LEVEL0, Cellular, _eliminated, _substituted, _universal_blocks, _universal_det, _universal_gram, det_rank,
)
from qbrauer.coefficients import DenominatorVanishes, Fp, LaurentPoly, RatFunc, Specialization
from qbrauer.qbrauer import QBrAlgebra

sympy = pytest.importorskip("sympy")

Q, R = sympy.symbols("q r")
GENERIC = Specialization.generic()
P = 7
FP = Specialization.prime_field(P, 3, 5)


def to_sympy(x):
    def expr(p):
        return sympy.Add(*[c * Q**i * R**j for (i, j), c in p.terms.items()])

    return expr(x.num) / expr(x.den)


def sympy_det_rank(mat, cols):
    """(det or None, rank) by sympy's DomainMatrix over Q(q, r)."""
    from sympy.polys.matrices import DomainMatrix

    if not mat:  # the empty matrix: det 1, rank 0
        return sympy.Integer(1), 0
    K = sympy.QQ.frac_field(Q, R)
    m = DomainMatrix([[K.from_sympy(to_sympy(x)) for x in row] for row in mat], (len(mat), cols), K)
    d = K.to_sympy(m.det()) if len(mat) == cols else None
    return d, m.rank()


# -- random matrices -----------------------------------------------------------

term = st.tuples(st.integers(-3, 3), st.integers(-2, 1), st.integers(-1, 2))


def laurent(terms):
    out = {}
    for c, dq, dr in terms:
        out[(dq, dr)] = out.get((dq, dr), 0) + c
    return LaurentPoly(out)


nums = st.lists(term, max_size=3).map(laurent)
dens = st.lists(term, min_size=1, max_size=2).map(laurent).filter(lambda p: not p.is_zero())
ratfuncs = st.builds(RatFunc, nums, dens)
fps = st.integers(0, P - 1).map(lambda v: Fp(P, v))


@st.composite
def matrices(draw, entries, zero, max_dim=3):
    """(matrix, column count): plain, with a zero row or column, or a
    product A B with inner dimension below both sides (rank deficient)."""
    rows = draw(st.integers(0, max_dim))
    # a list of no rows has no columns either
    cols = draw(st.integers(1, max_dim)) if rows else 0
    kind = draw(st.sampled_from(("plain", "zero_row", "zero_col", "product")))
    if kind == "product" and min(rows, cols) >= 2:
        inner = draw(st.integers(1, min(rows, cols) - 1))
        a = [[draw(entries) for _ in range(inner)] for _ in range(rows)]
        b = [[draw(entries) for _ in range(cols)] for _ in range(inner)]
        mat = [[zero] * cols for _ in range(rows)]
        for i in range(rows):
            for j in range(cols):
                for t in range(inner):
                    mat[i][j] = mat[i][j] + a[i][t] * b[t][j]
        return mat, cols
    mat = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    if kind == "zero_row" and rows:
        mat[draw(st.integers(0, rows - 1))] = [zero] * cols
    if kind == "zero_col" and cols:
        j = draw(st.integers(0, cols - 1))
        for row in mat:
            row[j] = zero
    return mat, cols


@given(matrices(ratfuncs, GENERIC.zero()))
@settings(max_examples=60, deadline=None)
def test_generic_det_rank_matches_sympy(drawn):
    check_against_sympy(*drawn)


def check_against_sympy(mat, cols):
    d, rk = det_rank(mat, GENERIC)
    expect_d, expect_rk = sympy_det_rank(mat, cols)
    assert rk == expect_rk
    if expect_d is None:
        assert d is None
    else:
        assert sympy.cancel(to_sympy(d) - expect_d) == 0


def gauss_mod_p(mat, cols, p=P):
    """(det or None, rank) of an integer matrix mod p, textbook style."""
    m = [[x % p for x in row] for row in mat]
    rows, rk, d = len(m), 0, 1
    for col in range(cols):
        piv = next((i for i in range(rk, rows) if m[i][col]), None)
        if piv is None:
            d = 0
            continue
        if piv != rk:
            m[rk], m[piv] = m[piv], m[rk]
            d = -d
        d = d * m[rk][col] % p
        inv = pow(m[rk][col], p - 2, p)
        for i in range(rk + 1, rows):
            f = m[i][col] * inv % p
            m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rk])]
        rk += 1
    return (d % p if rk == rows else 0) if rows == cols else None, rk


SMALL_PRIMES = {p: Specialization.prime_field(p, 1, 1) for p in (2, 3, P)}


@given(st.sampled_from(sorted(SMALL_PRIMES)), st.data())
@settings(max_examples=300, deadline=None)
def test_fp_det_rank_matches_gauss(p, data):
    # shapes up to 9 x 9, square or not, plain or rank deficient, at p = 2,
    # 3 and 7; det_rank also takes ints: any int, negative or >= p
    # included, gives the (det, rank) of its Fp value, and the determinant
    # comes back as an Fp
    spec = SMALL_PRIMES[p]
    mat, cols = data.draw(matrices(st.integers(0, p - 1).map(lambda v: Fp(p, v)), spec.zero(), max_dim=9))
    check_against_gauss(mat, cols, spec)
    assert det_rank([[x.v for x in row] for row in mat], spec) == det_rank(mat, spec)
    ints, cols = data.draw(matrices(st.integers(-3 * p, 3 * p), 0, max_dim=9))
    d, rk = det_rank(ints, spec)
    assert (d, rk) == det_rank([[Fp(p, x) for x in row] for row in ints], spec)
    assert d is None or d.__class__ is Fp
    assert (d if d is None else d.v, rk) == gauss_mod_p(ints, cols, p)


def fastest_growing(p, d):
    """Matrices of d rows whose entries are all p - 1 where nonzero: the
    all-(p - 1) matrix (rank 1), p - 1 off the diagonal, and p - 1 on and
    above it, each pivot step adding (p - 1)^2 to slots of p - 1."""
    top = p - 1
    yield [[top] * d for _ in range(d)]
    yield [[top * (i != j) for j in range(d)] for i in range(d)]
    yield [[top * (i <= j) for j in range(d)] for i in range(d)]
    yield [[top] * (d + 2) for _ in range(d)]
    yield [[top * (i >= j) for j in range(d)] for i in range(d + 3)]


@pytest.mark.parametrize("p", [2, 3, 7, 2**61 - 1])
def test_fp_det_rank_at_the_slot_bound(p):
    # the matrices of residues p - 1, and packed matrices whose every entry
    # is the largest that a slot may start with, m (p - 1)^2 for m products
    # of two residues: no carry may cross a slot on the way to the pivots
    spec = Specialization.prime_field(p, 1, 1)
    for d in range(1, 13):
        for mat in fastest_growing(p, d):
            d_, rk = det_rank(mat, spec)
            assert (d_ if d_ is None else d_.v, rk) == gauss_mod_p(mat, len(mat[0]), p), (d, mat)
    rng = random.Random(p)
    for m in (1, 2, 41):
        for d in (1, 2, 5, 12):
            top = m * (p - 1) ** 2
            for entries in ([[top] * d for _ in range(d)], [[rng.choice((0, top, rng.randrange(top + 1))) for _ in range(d)] for _ in range(d)]):
                w = cellular._slot_bytes(m, d, p)
                packed = cellular._Packed([cellular._pack(row, w) for row in entries], d, w)
                got, rk = det_rank(packed, spec)
                assert (got.v, rk) == gauss_mod_p(entries, d, p), (m, d, entries)
                assert packed.residues(p) == [[x % p for x in row] for row in entries]


def check_against_gauss(mat, cols, spec):
    d, rk = det_rank(mat, spec)
    expect_d, expect_rk = gauss_mod_p([[x.v for x in row] for row in mat], cols, spec.field[1])
    assert rk == expect_rk
    assert (d if d is None else d.v) == expect_d


MERSENNE61 = 2**61 - 1
FP61 = Specialization.prime_field(MERSENNE61, 3, 5)
fp61s = st.integers(0, MERSENNE61 - 1).map(lambda v: Fp(MERSENNE61, v))


@given(matrices(fp61s, FP61.zero(), max_dim=9))
@settings(max_examples=60, deadline=None)
def test_fp_det_rank_matches_gauss_at_a_61_bit_prime(drawn):
    check_against_gauss(*drawn, FP61)


@pytest.mark.parametrize("p", [7, MERSENNE61])
def test_fp_singular_mod_p_but_not_over_z(p):
    # the residues have integer determinant p: a pivot test on the integer
    # value instead of its residue would find rank 3
    spec = Specialization.prime_field(p, 3, 5)
    h = (p + 1) // 2
    mat = [[Fp(p, v) for v in row] for row in ((1, 0, 0), (0, 2, 1), (0, 1, h))]
    assert det_rank(mat, spec) == (spec.zero(), 2)
    assert gauss_mod_p([[x.v for x in row] for row in mat], 3, p) == (0, 2)


# -- wide coefficients: the bounds of the Kronecker packing ------------------------

WIDE = 10**6
wide_term = st.tuples(st.integers(-WIDE, WIDE), st.integers(0, 6), st.integers(0, 6))
wide_entries = st.lists(wide_term, max_size=4).map(lambda terms: RatFunc(laurent(terms)))


def monomial(c, dq, dr):
    return RatFunc(LaurentPoly.monomial(c, dq, dr))


@st.composite
def monomial_matrices(draw, max_dim=4):
    """(matrix, column count) with one monomial c q^a r^b per row and
    column: the determinant is +-prod c q^(sum a) r^(sum b), whose
    coefficient is the packing's bound H and whose r-degree is its d_r."""
    dim = draw(st.integers(1, max_dim))
    perm = draw(st.permutations(range(dim)))
    mat = [[GENERIC.zero()] * dim for _ in range(dim)]
    for i, j in enumerate(perm):
        c = draw(st.integers(1, WIDE)) * draw(st.sampled_from((1, -1)))
        mat[i][j] = monomial(c, draw(st.integers(0, 6)), draw(st.integers(0, 6)))
    return mat, dim


@given(st.one_of(matrices(wide_entries, GENERIC.zero()), monomial_matrices()))
@example(([[monomial(WIDE, 0, 0)]], 1))  # the coefficient at H
@example(([[monomial(-(2**20), 3, 0)]], 1))  # -H, H a power of two
@example(([[monomial(1, 0, 6)]], 1))  # r-degree at the stride edge
@example(([[monomial(-5, 0, 4), GENERIC.zero()], [GENERIC.zero(), monomial(7, 2, 3)]], 2))
@example(([[RatFunc(laurent([(-3, 2, 1), (5, 0, 6), (-1, 0, 0)]))]], 1))  # negative leading digit
@settings(max_examples=60, deadline=None)
def test_generic_det_rank_wide_coefficients_match_sympy(drawn):
    check_against_sympy(*drawn)


# -- one elimination over Z[x, y] at its bounds ---------------------------------------
#
# ``_poly_det_rank`` packs x and interpolates y at the J + 1 nodes
# X - J .. X, X = J - J // 2, J the sum of the rows' largest y exponents;
# the matrices below sit on each of its bounds, so a copy with one node
# fewer, or with B one bit narrower, fails them


def poly_sympy_det_rank(m, cols):
    """(det as {(i, j): c} or None, rank) by sympy over Q(q, r), q for x and
    r for y."""
    from sympy.polys.matrices import DomainMatrix

    if not m:
        return {(0, 0): 1}, 0
    K = sympy.QQ.frac_field(Q, R)
    dm = DomainMatrix([[K.from_sympy(sum((c * Q**i * R**j for (i, j), c in x.items()), sympy.Integer(0))) for x in row]
                       for row in m], (len(m), cols), K)
    d = None
    if len(m) == cols:
        d = {k: int(c) for k, c in sympy.Poly(K.to_sympy(dm.det()), Q, R).as_dict().items() if c}
    return d, dm.rank()


def check_poly(m):
    got = cellular._poly_det_rank(m)
    assert got == poly_sympy_det_rank(m, len(m[0]) if m else 0), m
    return got


def swapped(m):
    return [[{(j, i): c for (i, j), c in x.items()} for x in row] for row in m]


def nodes(J):
    X = J - J // 2
    return list(range(X - J, X + 1))


def expand(factors):
    """{(0, j): c} of prod (y - z) over z in factors."""
    p = [1]
    for z in factors:
        p = [a - z * b for a, b in zip([0] + p, p + [0])]
    return {(0, j): c for j, c in enumerate(p) if c}


def times(x, i):
    return {(a + i, b): c for (a, b), c in x.items()}


@pytest.mark.parametrize("degrees", [(1,), (3,), (0, 2), (1, 1, 1), (2, 0, 3, 1), (4, 4)])
def test_poly_det_reaches_the_y_degree_bound(degrees):
    # a diagonal of x^(d + 1) y^d, and of y^d + x^(d + 1), whose
    # determinants have y-degree exactly J = sum d; and L U, L unitriangular
    # in x and U upper triangular with y^d + x^(d + 2) on its diagonal, d
    # ascending, whose rows have y-degree d and whose determinant reaches J;
    # x has the larger degree in each, so y is interpolated, and with the
    # keys swapped x is
    d = len(degrees)
    mats = [
        [[{(e + 1, e): 1} if i == j else {} for j in range(d)] for i, e in enumerate(degrees)],
        [[{(0, e): 1, (e + 1, 0): 1} if i == j else {} for j in range(d)] for i, e in enumerate(degrees)],
    ]
    up = sorted(degrees)
    L = [[{(1, 0): i - j} if i > j else ({(0, 0): 1} if i == j else {}) for j in range(d)] for i in range(d)]
    U = [[{(0, e): 1, (e + 2, 0): 1} if i == j else ({(0, e): 2, (1, 0): -1} if i < j else {}) for j in range(d)]
         for i, e in enumerate(up)]
    LU = [[{} for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            for t in range(d):
                for (a, b), c in L[i][t].items():
                    for (a2, b2), c2 in U[t][j].items():
                        LU[i][j][a + a2, b + b2] = LU[i][j].get((a + a2, b + b2), 0) + c * c2
            LU[i][j] = {k: c for k, c in LU[i][j].items() if c}
    mats.append(LU)
    for m in mats:
        det, rk = check_poly(m)
        assert rk == d and max(j for _, j in det) == sum(degrees)
        det, rk = check_poly(swapped(m))
        assert rk == d and max(i for i, _ in det) == sum(degrees)


@pytest.mark.parametrize("sign", [1, -1])
def test_poly_det_coefficients_at_the_slot_bound(sign):
    # at the node y = X a diagonal of c x^a y^d packs c X^d in each row: the
    # node's determinant is H itself, the bound B is taken from; with J <= 2
    # (X = 1) and H a power of two, the determinant's coefficient is H, the
    # widest one a balanced digit of B = H.bit_length() + 1 bits holds
    for cs, ds in (((3, 5, 7), (1, 2, 3)), ((10**6, 10**6), (4, 5)), ((2**20,), (1,)), ((2**10, 2**10), (1, 1))):
        m = [[{(2 * e + 1, e): sign * c if i == 0 else c} if i == j else {} for j in range(len(cs))]
             for i, (c, e) in enumerate(zip(cs, ds))]
        det, _ = check_poly(m)
        J = sum(ds)
        assert det == {(sum(2 * e + 1 for e in ds), J): sign * math.prod(cs)}
        X = nodes(J)[-1]
        assert math.prod(c * X**e for c, e in zip(cs, ds)) == math.prod(max(1, c * X**e) for c, e in zip(cs, ds))
    for c in (2**20, 2**40, 10**6):
        check_poly([[{(3, 0): sign * c}]])  # x alone, one node: the coefficient is H
        check_poly([[{(0, 0): sign * c}]])


@pytest.mark.parametrize("J", [1, 2, 3, 4, 5])
def test_poly_rank_shows_at_one_node_only(J):
    # f = prod (y - z) over every node z but one has y-degree J and is
    # nonzero at that node alone; the rank of each matrix below shows only
    # there, the first node, a middle one or the last
    ys = nodes(J)
    for keep in {ys[0], ys[len(ys) // 2], ys[-1]}:
        f = times(expand([z for z in ys if z != keep]), J + 1)  # x^(J + 1) f: y is interpolated
        for m, rk in (
            ([[f]], 1),
            ([[{(J + 2, 0): 1}, {}], [{}, f]], 2),
            ([[{(J + 2, 0): 1}, {}, {}], [{}, f, {}]], 2),
            ([[f, f], [f, f]], 1),
            ([[f, {}], [{}, {}], [{}, f]], 2),
        ):
            assert check_poly(m)[1] == rk, (keep, m)


@pytest.mark.parametrize("m", [
    [[{(1, 0): 1}, {(2, 0): 1}], [{(0, 0): 1}, {(3, 0): -2}]],  # x alone
    [[{(0, 2): 1}, {(0, 0): 1}], [{(0, 1): 3}, {(0, 1): 1}]],  # y alone: x is interpolated, at one node
    [[{(0, 0): 2}, {(0, 0): 3}], [{(0, 0): 4}, {(0, 0): 5}]],  # constant
    [[{(0, 0): 2}, {(0, 0): 4}], [{(0, 0): 1}, {(0, 0): 2}]],  # constant, singular
    [],  # empty: det 1, rank 0
    [[{}]],  # zero
    [[{(1, 1): 1}, {(0, 2): 1}, {(2, 0): -1}], [{(0, 1): 2}, {}, {(1, 0): 1}]],  # 2 x 3
    [[{(1, 1): 1}, {(0, 2): 1}], [{(0, 1): 2}, {}], [{(1, 0): 1}, {(2, 2): 5}]],  # 3 x 2
    [[{(1, 1): 1}, {(0, 2): 1}], [{(2, 2): 2}, {(1, 3): 2}], [{(1, 0): 1}, {(0, 1): 1}]],  # 3 x 2, rank 1
])
def test_poly_det_rank_small_cases(m):
    check_poly(m)
    check_poly(swapped(m))


# -- the built-in check ------------------------------------------------------------

def test_inexact_division_is_caught():
    # a Bareiss step divides by the previous pivot; were that pivot wrong
    # the exact division would fail loudly instead of giving a wrong det
    below = [[4, 5]]
    cellular._bareiss_step([2, 3], below, 0, 2)  # (2 * 5 - 4 * 3) / 2
    assert below == [[4, -1]]
    with pytest.raises(ArithmeticError):
        cellular._bareiss_step([2, 3], [[4, 5]], 0, 3)  # -2 / 3


# -- the Gram determinants ----------------------------------------------------------

VERSIONS = (("two_param", None), ("one_param", None), ("n_version", 3), ("classical", None))


@pytest.mark.parametrize("version,N", VERSIONS)
def test_n4_gram_dets_match_sympy(version, N):
    from sympy.polys.matrices import DomainMatrix

    cell = Cellular(QBrAlgebra(4, version=version, N=N))
    for k, lam in cell.labels():
        g = cell.gram(k, lam)
        dm = DomainMatrix.from_Matrix(sympy.Matrix([[to_sympy(x) for x in row] for row in g]))
        expect = dm.domain.to_sympy(dm.det())
        assert sympy.cancel(to_sympy(cell.gram_det(k, lam)) - expect) == 0, (k, lam)


def count_det_rank(monkeypatch):
    calls = []
    original = cellular.det_rank

    def counting(mat, field):
        calls.append(id(mat))
        return original(mat, field)

    monkeypatch.setattr(cellular, "det_rank", counting)
    return calls


def test_each_generic_gram_matrix_is_eliminated_once(monkeypatch):
    # as in a fresh process, where no level-0 form is known yet; every form
    # is eliminated from the internal matrix that ``_form`` holds (at level
    # 0 the shared one), never from a copy that ``gram`` hands out; every
    # form is held as the field values that ``gram`` hands out, and the
    # forms of level k >= 1 carry their cell for the substitution into D
    _LEVEL0.clear()
    calls = count_det_rank(monkeypatch)
    cell = Cellular(QBrAlgebra(3))
    for k, lam in cell.labels():
        assert not cell.gram_det(k, lam).is_zero()
        assert cell.radical_dim(k, lam) == 0
    assert cell.is_semisimple() == (True, None)
    grams = [id(cell._form(k, lam)[0]) for k, lam in cell.labels()]
    assert sorted(calls) == sorted(grams)

    assert [cell._form(k, lam)[0] for k, lam in cell.labels()] == [cell.gram(k, lam) for k, lam in cell.labels()]
    assert all((getattr(cell._form(k, lam)[0], "cell", None) is not None) == (k > 0) for k, lam in cell.labels())


def test_singular_gram_matrices_take_a_second_pass_only_for_det_then_rank(monkeypatch):
    # e(q^2) = 2 over F_5: some forms are singular, and a zero determinant
    # (which runs through det alone) does not fix the rank; asking for the
    # rank first answers both in one pass; level-0 forms are shared by
    # every algebra at the point, so the second algebra starts from a fresh
    # process's memo, and a third one eliminates only above level 0
    _LEVEL0.clear()
    calls = count_det_rank(monkeypatch)
    spec = Specialization.prime_field(5, 2, 2)
    cell = Cellular(QBrAlgebra(3, spec=spec))
    labels = cell.labels()
    rads = [cell.radical_dim(k, lam) for k, lam in labels]
    dets = [cell.gram_det(k, lam) for k, lam in labels]
    cell.is_semisimple()
    singular = sum(rad > 0 for rad in rads)
    assert singular and [d.is_zero() for d in dets] == [rad > 0 for rad in rads]
    assert len(calls) == len(labels)

    calls.clear()
    _LEVEL0.clear()
    cell = Cellular(QBrAlgebra(3, spec=spec))
    assert [cell.gram_det(k, lam) for k, lam in labels] == dets
    assert [cell.radical_dim(k, lam) for k, lam in labels] == rads
    cell.is_semisimple()
    assert len(calls) == len(labels) + singular

    calls.clear()
    cell = Cellular(QBrAlgebra(3, spec=spec))
    assert [cell.gram_det(k, lam) for k, lam in labels] == dets
    assert [cell.radical_dim(k, lam) for k, lam in labels] == rads
    cell.is_semisimple()
    upper = [(k, lam) for k, lam in labels if k >= 1]
    assert upper and len(calls) == len(upper) + sum(rad > 0 for (k, _), rad in zip(labels, rads) if k >= 1)
    assert not set(calls) & {id(cell._form(0, lam)[0]) for k, lam in labels if k == 0}


def test_level0_forms_are_shared_by_field_and_hecke_parameter(monkeypatch):
    # over F_13, q = 2 and q = 11 give one Q = q^2 = 4, and r does not enter
    # level 0: the two algebras share each level-0 form and its elimination;
    # another Q over F_13, or Q = 4 over F_17, has forms of its own
    _LEVEL0.clear()
    calls = count_det_rank(monkeypatch)

    def radicals(p, q, r):
        cell = Cellular(QBrAlgebra(4, spec=Specialization.prime_field(p, q, r)))
        return [cell.radical_dim(0, lam) for lam in ((3, 1), (2, 2))]

    first = radicals(13, 2, 3)
    assert len(calls) == 2
    assert radicals(13, 11, 5) == first and len(calls) == 2
    radicals(13, 3, 3)
    assert len(calls) == 4
    radicals(17, 2, 3)
    assert len(calls) == len(_LEVEL0) == 6


@pytest.mark.parametrize("version,N", (("n_version", 3), ("two_param", None)))
def test_cleared_takes_one_gcd_per_further_denominator(monkeypatch, version, N):
    # the lcm starts from the first denominator, so a Gram matrix with one
    # distinct denominator needs no gcd at all
    calls = []
    original = cellular._biv_gcd

    def counting(a, b):
        calls.append(1)
        return original(a, b)

    g = Cellular(QBrAlgebra(3, version=version, N=N)).gram(1, (1,))
    monkeypatch.setattr(cellular, "_biv_gcd", counting)
    d = cellular.det(g, GENERIC)
    assert len(calls) == len({x.den for row in g for x in row}) - 1
    dm = sympy.Matrix([[to_sympy(x) for x in row] for row in g])
    assert sympy.cancel(to_sympy(d) - dm.det()) == 0


@pytest.mark.parametrize("lam", [(3,), (1, 1, 1)])
def test_n5_level1_generic_dets_in_bound_and_specialise(lam):
    # the generic determinant, substituted into the cell's universal one,
    # specialises to the F_p one at random admissible points
    cell = Cellular(QBrAlgebra(5, version="two_param"))
    start = time.process_time()
    d = cell.gram_det(1, lam)
    assert time.process_time() - start < 1
    rng = random.Random(str(lam))
    checked = 0
    while checked < 3:
        p, q, r = 1009, rng.randrange(2, 1009), rng.randrange(2, 1009)
        spec = Specialization.prime_field(p, q, r)
        try:
            want = Cellular(QBrAlgebra(5, version="two_param", spec=spec)).gram_det(1, lam)
            got = spec(d)
        except DenominatorVanishes:
            continue
        assert got == want, (p, q, r)
        checked += 1


# -- one universal determinant per cell ---------------------------------------------

NS = (-2, -1, 1, 2, 3)
EVERY_VERSION = (("two_param", None), ("one_param", None), ("classical", None)) + tuple(("n_version", N) for N in NS)


def upper_cells(n):
    """The labels (k, lam) with k >= 1 whose parameter-ring build succeeds."""
    return [
        (k, lam) for k, lam in Cellular(QBrAlgebra(n)).labels()
        if k and not isinstance(_universal_gram(n, k, lam), str)
    ]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_ring_gram_entries_are_homogeneous_of_degree_k(n):
    # deg e = deg a = deg b = 1 grades the algebra, so every monomial
    # Q^i a^j b^l of a level-k entry has j + l = k
    cells = upper_cells(n)
    assert cells
    for k, lam in cells:
        monomials, _ = _universal_gram(n, k, lam)
        assert monomials and all(j + l == k for _, (i, j, l) in monomials), (k, lam)


def assert_substitution_is_elimination(n, version, N, cells):
    # b^{kd} D(Q, a/b) is the eliminated determinant in every version, and
    # det_rank takes it where the scalars are in both q and r
    alg = QBrAlgebra(n, version=version, N=N)
    cell = Cellular(alg)
    for k, lam in cells:
        form = cell._form(k, lam)[0]
        assert (form.cell is not None) == (version in ("two_param", "one_param")), (n, version, k, lam)
        want = _eliminated(form, GENERIC)
        D = _universal_det(n, k, lam)
        assert _substituted(D, alg.Q, alg.a / alg.b, alg.b, k * len(form)) == want[0], (n, version, N, k, lam)
        assert det_rank(form, GENERIC) == want, (n, version, N, k, lam)


@pytest.mark.parametrize("version,N", EVERY_VERSION)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_substituted_dets_are_the_eliminated_ones_up_to_n4(n, version, N):
    assert_substitution_is_elimination(n, version, N, upper_cells(n))


@pytest.mark.parametrize("version", ["two_param", "one_param"])
def test_substituted_dets_are_the_eliminated_ones_at_n5(version):
    assert_substitution_is_elimination(5, version, None, [(1, (3,)), (1, (1, 1, 1))])


@pytest.mark.parametrize("version,N", EVERY_VERSION)
def test_substitution_is_b_to_the_kd_times_d_of_q_and_a_over_b(version, N):
    # the packed Horner against RatFunc arithmetic on D itself
    alg = QBrAlgebra(4, version=version, N=N)
    t = alg.a / alg.b
    for n in (3, 4):
        for k, lam in upper_cells(n):
            D, d = _universal_det(n, k, lam), len(_universal_gram(n, k, lam)[1])
            want = sum((c * alg.Q ** i * t ** j for (i, j), c in D.items()), GENERIC.zero()) * alg.b ** (k * d)
            assert _substituted(D, alg.Q, t, alg.b, k * d) == want, (n, k, lam)


def test_universal_dets_are_cleared_with_the_blocks():
    D = _universal_det(4, 1, (2,))
    assert _universal_blocks(4, 1)[2][(2,)] is D
    _universal_blocks.cache_clear()
    assert _universal_blocks(4, 1)[2] == {}
    assert _universal_det(4, 1, (2,)) == D


Q_, R_, ONE = RatFunc.q(), RatFunc.r(), RatFunc.from_int(1)


@pytest.mark.parametrize("images,substitutes", [
    ((-Q_, R_), False), ((Q_, -R_), False), ((ONE / Q_, R_), False), ((ONE / (Q_ + ONE), R_), False),
    ((Q_ * Q_, R_ * R_), True), ((Q_, Q_ * R_), True), ((Q_ * R_, Q_ * R_), True),
])
@pytest.mark.parametrize("version", ["two_param", "one_param"])
def test_specialised_generic_dets_are_the_eliminated_ones(version, images, substitutes):
    # the packed Horner reads only the exponents of Q and b: a sign, a
    # negative exponent or a denominator keeps the form off it, and q r in
    # both slots makes a = 1, t = Q^-1, where the substitution vanishes on
    # some cells and the rank comes from the elimination
    alg = QBrAlgebra(4, version=version, spec=Specialization(("generic",), *images))
    cell = Cellular(alg)
    for k, lam in upper_cells(4):
        form = cell._form(k, lam)[0]
        assert (form.cell is not None) == substitutes, (k, lam)
        assert det_rank(form, GENERIC) == _eliminated(form, GENERIC), (k, lam)
    if images == (Q_ * R_, Q_ * R_):
        assert cell.gram_det(2, ()).is_zero() and cell.radical_dim(2, ()) == 2


@pytest.mark.parametrize("N,rk", [(1, 1), (-2, 2)])
def test_singular_generic_cells_take_their_rank_from_the_elimination(N, rk):
    # at N = 1 and N = -2 the n_version map kills a factor of D(Q, t) for
    # C(1, (1)) at n = 3: the determinant is zero, and the rank comes from
    # the elimination, as sympy finds it for gram()
    cell = Cellular(QBrAlgebra(3, version="n_version", N=N))
    form = cell._form(1, (1,))[0]
    alg = cell.alg
    assert _substituted(_universal_det(3, 1, (1,)), alg.Q, alg.a / alg.b, alg.b, len(form)).is_zero()
    g = cell.gram(1, (1,))
    assert cell.gram_det(1, (1,)).is_zero()
    assert len(g) - cell.radical_dim(1, (1,)) == rk
    assert sympy.Matrix([[to_sympy(x) for x in row] for row in g]).rank(simplify=True) == rk


def at_the_slot_bound():
    """(D, Q, t, b, kd): synthetic determinants whose packed Horner meets
    the bound |N|_1 <= |D|_1 max(|N_t|_1, |D_t|_1)^J, some with one
    coefficient equal to it."""
    q, r, one = RatFunc.q(), RatFunc.r(), RatFunc.from_int(1)
    for J in (1, 2, 7):
        for C in (1, 3**7, 2**40 - 1, 2**40):
            for c in (2, 7, 2**16 - 1):
                # a constant t = c: N = C c^J, a single coefficient at the bound
                yield {(0, J): C}, q, one * c, one, 0
                yield {(0, J): -C}, q * q, one * c, r, 2
            # t = (r + 1) / (q + 1): no cancellation, so |N|_1 meets the bound
            full = {(i, j): C for i in range(-1, 3) for j in range(J + 1)}
            yield full, q, (r + 1) / (q + 1), q * r, 3
            yield full, q * r, (r + 1) / (q * r * r + 1), r ** -2, 1


def test_packed_horner_at_the_slot_bound():
    for D, Q, t, b, kd in at_the_slot_bound():
        want = sum((c * Q ** i * t ** j for (i, j), c in D.items()), GENERIC.zero()) * b ** kd
        assert _substituted(D, Q, t, b, kd) == want, (D, Q, t, b, kd)


def test_gram_converts_once_and_hands_out_copies(monkeypatch):
    # a second gram() makes no RatFunc canonicalisation, and an edit to a
    # returned list reaches neither a later gram() nor gram_det
    cell = Cellular(QBrAlgebra(4, version="one_param"))
    g = cell.gram(1, (2,))
    want = [list(row) for row in g]
    calls = []
    original = coefficients._rat_canonical
    monkeypatch.setattr(coefficients, "_rat_canonical", lambda *args: calls.append(1) or original(*args))
    again = cell.gram(1, (2,))
    assert calls == [] and again == want and again is not g
    g[0][0] += RatFunc.from_int(1)
    g[1].append(RatFunc.from_int(1))
    g.append(list(g[0]))
    again[0][0] = RatFunc.from_int(0)
    assert cell.gram(1, (2,)) == want
    monkeypatch.undo()
    assert cell.gram_det(1, (2,)) == cellular.det(want, GENERIC)
