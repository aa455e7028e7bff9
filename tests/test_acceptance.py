"""Acceptance gate: one test per acceptance criterion, each printing a
single PASS/FAIL line (run with -s or read the failure report).

Criteria 3 and 4 check the n = 3, k = 1 Gram matrix, its determinant and
the cyclotomic specialization of that determinant.  The Gram matrix is
reproduced entry-by-entry as published, but the published closed form of
its determinant carries a spurious factor 3: the true determinant is

    q^5 (r^2 - q^2)^2 (q^4 r^2 - 1) / (r^3 (q^2 - 1)^3),

the published formula divided by 3.  Three reckonings settle this, none
of which reads a value off the program:

* Pinning the published form next to the true one is unsatisfiable.
  Asserting both ``3 * d == formula`` and ``d == formula`` (or both
  ``d == 2i`` and ``d == 6i`` at the cyclotomic point) needs 3d = d with
  d nonzero, so such a test fails for every program.
* Expanding the determinant of the published matrix by cofactors, in
  plain RatFunc arithmetic (and independently in sympy), gives the
  published formula divided by 3.  Cross-checked by hand at q = 2,
  r = 3: the matrix determinant is 114400/729 while the published
  formula gives 343200/729.
* The classical limit.  At r = q^N, rescaling e to q^(N-1) e gives the
  N-version, and the Gram matrix scales by q^(2(N-1)), its determinant by
  q^(6(N-1)).  At q = 1 the matrix becomes the Brauer-diagram Gram
  [[N, 1, 1], [1, N, 1], [1, 1, N]] of the cell module of D_3(N), whose
  determinant is (N-1)^2 (N+2).  The divided form tends to exactly that;
  the published form tends to 3 times it.

So the tests pin the corrected form and keep the published one only as
the erratum (``3 * d == published``, the published 6i at the cyclotomic
point).  The factor 3 is a unit except in characteristic 3, so no
semisimplicity verdict depends on it.
"""
import math
import random
import time
from fractions import Fraction

from qbrauer import brauerdiag as bd
from qbrauer import symgrp as sg
from qbrauer.cellular import Cellular, closed_form_criterion, rank
from qbrauer.coefficients import (
    Cyclo,
    DenominatorVanishes,
    RatFunc,
    Specialization,
)
from qbrauer.hecke import HeckeWindow
from qbrauer.qbrauer import QBrAlgebra


q = RatFunc.q()
r = RatFunc.r()


def report(num, ok, desc):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_1_dimensions():
    t0 = time.time()
    ok = True
    for n, expect in ((2, 3), (3, 15), (4, 105), (5, 945)):
        alg = QBrAlgebra(n)
        cell = Cellular(alg)
        ok &= alg.dim() == expect
        ok &= len(alg.basis_indices()) == expect
        ok &= len(cell.cellular_labels()) == expect
    elapsed = time.time() - t0
    report(1, ok and elapsed < 60, f"basis counts 3/15/105/945 in {elapsed:.1f}s")


def test_criterion_2_B15():
    words = [
        (),
        (2,),
        (2, 3),
        (2, 1),
        (2, 1, 3),
        (2, 1, 3, 2),
        (2, 3, 4),
        (2, 1, 3, 4),
        (2, 1, 3, 2, 4),
        (2, 1, 3, 2, 4, 3),
    ]
    expect = {sg.from_word(5, w) for w in words}
    got = sg.enumerate_Bkn(5, 1)
    ok = set(got) == expect and len(got) == 10
    report(2, ok, "B_{1,5} equals the published 10-element set")


def published_det(q, r):
    """The published closed form of the n = 3, k = 1 Gram determinant.

    It is 3 times the true determinant (see the module docstring); the
    arguments may be RatFunc generators or elements of any field.
    """
    return (
        3 * q**5 * (r * r - q * q) ** 2 * (q**4 * r * r - 1)
        / (r**3 * (q * q - 1) ** 3)
    )


def cofactor_det(m):
    """Determinant by cofactor expansion along the first row.

    Plain ring arithmetic on the entries, independent of
    :func:`qbrauer.cellular.det`.
    """
    if len(m) == 1:
        return m[0][0]
    terms = [
        (-1) ** j * m[0][j]
        * cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    ]
    return sum(terms[1:], terms[0])


def brauer_cell_gram(n, k, N):
    """Gram matrix of the cell module of D_n(N) with k arcs, from diagrams.

    The basis is the diagrams with top row e_(k)'s; the pairing of x and y
    is N^loops when x stacked on y* gives e_(k) back, and 0 when it loses
    through strands.
    """
    halves = bd.enumerate_Dkn(n, k)
    e = bd.e_k_diagram(n, k)
    gram = []
    for x in halves:
        row = []
        for y in halves:
            d, loops = bd.compose(x, bd.star(y, n))
            row.append(N**loops if d == e else 0)
        gram.append(row)
    return gram


def test_criterion_3_gram_matrix_and_det():
    t0 = time.time()
    cell = Cellular(QBrAlgebra(3))
    a = cell.alg.a
    B = r * q
    g = cell.gram(1, sg.Partition((1,)))
    expect_matrix = [
        [a, B, q * q * B],
        [B, q * q * a + (q * q - 1) * B, q**4 * B],
        [q * q * B, q**4 * B, q**4 * a + (q**4 - 1) * q * q * B],
    ]
    matrix_ok = g == expect_matrix
    d = cell.gram_det(1, sg.Partition((1,)))
    published = published_det(q, r)
    det_ok = d == published / 3 and d == cofactor_det(expect_matrix)
    # classical limit: r = q^N and e -> q^(N-1) e give the N-version, whose
    # q = 1 Gram is the diagram Gram of D_3(N)
    at_q1 = Specialization.rationals(1, 1)
    limit_ok = all(
        at_q1(published_det(q, q**N) / 3 * q ** (6 * (N - 1)))
        == cofactor_det(brauer_cell_gram(3, 1, N))
        for N in (2, 3, 4, 5)
    )
    elapsed = time.time() - t0
    assert matrix_ok, "Gram matrix must match entry-by-entry"
    assert 3 * d == published, "sanity: the published formula is 3x the true det"
    report(
        3,
        matrix_ok and det_ok and limit_ok and elapsed < 60,
        "Gram matrix entry-by-entry; det equals the published formula"
        " divided by 3 (an erratum), which is the cofactor determinant of"
        " the published matrix and tends at q = 1 to the D_3(N) diagram"
        " Gram determinant for N = 2..5",
    )


def test_criterion_4_cyclotomic_spot_value():
    z = Cyclo.zeta(8)
    spec = Specialization.cyclotomic(8, z**3, z**5)  # r = q^{-1}, q^2 = -i
    cell = Cellular(QBrAlgebra(3, spec=spec))
    d = cell.gram_det(1, sg.Partition((1,)))
    i = z * z
    two_i = i + i
    ok = d == two_i and published_det(z**3, z**5) / 3 == two_i
    assert d == i + i, "sanity: the true determinant specializes to 2i"
    report(
        4,
        ok,
        "det at r=q^{-1}, q^2=-i equals 2i, the published formula divided"
        " by 3 (the published 6i is an erratum)",
    )


def grid_verdicts(n, p, version):
    out = {}
    for ri in range(1, p):
        for qi in range(1, p):
            try:
                spec = Specialization.prime_field(p, qi, ri)
                alg = QBrAlgebra(n, version=version, spec=spec)
                if alg.a.is_zero():
                    continue
                out[(ri, qi)] = Cellular(alg).is_semisimple()[0]
            except DenominatorVanishes:
                continue
    return out


def test_criterion_5_f5_tables():
    t0 = time.time()
    two = grid_verdicts(2, 5, "two_param")
    non_ss = {pt for pt, v in two.items() if not v}
    ok = non_ss == {(ri, qi) for ri in (2, 3) for qi in (2, 3)}
    one = grid_verdicts(2, 5, "one_param")
    non_ss1 = {pt for pt, v in one.items() if not v}
    ok &= non_ss1 == {(ri, 4) for ri in (2, 3, 4)}
    elapsed = time.time() - t0
    report(5, ok and elapsed < 300, f"F_5 n=2 tables in {elapsed:.1f}s")


def test_criterion_6_closed_form_sweeps():
    t0 = time.time()
    checked = 0
    ok = True
    for n in (2, 3):
        for p in (5, 7):
            for version in ("two_param", "one_param"):
                for (ri, qi), brute in grid_verdicts(n, p, version).items():
                    spec = Specialization.prime_field(p, qi, ri)
                    closed, _ = closed_form_criterion(n, version, spec)
                    ok &= closed == brute
                    checked += 1
            for qi in range(1, p):
                for N in (-3, -2, -1, 1, 2, 3, 4, 5, 6):
                    try:
                        spec = Specialization.prime_field(p, qi, qi)
                        alg = QBrAlgebra(n, version="n_version", spec=spec, N=N)
                        if alg.a.is_zero():
                            continue
                        brute = Cellular(alg).is_semisimple()[0]
                    except DenominatorVanishes:
                        continue
                    closed, _ = closed_form_criterion(n, "n_version", spec, N=N)
                    ok &= closed == brute
                    checked += 1
    elapsed = time.time() - t0
    report(
        6,
        ok and elapsed < 1800,
        f"closed forms agree with brute force at {checked} points"
        f" in {elapsed:.1f}s",
    )


def test_criterion_7_brauer_oracle():
    t0 = time.time()
    ok = True
    for n in (2, 3, 4):
        N = 3
        spec = Specialization.rationals(Fraction(1), Fraction(1))
        alg = QBrAlgebra(n, version="n_version", spec=spec, N=N)
        x = alg.field.from_int(N)
        one = alg.field.one()
        idxs = alg.basis_indices()
        diags = [bd.normal_index_diagram(n, i) for i in idxs]
        pos = {d: i for i, d in enumerate(diags)}
        for i in range(len(idxs)):
            xi = {idxs[i]: one}
            for j in range(len(idxs)):
                p = alg.mul(xi, {idxs[j]: one})
                d, loops = bd.compose(diags[i], diags[j])
                expect = {idxs[pos[d]]: x**loops if loops else one}
                ok &= p == expect
    elapsed = time.time() - t0
    report(
        7,
        ok and elapsed < 600,
        f"N-version structure constants at q=1 match diagrams, n<=4,"
        f" in {elapsed:.1f}s",
    )


def test_criterion_8_property_suites():
    t0 = time.time()
    ok = True
    # defining relations, all versions
    for n in (2, 3, 4):
        for version, N in (
            ("two_param", None),
            ("one_param", None),
            ("n_version", 2),
            ("classical", None),
        ):
            ok &= QBrAlgebra(n, version=version, N=N).verify_relations() == []
    # absorption identities up to n = 5
    for n in (3, 4, 5):
        ok &= QBrAlgebra(n).verify_identities() == []
    # associativity: 1000 random triples at n = 4
    alg4 = QBrAlgebra(4)
    idxs4 = alg4.basis_indices()
    one = alg4.field.one()
    rng = random.Random(20240826)
    for _ in range(1000):
        x, y, z = ({rng.choice(idxs4): one} for _ in range(3))
        ok &= alg4.mul(alg4.mul(x, y), z) == alg4.mul(x, alg4.mul(y, z))
    # associativity: exhaustive at n = 3
    alg3 = QBrAlgebra(3)
    idxs3 = alg3.basis_indices()
    one3 = alg3.field.one()
    elts = [{i: one3} for i in idxs3]
    left = {}
    for i, xx in enumerate(elts):
        for j, yy in enumerate(elts):
            left[(i, j)] = alg3.mul(xx, yy)
    for i in range(len(elts)):
        for j in range(len(elts)):
            for k in range(len(elts)):
                ok &= alg3.mul(left[(i, j)], elts[k]) == alg3.mul(
                    elts[i], left[(j, k)]
                )
    # involution anti-automorphism: 1000 random pairs at n = 4
    for _ in range(1000):
        x, y = ({rng.choice(idxs4): one} for _ in range(2))
        ok &= alg4.star(alg4.mul(x, y)) == alg4.mul(alg4.star(y), alg4.star(x))
    # cellularity filtration: every cellular basis element times every
    # generator decomposes within the label's row plus dominant labels
    for n in (2, 3, 4):
        alg = QBrAlgebra(n)
        cell = Cellular(alg)
        gens = [alg.g(i) for i in range(1, n)] + [alg.e_k(1)]
        for idx in cell.cellular_labels():
            kk, lam, su, tv = idx
            xelt = cell.cell_basis_element(kk, lam, su, tv)
            for gelt in gens:
                y = cell.to_cellular(alg.mul(xelt, gelt))
                for (k2, lam2, su2, tv2) in y:
                    if (k2, lam2) == (kk, lam):
                        ok &= su2 == su
                    else:
                        ok &= cell.dominates((k2, lam2), (kk, lam))
    # Murphy transition invertibility for every window with n <= 5
    spec = Specialization.generic()
    Q = q * q
    for n in (2, 3, 4, 5):
        for lo in range(1, n + 1):
            H = HeckeWindow(n, lo, spec, Q)
            labels, codes, lu = H.murphy_data()
            ok &= len(labels) == len(codes) == math.factorial(n - lo + 1)
            # a pivot row per column, reduced rows upper triangular with
            # the (nonzero, as stored) pivot on the diagonal
            ok &= sorted(lu.pivots) == list(range(len(labels)))
            ok &= [min(row) for row in lu.upper] == list(range(len(labels)))
    elapsed = time.time() - t0
    report(8, ok, f"relation/associativity/involution/cellularity/Murphy"
                  f" suites, zero failures, in {elapsed:.1f}s")


def test_criterion_9_simple_modules():
    cell = Cellular(QBrAlgebra(3))
    labels = cell.classify_simples()
    ok = len(labels) == 4
    for k, lam in labels:
        g = cell.gram(k, lam)
        ok &= rank(g, cell.field) == len(g)  # dim D = dim C generically
    spec = Specialization.prime_field(5, 2, 2)  # e(q^2) = 2
    cell5 = Cellular(QBrAlgebra(3, spec=spec))
    restricted = set(cell5.classify_simples())
    ok &= cell5.quantum_characteristic() == 2
    for k, lam in cell5.labels():
        g = cell5.gram(k, lam)
        if (k, lam) in restricted:
            ok &= any(not c.is_zero() for row in g for c in row)
        else:
            ok &= rank(g, cell5.field) < len(g)
    report(9, ok, "n=3 simple-module classification, generic and e(q^2)=2")
