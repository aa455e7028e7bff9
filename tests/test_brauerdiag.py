"""Brauer diagrams: composition with loop counting, the involution, and
the diagram algebra used as the q = 1 oracle."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from qbrauer import brauerdiag as bd
from qbrauer import symgrp as sg
from qbrauer.coefficients import RatFunc


def test_perm_diagram_compose():
    n = 3
    s1 = bd.perm_diagram(sg.gen(n, 1))
    s2 = bd.perm_diagram(sg.gen(n, 2))
    d, loops = bd.compose(s1, s1)
    assert loops == 0 and d == bd.perm_diagram(sg.identity(n))
    d, loops = bd.compose(s1, s2)
    assert loops == 0 and d == bd.perm_diagram(sg.mul(sg.gen(n, 1), sg.gen(n, 2)))


def test_e_squared_makes_loop():
    e = bd.e_k_diagram(2, 1)
    d, loops = bd.compose(e, e)
    assert loops == 1 and d == e


def test_star_involution():
    n = 4
    for k in (0, 1, 2):
        for d in bd.enumerate_Dkn(n, k):
            assert bd.star(bd.star(d, n), n) == d


def test_diagram_count():
    assert [bd.diagram_count(n) for n in (2, 3, 4, 5)] == [3, 15, 105, 945]


def test_normal_index_bijection():
    from qbrauer.qbrauer import QBrAlgebra

    for n in (3, 4, 5, 6):
        alg = QBrAlgebra(n, version="classical")
        seen = set()
        for idx in alg.basis_indices():
            d = bd.normal_index_diagram(n, idx)
            assert d not in seen
            seen.add(d)
        assert len(seen) == bd.diagram_count(n)


def test_dimension_n7():
    from qbrauer.qbrauer import QBrAlgebra

    alg = QBrAlgebra(7)
    assert alg.dim() == len(alg.basis_indices()) == bd.diagram_count(7)


def test_construction_does_not_import_the_oracle():
    # the diagram algebra checks the construction; it is no part of it
    code = (
        "import sys\n"
        "from qbrauer.cellular import Cellular\n"
        "from qbrauer.qbrauer import QBrAlgebra\n"
        "Cellular(QBrAlgebra(4)).gram(1, (2,))\n"
        "print('qbrauer.brauerdiag' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_diag_element_algebra():
    n = 3
    x = RatFunc.r()
    one = RatFunc.from_int(1)
    e = bd.DiagElement.from_diagram(n, x, bd.e_k_diagram(n, 1), one)
    assert e * e == e.scale(x)
    s2 = bd.DiagElement.from_diagram(n, x, bd.perm_diagram(sg.gen(n, 2)), one)
    # e s_2 e = e in the diagram algebra (no loop)
    assert e * s2 * e == e
    # involution is an anti-automorphism
    prod = e * s2
    assert prod.star() == s2.star() * e.star()


def test_diagram_length_of_basis_words():
    # e_(1) itself has length 0; s_2 e_(1) has length 1
    n = 3
    e = bd.e_k_diagram(n, 1)
    assert bd.diagram_length(n, 1, e) == 0
    d, loops = bd.compose(bd.perm_diagram(sg.gen(n, 2)), e)
    assert loops == 0
    assert bd.diagram_length(n, 1, d) == 1


def test_length_table_matches_brute_force():
    # the breadth-first table against every product w1 e_(k) w2
    for n in range(2, 6):
        perms = sg.all_perms(n)
        for k in range(n // 2 + 1):
            e_k = bd.e_k_diagram(n, k)
            expect = {}
            for w1 in perms:
                left, loops = bd.compose(bd.perm_diagram(w1), e_k)
                assert loops == 0
                for w2 in perms:
                    d, loops = bd.compose(left, bd.perm_diagram(w2))
                    assert loops == 0
                    l = sg.length(w1) + sg.length(w2)
                    expect[d] = min(l, expect.get(d, l))
            assert bd._length_table(n, k) == expect
