"""Brauer diagrams, the q = 1 oracle: composition with loop counting, the
involution and diagram lengths."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qbrauer import brauerdiag as bd
from qbrauer import symgrp as sg


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
    # e_(2) e_(2) closes two loops, each two middle vertices joined twice
    e2 = bd.e_k_diagram(4, 2)
    assert bd.compose(e2, e2) == (e2, 2)


def test_compose_rejects_a_broken_matching():
    # the lower factor leaves a middle vertex unmatched
    ident = bd.perm_diagram((0, 1))
    with pytest.raises(AssertionError, match="broken matching"):
        bd.compose(ident, frozenset({frozenset((0, 2))}))


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


def test_diagram_length_of_basis_words():
    # e_(1) itself has length 0; s_2 e_(1) has length 1
    n = 3
    e = bd.e_k_diagram(n, 1)
    assert bd.diagram_length(n, 1, e) == 0
    d, loops = bd.compose(bd.perm_diagram(sg.gen(n, 2)), e)
    assert loops == 0
    assert bd.diagram_length(n, 1, d) == 1


def test_length_table_matches_brute_force():
    # the closed-form length against every product w1 e_(k) w2: each
    # diagram with k arcs is one, and its length is the least l(w1) + l(w2)
    for n in range(2, 6):
        perms = list(itertools.permutations(range(n)))
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
            arcs = math.comb(n, 2 * k) * bd.diagram_count(k)
            assert len(expect) == arcs**2 * math.factorial(n - 2 * k)
            assert {d: bd.diagram_length(n, k, d) for d in expect} == expect


def test_diagram_length_rejects_other_diagrams():
    e = bd.e_k_diagram(4, 1)
    with pytest.raises(ValueError, match="not of the form w1 e_\\(k\\) w2"):
        bd.diagram_length(4, 2, e)
    pairs = [
        e - {frozenset((2, 6))},  # vertices 2 and 6 unmatched
        e | {frozenset((2, 7))},  # vertex 2 matched twice
        e - {frozenset((2, 6))} | {frozenset((2, 9))},  # a vertex off 0..7
        # every vertex once, but in a singleton and a triple
        e - {frozenset((2, 6)), frozenset((3, 7))} | {frozenset((2,)), frozenset((3, 6, 7))},
    ]
    for d in pairs:
        with pytest.raises(ValueError, match="not a perfect matching"):
            bd.diagram_length(4, 1, d)


def _all_diagrams(n):
    """Every perfect matching of 0..2n-1."""

    def matchings(free):
        if not free:
            yield []
            return
        a = free[0]
        for i in range(1, len(free)):
            for rest in matchings(free[1:i] + free[i + 1:]):
                yield [frozenset((a, free[i]))] + rest

    return [frozenset(m) for m in matchings(list(range(2 * n)))]


def _swap(d, p):
    """d with the adjacent vertices p and p + 1 of one row exchanged."""
    t = {p: p + 1, p + 1: p}
    return frozenset(frozenset(t.get(x, x) for x in e) for e in d)


def _lowering_swaps(n, d):
    """The vertices p whose swap with p + 1 the module docstring lists as
    lowering: T.L, T.R, the L.R of two arcs, and the L.L, R.R or T.T of
    two strands whose other ends are in the opposite order."""
    mate = {x: y for e in d for x, y in (tuple(e), tuple(e)[::-1])}
    out = []
    for lo in (0, n):
        kind = {
            x: "T" if not lo <= mate[x] < lo + n else "L" if mate[x] > x else "R"
            for x in range(lo, lo + n)
        }
        for p in range(lo, lo + n - 1):
            pair = kind[p] + kind[p + 1]
            if (
                pair in ("TL", "TR")
                or (pair == "LR" and mate[p] != p + 1)
                or (pair in ("LL", "RR", "TT") and mate[p] > mate[p + 1])
            ):
                out.append(p)
    return out


def test_length_proof_lemmas_n6():
    # the two lemmas of the module docstring on every diagram of n = 6: a
    # swap of adjacent vertices of one row moves the length by at most one,
    # and every diagram but e_(k) has a swap of the listed kinds, each of
    # which lowers it by one
    n = 6
    rows = [p for lo in (0, n) for p in range(lo, lo + n - 1)]
    diagrams = _all_diagrams(n)
    assert len(diagrams) == bd.diagram_count(n)
    arcs = {d: sum(max(e) < n for e in d) for d in diagrams}
    length = {d: bd.diagram_length(n, k, d) for d, k in arcs.items()}
    for d, l in length.items():
        for p in rows:
            assert abs(length[_swap(d, p)] - l) <= 1
        lowering = _lowering_swaps(n, d)
        assert bool(lowering) == (d != bd.e_k_diagram(n, arcs[d]))
        for p in lowering:
            assert length[_swap(d, p)] == l - 1
