"""Symmetric group combinatorics: permutations, partitions, tableaux,
letter windows and the transversals B_{k,n}."""

import itertools
import math

from qbrauer import brauerdiag as bd
from qbrauer import symgrp as sg


def test_perm_basics():
    n = 4
    s1, s2 = sg.gen(n, 1), sg.gen(n, 2)
    assert sg.mul(s1, s1) == sg.identity(n)
    # left-to-right composition: (u*v)(m) = v(u(m))
    u = sg.mul(s1, s2)
    assert u == (2, 0, 1, 3) or sg.length(u) == 2
    assert sg.mul(u, sg.inv(u)) == sg.identity(n)


def test_length_and_reduced_word():
    n = 5
    for w in sg.all_perms(4):
        w5 = w + (4,)
        word = sg.reduced_word(w5)
        assert len(word) == sg.length(w5)
        assert sg.from_word(n, word) == w5


def test_longest_element_length():
    w0 = tuple(reversed(range(5)))
    assert sg.length(w0) == 10


def test_partitions_order():
    # lexicographically decreasing, most dominant first
    assert sg.partitions(4) == (
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    )
    assert sg.partitions(0) == ((),)


def test_dominance():
    assert sg.dominates((3, 1), (2, 2))
    assert not sg.dominates((2, 2), (3, 1))
    assert sg.dominates((2, 2), (2, 2))
    assert not sg.dominates((2, 1, 1), (2, 2))


def test_hook_product_and_tableau_count():
    lam = sg.Partition((3, 2, 1))
    assert sg.hook_product(lam) == 45
    assert len(sg.standard_tableaux(lam)) == math.factorial(6) // 45  # 16


def test_superstandard_first():
    lam = sg.Partition((2, 1))
    tabs = sg.standard_tableaux(lam)
    assert tabs[0] == sg.superstandard(lam)
    assert sg.superstandard(lam, 3) == ((3, 4), (5,))


def test_tableau_perm_definition():
    # t^lam . d(t) = t: relabelling the superstandard entries by d gives t
    lam = sg.Partition((3, 1))
    sup = sg.superstandard(lam)
    for t in sg.standard_tableaux(lam):
        d = sg.tableau_perm(4, t, 1)
        moved = tuple(tuple(d[x - 1] + 1 for x in row) for row in sup)
        assert moved == t


def test_young_subgroup():
    lam = sg.Partition((2, 1))
    sub = sg.young_subgroup(3, lam, 1)
    assert len(sub) == 2
    assert sg.identity(3) in sub


def test_window_perms():
    assert len(sg.window_perms(5, 3)) == 6
    assert sg.window_perms(2, 3) == [sg.identity(2)]
    for w in sg.window_perms(5, 3):
        assert w[0] == 0 and w[1] == 1


def test_Bkn_counts():
    # |B_{k,n}| = n! / (2^k k! (n-2k)!)
    for n in range(2, 9):
        for k in range(n // 2 + 1):
            expect = math.factorial(n) // (
                2**k * math.factorial(k) * math.factorial(n - 2 * k)
            )
            assert len(sg.enumerate_Bkn(n, k)) == expect


def _descending_run_Bkn(n, k):
    """B_{k,n} by brute force: the descending-run normal form, grouped by
    the diagram e_(k) * w (ordered throughs only), keeping the candidate
    whose length is the diagram length."""
    positions = [j for j in range(2, 2 * k + 1, 2) if j <= n - 1]
    positions += list(range(2 * k + 1, n))
    runs = [
        [()] + [tuple(range(j, i - 1, -1)) for i in range(j, 0, -1)]
        for j in positions
    ]
    cands = {
        sg.from_word(n, tuple(itertools.chain(*combo)))
        for combo in itertools.product(*runs)
    }
    e_k = bd.e_k_diagram(n, k)
    by_diag = {}
    for w in cands:
        d, loops = bd.compose(e_k, bd.perm_diagram(w))
        assert loops == 0
        if bd.order_preserving_throughs(d, n):
            by_diag.setdefault(d, []).append(w)
    out = []
    for d, ws in by_diag.items():
        best = [w for w in ws if sg.length(w) == bd.diagram_length(n, k, d)]
        assert len(best) == 1
        out.append(best[0])
    out.sort(key=lambda w: (sg.length(w), w))
    return out


def test_Bkn_matches_descending_run_construction():
    # the closed form against the brute force it replaced, order included
    for n in range(2, 7):
        for k in range(n // 2 + 1):
            assert sg.enumerate_Bkn(n, k) == _descending_run_Bkn(n, k)


def test_B13_ordering():
    # the three coset representatives for n = 3, k = 1: 1, s_2, s_2 s_1
    assert sg.enumerate_Bkn(3, 1) == [
        sg.identity(3),
        sg.gen(3, 2),
        sg.from_word(3, (2, 1)),
    ]


def test_B15_set():
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
    assert set(sg.enumerate_Bkn(5, 1)) == expect
