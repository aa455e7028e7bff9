"""Symmetric group combinatorics: permutations, partitions, tableaux,
letter windows and the transversals B_{k,n}."""

import itertools
import math

import pytest

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
    for w in itertools.permutations(range(4)):
        w5 = w + (4,)
        word = sg.reduced_word(w5)
        assert len(word) == sg.length(w5)
        assert sg.from_word(n, word) == w5


def test_longest_element_length():
    w0 = tuple(reversed(range(5)))
    assert sg.length(w0) == 10


@pytest.mark.parametrize("n", range(1, 8))
def test_perm_table_matches_tuple_functions(n):
    # every entry of the per-n table equals the tuple function it replaces
    T = sg.perm_table(n)
    assert len(T.perms) == math.factorial(n)
    assert T.perms[0] == sg.identity(n)
    gens = (1 << n) - 2  # bits 1..n-1
    for c, w in enumerate(T.perms):
        assert T.code[w] == c
        assert T.perms[T.inv[c]] == sg.inv(w)
        assert T.length[c] == sg.length(w)
        assert T.word(c) == sg.reduced_word(w)
        assert T.ldes[c] & ~gens == 0 and T.rdes[c] & ~gens == 0
        for i in range(1, n):
            assert T.perms[T.lmul[i][c]] == sg.mul(sg.gen(n, i), w)
            assert T.perms[T.rmul[i][c]] == sg.mul(w, sg.gen(n, i))
            assert bool(T.ldes[c] >> i & 1) == (w[i - 1] > w[i])
            assert bool(T.rdes[c] >> i & 1) == (w.index(i) < w.index(i - 1))


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


def hook_product(lam):
    """Product of hook lengths of lam: the hook length formula's oracle for
    the number of standard tableaux."""
    lam = sg.Partition(lam)
    conj = lam.conjugate()
    out = 1
    for i, p in enumerate(lam):
        for j in range(p):
            out *= p - j + conj[j] - i - 1
    return out


def test_hook_product_and_tableau_count():
    lam = sg.Partition((3, 2, 1))
    assert hook_product(lam) == 45
    assert len(sg.standard_tableaux(lam)) == math.factorial(6) // 45  # 16


def test_superstandard_first():
    lam = sg.Partition((2, 1))
    tabs = sg.standard_tableaux(lam)
    assert tabs[0] == sg.superstandard(lam)
    assert sg.superstandard(lam, 3) == ((3, 4), (5,))


def _brute_standard_tableaux(lam):
    """Standard tableaux by brute force: every filling of lam by 0, 1, ...
    whose rows and columns increase, sorted by reading word."""
    m, out = sum(lam), []
    for word in itertools.permutations(range(m)):
        it = iter(word)
        t = tuple(tuple(next(it) for _ in range(p)) for p in lam)
        rows = all(row[j] < row[j + 1] for row in t for j in range(len(row) - 1))
        cols = all(t[i][j] < t[i + 1][j] for i in range(len(t) - 1) for j in range(len(t[i + 1])))
        if rows and cols:
            out.append(t)
    assert len(out) * hook_product(lam) == math.factorial(m)
    return sorted(out, key=lambda t: tuple(itertools.chain(*t)))


@pytest.mark.parametrize("m", range(0, 8))
def test_standard_tableaux_match_brute_force(m):
    # same tableaux in the same order: by reading word, t^lam first; the
    # oracle's entries 0, 1, ... are shifted to the window lo, lo+1, ...
    for lam in sg.partitions(m):
        brute = _brute_standard_tableaux(lam)
        for lo in (1, 2, 4):
            tabs = sg.standard_tableaux(lam, lo)
            assert list(tabs) == [tuple(tuple(x + lo for x in row) for row in t) for t in brute]
            assert tabs[0] == sg.superstandard(lam, lo)


def test_tableau_perm_definition():
    # t^lam . d(t) = t: relabelling the superstandard entries by d gives t,
    # and d fixes the letters below and above the window lo..lo+m-1
    for m in range(0, 7):
        for lam in sg.partitions(m):
            for lo in (1, 3):
                n, sup = lo + m, sg.superstandard(lam, lo)
                for t in sg.standard_tableaux(lam, lo):
                    d = sg.tableau_perm(n, t, lo)
                    moved = tuple(tuple(d[x - 1] + 1 for x in row) for row in sup)
                    assert moved == t
                    outside = [*range(lo - 1), *range(lo - 1 + m, n)]
                    assert all(d[x] == x for x in outside)


def test_partition_drops_only_trailing_zeros():
    assert sg.Partition((3, 0)) == (3,) and sg.Partition((2, 1, 0, 0)) == (2, 1)
    assert sg.Partition(()) == () and sg.Partition((0,)) == ()
    for parts in [(2, 0, 1), (0, 3), (1, 2), (3, -1)]:
        with pytest.raises(ValueError):
            sg.Partition(parts)


def test_partition_of_a_partition_is_itself():
    # a Partition is not checked again; lists and tuples still are, and the
    # unchecked conjugate is the checked one
    for m in range(7):
        for p in sg.partitions(m):
            assert sg.Partition(p) is p
            assert sg.Partition(list(p)) == p and sg.Partition(list(p)) is not p
            cols = tuple(sum(1 for x in p if x > i) for i in range(p[0] if p else 0))
            assert p.conjugate() == sg.Partition(cols) and type(p.conjugate()) is sg.Partition
            assert p.conjugate().conjugate() == p
    for parts in [(2, 0, 1), (0, 3), [2, 0, 1], [0, 3], [1, 2], [3, -1]]:
        with pytest.raises(ValueError):
            sg.Partition(parts)


def test_window_perms():
    # the permutations of the letters lo..n are the first (n - lo + 1)!
    # codes, in the order of itertools.permutations of those letters
    for n in range(0, 7):
        T = sg.perm_table(n)
        for lo in range(1, n + 2):
            fixed = tuple(range(lo - 1))
            brute = [fixed + p for p in itertools.permutations(range(lo - 1, n))]
            assert [T.perms[c] for c in T.window(lo)] == brute
            assert len(T.window(lo)) == math.factorial(n - lo + 1)


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


def test_Bkn_matches_the_brauer_oracle_n7_to_9():
    # every v in B_{k,n} up to MAX_N gives the diagram e_(k) v with no loop
    # and ordered throughs, of diagram length l(v), and the diagrams are
    # the C(n, 2k) (2k-1)!! ways to place the bottom arcs
    for n in (7, 8, 9):
        for k in range(n // 2 + 1):
            e_k = bd.e_k_diagram(n, k)
            seen = set()
            for v in sg.enumerate_Bkn(n, k):
                d, loops = bd.compose(e_k, bd.perm_diagram(v))
                assert loops == 0 and bd.order_preserving_throughs(d, n)
                assert sg.length(v) == bd.diagram_length(n, k, d)
                seen.add(d)
            assert len(seen) == math.comb(n, 2 * k) * bd.diagram_count(k)


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
