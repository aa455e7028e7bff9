"""Brauer diagrams: composition with loop counting, and diagram lengths.

The q = 1 oracle: nothing on the construction path (QBrAlgebra,
Cellular) imports it, so it checks that code independently.

A diagram on n strands is a perfect matching of 2n vertices.  Vertex ids
are 0..2n-1: top row positions 1..n are 0..n-1 (left to right), bottom row
positions 1..n are n..2n-1.  A diagram is stored as a frozenset of
frozenset pairs.

Composition stacks the left factor on top of the right factor and counts
the closed loops removed; in the diagram algebra each loop contributes a
factor of the loop parameter x.  With the permutation conventions of
:mod:`qbrauer.symgrp` (products read left to right), the map
w -> perm_diagram(w) is multiplicative.

The length of d = w1 e_(k) w2 is the least l(w1) + l(w2) over all ways
to write it, so its distance from e_(k) under the swaps of two adjacent
vertices of one row (s_i stacked above or below, closing no loop).
``diagram_length`` counts it in closed form as a sum over pairs of
strands: two through strands weigh 1 if they cross; two arcs of a row
weigh 0, 1 or 2 if apart, crossing or nested; a through end and an arc
of its row weigh 0, 1 or 2 if it lies right of, inside or left of the
arc.  The sum is 0 at e_(k).  A swap moves only the weight of the pair
of strands at its two vertices, and that by one at most.  Every other
diagram has a swap that lowers the sum by one: in a row, a through end
T just left of an arc's left end L (T.L) or just inside an arc's right
end R (T.R); the L.R of crossing arcs; the L.L or R.R of nested arcs;
the T.T of crossing strands.  For with none of these in a row, all
vertices right of a through end are through ends; the arc with the
least right end is adjacent (else the vertex inside it is the L of a
crossing L.R) and leftmost (else the L of a nested L.L); so by
induction the row is e_(k)'s, and with no crossing T.T the throughs are
in order.
"""

from __future__ import annotations

import itertools

__all__ = [
    "perm_diagram",
    "e_k_diagram",
    "compose",
    "star",
    "order_preserving_throughs",
    "diagram_length",
    "enumerate_Dkn",
    "diagram_count",
]


def perm_diagram(w):
    """The diagram of a permutation: top m joined to bottom w(m)."""
    n = len(w)
    return frozenset(frozenset((i, n + w[i])) for i in range(n))


def e_k_diagram(n, k):
    """The diagram e_(k): pairs (2i-1, 2i) horizontal in both rows."""
    edges = []
    for i in range(k):
        edges.append(frozenset((2 * i, 2 * i + 1)))
        edges.append(frozenset((n + 2 * i, n + 2 * i + 1)))
    for m in range(2 * k, n):
        edges.append(frozenset((m, n + m)))
    return frozenset(edges)


def compose(d1, d2):
    """Stack d1 above d2; return (diagram, number of closed loops)."""
    n = sum(len(e) for e in d1) // 2
    # adjacency over three rows: top(0..n-1), middle(n..2n-1), bottom(2n..3n-1)
    adj = {}
    for shift, d in ((0, d1), (n, d2)):
        for e in d:
            a, b = (x + shift for x in e)
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)

    def walk(cur):
        """The far end of the path from a boundary vertex, or cur itself
        round a closed loop of the middle row.  Each edge passed is used up,
        so the vertices with edges left are those no walk has reached."""
        start = cur
        while True:
            if not adj[cur]:
                raise AssertionError("broken matching")
            nxt = adj[cur].pop()
            adj[nxt].remove(cur)
            cur = nxt
            if cur == start or not n <= cur < 2 * n:
                return cur

    edges = set()
    for start in [*range(n), *range(2 * n, 3 * n)]:
        if adj[start]:
            edges.add(frozenset(v if v < n else v - n for v in (start, walk(start))))
    loops = 0
    for v in range(n, 2 * n):
        if adj[v]:
            walk(v)
            loops += 1
    return frozenset(edges), loops


def star(d, n):
    """Flip a diagram top to bottom (the * anti-involution on diagrams)."""
    out = []
    for e in d:
        out.append(frozenset((x + n) % (2 * n) for x in e))
    return frozenset(out)


def _throughs(d, n):
    """The through strands as (top, bottom) row positions, by top."""
    return sorted((a, b - n) for a, b in map(sorted, d) if a < n <= b)


def order_preserving_throughs(d, n):
    bots = [b for _, b in _throughs(d, n)]
    return bots == sorted(bots)


def diagram_length(n, k, d):
    """min { l(w1) + l(w2) : w1 e_(k) w2 = d } over the symmetric group,
    as the sum of pair weights of the module docstring."""
    edges = [tuple(sorted(e)) for e in d]
    if {len(e) for e in edges} != {2} or sorted(x for e in edges for x in e) != list(range(2 * n)):
        raise ValueError("diagram is not a perfect matching of 0..2n-1")
    rows = ([e for e in edges if e[1] < n], [(a - n, b - n) for a, b in edges if a >= n])
    if len(rows[0]) != k:
        raise ValueError("diagram is not of the form w1 e_(k) w2")
    th = _throughs(d, n)
    out = sum(x > y for i, (_, x) in enumerate(th) for _, y in th[i + 1:])
    for arcs, ends in zip(rows, ([a for a, _ in th], [b for _, b in th])):
        for a, b in arcs:
            out += sum(a < x < b or 2 * (x < a) for x in ends)
            out += sum(a < c < b < f or 2 * (a < c and f < b) for c, f in arcs)
    return out


def enumerate_Dkn(n, k):
    """All diagrams with top row equal to e_(k)'s and ordered throughs:
    e_(k) stacked on every permutation diagram, by (length, edges)."""
    e_k = e_k_diagram(n, k)
    out = {compose(e_k, perm_diagram(w))[0] for w in itertools.permutations(range(n))}
    out = [d for d in out if order_preserving_throughs(d, n)]
    return sorted(out, key=lambda d: (diagram_length(n, k, d), sorted(tuple(sorted(e)) for e in d)))


def normal_index_diagram(n, idx):
    """The diagram of the basis word u^{-1} . e_(k) . pi . v.

    Used as the q = 1 oracle: the map idx -> diagram is a bijection from
    the normal basis indices onto all (2n-1)!! diagrams, and no loops are
    produced along the way.
    """
    k, u, pi, v = idx
    d = star(perm_diagram(u), n)
    for other in (e_k_diagram(n, k), perm_diagram(pi), perm_diagram(v)):
        d, loops = compose(d, other)
        if loops:
            raise ValueError("unexpected loop in a basis word")
    return d


def diagram_count(n):
    """(2n-1)!! = number of diagrams on n strands."""
    out = 1
    for m in range(1, 2 * n, 2):
        out *= m
    return out

