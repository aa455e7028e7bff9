"""Brauer diagrams and the classical diagram algebra D_n(x).

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

The length of a diagram w1 e_(k) w2 is the least l(w1) + l(w2) over all
ways to write it; the table of lengths is built by breadth-first search
from e_(k) under the left and right generator actions.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = [
    "perm_diagram",
    "e_k_diagram",
    "compose",
    "star",
    "order_preserving_throughs",
    "diagram_length",
    "enumerate_Dkn",
    "DiagElement",
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

    def link(a, b):
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)

    for e in d1:
        a, b = tuple(e)
        link(a, b)
    for e in d2:
        a, b = tuple(e)
        link(a + n, b + n)

    edges = set()
    loops = 0
    seen = set()
    endpoints = [v for v in range(3 * n) if v < n or v >= 2 * n]
    for start in endpoints:
        if start in seen:
            continue
        # walk the path from this boundary vertex
        prev, cur = None, start
        seen.add(cur)
        while True:
            nxts = [x for x in adj[cur] if x != prev]
            if not nxts and prev is not None:
                raise AssertionError("broken matching")
            nxt = nxts[0] if nxts else adj[cur][0]
            prev, cur = cur, nxt
            seen.add(cur)
            if cur < n or cur >= 2 * n:
                break
        a = start if start < n else start - n
        b = cur if cur < n else cur - n
        edges.add(frozenset((a, b)))
    for v in range(n, 2 * n):
        if v in seen:
            continue
        # trace a closed loop in the middle row
        loops += 1
        prev, cur = None, v
        seen.add(cur)
        while True:
            nxts = [x for x in adj[cur] if x != prev]
            nxt = nxts[0] if nxts else adj[cur][0]
            prev, cur = cur, nxt
            if cur == v:
                break
            seen.add(cur)
    return frozenset(edges), loops


def star(d, n):
    """Flip a diagram top to bottom (the * anti-involution on diagrams)."""
    out = []
    for e in d:
        out.append(frozenset((x + n) % (2 * n) for x in e))
    return frozenset(out)


def _through_map(d, n):
    """The partial map top -> bottom given by the through strands."""
    out = {}
    for e in d:
        a, b = sorted(e)
        if a < n <= b:
            out[a + 1] = b - n + 1
    return out


def order_preserving_throughs(d, n):
    th = _through_map(d, n)
    tops = sorted(th)
    bots = [th[t] for t in tops]
    return bots == sorted(bots)


@lru_cache(maxsize=None)
def _length_table(n, k):
    """Map each diagram omega1 e_(k) omega2 to its minimal word length.

    Breadth-first search from e_(k).  Stacking s_i above a diagram swaps
    its top vertices i-1 and i; stacking it below swaps its bottom
    vertices n+i-1 and n+i.  Neither closes a loop, so a path of m steps
    reaches w1 e_(k) w2 with l(w1) + l(w2) <= m, and reduced words for w1
    and w2 give a path of exactly l(w1) + l(w2) steps.  The first visit
    to a diagram is therefore at min l(w1) + l(w2).
    """
    swaps = [(i - 1, i) for i in range(1, n)]
    swaps += [(n + i - 1, n + i) for i in range(1, n)]
    start = e_k_diagram(n, k)
    table = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for d in frontier:
            l = table[d] + 1
            for a, b in swaps:
                t = {a: b, b: a}
                d2 = frozenset(frozenset(t.get(x, x) for x in e) for e in d)
                if d2 not in table:
                    table[d2] = l
                    nxt.append(d2)
        frontier = nxt
    return table


def diagram_length(n, k, d):
    """min { l(w1) + l(w2) : w1 e_(k) w2 = d } over the symmetric group."""
    table = _length_table(n, k)
    if d not in table:
        raise ValueError("diagram is not of the form w1 e_(k) w2")
    return table[d]


def enumerate_Dkn(n, k):
    """All diagrams with top row equal to e_(k)'s and ordered throughs."""
    table = _length_table(n, k)
    e_top = {frozenset((2 * i, 2 * i + 1)) for i in range(k)}
    out = []
    for d in table:
        top = {e for e in d if max(e) < n}
        if top == e_top and order_preserving_throughs(d, n):
            out.append(d)
    out.sort(key=lambda d: (table[d], sorted(tuple(sorted(e)) for e in d)))
    return out


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


class DiagElement:
    """An element of the diagram algebra D_n(x) over a coefficient field.

    ``x`` is the loop parameter (a coefficient), supplied at construction;
    coefficients must support +, *, is_zero.
    """

    __slots__ = ("n", "x", "terms")

    def __init__(self, n, x, terms=None):
        self.n = n
        self.x = x
        self.terms = {d: c for d, c in (terms or {}).items() if not c.is_zero()}

    @classmethod
    def from_diagram(cls, n, x, d, one):
        return cls(n, x, {d: one})

    def __add__(self, other):
        out = dict(self.terms)
        for d, c in other.terms.items():
            out[d] = out[d] + c if d in out else c
        return DiagElement(self.n, self.x, out)

    def __mul__(self, other):
        out = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                d, loops = compose(d1, d2)
                c = c1 * c2
                for _ in range(loops):
                    c = c * self.x
                out[d] = out[d] + c if d in out else c
        return DiagElement(self.n, self.x, out)

    def scale(self, c):
        return DiagElement(self.n, self.x, {d: v * c for d, v in self.terms.items()})

    def star(self):
        return DiagElement(
            self.n, self.x, {star(d, self.n): c for d, c in self.terms.items()}
        )

    def __eq__(self, other):
        return (
            isinstance(other, DiagElement)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"DiagElement({self.terms!r})"
