"""Symmetric group combinatorics: permutations, partitions and tableaux.

Permutations of {1, ..., n} are stored as 0-indexed image tuples; the
product is read left to right, so ``mul(u, v)`` applies u first and then v,
and a word s_{i_1} s_{i_2} ... multiplies in that order.  With this
convention ``g_u g_v = g_{mul(u, v)}`` in the Hecke algebra whenever
lengths add, and stacking a permutation diagram below another composes
the same way in the Brauer algebra.

Generators are labelled 1..n-1; ``s_i`` swaps the letters i and i+1.
Tableaux live on a window {lo, ..., n} of letters (lo = 2k+1 when k pairs
have been used up by the diagram part), with shape a partition of
n - lo + 1.

B_{k,n} is built in closed form; :mod:`qbrauer.brauerdiag`, the q = 1
oracle that checks it, is not on this construction path.
"""

from __future__ import annotations

from functools import lru_cache
import itertools

__all__ = [
    "identity",
    "gen",
    "mul",
    "inv",
    "length",
    "reduced_word",
    "from_word",
    "all_perms",
    "Partition",
    "partitions",
    "dominates",
    "hook_product",
    "standard_tableaux",
    "superstandard",
    "tableau_perm",
    "young_subgroup",
    "window_perms",
    "enumerate_Bkn",
]


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


def identity(n):
    return tuple(range(n))


def gen(n, i):
    """The transposition s_i of i and i+1 (1-based generator label)."""
    img = list(range(n))
    img[i - 1], img[i] = img[i], img[i - 1]
    return tuple(img)


def mul(u, v):
    """Left-to-right composition: (u * v)(m) = v(u(m))."""
    return tuple(v[x] for x in u)


def inv(u):
    img = [0] * len(u)
    for i, x in enumerate(u):
        img[x] = i
    return tuple(img)


def length(u):
    """Coxeter length: number of inversions."""
    n = len(u)
    return sum(1 for i in range(n) for j in range(i + 1, n) if u[i] > u[j])


def lmul_gen(i, u):
    """s_i * u, i.e. swap positions i, i+1 of the one-line form (1-based)."""
    img = list(u)
    img[i - 1], img[i] = img[i], img[i - 1]
    return tuple(img)


def rmul_gen(u, i):
    """u * s_i, i.e. swap the letters i, i+1 in the one-line form."""
    img = list(u)
    a, b = inv(u)[i - 1], inv(u)[i]
    img[a], img[b] = img[b], img[a]
    return tuple(img)


def reduced_word(u):
    """A reduced word (tuple of generator labels), via left descent stripping.

    The word w = (i_1, ..., i_l) satisfies u = s_{i_1} * ... * s_{i_l}.
    """
    u = list(u)
    word = []
    n = len(u)
    changed = True
    while changed:
        changed = False
        for i in range(1, n):
            if u[i - 1] > u[i]:
                word.append(i)
                u[i - 1], u[i] = u[i], u[i - 1]
                changed = True
    return tuple(word)


def from_word(n, word):
    u = identity(n)
    for i in word:
        u = mul(u, gen(n, i))
    return u


def all_perms(n):
    return [tuple(p) for p in itertools.permutations(range(n))]


# ---------------------------------------------------------------------------
# partitions, dominance, hooks
# ---------------------------------------------------------------------------


class Partition(tuple):
    """A partition as a weakly decreasing tuple of positive parts."""

    def __new__(cls, parts):
        parts = tuple(int(p) for p in parts if p)
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"not weakly decreasing: {parts}")
        if any(p < 0 for p in parts):
            raise ValueError(f"negative part: {parts}")
        return super().__new__(cls, parts)

    @property
    def size(self):
        return sum(self)

    def conjugate(self):
        if not self:
            return Partition(())
        return Partition(
            tuple(sum(1 for p in self if p > i) for i in range(self[0]))
        )

    def cells(self):
        return [(i, j) for i, p in enumerate(self) for j in range(p)]


@lru_cache(maxsize=None)
def partitions(m):
    """All partitions of m, dominance-compatible (lex descending) order."""
    if m == 0:
        return (Partition(()),)
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(Partition(prefix))
            return
        for p in range(min(maxpart, remaining), 0, -1):
            rec(remaining - p, p, prefix + (p,))

    rec(m, m, ())
    return tuple(out)


def dominates(lam, mu):
    """True iff lam dominates mu (same size required)."""
    if sum(lam) != sum(mu):
        raise ValueError("dominance needs equal sizes")
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            return False
    return True


def hook_product(lam):
    """Product of hook lengths of lam."""
    lam = Partition(lam)
    conj = lam.conjugate()
    out = 1
    for i, j in lam.cells():
        out *= lam[i] - j + conj[j] - i - 1
    return out


# ---------------------------------------------------------------------------
# standard tableaux on a letter window
# ---------------------------------------------------------------------------


def standard_tableaux(lam, lo=1):
    """All standard tableaux of shape lam with entries lo, lo+1, ...

    A tableau is a tuple of row tuples.  The list starts with the
    row-reading superstandard tableau t^lam.
    """
    lam = Partition(lam)
    m = lam.size
    if m == 0:
        return [()]
    cells = lam.cells()
    out = []

    def rec(filled, next_entry):
        if next_entry == lo + m:
            rows = []
            for i, p in enumerate(lam):
                rows.append(tuple(filled[(i, j)] for j in range(p)))
            out.append(tuple(rows))
            return
        for (i, j) in cells:
            if (i, j) in filled:
                continue
            if j > 0 and (i, j - 1) not in filled:
                continue
            if i > 0 and (i - 1, j) not in filled:
                continue
            filled[(i, j)] = next_entry
            rec(filled, next_entry + 1)
            del filled[(i, j)]

    rec({}, lo)
    out.sort(key=lambda t: tuple(itertools.chain(*t)))
    sup = superstandard(lam, lo)
    out.remove(sup)
    return [sup] + out


def superstandard(lam, lo=1):
    """The row-reading tableau t^lam (rows filled left to right, top down)."""
    lam = Partition(lam)
    rows = []
    nxt = lo
    for p in lam:
        rows.append(tuple(range(nxt, nxt + p)))
        nxt += p
    return tuple(rows)


def tableau_perm(n, t, lo=1):
    """The permutation d(t) defined by d(t)(t^lam(c)) = t(c) for all cells c.

    So t^lam . d(t) = t, and d(t) is the minimal-length coset representative
    attached to t.  Returned as a permutation of {1..n} fixing letters
    outside the window.
    """
    lam = Partition(tuple(len(row) for row in t))
    sup = superstandard(lam, lo)
    img = list(range(n))
    for rs, rt in zip(sup, t):
        for a, b in zip(rs, rt):
            img[a - 1] = b - 1
    return tuple(img)


def young_subgroup(n, lam, lo=1):
    """All permutations of the row stabiliser of t^lam inside S_{lo..n}."""
    lam = Partition(lam)
    sup = superstandard(lam, lo)
    groups = [row for row in sup if len(row) > 1]
    perms = [identity(n)]
    for row in groups:
        new = []
        for assign in itertools.permutations(row):
            base = list(range(n))
            for a, b in zip(row, assign):
                base[a - 1] = b - 1
            new.append(tuple(base))
        perms = [mul(p, q) for p in perms for q in new]
    return perms


def window_perms(n, lo):
    """All permutations of {1..n} fixing 1..lo-1 pointwise."""
    fixed = list(range(lo - 1))
    rest = list(range(lo - 1, n))
    return [tuple(fixed + list(p)) for p in itertools.permutations(rest)]


# ---------------------------------------------------------------------------
# the coset representatives B_{k,n}
# ---------------------------------------------------------------------------


def _matchings(points):
    """All perfect matchings of an increasing tuple, as lists of arcs (a, b)."""
    if not points:
        yield []
        return
    for j in range(1, len(points)):
        for rest in _matchings(points[1:j] + points[j + 1:]):
            yield [(points[0], points[j])] + rest


def enumerate_Bkn(n, k):
    """The representatives B_{k,n}, sorted by (length, one-line form).

    v in B_{k,n} is the minimal-length permutation whose diagram e_(k) * v
    has a given set of k bottom arcs {v(2i-2), v(2i-1)}, with its through
    strands (top 2k+j to v(2k+j)) in order.  For each set of k disjoint
    arcs (a, b), a < b, on 0..n-1, v lists the arcs by increasing b, each
    as a then b, then the free points in increasing order.

    Minimality: arc entries precede free ones in every v with the same
    diagram, so those inversions are fixed, and a then b costs none.  Of
    two arcs, the one with the smaller b first gives 0 inversions when
    they are disjoint and 1 (against 3) when they interleave.  Nested
    arcs give 2 either way; there the descending-run normal form
    t_2 t_4 ... t_{2k} t_{2k+1} ... t_{n-1} of B_{k,n} keeps the inner
    arc first, as "smaller b first" does.
    """
    out = []
    for ends in itertools.combinations(range(n), 2 * k):
        free = [x for x in range(n) if x not in ends]
        for arcs in _matchings(ends):
            arcs.sort(key=lambda ab: ab[1])
            out.append(tuple(itertools.chain(*arcs, free)))
    out.sort(key=lambda w: (length(w), w))
    return out
