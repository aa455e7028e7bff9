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

B_{k,n}, the tables of :class:`PermTable` and the standard tableaux are
built in closed form, the tableaux by removing the corner that holds the
largest entry, and d(t) is read off the reading word of t;
:mod:`qbrauer.brauerdiag`, the q = 1 oracle that checks B_{k,n}, is not
on this construction path.
"""

from __future__ import annotations

from functools import lru_cache
import itertools
import math
from types import MappingProxyType

__all__ = [
    "identity",
    "gen",
    "mul",
    "inv",
    "length",
    "reduced_word",
    "from_word",
    "PermTable",
    "perm_table",
    "Partition",
    "partitions",
    "dominates",
    "standard_tableaux",
    "superstandard",
    "tableau_perm",
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


class PermTable:
    """The permutations of {1, ..., n} as int codes, with their tables.

    Code c stands for ``perms[c]``; codes follow ``itertools.permutations``
    order, so the identity is code 0, and ``code`` maps a tuple back.
    For a generator label i, ``lmul[i][c]`` is the code of s_i * w and
    ``rmul[i][c]`` that of w * s_i (index 0 of both is unused).  ``inv``
    and ``length`` are per code; bit i of ``ldes[c]`` (``rdes[c]``) is set
    iff s_i is a left (right) descent of w.  No entry is searched for or
    looked up in ``code``: the digits of c in the factorial base are the
    Lehmer code of w, so its length is their sum, s_i is a left descent iff
    w[i-1] > w[i], and s_i w changes only the digits (a, b) at i-1, i, to
    (b + 1, a) if a <= b and to (b, a - 1) otherwise.  ``word(c)`` is
    ``reduced_word(perms[c])``, computed once per code.
    """

    def __init__(self, n):
        self.n = n
        self.perms = perms = tuple(itertools.permutations(range(n)))
        # the table is shared: read-only
        self.code = MappingProxyType({w: c for c, w in enumerate(perms)})
        size, fact = len(perms), [math.factorial(m) for m in range(n + 1)]
        lmul, ldes = [None], [0] * size
        for i in range(1, n):
            # s_i moves the code by the same d over each run of fb codes with
            # digits (a, b) at i-1, i, of weights fa = (n - i) fb and fb
            fb, bit = fact[n - 1 - i], 1 << i
            fa, run = fb * (n - i), []
            for a in range(n - i + 1):
                for b in range(n - i):
                    a2, b2 = (b + 1, a) if a <= b else (b, a - 1)
                    run += [(a2 - a) * fa + (b2 - b) * fb] * fb
            lmul.append(tuple([c + d for c, d in zip(range(size), run * (size // len(run)))]))
            ldes = [d | bit if w[i - 1] > w[i] else d for d, w in zip(ldes, perms)]
        self.lmul, self.ldes = lmul, ldes = tuple(lmul), tuple(ldes)
        ln = [0]
        for m in range(2, n + 1):
            ln = [q + x for q in range(m) for x in ln]
        self.length = tuple(ln)
        # for a left descent s_i of w, s_i w has the smaller code, and
        # w^{-1} = (s_i w)^{-1} s_i, a product raising only digit w[i] by one
        inv_ = [0] * size
        for c in range(1, size):
            i = (ldes[c] & -ldes[c]).bit_length() - 1
            inv_[c] = inv_[lmul[i][c]] + fact[n - 1 - perms[c][i]]
        self.inv = inv_ = tuple(inv_)
        # w s_i = (s_i w^{-1})^{-1}
        self.rmul = (None,) + tuple(
            tuple([inv_[left[ic]] for ic in inv_]) for left in lmul[1:]
        )
        # s_i is a right descent of w iff it is a left descent of w^{-1}
        self.rdes = tuple([ldes[ic] for ic in inv_])
        self._words = [None] * size

    def window(self, lo):
        """The codes of the permutations of the letters lo..n: as they fix a
        prefix, they are the first (n - lo + 1)! codes, in the same order."""
        return range(math.factorial(self.n - lo + 1))

    def word(self, c):
        """The reduced word of ``reduced_word`` for code c."""
        w = self._words[c]
        if w is None:
            w = self._words[c] = reduced_word(self.perms[c])
        return w


@lru_cache(maxsize=None)
def perm_table(n):
    """The :class:`PermTable` of S_n, built once per process."""
    return PermTable(n)


# ---------------------------------------------------------------------------
# partitions and dominance
# ---------------------------------------------------------------------------


class Partition(tuple):
    """A partition as a weakly decreasing tuple of positive parts; trailing
    zero parts are dropped, and an interior one is not weakly decreasing."""

    def __new__(cls, parts):
        if isinstance(parts, Partition):  # checked when it was made
            return parts
        parts = tuple(int(p) for p in parts)
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"not weakly decreasing: {parts}")
        if any(p < 0 for p in parts):
            raise ValueError(f"negative part: {parts}")
        return super().__new__(cls, tuple(p for p in parts if p))

    def conjugate(self):
        # the column lengths of a partition form one: built unchecked
        cols = (sum(1 for p in self if p > i) for i in range(self[0] if self else 0))
        return tuple.__new__(Partition, cols)


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


# ---------------------------------------------------------------------------
# standard tableaux on a letter window
# ---------------------------------------------------------------------------


def standard_tableaux(lam, lo=1):
    """All standard tableaux of shape lam with entries lo, lo+1, ...

    A tableau is a tuple of row tuples.  The tuple is sorted by reading
    word (the rows concatenated), so it starts with the row-reading
    superstandard tableau t^lam, whose word is the least.  Built by corner
    removal, once per process for each (lam, lo).
    """
    return _standard_tableaux(Partition(lam), lo)


@lru_cache(maxsize=None)
def _standard_tableaux(lam, lo):
    # the largest entry ends a row i longer than row i+1, a corner; the
    # other entries fill lam with that corner removed
    if not lam:
        return ((),)
    top, out = lo + sum(lam) - 1, []
    for i, p in enumerate(lam):
        if i + 1 == len(lam) or p > lam[i + 1]:
            for t in _standard_tableaux(lam[:i] + (p - 1,) * (p > 1) + lam[i + 1:], lo):
                out.append(t[:i] + ((t[i] if p > 1 else ()) + (top,),) + t[i + 1:])
    return tuple(sorted(out, key=lambda t: tuple(itertools.chain(*t))))


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
    attached to t.  As t^lam numbers the cells lo, lo+1, ... in reading
    order, d(t) sends lo+i to the i-th entry of t in that order.  Returned
    as a permutation of {1..n} fixing letters outside the window.
    """
    img = list(range(n))
    for a, b in enumerate(itertools.chain(*t), lo - 1):
        img[a] = b - 1
    return tuple(img)


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
