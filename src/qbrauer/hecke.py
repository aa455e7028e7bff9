"""Hecke algebras of symmetric groups on a letter window.

H_{lo,n}(Q) is the Iwahori-Hecke algebra of the symmetric group on the
letters {lo, ..., n}, inside S_n.  Elements are dicts mapping permutation
codes (ints indexing the per-n table of :func:`qbrauer.symgrp.perm_table`)
to coefficients; the basis is {g_w}.  The quadratic relation is
g_i^2 = (Q - 1) g_i + Q, so the classical group algebra is Q = 1 and the
q-Brauer conventions take Q = q^2 (two-parameter and N-version) or Q = q
(one-parameter version).

This is the package's only Hecke arithmetic: the generator action
``rmul_gen`` reads right descents and products off that table, and a left
product is taken through the anti-involution * fixing every g_i,
g_i x = (x* g_i)* (``star``).  The rewrite engine of
:mod:`qbrauer.qbrauer`, the Gram matrices of :mod:`qbrauer.cellular` and
the Murphy basis below all call them.  They take and return the field's
internal coefficients (ints mod p over F_p, see
:mod:`qbrauer.coefficients`), so callers convert at their own boundary;
``murphy_element`` converts its result out once, and the Murphy transition
works on field values.

The Murphy cellular basis c_{st} = g*_{d(s)} c_lam g_{d(t)} with
c_lam = sum of g_sigma over the row stabiliser of t^lam is provided along
with the change of basis to and from {g_w}, and the e-restrictedness test
of the classification of simple modules.  c_lam is a product of coset
sums (``coset_sums``), which with other generator steps also pull the
Gram functional back through y_lam'.  Specht module Gram
matrices are the k = 0 cell forms of :class:`qbrauer.cellular.Cellular`.

The transition matrix from the Murphy basis to {g_w} is sparse (1,715 of
14,400 entries are nonzero at m = 5) while its inverse is not, so it is
never inverted and never stored dense.  Each window builds its rows sparse
and factors them once by exact elimination (:class:`SparseLU`; the pivot
of a column is the row with the fewest nonzeros, lowest index first).  All
Murphy coordinates of an element come from one solve through that
factorisation; it serves ``to_murphy`` and so the cellular coordinates.
The Gram matrices never build it: their functional comes from the signed
column sum y_lam', which kills every Murphy element of a shape strictly
dominating lam (see :meth:`qbrauer.cellular.Cellular._functional`).
"""

from __future__ import annotations

from . import symgrp as sg
from .coefficients import INFINITY, _acc

__all__ = [
    "HeckeWindow",
    "SparseLU",
    "is_restricted",
]


def is_restricted(lam, e):
    """True iff lam is e-restricted: consecutive part differences < e."""
    if e == INFINITY:
        return True
    parts = tuple(lam) + (0,)
    return all(parts[i] - parts[i + 1] < e for i in range(len(parts) - 1))


class HeckeWindow:
    """The Hecke algebra of S_{lo..n} over a coefficient field.

    ``field`` is a :class:`qbrauer.coefficients.Specialization`; ``Q`` is
    the Hecke parameter, a value of that field.  Elements are plain dicts
    {code: coeff} over the permutation codes of
    :func:`qbrauer.symgrp.perm_table`, with no zero values; the actions
    keep that invariant.  The generator actions and ``c_lambda`` work on
    the field's internal coefficients; ``murphy_element`` and ``to_murphy``
    on its values.
    """

    def __init__(self, n, lo, field, Q):
        self.n = n
        self.lo = lo
        self.m = n - lo + 1
        self.field = field
        self.Q = Q
        self._Q = field.inner(Q)
        self._Qm1 = field.inner(self._Q - field.inner(field.one()))
        self._acc = field.acc
        self._T = sg.perm_table(n)
        self._murphy = None

    @property
    def Qm1(self):
        """Q - 1, a value of the field."""
        return self.Q - 1

    # -- generator actions --------------------------------------------------------

    def rmul_gen(self, x, i):
        """x g_i: g_u g_i = (Q-1) g_u + Q g_{u s_i} if s_i is a right descent
        of u, and g_{u s_i} otherwise, with the terms added in that order."""
        T, acc = self._T, self._acc
        Q, Qm1 = self._Q, self._Qm1
        right, rdes, bit = T.rmul[i], T.rdes, 1 << i
        out = {}
        for u, c in x.items():
            if rdes[u] & bit:
                acc(out, u, c * Qm1)
                acc(out, right[u], c * Q)
            else:
                acc(out, right[u], c)
        return out

    def rmul_perm(self, x, w):
        """x g_w for the code w, one generator of w's reduced word at a time."""
        for i in self._T.word(w):
            x = self.rmul_gen(x, i)
        return x

    def star(self, x):
        """x* for the anti-involution fixing every g_i: g_w* = g_{w^{-1}}.
        A left product is (x* g)*, so ``rmul_gen`` is the only generator
        action."""
        inv = self._T.inv
        return {inv[w]: c for w, c in x.items()}

    # -- Murphy basis -----------------------------------------------------------

    def coset_sums(self, x, rows, step):
        """x c_lam, with ``step(x, i)`` the action of g_i and c_lam the row
        stabiliser sum of the tableau with rows ``rows``.  The sum over a row
        a..b is the product, j = a+1..b in turn, of the coset sums 1 + g_{j-1}
        + ... + g_{j-1} ... g_a of S_{a..j-1} in S_{a..j} (Dipper-James, Proc.
        London Math. Soc. 52, 1986).  Each term is a reduced word lengthening
        every g_sigma before it, so ``c_lambda`` has every coefficient 1."""
        acc = self._acc
        for row in rows:
            for j in row[1:]:
                run, total = x, dict(x)
                for i in range(j - 1, row[0] - 1, -1):
                    run = step(run, i)
                    for u, c in run.items():
                        acc(total, u, c)
                x = total
        return x

    def c_lambda(self, lam):
        """Sum of g_sigma over the row stabiliser of t^lam."""
        one = {0: self.field.inner(self.field.one())}
        return self.coset_sums(one, sg.superstandard(lam, self.lo), self.rmul_gen)

    def murphy_labels(self):
        """All (lam, s, t) in a dominance-compatible order (dominant first)."""
        labels = []
        for lam in sg.partitions(self.m):
            tabs = sg.standard_tableaux(lam, self.lo)
            for s in tabs:
                for t in tabs:
                    labels.append((lam, s, t))
        return labels

    def murphy_element(self, lam, s, t):
        """c_{st} = g*_{d(s)} c_lam g_{d(t)} expanded in the g basis, with
        g*_{d(s)} c_lam = (c_lam g_{d(s)})* as c_lam* = c_lam; in field
        values."""
        code, outer = self._T.code, self.field.outer
        x = self.c_lambda(lam)
        x = self.star(self.rmul_perm(x, code[sg.tableau_perm(self.n, s, self.lo)]))
        x = self.rmul_perm(x, code[sg.tableau_perm(self.n, t, self.lo)])
        return {w: outer(c) for w, c in x.items()}

    def murphy_data(self):
        """(labels, codes, factorisation) for the window.

        The transition matrix has rows indexed by the window's permutation
        codes, ``PermTable.window``: 0, 1, ..., m! - 1, so row w is code w.
        Column j is murphy_element(labels[j]) in those coordinates.  Its
        rows are built sparse and factored here once per window by
        :class:`SparseLU`.
        """
        if self._murphy is None:
            labels = self.murphy_labels()
            codes = self._T.window(self.lo)
            rows = [{} for _ in codes]
            for j, lab in enumerate(labels):
                for w, c in self.murphy_element(*lab).items():
                    rows[w][j] = c
            self._murphy = (labels, codes, SparseLU(rows, self.field))
        return self._murphy

    def to_murphy(self, x):
        """Coordinates of x in the Murphy basis, as {(lam,s,t): coeff};
        KeyError if x has a term off the window."""
        labels, codes, lu = self.murphy_data()
        off = [w for w in x if w not in codes]
        if off:
            raise KeyError(off[0])
        sol = lu.solve(x)
        return {labels[j]: sol[j] for j in sorted(sol)}


class SparseLU:
    """Sparse exact LU factorisation of a square matrix over a field.

    The matrix is given by its rows, dicts {column: value} holding no
    zeros, which are reduced in place.  Column by column, the pivot is the
    not yet used row with a nonzero entry in that column and the fewest
    nonzeros, ties going to the lowest row index, and it is subtracted
    from every other unused row with a nonzero entry there.
    ``pivots[j]`` is the row chosen for column j, ``upper[j]`` that row
    once reduced (its columns are all >= j), and ``lower[j]`` the list of
    (row, factor) subtractions made with it, so that row operations turn
    the matrix into the upper triangular one with rows ``upper``.
    Raises ArithmeticError if the matrix is singular.
    """

    def __init__(self, rows, field):
        self.field = field
        n = len(rows)
        incol = [set() for _ in range(n)]  # column -> unused rows with an entry
        for i, r in enumerate(rows):
            for j in r:
                incol[j].add(i)
        self.pivots, self.upper, self.lower = [], [], []
        for col in range(n):
            if not incol[col]:
                raise ArithmeticError("matrix is singular")
            piv = min(incol[col], key=lambda i: (len(rows[i]), i))
            prow = rows[piv]
            for j in prow:
                incol[j].discard(piv)
            inv = field.one() / prow[col]
            ops = []
            for r in sorted(incol[col]):
                row = rows[r]
                f = row[col] * inv
                for j, v in prow.items():
                    if j in row:
                        s = row[j] - f * v
                        if s.is_zero():
                            del row[j]
                            incol[j].discard(r)
                        else:
                            row[j] = s
                    else:
                        row[j] = -(f * v)
                        incol[j].add(r)
                ops.append((r, f))
            self.pivots.append(piv)
            self.upper.append(prow)
            self.lower.append(ops)

    def solve(self, vec):
        """x with mat x = vec, both as {index: value} holding no zeros."""
        v = dict(vec)
        for piv, ops in zip(self.pivots, self.lower):
            c = v.get(piv)
            if c is not None:
                for r, f in ops:
                    _acc(v, r, -(f * c))
        b = {col: v[p] for col, p in enumerate(self.pivots) if p in v}
        x = {}
        for col in range(len(self.upper) - 1, -1, -1):
            row = self.upper[col]
            s = b.get(col, self.field.zero())
            for j, u in row.items():
                if j != col and j in x:
                    s = s - u * x[j]
            if not s.is_zero():
                x[col] = s / row[col]
        return x

