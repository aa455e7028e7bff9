"""Hecke algebras of symmetric groups on a letter window.

H_{lo,n}(Q) is the Iwahori-Hecke algebra of the symmetric group on the
letters {lo, ..., n}, inside S_n.  Elements are dicts mapping permutations
(image tuples fixing 1..lo-1) to coefficients; the basis is {g_w}.  The
quadratic relation is g_i^2 = (Q - 1) g_i + Q, so the classical group
algebra is Q = 1 and the q-Brauer conventions take Q = q^2 (two-parameter
and N-version) or Q = q (one-parameter version).

The Murphy cellular basis c_{st} = g*_{d(s)} c_lam g_{d(t)} with
c_lam = sum of g_sigma over the row stabiliser of t^lam is provided along
with the change of basis to and from {g_w}, and the e-restrictedness test
of the classification of simple modules.  Specht module Gram matrices are
the k = 0 cell forms of :class:`qbrauer.cellular.Cellular`.

The rewrite engine of :mod:`qbrauer.qbrauer` does not use this module's
Hecke arithmetic: it keeps its own on permutation codes, through the
tables of :func:`qbrauer.symgrp.perm_table`.  Here permutations stay
tuples; reduced words are read from the same per-n table.

The transition matrix from the Murphy basis to {g_w} is sparse (1,715 of
14,400 entries are nonzero at m = 5) while its inverse is not, so it is
never inverted.  Each window factors it once by sparse exact elimination
(:class:`SparseLU`; the pivot of a column is the row with the fewest
nonzeros, lowest index first).  All Murphy coordinates of an element come
from one solve through that factorisation.  The Gram matrices need one
coordinate, (lam, t^lam, t^lam), as a functional on the window: a dual
row of the inverse, obtained by one transposed solve and kept on the
window.
"""

from __future__ import annotations

from . import symgrp as sg

__all__ = [
    "HeckeWindow",
    "SparseLU",
    "is_restricted",
]


def is_restricted(lam, e):
    """True iff lam is e-restricted: consecutive part differences < e."""
    from .coefficients import INFINITY

    if e == INFINITY:
        return True
    parts = tuple(lam) + (0,)
    return all(parts[i] - parts[i + 1] < e for i in range(len(parts) - 1))


class HeckeWindow:
    """The Hecke algebra of S_{lo..n} over a coefficient field.

    ``field`` provides zero/one/from_int; ``Q`` is the Hecke parameter.
    Elements are plain dicts {perm: coeff} with no zero values; helper
    methods keep that invariant.
    """

    def __init__(self, n, lo, field, Q):
        self.n = n
        self.lo = lo
        self.m = n - lo + 1
        self.field = field
        self.Q = Q
        self.Qm1 = Q - 1
        self.id = sg.identity(n)
        self._T = sg.perm_table(n)
        self._murphy = None
        self._pidx = None
        self._dual = {}

    # -- elements -------------------------------------------------------------

    def unit(self):
        return {self.id: self.field.one()}

    def g(self, w):
        return {w: self.field.one()}

    def add(self, x, y):
        out = dict(x)
        for w, c in y.items():
            _acc(out, w, c)
        return out

    def scale(self, x, c):
        if c.is_zero():
            return {}
        return {w: v * c for w, v in x.items()}

    def rmul_gen(self, x, i):
        """x * g_i (generator label i, must lie in the window)."""
        Q, Qm1 = self.Q, self.Qm1
        out = {}
        for w, c in x.items():
            wi = sg.rmul_gen(w, i)
            if w.index(i) < w.index(i - 1):
                # letter i+1 occurs before letter i: quadratic case
                _acc(out, w, c * Qm1)
                _acc(out, wi, c * Q)
            else:
                _acc(out, wi, c)
        return out

    def lmul_gen(self, i, x):
        """g_i * x."""
        Q, Qm1 = self.Q, self.Qm1
        out = {}
        for w, c in x.items():
            wi = sg.lmul_gen(i, w)
            if w[i - 1] > w[i]:
                _acc(out, w, c * Qm1)
                _acc(out, wi, c * Q)
            else:
                _acc(out, wi, c)
        return out

    def rmul_word(self, x, word):
        for i in word:
            x = self.rmul_gen(x, i)
        return x

    def lmul_word(self, word, x):
        for i in reversed(word):
            x = self.lmul_gen(i, x)
        return x

    def rmul_perm(self, x, w):
        return self.rmul_word(x, self._word(w))

    def _word(self, w):
        """The reduced word of w, read from the per-n permutation table."""
        return self._T.word(self._T.code[w])

    def mul(self, x, y):
        out = {}
        for w, c in y.items():
            t = self.rmul_perm(self.scale(x, c), w)
            out = self.add(out, t)
        return out

    def star(self, x):
        return {sg.inv(w): c for w, c in x.items()}

    # -- Murphy basis -----------------------------------------------------------

    def c_lambda(self, lam):
        """Sum of g_sigma over the row stabiliser of t^lam."""
        one = self.field.one()
        return {w: one for w in sg.young_subgroup(self.n, lam, self.lo)}

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
        """c_{st} = g*_{d(s)} c_lam g_{d(t)} expanded in the g basis."""
        x = self.c_lambda(lam)
        ds = sg.tableau_perm(self.n, s, self.lo)
        dt = sg.tableau_perm(self.n, t, self.lo)
        x = self.lmul_word(tuple(reversed(self._word(ds))), x)  # g*_{d(s)}
        return self.rmul_perm(x, dt)

    def murphy_data(self):
        """(labels, perm order, transition matrix, factorisation) for the window.

        Column j of the transition matrix is murphy_element(labels[j]) in
        the g-basis coordinates given by the perm order.  The factorisation
        is a :class:`SparseLU` of that matrix, made here once per window,
        and the perm -> row dict of the perm order is kept for ``to_murphy``.
        """
        if self._murphy is None:
            labels = self.murphy_labels()
            perms = sorted(sg.window_perms(self.n, self.lo))
            pidx = {w: i for i, w in enumerate(perms)}
            zero = self.field.zero()
            cols = []
            for lab in labels:
                x = self.murphy_element(*lab)
                col = [zero] * len(perms)
                for w, c in x.items():
                    col[pidx[w]] = c
                cols.append(col)
            mat = [[cols[j][i] for j in range(len(labels))] for i in range(len(perms))]
            self._murphy = (labels, perms, mat, SparseLU(mat, self.field))
            self._pidx = pidx
        return self._murphy

    def to_murphy(self, x):
        """Coordinates of x in the Murphy basis, as {(lam,s,t): coeff}."""
        labels, _, _, lu = self.murphy_data()
        pidx = self._pidx
        sol = lu.solve({pidx[w]: c for w, c in x.items()})
        return {labels[j]: sol[j] for j in sorted(sol)}

    def dual_row(self, label):
        """Row ``label`` of the inverse transition matrix as {perm: coeff}:
        the functional taking x to its Murphy coordinate at ``label``.

        It comes from one transposed solve and is kept on the window.
        """
        row = self._dual.get(label)
        if row is None:
            labels, perms, _, lu = self.murphy_data()
            dual = lu.dual_row(labels.index(label))
            row = self._dual[label] = {perms[i]: c for i, c in dual.items()}
        return row


class SparseLU:
    """Sparse exact LU factorisation of a square matrix over a field.

    Rows are dicts {column: value} holding no zeros.  Column by column, the
    pivot is the not yet used row with a nonzero entry in that column and
    the fewest nonzeros, ties going to the lowest row index, and it is
    subtracted from every other unused row with a nonzero entry there.
    ``pivots[j]`` is the row chosen for column j, ``upper[j]`` that row
    once reduced (its columns are all >= j), and ``lower[j]`` the list of
    (row, factor) subtractions made with it, so that row operations turn
    the matrix into the upper triangular one with rows ``upper``.
    Raises ArithmeticError if the matrix is singular.
    """

    def __init__(self, mat, field):
        self.field = field
        rows = [{j: v for j, v in enumerate(r) if not v.is_zero()} for r in mat]
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

    def dual_row(self, j):
        """Row j of the inverse matrix, as {index: value} holding no zeros.

        Solves y mat = e_j: first z upper = e_j by forward substitution
        over the columns, z indexed by pivot rows, then y is z times the
        row operations, taken last first.
        """
        rhs = {j: self.field.one()}  # e_j minus the terms of z found so far
        z = {}
        for col in range(j, len(self.upper)):
            s = rhs.pop(col, None)
            if s is None:
                continue
            row = self.upper[col]
            zc = s / row[col]
            z[self.pivots[col]] = zc
            for c, u in row.items():
                if c > col:
                    _acc(rhs, c, -(zc * u))
        for piv, ops in zip(reversed(self.pivots), reversed(self.lower)):
            for r, f in ops:
                c = z.get(r)
                if c is not None:
                    _acc(z, piv, -(f * c))
        return z


def _acc(out, w, c):
    """Add c to out[w], keeping no zero values."""
    if w in out:
        s = out[w] + c
        if s.is_zero():
            del out[w]
        else:
            out[w] = s
    elif not c.is_zero():
        out[w] = c
