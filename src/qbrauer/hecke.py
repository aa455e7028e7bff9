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
"""

from __future__ import annotations

from . import symgrp as sg

__all__ = [
    "HeckeWindow",
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
        self.Qinv = field.one() / Q
        self.id = sg.identity(n)
        self._murphy = None

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
        out = {}
        for w, c in x.items():
            wi = sg.rmul_gen(w, i)
            if sg.inv(w)[i] < sg.inv(w)[i - 1]:
                # letter i+1 occurs before letter i: quadratic case
                _acc(out, w, c * (self.Q - 1))
                _acc(out, wi, c * self.Q)
            else:
                _acc(out, wi, c)
        return out

    def lmul_gen(self, i, x):
        """g_i * x."""
        out = {}
        for w, c in x.items():
            wi = sg.lmul_gen(i, w)
            if w[i - 1] > w[i]:
                _acc(out, w, c * (self.Q - 1))
                _acc(out, wi, c * self.Q)
            else:
                _acc(out, wi, c)
        return out

    def rmul_gen_inv(self, x, i):
        """x * g_i^{-1} = x * (Q^{-1} g_i + (Q^{-1} - 1))."""
        out = self.scale(self.rmul_gen(x, i), self.Qinv)
        return self.add(out, self.scale(x, self.Qinv - self.field.one()))

    def rmul_word(self, x, word):
        for i in word:
            x = self.rmul_gen(x, i)
        return x

    def lmul_word(self, word, x):
        for i in reversed(word):
            x = self.lmul_gen(i, x)
        return x

    def rmul_perm(self, x, w):
        return self.rmul_word(x, sg.reduced_word(w))

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
        x = self.lmul_word(tuple(reversed(sg.reduced_word(ds))), x)  # g*_{d(s)}
        return self.rmul_perm(x, dt)

    def murphy_data(self):
        """(labels, perm order, transition matrix, inverse) for the window.

        Column j of the transition matrix is murphy_element(labels[j]) in
        the g-basis coordinates given by the perm order.
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
            inv = _mat_inv(mat, self.field)
            self._murphy = (labels, perms, mat, inv)
        return self._murphy

    def to_murphy(self, x):
        """Coordinates of x in the Murphy basis, as {(lam,s,t): coeff}."""
        labels, perms, _, inv = self.murphy_data()
        pidx = {w: i for i, w in enumerate(perms)}
        vec = [self.field.zero()] * len(perms)
        for w, c in x.items():
            vec[pidx[w]] = c
        out = {}
        for i, lab in enumerate(labels):
            c = self.field.zero()
            for j, v in enumerate(vec):
                if not v.is_zero():
                    c = c + inv[i][j] * v
            if not c.is_zero():
                out[lab] = c
        return out


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


def _mat_inv(mat, field):
    """Exact Gauss-Jordan inverse over a field."""
    n = len(mat)
    a = [list(row) + [field.one() if i == j else field.zero() for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
        if piv is None:
            raise ArithmeticError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = field.one() / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and not a[r][col].is_zero():
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]
