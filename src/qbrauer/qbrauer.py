"""The q-Brauer algebra: normal basis, exact products and verification.

Br_n is generated by Hecke generators g_1, ..., g_{n-1} with
g_i^2 = (Q - 1) g_i + Q and an extra idempotent-like element e subject to

    e^2 = a e,
    e g_1 = g_1 e = Q e,      e g_i = g_i e          (i > 2),
    e g_2 e = b e,            e g_2^{-1} e = b' e,
    g_2 g_3 g_1^{-1} g_2^{-1} e_(2) = e_(2) g_2 g_3 g_1^{-1} g_2^{-1},

where e_(k+1) = e g_2 ... g_{2k+1} g_1^{-1} ... g_{2k}^{-1} e_(k) and
e_(1) = e.  The scalar b' is determined by the others,
b' = Q^{-1} b + (Q^{-1} - 1) a, because g_2^{-1} expands in the Hecke
algebra.  The three Hecke-type versions are one family: a version with
map (x, y, c) in ``VERSION_MAPS`` has

    Q = x,   a = c (y - 1)/(x - 1),   b = c y,

the one_param scalars at q -> x, r -> y with e rescaled by c (c e
satisfies the relations with a and b multiplied by c, and e_(k) becomes
c^k e_(k)).

    version     (x, y, c)           Q       a                            b
    one_param   (q, r, 1)           q       (r - 1)/(q - 1)              r
    two_param   (q^2, r^2, q/r)     q^2     (r - r^{-1})/(q - q^{-1})    rq
    n_version   (q^2, q^{2N}, 1)    q^2     (q^{2N} - 1)/(q^2 - 1)       q^{2N}

At q = 1 n_version is the Brauer algebra with loop parameter N.  The
fourth version, classical, has Q = 1, a = x (a free symbol, stored in the
r slot) and b = 1: the Brauer diagram algebra itself, used as an
independent oracle for the q = 1 degeneration.

Elements are dicts mapping normal basis indices (k, u, pi, v) to nonzero
coefficients, where the index stands for g_{u^{-1}} e_(k) g_pi g_v with
u, v in B_{k,n} and pi a permutation of the letters 2k+1, ..., n.  The
rank is sum_k |B_{k,n}|^2 (n-2k)!.

Products are computed by an exact straightening algorithm.  Intermediate
terms are triples (A, k, w) standing for g_A e_(k) g_w, with A and w
permutation codes: ints indexing the per-n table of
:func:`qbrauer.symgrp.perm_table` (generator actions, inverses, lengths,
descents and reduced words), so the engine does no tuple arithmetic and
its memos are keyed by codes; normal basis indices are tuples only at the
API.  ``mul`` pushes the states of x through the prefix tree of y's
generator words, a generator atom acting on the w of every state in one
pass, and normalises each distinct leaf state once; a word acting on the
left is taken as (states* word*)* through the involution, and every other
Hecke product goes through the algebra's
:class:`qbrauer.hecke.HeckeWindow` on all n letters, ``hecke``.
Coefficients are the field's internal values (ints in [0, p) over F_p,
the field values themselves otherwise; see :mod:`qbrauer.coefficients`)
in every state dict and memo: ``mul`` and ``star`` convert in at entry and
out at exit, the engine's scalars (Q, a, b, Q^{-1}, Q - 1, Q^{-1} - 1,
Q^2 and Q(Q-1)) are converted once per algebra, and every sum goes
through the field's accumulate step.  The public scalars ``Q``, ``a``,
``b``, ``bprime`` and ``Qinv`` are field values;
``QBrAlgebra.over_parameters`` takes Q, Q^{-1}, a and b as indeterminates
instead, so that its products specialise.  The scalars of each version
and B_{k,n} with its coset representatives are built once per process.
Two rewriting routines do the work:

* e_(k) g_x is straightened onto the normal indices by reducing x to the
  minimal length representative of its coset H_k x, where H_k is the
  stabiliser of the e_(k) diagram, generated by s_1, s_3, ..., s_{2k-1}
  and the block swaps p_j = s_{2j} s_{2j-1} s_{2j+1} s_{2j}.  Odd
  generators come at a factor Q; a block swap of two separated blocks
  expands through e_(k) g_{p_j} = (Q-1) e_(k) g_{2j} g_{2j+1} g_{2j}
  + Q(Q-1) e_(k) g_{2j} + Q^2 e_(k); a swap of interleaved blocks uses
  e_(k) g_{2j} g_{2j-1} = e_(k) g_{2j} g_{2j+1}.  Every step strictly
  decreases the Coxeter length, so this terminates.
* e_(k) g_w e is rewritten by stripping generators that commute with or
  are absorbed into the idempotents until w is a core element, valued by
  its row of ``_CORES``; with no row, a level-1 core raises, and a higher
  one shifts the level down through the recursion of e_(k) in e_(k-1).

The amount of rewriting per product call, over all of y's words, and per
``straighten`` call is capped (``star`` relabels indices and does none);
the limit is read from the environment variable QBR_MAX_REWRITE_STEPS
(default 10^6), and exceeding it raises RewriteBudgetExceeded.  A
reduction reaching a state no rule applies to raises
InternalInconsistency; this is checked, never assumed.
"""

from __future__ import annotations

import math
import os
from functools import cached_property, lru_cache

from . import symgrp as sg
from .coefficients import ParamPoly, RatFunc, Specialization, _acc
from .hecke import HeckeWindow

__all__ = [
    "QBrAlgebra",
    "version_map",
    "version_scalars",
    "RewriteBudgetExceeded",
    "InternalInconsistency",
    "max_rewrite_steps",
]

DEFAULT_MAX_REWRITE_STEPS = 10**6

# symgrp.perm_table(n) holds all n! permutations, so each step past 9
# multiplies the build time and memory of QBrAlgebra(n) by n
MAX_N = 9


def max_rewrite_steps():
    """The step budget per product from QBR_MAX_REWRITE_STEPS.

    Raises ValueError unless the variable is unset or an integer >= 1.
    """
    text = os.environ.get("QBR_MAX_REWRITE_STEPS")
    if text is None:
        return DEFAULT_MAX_REWRITE_STEPS
    try:
        steps = int(text)
    except ValueError:
        steps = 0
    if steps < 1:
        raise ValueError(f"QBR_MAX_REWRITE_STEPS must be an integer >= 1, not {text!r}")
    return steps


# (x, y, c) of each Hecke-type version, from (q, r, N)
VERSION_MAPS = {
    "one_param": lambda q, r, N: (q, r, 1),
    "two_param": lambda q, r, N: (q * q, r * r, q / r),
    "n_version": lambda q, r, N: (q * q, q ** (2 * N), 1),
}


class RewriteBudgetExceeded(RuntimeError):
    """The straightening step budget was exhausted."""


class InternalInconsistency(RuntimeError):
    """A rewriting state arose that no reduction rule covers."""


def version_scalars(version, N=None):
    """The defining scalars {Q, a, b, bprime} as rational functions.

    ``bprime`` is always computed from the identity
    b' = Q^{-1} b + (Q^{-1} - 1) a rather than stored, so the returned
    scalars are consistent by construction.  They are built once per
    process; each call returns a fresh dict.
    """
    return dict(_version_scalars(version, N))


def version_map(version, N=None):
    """(x, y, c) of a Hecke-type version as rational functions (see the
    module docstring); ValueError for classical or an unknown version."""
    if version not in VERSION_MAPS:
        raise ValueError(f"unknown version {version!r}")
    if version == "n_version" and not N:
        raise ValueError("n_version needs a nonzero integer N")
    return VERSION_MAPS[version](RatFunc.q(), RatFunc.r(), N)


@lru_cache(maxsize=None)
def _version_scalars(version, N):
    if version == "classical":
        one = RatFunc.from_int(1)
        Q, a, b = one, RatFunc.r(), one
    else:
        x, y, c = version_map(version, N)
        Q, a, b = x, c * (y - 1) / (x - 1), c * y
    bprime = b / Q + (1 / Q - 1) * a
    return {"Q": Q, "a": a, "b": b, "bprime": bprime}


# The cores e_(k) g_w e: (k, one-line form of w) -> their terms
# Q^i (Q-1)^j b^l e_(k3) g_w3 as (i, j, l, k3, w3), in order of addition
_CORES = {
    (1, (0, 2, 1)): ((0, 0, 1, 1, ()),),  # s_2: the relation e g_2 e = b e
    # z_2 = s_2 s_1 s_3 s_2: expanding e_(2) = e g_2 g_3 g_1^{-1} g_2^{-1} e
    (1, (2, 3, 0, 1)): ((1, 1, 1, 1, (0, 1, 3, 2)), (1, 1, 1, 1, ()), (2, 0, 0, 2, ())),
}


@lru_cache(maxsize=None)
def _cosets(n):
    """B_{k,n} for every level k, the minimal H_k-coset representatives,
    and the rows of ``_CORES`` that fit in n letters, on codes, with the
    letters past those of w and w3 fixed.

    The second item maps, per level k, the code of each representative
    pi * v to the codes (pi, v), for pi a permutation of the letters
    2k+1..n and v in B_{k,n}; both length additivity and the coset count
    n!/(2^k k!) are asserted.  Built once per process.
    """
    T = sg.perm_table(n)
    code, ln = T.code, T.length
    bkn, minrep = [], []
    for k in range(n // 2 + 1):
        bk = tuple(sg.enumerate_Bkn(n, k))
        vcodes = [(v, code[v]) for v in bk]
        table = {}
        for p in T.window(2 * k + 1):
            for v, vc in vcodes:
                x = code[sg.mul(T.perms[p], v)]
                assert ln[x] == ln[p] + ln[vc], "lengths must add in pi * v"
                assert x not in table, "coset representatives must be distinct"
                table[x] = (p, vc)
        expect = math.factorial(n) // (2**k * math.factorial(k))
        assert len(table) == expect, "wrong number of coset representatives"
        bkn.append(bk)
        minrep.append(table)
    tail = tuple(range(n))
    cores = {
        (k, code[w + tail[len(w):]]): tuple((i, j, l, k3, code[w3 + tail[len(w3):]]) for i, j, l, k3, w3 in terms)
        for (k, w), terms in _CORES.items() if len(w) <= n
    }
    return tuple(bkn), tuple(minrep), cores


class QBrAlgebra:
    """Br_n over a coefficient field given by a Specialization."""

    def __init__(self, n, version="two_param", spec=None, N=None):
        if not 2 <= n <= MAX_N:
            raise ValueError(f"n must be in 2..{MAX_N}")
        self.version = version
        self.N = N
        self.spec = spec if spec is not None else Specialization.generic()
        sc = _version_scalars(version, N)
        Q = self.spec(sc["Q"])
        self._setup(n, self.spec, Q, self.spec.one() / Q, self.spec(sc["a"]), self.spec(sc["b"]))

    @classmethod
    def over_parameters(cls, n):
        """Br_n with Q, Q^{-1}, a and b the indeterminates of the parameter
        ring Z[Q^{±1}, a, b] (:class:`qbrauer.coefficients.ParamPoly`): its
        products specialise to every algebra of size n.  It has no version."""
        alg = cls.__new__(cls)
        alg.version = alg.N = alg.spec = None
        R = ParamPoly
        alg._setup(n, R, R.Q, R.Qinv, R.a, R.b)
        return alg

    @cached_property
    def bprime(self):
        """b' = Q^{-1} b + (Q^{-1} - 1) a, evaluated on first use: only
        ``verify_relations`` reads it."""
        return self.Qinv * self.b + (self.Qinv - 1) * self.a

    def _setup(self, n, field, Q, Qinv, a, b):
        """The field and its scalars Q, Q^{-1}, a and b, the engine's
        constants in the field's internal form, the tables and the memos."""
        self.n = n
        self.field = field
        self.Q, self.Qinv, self.a, self.b = Q, Qinv, a, b
        self.hecke = HeckeWindow(n, 1, field, Q)
        # the engine's constants, derived in the internal form (ints mod p
        # over F_p), each reduced by ``inner``
        inner = field.inner
        Q, Qinv, a, b, one = map(inner, (Q, Qinv, a, b, field.one()))
        Qm1 = inner(Q - one)
        self._acc, self._scale = field.acc, field.scale
        self._one, self._Q, self._a, self._b, self._Qinv, self._Qm1 = one, Q, a, b, Qinv, Qm1
        self._Qinvm1, self._QQ, self._QQm1 = inner(Qinv - one), inner(Q * Q), inner(Q * Qm1)
        self.id = sg.identity(n)
        self.max_steps = max_rewrite_steps()
        self._steps = 0

        # the engine works on permutation codes (code 0 is the identity)
        self._T = sg.perm_table(n)
        self.Bkn, self._minrep, self._cores = _cosets(n)

        self._red_memo = {}
        self._red_stack = set()
        self._emul_memo = {}
        self._lefte_memo = {}  # always empty: only the bench tracer's memo count reads it
        self._norm_memo = {}
        self._emul_stack = set()

    # -- tables ---------------------------------------------------------------

    def basis_indices(self):
        """All normal basis indices (k, u, pi, v), level by level."""
        out = []
        for k in range(self.n // 2 + 1):
            ws = [self._T.perms[p] for p in self._T.window(2 * k + 1)]
            for u in self.Bkn[k]:
                for pi in ws:
                    for v in self.Bkn[k]:
                        out.append((k, u, pi, v))
        return out

    def dim(self):
        n = self.n
        return sum(
            len(self.Bkn[k]) ** 2 * math.factorial(n - 2 * k)
            for k in range(n // 2 + 1)
        )

    # -- elements ---------------------------------------------------------------

    def zero(self):
        return {}

    def one(self):
        return {(0, self.id, self.id, self.id): self.field.one()}

    def g(self, i):
        return {(0, self.id, sg.gen(self.n, i), self.id): self.field.one()}

    def g_inv(self, i):
        return self.add(
            self.scale(self.g(i), self.Qinv),
            self.scale(self.one(), self.Qinv - 1),
        )

    def e_k(self, k):
        return {(k, self.id, self.id, self.id): self.field.one()}

    def add(self, x, y):
        out = dict(x)
        for idx, c in y.items():
            _acc(out, idx, c)
        return out

    def scale(self, x, c):
        if c.is_zero():
            return {}
        return {idx: v * c for idx, v in x.items()}

    def check_index(self, idx):
        """idx as (k, u, pi, v); ValueError unless it is a normal basis
        index: u, v in B_{k,n} and pi a permutation fixing the letters 1..2k."""
        try:
            k, u, pi, v = idx
            Bk = self.Bkn[k] if k in range(len(self.Bkn)) else ()
            ok = u in Bk and v in Bk and pi in self._T.code and pi[:2 * k] == self.id[:2 * k]
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ValueError(f"{idx!r} is not a normal basis index for n = {self.n}")
        return k, u, pi, v

    def star(self, x):
        """The involution fixing e and every g_i, reversing products: as
        g_{pi^{-1}} g_u = g_{pi^{-1} u} (lengths add, ``_cosets``), it is the
        relabelling (k, u, pi, v) -> (k, v, pi^{-1}, u) of the normal indices
        that ``check_index`` accepts, with no rewriting."""
        f, out = self.field, {}
        for idx, c in x.items():
            k, u, pi, v = self.check_index(idx)
            self._acc(out, (k, v, sg.inv(pi), u), f.inner(c))
        return {idx: f.outer(c) for idx, c in out.items()}

    def mul(self, x, y):
        """The product x y in the normal basis.

        Each term of y is a generator word (``_index_atoms``).  Taken in
        sorted order the words form a prefix tree, and the states of x are
        pushed through each edge of that tree once: ``path[d]`` holds the
        states after the first d atoms of the current word, and only the
        states on the current path are kept.  The leaf states of all words,
        times their terms' coefficients, are summed into one dict, and each
        distinct state is normalised once.  The rewrite budget counts the
        steps of the whole call.  The coefficients are converted into the
        field's internal form on entry and out of it on exit.
        """
        if not x or not y:
            return {}
        self._steps = 0
        code, inv = self._T.code, self._T.inv
        f, acc = self.field, self._acc
        xstates = {}
        for (k, u, pi, v), c in x.items():
            acc(xstates, (inv[code[u]], k, code[sg.mul(pi, v)]), f.inner(c))
        words = sorted(
            ((self._index_atoms(idx2), f.inner(cy)) for idx2, cy in y.items()),
            key=lambda t: t[0],
        )
        leaves = {}
        path = [xstates]
        prev = []
        for word, cy in words:
            d = 0
            while d < len(prev) and d < len(word) and prev[d] == word[d]:
                d += 1
            del path[d + 1:]
            for atom in word[d:]:
                path.append(self._apply_atom(path[-1], atom))
            for s, c in path[-1].items():
                acc(leaves, s, c * cy)
            prev = word
        out = {}
        for s, c in leaves.items():
            for idx, cn in self._normalize(*s).items():
                acc(out, idx, c * cn)
        return {idx: f.outer(c) for idx, c in out.items()}

    def straighten(self, k, helt):
        """e_(k) h for h = {code: coeff} in the Hecke algebra on all n
        letters, as {(pi, v): coeff} over the pairs of codes with
        e_(k) g_pi g_v a normal index: pi a permutation of the letters
        2k+1..n and v in B_{k,n}.  Each g_w is straightened through the
        memoised minimal coset representatives of ``_red``; the rewrite
        budget counts the steps of the whole call, as for ``mul``.  The
        coefficients are internal, as in the Hecke actions.
        """
        self._steps = 0
        out, acc, minrep = {}, self._acc, self._minrep[k]
        for w, c in helt.items():
            for r, cr in self._red(k, w).items():
                acc(out, minrep[r], c * cr)
        return out

    def _index_atoms(self, idx):
        k, u, pi, v = idx
        T = self._T
        code = T.code
        atoms = [("g", i) for i in T.word(T.inv[code[u]])]
        atoms += self._ek_atoms(k)
        atoms += [("g", i) for i in T.word(code[pi])]
        atoms += [("g", i) for i in T.word(code[v])]
        return atoms

    def _ek_atoms(self, k):
        """The atoms of e_(k) = e g_2 ... g_{2k-1} g_1^{-1} ... g_{2k-2}^{-1}
        e_(k-1); the first 4k - 3 are the level shift of ``_emul_compute``."""
        if k == 0:
            return []
        atoms = [("E",)]
        atoms += [("g", i) for i in range(2, 2 * k)]
        atoms += [("gi", i) for i in range(1, 2 * k - 1)]
        return atoms + self._ek_atoms(k - 1)

    # -- state folding -----------------------------------------------------------

    def _tick(self, steps=1):
        self._steps += steps
        if self._steps > self.max_steps:
            raise RewriteBudgetExceeded(
                f"more than {self.max_steps} rewriting steps; "
                "raise QBR_MAX_REWRITE_STEPS to continue"
            )

    def _apply_atom(self, states, atom):
        """The states times one atom of a word, one rewrite step per state;
        the E atom is g_A (e_(k) g_w e) through ``_emul`` at every level."""
        if atom[0] != "E":
            self._tick(len(states))
            return self._rmul_gen_states(states, atom[1], atom[0] == "gi")
        out, acc = {}, self._acc
        for (A, k, w), c in states.items():
            self._tick()
            for (B, k3, w3), ce in self._emul(k, w).items():
                for C, cc in self.hecke.rmul_perm({A: ce}, B).items():
                    acc(out, (C, k3, w3), c * cc)
        return out

    def _rmul_gen_states(self, states, i, inverse=False):
        """states g_i, or states g_i^{-1}, acting on the w of each (A, k, w).

        If s_i is a right descent of w, g_w g_i = (Q-1) g_w + Q g_{w s_i}
        and g_w g_i^{-1} = g_{w s_i}; otherwise g_w g_i = g_{w s_i} and
        g_w g_i^{-1} = Q^{-1} g_{w s_i} + (Q^{-1}-1) g_w.  Terms are added
        in that order: it decides which memo entries a product that raises
        has filled, and so the steps of later products.
        """
        Q, Qm1, Qinv, Qinvm1 = self._Q, self._Qm1, self._Qinv, self._Qinvm1
        T, acc = self._T, self._acc
        right, rdes, bit = T.rmul[i], T.rdes, 1 << i
        out = {}
        for (A, k, w), c in states.items():
            wi = right[w]
            if bool(rdes[w] & bit) == inverse:
                acc(out, (A, k, wi), c)
            elif inverse:
                acc(out, (A, k, wi), c * Qinv)
                acc(out, (A, k, w), c * Qinvm1)
            else:
                acc(out, (A, k, w), c * Qm1)
                acc(out, (A, k, wi), c * Q)
        return out

    def _lmul(self, word, states):
        """word states, for a list of atoms, as (states* word*)*: the involution
        fixes e and every g_i^{+-1}, so ``_apply_atom`` is the only action."""
        states = self._star_states(states)
        for atom in reversed(word):
            states = self._apply_atom(states, atom)
        return self._star_states(states)

    def _star_states(self, states):
        """The involution g_A e_(k) g_w -> g_{w^{-1}} e_(k) g_{A^{-1}} on states."""
        inv = self._T.inv
        return {(inv[w], k, inv[A]): c for (A, k, w), c in states.items()}

    # -- e_(k) g_w e -------------------------------------------------------------

    def _emul(self, k, w):
        """e_(k) g_w e as states (A, k3, w3) standing for g_A e_(k3) g_w3; at
        k = 0, where e_(0) = 1, the one state (w, 1, 0).  The E atom of
        ``_apply_atom`` takes it at every level, level 0 included."""
        return self._memoised(
            self._emul_memo, self._emul_stack, self._emul_compute,
            "rewriting cycle at e_({}) g_{} e", k, w,
        )

    def _emul_compute(self, k, w):
        self._tick()
        n, T = self.n, self._T
        if k == 0:
            return {(w, 1, 0): self._one}
        if w == 0:
            # e_(k) e = a e_(k), the level-one case of e_(j) e_(k) = a^j e_(k)
            return {(0, k, 0): self._a}
        if w not in self._minrep[k]:
            # straighten e_(k) g_w over minimal coset representatives first,
            # so the core analysis below only ever sees those
            out, acc = {}, self._acc
            for x, c in self._red(k, w).items():
                for s, cs in self._emul(k, x).items():
                    acc(out, s, c * cs)
            return out
        # commute generators on the left of g_w: w is a minimal coset
        # representative, so no s_i below 2k+1 that e_(k) absorbs is a left
        # descent, and g_i with i >= 2k+1 commutes with e_(k)
        ldes = T.ldes[w]
        for i in range(2 * k + 1, n):
            if ldes >> i & 1:
                return self._lmul([("g", i)], self._emul(k, T.lmul[i][w]))
        # absorb or commute generators on the right of g_w against e
        rdes = T.rdes[w]
        for j in range(1, n):
            if rdes >> j & 1:
                if j == 1:
                    return self._scale(self._emul(k, T.rmul[1][w]), self._Q)
                if j >= 3:
                    return self._rmul_gen_states(self._emul(k, T.rmul[j][w]), j)
        # core elements: left descents even and <= 2k, right descents = {2};
        # the _emul memo keeps their terms (acc drops (Q-1) terms at Q = 1)
        core = self._cores.get((k, w))
        if core is not None:
            out, inner, Q, Qm1, b = {}, self.field.inner, self._Q, self._Qm1, self._b
            for i, j, l, k3, w3 in core:
                self._acc(out, (0, k3, w3), inner(Q**i * Qm1**j * b**l))
            return out
        if k == 1:
            raise InternalInconsistency(f"unexpected level-1 core {T.perms[w]}")
        # shift the level down through e_(k) = (head of _ek_atoms(k)) e_(k-1)
        return self._lmul(self._ek_atoms(k)[:4 * k - 3], self._emul(k - 1, w))

    # -- e_(k) g_x straightening ---------------------------------------------------

    def _red(self, k, x):
        """e_(k) g_x as {r: coeff} over the codes r of minimal representatives."""
        return self._memoised(
            self._red_memo, self._red_stack, self._red_compute,
            "straightening cycle at e_({}) g_{}", k, x,
        )

    def _memoised(self, memo, stack, compute, message, k, x):
        """compute(k, x) once per key, memoised; a key reached again while
        it is being computed raises InternalInconsistency with ``message``
        filled in with k and the permutation of the code x."""
        key = (k, x)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if key in stack:
            raise InternalInconsistency(message.format(k, self._T.perms[x]))
        stack.add(key)
        try:
            out = compute(k, x)
        finally:
            stack.discard(key)
        memo[key] = out
        return out

    def _swap_blocks(self, j, x):
        """The code of p_j x, with p_j = s_{2j} s_{2j-1} s_{2j+1} s_{2j}."""
        lmul = self._T.lmul
        return lmul[2 * j][lmul[2 * j - 1][lmul[2 * j + 1][lmul[2 * j][x]]]]

    def _red_compute(self, k, x):
        self._tick()
        T = self._T
        if x in self._minrep[k]:
            return {x: self._one}
        for i in range(1, 2 * k, 2):
            if T.ldes[x] >> i & 1:
                return self._scale(self._red(k, T.lmul[i][x]), self._Q)
        lx = T.length[x]
        one = self._one
        for j in range(1, k):
            y = self._swap_blocks(j, x)
            delta = lx - T.length[y]
            if delta == 4:
                # e_(k) g_{p_j} = (Q-1) e_(k) g_{2j} g_{2j+1} g_{2j}
                #   + Q(Q-1) e_(k) g_{2j} + Q^2 e_(k), the left products
                # taken as (g_{y^{-1}} g_{2j} ...)*
                out, H = {}, self.hecke
                t = H.rmul_gen({T.inv[y]: one}, 2 * j)
                self._red_acc(out, k, H.star(H.rmul_gen(H.rmul_gen(t, 2 * j + 1), 2 * j)), self._Qm1)
                self._red_acc(out, k, H.star(t), self._QQm1)
                self._red_acc(out, k, {y: one}, self._QQ)
                return out
            if delta == 2:
                # interleaved blocks: through e_(k) g_{2j} g_{2j-1}
                # = e_(k) g_{2j} g_{2j+1} both sides drop to shorter words
                x2 = T.lmul[2 * j - 1][T.lmul[2 * j][x]]
                out = {}
                self._red_acc(out, k, {T.lmul[2 * j][x2]: one}, self._Qm1)
                self._red_acc(out, k, {T.lmul[2 * j][T.lmul[2 * j + 1][x2]]: one}, self._Q)
                return out
        xt = T.perms[x]
        for j in range(1, k):
            # block j+1 nested inside block j: both words are reduced and
            # e_(k) g_x = e_(k) g_{p_j x} exactly, again by the exchange
            # identity; the swapped word has the opposite nesting, so the
            # move cannot fire back and forth
            a1, a2 = xt[2 * j - 2], xt[2 * j - 1]
            b1, b2 = xt[2 * j], xt[2 * j + 1]
            if a1 < b1 and b2 < a2:
                return self._red(k, self._swap_blocks(j, x))
        raise InternalInconsistency(f"no reduction applies to e_({k}) g_{xt}")

    def _red_acc(self, out, k, helt, factor):
        acc = self._acc
        for z, cz in helt.items():
            f = cz * factor
            for p, c in self._red(k, z).items():
                acc(out, p, c * f)

    # -- normalization -------------------------------------------------------------

    def _normalize(self, A, k, w):
        """g_A e_(k) g_w in normal coordinates {(k, u, pi, v): coeff}."""
        key = (A, k, w)
        hit = self._norm_memo.get(key)
        if hit is not None:
            return hit
        T, acc, perms = self._T, self._acc, self._T.perms
        minrep = self._minrep[k]
        out = {}
        for r1, c1 in self._red(k, T.inv[A]).items():
            # applying the involution: g_A e_(k) picks up
            # c1 g_{v1^{-1}} e_(k) g_{pi1^{-1}}
            pi1, v1 = minrep[r1]
            u = perms[v1]
            for y, c3 in self.hecke.rmul_perm({T.inv[pi1]: c1}, w).items():
                for r2, c4 in self._red(k, y).items():
                    pi2, v2 = minrep[r2]
                    acc(out, (k, u, perms[pi2], perms[v2]), c3 * c4)
        self._norm_memo[key] = out
        return out

    # -- verification --------------------------------------------------------------

    def verify_relations(self):
        """Check every defining relation; returns a list of failures."""
        n = self.n
        fails = []
        one = self.one()
        gs = {i: self.g(i) for i in range(1, n)}
        e = self.e_k(1)

        def chk(name, lhs, rhs):
            if lhs != rhs:
                fails.append(name)

        for i in range(1, n):
            lhs = self.mul(gs[i], gs[i])
            rhs = self.add(
                self.scale(gs[i], self.Q - 1), self.scale(one, self.Q)
            )
            chk(f"quadratic g_{i}", lhs, rhs)
        for i in range(1, n - 1):
            lhs = self.mul(self.mul(gs[i], gs[i + 1]), gs[i])
            rhs = self.mul(self.mul(gs[i + 1], gs[i]), gs[i + 1])
            chk(f"braid g_{i} g_{i+1}", lhs, rhs)
        for i in range(1, n):
            for j in range(i + 2, n):
                chk(
                    f"commute g_{i} g_{j}",
                    self.mul(gs[i], gs[j]),
                    self.mul(gs[j], gs[i]),
                )
        chk("e^2 = a e", self.mul(e, e), self.scale(e, self.a))
        chk("e g_1 = Q e", self.mul(e, gs[1]), self.scale(e, self.Q))
        chk("g_1 e = Q e", self.mul(gs[1], e), self.scale(e, self.Q))
        for i in range(3, n):
            chk(f"e g_{i} = g_{i} e", self.mul(e, gs[i]), self.mul(gs[i], e))
        if n >= 3:
            chk(
                "e g_2 e = b e",
                self.mul(self.mul(e, gs[2]), e),
                self.scale(e, self.b),
            )
            chk(
                "e g_2^{-1} e = b' e",
                self.mul(self.mul(e, self.g_inv(2)), e),
                self.scale(e, self.bprime),
            )
        if n >= 4:
            word = self.mul(
                self.mul(gs[2], gs[3]), self.mul(self.g_inv(1), self.g_inv(2))
            )
            e2 = self.mul(self.mul(e, word), e)
            chk("e_(2) recursion", e2, self.e_k(2))
            chk(
                "e_(2) commutation",
                self.mul(word, e2),
                self.mul(e2, word),
            )
        return fails

    def verify_identities(self):
        """Spot checks of the absorption identities used by the engine."""
        fails = []
        n = self.n
        for k in range(1, n // 2 + 1):
            ek = self.e_k(k)
            for j in range(k):
                i = 2 * j + 1
                if self.mul(ek, self.g(i)) != self.scale(ek, self.Q):
                    fails.append(f"e_({k}) g_{i} = Q e_({k})")
                if self.mul(self.g(i), ek) != self.scale(ek, self.Q):
                    fails.append(f"g_{i} e_({k}) = Q e_({k})")
            for i in range(2 * k + 1, n):
                if self.mul(ek, self.g(i)) != self.mul(self.g(i), ek):
                    fails.append(f"e_({k}) g_{i} commutation")
            for j in range(1, k + 1):
                ej = self.e_k(j)
                lhs = self.mul(ej, ek)
                if lhs != self.scale(ek, self.a**j):
                    fails.append(f"e_({j}) e_({k}) = a^{j} e_({k})")
            for j in range(1, k):
                lhs = self.mul(ek, self.mul(self.g(2 * j), self.g(2 * j - 1)))
                rhs = self.mul(ek, self.mul(self.g(2 * j), self.g(2 * j + 1)))
                if lhs != rhs:
                    fails.append(f"e_({k}) g_{2*j} g_{2*j-1} exchange")
            if n >= 3:
                lhs = self.mul(self.mul(ek, self.g(2)), self.e_k(1))
                if lhs != self.scale(ek, self.b):
                    fails.append(f"e_({k}) g_2 e = b e_({k})")
        return fails
