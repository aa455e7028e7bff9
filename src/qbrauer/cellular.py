"""Cellular structure of the q-Brauer algebra.

The cell datum is indexed by pairs (k, lam) with 0 <= k <= n/2 and lam a
partition of n - 2k, ordered by (k, lam) > (l, mu) iff k > l, or k = l
and lam dominates mu.  The cellular basis element attached to tableaux
s, t of shape lam and u, v in B_{k,n} is

    x_{(s,u)(t,v)} = g*_u g*_{d(s)} m_lam g_{d(t)} g_v,
    m_lam = e_(k) c_lam,

where c_lam is the row stabiliser sum in the Hecke algebra of the window
letters 2k+1, ..., n.  In normal basis coordinates this is block
diagonal: within a fixed (k, u, v) the change between the permutations
g_pi and the Murphy elements c_{st} is exactly the Murphy transition of
the window Hecke algebra, so no algebra products are needed to set the
cellular basis up.

The cell (Specht) module C(k, lam) has basis indexed by pairs (t, v) and
carries the bilinear form

    <x_{(t,v)}, x_{(s,u)}> m_lam = m_lam g_{d(t)} g_v g*_u g*_{d(s)} m_lam
                                    mod more dominant cells.

The window generators commute with e_(k), so with h_t = c_lam g_{d(t)}
each such product factors as

    h_t [e_(k) g_v g_{u^{-1}} e_(k)] h*_s = e_(k) h_t H_{v,u} h*_s
                                            mod levels above k,

where H_{v,u} lies in the window Hecke algebra (Murphy, J. Algebra 152,
1992; Graham-Lehrer, Invent. Math. 123, 1996).  The blocks come from
sandwiches: modulo the levels above k, e_(k) g_v e_(k) = e_(k) N_v with
N_v in the window Hecke algebra, one algebra product per v in B_{k,n}.
Writing e_(k) g_v g_{u^{-1}} = sum c e_(k) g_pi g_v' over normal indices,
with pi a window permutation, and using that g_pi commutes with e_(k)
(e_(k) is a word in e and g_1, ..., g_{2k-1}), gives
H_{v,u} = sum c g_pi N_v' by Hecke arithmetic alone, for each pair
v <= u; H_{u,v} = H*_{v,u}, and every lam at level k shares them.

The products N_v, the window products g_pi N_v' and the straightenings
behind the blocks of level k >= 1 are built once per process for each
(n, k) over the parameter ring Z[Q^{±1}, a, b], whose indeterminates are
the engine's Q, Q^{-1}, a and b, and the blocks are summed there.  The
Gram matrix of each cell C(k, lam) is built from them once per process
for each (n, k, lam) over the same ring, with psi_lam below a ring
element, and each algebra only evaluates it.  This is exact: the cell
forms are defined over the generic ring and specialise by base change
(Graham-Lehrer).  The engine, the Hecke actions and psi_lam reach every
entry by + and x on those four constants and integers alone, so psi_lam
is a ring element (its only scalars are Q, Q^{-1} and -Q^{-1}) and each
entry a polynomial in them; their only branches on values drop zero
coefficients, which changes no value, or raise InternalInconsistency, at
a term off level k or at a rewriting cycle; and evaluation is a ring
homomorphism.  The build raises either, and its message is raised for
every lam of the level and every algebra.  Where the field kills Q - 1
or a, the engine run over the field itself skips terms and may meet
another cycle first, so that message can name another key.

Level 0 is the window Hecke algebra H_n(Q) itself, and C(0, lam) its
Specht module (Murphy), so its form depends on an algebra only through
the field and Q.  Each algebra still makes its one block H_{1,1} = 1,
the level-0 part of one product 1 . 1, with no straightening; the Gram
matrix of C(0, lam) is then computed once per process for each key (n,
lam, field, Q in internal form, block) and kept in ``_LEVEL0``, with its
determinant and rank once they are known, and every later algebra with
that key takes them.  This
is exact: every input of the entries is a function of the key, namely
HeckeWindow(n, 1, field, Q), psi_lam (built from Q, Q^{-1} and the
field's internal form, which over F_p depends on p alone), the tableaux
and the block, each entry being psi_lam of one Hecke product.
So two_param and n_version, which share H_n(q^2) over the generic field,
share their level-0 cells, and classical shares them with any point where
Q = 1.  The memo holds one entry per (n, lam, field, Q) that a process
meets, each the size of one Gram matrix.  The block stays per algebra
and is made before the lookup, because the rows are computed from it;
with one block the pairings of ``Cellular._rows`` would only add work.
Built over the ring, level 0 would leave an algebra no engine product at
all, and the benchmark's traced runs check that a second run in the same
process still makes one.

Every form is held in the field's internal form from evaluation through
elimination.  Over F_p a form of level k >= 1 is packed: one int per
row, its d entries unreduced in slots of w bytes (``_Packed``).  The ring
Gram matrix is reduced mod p once per process for each (n, k, lam, p)
into one packed row per row and monomial Q^i a^j b^l (``_fp_table``), so
an algebra evaluates its m monomials once and each row with one big-int
dot product, and ``det_rank`` eliminates the packed rows with one
multiply-add per row and pivot; w holds (m + d)(p - 1)^2, which no slot
reaches (``det_rank``).  Level-0 forms over F_p are lists of residues in
[0, p), packed on entry to ``det_rank`` as any list is.  A generic form
of level k >= 1 is RatFunc rows made by integer Laurent arithmetic over
known powers of the scalars' denominators (``Cellular._laurent``).  Its
determinant is b^{k d} D(Q, a / b), D(Q, t) one determinant per cell
(``_universal_det``), into which an algebra in q and r with monomial Q
and b substitutes its scalars (``_substitutes``, ``_substituted``).  D,
a zero result and every other generic matrix come from one exact
elimination over Z[x, y] that packs one variable and interpolates the
other (``_poly_det_rank``).  Every other form is a list of field values.
``Cellular.gram`` hands each caller new lists of field values, so nothing
outside writes to a form.

A Gram entry is psi_lam(g_{d(t)} H_{v,u} g_{d(s)^{-1}}) with the window
functional psi_lam(h) = phi_lam(c_lam h c_lam), phi_lam the Murphy
coordinate at (lam, t^lam, t^lam).  No Murphy transition is needed for
it: with w = d(t_lam), t_lam the column-reading tableau, and y_lam' the
signed sum of (-Q)^{-l(b)} g_b over the row stabiliser of t^{lam'}, the
functional f(x) = [g_w](x g_w y_lam') kills H^{>lam}, because
x_mu H y_lam' = 0 for mu strictly dominating lam (Dipper-James, Proc.
London Math. Soc. 52, 1986), and f(c_lam) = 1, because g_w occurs once
in c_lam g_w y_lam'; so f = phi_lam on c_lam h c_lam, which lies in
R c_lam + H^{>lam}.  psi_lam is f summed over double cosets and scaled
(``Cellular._functional``).  The form is symmetric, as for every cellular
algebra: the anti-involution star fixes m_lam and swaps the two factors.
Gram matrices are therefore built from the entries with i <= j.

The Gram matrix decides everything representation-theoretic here: the
simple head D(k, lam) is nonzero iff the form is nonzero, the algebra is
semisimple iff every Gram matrix is nonsingular, and by the
classification theorem D(k, lam) is nonzero iff lam is e(Q)-restricted,
where e(Q) is the quantum characteristic of the Hecke parameter.  Closed
semisimplicity criteria for n in {2, 3} are provided for cross-checking
against the Gram determinants.
"""

from __future__ import annotations

from functools import lru_cache, partial, reduce
from itertools import accumulate, groupby, pairwise, permutations
import math
from operator import mul

from . import symgrp as sg
from .coefficients import _ONE, LaurentPoly, RatFunc, _acc, _biv_divexact, _biv_gcd, _exponents, quantum_char
from .hecke import HeckeWindow, is_restricted
from .qbrauer import VERSION_MAPS, InternalInconsistency, QBrAlgebra, version_map

__all__ = ["Cellular", "closed_form_criterion", "det", "det_rank", "rank"]


def det_rank(mat, field):
    """(det, rank) of mat; det is None unless mat is square.

    A generic form of level k >= 1 with its ``cell`` (a ``_Form`` whose
    scalars ``_substitutes`` takes) takes its determinant from its cell's
    universal one: b^{k d} D(Q, t) for d rows, t = a / b and D of
    ``_universal_det``, by ``_substituted``.  A nonzero one fixes the rank
    at d.  A zero one, where the algebra's scalars kill a factor of D, and
    every other matrix go through the elimination of ``_eliminated``."""
    if isinstance(mat, _Form) and mat.cell:
        n, k, lam, Q, a, b = mat.cell
        d = _substituted(_universal_det(n, k, lam), Q, a / b, b, k * len(mat))
        if not d.is_zero():
            return d, len(mat)
    return _eliminated(mat, field)


def _eliminated(mat, field):
    """(det, rank) of mat from one forward elimination; det is None unless
    mat is square.  Rows are pivoted and columns without a pivot skipped, so
    the pivots count the rank.

    Generic field: RatFunc rows become polynomials A_ij in Z[q, r] over the
    lcm of their denominators (``_cleared``); q^g and r^h become q and r for
    g and h the gcds of the q and r exponents, an injective ring map undone
    on the determinant (g = h = 2 in two_param, whose entries are (q/r)^k
    times polynomials in q^2 and r^2); and ``_poly_det_rank`` eliminates A.

    F_p: Gaussian elimination on packed rows (``_packed_det_rank``), the
    matrix a ``_Packed`` one, as ``Cellular``'s forms are, or rows of Fp
    values or ints, taken mod p (``inner``) and packed on entry.  A pivot
    is read from one slot (shift, mask, mod p); the pivot row is reduced
    slot-wise to residues t_j in [0, p) right of the pivot, and each row
    below takes one multiply-add, row += f t with f = -x / x_piv in [0, p),
    x its entry in the pivot column.  No carry crosses a slot: every slot
    starts in [0, m (p - 1)^2], its entry a sum of at most m products of two
    residues (m = 1 for residues); a step adds f t_j in [0, (p - 1)^2]; and
    a row takes at most one step per pivot above it, at most d - 1 for d
    rows.  So every slot stays non-negative and at most
    (m + d - 1)(p - 1)^2 < 2^(8 w), w the slot width of ``_slot_bytes``:
    the sum of two packed rows packs the sums of their slots, and a slot
    read mod p is its entry.  The determinant is the product of the pivots
    mod p, made an Fp once.  Q and Q(zeta_m): Gaussian elimination on field
    values.
    """
    kind = field.field[0]
    if kind == "fp":
        p = field.field[1]
        if not isinstance(mat, _Packed):
            w = _slot_bytes(1, len(mat), p)
            mat = _Packed([_pack(map(field.inner, row), w) for row in mat], len(mat[0]) if mat else 0, w)
        d, rk = _packed_det_rank(mat, p)
        return (None if d is None else field.outer(d)), rk
    if kind == "generic":
        m, shift, den = _cleared(mat)
        g = [math.gcd(*(e[i] for row in m for x in row for e in x)) or 1 for i in (0, 1)]
        if g != [1, 1]:
            m = [[{(i // g[0], j // g[1]): c for (i, j), c in x.items()} for x in row] for row in m]
        d, rk = _poly_det_rank(m)
        if d is None or rk < len(m):
            return (None if d is None else field.zero()), rk
        num = LaurentPoly({(i * g[0], j * g[1]): c for (i, j), c in d.items()})
        return RatFunc(num.shifted(rk * shift[0], rk * shift[1]), den ** rk), rk
    m = [list(row) for row in mat]
    pivots, sign = _forward(m, _field_step, lambda x: not x.is_zero())
    rows, cols, rk = len(m), len(m[0]) if m else 0, len(pivots)
    if rows != cols:
        return None, rk
    if rk < rows:
        return field.zero(), rk
    d = math.prod(pivots, start=field.one())
    return (d if sign > 0 else -d), rk


def _poly_det_rank(m):
    """(det, rank) of a matrix m over Z[x, y], its entries {(i, j): c}
    (i, j >= 0) for sum c x^i y^j; det is {(i, j): c}, or None unless m is
    square.  Of the two variables, y is the one with the smaller J, the sum
    over the rows of the row's largest exponent of it, and the second on a
    tie.

    By the Leibniz expansion every minor has y-degree at most J, so a
    nonzero one is nonzero at one of the J + 1 nodes y = X - J, ..., X,
    X = J - [J / 2]: the rank is the largest node rank, and a matrix in x
    alone has the one node y = 0.  As |y| <= X at a node, the coefficients
    of each minor there, and those of each D_j of D = det m = sum_j D_j(x)
    y^j, sum in absolute value to at most H = prod over the rows of
    max(1, sum |c| X^j) over the row's terms c x^i y^j (X^j >= 1 for
    J > 0).  With B = H.bit_length() + 1 they lie strictly between
    -2^(B - 1) and 2^(B - 1), so x -> 2^B (Kronecker; Harvey, J. Symbolic
    Comput. 44, 2009), a ring homomorphism, is injective on all of them and
    each D_j decodes from its balanced base-2^B digits (``_unpacked``).
    The fraction-free elimination (Bareiss, Math. Comp. 22, 1968;
    ``_forward``, ``_bareiss_step``) of a node's packed matrix then runs
    over Z with exact zero tests, every division exact by Sylvester's
    identity (checked), its pivots count the node's rank, and at full rank
    sign times the last pivot is the packed D(x, y), else 0.  Newton's
    divided differences of D at consecutive integers lie in Z[x], those of
    order s dividing by s, so the packed ints divide exactly (checked), and
    the Newton form expands into the packed D_0, ..., D_J.  Small nodes
    keep the ints narrow: packing y too would make them J + 1 times wider,
    and a division takes time quadratic in the width."""
    rows, cols = len(m), len(m[0]) if m else 0
    tops = [[max(e) for e in zip(*[e for x in row for e in x])] or [0, 0] for row in m]
    J = [sum(top[v] for top in tops) for v in (0, 1)]
    v = int(J[0] >= J[1])  # the exponent of y is e[v] in a key e
    J = J[v]
    X = J - J // 2
    weight = [X ** j for j in range(J + 1)]  # X^0 = 1 where J = 0 too
    B = math.prod(max(1, sum(abs(c) * weight[e[v]] for x in row for e, c in x.items())) for row in m).bit_length() + 1
    packed = []  # each entry as the packed coefficients of y^0 .. y^top, top its row's degree
    for row, top in zip(m, tops):
        packed.append(out := [])
        for x in row:
            out.append(cs := [0] * (top[v] + 1))
            for e, c in x.items():
                cs[e[v]] += c << B * e[1 - v]
    ys, a, rk = range(X - J, X + 1), [], 0
    for y in ys:
        powers = [y ** j for j in range(J + 1)]
        node = [[sum(map(mul, x, powers)) for x in row] for row in packed] if J else [[x[0] for x in row] for row in packed]
        pivots, sign = _forward(node, _bareiss_step, bool)
        rk = max(rk, len(pivots))
        a.append(sign * (pivots[-1] if pivots else 1) if len(pivots) == rows else 0)
    if rows != cols:
        return None, rk
    for s in range(1, J + 1):
        for i in range(J, s - 1, -1):
            a[i], rem = divmod(a[i] - a[i - 1], s)
            if rem:
                raise ArithmeticError("inexact divided difference")
    p = [a[J]]
    for y, c in zip(ys[-2::-1], a[-2::-1]):  # p <- p (y - y_i) + c
        p = [c - y * p[0]] + [u - y * w for u, w in zip(p, p[1:])] + [p[-1]]
    return {((i, j) if v else (j, i)): c for j, x in enumerate(p) for (i, _), c in _unpacked(x, B, 1).items()}, rk


def _forward(m, step, nonzero):
    """(pivots, sign) of the forward elimination of the rows m in place:
    rows are pivoted (sign the parity of the swaps) and columns without a
    pivot skipped, each pivot row applying ``step`` to the rows below."""
    rows, cols = len(m), len(m[0]) if m else 0
    pivots, sign = [], 1
    for col in range(cols):
        rk = len(pivots)
        if rk == rows:
            break
        piv = next((r for r in range(rk, rows) if nonzero(m[r][col])), None)
        if piv is None:
            continue
        if piv != rk:
            m[rk], m[piv] = m[piv], m[rk]
            sign = -sign
        step(m[rk], m[rk + 1:], col, pivots[-1] if pivots else 1)
        pivots.append(m[rk][col])
    return pivots, sign


def det(mat, field):
    """Exact determinant of a square matrix over a field."""
    square = mat.cols == len(mat) if isinstance(mat, _Packed) else all(len(row) == len(mat) for row in mat)
    if not square:
        raise ValueError("determinant of a non-square matrix")
    return det_rank(mat, field)[0]


def rank(mat, field):
    """Exact rank over a field."""
    return det_rank(mat, field)[1]


class _Packed:
    """A matrix over F_p as one int per row: entry (i, j) is slot j of
    ``rows[i]``, its bytes w j .. w (j + 1) - 1 read little-endian, and
    stands for its residue mod p; w = ``width`` is that of ``_slot_bytes``
    for the rows' m (``det_rank``)."""

    __slots__ = ("rows", "cols", "width")

    def __init__(self, rows, cols, width):
        self.rows, self.cols, self.width = rows, cols, width

    def __len__(self):
        return len(self.rows)

    def residues(self, p):
        """The entries mod p, as a new list per row."""
        w, size = self.width, self.width * self.cols
        out = []
        for row in self.rows:
            b = row.to_bytes(size, "little")
            out.append([int.from_bytes(b[i:i + w], "little") % p for i in range(0, size, w)])
        return out


def _slot_bytes(m, d, p):
    """The least whole number of bytes that holds (m + d)(p - 1)^2: the
    slot width of d packed rows whose entries start as sums of at most m
    products of two residues (``det_rank``)."""
    return (((m + d) * (p - 1) ** 2).bit_length() + 7) // 8


def _pack(row, w):
    """The int whose w-byte little-endian slots are the ints of ``row``."""
    return int.from_bytes(b"".join(x.to_bytes(w, "little") for x in row), "little")


def _packed_det_rank(mat, p):
    """(det as a residue, rank) of a ``_Packed`` matrix by the elimination
    of ``det_rank``, the matrix left as it is; det is None unless it is
    square.  The rows drop one slot per column, so the column at hand is
    always slot 0."""
    rows, cols, W = list(mat.rows), mat.cols, 8 * mat.width
    n, mask, rk, d = len(rows), (1 << W) - 1, 0, 1
    for col in range(cols):
        if rk == n:
            break
        for piv in range(rk, n):
            x = (rows[piv] & mask) % p
            if x:
                break
        else:
            rows[rk:] = [row >> W for row in rows[rk:]]
            continue
        if piv != rk:
            rows[rk], rows[piv] = rows[piv], rows[rk]
            d = -d
        d = d * x % p
        t = rows[rk]
        top = sum((t >> s & mask) % p << s - W for s in range(W, W * (cols - col), W))
        neg = p - pow(x, -1, p)
        for r in range(rk + 1, n):
            row = rows[r]
            f = (row & mask) * neg % p
            rows[r] = (row >> W) + f * top if f else row >> W
        rk += 1
    if n != cols:
        return None, rk
    return (d % p if rk == n else 0), rk


class _Form(list):
    """A generic Gram form of level k >= 1 as its rows of RatFuncs, with
    ``cell`` (n, k, lam, Q, a, b), its cell and its algebra's scalars, where
    ``_substitutes`` takes them (``det_rank``), and None otherwise."""

    cell = None


def _cleared(mat):
    """RatFunc rows as polynomials in Z[q, r]: (A, (dq, dr), D) with entry
    (i, j) = A[i][j] q^dq r^dr / D.  D is the lcm of the denominators, which
    starts from the first one and takes one gcd per further one; each
    numerator is taken times its cofactor D / den, and q^dq r^dr is the
    least monomial of the results."""
    dens = {x.den for row in mat for x in row}
    rest = iter(dens)
    den = next(rest, _ONE)
    for d in rest:
        den = den * LaurentPoly(_biv_divexact(d.terms, _biv_gcd(den.terms, d.terms)))
    cofactor = {d: LaurentPoly(_biv_divexact(den.terms, d.terms)) for d in dens if d != den}
    laurent = [[x.num * cofactor[x.den] if x.den in cofactor else x.num for x in row] for row in mat]
    keys = [k for row in laurent for x in row for k in x.terms]
    shift = (min((k[0] for k in keys), default=0), min((k[1] for k in keys), default=0))
    polys = [[x.shifted(-shift[0], -shift[1]).terms for x in row] for row in laurent]
    return polys, shift, den


def _packed(x, B, D):
    """The Kronecker image of x = {(i, j): c}, i, j >= 0, standing for
    sum c q^i r^j, under r -> 2^B, q -> 2^(B D): digit i D + j is c
    (``_unpacked`` reads it back)."""
    return sum(c << B * (i * D + j) for (i, j), c in x.items())


def _unpacked(n, B, D):
    """{(i, j): c} from the balanced base-2^B digits of n, digit i D + j
    being c: read off one binary string after adding the offset whose every
    digit is 2^(B-1), which makes each digit nonnegative."""
    K, half = n.bit_length() // B + 2, 1 << B - 1
    zero = format(half, "b")
    bits = format(n + int(zero * K, 2), "b").zfill(B * K)
    out = {}
    for k in range(K):
        digit = bits[B * (K - 1 - k):B * (K - k)]
        if digit != zero:
            out[divmod(k, D)] = int(digit, 2) - half
    return out


def _substitutes(Q, a, b):
    """Whether ``det_rank`` takes the determinant of a generic form with the
    scalars Q, a, b from its cell's D (``_substituted``): Q and b must be
    monomials of coefficient 1 over 1, Q's exponents nonnegative, as in
    two_param and one_param but not under every specialisation (q -> -q,
    r -> -r, q -> 1 / q), and the scalars must involve both q and r.  A
    form in one variable (n_version in q, classical in r) is eliminated in
    that variable at about the cost of one of the k d + 1 eliminations
    that build D, so it goes without D."""
    def unit(x):
        return x.den.is_one() and list(x.num.terms.values()) == [1]

    used = {v for x in (Q, a, b) for y in (x.num, x.den) for e in y.terms for v in (0, 1) if e[v]}
    return unit(Q) and unit(b) and min(Q.num.min_exps()) >= 0 and len(used) == 2


def _substituted(D, Q, t, b, kd):
    """b^kd D(Q, t) as a RatFunc, for D = {(i, j): c} standing for
    sum c Q^i t^j, t a RatFunc, and Q = q^e r^f (e, f >= 0) and b monomials
    of coefficient 1 (``_substitutes``).

    With i0 the least i and J the largest j, D = Q^i0 sum_j P_j(Q) t^j for
    P_j in Z[Q].  Take t = N_t / D_t with N_t, D_t in Z[q, r] (the canonical
    num and den, times the monomial that makes num a polynomial); then
    D = Q^i0 N / D_t^J with N = sum_j P_j(Q) N_t^j D_t^(J - j), which Horner's
    rule, N <- N N_t + P_j(Q) D_t^(J - j) from j = J down, evaluates in
    Z[q, r].  With g and h the gcds of the q and r exponents of Q, N_t and
    D_t (2 and 2 in two_param), all of it lies in Z[q^g, r^h], on which
    q^g -> q, r^h -> r is an injective ring map, taken first and undone on
    the result.  It runs on Kronecker-packed ints, r -> 2^B, q -> 2^(B R), a
    ring homomorphism, so only N itself has to fit.  By the triangle
    inequality |N|_1 <= sum_j |P_j|_1 |N_t|_1^j |D_t|_1^(J - j)
    <= |D|_1 max(|N_t|_1, |D_t|_1)^J = H, |.|_1 the sum of the absolute
    values of the coefficients (|P_j(Q)|_1 <= |P_j|_1 for the monomial Q),
    and after the map the r-degree of N is at most f / h (max i - i0) +
    J max(deg_r N_t, deg_r D_t) = R - 1.  So with B = H.bit_length() + 1
    every coefficient of N lies strictly between -2^(B - 1) and 2^(B - 1),
    and N decodes from its balanced base-2^B digits (``_unpacked``), digit
    i R + j the coefficient of q^i r^j.  The one RatFunc is made at the
    end."""
    if not D:
        return RatFunc(LaurentPoly(), _canonical=True)
    [(e, f)], [(bq, br)] = Q.num.terms, b.num.terms
    s = [min(0, x) for x in t.num.min_exps()]
    Nt, Dt = t.num.shifted(-s[0], -s[1]), t.den.shifted(-s[0], -s[1])
    g = [math.gcd(x, *(m[v] for y in (Nt, Dt) for m in y.terms)) or 1 for v, x in enumerate((e, f))]
    nt, dt = ({(i // g[0], j // g[1]): c for (i, j), c in y.terms.items()} for y in (Nt, Dt))
    i0, J = min(i for i, _ in D), max(j for _, j in D)
    H = sum(map(abs, D.values())) * max(sum(map(abs, y.values())) for y in (nt, dt)) ** J
    B = H.bit_length() + 1
    R = 1 + f // g[1] * (max(i for i, _ in D) - i0) + J * max(j for y in (nt, dt) for _, j in y)
    P = [{} for _ in range(J + 1)]  # P_j(Q), Q = q^e r^f, which may be 1
    for (i, j), c in D.items():
        key = ((i - i0) * e // g[0], (i - i0) * f // g[1])
        P[j][key] = P[j].get(key, 0) + c
    P, nt, dt = [_packed(x, B, R) for x in P], _packed(nt, B, R), _packed(dt, B, R)
    N, power = P[J], 1
    for j in range(J - 1, -1, -1):
        power *= dt
        N = N * nt + P[j] * power
    num = LaurentPoly({(i * g[0], j * g[1]): c for (i, j), c in _unpacked(N, B, R).items()})
    return RatFunc(num.shifted(e * i0 + kd * bq, f * i0 + kd * br), Dt ** J)


def _bareiss_step(top, below, col, prev):
    """One fraction-free step over Z: each row x below the pivot row top
    becomes (top[col] x - x[col] top) / prev right of col; a division that
    leaves a remainder raises ArithmeticError."""
    p = top[col]
    for row in below:
        a = row[col]
        for c in range(col + 1, len(top)):
            row[c], rem = divmod(p * row[c] - a * top[c], prev)
            if rem:
                raise ArithmeticError("inexact division in a Bareiss step")


def _field_step(top, below, col, prev):
    """The same Gaussian step on field values."""
    inv = 1 / top[col]
    for row in below:
        if not row[col].is_zero():
            f = row[col] * inv
            for c in range(col + 1, len(top)):
                row[c] = row[c] - f * top[c]


def _pull(alg, f, i):
    """The functional h -> f(h g_i), for f = {code: coeff} standing for
    h -> sum of f[w] h[w], in the internal coefficients of the algebra
    ``alg``."""
    acc, Q, Qm1, move, des, bit = alg._acc, alg._Q, alg._Qm1, alg._T.rmul[i], alg._T.rdes, 1 << i
    out = {}
    for w, c in f.items():
        if des[w] & bit:
            acc(out, move[w], c)
            acc(out, w, c * Qm1)
        else:
            acc(out, move[w], c * Q)
    return out


def _level_blocks(alg, k):
    """(lefts, pairs) of level k (module docstring), in the internal
    coefficients of ``alg``.  ``pairs`` lists (v, u, {(pi, v'): c}) for
    v <= u in B_{k,n}, the straightening of g_v g_{u^{-1}}
    (``QBrAlgebra.straighten``), so that H_{v,u} = sum c g_pi N_v'
    (``_block_matrix``); ``lefts`` maps each (pi, v') met to g_pi N_v' =
    (N_v'* g_{pi^-1})* as {code: coeff}, N_v being the level-k part of
    e_(k) g_v e_(k), one product per v.  A term of that product below level
    k, or at level k with u or v not the identity, raises
    InternalInconsistency."""
    H = alg.hecke
    code, inv, inner = alg._T.code, alg._T.inv, alg.field.inner
    ident, one, Bk = alg.id, alg.field.one(), alg.Bkn[k]
    ek = {(k, ident, ident, ident): one}
    stars = {}  # code of v -> N_v*
    for v in Bk:
        h = {}
        for (k2, u2, pi, v2), c in alg.mul({(k, ident, ident, v): one}, ek).items():
            if k2 < k or (k2 == k and (u2, v2) != (ident, ident)):
                raise InternalInconsistency(f"term {(k2, u2, pi, v2)} in e_({k}) g_{v} e_({k})")
            elif k2 == k:
                h[code[pi]] = inner(c)
        stars[code[v]] = H.star(h)
    lefts, pairs = {}, []
    for a, v in enumerate(Bk):
        for u in Bk[a:]:
            terms = alg.straighten(k, H.rmul_perm({code[v]: alg._one}, inv[code[u]]))
            for pi, v2 in terms:
                if (pi, v2) not in lefts:
                    lefts[pi, v2] = H.star(H.rmul_perm(stars[v2], inv[pi]))
            pairs.append((v, u, terms))
    return lefts, pairs


def _paired(x, f, dot):
    """The sum of x[w] f[w] over the keys w of x that f has."""
    keys = [w for w in x if w in f]
    return dot(map(x.__getitem__, keys), map(f.__getitem__, keys))


def _block_matrix(alg, k, lefts, pairs):
    """The blocks of ``_level_blocks`` summed, as the matrix whose entry at
    the positions of v and u in B_{k,n} is H_{v,u} = sum c g_pi N_v' for
    v <= u, and H_{u,v} = H_{v,u}* below the diagonal."""
    place = {v: a for a, v in enumerate(alg.Bkn[k])}
    blocks = [[None] * len(place) for _ in place]
    for v, u, terms in pairs:
        h = {}
        for key, c in terms.items():
            for w, cw in lefts[key].items():
                alg._acc(h, w, c * cw)
        blocks[place[u]][place[v]], blocks[place[v]][place[u]] = alg.hecke.star(h), h
    return blocks


@lru_cache(maxsize=None)
def _universal_blocks(n, k):
    """The ``_block_matrix`` of level k over the parameter ring, once per
    process for each (n, k), built on an algebra of its own so that no other
    level decides its steps or its messages: (blocks, grams, dets), with
    ``grams`` the Gram matrices of level k that ``_universal_gram`` builds
    from the blocks and ``dets`` their determinants of ``_universal_det``;
    or the message of the InternalInconsistency the build raised, a term off
    level k or a rewriting cycle.  RewriteBudgetExceeded is not cached.
    Clearing this cache clears those Gram matrices and determinants."""
    ring = QBrAlgebra.over_parameters(n)
    try:
        blocks = _block_matrix(ring, k, *_level_blocks(ring, k))
    except InternalInconsistency as exc:
        return str(exc)
    return blocks, {}, {}


def _universal_gram(n, k, lam):
    """The Gram matrix of C(k, lam), k >= 1, over the parameter ring, once
    per process for each (n, k, lam) (module docstring): (monomials, rows)
    with ``rows`` as from ``Cellular._rows``, each entry as its monomial
    keys and their coefficients, and ``monomials`` the pairs (key, (i, j,
    l)) of the keys used; or the message of the level's build, for every
    lam."""
    built = _universal_blocks(n, k)
    if isinstance(built, str):
        return built
    blocks, grams, _ = built
    if lam not in grams:
        rows = Cellular(QBrAlgebra.over_parameters(n))._rows(k, lam, blocks)
        keys = {m for row in rows for x in row for m in x.terms}
        grams[lam] = (
            tuple((m, _exponents(m)) for m in keys),
            [[(tuple(x.terms), tuple(x.terms.values())) for x in row] for row in rows],
        )
    return grams[lam]


def _universal_det(n, k, lam):
    """D(Q, t) = det G(Q, t, 1) of a cell C(k, lam), k >= 1, that builds, G
    the Gram matrix of ``_universal_gram``, as {(i, j): c} for c Q^i t^j in
    Z[Q^{±1}, t], once per process for each (n, k, lam).

    Grade the algebra over Z[Q^{±1}, a, b] by deg e = deg a = deg b = 1 and
    deg g_i = deg Q = 0.  Every defining relation is homogeneous: e^2 = a e,
    e g_2 e = b e and e g_2^{-1} e = b' e (b' = Q^{-1} b + (Q^{-1} - 1) a)
    have degree 2, e g_1 = Q e degree 1, the relation of e_(2) degree 2,
    and the Hecke relations degree 0.  So every rewriting step keeps the degree, a
    normal basis element of level k has degree k, and an entry of level k,
    a coefficient of m_lam in a product of two elements of degree k, is
    homogeneous of degree k: a sum of c Q^i a^j b^l with j + l = k, checked
    here on every monomial.  So G(Q, a, b) = b^k G(Q, a / b, 1) and, b
    being a unit, det G = b^{k d} D(Q, a / b) for d rows.  A term
    c Q^i a^j b^(k - j) of G becomes c Q^(i - i0) t^j in Z[Q, t], i0 the
    least Q exponent, and the determinant (``_poly_det_rank``) is D Q^(-d i0)."""
    dets = _universal_blocks(n, k)[2]
    if lam not in dets:
        monomials, rows = _universal_gram(n, k, lam)
        if any(j + l != k for _, (i, j, l) in monomials):
            raise InternalInconsistency(f"a Gram entry of C({k}, {lam}) is not of degree {k} in (a, b)")
        exps = dict(monomials)
        i0 = min(i for i, _, _ in exps.values())
        mat = _mirrored([[{(exps[m][0] - i0, exps[m][1]): c for m, c in zip(keys, cs)} for keys, cs in row] for row in rows])
        D, _ = _poly_det_rank(mat)
        dets[lam] = {(i + len(rows) * i0, j): c for (i, j), c in D.items()}
    return dets[lam]


@lru_cache(maxsize=None)
def _fp_table(n, k, lam, p):
    """The Gram matrix of ``_universal_gram`` of a cell C(k, lam) that
    builds, mod p, once per process for each (n, k, lam, p): (w, table),
    table[i][a] the packed row i of the coefficients mod p of monomial a,
    the lower triangle mirrored.  Row i at an algebra is the sum over a of
    the residue of monomial a times table[i][a], each slot a sum of at most
    m products of two residues for m monomials, so w is ``_slot_bytes`` for
    that m."""
    monomials, rows = _universal_gram(n, k, lam)
    index = {m: a for a, (m, _) in enumerate(monomials)}
    w = _slot_bytes(len(monomials), len(rows), p)
    W, table = 8 * w, [[0] * len(monomials) for _ in rows]
    for i, row in enumerate(rows):
        for j, (keys, coeffs) in enumerate(row, i):
            for m, c in zip(keys, coeffs):
                a, c = index[m], c % p
                table[i][a] += c << W * j
                if j > i:
                    table[j][a] += c << W * i
    return w, table


# The level-0 cells met so far (module docstring): (n, lam, field, Q in
# internal form, block) -> [Gram matrix in internal values, (det, rank or
# None if not known) or None].  Clearing it is the one reset.
_LEVEL0 = {}


def _mirrored(rows):
    """The symmetric matrix whose row i holds ``rows[i]`` from column i on."""
    mat = []
    for i, row in enumerate(rows):
        mat.append([mat[j][i] for j in range(i)] + row)
    return mat


@lru_cache(maxsize=None)
def _labels(n):
    """The cell labels (k, lam) of n, most dominant first, and a map from
    each to itself, which any (k, tuple) equal to a label also finds, once
    per process for each n."""
    out = tuple((k, lam) for k in range(n // 2, -1, -1) for lam in sg.partitions(n - 2 * k))
    return out, {key: key for key in out}


@lru_cache(maxsize=None)
def _double_cosets(n, k, lam):
    """The combinatorics of psi_lam at level k, once per process for each
    (n, k, lam): (classes, where, top, cols, w, word).  The double coset
    S_lam x S_lam of a window code x, S_lam the row stabiliser of t^lam, is
    named by the matrix m_ij = |row i of t^lam meet x(row j)|; ``where[x]``
    is its index in ``classes``.  A class is (blocks, groups): its m_ij > 1,
    and its codes as (shift, codes) by ascending shift l(x) - l(d), d its
    least element; ``top`` is the largest shift.  t_lam is the transpose of
    t^{lam'}, whose rows are ``cols``; w = d(t_lam) has reduced word ``word``.
    For one column, S_lam = 1: every code is its own class, of shift 0."""
    T, lo, lam = sg.perm_table(n), 2 * k + 1, sg.Partition(lam)
    cols = sg.superstandard(lam.conjugate(), lo)
    t_lam = tuple(tuple(c[i] for c in cols if len(c) > i) for i in range(len(lam)))
    w = T.code[sg.tableau_perm(n, t_lam, lo)]
    if all(p == 1 for p in lam):
        codes = range(math.factorial(len(lam)))
        return tuple(((), ((0, (x,)),)) for x in codes), tuple(codes), 0, cols, w, T.word(w)
    # the window codes follow the permutations of the letters lo..n in
    # itertools order: words[x] lists the rows of x(lo), x(lo + 1), ...
    words = list(permutations([i for i, p in enumerate(lam) for _ in range(p)]))
    spans, index = list(pairwise(accumulate(lam, initial=0))), {}
    named = {x: tuple(tuple(sorted(x[a:b])) for a, b in spans) for x in dict.fromkeys(words)}
    named = {x: index.setdefault(key, len(index)) for x, key in named.items()}
    where, members, length = tuple(map(named.__getitem__, words)), [[] for _ in index], T.length.__getitem__
    for x in sorted(range(len(words)), key=length):
        members[where[x]].append(x)
    classes = tuple(
        (tuple(b for r in key for b in map(r.count, set(r)) if b > 1),
         tuple((s - length(xs[0]), tuple(g)) for s, g in groupby(xs, key=length)))
        for key, xs in zip(index, members)
    )
    return classes, where, max(groups[-1][0] for _, groups in classes), cols, w, T.word(w)


class Cellular:
    """Cell data, cellular basis and Gram forms for one algebra instance."""

    def __init__(self, alg):
        self.alg = alg
        self.n = alg.n
        self.field = alg.field
        self._windows = {}
        self._forms = {}  # (k, lam) -> ``_form``
        self._level0 = None  # the one level-0 block H_{1,1}
        self._monomials = {}  # monomial key -> Q^i a^j b^l, over Q(zeta_m) and Q
        self._products = {}  # (monomial key, t) -> its numerator terms (``_laurent``)

    def window(self, k):
        """The Hecke algebra of the letters 2k+1, ..., n."""
        if k not in self._windows:
            self._windows[k] = HeckeWindow(self.n, 2 * k + 1, self.field, self.alg.Q)
        return self._windows[k]

    def labels(self):
        """All (k, lam), most dominant first."""
        return list(_labels(self.n)[0])

    def _label(self, k, lam):
        """(k, lam) with lam as a Partition; ValueError unless it is one of
        ``labels()``.  A Partition is made only for a lam whose parts are
        not a label's as they stand, as (3, 0)."""
        labels = _labels(self.n)[1]
        try:
            return labels.get((k, tuple(lam))) or labels[k, sg.Partition(lam)]
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"no cell ({k!r}, {lam!r}) for n = {self.n}") from None

    def dominates(self, kl1, kl2):
        (k1, l1), (k2, l2) = kl1, kl2
        if k1 != k2:
            return k1 > k2
        return sg.dominates(l1, l2)

    def module_index(self, k, lam):
        """Basis labels (t, v) of the cell module C(k, lam)."""
        k, lam = self._label(k, lam)
        tabs = sg.standard_tableaux(lam, 2 * k + 1)
        return [(t, v) for t in tabs for v in self.alg.Bkn[k]]

    def cell_basis_element(self, k, lam, su, tv):
        """x_{(s,u)(t,v)} in normal basis coordinates."""
        s, u = su
        t, v = tv
        perms, H = self.alg._T.perms, self.window(k)
        return {(k, u, perms[pi], v): c for pi, c in H.murphy_element(lam, s, t).items()}

    def cellular_labels(self):
        """All cellular basis labels (k, lam, (s,u), (t,v))."""
        out = []
        for k, lam in self.labels():
            idx = self.module_index(k, lam)
            for su in idx:
                for tv in idx:
                    out.append((k, lam, su, tv))
        return out

    def to_cellular(self, x):
        """Coordinates of an element in the cellular basis.

        Raises ValueError unless every key of x is a normal basis index
        (``QBrAlgebra.check_index``).
        """
        code, out, blocks = self.alg._T.code, {}, {}
        for idx, c in x.items():
            k, u, pi, v = self.alg.check_index(idx)
            blocks.setdefault((k, u, v), {})[code[pi]] = c
        for (k, u, v), helt in blocks.items():
            for (lam, s, t), c in self.window(k).to_murphy(helt).items():
                out[(k, lam, (s, u), (t, v))] = c
        return out

    def from_cellular(self, y):
        out = {}
        for (k, lam, (s, u), (t, v)), c in y.items():
            for idx, c2 in self.cell_basis_element(k, lam, (s, u), (t, v)).items():
                _acc(out, idx, c * c2)
        return out

    def gram(self, k, lam):
        """Gram matrix of C(k, lam) in the (t, v) basis order of
        ``module_index``, as field values.

        The form is held in the field's internal form (``_form``), packed
        over F_p at level k >= 1, and this is the one place that unpacks and
        converts it.  Each call hands out new lists, so a caller's edit
        reaches neither the form nor its determinant and rank.  A level
        whose parameter-ring build raised, at a term off level k or at a
        rewriting cycle, raises its message.
        """
        mat, f = self._form(k, lam)[0], self.field
        return [list(map(f.outer, row)) for row in (mat.residues(f.field[1]) if isinstance(mat, _Packed) else mat)]

    def _form(self, k, lam):
        """[Gram matrix, (det, rank or None) or None] of C(k, lam), the
        matrix in the field's internal form, made on first use.

        Level k >= 1 evaluates the Gram matrix of ``_universal_gram``.  Over
        F_p each monomial Q^i a^j b^l is evaluated once as a residue and
        each row as one dot product of those values with its packed rows of
        ``_fp_table``, a ``_Packed`` matrix; over the generic field it is a
        ``_Form`` of RatFuncs (``_laurent``), with its ``cell`` for
        ``det_rank`` where ``_substitutes`` takes the scalars; otherwise
        each monomial once per algebra in field values, then each entry
        i <= j, mirrored.

        Level 0 (module docstring) takes its block H_{1,1} = 1 from one
        product 1 . 1 per algebra, then the shared entry of ``_LEVEL0``,
        computed first if needed: entry (t, s) is psi(g_{d(t)} H_{1,1}
        g_{d(s)^{-1}}), one row of g_{d(t)} H_{1,1} times each g_{d(s)^{-1}}.
        """
        key = self._label(k, lam)
        if key in self._forms:
            return self._forms[key]
        k, lam = key
        alg, f = self.alg, self.field
        if k == 0:
            if self._level0 is None:
                code, one = alg._T.code, alg.one()
                self._level0 = {code[pi]: f.inner(c) for (k2, _, pi, _), c in alg.mul(one, one).items() if k2 == 0}
            memo = (self.n, lam, f.field, alg._Q, tuple(self._level0.items()))
            if memo not in _LEVEL0:
                T, H, psi = alg._T, alg.hecke, self._functional(0, lam)
                invs = [T.inv[T.code[sg.tableau_perm(self.n, t, 1)]] for t in sg.standard_tableaux(lam, 1)]
                rows = []
                for i, d in enumerate(invs):
                    x = H.star(H.rmul_perm(self._level0, d))  # g_{d(t)} H_{1,1}
                    rows.append([f.inner(_paired(H.rmul_perm(x, e), psi, f.dot)) for e in invs[i:]])
                _LEVEL0[memo] = [_mirrored(rows), None]
            self._forms[key] = form = _LEVEL0[memo]
            return form
        built = _universal_gram(self.n, k, lam)
        if isinstance(built, str):
            raise InternalInconsistency(built)
        monomials, rows = built
        if f.field[0] == "fp":
            p = f.field[1]
            w, table = _fp_table(self.n, k, lam, p)
            Q, a, b = alg._Q, alg._a, alg._b
            values = [pow(Q, i, p) * pow(a, j, p) * pow(b, l, p) % p for _, (i, j, l) in monomials]
            mat = _Packed([sum(map(mul, values, row)) for row in table], len(table), w)
        elif f.field[0] == "generic":
            mat = _Form(self._laurent(monomials, rows))
            if _substitutes(alg.Q, alg.a, alg.b):
                mat.cell = (self.n, k, lam, alg.Q, alg.a, alg.b)
        else:
            m = self._monomials
            for mono, (i, j, l) in monomials:
                if mono not in m:
                    m[mono] = alg.Q ** i * alg.a ** j * alg.b ** l
            get, dot = m.__getitem__, f.dot
            mat = _mirrored([[dot(map(get, keys), coeffs) for keys, coeffs in row] for row in rows])
        self._forms[key] = form = [mat, None]
        return form

    def _laurent(self, monomials, rows):
        """The ring Gram matrix of ``_universal_gram`` at this generic algebra
        as RatFunc rows.  The scalars s = Q, Q^-1, a, b are canonical
        N_s / D_s, and an entry sum_m c_m prod_s s^e_s (Q^i = (Q^-1)^-i for
        i < 0), t_s the largest e_s of its monomials, is exactly
        (sum_m c_m prod_s N_s^e_s D_s^(t_s - e_s)) / prod_s D_s^t_s: integer
        Laurent arithmetic alone, and one RatFunc per entry i <= j,
        mirrored.  Only the s with D_s != 1 enter t.  Each product is made
        once per algebra for each (monomial, t)."""
        alg, products = self.alg, self._products
        scalars = (alg.Q, alg.Qinv, alg.a, alg.b)
        fractions = [s for s, x in enumerate(scalars) if not x.den.is_one()]
        bases = [x.num for x in scalars] + [scalars[s].den for s in fractions]
        exps = {m: (max(i, 0), max(-i, 0), j, l) for m, (i, j, l) in monomials}
        power = lru_cache(maxsize=None)(lambda i, y: bases[i] ** y)
        den = lru_cache(maxsize=None)(lambda t: math.prod((power(4 + s, y) for s, y in enumerate(t) if y), start=_ONE))
        out = []
        for row in rows:
            out.append(entries := [])
            for keys, coeffs in row:
                t = tuple(max((exps[m][s] for m in keys), default=0) for s in fractions)
                num = {}
                get = num.get
                for m, c in zip(keys, coeffs):
                    terms = products.get((m, t))
                    if terms is None:
                        e = exps[m]
                        x = e + tuple(ts - e[s] for s, ts in zip(fractions, t))  # the exponents of bases
                        factors = [power(i, y) for i, y in enumerate(x) if y and not bases[i].is_one()]
                        terms = products[m, t] = reduce(mul, factors or [_ONE]).terms
                    for key, v in terms.items():
                        num[key] = get(key, 0) + c * v
                entries.append(RatFunc(LaurentPoly(num), den(t)))
        return _mirrored(out)

    def _rows(self, k, lam, blocks):
        """The Gram matrix of C(k, lam) from the block matrix of
        ``_block_matrix``, in internal coefficients: row i holds the entries
        j >= i.

        Entry ((t, v), (s, u)) is psi(g_{d(t)} H_{v,u} g_{d(s)^{-1}}), psi
        of ``_functional``, so it is the sum of H_{v,u}[w] psi_{t,s}(g_w),
        psi_{t,s}(h) = psi(g_{d(t)} h g_{d(s)^{-1}}).  For each tableau pair
        t <= s, psi_{t,s} is read once on every code w of the blocks'
        support, as psi of (g_{d(t)} g_w) g_{d(s)^{-1}}, and serves every
        pair (v, u).  Every sum is unreduced.
        """
        T, H, dot, one = self.alg._T, self.alg.hecke, self.field.dot, self.alg._one
        inv, lo = T.inv, 2 * k + 1
        psi = self._functional(k, lam)
        dts = [T.code[sg.tableau_perm(self.n, t, lo)] for t in sg.standard_tableaux(lam, lo)]
        support = {w for row in blocks for h in row for w in h}
        nb = len(blocks)
        rows = [[] for _ in range(len(dts) * nb)]
        for a, d in enumerate(dts):
            left = [(w, H.star(H.rmul_perm({inv[w]: one}, inv[d]))) for w in support]  # g_{d(t)} g_w
            for b in range(a, len(dts)):
                psi_ts = {}  # w -> psi_{t,s}(g_w)
                for w, g in left:
                    g = H.rmul_perm(g, inv[dts[b]])
                    psi_ts[w] = _paired(g, psi, dot)
                get = psi_ts.__getitem__
                for v, row in enumerate(blocks):  # v, u: positions in B_{k,n}
                    rows[a * nb + v] += [dot(h.values(), map(get, h)) for h in row[v if a == b else 0:]]
        return rows

    def _functional(self, k, lam):
        """psi(h) = phi(c_lam h c_lam) as {code: coeff} over the window,
        phi being the Murphy coordinate at (lam, t^lam, t^lam).

        A window code x is a d b with a, b in S_lam, d the least element of
        S_lam x S_lam and l(x) = l(a) + l(d) + l(b).  As c_lam g_a =
        Q^{l(a)} c_lam = g_a c_lam, and c_lam g_d c_lam = P_nu(Q) sum of g_w
        over S_lam x S_lam, P_nu(Q) the product of the [m_ij]_Q! over the
        blocks of nu = S_lam meet d S_lam d^-1 (Dipper-James, Proc. London
        Math. Soc. 52, 1986), psi(g_x) = Q^{l(x) - l(d)} P_nu(Q) sum of
        f(g_w) over S_lam x S_lam, f being ``_column_functional``.
        """
        alg, field = self.alg, self.field
        classes, where, top, *_ = _double_cosets(self.n, k, lam)
        f, sums, psi = self._column_functional(k, lam), {}, {}
        if not top:  # S_lam = 1: every class is one code, of shift 0
            return f
        for w, c in f.items():
            alg._acc(sums, where[w], c)
        powers = list(accumulate([alg.Q] * top, mul, initial=field.one()))
        facts = [None, *accumulate(accumulate(powers[:lam[0]]), mul)]  # [j]_Q!, j <= lam[0] <= top + 1
        powers = {s: field.inner(x) for s, x in enumerate(powers)}
        for c, total in sums.items():
            blocks, groups = classes[c]
            total = math.prod((facts[b] for b in blocks), start=field.outer(total))
            if not total.is_zero():
                scaled = alg._scale(powers, field.inner(total))
                for s, codes in groups:
                    v = scaled[s]
                    for x in codes:
                        psi[x] = v
        return psi

    def _column_functional(self, k, lam):
        """f(x) = [g_w](x g_w y_lam') as {code: coeff}, w = d(t_lam), the
        functional of the module docstring: pulled back through y_lam', whose
        weights (-Q)^{-l(b)} scale each coset sum step by -Q^-1, then through
        g_w one generator at a time, last letter first."""
        alg = self.alg
        *_, cols, w, word = _double_cosets(self.n, k, lam)
        pull, weight = partial(_pull, alg), self.field.inner(-alg.Qinv)
        f = self.window(k).coset_sums({w: alg._one}, cols, lambda x, i: alg._scale(pull(x, i), weight))
        for i in reversed(word):
            f = pull(f, i)
        return f

    def gram_det(self, k, lam):
        """Determinant of the Gram matrix of C(k, lam), computed once (at
        level 0, once per key of ``_LEVEL0``)."""
        form = self._form(k, lam)
        if form[1] is None:
            g = form[0]
            d = det(g, self.field)
            # a nonzero determinant fixes the rank; a zero one leaves it open
            form[1] = (d, None if d.is_zero() else len(g))
        return form[1][0]

    def radical_dim(self, k, lam):
        """Dimension of the radical of the form on C(k, lam).

        Eliminates the Gram matrix only if its rank is not known yet: a
        cell whose determinant came out nonzero has full rank."""
        form = self._form(k, lam)
        if form[1] is None or form[1][1] is None:
            form[1] = det_rank(form[0], self.field)
        return len(form[0]) - form[1][1]

    def quantum_characteristic(self):
        """e(Q) for the Hecke parameter Q of this algebra."""
        return quantum_char(self.alg.Q)

    def classify_simples(self, method="restricted"):
        """Labels (k, lam) with D(k, lam) != 0.

        ``restricted`` applies the classification theorem (lam must be
        e(Q)-restricted); ``gram`` checks directly whether the bilinear
        form is nonzero.  The two must agree.
        """
        e = self.quantum_characteristic()
        out = []
        for k, lam in self.labels():
            if method == "restricted":
                keep = is_restricted(lam, e)
            elif method == "gram":
                g = self.gram(k, lam)
                keep = any(not c.is_zero() for row in g for c in row)
            else:
                raise ValueError(f"unknown method {method!r}")
            if keep:
                out.append((k, lam))
        return out

    def is_semisimple(self):
        """(verdict, witness): witness is a label with singular form."""
        for k, lam in self.labels():
            if self.gram_det(k, lam).is_zero():
                return False, (k, lam)
        return True, None


def closed_form_criterion(n, version, spec, N=None):
    """The semisimplicity criteria for n in {2, 3} in closed form.

    Returns (verdict, details).  Evaluation raises DenominatorVanishes
    outside the admissible parameter domain of the version.
    """
    if n not in (2, 3):
        raise ValueError("closed forms are only stated for n in {2, 3}")
    eparam, extra = _closed_form_exprs(version, N)
    e = quantum_char(spec(eparam))
    if e <= n:
        return False, {"e": e, "extra_nonzero": None}
    if n == 2:
        return True, {"e": e, "extra_nonzero": None}
    val = spec(extra)
    return not val.is_zero(), {"e": e, "extra_nonzero": not val.is_zero()}


@lru_cache(maxsize=None)
def _closed_form_exprs(version, N):
    """The generic (e parameter, extra factor) of the n = 3 closed form,
    built once per process for each (version, N).

    The factor is the one-parameter one, 3 x (y - x)^2 (x^2 y - 1)/(x - 1)^3
    at q -> x, r -> y, for the version's map (x, y, c): rescaling e by the
    unit c is an isomorphism, so it leaves semisimplicity unchanged.  The e
    parameter is the version's Hecke parameter Q = x."""
    if version not in VERSION_MAPS:
        raise ValueError(f"no closed form for version {version!r}")
    x, y, _ = version_map(version, N)
    return x, 3 * x * (y - x) ** 2 * (x * x * y - 1) / ((x - 1) ** 3)
