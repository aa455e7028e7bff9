"""Exact coefficient arithmetic for the q-Brauer algebra.

The generic ground ring is the field of fractions of Z[q^{±1}, r^{±1}],
represented by :class:`RatFunc` (a quotient of two :class:`LaurentPoly`
values kept in a canonical coprime form).  Concrete ground fields for
specialised computations are prime fields (:class:`Fp`) and cyclotomic
fields Q(zeta_m) (:class:`Cyclo`); a :class:`Specialization` maps generic
coefficients into such a field by substituting invertible images for q
and r.

All coefficient classes overload the usual arithmetic operators, are
immutable and hashable, and expose ``is_zero``.  Division is exact field
division everywhere.

Each arithmetic job is written once.  One gcd, :func:`_biv_gcd`, serves
Z[q, r]: the heuristic gcd of Char, Geddes and Gonnet, from integer gcds
of evaluations, checked by exact division.  A gcd with a denominator in
Z[q], the only kind the algebras' scalars and Gram forms have, reduces to
Z[q] (:func:`_gcd_with`) and is taken by the same heuristic gcd's
univariate level.  One univariate toolkit on
exponent dicts (the ``_uni_*`` helpers) serves that gcd's images in Z[r],
the cyclotomic polynomials Phi_m, the arithmetic of Q(zeta_m) and the sums
and products of the parameter ring, whose packed monomial keys
(:class:`ParamPoly`) are int exponents too; one
routine, :func:`_power`, takes every power by repeated squaring; and
:func:`_lead` is the one graded-lex leading-term rule of Z[q, r].

RatFunc arithmetic keeps the canonical form by cross-cancellation
(Henrici): operands are canonical, so the gcds that a sum or product needs
are gcds of their factors, never of the full num*num' / den*den'.  Two
operands with denominator 1 add and multiply with no gcd at all, and an
inverse needs none.  Only the raw ``RatFunc(num, den)`` constructor runs
the full canonicalisation, :func:`_rat_canonical`.

The algebra code keeps its coefficients in an internal form that the
:class:`Specialization` of its field owns: ``inner`` converts a field value
in, ``outer`` converts back, ``acc`` adds into a dict entry and drops a zero,
``scale`` multiplies every value of a dict and ``dot`` sums the products of
two sequences in step.  Over F_p an internal coefficient is an int in
[0, p): ``acc`` and ``scale`` reduce mod p, so an unreduced product of
internal values can go straight in, ``dot`` returns its sum unreduced, and
no ``Fp`` object is made per operation.  Over the generic field, Q and
Q(zeta_m) the internal value is the field value itself.  The rewrite engine, the Hecke
actions and the Gram assembly work on internal values; their public
methods convert at entry and exit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
import heapq
import math
from operator import mul

__all__ = [
    "LaurentPoly",
    "RatFunc",
    "Fp",
    "Cyclo",
    "Specialization",
    "ParamPoly",
    "quantum_char",
    "DenominatorVanishes",
    "NotInvertible",
    "INFINITY",
]

INFINITY = math.inf


class DenominatorVanishes(ArithmeticError):
    """A denominator (or a required inverse) vanished under a specialization."""


class NotInvertible(ArithmeticError):
    """Division by a non-invertible coefficient."""


# ---------------------------------------------------------------------------
# integer polynomial helpers
#
# A "q-poly" is a dict {exponent: coeff} with non-negative exponents and
# no zero values; its coefficients are ints in the gcd's univariate images
# (polynomials in r) and exact division, and Fractions in Q(zeta_m).  A
# "biv poly" is a dict {(dq, dr): int}, likewise with non-negative
# exponents.  LaurentPoly handles the general (possibly negative exponent)
# case.
# ---------------------------------------------------------------------------


def _uni_trim(p):
    return {e: c for e, c in p.items() if c}


def _uni_deg(p):
    return max(p) if p else -1


def _uni_mul(a, b):
    # the larger operand runs inside, and the first term of the other seeds out
    if len(a) < len(b):
        a, b = b, a
    rest = iter(b.items())
    eb, cb = next(rest, (0, 0))
    out = {ea + eb: ca * cb for ea, ca in a.items()}
    get = out.get
    for eb, cb in rest:
        for ea, ca in a.items():
            e = ea + eb
            out[e] = get(e, 0) + ca * cb
    return _uni_trim(out)


def _uni_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _uni_trim(out)


def _uni_scale(a, c):
    if c == 0:
        return {}
    return {e: v * c for e, v in a.items()}


def _uni_content(p):
    g = 0
    for c in p.values():
        g = math.gcd(g, abs(c))
    return g


def _uni_primitive(p):
    g = _uni_content(p)
    if g in (0, 1):
        return dict(p)
    return {e: c // g for e, c in p.items()}


def _uni_divexact(a, b):
    """Exact division of integer q-polys; raises if not exact."""
    if not b:
        raise ZeroDivisionError("q-poly division by zero")
    a = dict(a)
    out = {}
    db, lb = _uni_deg(b), b[_uni_deg(b)]
    while a:
        da = _uni_deg(a)
        la = a[da]
        if da < db or la % lb:
            raise ArithmeticError("inexact q-poly division")
        e, c = da - db, la // lb
        out[e] = c
        for eb, cb in b.items():
            ne = eb + e
            a[ne] = a.get(ne, 0) - cb * c
            if not a[ne]:
                del a[ne]
    return out


def _uni_divmod(a, b):
    """Quotient and remainder of q-polys over a field (Fraction coefficients)."""
    a = dict(a)
    out = {}
    db = _uni_deg(b)
    lb = b[db]
    while a:
        da = _uni_deg(a)
        if da < db:
            break
        e, c = da - db, a[da] / lb
        out[e] = c
        for eb, cb in b.items():
            ne = eb + e
            a[ne] = a.get(ne, 0) - cb * c
            if not a[ne]:
                del a[ne]
    return out, a


def _biv_gcd(a, b):
    """gcd in Z[q, r]: positive graded-lex leading coefficient, times the
    gcd of the integer contents (the other operand when one is zero)."""
    a, b = {k: v for k, v in a.items() if v}, {k: v for k, v in b.items() if v}
    if not (a and b):
        return _biv_positive(a or b)
    return _biv_positive(_heu_gcd(a, b, True))


def _heu_gcd(a, b, biv):
    """gcd, up to sign, of nonzero a, b in Z[q, r] (biv, keys (dq, dr)) or
    Z[r] (int keys), by the heuristic gcd of Char, Geddes and Gonnet
    (J. Symbolic Comput. 7, 1989; Geddes-Czapor-Labahn 7.7).

    With the integer contents taken out, the first variable is evaluated at
    xi >= 2 min(|a|, |b|) + 2 (max norms), so at least one image is
    nonzero; the images' gcd is taken one level down (math.gcd for
    integers), its coefficients are read as balanced xi-adic digits, and
    the primitive part of that lift is the gcd if it divides a and b.  A
    xi this large makes any lift that divides both the gcd.  It fails only
    while xi is too small to lift the gcd times the integer gcd of the
    cofactors' images, or at the finitely many roots of a resultant of the
    cofactors, so the loop xi -> 2 xi + 1 ends."""
    ca, cb = _uni_content(a), _uni_content(b)
    a, b = {k: v // ca for k, v in a.items()}, {k: v // cb for k, v in b.items()}
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 2
    divexact = _biv_divexact if biv else _uni_divexact
    while True:
        if biv:
            ia, ib = {}, {}
            for img, p in ((ia, a), (ib, b)):
                for (dq, dr), c in p.items():
                    img[dr] = img.get(dr, 0) + c * xi**dq
            ia, ib = _uni_trim(ia), _uni_trim(ib)
            gamma = _heu_gcd(ia, ib, False) if ia and ib else ia or ib
            g = {(i, dr): d for dr, c in gamma.items() for i, d in _digits(c, xi)}
        else:
            gamma = math.gcd(*(sum(c * xi**e for e, c in p.items()) for p in (a, b)))
            g = dict(_digits(gamma, xi))
        g = _uni_primitive(g)
        try:
            divexact(a, g)
            divexact(b, g)
        except ArithmeticError:
            xi = 2 * xi + 1
        else:
            c = math.gcd(ca, cb)
            return {k: v * c for k, v in g.items()}


def _digits(n, xi):
    """The nonzero balanced base-xi digits (i, d) of n, -xi/2 < d <= xi/2."""
    i = 0
    while n:
        d = n % xi
        if d > xi // 2:
            d -= xi
        if d:
            yield i, d
        n, i = (n - d) // xi, i + 1


def _lead(p):
    """The graded-lex leading exponent (dq, dr) of a nonzero biv poly."""
    return max(p, key=lambda k: (k[0] + k[1], k[0]))


def _biv_positive(p):
    """Normalise sign so the graded-lex leading coefficient is positive."""
    if not p:
        return {}
    if p[_lead(p)] < 0:
        return {k: -v for k, v in p.items()}
    return dict(p)


def _biv_divexact(a, b):
    """Exact multivariate division in Z[q, r]; raises if not exact.

    The remainder's graded-lex leading terms come off a heap, so a division
    costs O(log) per term instead of a scan of the remainder."""
    if not b:
        raise ZeroDivisionError("poly division by zero")
    a = dict(a)
    out = {}
    kb = _lead(b)
    cb = b[kb]
    heap = [(-k[0] - k[1], -k[0], k) for k in a]
    heapq.heapify(heap)
    while a:
        ka = heapq.heappop(heap)[2]
        if ka not in a:
            continue
        ca = a[ka]
        dq, dr = ka[0] - kb[0], ka[1] - kb[1]
        if dq < 0 or dr < 0 or ca % cb:
            raise ArithmeticError("inexact poly division")
        c = ca // cb
        out[(dq, dr)] = c
        for k, v in b.items():
            nk = (k[0] + dq, k[1] + dr)
            if nk in a:
                a[nk] -= v * c
                if not a[nk]:
                    del a[nk]
            else:
                a[nk] = -v * c
                heapq.heappush(heap, (-nk[0] - nk[1], -nk[0], nk))
    return out


def _power(x, e, one):
    """x**e for an integer e >= 0 by repeated squaring; ``one`` is x**0."""
    out = one
    while True:
        if e & 1:
            out = out * x
        e >>= 1
        if not e:
            return out
        x = x * x


# ---------------------------------------------------------------------------
# Laurent polynomials in q and r over Z
# ---------------------------------------------------------------------------


class LaurentPoly:
    """An element of Z[q^{±1}, r^{±1}] as a dict {(q_exp, r_exp): coeff}."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}
        self._hash = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, c):
        return cls({(0, 0): int(c)})

    @classmethod
    def monomial(cls, c, dq=0, dr=0):
        return cls({(dq, dr): int(c)})

    @classmethod
    def gen_q(cls, e=1):
        return cls({(e, 0): 1})

    @classmethod
    def gen_r(cls, e=1):
        return cls({(0, e): 1})

    # -- structure ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {(0, 0): 1}

    def min_exps(self):
        if not self.terms:
            return (0, 0)
        return (min(k[0] for k in self.terms), min(k[1] for k in self.terms))

    def shifted(self, dq, dr):
        if not (dq or dr):
            return self
        return LaurentPoly({(k[0] + dq, k[1] + dr): v for k, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return LaurentPoly(out)

    def __neg__(self):
        return LaurentPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({k: v * other for k, v in self.terms.items()})
        out = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                k = (ka[0] + kb[0], ka[1] + kb[1])
                out[k] = out.get(k, 0) + va * vb
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("LaurentPoly powers must be non-negative")
        return _power(self, e, LaurentPoly.const(1))

    def evaluate(self, q_img, r_img, one):
        """Evaluate at invertible field elements q_img, r_img."""
        q_inv = one / q_img
        r_inv = one / r_img
        total = one - one
        for (dq, dr), c in self.terms.items():
            t = one * c
            t = t * _power(q_img if dq >= 0 else q_inv, abs(dq), one)
            t = t * _power(r_img if dr >= 0 else r_inv, abs(dr), one)
            total = total + t
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (dq, dr), c in sorted(self.terms.items()):
            s = str(c)
            if dq:
                s += f"*q^{dq}" if dq != 1 else "*q"
            if dr:
                s += f"*r^{dr}" if dr != 1 else "*r"
            bits.append(s)
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# rational functions in q and r
# ---------------------------------------------------------------------------

_ONE = LaurentPoly.const(1)


class RatFunc:
    """Element of Q(q, r) as num/den with a canonical representative.

    Canonical form: den is a genuine polynomial (minimal q and r exponents
    zero) with positive graded-lex leading coefficient, num and den have no
    common polynomial factor, and all monomial units have been absorbed
    into num.  Equality is therefore plain structural equality.

    The operators return this form without canonicalising their result
    (cross-cancellation, Knuth TAOCP vol. 2, 4.5.1): a/b * c/d divides out
    gcd(a, d) and gcd(c, b); a/b + c/d with g = gcd(b, d) forms
    t = a(d/g) + c(b/g) and divides out gcd(t, g); the inverse swaps num
    and den and fixes the monomial shift and the sign.  With both
    denominators 1 a sum or product is that of the numerators, gcd-free.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None, _canonical=False):
        if den is None:
            den = _ONE
        if den.is_zero():
            raise ZeroDivisionError("RatFunc with zero denominator")
        if not _canonical:
            num, den = _rat_canonical(num, den)
        self.num = num
        self.den = den
        self._hash = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_int(cls, c):
        return cls(LaurentPoly.const(c), _canonical=True)

    @classmethod
    def q(cls, e=1):
        return cls(LaurentPoly.gen_q(e), _canonical=True)

    @classmethod
    def r(cls, e=1):
        return cls(LaurentPoly.gen_r(e), _canonical=True)

    # -- structure ------------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def __eq__(self, other):
        if isinstance(other, int):
            other = RatFunc.from_int(other)
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = RatFunc.from_int(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a.terms:
            return other
        if not c.terms:
            return self
        if b == d:
            if b.is_one():
                return RatFunc(a + c, b, _canonical=True)
            g, bg, dg = b, _ONE, _ONE
        else:
            g = _gcd_with(b, d)
            if g.is_one():
                return RatFunc(a * d + c * b, b * d, _canonical=True)
            bg, dg = _divexact(b, g), _divexact(d, g)
        t = a * dg + c * bg
        if not t.terms:
            return RatFunc(t, _canonical=True)
        g2 = _gcd_with(t, g)
        return RatFunc(_divexact(t, g2), bg * _divexact(d, g2), _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den, _canonical=True)

    def __sub__(self, other):
        if isinstance(other, int):
            other = RatFunc.from_int(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = RatFunc.from_int(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if not (a.terms and c.terms):
            return RatFunc(LaurentPoly(), _canonical=True)
        if b.is_one() and d.is_one():
            return RatFunc(a * c, b, _canonical=True)
        g1, g2 = _gcd_with(a, d), _gcd_with(c, b)
        return RatFunc(
            _divexact(a, g1) * _divexact(c, g2),
            _divexact(b, g2) * _divexact(d, g1),
            _canonical=True,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = RatFunc.from_int(other)
        return self * other.inv()

    def __rtruediv__(self, other):
        if isinstance(other, int):
            other = RatFunc.from_int(other)
        return other / self

    def inv(self):
        """1/self: num and den swap, then the monomial shift and sign fix."""
        if not self.num.terms:
            raise NotInvertible("division by zero RatFunc")
        dq, dr = self.num.min_exps()
        num, den = self.den.shifted(-dq, -dr), self.num.shifted(-dq, -dr)
        if den.terms[_lead(den.terms)] < 0:
            num, den = -num, -den
        return RatFunc(num, den, _canonical=True)

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        return _power(self, e, RatFunc.from_int(1))

    def __repr__(self):
        if self.den.is_one():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


def _rat_canonical(num, den):
    if num.is_zero():
        return LaurentPoly(), LaurentPoly.const(1)
    # pull all monomial units out of den into num, then divide out the gcd,
    # which carries the gcd of the contents (Gauss's lemma)
    dq, dr = den.min_exps()
    den = den.shifted(-dq, -dr)
    num = num.shifted(-dq, -dr)
    g = _gcd_with(num, den)
    num, den = _divexact(num, g), _divexact(den, g)
    # fix sign via den's graded-lex leading coefficient
    if den.terms[_lead(den.terms)] < 0:
        den, num = -den, -num
    return num, den


def _gcd_with(x, d):
    """gcd in Z[q, r] of a nonzero LaurentPoly x and a polynomial d with no
    monomial factor, such as a canonical denominator.

    d has no monomial factor, so neither has the gcd, and the gcd of a
    monomial c q^i r^j with d is the integer gcd(c, content of d).

    A d in Z[q], as every denominator of the algebras' scalars and Gram
    forms is, reduces to Z[q]: with x = q^i r^j sum_k x_k r^k, x_k in Z[q],
    a common divisor of x and d divides d, so it is r-free, and an r-free g
    divides x iff it divides every x_k (x = g sum_k h_k r^k iff x_k = g h_k).
    So gcd(x, d) is the gcd in Z[q] of d and the x_k, unique up to sign:
    ``_heu_gcd``'s univariate level, one x_k at a time until it is +-1,
    signed as :func:`_biv_gcd` signs."""
    if d.is_one():
        return d
    if len(x.terms) == 1:
        (c,) = x.terms.values()
        return LaurentPoly.const(math.gcd(c, _uni_content(d.terms)))
    nq, nr = x.min_exps()
    if any(dr for _, dr in d.terms):
        return LaurentPoly(_biv_gcd(x.shifted(-nq, -nr).terms, d.terms))
    coeffs = {}
    for (dq, dr), c in x.terms.items():
        coeffs.setdefault(dr, {})[dq - nq] = c
    g = {dq: c for (dq, _), c in d.terms.items()}
    for xk in coeffs.values():
        if len(g) == 1 and abs(g.get(0, 0)) == 1:
            break
        g = _heu_gcd(g, xk, False)
    return LaurentPoly(_biv_positive({(dq, 0): c for dq, c in g.items()}))


def _divexact(x, g):
    """x / g for a LaurentPoly x and a divisor g of it from :func:`_gcd_with`."""
    if g.is_one():
        return x
    if len(g.terms) == 1:
        (c,) = g.terms.values()
        return LaurentPoly({k: v // c for k, v in x.terms.items()})
    nq, nr = x.min_exps()
    return LaurentPoly(_biv_divexact(x.shifted(-nq, -nr).terms, g.terms)).shifted(nq, nr)


# ---------------------------------------------------------------------------
# prime fields
# ---------------------------------------------------------------------------


class Fp:
    """An element of the prime field F_p."""

    __slots__ = ("p", "v")

    def __init__(self, p, v):
        self.p = p
        self.v = v % p

    def is_zero(self):
        return self.v == 0

    def is_one(self):
        return self.v == 1

    def _lift(self, other):
        if isinstance(other, int):
            return Fp(self.p, other)
        if isinstance(other, Fp) and other.p == self.p:
            return other
        raise TypeError(f"cannot coerce {other!r} into F_{self.p}")

    # a same-prime Fp operand, the hot case, skips _lift

    def __add__(self, other):
        if other.__class__ is not Fp or other.p != self.p:
            other = self._lift(other)
        return Fp(self.p, self.v + other.v)

    __radd__ = __add__

    def __neg__(self):
        return Fp(self.p, -self.v)

    def __sub__(self, other):
        if other.__class__ is not Fp or other.p != self.p:
            other = self._lift(other)
        return Fp(self.p, self.v - other.v)

    def __rsub__(self, other):
        return Fp(self.p, self._lift(other).v - self.v)

    def __mul__(self, other):
        if other.__class__ is not Fp or other.p != self.p:
            other = self._lift(other)
        return Fp(self.p, self.v * other.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not Fp or other.p != self.p:
            other = self._lift(other)
        if other.v == 0:
            raise NotInvertible(f"division by zero in F_{self.p}")
        return Fp(self.p, self.v * pow(other.v, -1, self.p))

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, e):
        if e < 0:
            return (Fp(self.p, 1) / self) ** (-e)
        return Fp(self.p, pow(self.v, e, self.p))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.v == other % self.p
        return isinstance(other, Fp) and self.p == other.p and self.v == other.v

    def __hash__(self):
        return hash(("Fp", self.p, self.v))

    def __repr__(self):
        return f"{self.v}"


# ---------------------------------------------------------------------------
# cyclotomic fields Q(zeta_m)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _phi(m):
    """Phi_m as a q-poly (shared; do not mutate)."""
    # x^m - 1 divided by the product of Phi_d for proper divisors d of m
    num = {0: -1, m: 1}
    for d in range(1, m):
        if m % d == 0:
            num = _uni_divexact(num, _phi(d))
    return num


def cyclotomic_poly(m):
    """Coefficient tuple (low to high) of the m-th cyclotomic polynomial."""
    phi = _phi(m)
    return tuple(phi.get(i, 0) for i in range(_uni_deg(phi) + 1))


def _check_conductor(m):
    """Raise ValueError unless m >= 1, the conductors of Q(zeta_m)."""
    if m < 1:
        raise ValueError(f"there is no cyclotomic field Q(zeta_{m})")


class Cyclo:
    """An element of Q(zeta_m), as a Fraction vector modulo Phi_m.

    ``Cyclo(1, ...)`` is plain Q, which is used as the exact rational field
    in specialisations that do not need a root of unity.
    """

    __slots__ = ("m", "coeffs")

    def __init__(self, m, coeffs):
        _check_conductor(m)
        self.m = m
        phi = _phi(m)
        deg = _uni_deg(phi)
        p = {i: Fraction(c) for i, c in enumerate(coeffs) if c}
        if _uni_deg(p) >= deg:
            p = _uni_divmod(p, phi)[1]
        self.coeffs = tuple(p.get(i, Fraction(0)) for i in range(deg))

    def _poly(self):
        return {i: c for i, c in enumerate(self.coeffs) if c}

    @classmethod
    def from_fraction(cls, m, fr):
        return cls(m, [Fraction(fr)])

    @classmethod
    def zeta(cls, m, e=1):
        _check_conductor(m)
        e %= m
        return cls(m, [Fraction(0)] * e + [Fraction(1)])

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_one(self):
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def _lift(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclo.from_fraction(self.m, other)
        if isinstance(other, Cyclo) and other.m == self.m:
            return other
        raise TypeError(f"cannot coerce {other!r} into Q(zeta_{self.m})")

    def __add__(self, other):
        other = self._lift(other)
        return Cyclo(self.m, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.m, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._lift(other)
        prod = _uni_mul(self._poly(), other._poly())
        return Cyclo(self.m, [prod.get(i, 0) for i in range(_uni_deg(prod) + 1)])

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        return self * other._inverse()

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, e):
        if e < 0:
            return self._inverse() ** (-e)
        return _power(self, e, Cyclo.from_fraction(self.m, 1))

    def _inverse(self):
        if self.is_zero():
            raise NotInvertible(f"division by zero in Q(zeta_{self.m})")
        # extended Euclid in Q[x] against Phi_m: s0 * self = r0 mod Phi_m
        r0, r1 = _phi(self.m), self._poly()
        s0, s1 = {}, {0: Fraction(1)}
        while r1:
            q, rem = _uni_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _uni_add(s0, _uni_scale(_uni_mul(q, s1), -1))
        # r0 is a nonzero constant gcd
        s = _uni_scale(s0, 1 / Fraction(r0[0]))
        return Cyclo(self.m, [s.get(i, 0) for i in range(_uni_deg(s) + 1)])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclo.from_fraction(self.m, other)
        return isinstance(other, Cyclo) and self.m == other.m and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Cyclo", self.m, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                bits.append(str(c))
            elif i == 1:
                bits.append(f"{c}*z" if c != 1 else "z")
            else:
                bits.append(f"{c}*z^{i}" if c != 1 else f"z^{i}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# specializations
# ---------------------------------------------------------------------------


def _acc(out, key, c):
    """Add c to out[key], keeping no zero values."""
    if key in out:
        s = out[key] + c
        if s.is_zero():
            del out[key]
        else:
            out[key] = s
    elif not c.is_zero():
        out[key] = c


def _same(x):
    return x


def _scale(x, c):
    return {key: v * c for key, v in x.items()}


def _dot(zero, xs, ys):
    return sum(map(mul, xs, ys), zero)


@lru_cache(maxsize=None)
def _fp_form(p):
    """(inner, outer, acc, scale, dot) of F_p, once per process for each
    prime p; its internal values are the ints in [0, p).  ``inner`` takes
    what ``Fp`` arithmetic takes, an int, reduced mod p with no Fp made, or
    an Fp of the same prime, and raises TypeError on anything else; ``acc`` and ``scale`` reduce mod p,
    so they take unreduced products, and ``dot`` leaves its sum unreduced."""
    zero = Fp(p, 0)

    def inner(x):
        if x.__class__ is int:
            return x % p
        if x.__class__ is not Fp or x.p != p:
            x = zero._lift(x)
        return x.v

    def outer(c):
        return Fp(p, c)

    def acc(out, key, c):
        c = (out.get(key, 0) + c) % p
        if c:
            out[key] = c
        elif key in out:
            del out[key]

    def scale(x, c):
        return {key: v * c % p for key, v in x.items()}

    return inner, outer, acc, scale, partial(_dot, 0)


# the first 13 primes, and psi_13: the least composite that is a strong
# probable prime to all of them
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(p):
    """Whether p is prime, by the Miller-Rabin test to the bases _MR_BASES.

    The test is proven exact for p < psi_13 = 3,317,044,064,679,887,385,961,981
    (Sorenson and Webster, Math. Comp. 86, 2017); a larger p raises
    ValueError.
    """
    if p >= _MR_LIMIT:
        raise ValueError(f"{p} is too large: the primality test is proven only below {_MR_LIMIT}")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Specialization:
    """A ring map Z[q^{±1}, r^{±1}] -> F determined by images of q and r.

    ``field`` is one of ``("generic",)``, ``("fp", p)`` or ``("cyclo", m)``,
    the rationals being ``("cyclo", 1)``.  The images must be invertible in
    F; applying the map to a RatFunc whose canonical denominator vanishes
    raises :class:`DenominatorVanishes`.  On the generic field with images
    q and r the map is the identity and returns a RatFunc unchanged.

    The internal form of F (see the module docstring) is given by five
    functions: ``inner(x)`` and ``outer(c)`` convert a field value in and
    out, ``acc(out, key, c)`` adds c to out[key] and drops the key if the
    sum is zero, ``scale(x, c)`` is {key: v c} for a nonzero c, and
    ``dot(xs, ys)`` is the sum of the products x y of the values the two
    iterables give in step.
    """

    def __init__(self, field, q_img, r_img):
        self.field = tuple(field)
        self.q_img = q_img
        self.r_img = r_img
        for name, img in (("q", q_img), ("r", r_img)):
            if img.is_zero():
                raise DenominatorVanishes(f"image of {name} must be invertible")
        self._identity = self.field == ("generic",) and (q_img, r_img) == (RatFunc.q(), RatFunc.r())
        if self.field[0] == "fp":
            p = self.field[1]
            self._one, self._zero = Fp(p, 1), Fp(p, 0)
            self.inner, self.outer, self.acc, self.scale, self.dot = _fp_form(p)
            # the images of q, r, q^-1 and r^-1 as residues, for ``residue``
            self._images = (q_img.v, r_img.v, pow(q_img.v, -1, p), pow(r_img.v, -1, p))
        else:
            self._one, self._zero = q_img / q_img, q_img - q_img
            if self._one.is_zero():  # pragma: no cover - sanity
                raise ValueError("degenerate target field")
            self.inner = self.outer = _same
            self.acc, self.scale, self.dot = _acc, _scale, partial(_dot, self._zero)

    @classmethod
    def generic(cls):
        return cls(("generic",), RatFunc.q(), RatFunc.r())

    @classmethod
    def rationals(cls, q_img, r_img):
        return cls(("cyclo", 1), Cyclo.from_fraction(1, q_img), Cyclo.from_fraction(1, r_img))

    @classmethod
    def prime_field(cls, p, q_img, r_img):
        # F_p is a field, and its nonzero values invertible, only for prime p
        if not _is_prime(p):
            raise ValueError(f"{p} is not a prime")
        return cls(("fp", p), Fp(p, q_img), Fp(p, r_img))

    @classmethod
    def cyclotomic(cls, m, q_img, r_img):
        _check_conductor(m)
        for name, img in (("q", q_img), ("r", r_img)):
            if not (isinstance(img, Cyclo) and img.m == m):
                raise ValueError(f"image of {name} is not in Q(zeta_{m}): {img!r}")
        return cls(("cyclo", m), q_img, r_img)

    def one(self):
        return self._one

    def zero(self):
        return self._zero

    def from_int(self, c):
        return self.one() * c

    def __call__(self, x):
        if isinstance(x, int):
            return self.from_int(x)
        if not isinstance(x, RatFunc) or self._identity:
            return x
        if self.field[0] == "fp":
            return Fp(self.field[1], self.residue(x))
        one = self.one()
        den = x.den.evaluate(self.q_img, self.r_img, one)
        if den.is_zero():
            raise DenominatorVanishes(f"denominator {x.den!r} vanishes")
        if x.num.is_zero():
            return self.zero()
        num = x.num.evaluate(self.q_img, self.r_img, one)
        return num / den

    def residue(self, x):
        """The value of a RatFunc x over F_p as its residue in [0, p), on
        residues throughout: the sums of c q^dq r^dr mod p, negative powers
        being powers of the inverses."""
        p = self.field[1]
        den = self._residue(x.den, p)
        if not den:
            raise DenominatorVanishes(f"denominator {x.den!r} vanishes")
        return self._residue(x.num, p) * pow(den, -1, p) % p

    def _residue(self, poly, p):
        """The residue in [0, p) of a LaurentPoly at the F_p images."""
        q, r, qinv, rinv = self._images
        s = 0
        for (dq, dr), c in poly.terms.items():
            s += c * (pow(q, dq, p) if dq >= 0 else pow(qinv, -dq, p)) * (pow(r, dr, p) if dr >= 0 else pow(rinv, -dr, p))
        return s % p


# ---------------------------------------------------------------------------
# the parameter ring Z[Q^{±1}, a, b]
# ---------------------------------------------------------------------------

_SHIFT = 32  # Q^i a^j b^l has the key i + j 2^32 + l 2^64, |i|, j, l < 2^31


def _exponents(key):
    """(i, j, l) of the monomial Q^i a^j b^l keyed by ``key``."""
    jl, i = divmod(key + (1 << _SHIFT - 1), 1 << _SHIFT)
    return (i - (1 << _SHIFT - 1),) + divmod(jl, 1 << _SHIFT)[::-1]


class ParamPoly:
    """An element of Z[Q^{±1}, a, b] as {monomial key: nonzero int}; keys
    add as the exponents do.  The class is also the internal form (see
    :class:`Specialization`) of ``QBrAlgebra.over_parameters``, whose Q,
    Q^{-1}, a and b are ``Q``, ``Qinv``, ``a`` and ``b``.  Only ring
    operations (negation and subtraction included), ``dot`` and equality
    are defined, so its values specialise to any algebra by evaluating
    those four, a ring homomorphism."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, ParamPoly) and self.terms == other.terms

    def __pow__(self, e):
        if e < 0:
            raise ValueError("ParamPoly powers must be non-negative")
        return _power(self, e, ParamPoly.one())

    def __add__(self, other):
        return ParamPoly(_uni_add(self.terms, other.terms))

    def __neg__(self):
        return ParamPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):  # another ParamPoly or an int
        return self + -(other if isinstance(other, ParamPoly) else ParamPoly({0: other}))

    def __mul__(self, other):
        return ParamPoly(_uni_mul(self.terms, other.terms))

    @staticmethod
    def dot(xs, ys):
        """The sum of the products x y of xs and ys in step, in one monomial
        dict."""
        out = {}
        get = out.get
        for x, y in zip(xs, ys):
            for ea, ca in x.terms.items():
                for eb, cb in y.terms.items():
                    e = ea + eb
                    out[e] = get(e, 0) + ca * cb
        return ParamPoly(_uni_trim(out))

    inner = outer = staticmethod(_same)
    acc, scale = staticmethod(_acc), staticmethod(_scale)
    one = staticmethod(lambda: ParamPoly({0: 1}))
    zero = staticmethod(lambda: ParamPoly({}))


ParamPoly.Q, ParamPoly.Qinv, ParamPoly.a, ParamPoly.b = (
    ParamPoly({m: 1}) for m in (1, -1, 1 << _SHIFT, 1 << 2 * _SHIFT)
)


def quantum_char(x):
    """Least m >= 1 with 1 + x + ... + x^{m-1} = 0, or INFINITY.

    For x = 1 this is the characteristic of the ground field; otherwise it
    is the multiplicative order of x when finite.  That order divides the
    group exponent N, p - 1 in F_p and lcm(2, m) in Q(zeta_m), whose roots
    of unity are the lcm(2, m)-th ones: x has finite order iff x^N = 1, and
    then it is N with each prime factor l divided out while x^(N/l) = 1.
    """
    if not isinstance(x, (Fp, Cyclo, RatFunc)):
        raise TypeError(f"quantum_char expects a field element, not {type(x)!r}")
    if x.is_zero():
        raise ValueError("quantum_char of 0 is undefined")
    if x.is_one():
        return x.p if isinstance(x, Fp) else INFINITY
    if isinstance(x, RatFunc):
        return 2 if x == RatFunc.from_int(-1) else INFINITY
    order = x.p - 1 if isinstance(x, Fp) else math.lcm(2, x.m)
    if not (x**order).is_one():
        return INFINITY
    for ell in _prime_factors(order):
        while order % ell == 0 and (x ** (order // ell)).is_one():
            order //= ell
    return order


def _prime_factors(n):
    """The distinct prime factors of n >= 1: trial division by the primes
    of _MR_BASES, then ``_is_prime`` on each cofactor (a cofactor beyond its
    proven range raises ValueError) and Pollard's rho (``_rho``) to split
    the composite ones."""
    out = set()
    for ell in _MR_BASES:
        if n % ell == 0:
            out.add(ell)
            while n % ell == 0:
                n //= ell
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if _is_prime(m):
            out.add(m)
        else:
            d = _rho(m)
            rest += [d, m // d]
    return sorted(out)


def _rho(n):
    """A proper factor of a composite n by Pollard's rho with Brent's cycle
    finding (BIT 20, 1980): y runs through y -> y^2 + c mod n and is
    compared with its value at the last power of two steps; a polynomial
    whose cycle gives only n itself is replaced by the next c."""
    c = 0
    while True:
        c += 1
        x = y = 2
        g, power, steps = 1, 1, 0
        while g == 1:
            if steps == power:
                x, power, steps = y, 2 * power, 0
            y, steps = (y * y + c) % n, steps + 1
            g = math.gcd(x - y, n)
        if g != n:
            return g
