"""Explicit solution families and their analytic 2-jets.

Four closed forms, one catastrophically simple regression anchor, and the
domain check that keeps evaluation away from the singular cone boundary:

* a logarithmic blow-up family for the timelike string (Born-Infeld)
  equation, u = k*log((T-t+x)/(T-t-x)) on the interior lightcone;
* shrinking-sphere caps u = +/- sqrt((T-t)^2 - r^2) for the radial membrane
  equation, living on the backward lightcone and exactly lightlike;
* the claimed spacelike family u = k*asinh(y/(T-x)) (kept because the audit
  must measure that its residual is NOT zero) and the corrected family
  u = k*arctan(y/(T-x)) which actually solves the elliptic graph equation;
* the constant-profile solution u = c*(T-t).

Derivatives are hand-derived, hard-coded expressions -- never finite
differences -- because the residual certification needs machine precision.
The same expression tree evaluates on scalars or whole arrays, in double
precision or in double-double arithmetic (DoubleDouble, about 32 significant
digits), and forms each repeated subexpression once: evaluate_jet and
evaluate_jet_extended are the module's two evaluators. The value u itself
is the double formula in both, since no residual reads it, so double-double
needs no log, atan or asinh, and a check that reads only the slopes (every
residual, the steady families' among them) passes through none of them.
In double-double the sample coordinates, T, k and the value are exact
doubles (no low part), so the sums and products they enter take the
shorter formulas, with the bits of the general ones.
Members sharing T and one formula (the log members, which differ in k; the
two caps, which differ in the sign s) evaluate as one batch whose constants
broadcast against the points. So one call serves a single point, an
evolution grid or a whole extended-precision certification sweep of several
members.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .numerics import Jet2


class Family(Enum):
    BORN_INFELD_LOG = "log"
    MEMBRANE_SPHERE_PLUS = "sphere-plus"
    MEMBRANE_SPHERE_MINUS = "sphere-minus"
    SPACELIKE_LOG_CLAIMED = "log-claimed"
    SPACELIKE_ARCTAN_CORRECTED = "arctan-corrected"
    CONSTANT_PROFILE = "constant"


_K_REQUIRED = {
    Family.BORN_INFELD_LOG,
    Family.SPACELIKE_LOG_CLAIMED,
    Family.SPACELIKE_ARCTAN_CORRECTED,
}
_CAPS = (Family.MEMBRANE_SPHERE_PLUS, Family.MEMBRANE_SPHERE_MINUS)


_SPLITTER = 134217729.0  # 2^27 + 1: Veltkamp's split of a 53-bit significand
# the int factors of the formulas that a product scales by exactly, unsplit
_SCALES = frozenset({2, 4, -1, -2})


def two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def two_diff(a, b):
    """two_sum(a, -b) to the bit, without forming -b. Its error can come out
    -0.0 (a = -0.0) where two_sum's is never negative zero; + 0.0 makes it
    +0.0."""
    s = a - b
    v = s - a
    return s, ((a - (s - v)) - (b + v)) + 0.0


def _quick_two_sum(a, b):
    """two_sum for |a| >= |b|, in three operations (Dekker)."""
    s = a + b
    return s, b - (s - a)


def split(a):
    """Veltkamp's split of a into two 26-bit halves (hi, lo), hi + lo = a."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod(a, b, a_halves, b_halves):
    """(p, e) with p = fl(a * b) and p + e = a * b exactly (Dekker), from the
    factors' halves split(a) and split(b). The split bounds the factors
    below 2^996, where 2^27 + 1 times them stays in double range; the
    products that scale by 2, 4 or -1 form no split and are exempt. A square
    (one halves tuple for both factors) forms its cross term once, which
    gives the same bits."""
    p = a * b
    a_hi, a_lo = a_halves
    if b_halves is a_halves:
        cross = a_hi * a_lo
        return p, ((a_hi * a_hi - p) + cross + cross) + a_lo * a_lo
    b_hi, b_lo = b_halves
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _exact(x):
    """x as a DoubleDouble operand: x itself, or the exact double(s) x."""
    return x if isinstance(x, DoubleDouble) else DoubleDouble(x)


class DoubleDouble:
    """The unevaluated sum hi + lo of two doubles, or of two arrays of them,
    with |lo| <= ulp(hi)/2: about 32 significant digits (the algorithms of
    Hida, Li and Bailey, ARITH-15, 2001).

    lo None marks an exact double (a sample coordinate, T, k, the value), and
    a plain number or array operand is one too. An operation with an exact
    operand takes a shorter formula with the bits the general formulas get
    on a zero low part, zero signs included: exact +- exact is one two_sum
    or two_diff; exact x exact is one two_prod and its renormalisation,
    which two_prod's inexact error in the subnormal range needs; a
    double-double plus, minus or times an exact double drops the terms of
    the zero low part (Hida, Li and Bailey's double-double by double); and a
    product by the int 2, 4, -1 or -2 scales hi and lo exactly, with no
    split. Where the general formulas turn a -0.0 result into +0.0, the
    shortcuts add 0.0 to do the same. hi's Veltkamp split is formed at its
    first product and kept for the others. A quotient corrects the double
    quotient q by the remainder self - other * q, of which it reads only the
    high word, so the remainder's last low part is never formed.
    """

    __slots__ = ("hi", "lo", "_halves")
    # numpy ufuncs refuse the type, so ndarray and numpy-scalar operands fall
    # back to its reflected operators instead of building object arrays
    __array_ufunc__ = None

    def __init__(self, hi, lo=None):
        self.hi, self.lo, self._halves = hi, lo, None

    def halves(self):
        """split(hi), formed at the first call and kept."""
        if self._halves is None:
            self._halves = split(self.hi)
        return self._halves

    def reshape(self, shape):
        lo = None if self.lo is None else self.lo.reshape(shape)
        return DoubleDouble(self.hi.reshape(shape), lo)

    def item(self):
        return DoubleDouble(self.hi.item(), None if self.lo is None else self.lo.item())

    def __float__(self):
        return float(self.hi if self.lo is None else self.hi + self.lo)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.hi if self.lo is None else self.hi + self.lo, dtype=dtype)

    def __neg__(self):
        return DoubleDouble(-self.hi, None if self.lo is None else -self.lo)

    def _sum_words(self, other, subtract):
        """(s, e) whose _quick_two_sum is self + other, or self - other by
        two_diff when subtract: the sum before its last renormalisation."""
        s, e = (two_diff if subtract else two_sum)(self.hi, other.hi)
        if other.lo is None:
            return s, (e if self.lo is None else e + self.lo)
        if self.lo is None:
            return s, (e - other.lo if subtract else e + other.lo)
        t, f = (two_diff if subtract else two_sum)(self.lo, other.lo)
        s, e = _quick_two_sum(s, e + t)
        return s, e + f

    def _sum(self, other, subtract):
        """self + other, or self - other when subtract."""
        s, e = self._sum_words(other, subtract)
        if self.lo is None and other.lo is None:
            return DoubleDouble(s + 0.0, e)  # two_sum's words need no renormalising
        return DoubleDouble(*_quick_two_sum(s, e))

    def __add__(self, other):
        return self._sum(_exact(other), False)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(_exact(other), True)

    def __rsub__(self, other):
        return DoubleDouble(other)._sum(self, True)

    def __mul__(self, other):
        if type(other) is int and other in _SCALES:
            lo = None if self.lo is None else self.lo * other + 0.0
            return DoubleDouble(self.hi * other + 0.0, lo)
        other = _exact(other)
        p, e = two_prod(self.hi, other.hi, self.halves(), other.halves())
        if self.lo is None:
            if other.lo is not None:
                e = e + self.hi * other.lo
        elif other.lo is None:
            e = e + self.lo * other.hi
        elif other is self:
            # hi * lo is lo * hi exactly, so the cross term is formed once
            cross = self.hi * self.lo
            e = e + (cross + cross)
        else:
            e = e + (self.hi * other.lo + self.lo * other.hi)
        return DoubleDouble(*_quick_two_sum(p, e))

    __rmul__ = __mul__

    def __truediv__(self, other):
        # the double quotient, corrected by the remainder it leaves, of which
        # only the high word, s + e of the renormalisation, is read
        other = _exact(other)
        q = self.hi / other.hi
        s, e = self._sum_words(other * q, True)
        return DoubleDouble(*_quick_two_sum(q, (s + e) / other.hi))

    def sqrt(self):
        # one Newton correction of the double root: (x - s^2) / (2 s)
        s = np.sqrt(self.hi)
        halves = split(s)
        p, e = two_prod(s, s, halves, halves)
        lo = 0.0 if self.lo is None else self.lo
        return DoubleDouble(*_quick_two_sum(s, ((self.hi - p) - e + lo) / (2.0 * s)))


@dataclass(frozen=True)
class ClosedFormSolution:
    """One member of an explicit solution family.

    T is the blow-up (or translation) parameter; k is the family constant
    where the family has one -- it doubles as the constant c for the
    constant-profile anchor and is ignored by the sphere caps.
    """

    family: Family
    T: float
    k: float = 1.0

    def __post_init__(self) -> None:
        for name, value in (("T", self.T), ("k", self.k)):
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if not (self.T > 0):
            raise DomainError(f"T must be positive, got {self.T}")
        if self.family in _K_REQUIRED and self.k == 0.0:
            raise DomainError(f"family {self.family.value} needs k != 0")


def _check_interior(sol: ClosedFormSolution, a: np.ndarray, b: np.ndarray) -> None:
    """Raise DomainError naming the violated inequality unless every point
    (a[i], b[i]) is strictly inside sol's validity region; the message
    describes the first violating point.

    Validity regions for evaluation are the open sets on which the jets are
    finite; they admit t = 0 (the sphere caps and the log family are perfectly
    smooth there) but exclude the cone boundary where derivatives diverge.
    """
    T = sol.T
    fam = sol.family
    time_checks = [
        (0.0 <= a, "0 <= t violated: t={a}"),
        (a < T, "t < T violated: t={a}, T={T}"),
    ]
    if fam is Family.BORN_INFELD_LOG:
        checks = time_checks + [(abs(b) < T - a, "|x| < T-t violated: |{b}| >= {gap}")]
    elif fam in _CAPS:
        checks = time_checks + [
            (0.0 <= b, "0 <= r violated: r={b}"),
            (b < T - a, "r < T-t violated: r={b} >= {gap}"),
        ]
    elif fam in (Family.SPACELIKE_LOG_CLAIMED, Family.SPACELIKE_ARCTAN_CORRECTED):
        checks = [(a < T, "x < T violated: x={a}, T={T}")]
    else:  # constant profile
        checks = time_checks[1:]
    inside = np.logical_and.reduce([ok for ok, _ in checks])
    if not inside.all():
        i = int(np.argmin(inside))
        a_i, b_i = float(a[i]), float(b[i])
        message = next(msg for ok, msg in checks if not ok[i])
        raise DomainError(message.format(a=a_i, b=b_i, T=T, gap=T - a_i))


def _batch(sol) -> tuple:
    """sol as a tuple of members: sol itself, or the members of a sequence,
    which must share T and one jet formula."""
    members = (sol,) if isinstance(sol, ClosedFormSolution) else tuple(sol)
    # the caps are one formula, u = s sqrt(A^2 - r^2) with sign s = +/-1
    if len({(m.T, _CAPS if m.family in _CAPS else m.family) for m in members}) != 1:
        raise DomainError(
            "a batch needs members sharing T and one jet formula, got "
            + (", ".join(f"{m.family.value} at T={m.T}" for m in members) or "none")
        )
    return members


def _coefficient(sol: ClosedFormSolution) -> float:
    """The constant of sol's formula: the cap's sign s, else k."""
    if sol.family in _CAPS:
        return 1.0 if sol.family is Family.MEMBRANE_SPHERE_PLUS else -1.0
    return float(sol.k)


def _value(fam: Family, T, k, a, b):
    """u itself, in double precision: the value entry of both backends."""
    if fam is Family.BORN_INFELD_LOG:
        A = T - a
        return k * np.log((A + b) / (A - b))
    if fam in _CAPS:
        A = T - a
        return k * np.sqrt(A * A - b * b)
    if fam is Family.SPACELIKE_LOG_CLAIMED:
        return k * np.arcsinh(b / (T - a))
    if fam is Family.SPACELIKE_ARCTAN_CORRECTED:
        return k * np.arctan(b / (T - a))
    return k * (T - a)


def _jet_terms(fam: Family, T, k, a, b, sqrt):
    """(d_a, d_b, d_aa, d_ab, d_bb) in the arithmetic of T, k, a and b, with
    sqrt the backend's root; k is the formula's constant (the sign s for the
    caps) and broadcasts against a and b."""
    if fam is Family.BORN_INFELD_LOG:
        # u = k log((A+x)/(A-x)), A = T-t
        A = T - a
        x = b
        AA, xx, k2 = A * A, x * x, 2 * k
        D = AA - xx
        D2 = D * D
        ut = k2 * x / D
        ux = k2 * A / D
        utt = 4 * k * A * x / D2
        utx = k2 * (AA + xx) / D2
        return ut, ux, utt, utx, utt  # u_xx = u_tt on this family

    if fam in _CAPS:
        # u = s sqrt(A^2 - r^2), A = T-t
        s = k
        A = T - a
        r = b
        S = sqrt(A * A - r * r)
        S3 = S * S * S
        sA, sr = -s * A, -s * r
        ut = sA / S
        ur = sr / S
        utt = sr * r / S3
        utr = sA * r / S3
        urr = sA * A / S3
        return ut, ur, utt, utr, urr

    if fam is Family.SPACELIKE_LOG_CLAIMED:
        # u = k asinh(y/B), B = T-x   (the printed family; not a solution)
        B = T - a
        y = b
        BB, ky = B * B, k * y
        Q = sqrt(BB + y * y)
        Q3 = Q * Q * Q
        ux = ky / (B * Q)
        uy = k / Q
        uxx = ky * (Q * Q + BB) / (BB * Q3)
        uxy = k * B / Q3
        uyy = -k * y / Q3
        return ux, uy, uxx, uxy, uyy

    if fam is Family.SPACELIKE_ARCTAN_CORRECTED:
        # u = k arctan(y/B), B = T-x
        B = T - a
        y = b
        BB, yy = B * B, y * y
        P = BB + yy
        P2 = P * P
        ux = k * y / P
        uy = k * B / P
        uxx = 2 * k * B * y / P2
        uxy = k * (BB - yy) / P2
        uyy = -2 * k * B * y / P2
        return ux, uy, uxx, uxy, uyy

    # constant profile u = c (T - t); k carries c
    ut = -k * (0 * a + 1)
    zero = ut - ut  # +0.0 in the full shape, in either arithmetic
    return ut, zero, zero, zero, zero


def _evaluate(sol, point, extended: bool) -> Jet2:
    """The jet of sol, or of a batch of members, at the points, checked
    strictly inside the members' validity region."""
    members = _batch(sol)
    first = members[0]
    fam, T = first.family, float(first.T)
    a, b = np.broadcast_arrays(
        np.asarray(point[0], dtype=float), np.asarray(point[1], dtype=float)
    )
    shape = a.shape if isinstance(sol, ClosedFormSolution) else (len(members), *a.shape)
    a, b = a.ravel(), b.ravel()
    _check_interior(first, a, b)
    # one row per member, broadcast against the points, so the terms without
    # the constant are formed once for the whole batch; a lone member's
    # constant stays a scalar, which numpy combines with an array faster
    ks = [_coefficient(m) for m in members]
    k = ks[0] if len(ks) == 1 else np.array(ks)[:, None]
    value = _value(fam, T, k, a, b)
    if extended:
        # exact doubles: no zero low parts, and each split formed once
        value, T, k, a, b = (DoubleDouble(v) for v in (value, T, k, a, b))
    # the backend root: in double-double the one function the slopes need
    sqrt = DoubleDouble.sqrt if extended else np.sqrt
    terms = [t.reshape(shape) for t in (value, *_jet_terms(fam, T, k, a, b, sqrt))]
    if not shape:
        terms = [t.item() for t in terms]
    value, d_a, d_b, d_aa, d_ab, d_bb = terms
    return Jet2(value=value, d1=(d_a, d_b), d2=(d_aa, d_ab, d_bb))


def evaluate_jet(sol: ClosedFormSolution, point) -> Jet2:
    """Exact value and all first/second partials at strict-interior points.

    point = (a, b) holds scalars or broadcastable arrays. Scalars give a Jet2
    of floats; arrays give a Jet2 whose entries are arrays of the broadcast
    shape. Boundary evaluation (|x| = T-t, r = T-t) is a DomainError;
    derivative formulas are singular there.

    sol may also be a sequence of members sharing T and one jet formula (the
    two sphere caps are one formula, with sign s = +/-1): each entry then
    gains a leading axis with one row per member, all at the same points.
    """
    return _evaluate(sol, point, extended=False)


def evaluate_jet_extended(sol: ClosedFormSolution, point) -> Jet2:
    """Same jet, with its slopes computed in double-double arithmetic.

    Entries are DoubleDouble scalars, or DoubleDouble arrays for array input
    or a batch of members. Arithmetic on them stays in double-double, which
    is how the certification sweeps hold residuals of true solutions some
    16 digits below the double rounding floor. The value entry, the one term
    that needs log, atan or asinh and that no residual reads, is
    evaluate_jet's value to the bit, with a zero low part.
    """
    return _evaluate(sol, point, extended=True)
