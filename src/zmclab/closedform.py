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
digits). The value u itself is the double formula in both, since no residual
reads it, so double-double needs no log, atan or asinh. Members sharing T
and one formula (the log members, which differ in k; the two caps, which
differ in the sign s) evaluate as one batch whose constants broadcast
against the points. So one call serves a single point, an evolution grid or
a whole extended-precision certification sweep of several members.
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


def two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _quick_two_sum(a, b):
    """two_sum for |a| >= |b|, in three operations (Dekker)."""
    s = a + b
    return s, b - (s - a)


def two_prod(a, b):
    """(p, e) with p = fl(a * b) and p + e = a * b exactly (Dekker) for |a|, |b|
    below 2^996, each factor split into two 26-bit halves (Veltkamp)."""
    p = a * b
    t, u = _SPLITTER * a, _SPLITTER * b
    a_hi, b_hi = t - (t - a), u - (u - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def two_square(a):
    """two_prod(a, a) with a split once and its cross term a_hi * a_lo formed
    once: the same operations on the same values, so the same bits."""
    p = a * a
    t = _SPLITTER * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    cross = a_hi * a_lo
    return p, ((a_hi * a_hi - p) + cross + cross) + a_lo * a_lo


class DoubleDouble:
    """The unevaluated sum hi + lo of two doubles, or of two arrays of them,
    with |lo| <= ulp(hi)/2: about 32 significant digits (the algorithms of
    Hida, Li and Bailey, ARITH-15, 2001). Other operands are exact doubles."""

    __slots__ = ("hi", "lo")
    # numpy ufuncs refuse the type, so ndarray and numpy-scalar operands fall
    # back to its reflected operators instead of building object arrays
    __array_ufunc__ = None

    def __init__(self, hi, lo):
        self.hi, self.lo = hi, lo

    def reshape(self, shape):
        return DoubleDouble(self.hi.reshape(shape), self.lo.reshape(shape))

    def item(self):
        return DoubleDouble(self.hi.item(), self.lo.item())

    def __float__(self):
        return float(self.hi + self.lo)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.hi + self.lo, dtype=dtype)

    def __neg__(self):
        return DoubleDouble(-self.hi, -self.lo)

    def __add__(self, other):
        if isinstance(other, DoubleDouble):
            s, e = two_sum(self.hi, other.hi)
            t, f = two_sum(self.lo, other.lo)
            s, e = _quick_two_sum(s, e + t)
            return DoubleDouble(*_quick_two_sum(s, e + f))
        s, e = two_sum(self.hi, other)
        return DoubleDouble(*_quick_two_sum(s, e + self.lo))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if other is self:
            # hi * lo is lo * hi exactly, so the cross term is formed once
            p, e = two_square(self.hi)
            cross = self.hi * self.lo
            return DoubleDouble(*_quick_two_sum(p, e + (cross + cross)))
        if not isinstance(other, DoubleDouble):
            other = DoubleDouble(other, 0.0)
        p, e = two_prod(self.hi, other.hi)
        return DoubleDouble(*_quick_two_sum(p, e + (self.hi * other.lo + self.lo * other.hi)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        # the double quotient, corrected by the exact remainder it leaves
        if not isinstance(other, DoubleDouble):
            other = DoubleDouble(other, 0.0)
        q = self.hi / other.hi
        r = self - other * q
        return DoubleDouble(*_quick_two_sum(q, r.hi / other.hi))

    def sqrt(self):
        # one Newton correction of the double root: (x - s^2) / (2 s)
        s = np.sqrt(self.hi)
        p, e = two_prod(s, s)
        return DoubleDouble(*_quick_two_sum(s, ((self.hi - p) - e + self.lo) / (2.0 * s)))


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
        if not (self.T > 0):
            raise DomainError(f"T must be positive, got {self.T}")
        for name, value in (("T", self.T), ("k", self.k)):
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
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
        D = A * A - x * x
        D2 = D * D
        ut = 2 * k * x / D
        ux = 2 * k * A / D
        utt = 4 * k * A * x / D2
        utx = 2 * k * (A * A + x * x) / D2
        return ut, ux, utt, utx, utt  # u_xx = u_tt on this family

    if fam in _CAPS:
        # u = s sqrt(A^2 - r^2), A = T-t
        s = k
        A = T - a
        r = b
        S = sqrt(A * A - r * r)
        S3 = S * S * S
        ut = -s * A / S
        ur = -s * r / S
        utt = -s * r * r / S3
        utr = -s * A * r / S3
        urr = -s * A * A / S3
        return ut, ur, utt, utr, urr

    if fam is Family.SPACELIKE_LOG_CLAIMED:
        # u = k asinh(y/B), B = T-x   (the printed family; not a solution)
        B = T - a
        y = b
        Q = sqrt(B * B + y * y)
        Q3 = Q * Q * Q
        ux = k * y / (B * Q)
        uy = k / Q
        uxx = k * y * (Q * Q + B * B) / (B * B * Q3)
        uxy = k * B / Q3
        uyy = -k * y / Q3
        return ux, uy, uxx, uxy, uyy

    if fam is Family.SPACELIKE_ARCTAN_CORRECTED:
        # u = k arctan(y/B), B = T-x
        B = T - a
        y = b
        P = B * B + y * y
        P2 = P * P
        ux = k * y / P
        uy = k * B / P
        uxx = 2 * k * B * y / P2
        uxy = k * (B * B - y * y) / P2
        uyy = -2 * k * B * y / P2
        return ux, uy, uxx, uxy, uyy

    # constant profile u = c (T - t); k carries c
    ut = -k * (0 * a + 1)
    zero = ut - ut  # +0.0 in the full shape, in either arithmetic
    return ut, zero, zero, zero, zero


def _evaluate(sol, point, extended: bool) -> Jet2:
    members = _batch(sol)
    first = members[0]
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
    T = float(first.T)
    value = _value(first.family, T, k, a, b)
    if extended:
        value = DoubleDouble(value, np.zeros_like(value))
        T = DoubleDouble(T, 0.0)
        k, a, b = (DoubleDouble(v, np.zeros_like(v)) for v in (k, a, b))
    # the backend root: in double-double the one function the slopes need
    sqrt = DoubleDouble.sqrt if extended else np.sqrt
    terms = [t.reshape(shape) for t in (value, *_jet_terms(first.family, T, k, a, b, sqrt))]
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


def derivative_blowup_amplitude(sol: ClosedFormSolution, t: float) -> float:
    """The analytically evaluated on-axis derivative that blows up as t -> T.

    For the log family this is the spatial gradient at x=0, equal to
    2k/(T-t) -- direct differentiation of the closed form gives
    k*(1/(T-t+x) + 1/(T-t-x)). For the sphere caps it is the second radial
    derivative at r=0, equal to -sign/(T-t). The audit compares both against
    the rates stated in the source material.
    """
    fam = sol.family
    if fam not in (Family.BORN_INFELD_LOG, Family.MEMBRANE_SPHERE_PLUS,
                   Family.MEMBRANE_SPHERE_MINUS):
        raise DomainError(
            "blow-up amplitude is defined for the log and sphere families only, "
            f"not {fam.value}"
        )
    t = float(t)
    _check_interior(sol, np.array([t]), np.array([0.0]))
    if fam is Family.BORN_INFELD_LOG:
        return 2.0 * sol.k / (sol.T - t)
    return (-1.0 if fam is Family.MEMBRANE_SPHERE_PLUS else 1.0) / (sol.T - t)
