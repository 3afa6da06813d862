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
digits), so one call serves a single point, an evolution grid or a whole
extended-precision certification sweep.
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


def _in_double(f):
    return lambda v: DoubleDouble(f(v.hi), np.zeros_like(v.hi))


# backend functions (log, sqrt, atan, asinh): numpy ufuncs in double
# precision. In double-double only sqrt keeps the extra digits; the others
# serve the value term alone, which no residual reads
_DOUBLE_FUNCS = (np.log, np.sqrt, np.arctan, np.arcsinh)
_DOUBLE_DOUBLE_FUNCS = (
    _in_double(np.log), DoubleDouble.sqrt, _in_double(np.arctan), _in_double(np.arcsinh)
)


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
    elif fam in (Family.MEMBRANE_SPHERE_PLUS, Family.MEMBRANE_SPHERE_MINUS):
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


def _jet_terms(sol: ClosedFormSolution, a, b, extended: bool):
    """(value, d_a, d_b, d_aa, d_ab, d_bb) as 1-D arrays in the backend's
    arithmetic; in extended precision a and b are DoubleDouble arrays."""
    log, sqrt, atan, asinh = _DOUBLE_DOUBLE_FUNCS if extended else _DOUBLE_FUNCS
    number = (lambda v: DoubleDouble(float(v), 0.0)) if extended else float
    T = number(sol.T)
    k = number(sol.k)
    fam = sol.family

    if fam is Family.BORN_INFELD_LOG:
        # u = k log((A+x)/(A-x)), A = T-t
        A = T - a
        x = b
        D = A * A - x * x
        D2 = D * D
        value = k * log((A + x) / (A - x))
        ut = 2 * k * x / D
        ux = 2 * k * A / D
        utt = 4 * k * A * x / D2
        utx = 2 * k * (A * A + x * x) / D2
        return value, ut, ux, utt, utx, utt  # u_xx = u_tt on this family

    if fam in (Family.MEMBRANE_SPHERE_PLUS, Family.MEMBRANE_SPHERE_MINUS):
        # u = s sqrt(A^2 - r^2), A = T-t
        s = number(1.0 if fam is Family.MEMBRANE_SPHERE_PLUS else -1.0)
        A = T - a
        r = b
        S = sqrt(A * A - r * r)
        S3 = S * S * S
        value = s * S
        ut = -s * A / S
        ur = -s * r / S
        utt = -s * r * r / S3
        utr = -s * A * r / S3
        urr = -s * A * A / S3
        return value, ut, ur, utt, utr, urr

    if fam is Family.SPACELIKE_LOG_CLAIMED:
        # u = k asinh(y/B), B = T-x   (the printed family; not a solution)
        B = T - a
        y = b
        Q = sqrt(B * B + y * y)
        Q3 = Q * Q * Q
        value = k * asinh(y / B)
        ux = k * y / (B * Q)
        uy = k / Q
        uxx = k * y * (Q * Q + B * B) / (B * B * Q3)
        uxy = k * B / Q3
        uyy = -k * y / Q3
        return value, ux, uy, uxx, uxy, uyy

    if fam is Family.SPACELIKE_ARCTAN_CORRECTED:
        # u = k arctan(y/B), B = T-x
        B = T - a
        y = b
        P = B * B + y * y
        P2 = P * P
        value = k * atan(y / B)
        ux = k * y / P
        uy = k * B / P
        uxx = 2 * k * B * y / P2
        uxy = k * (B * B - y * y) / P2
        uyy = -2 * k * B * y / P2
        return value, ux, uy, uxx, uxy, uyy

    # constant profile u = c (T - t); k carries c
    ones = 0 * a + 1  # full-shape ones in either arithmetic
    return (k * (T - a), -k * ones, *(number(0.0) * ones for _ in range(4)))


def _evaluate(sol: ClosedFormSolution, point, extended: bool) -> Jet2:
    a, b = np.broadcast_arrays(
        np.asarray(point[0], dtype=float), np.asarray(point[1], dtype=float)
    )
    shape = a.shape
    a, b = a.ravel(), b.ravel()
    _check_interior(sol, a, b)
    if extended:
        a, b = DoubleDouble(a, np.zeros_like(a)), DoubleDouble(b, np.zeros_like(b))
    terms = [t.reshape(shape) for t in _jet_terms(sol, a, b, extended)]
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
    """
    return _evaluate(sol, point, extended=False)


def evaluate_jet_extended(sol: ClosedFormSolution, point) -> Jet2:
    """Same jet, computed in double-double arithmetic.

    Entries are DoubleDouble scalars, or DoubleDouble arrays for array input.
    Arithmetic on them stays in double-double, which is how the certification
    sweeps hold residuals of true solutions some 16 digits below the double
    rounding floor. The value entry alone is only double-accurate: it is the
    one term that needs log, atan or asinh, and no residual reads it.
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
