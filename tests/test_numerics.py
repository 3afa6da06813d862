import math
import re
from contextlib import nullcontext
from fractions import Fraction

import numpy as np
import pytest

from fd_oracles import BoundaryError, central_diff_jet2, observed_orders
from profile_forms import phi_second_derivative
from zmclab import numerics
from zmclab.closedform import DoubleDouble
from zmclab.errors import ArityError, DomainError, NonFiniteError
from zmclab.numerics import (
    Grid1D,
    Jet2,
    log_log_fit,
    rk4_adaptive_step,
    rk4_integrate,
    rk4_step,
    trapezoid_terms,
)
from zmclab.similarity import SteadyOdeId, steady_ode_integrate

# frozen reference values, evaluated once in extended precision
EXP_0P1 = 1.1051709180756477
EXP_M1 = 0.36787944117144233
LN3 = 1.0986122886681098
SIN_DD_0P5 = -0.479425538604203  # second derivative of sin at 0.5 is -sin(0.5)


def test_grid_nodes_and_spacing():
    g = Grid1D(0.0, 1.0, 100)
    assert g.spacing == 0.01
    nodes = g.nodes()
    assert nodes.shape == (101,)
    assert nodes[0] == 0.0
    assert abs(nodes[-1] - 1.0) < 1e-14
    assert abs(nodes[37] - 0.37) < 1e-14


def test_grid_validation():
    with pytest.raises(DomainError):
        Grid1D(1.0, 0.0, 100)
    with pytest.raises(DomainError):
        Grid1D(0.0, 1.0, 4)  # fewer than 8 cells
    with pytest.raises(DomainError):
        Grid1D(0.0, 1.0, 12.5)


@pytest.mark.parametrize("bad, shown", [
    (float("nan"), "nan"), (float("inf"), "inf"), (np.float64("nan"), "nan"),
    (np.array([0.0, np.nan]), "nan"),
], ids=["float-nan", "float-inf", "float64-nan", "array-nan"])
@pytest.mark.parametrize("slot", [0, 2, 5], ids=["value", "d1[1]", "d2[2]"])
def test_jet2_rejects_non_finite(slot, bad, shown):
    """Floats take the math.isfinite path, arrays the numpy one; both name
    the bad entry by its repr as a Python float, the same on every numpy."""
    entries = [0.0] * 6
    entries[slot] = bad
    with pytest.raises(NonFiniteError) as exc:
        Jet2(entries[0], tuple(entries[1:3]), tuple(entries[3:]))
    assert str(exc.value) == f"non-finite jet entry {shown}"


@pytest.mark.parametrize("hi, lo, shown", [
    (np.array([1.0, np.inf, 2.0]), np.zeros(3), "inf"),
    (np.array([1.0, 2.0, -3.0]), np.array([1e-17, 0.0, np.nan]), "nan"),
    (math.nan, 0.0, "nan"),
    (1.0, -math.inf, "-inf"),
    (math.inf, None, "inf"),
], ids=["inf-hi", "nan-lo", "scalar-nan-hi", "scalar-inf-lo", "scalar-exact-inf"])
@pytest.mark.parametrize("slot", [0, 2, 5], ids=["value", "d1[1]", "d2[2]"])
def test_jet2_rejects_a_non_finite_double_double_word(slot, hi, lo, shown):
    """A double-double entry, an array or a scalar, is checked through both
    its words: a non-finite hi and a non-finite lo under a finite hi are
    refused alike, named by the entry's value hi + lo as a Python float (a
    scalar entry by that value too, not by the object)."""
    entries = [0.0] * 6
    entries[slot] = DoubleDouble(hi, lo)
    with pytest.raises(NonFiniteError) as exc:
        Jet2(entries[0], tuple(entries[1:3]), tuple(entries[3:]))
    assert str(exc.value) == f"non-finite jet entry {shown}"


def test_jet2_accepts_double_double_words_whose_products_overflow():
    """The one-call check sums the products of a double-double entry's
    words, which overflow past |hi * lo| ~ 1e308: such an entry is checked
    as a float and accepted, with no floating-point error even where
    double_range makes one a refusal."""
    big = DoubleDouble(np.full(3, 1e200), np.full(3, 1e184))
    with numerics.double_range("the jet"):
        jet = Jet2(big, (big, DoubleDouble(np.full(3, 1e300))), (big, big, big))
    assert jet.value is big


# --- finite differences -----------------------------------------------------


def test_central_diff_quadratic_exact():
    """Central stencils reproduce a quadratic's 2-jet to rounding."""
    g = Grid1D(0.0, 1.0, 100)
    f = g.nodes() ** 2
    jet = central_diff_jet2(f, 50, g.spacing)
    x = g.nodes()[50]
    assert abs(jet.value - x * x) < 1e-14
    assert abs(jet.d1[1] - 2 * x) < 1e-10
    assert abs(jet.d2[2] - 2.0) < 1e-10


def test_central_diff_constant():
    f = np.full(64, 3.7)
    jet = central_diff_jet2(f, 10, 0.05)
    assert abs(jet.d1[1]) < 1e-12
    assert abs(jet.d2[2]) < 1e-12


def test_central_diff_sine():
    h = 1e-2
    xs = 0.5 + h * np.arange(-3, 4)
    jet = central_diff_jet2(np.sin(xs), 3, h)
    assert abs(jet.d2[2] - SIN_DD_0P5) <= 1e-4
    assert abs(jet.d1[1] - math.cos(0.5)) <= 1e-4


def test_central_diff_boundary_errors():
    f = np.arange(12, dtype=float)
    with pytest.raises(BoundaryError):
        central_diff_jet2(f, 0, 0.1)
    with pytest.raises(BoundaryError):
        central_diff_jet2(f, 11, 0.1)


def test_two_variable_jet_with_mixed_partial():
    """f(t,x) = t^2 x + 3 t x^2 has an exact FD 2-jet up to cubic truncation."""
    dt, dx = 0.01, 0.02
    tg = 0.4 + dt * np.arange(-2, 3)
    xg = 0.7 + dx * np.arange(-2, 3)
    Tm, Xm = np.meshgrid(tg, xg, indexing="ij")
    F = Tm**2 * Xm + 3 * Tm * Xm**2
    jet = central_diff_jet2(F, 2, dx, time_index=2, time_spacing=dt)
    t0, x0 = 0.4, 0.7
    assert abs(jet.d1[0] - (2 * t0 * x0 + 3 * x0**2)) < 1e-9
    assert abs(jet.d1[1] - (t0**2 + 6 * t0 * x0)) < 1e-9
    assert abs(jet.d2[0] - 2 * x0) < 1e-8
    assert abs(jet.d2[1] - (2 * t0 + 6 * x0)) < 1e-9
    assert abs(jet.d2[2] - 6 * t0) < 1e-8


def test_central_diff_convergence_order():
    """Observed order under spacing halving is at least 1.9 on a smooth field."""
    errs = []
    for n in (40, 80, 160, 320):
        g = Grid1D(0.0, 1.0, n)
        f = np.sin(3.0 * g.nodes())
        i = n // 2
        x = g.nodes()[i]
        jet = central_diff_jet2(f, i, g.spacing)
        errs.append(abs(jet.d2[2] - (-9.0 * math.sin(3.0 * x))))
    orders = observed_orders(errs)
    assert np.all(orders >= 1.9)


# --- RK4 ---------------------------------------------------------------------


def test_rk4_exponential_single_step():
    y = rk4_step(1.0, lambda t, y: y, 0.0, 0.1)
    assert abs(y - EXP_0P1) <= 1e-7


def test_rk4_zero_derivative():
    y = rk4_step(2.5, lambda t, y: 0.0, 0.0, 0.3)
    assert y == 2.5


def test_rk4_gaussian_decay():
    # y' = -2 t y integrates to exp(-t^2), and its slope y' along with it
    ts, ys = rk4_integrate(lambda t, y: (-2.0 * t * y[0], -2.0 * t * y[1]),
                           0.0, (1.0, -0.0), 1.0, 1e-3)
    assert abs(ys[-1, 0] - EXP_M1) <= 1e-9
    assert ys[-1, 1] == 0.0
    assert abs(ts[-1] - 1.0) < 1e-12


def test_rk4_convergence_order():
    errs = []
    for dt in (0.1, 0.05, 0.025, 0.0125):
        y = 1.0
        t = 0.0
        while t < 1.0 - 1e-12:
            y = rk4_step(y, lambda t, y: y, t, dt)
            t += dt
        errs.append(abs(y - math.e))
    orders = observed_orders(errs)
    assert np.all(orders >= 3.9)


def test_rk4_vector_state():
    # harmonic oscillator keeps its radius
    def f(t, s):
        return np.array([s[1], -s[0]])

    y, t, dt = np.array([1.0, 0.0]), 0.0, 2 * math.pi / 6000
    for _ in range(6000):
        y = rk4_step(y, f, t, dt)
        t += dt
    assert abs(y[0] - 1.0) < 1e-10
    assert abs(y[1]) < 1e-10


def test_rk4_nonfinite_stage_reported():
    def bad(t, y):
        return float("inf")

    with pytest.raises(NonFiniteError, match="stage 1"):
        rk4_step(1.0, bad, 0.0, 0.1)


@pytest.mark.parametrize("stage", [1, 3])
@pytest.mark.parametrize("wrong", [(5,), (2, 5), (3, 1), (1, 5)], ids=str)
def test_rk4_array_derivative_must_have_the_state_shape(stage, wrong):
    """A wrong-shaped derivative used to broadcast into the stage sums (or
    fail inside numpy); it is refused, naming the stage and both shapes."""
    calls = []

    def slope(t, y):
        calls.append(t)
        return np.zeros(wrong) if len(calls) == stage else -y

    with pytest.raises(ArityError) as exc:
        rk4_step(np.ones((3, 5)), slope, 0.0, 0.1)
    assert str(exc.value) == (
        f"derivative returned shape {wrong} for a state of shape (3, 5) "
        f"at RK4 stage {stage}"
    )
    assert len(calls) == stage


@pytest.mark.parametrize("stage", [1, 2, 3, 4])
def test_rk4_array_names_the_non_finite_stage_row_and_node(stage):
    """Each stage's one finiteness check over the whole 2-D derivative fires
    on its own call and names the (row, node) of the NaN."""
    calls = []

    def slope(t, y):
        calls.append(t)
        k = -y
        if len(calls) >= stage:
            k[1, 3] = math.nan
        return k

    stage_t = {1: 0.0, 2: 0.25, 3: 0.25, 4: 0.5}[stage]
    with pytest.raises(NonFiniteError) as exc:
        rk4_step(np.ones((3, 5)), slope, 0.0, 0.5)
    assert str(exc.value) == (
        f"non-finite derivative at RK4 stage {stage}, t={stage_t} "
        f"((row, node) [(1, 3)])"
    )
    assert len(calls) == stage


def test_rk4_array_accepts_a_finite_stage_whose_squares_overflow(monkeypatch):
    """Each stage's one-call check sums the squares of the derivative, which
    overflow past |k| ~ 1e154: such a stage is checked entry by entry and
    accepted, with no overflow warning (pytest makes one an error)."""
    checked = []
    check = numerics._check_stage_finite

    def spy(value, stage, t):
        checked.append(stage)
        check(value, stage, t)

    monkeypatch.setattr(numerics, "_check_stage_finite", spy)
    state = np.full((3, 5), 1e200)
    got = rk4_step(state, lambda t, y: np.full((3, 5), 1e200), 0.0, 0.1)
    assert checked == ["stage 1", "stage 2", "stage 3", "stage 4"]
    k = np.full((3, 5), 1e200)
    assert np.array_equal(got, state + (0.1 / 6.0) * (k + 2.0 * k + 2.0 * k + k))


def stage_error_text(k, stage, t):
    with pytest.raises(NonFiniteError) as exc:
        numerics._check_stage_finite(k, stage, t)
    return str(exc.value)


def test_rk4_array_refuses_opposite_infinities_as_the_entry_check_does():
    """+inf and -inf at different nodes cannot cancel in a sum of squares:
    the stage is refused with the entry-by-entry check's message."""
    k = np.zeros((3, 5))
    k[0, 1], k[2, 3] = math.inf, -math.inf
    with pytest.raises(NonFiniteError) as exc:
        rk4_step(np.ones((3, 5)), lambda t, y: k, 0.0, 0.5)
    assert str(exc.value) == stage_error_text(k, "stage 1", 0.0) == (
        "non-finite derivative at RK4 stage 1, t=0.0 ((row, node) [(0, 1), (2, 3)])"
    )


def test_rk4_array_refuses_a_nan_in_a_non_contiguous_derivative():
    """A derivative returned as a strided view (here a transpose) is checked
    like a contiguous one, with the same message."""
    k = np.zeros((5, 3)).T
    k[1, 4] = math.nan
    assert not k.flags.c_contiguous
    with pytest.raises(NonFiniteError) as exc:
        rk4_step(np.ones((3, 5)), lambda t, y: k, 0.0, 0.5)
    assert str(exc.value) == stage_error_text(k, "stage 1", 0.0) == (
        "non-finite derivative at RK4 stage 1, t=0.0 ((row, node) [(1, 4)])"
    )


def test_rk4_array_path_leaves_the_derivatives_arrays_alone():
    """The stage sums and the final combination run in place on arrays the
    step owns: a derivative that returns its own input sees none of the
    arrays it returned written, and the step is the plain formula to the
    bit."""
    state = np.array([[1.0, -0.5, 0.25], [0.3, 0.7, -1.1]])
    returned = []

    def identity(t, y):
        returned.append((y, y.copy()))
        return y

    got = rk4_step(state, identity, 0.0, 0.1)
    for k, snapshot in returned:
        assert np.array_equal(k, snapshot)
    k1 = state
    k2 = state + 0.5 * 0.1 * k1
    k3 = state + 0.5 * 0.1 * k2
    k4 = state + 0.1 * k3
    want = state + (0.1 / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert np.array_equal(got, want)
    assert all(got is not k for k, _ in returned)


def test_rk4_adaptive_step_matches_reference():
    t, y, used, nxt = rk4_adaptive_step(lambda t, y: y, 0.0, 1.0, 0.5, abs_tol=1e-12)
    assert abs(y - math.exp(t)) < 1e-10
    assert used <= 0.5 and nxt >= used


# --- RK4 on pairs of floats -------------------------------------------------
# rk4_integrate steps pairs of floats written out; rk4_step on arrays is the
# reference, and both must produce the same bits.

PENCIL = (1.0, 3.0, -4.0)  # the membrane branch's separable-mode pencil


def profile_slope(r, s):
    return (s[1], phi_second_derivative(s[0], s[1], r))


def pencil_slope(_, s):
    a, b, c = PENCIL
    return (s[1], -(b * s[1] + c * s[0]) / a)


def born_infeld_steady_slope(rho, s):
    return (s[1], 2.0 * rho * s[1] / (1.0 - rho * rho))


def spacelike_steady_slope(rho, s):
    return (s[1], -2.0 * rho * s[1] / (1.0 + rho * rho))


# slope, start time, start state; the profile starts at height a = 0.6 with
# a small slope, where 1 - rho^2 - phi^2 = 0.0775, and fifty steps of 1e-3
# bring that gap down to 8e-4
TUPLE_CASES = {
    "profile-near-circle": (profile_slope, 0.75, (0.6, -0.02)),
    "axis-pencil": (pencil_slope, 0.0, (1.0, 0.0)),
    "born-infeld-steady": (born_infeld_steady_slope, 0.0, (0.0, 1.4)),
    "spacelike-steady": (spacelike_steady_slope, 0.0, (0.0, 0.7)),
}


def array_slope(slope):
    return lambda t, s: np.array(slope(t, s))


def array_integrate(slope, t0, y0, t_end, dt):
    """rk4_integrate's march as a loop of rk4_step on arrays, with the same
    clipped last step."""
    ts, ys = [t0], [np.array(y0)]
    t, last = t0, t_end - 1e-14 * max(1.0, abs(t_end))
    while t < last:
        h = min(dt, t_end - t)
        ys.append(rk4_step(ys[-1], array_slope(slope), t, h))
        t = t + h
        ts.append(t)
    return np.array(ts), np.array(ys)


def same_bits(floats, array):
    return np.asarray(floats, dtype=float).tobytes() == np.asarray(array, dtype=float).tobytes()


@pytest.mark.parametrize("component", [0, 1])
@pytest.mark.parametrize("stage", [1, 2, 3, 4])
def test_rk4_pair_names_the_non_finite_stage_and_component(stage, component):
    """Each stage's inline check fires on its own call, for either component."""
    calls = []

    def slope(t, s):
        calls.append(t)
        k = [s[1], -s[0]]
        if len(calls) == stage:
            k[component] = math.nan
        return tuple(k)

    stage_t = {1: 0.0, 2: 0.25, 3: 0.25, 4: 0.5}[stage]
    with pytest.raises(NonFiniteError) as exc:
        rk4_integrate(slope, 0.0, (1.0, 0.0), 0.5, 0.5)
    assert str(exc.value) == (
        f"non-finite derivative at RK4 stage {stage}, t={stage_t} "
        f"(component(s) [{component}])"
    )
    assert len(calls) == stage


@pytest.mark.parametrize(
    "state",
    [(), (1.0,), (1.0, 0.0, 0.0), 1.0, [1.0, 0.0], np.array([1.0, 0.0])],
    ids=["0", "1", "3", "float", "list", "array"],
)
def test_rk4_tuple_state_must_be_a_pair(state):
    """rk4_integrate steps 2-tuples only; arrays step through rk4_step."""
    def slope(t, s):
        raise AssertionError("a refused state is never differentiated")

    with pytest.raises(ArityError) as exc:
        rk4_integrate(slope, 0.0, state, 1.0, 0.1)
    assert str(exc.value) == f"rk4_integrate's state0 must be a pair (a 2-tuple), got {state!r}"


@pytest.mark.parametrize("stage", [1, 3])
@pytest.mark.parametrize(
    "wrong, got",
    [((1.0,), ValueError), ((1.0, 2.0, 3.0), ValueError), (1.0, TypeError)],
    ids=["1", "3", "float"],
)
def test_rk4_pair_refuses_a_derivative_of_the_wrong_arity(stage, wrong, got):
    """A derivative that returns no pair fails loudly at its stage, with the
    unpacking's own error."""
    calls = []

    def slope(t, s):
        calls.append(t)
        return wrong if len(calls) == stage else (s[1], -s[0])

    with pytest.raises(got):
        rk4_integrate(slope, 0.0, (1.0, 0.0), 0.5, 0.5)
    assert len(calls) == stage


@pytest.mark.parametrize("error", [TypeError, ValueError])
def test_rk4_pair_passes_the_derivatives_own_errors_through(error):
    def slope(t, s):
        raise error("raised inside the derivative")

    with pytest.raises(error, match="^raised inside the derivative$"):
        rk4_integrate(slope, 0.0, (1.0, 0.0), 0.5, 0.5)


@pytest.mark.parametrize("case", sorted(TUPLE_CASES))
def test_rk4_integrate_on_tuples_matches_array_path(case):
    slope, t0, y0 = TUPLE_CASES[case]
    seen = []

    def recording(t, s):
        seen.append(type(s))
        return slope(t, s)

    # 0.0495 is not a whole number of steps, so the last step is clipped
    ts, states = rk4_integrate(recording, t0, y0, t0 + 0.0495, 1e-3)
    ref_ts, ref_states = array_integrate(slope, t0, y0, t0 + 0.0495, 1e-3)
    assert set(seen) == {tuple}
    assert states.shape == ref_states.shape == (51, 2)
    assert states.dtype == ref_states.dtype
    assert same_bits(ts, ref_ts) and same_bits(states, ref_states)


# (slope, t, state, first step): 0.05 is wide enough that the profile case
# halves its step. A constant slope of 2^1000 in one component overflows the
# full and half steps from dt = 2^26 on, so they differ by inf - inf = NaN in
# that component and 0 in the other: the NaN must halve the step, as np.max
# has it, down to 2^23, where the step no longer overflows
ADAPTIVE_CASES = {
    **{name: (*case, 0.05) for name, case in TUPLE_CASES.items()},
    "overflow-first": (lambda t, s: (2.0**1000, 0.0), 0.0, (0.0, 0.0), 2.0**26),
    "overflow-second": (lambda t, s: (0.0, 2.0**1000), 0.0, (0.0, 0.0), 2.0**26),
}


@pytest.mark.parametrize("case", sorted(ADAPTIVE_CASES))
def test_rk4_adaptive_step_on_tuples_matches_array_path(case):
    """A tuple state is an array-like: it steps through numpy to the bits
    of the same state as an array."""
    slope, t, y, dt = ADAPTIVE_CASES[case]
    ref_t, ref, ref_dt = t, np.array(y), dt
    # numpy warns on the overflow, which only these cases reach
    overflow = case.startswith("overflow")
    for i in range(6):
        with np.errstate(over="ignore", invalid="ignore") if overflow else nullcontext():
            t, y, used, dt = rk4_adaptive_step(slope, t, y, dt, abs_tol=1e-10)
            ref_t, ref, ref_used, ref_dt = rk4_adaptive_step(
                array_slope(slope), ref_t, ref, ref_dt, abs_tol=1e-10
            )
        assert type(y) is np.ndarray and y.shape == (2,)
        assert same_bits(y, ref)
        assert (t, used, dt) == (ref_t, ref_used, ref_dt)
        if i == 0 and overflow:
            assert used == 2.0**23 and np.isfinite(y).all()
        y = tuple(y.tolist())


# --- the steady integral's overflow -----------------------------------------

BORN_INFELD = SteadyOdeId.BORN_INFELD_STEADY


def test_steady_ode_integrate_names_where_it_overflows():
    """v' = 1e308 / (1 - rho^2) passes the largest double near rho = 0.6661,
    while v = 1e308 atanh(rho) stays below it: the refusal names the first
    sample, 1e-3 apart from 0, where the exact v' is out of range."""
    with pytest.raises(NonFiniteError) as exc:
        steady_ode_integrate(BORN_INFELD, (0.0, 1e308), (0.0, 0.9), 1e-3)
    prefix = "the steady integral leaves double range at rho="
    assert str(exc.value).startswith(prefix)
    rho = float(str(exc.value)[len(prefix):])
    assert 0.6661 < rho < 0.6671 and rho == 1e-3 * round(rho / 1e-3)
    largest = Fraction(np.finfo(float).max)

    def exact_vp(r):
        return Fraction(1e308) / (1 - Fraction(r) ** 2)

    assert exact_vp(rho) > largest >= exact_vp(rho - 1e-3)


def never_differentiated(t, s):
    raise AssertionError("a refused call is never differentiated")


SPACELIKE = SteadyOdeId.SPACELIKE_STEADY


@pytest.mark.parametrize("call, named", [
    (lambda: rk4_step(np.zeros(2), never_differentiated, 0.0, math.nan), "dt > 0, got nan"),
    (lambda: rk4_step(np.zeros(2), never_differentiated, 0.0, math.inf), "dt > 0, got inf"),
    (lambda: rk4_integrate(never_differentiated, 0.0, (1.0, 0.0), 1.0, math.nan),
     "dt > 0, got nan"),
    (lambda: rk4_integrate(never_differentiated, 0.0, (1.0, 0.0), 1.0, math.inf),
     "dt > 0, got inf"),
    (lambda: rk4_integrate(never_differentiated, 0.0, (1.0, 0.0), math.inf, 0.1), "t_end=inf"),
    (lambda: rk4_integrate(never_differentiated, 0.0, (1.0, 0.0), math.nan, 0.1), "t_end=nan"),
    (lambda: rk4_integrate(never_differentiated, 1.0, (1.0, 0.0), 0.5, 0.1),
     "t_end=0.5 must be >= t0=1.0"),
    (lambda: rk4_adaptive_step(never_differentiated, 0.0, np.zeros(2), 0.1, math.nan),
     "abs_tol must be finite and positive, got nan"),
    (lambda: steady_ode_integrate(SPACELIKE, (0.0, 1.0), (0.0, 1.0), math.nan),
     "drho must be finite and positive, got nan"),
    (lambda: steady_ode_integrate(SPACELIKE, (0.0, 1.0), (0.0, math.inf), 0.01),
     "rho range [0.0, inf]"),
    (lambda: steady_ode_integrate(SPACELIKE, (0.0, 1.0), (0.0, math.nan), 0.01),
     "rho range [0.0, nan]"),
    (lambda: steady_ode_integrate(SPACELIKE, (0.0, 1.0), (0.5, 0.5), 0.01),
     "empty rho range [0.5, 0.5]"),
    (lambda: steady_ode_integrate(SPACELIKE, (math.nan, 1.0), (0.0, 1.0), 0.01),
     "initial data (v, v') = (nan, 1.0) must be finite"),
], ids=["step-dt-nan", "step-dt-inf", "integrate-dt-nan", "integrate-dt-inf",
        "integrate-end-inf", "integrate-end-nan", "integrate-end-before-start",
        "adaptive-tol-nan", "steady-drho-nan", "steady-end-inf", "steady-end-nan",
        "steady-empty-range", "steady-initial-nan"])
def test_rk4_entries_refuse_a_non_finite_step_end_or_tolerance(call, named):
    """Refused before any step, naming the value: an infinite or NaN end
    used to return the initial point alone, and a NaN step to fail later as
    a non-finite stage or a step floor."""
    with pytest.raises(DomainError, match=re.escape(named)):
        call()


# --- fits and quadrature -----------------------------------------------------


def test_trapezoid_matches_numpy_bit_for_bit():
    """Summed with np.add.reduce, the terms are numpy's own rule to the
    bit: the evolution's momentum ledger sums them over windows of one
    grid and relies on that."""
    numpy_rule = getattr(np, "trapezoid", None) or np.trapz
    rng = np.random.default_rng(8)
    for size in (1, 2, 3, 17, 801):
        xs = np.sort(rng.uniform(-1.0, 1.0, size))
        ys = rng.normal(size=size)
        assert np.add.reduce(trapezoid_terms(ys, np.diff(xs))) == numpy_rule(ys, xs)
    ys, xs = np.array([0.0, 1.0, 4.0]), np.array([0.0, 1.0, 2.0])
    assert np.add.reduce(trapezoid_terms(ys, np.diff(xs))) == 3.0


def test_log_log_fit_exact_square():
    a = np.linspace(1.0, 5.0, 20)
    fit = log_log_fit(a, a**2)
    assert abs(fit.slope - 2.0) <= 1e-12
    assert fit.r_squared == 1.0
    assert fit.n_points == 20


def test_log_log_fit_linear_intercept():
    a = np.linspace(0.5, 4.0, 15)
    fit = log_log_fit(a, 3.0 * a)
    assert abs(fit.slope - 1.0) <= 1e-12
    assert abs(fit.intercept - LN3) <= 1e-12


def test_log_log_fit_noisy_recovery():
    rng = np.random.default_rng(20260817)
    a = np.linspace(1.0, 10.0, 50)
    delta = rng.uniform(-1e-3, 1e-3, size=50)
    fit = log_log_fit(a, a**1.5 * (1.0 + delta))
    assert abs(fit.slope - 1.5) <= 5e-3


def test_log_log_fit_errors():
    with pytest.raises(DomainError):
        log_log_fit([1.0, -2.0], [1.0, 4.0])
    with pytest.raises(DomainError):
        log_log_fit([1.0, 2.0], [0.0, 4.0])
    with pytest.raises(ArityError):
        log_log_fit([1.0], [2.0])
    with pytest.raises(ArityError, match="mismatched lengths 3 vs 2"):
        log_log_fit([1.0, 2.0, 4.0], [1.0, 4.0])
    with pytest.raises(DomainError, match="inputs must be finite"):
        log_log_fit([1.0, math.inf], [1.0, 4.0])
    # constant ordinates have no spread to explain: an exact fit, r^2 = 1
    fit = log_log_fit([1.0, 2.0, 4.0], [3.0, 3.0, 3.0])
    assert (fit.r_squared, fit.n_points) == (1.0, 3)
    assert abs(fit.slope) <= 1e-15


@pytest.mark.parametrize("spacing", [0.1, 0.05, 0.01])
def test_quadratic_jet_relative_accuracy(spacing):
    """Any quadratic's 2-jet comes back to 1e-10 relative for spacing <= 0.1."""
    n = 16
    xs = 2.0 + spacing * np.arange(n)
    f = 1.3 * xs**2 - 0.7 * xs + 0.2
    i = n // 2
    x = xs[i]
    jet = central_diff_jet2(f, i, spacing)
    d1_exact = 2.6 * x - 0.7
    assert abs(jet.d1[1] - d1_exact) <= 1e-10 * max(1.0, abs(d1_exact))
    assert abs(jet.d2[2] - 2.6) <= 1e-10 * 2.6
