import math
from fractions import Fraction

import numpy as np
import pytest

from division_reference import full_remainder_quotient
from fd_oracles import central_diff_jet2, observed_orders
from zmclab.closedform import (
    ClosedFormSolution,
    DoubleDouble,
    Family,
    evaluate_jet,
    evaluate_jet_extended,
    split,
    two_prod,
    two_sum,
)
from zmclab.errors import DomainError
from zmclab.numerics import double_range

LN3 = 1.0986122886681098


def bi(k=1.0, T=1.0):
    return ClosedFormSolution(Family.BORN_INFELD_LOG, T=T, k=k)


def sphere(sign=+1, T=1.0):
    fam = Family.MEMBRANE_SPHERE_PLUS if sign > 0 else Family.MEMBRANE_SPHERE_MINUS
    return ClosedFormSolution(fam, T=T)


def test_construction_guards():
    with pytest.raises(DomainError):
        ClosedFormSolution(Family.BORN_INFELD_LOG, T=-1.0, k=1.0)
    with pytest.raises(DomainError):
        ClosedFormSolution(Family.BORN_INFELD_LOG, T=1.0, k=0.0)
    with pytest.raises(DomainError):
        ClosedFormSolution(Family.SPACELIKE_ARCTAN_CORRECTED, T=1.0, k=0.0)
    # the sphere caps take no constant; k is ignored
    ClosedFormSolution(Family.MEMBRANE_SPHERE_PLUS, T=2.0, k=0.0)
    # constant profile may carry any real, including 0
    ClosedFormSolution(Family.CONSTANT_PROFILE, T=1.0, k=0.0)


def test_log_family_values():
    sol = bi()
    assert evaluate_jet(sol, (0.0, 0.0)).value == 0.0
    assert abs(evaluate_jet(sol, (0.5, 0.25)).value - LN3) < 1e-12


def test_sphere_center_jet():
    jet = evaluate_jet(sphere(+1), (0.0, 0.0))
    assert jet.value == 1.0
    assert jet.d1 == (-1.0, 0.0)  # u_t = -1, u_r = 0 for the plus cap
    jet_m = evaluate_jet(sphere(-1), (0.0, 0.0))
    assert jet_m.value == -1.0
    assert jet_m.d1[0] == 1.0


def test_arctan_family_origin():
    sol = ClosedFormSolution(Family.SPACELIKE_ARCTAN_CORRECTED, T=1.0, k=1.0)
    assert evaluate_jet(sol, (0.0, 0.0)).value == 0.0


def test_claimed_log_family_value():
    sol = ClosedFormSolution(Family.SPACELIKE_LOG_CLAIMED, T=1.0, k=1.0)
    jet = evaluate_jet(sol, (0.0, 0.5))
    assert abs(jet.value - math.asinh(0.5)) < 1e-14


def test_evaluate_rejects_boundary_and_exterior():
    sol = bi()
    with pytest.raises(DomainError, match=r"\|x\| < T-t"):
        evaluate_jet(sol, (0.5, 0.5))
    with pytest.raises(DomainError, match="t < T"):
        evaluate_jet(sol, (1.0, 0.0))
    with pytest.raises(DomainError, match="0 <= t"):
        evaluate_jet(sol, (-0.2, 0.0))
    with pytest.raises(DomainError, match="r < T-t"):
        evaluate_jet(sphere(), (0.5, 0.5))
    with pytest.raises(DomainError, match="x < T"):
        evaluate_jet(
            ClosedFormSolution(Family.SPACELIKE_LOG_CLAIMED, T=1.0, k=1.0), (1.5, 0.0)
        )
    # an array is refused as a whole, naming the first violating point
    t = np.array([0.1, 0.2, 0.5, 0.3, 1.0])
    x = np.array([0.0, 0.1, 0.5, 0.2, 0.0])
    for evaluate in (evaluate_jet, evaluate_jet_extended):
        with pytest.raises(DomainError, match=r"^\|x\| < T-t violated: \|0\.5\| >= 0\.5$"):
            evaluate(sol, (t, x))
        with pytest.raises(DomainError, match=r"^r < T-t violated: r=0\.5 >= 0\.5$"):
            evaluate(sphere(), (t[:4], x[:4]))


def test_blowup_amplitude_grows_like_inverse_gap():
    """The log family's on-axis gradient is 2k/(T-t)."""
    sol = bi(k=0.3)
    gaps = [0.1, 0.01, 0.001]
    amps = [evaluate_jet(sol, (1.0 - g, 0.0)).d1[1] for g in gaps]
    for g, amp in zip(gaps, amps):
        assert abs(amp * g - 0.6) < 1e-12
    assert amps[0] < amps[1] < amps[2]


def test_membrane_sign_flip_symmetry():
    """The minus cap is the exact negation of the plus cap, entry by entry."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        t = rng.uniform(0.0, 0.8)
        r = rng.uniform(0.0, 0.9 * (1.0 - t))
        jp = evaluate_jet(sphere(+1), (t, r))
        jm = evaluate_jet(sphere(-1), (t, r))
        assert jm.value == -jp.value
        assert jm.d1 == (-jp.d1[0], -jp.d1[1])
        assert jm.d2 == (-jp.d2[0], -jp.d2[1], -jp.d2[2])


def test_log_family_odd_in_x():
    sol = bi(k=0.7)
    rng = np.random.default_rng(11)
    for _ in range(50):
        t = rng.uniform(0.0, 0.9)
        x = rng.uniform(0.0, 0.95 * (1.0 - t))
        assert abs(evaluate_jet(sol, (t, x)).value + evaluate_jet(sol, (t, -x)).value) < 1e-12


def test_sphere_is_lightlike():
    # 1 - u_t^2 + u_r^2 vanishes identically on both caps
    rng = np.random.default_rng(13)
    for _ in range(100):
        t = rng.uniform(0.01, 0.9)
        r = rng.uniform(0.0, 0.9 * (1.0 - t))
        jet = evaluate_jet(sphere(+1), (t, r))
        ut, ur = jet.d1
        assert abs(1.0 - ut * ut + ur * ur) <= 1e-12


@pytest.mark.parametrize(
    "sol,point",
    [
        (bi(k=0.4), (0.3, 0.2)),
        (sphere(+1), (0.2, 0.3)),
        (ClosedFormSolution(Family.SPACELIKE_LOG_CLAIMED, T=1.0, k=1.2), (0.1, 0.4)),
        (ClosedFormSolution(Family.SPACELIKE_ARCTAN_CORRECTED, T=1.0, k=-0.8), (0.1, 0.4)),
    ],
)
def test_jet_against_finite_differences(sol, point):
    """Hand-derived partials agree with central differences of the value at
    observed order >= 1.9 under step halving."""
    a0, b0 = point
    exact = evaluate_jet(sol, point)
    errs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        ag = a0 + h * np.arange(-2, 3)
        bg = b0 + h * np.arange(-2, 3)
        F = np.array([[evaluate_jet(sol, (a, b)).value for b in bg] for a in ag])
        fd = central_diff_jet2(F, 2, h, time_index=2, time_spacing=h)
        err = max(
            abs(fd.d1[0] - exact.d1[0]),
            abs(fd.d1[1] - exact.d1[1]),
            abs(fd.d2[0] - exact.d2[0]),
            abs(fd.d2[1] - exact.d2[1]),
            abs(fd.d2[2] - exact.d2[2]),
        )
        errs.append(err)
    orders = observed_orders(errs)
    assert np.all(orders >= 1.9), (errs, orders)


def _entries(jet):
    return (jet.value, *jet.d1, *jet.d2)


# each evaluator with the float parts of one jet entry: double-double entries
# are compared on both hi and lo, an exact one (lo None, the value) on hi
BACKENDS = (
    (evaluate_jet, lambda e: (e,)),
    (evaluate_jet_extended, lambda e: (e.hi,) if e.lo is None else (e.hi, e.lo)),
)


def _interior_points(sol, rng, n=30):
    """Seeded points strictly inside sol's validity region."""
    t = rng.uniform(0.0, 0.9, n)
    if sol.family is Family.BORN_INFELD_LOG:
        return t, rng.uniform(-0.9, 0.9, n) * (1.0 - t)
    if sol.family in (Family.MEMBRANE_SPHERE_PLUS, Family.MEMBRANE_SPHERE_MINUS):
        return t, rng.uniform(0.0, 0.9, n) * (1.0 - t)
    if sol.family in (Family.SPACELIKE_LOG_CLAIMED, Family.SPACELIKE_ARCTAN_CORRECTED):
        return rng.uniform(-1.0, 0.9, n), rng.uniform(-2.0, 2.0, n)
    return t, rng.uniform(-2.0, 2.0, n)


ALL_FAMILIES = (
    bi(k=-3.0),
    sphere(+1),
    sphere(-1),
    ClosedFormSolution(Family.SPACELIKE_LOG_CLAIMED, T=1.0, k=0.7),
    ClosedFormSolution(Family.SPACELIKE_ARCTAN_CORRECTED, T=1.0, k=-1.3),
    ClosedFormSolution(Family.CONSTANT_PROFILE, T=1.0, k=0.3),
)


def test_extended_precision_agrees_with_double():
    sol = bi(k=-3.0)
    jd = evaluate_jet(sol, (0.4, 0.3))
    je = evaluate_jet_extended(sol, (0.4, 0.3))
    assert abs(float(je.value) - jd.value) <= 1e-12 * max(1.0, abs(jd.value))
    for i in range(2):
        assert abs(float(je.d1[i]) - jd.d1[i]) <= 1e-11 * max(1.0, abs(jd.d1[i]))
    for i in range(3):
        assert abs(float(je.d2[i]) - jd.d2[i]) <= 1e-11 * max(1.0, abs(jd.d2[i]))

    # one array call equals the per-point scalar calls exactly, for every
    # family in both precisions
    rng = np.random.default_rng(11)
    assert {s.family for s in ALL_FAMILIES} == set(Family)
    for sol in ALL_FAMILIES:
        a, b = _interior_points(sol, rng)
        for evaluate, parts in BACKENDS:
            arrays = [p for e in _entries(evaluate(sol, (a, b))) for p in parts(e)]
            for part in arrays:
                assert part.shape == a.shape
            for i in range(a.size):
                scalars = [p for e in _entries(evaluate(sol, (a[i], b[i]))) for p in parts(e)]
                assert all(isinstance(p, float) for p in scalars)
                assert [p[i] for p in arrays] == scalars, (sol.family, evaluate, i)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_extended_value_is_the_double_value_bit_for_bit():
    """The double-double jet takes its value from the double formula: for
    every family, at one point and over an array, its high part has the
    bits of evaluate_jet's value and it is an exact double (lo None)."""
    rng = np.random.default_rng(38)
    for sol in ALL_FAMILIES:
        a, b = _interior_points(sol, rng)
        for point in [(a, b), *((a[i], b[i]) for i in range(3))]:
            value = evaluate_jet_extended(sol, point).value
            assert np.array_equal(_bits(value.hi), _bits(evaluate_jet(sol, point).value))
            assert value.lo is None
            assert isinstance(value.hi, float) == np.isscalar(point[0])


# members that share T and one jet formula: the log members of the audit,
# the two caps (one formula, sign s = +/-1), and members of the others
BATCHES = (
    [bi(k=k) for k in (0.2, 1.0, -3.0)],
    [sphere(+1), sphere(-1), sphere(-1)],
    [ClosedFormSolution(Family.SPACELIKE_LOG_CLAIMED, T=1.0, k=k) for k in (0.7, -2.0)],
    [ClosedFormSolution(Family.SPACELIKE_ARCTAN_CORRECTED, T=1.0, k=k) for k in (-1.3, 4.0)],
    [ClosedFormSolution(Family.CONSTANT_PROFILE, T=1.0, k=k) for k in (0.3, 0.0, -2.5)],
)


@pytest.mark.parametrize("members", BATCHES, ids=lambda m: m[0].family.value)
def test_a_batch_is_its_members_jets_stacked_bit_for_bit(members):
    """A batch's jet has one row per member, each with the bits of that
    member's own jet at the same points, in both precisions."""
    a, b = _interior_points(members[0], np.random.default_rng(9))
    for evaluate, parts in BACKENDS:
        batch = _entries(evaluate(members, (a, b)))
        for i, sol in enumerate(members):
            alone = _entries(evaluate(sol, (a, b)))
            for stacked, single in zip(batch, alone):
                for row, want in zip(parts(stacked), parts(single)):
                    assert row.shape == (len(members), a.size)
                    assert np.array_equal(_bits(row[i]), _bits(want)), (sol, evaluate)
    # a scalar point gives one entry per member
    assert evaluate_jet_extended(members, (a[0], b[0])).d1[0].hi.shape == (len(members),)


def test_a_batch_shares_T_and_one_formula():
    for members, named in (([], "none"), ([bi(), bi(T=2.0)], "log at T=1.0, log at T=2.0"),
                           ([sphere(+1), bi()], "sphere-plus at T=1.0, log at T=1.0")):
        for evaluate in (evaluate_jet, evaluate_jet_extended):
            with pytest.raises(DomainError) as exc:
                evaluate(members, (0.1, 0.2))
            assert str(exc.value) == (
                f"a batch needs members sharing T and one jet formula, got {named}"
            )


def test_error_free_transformations_are_exact():
    rng = np.random.default_rng(5)
    a = rng.uniform(-1.0, 1.0, 200) * 10.0 ** rng.integers(-8, 8, 200)
    b = rng.uniform(-1.0, 1.0, 200) * 10.0 ** rng.integers(-8, 8, 200)
    for (s, e), exact in ((two_sum(a, b), Fraction.__add__),
                          (two_prod(a, b, split(a), split(b)), Fraction.__mul__)):
        for i in range(a.size):
            assert Fraction(s[i]) + Fraction(e[i]) == exact(Fraction(a[i]), Fraction(b[i]))
            assert s[i] + e[i] == s[i]  # s is the rounded result, e what it lost


def _fraction(x, i):
    """The Fraction a DoubleDouble stands for at index i; an exact double
    (lo None) has no low part."""
    return Fraction(x.hi[i]) + (0 if x.lo is None else Fraction(x.lo[i]))


def test_double_double_arithmetic_keeps_about_32_digits():
    """Each operation rounds only past about 32 digits, with double-double
    operands, an exact double on either side, and exact with exact."""
    rng = np.random.default_rng(6)
    x = DoubleDouble(*two_sum(rng.uniform(0.5, 2.0, 50), rng.uniform(-1e-17, 1e-17, 50)))
    y = DoubleDouble(*two_sum(rng.uniform(0.5, 2.0, 50), rng.uniform(-1e-17, 1e-17, 50)))
    u = DoubleDouble(rng.uniform(-2.0, 2.0, 50))
    v = DoubleDouble(rng.uniform(0.5, 2.0, 50) * rng.choice([-1.0, 1.0], 50))
    ops = {"add": Fraction.__add__, "sub": Fraction.__sub__,
           "mul": Fraction.__mul__, "div": Fraction.__truediv__}
    for left, right in ((x, y), (x, v), (u, y), (u, v)):
        results = {"add": left + right, "sub": left - right,
                   "mul": left * right, "div": left / right}
        for name, got in results.items():
            for i in range(50):
                want = ops[name](_fraction(left, i), _fraction(right, i))
                err = abs(_fraction(got, i) - want)
                assert err <= 1e-30 * abs(want), (name, left.lo is None, right.lo is None, i)
    root = x.sqrt()
    for i in range(50):
        square = (Fraction(root.hi[i]) + Fraction(root.lo[i])) ** 2
        want = Fraction(x.hi[i]) + Fraction(x.lo[i])
        assert abs(square - want) <= 1e-30 * want


# exact doubles for the shortcut test: signed zeros, +-1e+-150, subnormals,
# values just below the 2^996 split bound and plain ones
SHORTCUT_DOUBLES = (
    0.0, -0.0, 1.0, -1.0, 1e150, -1e150, 1e-150, -1e-150,
    5e-324, -5e-324, 2.5e-310, -3.1e-312, 1.75 * 2.0**995, -1.3 * 2.0**995,
    3.0 * 2.0**-1020, 1.0 / 3.0, -2.0 / 7.0, 0.1, 12345.678, -6.02e23,
)


def _outcome(operation):
    """The bits of operation()'s (hi, lo), an exact result's lo read as
    +0.0, or the refusal double_range makes of its floating-point error."""
    try:
        with double_range("the operation"):
            got = operation()
    except DomainError as exc:
        return str(exc)
    lo = 0.0 if got.lo is None else got.lo
    return tuple(int(np.float64(part).view(np.int64)) for part in (got.hi, lo))


def test_exact_operand_paths_match_the_general_path_bit_for_bit():
    """Every shortcut gets the bits (zero signs included) or the refusal
    that the general formulas get on the same operands with a zero low
    part: exact +- exact, double-double +- exact, exact x exact,
    double-double x exact, x 2 / 4 / -1 / -2, a - b by two_diff
    against a + (-b), and division with an exact double on either side."""
    rng = np.random.default_rng(39)
    doubles = [np.float64(v) for v in SHORTCUT_DOUBLES]
    doubles += [np.float64(v) for v in rng.uniform(-1.0, 1.0, 6) * 10.0 ** rng.integers(-20, 20, 6)]
    dds = []
    for h in doubles:
        dd = DoubleDouble(*two_sum(h, h * np.float64(rng.uniform(-1e-17, 1e-17))))
        dds += [dd, -dd]  # the negation carries a -0.0 low part where lo is +0.0
    dds.append(DoubleDouble(np.float64(1.5), np.float64(-0.0)))

    def general(v):
        return v if isinstance(v, DoubleDouble) else DoubleDouble(v, np.float64(0.0))

    pairs = 0
    for y in doubles:
        Y = general(y)
        for x in doubles:
            X = general(x)
            for fast, slow in (
                (lambda: DoubleDouble(x) + DoubleDouble(y), lambda: X + Y),
                (lambda: DoubleDouble(x) - DoubleDouble(y), lambda: X + -Y),
                (lambda: DoubleDouble(x) * DoubleDouble(y), lambda: X * Y),
                (lambda: DoubleDouble(x) * y, lambda: X * Y),
                (lambda: DoubleDouble(x) / y, lambda: X / Y),
                (lambda: DoubleDouble(x) / DoubleDouble(y), lambda: X / Y),
            ):
                assert _outcome(fast) == _outcome(slow), (x, y)
                pairs += 1
        exact = DoubleDouble(y)
        assert _outcome(lambda: exact * exact) == _outcome(lambda: Y * Y), y
        for x in dds:
            for fast, slow in (
                (lambda: x + y, lambda: x + Y),
                (lambda: y + x, lambda: Y + x),
                (lambda: x - y, lambda: x + -Y),
                (lambda: y - x, lambda: Y + -x),
                (lambda: x * y, lambda: x * Y),
                (lambda: DoubleDouble(y) * x, lambda: Y * x),
                (lambda: x / y, lambda: x / Y),
                (lambda: DoubleDouble(y) / x, lambda: Y / x),
            ):
                assert _outcome(fast) == _outcome(slow), (x.hi, x.lo, y)
                pairs += 1
    for x in dds:
        for y in dds:
            assert _outcome(lambda: x - y) == _outcome(lambda: x + -y), (x.hi, x.lo, y.hi, y.lo)
        for c in (2, 4, -1, -2):
            C = DoubleDouble(np.float64(c), np.float64(0.0))
            assert _outcome(lambda: x * c) == _outcome(lambda: x * C), (x.hi, x.lo, c)
            assert _outcome(lambda: c * x) == _outcome(lambda: x * C), (x.hi, x.lo, c)
            exact = DoubleDouble(x.hi)
            assert _outcome(lambda: exact * c) == _outcome(lambda: general(x.hi) * C)
    # the cases meet refusals as well as values (numpy names the scalar
    # operation differently across versions)
    refusals = {_outcome(lambda: DoubleDouble(x) * y) for x in doubles for y in doubles}
    assert any(isinstance(o, str) and "overflow encountered" in o for o in refusals)
    assert pairs > 3000
    # a scaling forms no split, so it is exempt from the 2^996 bound
    big = np.float64(2.0**1020)
    assert _outcome(lambda: DoubleDouble(big) * 2) == _outcome(lambda: DoubleDouble(big * 2, None))
    assert "overflow" in _outcome(lambda: general(big) * DoubleDouble(np.float64(2.0), 0.0))


def test_division_matches_the_full_remainder_quotient_bit_for_bit():
    """The quotient reads only the high word of its remainder; its hi and
    lo bits, zero signs included, or its refusal, are those of the quotient
    that forms the whole remainder (tests/division_reference.py), on exact
    and double-double operands, signed zeros, subnormal magnitudes and
    magnitudes near 2^-900 and 2^900."""
    rng = np.random.default_rng(40)
    magnitudes = np.concatenate((
        [0.0, 5e-324, 2.5e-310, 3.1e-312],  # zero and subnormals
        2.0 ** rng.uniform(-910.0, -890.0, 4),
        2.0 ** rng.uniform(890.0, 910.0, 4),
        rng.uniform(0.5, 2.0, 4) * 10.0 ** rng.integers(-20, 20, 4),
    ))
    doubles = [np.float64(sign * m) for m in magnitudes for sign in (1.0, -1.0)]
    dds = []
    for h in doubles:
        dd = DoubleDouble(*two_sum(h, h * np.float64(rng.uniform(-1e-17, 1e-17))))
        dds += [dd, -dd]  # the negation carries a -0.0 low part where lo is +0.0
    numerators = [DoubleDouble(x) for x in doubles] + dds
    denominators = doubles + [DoubleDouble(y) for y in doubles] + dds
    values = 0
    for x in numerators:
        for y in denominators:
            got = _outcome(lambda: x / y)
            assert got == _outcome(lambda: full_remainder_quotient(x, y)), (x.hi, x.lo, y)
            values += not isinstance(got, str)
    # most pairs give a quotient, and the rest a refusal
    assert 0.5 * len(numerators) * len(denominators) < values < len(numerators) * len(denominators)


def test_square_matches_the_general_product_bit_for_bit():
    """x * x splits hi once and forms hi * lo once; the product of x with a
    copy of itself, which takes the general path, gets the same bits, the
    sign of a zero included."""
    rng = np.random.default_rng(7)
    hi = rng.uniform(-1.0, 1.0, 400) * 10.0 ** rng.integers(-150, 151, 400)
    hi[:8] = [0.0, -0.0, 1e150, -1e-150, 3e150, -7e-150, 1.0, -1.0]
    lo = hi * rng.uniform(-1e-17, 1e-17, 400)
    lo[8:16] = 0.0
    x = DoubleDouble(*two_sum(hi, lo))
    square, product = x * x, x * DoubleDouble(x.hi.copy(), x.lo.copy())
    assert np.array_equal(square.hi.view(np.int64), product.hi.view(np.int64))
    assert np.array_equal(square.lo.view(np.int64), product.lo.view(np.int64))


def test_constant_profile_jet():
    sol = ClosedFormSolution(Family.CONSTANT_PROFILE, T=1.0, k=0.3)
    jet = evaluate_jet(sol, (0.25, 5.0))
    assert abs(jet.value - 0.3 * 0.75) < 1e-15
    assert jet.d1 == (-0.3, 0.0)
    assert jet.d2 == (0.0, 0.0, 0.0)
    # a scalar time against an array of radii still gives full-shape entries
    xs = np.linspace(0.0, 2.0, 7)
    for evaluate, parts in BACKENDS:
        jet = evaluate(sol, (0.25, xs))
        for entry in _entries(jet):
            assert all(part.shape == xs.shape for part in parts(entry))
        assert np.asarray(jet.value, dtype=float).tolist() == [0.3 * 0.75] * 7
        assert np.asarray(jet.d1[0], dtype=float).tolist() == [-0.3] * 7
