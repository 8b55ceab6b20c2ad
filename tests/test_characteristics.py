"""Force-law evaluation, energy integrals, inverses, and exact negation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floatconv import DomainError, ForceCharacteristic, UnreachableForce, ValidationError

stiffness = st.floats(min_value=1e-2, max_value=1e5, allow_nan=False)
extension_limit = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)


def test_linear_force_values():
    lin = ForceCharacteristic.linear(k=100.0, x_max=0.12)
    assert lin.force_at(0.0) == 0.0
    assert lin.force_at(0.1) == pytest.approx(10.0, rel=1e-12)


def test_constant_and_power_law_values():
    const = ForceCharacteristic.constant(f0=10.0, x_max=0.2)
    assert const.force_at(0.17) == 10.0
    pw = ForceCharacteristic.power_law(c=1.0, d=0.1, p=2.0, x_max=0.1)
    assert pw.force_at(0.0) == pytest.approx(100.0, rel=1e-12)
    assert pw.force_at(0.1) == pytest.approx(25.0, rel=1e-12)


def test_tabulated_midpoint_interpolation():
    tab = ForceCharacteristic.tabulated([(0.0, 0.0), (0.1, 10.0)])
    assert tab.force_at(0.05) == pytest.approx(5.0, rel=1e-12)


def test_negated_flips_sign():
    inv = ForceCharacteristic.linear(k=100.0, x_max=0.12).invert()
    assert inv.force_at(0.1) == pytest.approx(-10.0, rel=1e-12)
    assert inv.force_at(0.0) == 0.0


def test_invert_constant():
    inv = ForceCharacteristic.constant(f0=10.0, x_max=0.2).invert()
    for x in (0.0, 0.1, 0.2):
        assert inv.force_at(x) == -10.0


def test_vectorized_evaluation_matches_scalar():
    tab = ForceCharacteristic.tabulated([(0.0, 1.0), (0.04, 3.0), (0.1, 4.0)])
    xs = np.linspace(0.0, 0.1, 23)
    vec = tab.force_at(xs)
    assert vec == pytest.approx([tab.force_at(float(x)) for x in xs], abs=0.0)


def test_stored_energy_closed_forms():
    lin = ForceCharacteristic.linear(k=100.0, x_max=0.12)
    assert lin.stored_energy(0.1) == pytest.approx(0.5, rel=1e-12)
    const = ForceCharacteristic.constant(f0=10.0, x_max=0.3)
    assert const.stored_energy(0.2) == pytest.approx(2.0, rel=1e-12)


def test_power_law_energy_against_fine_quadrature():
    # oracle: fine-step trapezoid of 1/(x+0.1)**2, analytically
    # 1/0.1 - 1/0.2 = 5
    pw = ForceCharacteristic.power_law(c=1.0, d=0.1, p=2.0, x_max=0.1)
    xs = np.linspace(0.0, 0.1, 2**17 + 1)
    oracle = np.trapezoid(1.0 / (xs + 0.1) ** 2, xs)
    assert oracle == pytest.approx(5.0, abs=5e-9)
    assert pw.stored_energy(0.1) == pytest.approx(oracle, abs=5e-6)


def test_negated_energy_is_minus_inner():
    pw = ForceCharacteristic.power_law(c=1.0, d=0.1, p=2.0, x_max=0.1)
    assert pw.invert().stored_energy(0.1) == -pw.stored_energy(0.1)


# -- energy oracle ---------------------------------------------------------------

_trapz = getattr(np, "trapezoid", None) or np.trapz

# knots off any uniform grid; x_max inside the last segment
OFF_GRID = ForceCharacteristic.tabulated(
    [(0.0, 0.5), (0.0123, 2.0), (0.0371, 1.25), (0.0902, 7.75), (0.13, 9.0)], x_max=0.1117
)
ENERGY_LAWS = {
    "linear": ForceCharacteristic.linear(k=137.5, x_max=0.4),
    "constant": ForceCharacteristic.constant(f0=10.0, x_max=0.3),
    "power_law_p1": ForceCharacteristic.power_law(c=0.3, d=0.02, p=1.0, x_max=0.12),
    "power_law": ForceCharacteristic.power_law(c=0.02, d=0.03, p=1.6, x_max=0.12),
    "tabulated": OFF_GRID,
    "negated": ForceCharacteristic.power_law(c=0.02, d=0.03, p=1.6, x_max=0.12).invert(),
}


def quadrature_energy(char, x, panels=2**16):
    """Test-side oracle: trapezoid of force_at on a uniform grid plus the knots.

    Adding a tabulated law's knots to the grid makes the rule exact for it;
    smooth laws converge as panels**-2.
    """
    grid = np.linspace(0.0, x, panels + 1)
    law = char.inner if char.kind == "negated" else char
    if law.kind == "tabulated":
        knots = np.array([k for k, _ in law.points])
        grid = np.union1d(grid, knots[knots < x])
    return float(_trapz(char.force_at(grid), grid))


@pytest.mark.parametrize("char", ENERGY_LAWS.values(), ids=ENERGY_LAWS.keys())
def test_stored_energy_matches_quadrature_oracle(char):
    for frac in (0.0, 1e-6, 0.137, 0.5, 0.861, 1.0):
        x = frac * char.x_max
        exact = char.stored_energy(x)
        assert exact == pytest.approx(quadrature_energy(char, x), rel=1e-9, abs=1e-15)


def test_tabulated_energy_is_exact_sum_of_knot_trapezoids():
    # F(0.1117) on the last segment, then one trapezoid per segment by hand
    f_end = 7.75 + (9.0 - 7.75) * (0.1117 - 0.0902) / (0.13 - 0.0902)
    by_hand = (
        0.5 * (0.5 + 2.0) * 0.0123
        + 0.5 * (2.0 + 1.25) * (0.0371 - 0.0123)
        + 0.5 * (1.25 + 7.75) * (0.0902 - 0.0371)
        + 0.5 * (7.75 + f_end) * (0.1117 - 0.0902)
    )
    assert OFF_GRID.stored_energy(0.1117) == pytest.approx(by_hand, rel=1e-14)
    # a uniform 2048-panel grid misses the knots: about 1e-7 relative error
    grid = np.linspace(0.0, 0.1117, 2049)
    coarse = float(_trapz(OFF_GRID.force_at(grid), grid))
    assert abs(coarse - by_hand) > 1e-8 * by_hand


@pytest.mark.parametrize("char", ENERGY_LAWS.values(), ids=ENERGY_LAWS.keys())
def test_stored_energy_accepts_arrays(char):
    xs = np.linspace(0.0, char.x_max, 37)
    vec = char.stored_energy(xs)
    assert vec.shape == xs.shape
    assert vec == pytest.approx([char.stored_energy(float(x)) for x in xs], rel=1e-14, abs=0.0)


def test_power_law_energy_keeps_precision_near_zero():
    pw = ForceCharacteristic.power_law(c=0.02, d=0.03, p=1.6, x_max=0.12)
    x = 1e-12
    # E ~ F(0)*x for tiny x; forming 1 + x/d before the log keeps only
    # about seven digits here
    assert pw.stored_energy(x) == pytest.approx(pw.force_at(0.0) * x, rel=1e-9, abs=0.0)


# -- inverse oracle --------------------------------------------------------------


def bisect_extension(char, target):
    """Test-side oracle: bisection on force_at over [0, x_max]."""
    lo, hi = 0.0, char.x_max
    f_lo = char.force_at(lo) - target
    f_hi = char.force_at(hi) - target
    if f_lo == 0.0:
        return lo
    if f_lo * f_hi > 0:
        raise UnreachableForce(f"{target:g} N outside characteristic range")
    while hi - lo > 1e-14 * char.x_max:
        mid = 0.5 * (lo + hi)
        fm = char.force_at(mid) - target
        if fm == 0.0:
            return mid
        if f_lo * fm < 0:
            hi = mid
        else:
            lo, f_lo = mid, fm
    return 0.5 * (lo + hi)


FALLING = ForceCharacteristic.tabulated([(0.0, 9.0), (0.04, 6.5), (0.0777, 2.0), (0.12, -1.0)])
INVERSE_LAWS = {
    "linear": ForceCharacteristic.linear(k=124.55, x_max=0.1205),
    "power_law_p1": ForceCharacteristic.power_law(c=0.3, d=0.02, p=1.0, x_max=0.12),
    "power_law": ForceCharacteristic.power_law(c=0.02, d=0.03, p=1.6, x_max=0.12),
    "tabulated": ForceCharacteristic.tabulated([(0.0, 0.5), (0.0123, 2.0), (0.0902, 7.75), (0.13, 9.0)]),
    "tabulated_falling": FALLING,
    "negated": FALLING.invert(),
    "negated_power_law": ForceCharacteristic.power_law(c=0.02, d=0.03, p=1.6, x_max=0.12).invert(),
}


@pytest.mark.parametrize("char", INVERSE_LAWS.values(), ids=INVERSE_LAWS.keys())
def test_extension_matches_bisection_oracle(char):
    for frac in (0.0, 1e-9, 0.0123 / 0.13, 0.25, 0.5, 0.77, 1.0 - 1e-9, 1.0):
        target = char.force_at(frac * char.x_max)
        got = char.extension_at(target)
        assert abs(got - bisect_extension(char, target)) <= 1e-12 * char.x_max
        assert char.force_at(got) == pytest.approx(target, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("char", INVERSE_LAWS.values(), ids=INVERSE_LAWS.keys())
def test_extension_out_of_range_raises_like_bisection(char):
    ends = sorted((char.force_at(0.0), char.force_at(char.x_max)))
    span = ends[1] - ends[0]
    for target in (ends[0] - 0.01 * span - 1.0, ends[1] + 0.01 * span + 1.0):
        with pytest.raises(UnreachableForce):
            bisect_extension(char, target)
        with pytest.raises(UnreachableForce):
            char.extension_at(target)
    with pytest.raises(UnreachableForce):
        char.extension_at(math.nan)


def test_constant_extension():
    const = ForceCharacteristic.constant(f0=10.0, x_max=0.2)
    assert const.extension_at(10.0) == bisect_extension(const, 10.0) == 0.0
    for target in (9.0, 11.0):
        with pytest.raises(UnreachableForce):
            bisect_extension(const, target)
        with pytest.raises(UnreachableForce):
            const.extension_at(target)


def test_linear_and_tabulated_extension_formulas():
    assert ForceCharacteristic.linear(k=100.0, x_max=0.12).extension_at(10.0) == 10.0 / 100.0
    tab = ForceCharacteristic.tabulated([(0.0, 0.0), (0.05, 2.0), (0.08, 2.0), (0.12, 10.0)])
    assert tab.extension_at(1.0) == 0.0 + (1.0 - 0.0) / (2.0 - 0.0) * (0.05 - 0.0)
    # a flat segment inverts to its left end
    assert tab.extension_at(2.0) == 0.05
    assert tab.extension_at(6.0) == 0.08 + (6.0 - 2.0) / (10.0 - 2.0) * (0.12 - 0.08)


@pytest.mark.parametrize(
    "char",
    [
        ForceCharacteristic.tabulated([(0.0, 0.0), (0.04, 6.0), (0.08, 3.0), (0.12, 9.0)]),
        ForceCharacteristic.tabulated([(0.0, 0.0), (0.04, 6.0), (0.08, 3.0), (0.12, 9.0)]).invert(),
    ],
    ids=["tabulated", "negated"],
)
def test_non_monotone_tabulated_extension_rejected(char):
    with pytest.raises(ValidationError, match="monotone"):
        char.extension_at(char.force_at(0.02))


@pytest.mark.parametrize(
    "char",
    [
        ForceCharacteristic.linear(k=100.0, x_max=0.12),
        ForceCharacteristic.constant(f0=10.0, x_max=0.12),
        ForceCharacteristic.power_law(c=1.0, d=0.1, p=2.0, x_max=0.12),
        ForceCharacteristic.tabulated([(0.0, 1.0), (0.03, 7.0), (0.12, 2.0)]),
        ForceCharacteristic.linear(k=5.0, x_max=0.12).invert(),
    ],
    ids=["linear", "constant", "power_law", "tabulated", "negated"],
)
def test_negation_cancels_exactly_for_every_kind(char):
    inv = char.invert()
    xs = np.linspace(0.0, char.x_max, 101)
    assert np.all(char.force_at(xs) + inv.force_at(xs) == 0.0)


@given(k=stiffness, x_max=extension_limit)
def test_negation_cancels_exactly(k, x_max):
    lin = ForceCharacteristic.linear(k=k, x_max=x_max)
    inv = lin.invert()
    xs = np.linspace(0.0, x_max, 101)
    assert np.all(lin.force_at(xs) + inv.force_at(xs) == 0.0)


@given(k=stiffness, x_max=extension_limit)
def test_double_negation_is_pointwise_identity(k, x_max):
    lin = ForceCharacteristic.linear(k=k, x_max=x_max)
    back = lin.invert().invert()
    xs = np.linspace(0.0, x_max, 101)
    assert np.all(back.force_at(xs) == lin.force_at(xs))


@given(
    knots=st.lists(
        st.tuples(
            st.floats(min_value=1e-4, max_value=1.0),
            st.floats(min_value=0.0, max_value=100.0),
        ),
        min_size=1,
        max_size=12,
    ),
    f_at_zero=st.floats(min_value=0.0, max_value=100.0),
)
def test_tabulated_reproduces_knots_exactly(knots, f_at_zero):
    xs = np.cumsum([0.0] + [dx for dx, _ in knots])
    fs = [f_at_zero] + [f for _, f in knots]
    tab = ForceCharacteristic.tabulated(list(zip(xs, fs)))
    for x, f in zip(xs, fs):
        assert tab.force_at(float(x)) == f


@settings(deadline=None)
@given(
    k=stiffness,
    x_max=extension_limit,
    f1=st.floats(min_value=0.0, max_value=1.0),
    f2=st.floats(min_value=0.0, max_value=1.0),
)
def test_stored_energy_non_decreasing_for_non_negative_force(k, x_max, f1, f2):
    lo, hi = sorted((f1 * x_max, f2 * x_max))
    for char in (
        ForceCharacteristic.linear(k=k, x_max=x_max),
        ForceCharacteristic.power_law(c=k, d=0.05 * x_max, p=1.5, x_max=x_max),
    ):
        assert char.stored_energy(hi) >= char.stored_energy(lo) - 1e-12


def test_domain_errors():
    lin = ForceCharacteristic.linear(k=100.0, x_max=0.12)
    with pytest.raises(DomainError):
        lin.force_at(-0.01)
    with pytest.raises(DomainError):
        lin.force_at(0.121)
    with pytest.raises(DomainError):
        lin.stored_energy(0.13)
    # closed domain: the endpoint itself is legal
    assert lin.force_at(0.12) == pytest.approx(12.0, rel=1e-12)


def test_endpoint_ulp_slack_accepted():
    lin = ForceCharacteristic.linear(k=100.0, x_max=0.12)
    assert lin.force_at(0.12 * (1 + 1e-13)) == pytest.approx(12.0, rel=1e-12)


def test_validation_errors():
    with pytest.raises(ValidationError):
        ForceCharacteristic.linear(k=-5.0, x_max=0.1)
    with pytest.raises(ValidationError):
        ForceCharacteristic.linear(k=100.0, x_max=0.0)
    with pytest.raises(ValidationError):
        ForceCharacteristic.tabulated([(0.0, 0.0)])
    with pytest.raises(ValidationError):
        ForceCharacteristic.tabulated([(0.01, 0.0), (0.1, 5.0)])  # first x != 0
    with pytest.raises(ValidationError):
        ForceCharacteristic.tabulated([(0.0, 0.0), (0.1, 5.0), (0.1, 6.0)])
    with pytest.raises(ValidationError):
        ForceCharacteristic.power_law(c=1.0, d=0.0, p=2.0, x_max=0.1)
    with pytest.raises(ValidationError):
        ForceCharacteristic.power_law(c=1.0, d=0.1, p=0.5, x_max=0.1)
