"""Single-point calls: the scalar path matches the 0-d array path bit for bit."""

import functools
import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from floatconv import (
    CounterElement,
    DomainError,
    FloatingConverter,
    ForceCharacteristic,
    synthesize_spring_counter,
    synthesize_weight_counter,
)

R = 0.02
X_MAX = 0.12
GAP = 0.01

LAWS = {
    "linear": ForceCharacteristic.linear(k=124.55, x_max=X_MAX),
    "constant": ForceCharacteristic.constant(f0=10.0, x_max=X_MAX),
    "power_law": ForceCharacteristic.power_law(c=0.02, d=0.03, p=1.6, x_max=X_MAX),
    "tabulated": ForceCharacteristic.tabulated(
        [(0.0, 0.0), (0.03, 2.0), (0.07, 5.5), (0.12, 9.0)]
    ),
    "negated": ForceCharacteristic.power_law(c=0.02, d=0.03, p=1.6, x_max=X_MAX).invert(),
}
COUNTERS = {
    "weight": CounterElement.weight(10.0),
    "spring": CounterElement.spring(t0=10.0, k2=40.0),
}
PROFILES = {
    "weight": synthesize_weight_counter(LAWS["tabulated"], R, 10.0),
    "spring": synthesize_spring_counter(LAWS["linear"], R, COUNTERS["spring"], n_steps=512),
}


def _cases():
    """(id, single-point function, upper end of its domain) for every evaluator."""
    cases = [(f"force_at[{k}]", law.force_at, X_MAX) for k, law in LAWS.items()]
    cases += [(f"stored_energy[{k}]", law.stored_energy, X_MAX) for k, law in LAWS.items()]
    for c, counter in COUNTERS.items():
        profile = PROFILES[c]
        hi = profile.theta_max
        cases += [
            (f"radius_at[{c}]", profile.radius_at, hi),
            (f"payout[{c}]", profile.payout, hi),
            (f"realized_force[{c}]", functools.partial(profile.realized_force, counter), hi),
        ]
        for k, law in LAWS.items():
            conv = FloatingConverter(law, profile, counter, gap_x=GAP)
            cases += [
                (f"force_components[{k}-{c}]", conv.force_components, X_MAX),
                (f"operating_force[{k}-{c}]", conv.operating_force, X_MAX),
            ]
    return cases


CASES = _cases()
IDS = [case[0] for case in CASES]


def _bits(value):
    """Raw IEEE-754 bytes of a float or of each float in a tuple."""
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    assert type(value) is float
    return struct.pack("<d", value)


def _points(hi):
    """In-domain inputs: the interior, both endpoints and the 1e-12 slack."""
    slack = 1e-12 * max(hi, 1.0)
    edges = [0.0, -0.0, -slack, slack, 0.5 * slack, hi, hi - slack, hi + slack,
             math.nextafter(hi, 0.0), GAP, math.nextafter(GAP, 0.0), math.nextafter(GAP, 1.0)]
    edges = [x for x in edges if -slack <= x <= hi + slack]
    values = st.one_of(st.floats(min_value=0.0, max_value=hi), st.sampled_from(edges))
    as_float = st.tuples(values, st.sampled_from([float, np.float64])).map(lambda t: t[1](t[0]))
    return st.one_of(as_float, st.integers(min_value=0, max_value=math.floor(hi)))


@pytest.mark.parametrize("name, fn, hi", CASES, ids=IDS)
@given(data=st.data())
def test_scalar_matches_zero_d_array(name, fn, hi, data):
    x = data.draw(_points(hi))
    fast = fn(x)
    reference = fn(np.asarray(x))
    if isinstance(fast, tuple):
        reference = tuple(float(v) for v in reference)
    else:
        reference = float(reference)
    assert _bits(fast) == _bits(reference)


@pytest.mark.parametrize("name, fn, hi", CASES, ids=IDS)
@pytest.mark.parametrize(
    "where", ["nan", "inf", "-inf", "below", "above", "above_slack", "int_above"]
)
def test_scalar_domain_errors_match_array_path(name, fn, hi, where):
    slack = 1e-12 * max(hi, 1.0)
    x = {
        "nan": math.nan,
        "inf": math.inf,
        "-inf": -math.inf,
        "below": -1e-3,
        "above": 1.5 * hi,
        "above_slack": hi + 4 * slack,
        "int_above": math.floor(hi) + 1,
    }[where]
    with pytest.raises(DomainError) as fast:
        fn(x)
    with pytest.raises(DomainError) as reference:
        fn(np.asarray(x))
    assert str(fast.value) == str(reference.value)


@pytest.mark.parametrize(
    "law, x",
    [
        # (x + d)**p overflows: the force underflows to 0 on both paths
        (ForceCharacteristic.power_law(c=1.0, d=2.0, p=2000.0, x_max=1.0), 0.5),
        # (x + d)**p underflows to 0: the force is inf on both paths
        (ForceCharacteristic.power_law(c=1.0, d=1e-200, p=2.0, x_max=1e-201), 0.0),
    ],
    ids=["overflow", "underflow"],
)
def test_power_law_scalar_keeps_numpy_overflow_semantics(law, x):
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        fast = law.force_at(x), law.stored_energy(x)
        reference = tuple(float(fn(np.asarray(x))) for fn in (law.force_at, law.stored_energy))
    assert _bits(fast) == _bits(reference)
