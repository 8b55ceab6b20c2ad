"""Single-point calls: any real scalar gives a Python float, the value an array call
gives at that point: bit for bit, or within a few ulps where numpy's vectorized
``power`` loop differs from its scalar one."""

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
from floatconv.characteristics import clip_domain

R = 0.02
X_MAX = 0.12
GAP = 0.01

LAWS = {
    "linear": ForceCharacteristic.linear(k=124.55, x_max=X_MAX),
    "constant": ForceCharacteristic.constant(f0=10.0, x_max=X_MAX),
    "power_law": ForceCharacteristic.power_law(c=0.02, d=0.03, p=1.6, x_max=X_MAX),
    # p = 1 takes the logarithmic energy branch
    "power_law_p1": ForceCharacteristic.power_law(c=0.3, d=0.02, p=1.0, x_max=X_MAX),
    "tabulated": ForceCharacteristic.tabulated(
        [(0.0, 0.0), (0.03, 2.0), (0.07, 5.5), (0.12, 9.0)]
    ),
}
COUNTERS = {
    "weight": CounterElement.weight(10.0),
    "spring": CounterElement.spring(t0=10.0, k2=40.0),
}
PROFILES = {
    "weight": synthesize_weight_counter(LAWS["tabulated"], R, 10.0),
    "spring": synthesize_spring_counter(LAWS["linear"], R, COUNTERS["spring"], n_steps=512),
}
# a pulley shorter than the laws, so GAP + R*theta_max (0.0814 m) sets u_max.
# At u_max, (u_max - GAP) / R rounds an ulp past theta_max, where the
# payout's last panel, extended, differs in the last bit: force_components
# must clip the pulley angle as well as u.
SHORT_PROFILE = synthesize_spring_counter(
    LAWS["linear"], R, COUNTERS["spring"], n_steps=512, theta_max=3.57
)


def _cases():
    """(id, single-point function, upper end of its domain, ulps) for every evaluator.

    ulps is 0 where the scalar must equal the array element bit for bit. A
    power law's force may differ by a few ulps (numpy's vectorized ``power``
    loop is not its scalar one): 4 ulps of the force, and of the larger of
    the two forces an operating force subtracts.
    """
    def ulps(k):
        return 4 if k == "power_law" else 0

    cases = [(f"force_at[{k}]", law.force_at, X_MAX, ulps(k)) for k, law in LAWS.items()]
    cases += [(f"stored_energy[{k}]", law.stored_energy, X_MAX, 0) for k, law in LAWS.items()]
    for c, counter in COUNTERS.items():
        profile = PROFILES[c]
        hi = profile.theta_max
        cases += [
            (f"payout[{c}]", profile.payout, hi, 0),
            (f"arc_length[{c}]", profile.arc_length, hi, 0),
            (f"realized_force[{c}]", functools.partial(profile.realized_force, counter), hi, 0),
        ]
        for k, law in LAWS.items():
            conv = FloatingConverter(law, profile, counter, gap_x=GAP)
            cases += [
                (f"force_components[{k}-{c}]", conv.force_components, X_MAX, ulps(k)),
                (f"operating_force[{k}-{c}]", conv.operating_force, X_MAX, ulps(k)),
            ]
    for k, law in LAWS.items():
        conv = FloatingConverter(law, SHORT_PROFILE, COUNTERS["spring"], gap_x=GAP)
        assert conv.u_max == GAP + R * SHORT_PROFILE.theta_max < X_MAX
        cases.append(
            (f"force_components[{k}-short_pulley]", conv.force_components, conv.u_max, ulps(k))
        )
    return cases


CASES = _cases()
IDS = [case[0] for case in CASES]
# the counter's evaluators have no domain to refuse; drawn over payouts to 1 m and
# released energies to 10 J
COUNTER_CASES = [
    (f"{method}[{c}]", getattr(counter, method), hi, 0)
    for c, counter in COUNTERS.items()
    for method, hi in [("tension", 1.0), ("released_energy", 1.0), ("tension_for_energy", 10.0)]
]


def _bits(value):
    """Raw IEEE-754 bytes of a float or of each float in a tuple."""
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    assert type(value) is float
    return struct.pack("<d", value)


def _element(fn, x):
    """fn at x as the first element of a 2-element array call: the array path."""
    out = fn(np.array([x, x]))
    return tuple(float(v[0]) for v in out) if isinstance(out, tuple) else float(out[0])


def _edges(hi):
    """Both endpoints of [0, hi], the 1e-12 slack past them, and the gap's neighbours."""
    slack = 1e-12 * max(hi, 1.0)
    edges = [0.0, -0.0, -slack, slack, 0.5 * slack, hi, hi - slack, hi + slack,
             math.nextafter(hi, 0.0), GAP, math.nextafter(GAP, 0.0), math.nextafter(GAP, 1.0)]
    return [x for x in edges if -slack <= x <= hi + slack]


def _points(hi):
    """In-domain inputs: the interior, both endpoints and the 1e-12 slack, as a
    Python, numpy or 0-d array number."""
    slack = 1e-12 * max(hi, 1.0)
    values = st.one_of(st.floats(min_value=0.0, max_value=hi), st.sampled_from(_edges(hi)))
    wrappers = [float, np.float64, np.float32, np.asarray]
    as_float = st.tuples(values, st.sampled_from(wrappers)).map(lambda t: t[1](t[0]))
    ints = st.integers(min_value=0, max_value=math.floor(hi))
    as_int = st.tuples(ints, st.sampled_from([int, np.int64, np.asarray])).map(lambda t: t[1](t[0]))
    # a float32 can round past the slack; the domain errors have their own test
    return st.one_of(as_float, as_int).filter(lambda x: -slack <= float(x) <= hi + slack)


@pytest.mark.parametrize("name, fn, hi, ulps", CASES + COUNTER_CASES,
                         ids=IDS + [case[0] for case in COUNTER_CASES])
@given(data=st.data())
def test_scalar_is_a_float_equal_to_the_array_element(name, fn, hi, ulps, data):
    x = data.draw(_points(hi))
    fast, reference = fn(x), _element(fn, x)
    # a numpy number, an int or a 0-d array takes the float path once clip_domain reads it
    assert _bits(fast) == _bits(fn(float(x)))
    if not ulps:
        assert _bits(fast) == _bits(reference)
        return
    _bits(fast)   # Python floats
    if name.startswith("operating_force"):   # a difference: the ulps of its larger term
        scale = max(abs(v) for v in fn.__self__.force_components(x))
    else:
        scale = np.abs(reference)
    assert np.all(np.abs(np.subtract(fast, reference)) <= ulps * np.spacing(scale))


@pytest.mark.parametrize("name, fn, hi, ulps", CASES, ids=IDS)
@pytest.mark.parametrize(
    "where", ["nan", "inf", "-inf", "below", "above", "above_slack", "past_slack", "int_above"]
)
def test_scalar_domain_errors_match_array_path(name, fn, hi, ulps, where):
    slack = 1e-12 * max(hi, 1.0)
    x = {
        "nan": math.nan,
        "inf": math.inf,
        "-inf": -math.inf,
        "below": -1e-3,
        "above": 1.5 * hi,
        "above_slack": hi + 4 * slack,
        "past_slack": math.nextafter(hi + slack, math.inf),   # the first float refused
        "int_above": math.floor(hi) + 1,
    }[where]
    with pytest.raises(DomainError) as fast:
        fn(x)
    with pytest.raises(DomainError) as reference:
        fn(np.array([x, x]))
    assert str(fast.value) == str(reference.value)
    if not math.isfinite(x):
        assert str(fast.value) == "displacement must be finite"


@pytest.mark.parametrize("name, fn, hi, ulps", CASES, ids=IDS)
def test_a_real_scalar_gives_the_float_calls_bits(name, fn, hi, ulps):
    # the slack past hi clips onto hi; -0.0 keeps its sign into the evaluators, as
    # the array path keeps it
    assert _bits(fn(hi + 1e-12 * max(hi, 1.0))) == _bits(fn(hi))
    for x in _edges(hi):
        want = _bits(fn(x))
        assert _bits(fn(np.float64(x))) == _bits(fn(np.asarray(x))) == want
        if not ulps:
            assert want == _bits(_element(fn, x))
    assert _bits(fn(0)) == _bits(fn(np.int64(0))) == _bits(fn(0.0))


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
        reference = tuple(_element(fn, x) for fn in (law.force_at, law.stored_energy))
    assert _bits(fast) == _bits(reference)


def test_tabulated_slopes_past_the_float_range_are_inf_without_a_warning():
    # F differences and F/x slopes that overflow: the cached slopes are inf, as plain
    # float arithmetic gives them, and no RuntimeWarning is raised building them
    law = ForceCharacteristic.tabulated(
        [(0.0, 0.0), (1e-300, 1e300), (1.0, -1.7e308), (2.0, 1.7e308)]
    )
    xs = [5e-301, 0.5, 1.5]
    got = [law.force_at(x) for x in xs]
    assert got == law.force_at(np.array(xs)).tolist() == [math.inf, -8.49999995e307, math.inf]


# -- clip_domain ------------------------------------------------------------------

CLIP_ENDS = [X_MAX, SHORT_PROFILE.theta_max, GAP + R * SHORT_PROFILE.theta_max, 3.0]


@pytest.mark.parametrize("hi", CLIP_ENDS)
def test_clip_domain_gives_a_float_the_value_numpy_inputs_get(hi):
    # a Python float, an np.float64 and a 1-element array take one read, slack clip included
    for x in _edges(hi):
        as_float, as_numpy = clip_domain(x, hi), clip_domain(np.float64(x), hi)
        as_array = clip_domain(np.array([x]), hi)
        assert _bits(as_float) == _bits(as_numpy) == _bits(float(as_array[0]))


@pytest.mark.parametrize(
    "x, text",
    [
        (math.nan, "displacement must be finite"),
        (math.inf, "displacement must be finite"),
        (-math.inf, "displacement must be finite"),
        (-1e-3, "value range [-0.001, -0.001] outside domain [0, 0.12]"),
        (-4e-12, "value range [-4e-12, -4e-12] outside domain [0, 0.12]"),
        (X_MAX + 4e-12, "value range [0.12, 0.12] outside domain [0, 0.12]"),
        (0.2, "value range [0.2, 0.2] outside domain [0, 0.12]"),
    ],
    ids=["nan", "inf", "-inf", "below", "below_slack", "above_slack", "above"],
)
@pytest.mark.parametrize("wrap", [float, np.float64, lambda x: np.array([x])],
                         ids=["float", "float64", "array"])
def test_clip_domain_refuses_a_value_outside_the_domain(x, text, wrap):
    with pytest.raises(DomainError) as info:
        clip_domain(wrap(x), X_MAX)
    assert str(info.value) == text
